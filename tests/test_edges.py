"""The validators' accepted edges against 50-digit mpmath.

Each property: a result is within a stated rounding bound of the exact value,
or the call raises a typed error; a result is never NaN; and a scan never
exits 3 (a ConsistencyError from float trouble) or 5 (a false theorem
violation).  The points sit near the two maximal families, at overlaps from
1e-6 to 1 - 1e-6, with coefficients up to 1e300 and Fock amplitudes up to 8.
"""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cohent.analytic import SuperpositionCoeffs, concurrence
from cohent.classify import classify
from cohent.coherent import CoherentConfig, OverlapPair
from cohent.errors import CohentError, ConsistencyError, DegenerateStateError
from cohent.oracle import oracle_concurrence
from cohent.scan import ScanConfig, run_scan

EPS = sys.float_info.epsilon
EDGE_X = (1e-6, 0.5, 0.999, 1.0 - 1e-6)
# |alpha - gamma| and |beta - delta|, from just above the default
# distinct_tol of 1e-9 up
GAPS = (1.2e-9, 1.5e-8, 2e-8, 1e-7, 1e-4, 0.1, 1.0)


def exact(mu, lam, rho, nu, p1, p2):
    """(C, N) from the Gram form at 50 digits, as floats."""
    with mpmath.workdps(50):
        mu, lam, rho, nu, p1, p2 = map(mpmath.mpf, (mu, lam, rho, nu, p1, p2))
        n_sq = (mu**2 + lam**2 + rho**2 + nu**2 + 2 * (mu * lam + rho * nu) * p2
                + 2 * (mu * rho + lam * nu) * p1 + 2 * (mu * nu + lam * rho) * p1 * p2)
        c = 2 * abs(mu * nu - lam * rho) * mpmath.sqrt((1 - p1**2) * (1 - p2**2)) / n_sq
        return float(c), float(mpmath.sqrt(n_sq))


def exact_overlaps(config):
    """<alpha|gamma> and <delta|beta> at 50 digits."""
    with mpmath.workdps(50):
        return tuple(mpmath.exp(-(mpmath.mpf(u) - mpmath.mpf(v)) ** 2 / 2)
                     for u, v in ((config.alpha, config.gamma),
                                  (config.delta, config.beta)))


def bound(mu, lam, rho, nu, c, norm):
    """Rounding bound on the closed-form C, with c and norm the exact C and N.

    The numerator loses (|mu nu| + |lam rho|) / |mu nu - lam rho| ulps to
    cancellation.  Each amplitude errs by a few ulps of the coefficient sum
    S, so N^2 errs by a relative ~eps S / N.  Over 20,000 samples near the
    families the error never passed 1.5x this model; the bound is 8x it.  A
    product of coefficients that underflows errs by up to the smallest
    normal float, which adds that over the N^2 `concurrence` forms.  It
    forms it on the coefficients' unit ray (`analytic._unit_ray`), after
    scaling the largest into [1, 2) by a power of two.
    """
    if norm == 0.0:
        return math.inf
    top = max(abs(mu), abs(lam), abs(rho), abs(nu))
    formed = math.ldexp(norm, 1 - math.frexp(top)[1])
    underflow = 8.0 * sys.float_info.min / formed / formed
    products, diff = _products(mu, lam, rho, nu)
    cancel = float(products / diff) if diff * 2 ** 1000 > products else math.inf
    mu, lam, rho, nu, norm = (v / top for v in (mu, lam, rho, nu, norm))
    size = abs(mu) + abs(lam) + abs(rho) + abs(nu)
    return 8.0 * EPS * c * (cancel + size / norm + 1.0) + underflow


def _products(mu, lam, rho, nu):
    """|mu nu| + |lam rho| and |mu nu - lam rho|, exactly: in floats a
    product of a subnormal coefficient rounds, or underflows to 0."""
    mu, lam, rho, nu = map(Fraction, (mu, lam, rho, nu))
    return abs(mu * nu) + abs(lam * rho), abs(mu * nu - lam * rho)


def assert_close(got, mu, lam, rho, nu, p1, p2):
    assert not math.isnan(got)
    c, norm = exact(mu, lam, rho, nu, p1, p2)
    # C is exactly 0 only on mu nu = lam rho; a nonzero C can round to 0.0.
    if _products(mu, lam, rho, nu)[1] == 0:
        assert got == 0.0
    else:
        assert abs(got - c) <= bound(mu, lam, rho, nu, c, norm)


@st.composite
def near_family(draw, scale=st.just(1.0)):
    """(mu, lam, rho, nu, x): a point of class (a) or (b), nudged, or a
    random point, all times a common scale."""
    x = draw(st.sampled_from(EDGE_X))
    f = draw(st.floats(-10.0, 10.0))
    kind = draw(st.sampled_from(["a", "b", "random"]))
    if kind == "a":
        point = [1.0, f, -2.0 * x - f, 1.0]
    elif kind == "b":
        point = [1.0, f, f, -1.0 - 2.0 * f * x]
    else:
        point = [1.0] + [draw(st.floats(-10.0, 10.0)) for _ in range(3)]
    nudge = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    point = [v + nudge * draw(st.floats(-1.0, 1.0)) for v in point]
    factor = draw(scale)
    return (*(v * factor for v in point), x)


@settings(max_examples=400, deadline=None)
@given(near_family())
def test_concurrence_near_the_families(point):
    *coeffs, x = point
    assert_close(concurrence(SuperpositionCoeffs(*coeffs), OverlapPair(x, x)),
                 *coeffs, x, x)


@settings(max_examples=200, deadline=None)
@given(near_family(scale=st.floats(1e150, 1e300) | st.floats(-1e300, -1e150)))
# C is subnormal here, one ulp off; its products are formed after rescaling
@example((5.458915783827469e+157, 0.0, 0.0, 5.045419583098643e-151, 0.999))
def test_huge_coefficients_take_the_rescaling_path(point):
    *coeffs, x = point
    assert_close(concurrence(SuperpositionCoeffs(*coeffs), OverlapPair(x, x)),
                 *coeffs, x, x)


@settings(max_examples=300, deadline=None)
@given(near_family(scale=st.floats(-4.0, 4.0).filter(bool)), st.integers(-500, 500),
       st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_verdict_depends_only_on_the_ray(point, k, tol):
    # wherever 2^k v is exact: every nonzero coefficient of v and of 2^k v
    # is a normal float
    *v, x = point
    scaled = [math.ldexp(c, k) for c in v]
    assume(all(c == 0.0 or sys.float_info.min <= abs(c)
               and sys.float_info.min <= abs(s) < math.inf for c, s in zip(v, scaled)))
    pair = OverlapPair(x, x)
    assert (classify(SuperpositionCoeffs(*scaled), pair, tol).verdict
            is classify(SuperpositionCoeffs(*v), pair, tol).verdict)


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(-10.0, 10.0), lam=st.floats(-10.0, 10.0),
       rho=st.floats(-10.0, 10.0), nu=st.floats(-10.0, 10.0),
       alpha=st.floats(-8.0, 8.0), beta=st.floats(-8.0, 8.0),
       gap1=st.sampled_from(GAPS), gap2=st.sampled_from(GAPS))
# With a subnormal rho, C (exactly 1.9e-324, then 3.1e-324) is within its
# underflow term of 5e-324 or 0
@example(0.0, 1.0, 5e-324, 1.0, 0.0, 0.0, 1.0, 1.0)
@example(0.0, 2.0, 5e-324, 0.0, 0.0, 0.0, 1.0, 1.0)
def test_concurrence_at_nearly_equal_amplitudes(mu, lam, rho, nu, alpha, beta,
                                                gap1, gap2):
    assume(max(abs(mu), abs(lam), abs(rho), abs(nu)) > 0.0)
    gamma = alpha + gap1 if alpha < 0 else alpha - gap1
    delta = beta + gap2 if beta < 0 else beta - gap2
    config = CoherentConfig(alpha, beta, gamma, delta)
    coeffs = SuperpositionCoeffs(mu, lam, rho, nu)
    # Below a gap of ~1.05e-8 the overlap rounds to 1; its complement does not.
    p1, p2 = exact_overlaps(config)
    try:
        got = concurrence(coeffs, OverlapPair.from_config(config))
    except DegenerateStateError:
        # only where N is within rounding of the amplitude sums
        _, norm = exact(mu, lam, rho, nu, p1, p2)
        assert norm <= 8.0 * EPS * (abs(mu) + abs(lam) + abs(rho) + abs(nu))
        return
    assert_close(got, mu, lam, rho, nu, p1, p2)


@settings(max_examples=25, deadline=None)
@given(amps=st.lists(st.floats(7.0, 8.0) | st.floats(-8.0, -7.0), min_size=4,
                     max_size=4),
       coeffs=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_oracle_at_the_largest_amplitudes(amps, coeffs):
    assume(abs(amps[0] - amps[2]) > 0.1 and abs(amps[1] - amps[3]) > 0.1)
    config = CoherentConfig(*amps)
    state = SuperpositionCoeffs(1.0, *coeffs)
    c, _ = exact(1.0, *coeffs, *exact_overlaps(config))
    assert abs(oracle_concurrence(config, state) - c) <= 1e-8


@settings(max_examples=150, deadline=None)
@given(near_family(), st.sampled_from([0.5, 0.999, 1.0 - 1e-9]))
# 1.0e-8 off class (a): against an absolute 1e-8 it was "on neither family"
@example((1.0, 9.75, -10.74999999, 1.0, 0.5), 0.5)
# 8.6e-8 off class (b), past 1e-8 max|v|, with C rounding to 1; its
# projection's C rounds 2 ulps lower, and a refine that kept the point with
# the higher C left it "on neither family"
@example((1.0, 6.0000002734375, 6.00000025, -7.0000001875, 0.5), 0.5)
def test_one_point_scan(point, threshold):
    _, lam, rho, nu, x = point
    try:
        hits, _, report = run_scan(ScanConfig((lam, lam, 1), (rho, rho, 1), (nu, nu, 1),
                                              x_values=(x,),
                                              concurrence_threshold=threshold))
    except CohentError as err:
        assert not isinstance(err, ConsistencyError)
        return
    assert report["violations"] == []
    c, norm = exact(1.0, lam, rho, nu, x, x)
    if abs(c - threshold) > bound(1.0, lam, rho, nu, c, norm):
        assert len(hits) == (c >= threshold)
    for lam, rho, nu, c in zip(hits.lam.tolist(), hits.rho.tolist(), hits.nu.tolist(),
                               hits.concurrence.tolist()):
        assert_close(c, 1.0, lam, rho, nu, x, x)

