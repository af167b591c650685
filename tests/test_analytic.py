import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohent import analytic
from cohent.analytic import (
    SuperpositionCoeffs,
    concurrence,
    gram_norm_squared,
    max_concurrence_over_nu,
    maximality_residual,
    nu_windows,
    orthonormal_amplitudes,
    rho_windows,
)
from cohent.coherent import CoherentConfig, OverlapPair
from cohent.errors import ConsistencyError, DegenerateStateError, DomainError

# Numerically exact stand-in for the orthogonal-basis limit p1 = p2 = 0.
TINY_P = 1e-300

coeff_vals = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
x_vals = st.floats(min_value=0.05, max_value=0.95)


def quadratic_form_norm(coeffs, overlaps):
    """Independent N^2 via the explicit 4x4 Gram matrix (Kronecker of 2x2s)."""
    g1 = np.array([[1.0, overlaps.p1], [overlaps.p1, 1.0]])
    g2 = np.array([[1.0, overlaps.p2], [overlaps.p2, 1.0]])
    gram = np.kron(g1, g2)
    v = np.array([coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu])
    return float(v @ gram @ v)


def amplitude_route(coeffs, overlaps):
    """Concurrence 2|ad - bc| / N^2 from the amplitudes, with N^2 taken from
    the explicit Gram matrix."""
    amps = orthonormal_amplitudes(coeffs, overlaps)
    return (2.0 * abs(amps.a * amps.d - amps.b * amps.c)
            / quadratic_form_norm(coeffs, overlaps))


class TestGramNormSquared:
    def test_orthogonal_bell_like(self):
        coeffs = SuperpositionCoeffs(1, 0, 0, 1)
        assert gram_norm_squared(coeffs, OverlapPair(TINY_P, TINY_P)) == 2.0

    def test_symmetric_maximal_state(self):
        # (1, -x, -x, 1) at x = 0.5 has N^2 = 2 (1 - x^2)^2 = 1.125
        coeffs = SuperpositionCoeffs(1, -0.5, -0.5, 1)
        pair = OverlapPair(0.5, 0.5)
        n_sq = gram_norm_squared(coeffs, pair)
        assert n_sq == pytest.approx(1.125, abs=1e-14)
        assert n_sq == pytest.approx(quadratic_form_norm(coeffs, pair), abs=1e-13)

    def test_antisymmetric_truncated(self):
        coeffs = SuperpositionCoeffs(1, -1, -1, 0)
        pair = OverlapPair(0.5, 0.5)
        assert gram_norm_squared(coeffs, pair) == pytest.approx(1.5, abs=1e-14)

    def test_degenerate_raises(self):
        # (1,-1,-1,1) is the product (|a>-|g>)(|b>-|d>); its norm collapses
        # like 4(1-x)^2 as the overlaps approach 1.  Four ulps below 1, N is
        # below the rounding error of the amplitude sums.
        coeffs = SuperpositionCoeffs(1, -1, -1, 1)
        x = 1.0 - 4.0 * 2.0**-53
        with pytest.raises(DegenerateStateError):
            gram_norm_squared(coeffs, OverlapPair(x, x))

    def test_small_norm_product_state_is_valid(self):
        # at 1 - 1e-8 the same product state has an accurate N^2 = 4e-16
        coeffs = SuperpositionCoeffs(1, -1, -1, 1)
        pair = OverlapPair(1 - 1e-8, 1 - 1e-8)
        assert gram_norm_squared(coeffs, pair) == pytest.approx(4e-16, rel=1e-7)
        assert concurrence(coeffs, pair) == 0.0

    def test_degeneracy_is_relative_to_the_coefficients(self):
        pair = OverlapPair(0.5, 0.5)
        assert gram_norm_squared(SuperpositionCoeffs(1e-10, 0, 0, 0), pair) == 1e-20

    @settings(max_examples=150, deadline=None)
    @given(mu=coeff_vals, lam=coeff_vals, rho=coeff_vals, nu=coeff_vals,
           p1=st.floats(0.05, 0.95), p2=st.floats(0.05, 0.95))
    def test_matches_gram_matrix_and_positive(self, mu, lam, rho, nu, p1, p2):
        if max(abs(mu), abs(lam), abs(rho), abs(nu)) < 1e-3:
            return
        coeffs = SuperpositionCoeffs(mu, lam, rho, nu)
        pair = OverlapPair(p1, p2)
        n_sq = gram_norm_squared(coeffs, pair)
        assert n_sq > 0
        assert n_sq == pytest.approx(quadratic_form_norm(coeffs, pair), abs=1e-11)


class TestOrthonormalAmplitudes:
    def test_bell_like_limit(self):
        amps = orthonormal_amplitudes(
            SuperpositionCoeffs(1, 0, 0, 1), OverlapPair(TINY_P, TINY_P)
        )
        assert amps.a == pytest.approx(0.0, abs=1e-15)
        assert amps.b == 1.0
        assert amps.c == 1.0
        assert amps.d == 0.0
        assert amps.norm == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_symmetric_maximal_state(self):
        amps = orthonormal_amplitudes(
            SuperpositionCoeffs(1, -0.5, -0.5, 1), OverlapPair(0.5, 0.5)
        )
        assert amps.a == pytest.approx(0.375, abs=1e-15)
        assert amps.b == pytest.approx(0.75**1.5, abs=1e-15)
        assert amps.c == pytest.approx(0.75**1.5, abs=1e-15)
        assert amps.d == pytest.approx(-0.375, abs=1e-15)
        assert amps.norm == pytest.approx(math.sqrt(1.125), abs=1e-15)

    def test_bell_family_small_overlap(self):
        # (1, lam, -lam, 1) at vanishing overlap -> (lam, 1, 1, -lam) normalized
        lam, x = 0.7, 1e-8
        amps = orthonormal_amplitudes(
            SuperpositionCoeffs(1, lam, -lam, 1), OverlapPair(x, x)
        )
        scale = 1.0 / math.sqrt(2.0 * (1.0 + lam * lam))
        for got, want in zip(
            (amps.a, amps.b, amps.c, amps.d),
            (lam * scale, scale, scale, -lam * scale),
        ):
            assert got / amps.norm == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("coeffs", [
        (1.0, 1e300, 1e300, 1.0),  # N^2 ~ 3e600 overflowed: norm inf
        (1e160, 1e160, 1e160, -1e160),
        (1e-200, 0.0, 0.0, -1e-200),  # N^2 ~ 1e-400 underflows
    ])
    def test_norm_of_out_of_range_coefficients(self, coeffs):
        amps = orthonormal_amplitudes(SuperpositionCoeffs(*coeffs),
                                      OverlapPair(0.5, 0.5))
        assert amps.norm == pytest.approx(math.hypot(amps.a, amps.b, amps.c, amps.d),
                                          rel=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(lam=coeff_vals, rho=coeff_vals, nu=coeff_vals,
           p1=st.floats(0.05, 0.95), p2=st.floats(0.05, 0.95))
    def test_component_norm_matches(self, lam, rho, nu, p1, p2):
        amps = orthonormal_amplitudes(
            SuperpositionCoeffs(1, lam, rho, nu), OverlapPair(p1, p2)
        )
        sum_sq = amps.a**2 + amps.b**2 + amps.c**2 + amps.d**2
        assert sum_sq == pytest.approx(amps.norm**2, rel=1e-10, abs=1e-10)


class TestNearlyEqualAmplitudes:
    """(1, 0, 0, -1) is maximal at every overlap.  With the Gram form of N^2
    a gap of 1e-4 overshot 1 (ConsistencyError) and 2e-8 fell below the old
    absolute degeneracy limit of 1e-14 (DegenerateStateError)."""

    @pytest.mark.parametrize("gap", [1e-4, 2e-8])
    def test_antisymmetric_state_is_maximal(self, gap):
        pair = OverlapPair.from_config(CoherentConfig(0, 0, gap, gap))
        assert concurrence(SuperpositionCoeffs(1, 0, 0, -1), pair) == 1.0


class TestConcurrenceFromAmplitudes:
    """`concurrence` of states named by their amplitudes, and its clamp."""

    def test_bell_state(self):
        # amplitudes (0, 1, 1, 0) / sqrt(2)
        coeffs = SuperpositionCoeffs(1, 0, 0, 1)
        assert concurrence(coeffs, OverlapPair(TINY_P, TINY_P)) == 1.0

    def test_product_state(self):
        # amplitudes (1, 0, 0, 0)
        coeffs = SuperpositionCoeffs(0, 1, 0, 0)
        assert concurrence(coeffs, OverlapPair(0.5, 0.5)) == 0.0

    def test_symmetric_maximal(self):
        coeffs = SuperpositionCoeffs(1, -0.5, -0.5, 1)
        assert concurrence(coeffs, OverlapPair(0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)

    @staticmethod
    def _ratio_reads(monkeypatch, value):
        monkeypatch.setattr(analytic, "_concurrence_ratio", lambda *args: value)
        return concurrence(SuperpositionCoeffs(1, 0, 0, 1), OverlapPair(0.5, 0.5))

    def test_clamps_float_noise(self, monkeypatch):
        assert self._ratio_reads(monkeypatch, 1.0 + 1e-13) == 1.0

    def test_rejects_gross_overshoot(self, monkeypatch):
        with pytest.raises(ConsistencyError):
            self._ratio_reads(monkeypatch, 1.0 + 1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, monkeypatch, bad):
        with pytest.raises(ConsistencyError):
            self._ratio_reads(monkeypatch, bad)


class TestConcurrence:
    def test_separable_exact_zero(self):
        coeffs = SuperpositionCoeffs(1, 0.3, 0.7, 0.21)
        assert concurrence(coeffs, OverlapPair(0.4, 0.8)) == 0.0

    def test_antisymmetric_truncated_is_maximal(self):
        coeffs = SuperpositionCoeffs(1, -1, -1, 0)
        assert concurrence(coeffs, OverlapPair(0.5, 0.5)) == pytest.approx(1.0, abs=1e-14)

    def test_plain_bell_like_closed_form(self):
        # (1, 0, 0, 1): C = (1 - x^2) / (1 + x^2)
        coeffs = SuperpositionCoeffs(1, 0, 0, 1)
        assert concurrence(coeffs, OverlapPair(0.5, 0.5)) == pytest.approx(0.6, abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(lam=coeff_vals, rho=coeff_vals, nu=coeff_vals, x=x_vals)
    def test_agrees_with_amplitude_route(self, lam, rho, nu, x):
        coeffs = SuperpositionCoeffs(1, lam, rho, nu)
        pair = OverlapPair(x, x)
        via_formula = concurrence(coeffs, pair)
        assert abs(via_formula - amplitude_route(coeffs, pair)) < 1e-11

    @settings(max_examples=200, deadline=None)
    @given(lam=coeff_vals, rho=coeff_vals, nu=coeff_vals,
           p1=st.floats(0.05, 0.95), p2=st.floats(0.05, 0.95))
    def test_swap_symmetry(self, lam, rho, nu, p1, p2):
        c1 = concurrence(SuperpositionCoeffs(1, lam, rho, nu), OverlapPair(p1, p2))
        c2 = concurrence(SuperpositionCoeffs(1, rho, lam, nu), OverlapPair(p2, p1))
        assert c1 == pytest.approx(c2, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(lam=coeff_vals, rho=coeff_vals, nu=coeff_vals, x=x_vals,
           scale=st.floats(-5.0, 5.0))
    def test_scale_invariance(self, lam, rho, nu, x, scale):
        if abs(scale) < 1e-3:
            return
        pair = OverlapPair(x, x)
        base = concurrence(SuperpositionCoeffs(1, lam, rho, nu), pair)
        scaled = concurrence(
            SuperpositionCoeffs(scale, scale * lam, scale * rho, scale * nu), pair
        )
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_large_coefficients_do_not_overflow(self):
        pair = OverlapPair(0.5, 0.5)
        big = concurrence(SuperpositionCoeffs(1e155, 2e155, 3e155, -1e155), pair)
        assert big == pytest.approx(0.6, abs=1e-14)
        # 1e155 is not a power of two, so the last bit may differ
        assert abs(big - concurrence(SuperpositionCoeffs(1, 2, 3, -1), pair)) <= 2**-52
        assert concurrence(SuperpositionCoeffs(1, 1e200, 0, 0), pair) == 0.0

    @pytest.mark.parametrize("exponent", [-1, 1, 600, 1000])
    def test_power_of_two_scaling_is_bit_exact(self, exponent):
        pair = OverlapPair(0.3, 0.7)
        coeffs = (1.0, -0.37, 2.9, 0.41)
        base = concurrence(SuperpositionCoeffs(*coeffs), pair)
        scaled = SuperpositionCoeffs(*(math.ldexp(v, exponent) for v in coeffs))
        assert concurrence(scaled, pair) == base

    def test_range_and_route_agreement_over_random_ensemble(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            lam, rho, nu = rng.uniform(-3, 3, size=3)
            x = rng.uniform(0.05, 0.95)
            coeffs = SuperpositionCoeffs(1, lam, rho, nu)
            pair = OverlapPair(x, x)
            c = concurrence(coeffs, pair)
            assert 0.0 <= c <= 1.0
            assert abs(c - amplitude_route(coeffs, pair)) < 1e-11


def exact_concurrence(lam, rho, nu, x):
    """Concurrence at mu = 1, p1 = p2 = x in 50-digit arithmetic."""
    one = mpmath.mpf(1)
    n_sq = (one + lam**2 + rho**2 + nu**2 + 2 * (lam + rho * nu) * x
            + 2 * (rho + lam * nu) * x + 2 * (nu + lam * rho) * x**2)
    return 2 * abs(nu - lam * rho) * (one - x**2) / n_sq


def exact_row_peak(lam, rho, x):
    """The concurrence of the row (lam, rho) at its maximisers
    nu = lam rho +- sqrt(M), with M = N^2 at nu = lam rho, in 50-digit
    arithmetic."""
    with mpmath.workdps(50):
        lam, rho, x = map(mpmath.mpf, (lam, rho, x))
        prod = lam * rho
        root_m = mpmath.sqrt(
            (1 + lam**2 + rho**2 + prod**2 + 2 * (lam + rho * prod) * x
             + 2 * (rho + lam * prod) * x + 4 * prod * x**2)
        )
        return max(exact_concurrence(lam, rho, prod + s * root_m, x) for s in (1, -1))


edge_x = st.one_of(st.sampled_from([1e-6, 1.0 - 1e-6]), st.floats(1e-6, 1.0 - 1e-6))
wide_vals = st.floats(-1e4, 1e4)


class TestMaxConcurrenceOverNu:
    # Exact values come from mpmath.  The scalar concurrence is checked
    # against the bound over the whole range of x a scan accepts.

    @settings(max_examples=300, deadline=None)
    @given(lam=wide_vals, rho=wide_vals, nu=wide_vals, x=edge_x)
    def test_bounds_every_nu(self, lam, rho, nu, x):
        bound = float(max_concurrence_over_nu(lam, rho, x))
        with mpmath.workdps(50):
            exact = exact_concurrence(*map(mpmath.mpf, (lam, rho, nu, x)))
        assert exact <= bound * (1.0 + 1e-14)

    @settings(max_examples=300, deadline=None)
    @given(lam=wide_vals, rho=wide_vals, x=edge_x)
    def test_reached_at_l_plus_minus_root_m(self, lam, rho, x):
        bound = float(max_concurrence_over_nu(lam, rho, x))
        assert abs(exact_row_peak(lam, rho, x) - bound) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(lam=coeff_vals, rho=coeff_vals, nu=coeff_vals, x=edge_x)
    def test_bounds_scalar_concurrence(self, lam, rho, nu, x):
        c = concurrence(SuperpositionCoeffs(1, lam, rho, nu), OverlapPair(x, x))
        assert c <= max_concurrence_over_nu(lam, rho, x) + 1e-9

    def test_broadcasts(self):
        lam = np.array([[-0.5], [0.0]])
        rho = np.array([-0.5, 0.0, 1.0])
        grid = max_concurrence_over_nu(lam, rho, 0.5)
        assert grid.shape == (2, 3)
        assert grid[0, 0] == float(max_concurrence_over_nu(-0.5, -0.5, 0.5))
        assert grid[0, 0] == pytest.approx(1.0, abs=1e-15)  # class (a) row


def outside_candidates(lam, rho, x, lo, hi):
    """nu values just outside each finite window endpoint and a spread over
    both windows (see beside_endpoints), and the row's two maximisers
    nu = lam rho +- sqrt(M)."""
    n_sq = (1.0 - x) * (1.0 + x)
    root_m = (math.sqrt((lam + x) ** 2 + n_sq)
              * math.sqrt((1.0 + rho * x) ** 2 + n_sq * rho * rho))
    return [lam * rho - root_m, lam * rho + root_m, *beside_endpoints(lo, hi)]


def beside_endpoints(lo, hi):
    """Values just outside each finite window endpoint, from one ulp to a
    relative 1e-6, and a 41-point grid over twice the span of the windows."""
    candidates = []
    finite = [e for e in (*lo, *hi) if math.isfinite(e)]
    for e in finite:
        for direction in (-math.inf, math.inf):
            v = e
            for _ in range(3):
                v = math.nextafter(v, direction)
                candidates.append(v)
            candidates += [e + math.copysign(r * max(abs(e), 1.0), direction)
                           for r in (1e-15, 1e-12, 1e-9, 1e-6)]
    if finite:
        span = max(finite) - min(finite)
        candidates += np.linspace(min(finite) - span, max(finite) + span, 41).tolist()
    return candidates


class TestNuWindows:
    # Every nu whose exact concurrence reaches the floor must lie inside a
    # returned window; rounding slack in the kernel makes that hold for
    # floats next to the endpoints too.

    @settings(max_examples=300, deadline=None)
    @given(lam=st.floats(-1.0, 1.0), rho=st.floats(-1.0, 1.0),
           scale=st.sampled_from([1.0, 1e3, 1e50, 1e149]), x=edge_x,
           floor=st.floats(1e-3, 1.0),
           family=st.sampled_from([None, "a", "b", "t"]),
           at_peak=st.sampled_from([None, -1e-12, 0.0, 1e-12]))
    def test_holds_every_nu_reaching_the_floor(self, lam, rho, scale, x, floor,
                                               family, at_peak):
        lam *= scale
        if family == "a":  # at scale 1, rows through a class (a) point
            rho = -2.0 * x - lam
        elif family == "b":  # rows through a class (b) point
            rho = lam
        elif family == "t":  # t = 1 + rho x cancels to about n rho
            rho = (rho * math.sqrt((1.0 - x) * (1.0 + x)) - 1.0) / x
        else:
            rho *= scale
        if at_peak is not None:  # where the discriminant cancels
            peak = float(max_concurrence_over_nu(lam, rho, x))
            floor = min(max(peak + at_peak, 1e-3), 1.0)
        lo, hi = nu_windows(lam, rho, x, floor)
        assert lo.shape == hi.shape == (2,)
        for nu in outside_candidates(lam, rho, x, lo, hi):
            if any(a <= nu <= b for a, b in zip(lo, hi)):
                continue
            with mpmath.workdps(50):
                exact = exact_concurrence(*map(mpmath.mpf, (lam, rho, nu, x)))
            assert exact < floor, (nu, lo, hi)
        if float(max_concurrence_over_nu(lam, rho, x)) >= floor + 1e-9:
            assert (lo <= hi).any()

    def test_each_side_surrounds_its_maximal_point(self):
        # x = 0.5: the row lam = rho = -0.5 meets class (b) at nu = -0.5, below
        # nu = lam rho = 0.25, and class (a) at nu = 1, above it
        lo, hi = nu_windows(-0.5, -0.5, 0.5, 0.99)
        assert lo[0] < -0.5 < hi[0] < 0.25 < lo[1] < 1.0 < hi[1]

    def test_row_below_the_floor_has_no_window(self):
        assert float(max_concurrence_over_nu(1.0, 3.0, 0.5)) < 0.9
        lo, hi = nu_windows(1.0, 3.0, 0.5, 0.9)
        assert lo.tolist() == [math.inf] * 2 and hi.tolist() == [-math.inf] * 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("floor", [0.0, -0.5, 1e-310])
    def test_whole_axis_when_every_nu_may_qualify_or_roots_overflow(self, floor):
        # floor <= 0 holds everywhere; a subnormal floor overflows the roots
        lo, hi = nu_windows(-0.5, -0.5, 0.5, floor)
        assert lo.tolist() == [-math.inf] * 2 and hi.tolist() == [math.inf] * 2

    def test_floor_at_the_row_peak_keeps_its_maximiser(self):
        # the discriminant rounds below 0 here although the exact peak
        # reaches the floor; its rounding allowance keeps the window
        lam, rho, x = 0.5, 1e-6, 1e-6
        floor = float(max_concurrence_over_nu(lam, rho, x))
        nu = -1.118033935965078  # lam rho - sqrt(M)
        with mpmath.workdps(50):
            assert exact_concurrence(*map(mpmath.mpf, (lam, rho, nu, x))) >= floor
        lo, hi = nu_windows(lam, rho, x, floor)
        assert lo[0] <= nu <= hi[0]

    def test_nan_row_is_whole(self):
        # as a NaN bound keeps its row, so the grid evaluates it and fails
        lo, hi = nu_windows(np.nan, -0.5, 0.5, 0.9)
        assert lo.tolist() == [-math.inf] * 2 and hi.tolist() == [math.inf] * 2

    def test_broadcasts_with_sides_last(self):
        lam = np.array([[-0.5], [1.0]])
        rho = np.array([-0.5, 0.0, 2.0])
        lo, hi = nu_windows(lam, rho, 0.5, 0.9)
        assert lo.shape == hi.shape == (2, 3, 2)
        single = nu_windows(1.0, 2.0, 0.5, 0.9)  # a window on one side only
        assert lo[1, 2].tolist() == single[0].tolist()
        assert hi[1, 2].tolist() == single[1].tolist()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("floor", [0.9, 0.0, 1e-310])
    def test_x_column_matches_scalar_calls_bit_for_bit(self, floor):
        # one x per row, as grid_scan passes its kept rows: rows with two
        # windows, one, none, a NaN row, and (at floor 0 or a subnormal
        # floor) whole-axis rows
        lam = np.array([-0.5, 1.0, 1.0, np.nan, -0.5, 0.25, -2.0])
        rho = np.array([-0.5, 2.0, 3.0, -0.5, -0.5, -0.75, 1.5])
        x = np.array([0.5, 0.5, 0.5, 0.5, 1e-6, 0.999, 1.0 - 1e-6])
        lo, hi = nu_windows(lam, rho, x[:, None], floor)
        assert lo.shape == hi.shape == (len(x), 2)
        for i in range(len(x)):
            single = nu_windows(lam[i], rho[i], float(x[i]), floor)
            assert lo[i].tobytes() == single[0].tobytes()
            assert hi[i].tobytes() == single[1].tobytes()


class TestRhoWindows:
    # Every row whose bound reaches the floor must lie inside a returned rho
    # window: the rows just outside one have an exact bound below the floor,
    # and so does the float bound that grid_scan tests.

    @settings(max_examples=300, deadline=None)
    @given(lam=st.floats(-1.0, 1.0), scale=st.sampled_from([1.0, 1e3, 1e50, 1e149]),
           x=edge_x, floor=st.one_of(st.floats(1e-3, 1.0), st.sampled_from(
               [1.0, 1.0 - 1e-12, 0.999998, 0.5 + 1e-9])),
           near_t=st.booleans())
    def test_rows_just_outside_are_below_the_floor(self, lam, scale, x, floor,
                                                   near_t):
        # near_t: the class (b) window rho ~ lam holds rho = -1 / x, where
        # t = 1 + rho x cancels
        lam = -1.0 / x + lam if near_t else lam * scale
        lo, hi = rho_windows(lam, x, floor)
        assert lo.shape == hi.shape == (2,)
        for rho in beside_endpoints(lo, hi):
            # a scan box keeps |rho| below 2^500, where the bound is finite
            if any(a <= rho <= b for a, b in zip(lo, hi)) or abs(rho) > 2.0 ** 500:
                continue
            assert exact_row_peak(lam, rho, x) < floor, (rho, lo, hi)
            assert float(max_concurrence_over_nu(lam, rho, x)) < floor, (rho, lo, hi)

    def test_each_interval_surrounds_its_family_line(self):
        # x = 0.5, lam = 1: class (a) at rho = -lam - 2x = -2, below rho = -x,
        # class (b) at rho = lam = 1, above it
        lo, hi = rho_windows(1.0, 0.5, 0.99)
        assert lo[0] < -2.0 < hi[0] < -0.5 < lo[1] < 1.0 < hi[1]
        assert max_concurrence_over_nu(1.0, np.array([-2.0, 1.0]), 0.5) == \
            pytest.approx(1.0, abs=1e-15)

    def test_intervals_shrink_onto_the_lines_as_the_floor_rises(self):
        widths = [np.subtract(*rho_windows(1.0, 0.5, floor)[::-1])
                  for floor in (0.9, 0.99, 0.999999, 1.0)]
        assert all((wide > narrow).all() for wide, narrow in zip(widths, widths[1:]))
        assert (widths[-1] < 1e-6).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam, floor", [
        (1.0, 0.5),     # e = sqrt(2 (1 - f)) reaches 1
        (1.0, 0.0),
        (1.0, -0.5),
        (1.0, np.nan),
        (1e200, 0.9),   # sigma^2 overflows
        (np.nan, 0.9),  # as a NaN bound keeps its row
    ])
    def test_whole_axis_when_e_reaches_one_or_an_endpoint_is_not_finite(self, lam,
                                                                        floor):
        lo, hi = rho_windows(lam, 0.5, floor)
        assert lo.tolist() == [-math.inf] * 2 and hi.tolist() == [math.inf] * 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("floor", [0.9, 0.5, 1.0])
    def test_broadcasts_with_sides_last_bit_for_bit(self, floor):
        lam = np.array([[-0.5], [1.0], [np.nan], [-1e6]])
        x = np.array([0.5, 1e-6, 0.999, 1.0 - 1e-6])
        lo, hi = rho_windows(lam, x, floor)
        assert lo.shape == hi.shape == (4, 4, 2)
        for i, j in np.ndindex(4, 4):
            single = rho_windows(float(lam[i, 0]), float(x[j]), floor)
            assert lo[i, j].tobytes() == single[0].tobytes()
            assert hi[i, j].tobytes() == single[1].tobytes()


class TestMaximalityResidual:
    def test_class_a_point_is_zero(self):
        coeffs = SuperpositionCoeffs(1, -0.5, -0.5, 1)
        assert maximality_residual(coeffs, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_plain_bell_like_value(self):
        coeffs = SuperpositionCoeffs(1, 0, 0, 1)
        assert maximality_residual(coeffs, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_class_b_point_is_zero(self):
        coeffs = SuperpositionCoeffs(1, -1, -1, 0)
        assert maximality_residual(coeffs, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_requires_unit_mu(self):
        with pytest.raises(DomainError):
            maximality_residual(SuperpositionCoeffs(2, 0, 0, 1), 0.5)

    def test_requires_open_interval(self):
        with pytest.raises(DomainError):
            maximality_residual(SuperpositionCoeffs(1, 0, 0, 1), 0.0)
        with pytest.raises(DomainError):
            maximality_residual(SuperpositionCoeffs(1, 0, 0, 1), 1.0)

    @settings(max_examples=300, deadline=None)
    @given(lam=coeff_vals, rho=coeff_vals, nu=coeff_vals, x=x_vals)
    def test_equals_norm_times_concurrence_deficit(self, lam, rho, nu, x):
        # residual = N^2 (1 - C) ties residual = 0 exactly to C = 1
        coeffs = SuperpositionCoeffs(1, lam, rho, nu)
        pair = OverlapPair(x, x)
        n_sq = gram_norm_squared(coeffs, pair)
        c = concurrence(coeffs, pair)
        residual = maximality_residual(coeffs, x)
        assert residual >= -1e-12
        assert residual == pytest.approx(n_sq * (1.0 - c), rel=1e-9, abs=1e-10)


class TestSuperpositionCoeffs:
    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            SuperpositionCoeffs(0, 0, 0, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            SuperpositionCoeffs(1, float("inf"), 0, 0)
