"""Orthonormal-basis amplitudes and the quantities derived from them.

The state |psi> = mu|alpha,beta> + lambda|alpha,delta> + rho|gamma,beta> +
nu|gamma,delta> has real coefficients and real coherent amplitudes.
Orthonormalizing each subsystem pair turns it into a two-qubit vector
(a, b, c, d), computed by one broadcasting kernel, `_amplitudes`.  Then
N^2 = a^2 + b^2 + c^2 + d^2, C = 2|ad - bc| / N^2 = 2|mu nu - lam rho| n1 n2 / N^2
and N^2 (1 - C) = min((a - d)^2 + (b + c)^2, (a + d)^2 + (b - c)^2).  Unlike
the expanded Gram form of N^2, sums of squares do not cancel as the overlaps
approach 1.  The numerator of C keeps its closed form, exactly 0 when separable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coherent import OverlapPair, _require_finite
from .errors import ConsistencyError, DegenerateStateError, DomainError

# Concurrence rounding slack: clamp up to this overshoot, fail beyond 1 + 1e-9.
_CLAMP_SLACK = 1e-9

# N^2 <= 4 (|mu| + |lam| + |rho| + |nu|)^2 overflows once that sum passes
# 2^511, and underflows far below 1; _in_range rescales outside these.
_RESCALE_ABOVE = 2.0 ** 500
_RESCALE_BELOW = 2.0 ** -400

# Each amplitude sums four terms no larger than the coefficients, so rounding
# errs it by a few eps (|mu| + |lam| + |rho| + |nu|); a norm N within 4 eps of
# that sum is rounding noise, and the four components numerically dependent.
_DEGENERATE_REL = (4.0 * sys.float_info.epsilon) ** 2

# nu_windows and rho_windows take rounding to err a sum by at most this many
# times the sum of its terms' magnitudes; mpmath puts the worst nu_windows saw
# below a fifth of it.
_WINDOW_SLACK = 8.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class SuperpositionCoeffs:
    """Real coefficients (mu, lambda, rho, nu); `lam` stands in for lambda."""

    mu: float
    lam: float
    rho: float
    nu: float

    def __post_init__(self):
        for name in ("mu", "lam", "rho", "nu"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.mu == 0.0 and self.lam == 0.0 and self.rho == 0.0 and self.nu == 0.0:
            raise DomainError("at least one coefficient must be nonzero")


@dataclass(frozen=True)
class OrthonormalAmplitudes:
    """Unnormalized two-qubit amplitudes (a, b, c, d) and the state norm N.

    Dividing by `norm` yields a unit vector, so a^2+b^2+c^2+d^2 = norm^2.
    """

    a: float
    b: float
    c: float
    d: float
    norm: float


def require_unit_mu(coeffs: SuperpositionCoeffs, tol: float = 1e-12) -> None:
    """Classification formulas are written in the mu = 1 gauge; enforce it."""
    if abs(coeffs.mu - 1.0) > tol:
        raise DomainError(
            f"operation requires the mu = 1 gauge, got mu = {coeffs.mu}; "
            "rescale all four coefficients by 1/mu first"
        )


def require_open_unit_interval(x: float, name: str = "x") -> float:
    x = _require_finite(name, x)
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {x}")
    return x


def _amplitudes(mu, lam, rho, nu, p1, p2, n1, n2):
    """Amplitudes (a, b, c, d) of |psi> in the orthonormalized product basis;
    broadcasts.

    System 1 keeps |alpha> and orthogonalizes |gamma> against it; system 2
    keeps |delta> and orthogonalizes |beta>.  In that basis

        a = mu p2 + lam + rho p1 p2 + nu p1,   b = n2 (mu + rho p1),
        c = n1 (nu + rho p2),                  d = rho n1 n2,

    with n_i = sqrt(1 - p_i^2).
    """
    return (mu * p2 + lam + rho * p1 * p2 + nu * p1, n2 * (mu + rho * p1),
            n1 * (nu + rho * p2), rho * n1 * n2)


def _norm_sq(mu, lam, rho, nu, p1, p2, n1, n2):
    """N^2 = a^2 + b^2 + c^2 + d^2; broadcasts."""
    a, b, c, d = _amplitudes(mu, lam, rho, nu, p1, p2, n1, n2)
    return a * a + b * b + c * c + d * d


def _degenerate(n_sq, size):
    """Whether N^2 is rounding noise for coefficients whose magnitudes sum to
    `size` (see _DEGENERATE_REL); dividing first avoids overflow.  Broadcasts."""
    return n_sq / size <= _DEGENERATE_REL * size


def _concurrence_ratio(mu, lam, rho, nu, n1, n2, n_sq):
    """Unclamped 2|mu nu - lam rho| n1 n2 / N^2; broadcasts."""
    return 2.0 * abs(mu * nu - lam * rho) * n1 * n2 / n_sq


def gram_norm_squared(coeffs: SuperpositionCoeffs, overlaps: OverlapPair) -> float:
    """Squared norm N^2 = <psi|psi> of the unnormalized superposition, the sum
    of squares of its amplitudes.  Raises DegenerateStateError when N is
    rounding noise next to the coefficients (see _DEGENERATE_REL).
    """
    mu, lam, rho, nu = coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu
    n_sq = _norm_sq(mu, lam, rho, nu, overlaps.p1, overlaps.p2, overlaps.n1, overlaps.n2)
    if _degenerate(n_sq, abs(mu) + abs(lam) + abs(rho) + abs(nu)):
        raise DegenerateStateError(
            f"squared norm {n_sq:.3e} is numerically zero; the four components "
            "are linearly dependent at this working precision"
        )
    return n_sq


def _in_range(coeffs: SuperpositionCoeffs) -> tuple[SuperpositionCoeffs, int]:
    """`coeffs` times 2^-e, where N^2 neither overflows nor underflows, and e.

    Scaling by a power of two is exact, so e = 0 unless the coefficient sum
    falls outside [_RESCALE_BELOW, _RESCALE_ABOVE].
    """
    mu, lam, rho, nu = coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu
    if _RESCALE_BELOW <= abs(mu) + abs(lam) + abs(rho) + abs(nu) <= _RESCALE_ABOVE:
        return coeffs, 0
    exponent = math.frexp(max(abs(mu), abs(lam), abs(rho), abs(nu)))[1]
    return SuperpositionCoeffs(
        *(math.ldexp(v, -exponent) for v in (mu, lam, rho, nu))), exponent


def orthonormal_amplitudes(
    coeffs: SuperpositionCoeffs, overlaps: OverlapPair
) -> OrthonormalAmplitudes:
    """Two-qubit amplitudes of |psi> (see _amplitudes) and its norm N.

    N is taken from the coefficients scaled into range (see _in_range), so it
    does not overflow where N^2 would; a norm beyond the float range is inf.
    """
    a, b, c, d = _amplitudes(coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu,
                             overlaps.p1, overlaps.p2, overlaps.n1, overlaps.n2)
    scaled, exponent = _in_range(coeffs)
    norm = math.sqrt(gram_norm_squared(scaled, overlaps))
    try:
        norm = math.ldexp(norm, exponent)
    except OverflowError:
        norm = math.inf
    return OrthonormalAmplitudes(a, b, c, d, norm=norm)


def _clamp_concurrence(value: float) -> float:
    if not math.isfinite(value) or value > 1.0 + _CLAMP_SLACK:
        raise ConsistencyError(
            f"concurrence evaluated to {value}, beyond rounding slack above 1; "
            "this indicates a bug rather than float noise"
        )
    return min(max(value, 0.0), 1.0)


def concurrence(coeffs: SuperpositionCoeffs, overlaps: OverlapPair) -> float:
    """Closed-form concurrence 2|mu nu - lam rho| n1 n2 / N^2, clamped to [0, 1].

    Coefficients that would overflow or underflow N^2 are first scaled by a
    power of two, which is exact and leaves the concurrence unchanged.
    """
    coeffs, _ = _in_range(coeffs)
    n_sq = gram_norm_squared(coeffs, overlaps)
    return _clamp_concurrence(_concurrence_ratio(
        coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu, overlaps.n1, overlaps.n2, n_sq
    ))


def _row_terms(lam, rho, x):
    """(n^2, K, D, sqrt M) of the row (lam, rho) at mu = 1, p1 = p2 = x;
    broadcasts.

    With n^2 = 1 - x^2, L = lam rho, K = L + x (lam + rho + x) and u = nu - L,
    N^2 = u^2 + 2 K u + M where M = N^2 at nu = L, and C = 2 |u| n^2 / N^2;
    M - K^2 = n^2 D with D = (1 + rho x)^2 + n^2 rho^2 + (x + lam)^2.  Put
    s = lam + x and t = 1 + rho x: the orthonormal amplitudes at nu = L are
    (s t, n t, n rho s, rho n^2), so M = (s^2 + n^2)(t^2 + n^2 rho^2),
    K = s (rho + x) and D = t^2 + n^2 rho^2 + s^2.  Only t can cancel, and
    then n^2 rho^2 dominates it, so the relative error stays near eps / n;
    D >= n^2.  Each factor of M gets its own square root, so nothing
    overflows for coefficients inside the scan's 2^500 box limit.
    """
    n_sq = (1.0 - x) * (1.0 + x)
    s = lam + x
    t = 1.0 + rho * x
    q = t * t + n_sq * rho * rho
    return n_sq, s * (rho + x), q + s * s, np.sqrt(s * s + n_sq) * np.sqrt(q)


def max_concurrence_over_nu(lam, rho, x):
    """Supremum over all real nu of the concurrence at mu = 1, p1 = p2 = x.

    Broadcasts.  In the terms of _row_terms, C = 2 |u| n^2 / N^2 peaks at
    u = +-sqrt(M) (the sign opposite to K's) at
    n^2 / (sqrt(M) - |K|) = (sqrt(M) + |K|) / D.
    """
    _, k, d, root_m = _row_terms(lam, rho, x)
    return (root_m + abs(k)) / d


def rho_windows(lam, x, floor):
    """Two rho intervals that hold every row (lam, rho) whose maximum
    concurrence over nu at mu = 1, p1 = p2 = x (max_concurrence_over_nu) can
    reach `floor`: (lo, hi), broadcast over lam and x, with a last axis for
    the interval below rho = -x and the one above it.

    In the terms of _row_terms put u = rho + x, w = |u|, sigma = |s| and
    A = s^2 + n^2.  Then q = t^2 + n^2 rho^2 = u^2 + n^2, so D = w^2 + A,
    sqrt M = sqrt A sqrt(w^2 + n^2) and |K| = sigma w, and with
    h(w) = w sqrt(w^2 + n^2)

        D^2 - (sqrt M + |K|)^2 = (h(w) - h(sigma))^2.

    So sqrt M + |K| <= D, and the row bound B = (sqrt M + |K|) / D has
    1 - B = (D^2 - (sqrt M + |K|)^2) / (D (D + sqrt M + |K|)) >=
    (h(w) - h(sigma))^2 / (2 D^2).  As h(w) - w^2 = w n^2 / (sqrt(w^2 + n^2) + w)
    grows with w (from 0 up to n^2 / 2), |h(w) - h(sigma)| >= |w^2 - sigma^2|,
    and B >= f only if

        |w^2 - sigma^2| <= e (w^2 + sigma^2 + n^2),   e = sqrt(2 (1 - f)).

    For e < 1 that is w_lo^2 <= w^2 <= w_hi^2, with
    w_lo^2 = (sigma^2 (1 - e) - e n^2) / (1 + e) and
    w_hi^2 = (sigma^2 (1 + e) + e n^2) / (1 - e): the intervals
    rho = -x -+ [w_lo, w_hi], around rho = -lam - 2x (class a) and rho = lam
    (class b).  tests/test_symbolic.py proves the identities.

    Rounding: max_concurrence_over_nu errs B by at most eps (11 + 1.5 / n)
    to first order.  t = 1 + rho x loses up to eps |rho x| <= eps x sqrt(q) / n,
    which errs q, and so D and sqrt M, by up to a relative 2 eps / n; every
    other step errs a few eps relative, and B <= 1.  So e is taken at
    f - delta, delta = _WINDOW_SLACK (2 + 1 / n), and rounded up by a relative
    _WINDOW_SLACK; w_hi^2 is raised and w_lo^2 lowered by _WINDOW_SLACK times
    the magnitudes of their terms, and each endpoint is widened by
    _WINDOW_SLACK (x + w_hi) for the final addition.  Against 50-digit
    mpmath, the worst error of B over 60,000 sampled rows (x near 0 and 1, t
    cancelling, rows on and beside both lines, scales up to 1e149) was a
    twelfth of delta.  Where e >= 1 or w_hi is not finite, both intervals
    are the whole axis, (-inf, inf).
    """
    lam, x = np.asarray(lam)[..., None], np.asarray(x)[..., None]
    n_sq = (1.0 - x) * (1.0 + x)
    delta = _WINDOW_SLACK * (2.0 + 1.0 / np.sqrt(n_sq))
    e = np.sqrt(np.maximum(2.0 * (1.0 - floor + delta), 0.0)) * (1.0 + _WINDOW_SLACK)
    side = np.array([-1.0, 1.0])
    # e >= 1 makes w_hi^2 negative or infinite, so w_hi NaN or inf, as do a
    # NaN input and overflow; while w_hi is finite, so are w_lo and e.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = lam + x
        sigma_sq, e_n_sq = s * s, e * n_sq
        w_hi = np.sqrt((sigma_sq * (1.0 + e) + e_n_sq) / (1.0 - e)
                       * (1.0 + _WINDOW_SLACK))
        w_lo = np.sqrt(np.maximum((sigma_sq * (1.0 - e) - e_n_sq) / (1.0 + e)
                                  - _WINDOW_SLACK * (sigma_sq + n_sq), 0.0))
        slack = _WINDOW_SLACK * (x + w_hi)
        near, far = side * w_lo - x, side * w_hi - x
        lo = np.minimum(near, far) - slack
        hi = np.maximum(near, far) + slack
    whole = ~np.isfinite(w_hi)
    return np.where(whole, -np.inf, lo), np.where(whole, np.inf, hi)


def nu_windows(lam, rho, x, floor):
    """The nu intervals of the row (lam, rho) where the concurrence at mu = 1,
    p1 = p2 = x reaches `floor`: (lo, hi), broadcast over lam, rho and x, with
    a last axis for the side below nu = lam rho and the side above it.  For
    one x per row, pass x with a trailing axis of length 1 (x[:, None]).

    In the terms of _row_terms, on the side sigma = sign(u) with w = |u|,
    C >= f is the quadratic f w^2 - 2 B w + f M <= 0, B = n^2 - sigma f K.
    Its discriminant B^2 - f^2 M is taken as n^2 (n^2 - 2 sigma f K - f^2 D),
    which does not cancel for large coefficients as the textbook form does;
    a side has a window iff it is >= 0 and B > 0.  The larger root is
    w+ = (B + sqrt(discriminant)) / f and, since the roots multiply to M, the
    smaller is sqrt(M) (sqrt(M) / w+).

    Rounding errs the discriminant by up to `err`, a few eps times the terms
    it sums (K's factor s = lam + x errs by eps (|lam| + x), hence the
    |rho + x|).  Near the row's maximum, where the discriminant cancels, that
    moves the roots by sqrt(err) / f; elsewhere they err by a few eps
    (|lam rho| + w+ + 1).  Each endpoint is widened by both, and a side is
    kept while its discriminant is above -err.  An empty side is (inf, -inf).
    Where an endpoint is not finite, or floor <= 0, both sides of the row are
    the whole axis, (-inf, inf).
    """
    lam, rho = np.asarray(lam)[..., None], np.asarray(rho)[..., None]
    n_sq, k, d, root_m = _row_terms(lam, rho, x)
    sigma = np.array([-1.0, 1.0])
    b = n_sq - sigma * floor * k
    disc = n_sq * (n_sq - 2.0 * sigma * floor * k - floor * floor * d)
    err = _WINDOW_SLACK * n_sq * (
        n_sq + 2.0 * abs(floor) * (abs(k) + abs(rho + x)) + floor * floor * d)
    centre = lam * rho
    # Overflow and division by zero leave non-finite endpoints, caught below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w_far = (b + np.sqrt(np.maximum(disc, 0.0))) / floor
        w_near = root_m * (root_m / w_far)
        slack = _WINDOW_SLACK * (abs(centre) + w_far + 1.0) + np.sqrt(err) / floor
        near, far = centre + sigma * w_near, centre + sigma * w_far
        lo = np.minimum(near, far) - slack
        hi = np.maximum(near, far) + slack
    # A NaN discriminant or B leaves its side non-empty, so the row is whole.
    empty = (disc < -err) | (b <= 0.0)
    whole = (~empty & ~(np.isfinite(lo) & np.isfinite(hi))).any(
        axis=-1, keepdims=True) | (floor <= 0.0)
    return (np.where(whole, -np.inf, np.where(empty, np.inf, lo)),
            np.where(whole, np.inf, np.where(empty, -np.inf, hi)))


def _maximality_residual(lam, rho, nu, x):
    """N^2 (1 - C) at mu = 1, p1 = p2 = x; broadcasts (see maximality_residual)."""
    n = np.sqrt((1.0 - x) * (1.0 + x))
    a, b, c, d = _amplitudes(1.0, lam, rho, nu, x, x, n, n)
    return np.minimum((a - d) * (a - d) + (b + c) * (b + c),
                      (a + d) * (a + d) + (b - c) * (b - c))


def maximality_residual(coeffs: SuperpositionCoeffs, x: float) -> float:
    """N^2 - 2|ad - bc| at the common overlap p1 = p2 = x.

    Equals N^2 (1 - C), so it is nonnegative and vanishes exactly when the
    state is maximally entangled.  Requires the mu = 1 gauge.  That
    difference cancels near its zeros; since N^2 -+ 2(ad - bc) =
    (a -+ d)^2 + (b +- c)^2, it is taken as the smaller of two sums of squares,
    accurate down to ~1e-30.  (a + d)^2 + (b - c)^2 vanishes on class (a),
    (a - d)^2 + (b + c)^2 on class (b).
    """
    require_unit_mu(coeffs)
    x = require_open_unit_interval(x)
    return float(_maximality_residual(coeffs.lam, coeffs.rho, coeffs.nu, x))
