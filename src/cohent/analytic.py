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
# 2^511, and underflows far below 1; `concurrence` rescales outside these.
_RESCALE_ABOVE = 2.0 ** 500
_RESCALE_BELOW = 2.0 ** -400

# Each amplitude sums four terms no larger than the coefficients, so rounding
# errs it by a few eps (|mu| + |lam| + |rho| + |nu|); a norm N within 4 eps of
# that sum is rounding noise, and the four components numerically dependent.
_DEGENERATE_REL = (4.0 * sys.float_info.epsilon) ** 2


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


def orthonormal_amplitudes(
    coeffs: SuperpositionCoeffs, overlaps: OverlapPair
) -> OrthonormalAmplitudes:
    """Two-qubit amplitudes of |psi> (see _amplitudes) and its norm N."""
    a, b, c, d = _amplitudes(coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu,
                             overlaps.p1, overlaps.p2, overlaps.n1, overlaps.n2)
    return OrthonormalAmplitudes(
        a, b, c, d, norm=math.sqrt(gram_norm_squared(coeffs, overlaps)))


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
    mu, lam, rho, nu = coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu
    if not _RESCALE_BELOW <= abs(mu) + abs(lam) + abs(rho) + abs(nu) <= _RESCALE_ABOVE:
        exponent = math.frexp(max(abs(mu), abs(lam), abs(rho), abs(nu)))[1]
        coeffs = SuperpositionCoeffs(
            *(math.ldexp(v, -exponent) for v in (mu, lam, rho, nu))
        )
    n_sq = gram_norm_squared(coeffs, overlaps)
    return _clamp_concurrence(_concurrence_ratio(
        coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu, overlaps.n1, overlaps.n2, n_sq
    ))


def max_concurrence_over_nu(lam, rho, x):
    """Supremum over all real nu of the concurrence at mu = 1, p1 = p2 = x.

    Broadcasts.  With n^2 = 1 - x^2, L = lam rho, K = L + x (lam + rho + x)
    and u = nu - L, N^2 = u^2 + 2 K u + M where M = N^2 at nu = L, and
    C = 2 |u| n^2 / N^2 peaks at u = +-sqrt(M) (the sign opposite to K's) at
    n^2 / (sqrt(M) - |K|) = (sqrt(M) + |K|) / D, since M - K^2 = n^2 D with
    D = (1 + rho x)^2 + n^2 rho^2 + (x + lam)^2.  Put s = lam + x and
    t = 1 + rho x: the orthonormal amplitudes at nu = L are (s t, n t,
    n rho s, rho n^2), so M = (s^2 + n^2)(t^2 + n^2 rho^2), K = s (rho + x)
    and D = t^2 + n^2 rho^2 + s^2.  Only t can cancel, and then n^2 rho^2
    dominates it, so the relative error stays near eps / n; D >= n^2.  Each
    factor of M gets its own square root, so nothing overflows for
    coefficients inside the scan's 2^500 box limit.
    """
    n_sq = (1.0 - x) * (1.0 + x)
    s = lam + x
    t = 1.0 + rho * x
    q = t * t + n_sq * rho * rho
    return (np.sqrt(s * s + n_sq) * np.sqrt(q) + abs(s * (rho + x))) / (q + s * s)


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
