"""Closed-form norm, orthonormal-basis amplitudes and concurrence.

The state under study is

    |psi> = mu|alpha,beta> + lambda|alpha,delta> + rho|gamma,beta> + nu|gamma,delta>

with real coefficients and real coherent amplitudes.  Orthonormalizing each
subsystem pair (keep |alpha> resp. |delta>, Gram-Schmidt the partner) turns
|psi> into an ordinary two-qubit vector, whose concurrence 2|ad - bc| reduces
to the closed form 2|mu*nu - lambda*rho| sqrt(1-p1^2) sqrt(1-p2^2) / N^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent import OverlapPair, _require_finite
from .errors import ConsistencyError, DegenerateStateError, DomainError

# Below this the four components are treated as numerically dependent.
DEGENERATE_NORM_SQ = 1e-14

# Concurrence rounding slack: clamp up to this overshoot, fail beyond 1 + 1e-9.
_CLAMP_SLACK = 1e-9

# The terms of N^2 sum to at most (|mu| + |lam| + |rho| + |nu|)^2, which
# overflows once that sum passes 2^512.
_RESCALE_ABOVE = 2.0 ** 500


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


def _norm_sq(mu, lam, rho, nu, p1, p2):
    """The collapsed Gram form of N^2 (see gram_norm_squared); broadcasts."""
    return (
        (mu * mu + lam * lam + rho * rho + nu * nu)
        + 2.0 * (mu * lam + rho * nu) * p2
        + 2.0 * (mu * rho + lam * nu) * p1
        + 2.0 * (mu * nu + lam * rho) * p1 * p2
    )


def _concurrence_ratio(mu, lam, rho, nu, n1, n2, n_sq):
    """Unclamped 2|mu nu - lam rho| n1 n2 / N^2; broadcasts."""
    return 2.0 * abs(mu * nu - lam * rho) * n1 * n2 / n_sq


def gram_norm_squared(coeffs: SuperpositionCoeffs, overlaps: OverlapPair) -> float:
    """Squared norm N^2 = <psi|psi> of the unnormalized superposition.

    For real parameters the sixteen Gram terms collapse to

        N^2 = (mu^2+lam^2+rho^2+nu^2) + 2(mu*lam+rho*nu) p2
              + 2(mu*rho+lam*nu) p1 + 2(mu*nu+lam*rho) p1 p2.
    """
    n_sq = _norm_sq(coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu,
                    overlaps.p1, overlaps.p2)
    if n_sq <= DEGENERATE_NORM_SQ:
        raise DegenerateStateError(
            f"squared norm {n_sq:.3e} is numerically zero; the four components "
            "are linearly dependent at this working precision"
        )
    return n_sq


def orthonormal_amplitudes(
    coeffs: SuperpositionCoeffs, overlaps: OverlapPair
) -> OrthonormalAmplitudes:
    """Two-qubit amplitudes of |psi> in the orthonormalized product basis.

    System 1 keeps |alpha> and orthogonalizes |gamma| against it; system 2
    keeps |delta> and orthogonalizes |beta>.  In that basis

        a = mu p2 + lam + rho p1 p2 + nu p1,   b = n2 (mu + rho p1),
        c = n1 (nu + rho p2),                  d = rho n1 n2,

    with n_i = sqrt(1 - p_i^2).
    """
    mu, lam, rho, nu = coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu
    p1, p2 = overlaps.p1, overlaps.p2
    n1, n2 = overlaps.n1, overlaps.n2
    return OrthonormalAmplitudes(
        a=mu * p2 + lam + rho * p1 * p2 + nu * p1,
        b=n2 * (mu + rho * p1),
        c=n1 * (nu + rho * p2),
        d=rho * n1 * n2,
        norm=math.sqrt(gram_norm_squared(coeffs, overlaps)),
    )


def _clamp_concurrence(value: float) -> float:
    if not math.isfinite(value) or value > 1.0 + _CLAMP_SLACK:
        raise ConsistencyError(
            f"concurrence evaluated to {value}, beyond rounding slack above 1; "
            "this indicates a bug rather than float noise"
        )
    return min(max(value, 0.0), 1.0)


def concurrence_from_amplitudes(amps: OrthonormalAmplitudes) -> float:
    """Concurrence 2|ad - bc| / N^2 of the (unnormalized) two-qubit state."""
    raw = 2.0 * abs(amps.a * amps.d - amps.b * amps.c) / (amps.norm * amps.norm)
    return _clamp_concurrence(raw)


def concurrence(coeffs: SuperpositionCoeffs, overlaps: OverlapPair) -> float:
    """Closed-form concurrence 2|mu nu - lam rho| n1 n2 / N^2, clamped to [0, 1].

    Coefficients large enough to overflow N^2 are first scaled by a power of
    two, which is exact and leaves the scale-invariant concurrence unchanged.
    """
    mu, lam, rho, nu = coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu
    if abs(mu) + abs(lam) + abs(rho) + abs(nu) > _RESCALE_ABOVE:
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
    """N^2 (1 - C) at mu = 1, p1 = p2 = x; broadcasts (see maximality_residual).

    np.where evaluates both sum-of-squares branches and keeps the one on the
    point's side of nu = lam rho.
    """
    one_minus_x_sq = (1.0 - x) * (1.0 + x)
    h = lam + rho + 2.0 * x
    u = nu - 1.0 + x * h
    w = 1.0 + nu + (lam + rho) * x
    r = lam - rho
    return np.where(nu >= lam * rho, u * u + one_minus_x_sq * h * h,
                    w * w + one_minus_x_sq * r * r)


def maximality_residual(coeffs: SuperpositionCoeffs, x: float) -> float:
    """N^2 - 2|nu - lam rho|(1 - x^2) at the common overlap p1 = p2 = x.

    Equals N^2 (1 - C), so it is nonnegative and vanishes exactly when the
    state is maximally entangled.  Requires the mu = 1 gauge.

    The textbook expression cancels catastrophically near its zeros (noise
    floor ~eps N^2, i.e. family distances of only ~1e-7 resolve), so each
    branch of |nu - lam rho| is evaluated in its algebraically identical
    sum-of-squares form, which is accurate down to ~1e-30:

        nu >= lam rho:  (nu - 1 + x h)^2 + (1 - x^2) h^2,  h = lam + rho + 2x
        nu <= lam rho:  (1 + nu + (lam+rho) x)^2 + (1 - x^2) (lam - rho)^2
    """
    require_unit_mu(coeffs)
    x = require_open_unit_interval(x)
    return float(_maximality_residual(coeffs.lam, coeffs.rho, coeffs.nu, x))
