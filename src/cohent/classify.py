"""Classification of maximal entanglement.

The concurrence depends only on the ray of v = (mu, lam, rho, nu).  At
overlaps p_i = cos theta_i in (0, 1), n_i = sin theta_i, a state is maximally
entangled exactly when v lies on one of two planes through the origin,
ker P_a and ker P_b (their rows are _family_terms').  The amplitudes of
analytic._amplitudes give (a + d, b - c) = M_a P_a v, M_a = [[p1, 1], [-n1, 0]],
and (a - d, b + c) = M_b P_b v, M_b = [[-cos(theta1 + theta2), p1],
[-sin(theta1 + theta2), n1]], whose squared singular values are 1 +- p1 and
1 +- p2.  N^2 (1 - C) is the smaller of |M_a P_a v|^2 and |M_b P_b v|^2, so
C = 1 exactly on the planes; det [P_a; P_b] = 4 n1 n2 > 0, so they meet only
at v = 0.  At p1 = p2 = x they are the paper's planes:

    class (a): nu - mu = 0     and lam + rho + 2x mu = 0,
    class (b): lam - rho = 0   and nu + mu + 2x lam  = 0.

At mu = 1 these are nu = 1, lam + rho = -2x and lam = rho, nu + 1 = -2 lam x.
tests/test_symbolic.py proves all of this.  Separability is the opposite
corner: C = 0 exactly when mu nu = lam rho.

The tolerance is scale-free.  v passes a family's test at `tol` when both
of its terms are at most tol max|v|, and the separability test when
|mu nu - lam rho| <= tol max|v|^2; where the largest |coefficient| is mu = 1
that is an absolute tol.  So `classify` reports the residuals of
v / max|v|, which compare with tol directly.  At p1 = p2 = x both family
tests pass at once only for tol >= 1 - x: the point (1, -1, -x, x),
max|v| = 1, has all four terms equal to 1 - x, and a linear program over
max|v| = 1 finds no point that passes both at a lower tol.  This limit is
proven at p1 = p2 only.

The paper's two feasibility quadratics in x are the residual squares
|M_a P_a v|^2 and |M_b P_b v|^2 at mu = 1 and p1 = p2 = x, as
tests/test_symbolic.py proves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .analytic import SuperpositionCoeffs, _unit_ray, concurrence
from .coherent import OverlapPair
from .errors import DomainError

DEFAULT_TOL = 1e-9


class Verdict(enum.Enum):
    MAXIMAL_CLASS_A = "MaximalClassA"
    MAXIMAL_CLASS_B = "MaximalClassB"
    SEPARABLE = "Separable"
    INTERMEDIATE = "Intermediate"


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict plus the concurrence and all three condition residuals, those
    of v / max|v| (the sum of each family's two |terms|, and |mu nu - lam rho|)."""

    verdict: Verdict
    concurrence: float
    class_a_residual: float
    class_b_residual: float
    separability_residual: float


def _family_terms(mu, lam, rho, nu, p1, p2, n1, n2):
    """P_a v and P_b v, the two terms of each family, and mu nu - lam rho, of
    v = (mu, lam, rho, nu) at the overlaps (p1, p2), n_i = sqrt(1 - p_i^2);
    broadcasts.  At p1 = p2, r = s = 1.0 exactly, so each |term| is bit for
    bit that of the rows at x = p1 in the module docstring."""
    r, s = n2 / n1, n1 / n2
    return ((nu - r * mu + (p2 - r * p1) * rho, lam + r * rho + (p2 + r * p1) * mu),
            (s * lam - rho + (s * p2 - p1) * mu, nu + s * mu + (p1 + s * p2) * lam),
            mu * nu - lam * rho)


def _ray_columns(mu, lam, rho, nu, p1, p2, n1, n2, tol):
    """The class (a), class (b) and separability residuals of v / max|v|, and
    whether v passes the class (a), class (b) and separability tests at `tol`
    (see the module docstring); broadcasts.

    The terms are formed from v on its unit ray (analytic._unit_ray), so
    none overflows, and the residuals, those of v / max|v|, are finite for
    every finite v != 0; they are exact where max|v| = 1.
    """
    *v, _ = _unit_ray(mu, lam, rho, nu)
    (a1, a2), (b1, b2), sep = _family_terms(*v, p1, p2, n1, n2)
    a1, a2, b1, b2, sep = abs(a1), abs(a2), abs(b1), abs(b2), abs(sep)
    size = np.maximum(np.maximum(abs(v[0]), abs(v[1])), np.maximum(abs(v[2]), abs(v[3])))
    bound = tol * size
    return ((a1 + a2) / size, (b1 + b2) / size, sep / size / size,
            (a1 <= bound) & (a2 <= bound), (b1 <= bound) & (b2 <= bound),
            sep <= bound * size)


def family_checks(mu, lam, rho, nu, p1, p2, n1, n2, tol: float = DEFAULT_TOL):
    """Whether each point passes the class (a) and the class (b) test at
    `tol`: both terms of the family at most tol max|v|; broadcasts.

    The overlaps (p1, p2 in (0, 1), n_i = sqrt(1 - p_i^2)) are not checked
    here; `tol` is.
    """
    _require_positive_tol(tol)
    return _ray_columns(mu, lam, rho, nu, p1, p2, n1, n2, tol)[3:5]


def classify(
    coeffs: SuperpositionCoeffs, overlaps: OverlapPair, tol: float = DEFAULT_TOL
) -> ClassificationResult:
    """Tagged verdict at the overlaps (p1, p2), with all residuals reported.

    Near-degenerate inputs are resolved deterministically: separability is
    checked first, then class (a), then class (b), else the state is
    intermediate.  The residuals, of v / max|v|, compare with `tol` directly
    and let callers re-decide with their own.  mu need not be 1, and may be 0.
    """
    _require_positive_tol(tol)
    res_a, res_b, res_sep, on_a, on_b, separable = _ray_columns(
        coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu,
        overlaps.p1, overlaps.p2, overlaps.n1, overlaps.n2, tol)
    if separable:
        verdict = Verdict.SEPARABLE
    elif on_a:
        verdict = Verdict.MAXIMAL_CLASS_A
    elif on_b:
        verdict = Verdict.MAXIMAL_CLASS_B
    else:
        verdict = Verdict.INTERMEDIATE
    return ClassificationResult(
        verdict=verdict,
        concurrence=concurrence(coeffs, overlaps),
        class_a_residual=float(res_a),
        class_b_residual=float(res_b),
        separability_residual=float(res_sep),
    )


def _require_positive_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
