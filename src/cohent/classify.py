"""Classification of maximal entanglement and the quadratic-root analysis.

With mu = 1 and a common overlap x = p1 = p2 in (0, 1), a state is maximally
entangled exactly when one of two disjoint coefficient families holds:

    class (a): nu = 1      and lam + rho = -2x,
    class (b): lam = rho   and nu + 1    = -2 lam x.

Both families fall out of requiring the concurrence to reach 1, which reduces
to a quadratic in x on either side of the kink |nu - lam rho|; the feasibility
of those quadratics over 0 < x < 1 is what `quadratic_roots_case1/2` report.
Separability is the opposite corner: C = 0 exactly when nu = lam rho.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    SuperpositionCoeffs,
    concurrence,
    require_open_unit_interval,
    require_unit_mu,
)
from .coherent import OverlapPair
from .errors import DomainError

DEFAULT_TOL = 1e-9

# Roots this close to 0 or 1 sit on the excluded boundary of the open interval.
BOUNDARY_TOL = 1e-12


class Verdict(enum.Enum):
    MAXIMAL_CLASS_A = "MaximalClassA"
    MAXIMAL_CLASS_B = "MaximalClassB"
    SEPARABLE = "Separable"
    INTERMEDIATE = "Intermediate"


@dataclass(frozen=True)
class ClassificationResult:
    """Verdict plus the concurrence and all three condition residuals."""

    verdict: Verdict
    concurrence: float
    class_a_residual: float
    class_b_residual: float
    separability_residual: float

    @property
    def residuals(self) -> tuple[float, float, float]:
        return (self.class_a_residual, self.class_b_residual, self.separability_residual)


@dataclass(frozen=True)
class RootReport:
    """Roots of one feasibility quadratic and the subset inside (0, 1).

    `identically_zero` marks the degenerate coefficient choice that makes the
    quadratic vanish for every x (case 2 with lam = rho = 0, nu = -1); the
    root lists stay empty in that case since every interior x qualifies.
    """

    case_tag: str
    discriminant: float
    roots: tuple[float, ...]
    feasible_roots: tuple[float, ...]
    identically_zero: bool = False


def _class_a_terms(lam, rho, nu, x):
    """|nu - 1| and |lam + rho + 2x|, both zero exactly on class (a); broadcasts."""
    return abs(nu - 1.0), abs(lam + rho + 2.0 * x)


def _class_b_terms(lam, rho, nu, x):
    """|lam - rho| and |nu + 1 + 2 lam x|, both zero exactly on class (b);
    broadcasts."""
    return abs(lam - rho), abs(nu + 1.0 + 2.0 * lam * x)


def _separability(lam, rho, nu):
    """|nu - lam rho|; broadcasts."""
    return abs(nu - lam * rho)


def _within(terms, tol):
    first, second = terms
    return (first <= tol) & (second <= tol)


def family_checks(lam, rho, nu, x, tol: float = DEFAULT_TOL):
    """check_class_a and check_class_b of mu = 1 points at once; broadcasts.

    `x` must already lie inside (0, 1); `tol` is validated here.
    """
    _require_positive_tol(tol)
    return (_within(_class_a_terms(lam, rho, nu, x), tol),
            _within(_class_b_terms(lam, rho, nu, x), tol))


# classify_columns's verdict codes index this tuple.
VERDICTS = (Verdict.SEPARABLE, Verdict.MAXIMAL_CLASS_A, Verdict.MAXIMAL_CLASS_B,
            Verdict.INTERMEDIATE)


def classify_columns(lam, rho, nu, x, tol: float = DEFAULT_TOL):
    """classify's residuals and verdict for mu = 1 points at once; broadcasts.

    Returns the class (a), class (b) and separability residuals and a verdict
    code per point, an index into VERDICTS.  The tests run in classify's
    order: separable, then class (a), then class (b), else intermediate.
    `x` must already lie inside (0, 1); `tol` is validated here.
    """
    _require_positive_tol(tol)
    a_terms = _class_a_terms(lam, rho, nu, x)
    b_terms = _class_b_terms(lam, rho, nu, x)
    sep = _separability(lam, rho, nu)
    code = np.select([sep <= tol, _within(a_terms, tol), _within(b_terms, tol)],
                     [0, 1, 2], 3)
    return a_terms[0] + a_terms[1], b_terms[0] + b_terms[1], sep, code


def class_a_residual(coeffs: SuperpositionCoeffs, x: float) -> float:
    """|nu - 1| + |lam + rho + 2x|; zero exactly on the class (a) family."""
    first, second = _class_a_terms(coeffs.lam, coeffs.rho, coeffs.nu, x)
    return first + second


def class_b_residual(coeffs: SuperpositionCoeffs, x: float) -> float:
    """|lam - rho| + |nu + 1 + 2 lam x|; zero exactly on the class (b) family."""
    first, second = _class_b_terms(coeffs.lam, coeffs.rho, coeffs.nu, x)
    return first + second


def separability_residual(coeffs: SuperpositionCoeffs) -> float:
    """|nu - lam rho|; zero exactly for separable states (mu = 1 gauge)."""
    return _separability(coeffs.lam, coeffs.rho, coeffs.nu)


def check_class_a(coeffs: SuperpositionCoeffs, x: float, tol: float = DEFAULT_TOL) -> bool:
    """True iff |nu - 1| <= tol and |lam + rho + 2x| <= tol."""
    require_unit_mu(coeffs)
    x = require_open_unit_interval(x)
    return bool(family_checks(coeffs.lam, coeffs.rho, coeffs.nu, x, tol)[0])


def check_class_b(coeffs: SuperpositionCoeffs, x: float, tol: float = DEFAULT_TOL) -> bool:
    """True iff |lam - rho| <= tol and |nu + 1 + 2 lam x| <= tol."""
    require_unit_mu(coeffs)
    x = require_open_unit_interval(x)
    return bool(family_checks(coeffs.lam, coeffs.rho, coeffs.nu, x, tol)[1])


def classify(
    coeffs: SuperpositionCoeffs, x: float, tol: float = DEFAULT_TOL
) -> ClassificationResult:
    """Tagged verdict at the common overlap x, with all residuals reported.

    Near-degenerate inputs are resolved deterministically: separability is
    checked first, then class (a), then class (b); the residuals let callers
    re-decide with their own tolerance.
    """
    require_unit_mu(coeffs)
    x = require_open_unit_interval(x)
    res_a, res_b, res_sep, code = classify_columns(
        coeffs.lam, coeffs.rho, coeffs.nu, x, tol)
    return ClassificationResult(
        verdict=VERDICTS[int(code)],
        concurrence=concurrence(coeffs, OverlapPair(x, x)),
        class_a_residual=res_a,
        class_b_residual=res_b,
        separability_residual=res_sep,
    )


def _require_positive_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")


def _solve_quadratic(
    a: float, b: float, c: float, disc_raw: float
) -> tuple[tuple[float, ...], bool]:
    """Real roots of a x^2 + b x + c, with stable cancellation handling.

    `disc_raw` is b^2 - 4ac supplied in an algebraically factored form, which
    keeps tangent configurations (exact double roots) from being lost to the
    rounding of the textbook subtraction.  Returns (roots, identically_zero);
    a double root is reported once.
    """
    if a == 0.0:
        if b == 0.0:
            return (), c == 0.0
        return ((-c / b,), False)
    if disc_raw < 0.0:
        return (), False
    if disc_raw == 0.0:
        return ((-b / (2.0 * a),), False)
    sq = math.sqrt(disc_raw)
    q = -0.5 * (b + math.copysign(sq, b))
    r1 = q / a
    r2 = c / q if q != 0.0 else -b / (2.0 * a)
    roots = tuple(sorted(r for r in (r1, r2) if math.isfinite(r)))
    return roots, False


def _feasible(roots: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(r for r in roots if BOUNDARY_TOL < r < 1.0 - BOUNDARY_TOL)


def quadratic_roots_case1(lam: float, rho: float, nu: float) -> RootReport:
    """Analyze 4 nu x^2 + 2(lam+rho)(1+nu) x + (1-nu)^2 + (lam+rho)^2 = 0.

    This is the maximality condition on the nu > lam*rho side.  The reported
    discriminant is the factored form (1-nu)^2 ((lam+rho)^2 - 4 nu); a root in
    the open interval (0, 1) exists only for nu = 1 with lam + rho in (-2, 0),
    where the double root is -(lam+rho)/2.  The nu = 0 instance degenerates to
    a linear equation whose root is never feasible.
    """
    s = lam + rho
    a = 4.0 * nu
    b = 2.0 * s * (1.0 + nu)
    c = (1.0 - nu) ** 2 + s * s
    disc = (1.0 - nu) ** 2 * (s * s - 4.0 * nu)
    roots, ident = _solve_quadratic(a, b, c, 4.0 * disc)
    return RootReport(
        case_tag="Case1",
        discriminant=disc,
        roots=roots,
        feasible_roots=_feasible(roots),
        identically_zero=ident,
    )


def quadratic_roots_case2(lam: float, rho: float, nu: float) -> RootReport:
    """Analyze 4 lam rho x^2 + 2(lam+rho)(1+nu) x + (1+nu)^2 + (lam-rho)^2 = 0.

    The nu < lam*rho side of the maximality condition; discriminant factors as
    (lam-rho)^2 ((1+nu)^2 - 4 lam rho).  Feasible roots exist only for
    lam = rho with x = -(1+nu)/(2 lam) inside (0, 1).  With lam = rho = 0 and
    nu = -1 the polynomial vanishes identically (every x solves it); that is
    the antisymmetric state, maximal at every overlap.
    """
    s = lam + rho
    a = 4.0 * lam * rho
    b = 2.0 * s * (1.0 + nu)
    c = (1.0 + nu) ** 2 + (lam - rho) ** 2
    disc = (lam - rho) ** 2 * ((1.0 + nu) ** 2 - 4.0 * lam * rho)
    roots, ident = _solve_quadratic(a, b, c, 4.0 * disc)
    return RootReport(
        case_tag="Case2",
        discriminant=disc,
        roots=roots,
        feasible_roots=_feasible(roots),
        identically_zero=ident,
    )


def solve_coefficients_for_x(
    class_tag: str, x: float, free_param: float
) -> SuperpositionCoeffs:
    """Coefficients guaranteed maximal at overlap x, one free parameter.

    Class "A" returns (1, f, -2x - f, 1); class "B" returns (1, f, f, -1 - 2fx).
    """
    x = require_open_unit_interval(x)
    f = float(free_param)
    tag = class_tag.strip().upper()
    if tag == "A":
        return SuperpositionCoeffs(1.0, f, -2.0 * x - f, 1.0)
    if tag == "B":
        return SuperpositionCoeffs(1.0, f, f, -1.0 - 2.0 * f * x)
    raise DomainError(f"class_tag must be 'A' or 'B', got {class_tag!r}")
