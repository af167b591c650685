"""Catalog of reference states: the known maximal families and separable cases.

Eleven maximally entangled states (six of class (a), five of class (b)) and
four separable ones, instantiated at a configurable squared amplitude gap
(alpha - gamma)^2.  The overlap is x = exp(-gap^2/2) for both subsystems, so
these instances sit squarely inside the classification's scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import SuperpositionCoeffs
from .classify import Verdict
from .coherent import MAX_AMPLITUDE, CoherentConfig
from .errors import DomainError

# Second-mode offset of the generic (non-cat) amplitude configuration.
_BETA_OFFSET = 0.3


@dataclass(frozen=True)
class ExampleState:
    label: str
    expected: Verdict
    coeffs: SuperpositionCoeffs
    config: CoherentConfig


def example_states(gap_squared: float = 1.0) -> list[ExampleState]:
    """All fifteen reference states at the requested (alpha - gamma)^2."""
    if not gap_squared > 0:
        raise DomainError(f"gap_squared must be positive, got {gap_squared}")
    gap = math.sqrt(gap_squared)
    if not gap * 0.5 <= MAX_AMPLITUDE:
        raise DomainError(
            f"gap_squared {gap_squared} puts the half-gap {gap * 0.5} past "
            f"{MAX_AMPLITUDE}"
        )
    x = math.exp(-0.5 * gap_squared)
    generic = CoherentConfig(0.0, _BETA_OFFSET, gap, _BETA_OFFSET + gap)
    cat = CoherentConfig(0.0, 0.0, gap, gap)

    a_patterns = [
        ("symmetric pair lam=rho=-x", (-x, -x, 1.0)),
        ("one-sided lam=-2x", (-2.0 * x, 0.0, 1.0)),
        ("skewed lam=x rho=-3x", (x, -3.0 * x, 1.0)),
    ]
    b_patterns = [
        ("antisymmetric nu=-1", (0.0, 0.0, -1.0)),
        ("reciprocal lam=rho=-1/x", (-1.0 / x, -1.0 / x, 1.0)),
        ("reciprocal lam=rho=-2/x nu=3", (-2.0 / x, -2.0 / x, 3.0)),
        ("reciprocal lam=rho=1/x nu=-3", (1.0 / x, 1.0 / x, -3.0)),
        ("truncated lam=rho=-1/(2x) nu=0", (-0.5 / x, -0.5 / x, 0.0)),
    ]
    sep_patterns = [
        ("uniform product", (1.0, 1.0, 1.0)),
        ("product lam=0.3 rho=0.7", (0.3, 0.7, 0.3 * 0.7)),
        ("alternating product", (-1.0, 1.0, -1.0)),
        ("paired rho=-0.8", (1.0, -0.8, -0.8)),
    ]

    table = [
        ("class-a {}", Verdict.MAXIMAL_CLASS_A, a_patterns, generic),
        ("class-a {} (cat: beta=alpha, delta=gamma)", Verdict.MAXIMAL_CLASS_A,
         a_patterns, cat),
        ("class-b {}", Verdict.MAXIMAL_CLASS_B, b_patterns, generic),
        ("separable {}", Verdict.SEPARABLE, sep_patterns, generic),
    ]
    return [
        ExampleState(label=form.format(label), expected=expected,
                     coeffs=SuperpositionCoeffs(1.0, lam, rho, nu), config=config)
        for form, expected, patterns, config in table
        for label, (lam, rho, nu) in patterns
    ]
