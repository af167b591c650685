"""Brute-force concurrence in a truncated two-mode Fock space.

Completely independent of the closed-form path: the four-component state is
assembled as an explicit truncation^2 vector of number-state coefficients,
and its entanglement is read off the Schmidt spectrum.  Every analytic result
in this package is cross-checked against this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import SuperpositionCoeffs, _clamp_concurrence
from .coherent import CoherentConfig, default_truncation, fock_vector
from .errors import ConsistencyError, DegenerateStateError, DomainError

# Keeps the joint vector (truncation^2 entries) desk-scale.
MAX_TRUNCATION = 256

# A third Schmidt coefficient above this (squared) means the state escaped
# the 2x2 span it must live in.
_RANK_LIMIT = 1e-6

# Each joint coefficient sums four products of a superposition coefficient and
# two unit-vector entries, so rounding errs the norm by a few eps (|mu| + |lam|
# + |rho| + |nu|); a norm within 4 eps of that sum is rounding noise.
_DEGENERATE_REL = 4.0 * sys.float_info.epsilon

# The joint coefficients are no larger than |mu| + |lam| + |rho| + |nu|, and
# the norm sums their squares, which overflow once that sum passes about
# 2^511.  Outside this range of the sum the state is built from coefficients
# scaled by a power of two, which is exact and leaves the normalized state
# unchanged.
_RESCALE_ABOVE = 2.0 ** 500
_RESCALE_BELOW = 2.0 ** -400


@dataclass(frozen=True, eq=False)
class ProductStateVector:
    """Normalized joint Fock coefficients, flattened row-major (m, n)."""

    coefficients: np.ndarray
    truncation: int
    norm_before_normalization: float

    def matrix(self) -> np.ndarray:
        """View of the coefficients as the truncation x truncation matrix."""
        return self.coefficients.reshape(self.truncation, self.truncation)


def build_state(
    config: CoherentConfig,
    coeffs: SuperpositionCoeffs,
    truncation: int | None = None,
) -> ProductStateVector:
    """Assemble mu|a,b> + lam|a,d> + rho|g,b> + nu|g,d> in the joint Fock basis.

    The joint coefficient at (m, n) is the corresponding combination of
    single-mode Fock coefficients; the state is rank <= 2 across the split,
    so it is built from two outer products.
    """
    if truncation is None:
        truncation = default_truncation(config.max_amplitude)
    truncation = int(truncation)
    if truncation > MAX_TRUNCATION:
        raise DomainError(
            f"truncation {truncation} exceeds the supported cap {MAX_TRUNCATION}"
        )
    mu, lam, rho, nu = coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu
    size = abs(mu) + abs(lam) + abs(rho) + abs(nu)
    exponent = 0
    if not _RESCALE_BELOW <= size <= _RESCALE_ABOVE:
        exponent = math.frexp(max(abs(mu), abs(lam), abs(rho), abs(nu)))[1]
        mu, lam, rho, nu = (math.ldexp(v, -exponent) for v in (mu, lam, rho, nu))
        size = abs(mu) + abs(lam) + abs(rho) + abs(nu)
    f_alpha = fock_vector(config.alpha, truncation).coefficients
    f_beta = fock_vector(config.beta, truncation).coefficients
    f_gamma = fock_vector(config.gamma, truncation).coefficients
    f_delta = fock_vector(config.delta, truncation).coefficients

    psi = np.outer(f_alpha, mu * f_beta + lam * f_delta)
    psi += np.outer(f_gamma, rho * f_beta + nu * f_delta)

    norm = float(np.linalg.norm(psi))
    if norm <= _DEGENERATE_REL * size:
        raise DegenerateStateError(
            f"joint state norm = {norm:.3e} is rounding noise next to the "
            f"coefficient magnitudes, which sum to {size:.3e}"
        )
    psi /= norm
    try:
        unscaled = math.ldexp(norm, exponent)
    except OverflowError:  # the norm is beyond the float range
        unscaled = math.inf
    return ProductStateVector(
        coefficients=psi.ravel(),
        truncation=truncation,
        norm_before_normalization=unscaled,
    )


def schmidt_concurrence(state: ProductStateVector) -> float:
    """2 sigma_1 sigma_2 from the singular values of the coefficient matrix.

    Algebraically equal to sqrt(2 (1 - Tr rho^2)) of the reduced state for
    rank-2 states, but the error stays at machine epsilon even when one
    Schmidt coefficient is essentially zero, so separable states come out at
    ~1e-15 instead of the purity subtraction's ~1e-7.
    """
    svals = np.linalg.svd(state.matrix(), compute_uv=False)
    if svals.size > 2 and svals[2] ** 2 > _RANK_LIMIT:
        raise ConsistencyError(
            f"third Schmidt weight {svals[2]**2:.3e} exceeds {_RANK_LIMIT}; "
            "state is not confined to a 2x2 span"
        )
    return _clamp_concurrence(2.0 * float(svals[0]) * float(svals[1]))


def oracle_concurrence(
    config: CoherentConfig,
    coeffs: SuperpositionCoeffs,
    truncation: int | None = None,
) -> float:
    """End-to-end brute-force concurrence of the assembled Fock-space state."""
    return schmidt_concurrence(build_state(config, coeffs, truncation))
