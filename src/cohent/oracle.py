"""Brute-force concurrence in a truncated two-mode Fock space.

Completely independent of the closed-form path: the four-component state is
assembled as an explicit truncation^2 vector of number-state coefficients,
and its entanglement is read off the Schmidt spectrum.  Every analytic result
in this package is cross-checked against this module.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .analytic import SuperpositionCoeffs, _clamp_concurrence, _in_range
from .coherent import CoherentConfig, default_truncation, fock_vector
from .errors import ConsistencyError, DegenerateStateError

# A third Schmidt coefficient above this (squared) means the state escaped
# the 2x2 span it must live in.
_RANK_LIMIT = 1e-6

# Each joint coefficient sums four products of a superposition coefficient and
# two unit-vector entries, so rounding errs the norm by a few eps (|mu| + |lam|
# + |rho| + |nu|); a norm within 4 eps of that sum is rounding noise.
_DEGENERATE_REL = 4.0 * sys.float_info.epsilon


@dataclass(frozen=True, eq=False)
class ProductStateVector:
    """Normalized joint Fock coefficients, flattened row-major (m, n)."""

    coefficients: np.ndarray
    truncation: int
    norm_before_normalization: float

    def matrix(self) -> np.ndarray:
        """View of the coefficients as the truncation x truncation matrix."""
        return self.coefficients.reshape(self.truncation, self.truncation)


def build_state(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> ProductStateVector:
    """Assemble mu|a,b> + lam|a,d> + rho|g,b> + nu|g,d> in the joint Fock basis,
    at the cutoff default_truncation derives from the largest amplitude.

    The joint coefficient at (m, n) is the corresponding combination of
    single-mode Fock coefficients; the state is rank <= 2 across the split,
    so it is built from two outer products.
    """
    truncation = default_truncation(config.max_amplitude)
    # The joint coefficients are no larger than |mu| + |lam| + |rho| + |nu|,
    # and the norm sums their squares, so the state is built from the
    # coefficients scaled into range by a power of two (analytic._in_range),
    # which is exact and leaves the normalized state unchanged.
    scaled, exponent = _in_range(coeffs)
    mu, lam, rho, nu = scaled.mu, scaled.lam, scaled.rho, scaled.nu
    size = abs(mu) + abs(lam) + abs(rho) + abs(nu)
    f_alpha = fock_vector(config.alpha, truncation)
    f_beta = fock_vector(config.beta, truncation)
    f_gamma = fock_vector(config.gamma, truncation)
    f_delta = fock_vector(config.delta, truncation)

    # Broadcast outer products, and the norm as the dot product that
    # np.linalg.norm takes: bit-identical, without either call's overhead.
    psi = f_alpha[:, None] * (mu * f_beta + lam * f_delta)
    psi += f_gamma[:, None] * (rho * f_beta + nu * f_delta)
    flat = psi.ravel()

    norm = math.sqrt(flat.dot(flat))
    if norm <= _DEGENERATE_REL * size:
        raise DegenerateStateError(
            f"joint state norm = {norm:.3e} is rounding noise next to the "
            f"coefficient magnitudes, which sum to {size:.3e}"
        )
    flat /= norm
    try:
        unscaled = math.ldexp(norm, exponent)
    except OverflowError:  # the norm is beyond the float range
        unscaled = math.inf
    return ProductStateVector(flat, truncation, unscaled)


def _spectrum_concurrence(svals: np.ndarray) -> float:
    """2 sigma_1 sigma_2 from a descending Schmidt spectrum, checked.

    The one place the per-state rules live, for one state and for a stack.
    """
    # Padded with zeros: one Fock level per mode (a single singular value)
    # holds only products.
    top = svals[:3].tolist() + [0.0, 0.0]
    if top[2] ** 2 > _RANK_LIMIT:
        raise ConsistencyError(
            f"third Schmidt weight {top[2]**2:.3e} exceeds {_RANK_LIMIT}; "
            "state is not confined to a 2x2 span"
        )
    return _clamp_concurrence(2.0 * top[0] * top[1])


def schmidt_concurrence(state: ProductStateVector) -> float:
    """2 sigma_1 sigma_2 from the singular values of the coefficient matrix.

    Algebraically equal to sqrt(2 (1 - Tr rho^2)) of the reduced state for
    rank-2 states, but the error stays at machine epsilon even when one
    Schmidt coefficient is essentially zero, so separable states come out at
    ~1e-15 instead of the purity subtraction's ~1e-7.
    """
    return _spectrum_concurrence(np.linalg.svd(state.matrix(), compute_uv=False))


def schmidt_concurrences(states: list[ProductStateVector]) -> Iterator[float]:
    """schmidt_concurrence of each state, yielded in order, from one stacked
    SVD per cutoff.

    LAPACK factors each matrix of a stack on its own, so every value is
    bit-identical to the one-state call.  A state that fails a check raises
    when its turn comes, so the caller knows which state it was.
    """
    by_cutoff: dict[int, list[int]] = {}
    for i, state in enumerate(states):
        by_cutoff.setdefault(state.truncation, []).append(i)
    spectra = [None] * len(states)
    for members in by_cutoff.values():
        stack = np.stack([states[i].matrix() for i in members])
        for i, svals in zip(members, np.linalg.svd(stack, compute_uv=False)):
            spectra[i] = svals
    for svals in spectra:
        yield _spectrum_concurrence(svals)


def oracle_concurrence(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> float:
    """End-to-end brute-force concurrence of the assembled Fock-space state."""
    return schmidt_concurrence(build_state(config, coeffs))
