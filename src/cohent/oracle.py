"""Brute-force concurrence in a truncated two-mode Fock space.

Completely independent of the closed-form path: the four-component state is
assembled as an explicit truncation^2 vector of number-state coefficients,
and its entanglement is read off the Schmidt spectrum.  Every analytic result
in this package is cross-checked against this module.  Every brute-force
concurrence comes from `oracle_concurrences`, which builds states in blocks
and takes their spectra in one stacked SVD per cutoff.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .analytic import SuperpositionCoeffs, _clamp_concurrence, _in_range
from .coherent import CoherentConfig, default_truncation, fock_vector
from .errors import CohentError, ConsistencyError, DegenerateStateError

# A third Schmidt coefficient above this (squared) means the state escaped
# the 2x2 span it must live in.
_RANK_LIMIT = 1e-6

# Each joint coefficient sums four products of a superposition coefficient and
# two unit-vector entries, so rounding errs the norm by a few eps (|mu| + |lam|
# + |rho| + |nu|); a norm within 4 eps of that sum is rounding noise.
_DEGENERATE_REL = 4.0 * sys.float_info.epsilon

# States are built, and their spectra taken, this many at a time.  At cutoffs
# up to the sweep's T(2) = 31, a block's matrices take at most 64 x 31^2 x 8 B,
# about 0.5 MB, and their stacked copies as much again.
_BLOCK = 64


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


def schmidt_concurrence(svals: np.ndarray) -> float:
    """2 sigma_1 sigma_2 from a descending Schmidt spectrum, checked.

    Algebraically equal to sqrt(2 (1 - Tr rho^2)) of the reduced state for
    rank-2 states, but the error stays at machine epsilon even when one
    Schmidt coefficient is essentially zero, so separable states come out at
    ~1e-15 instead of the purity subtraction's ~1e-7.
    """
    top = svals[:3].tolist()
    if top[2] ** 2 > _RANK_LIMIT:
        raise ConsistencyError(
            f"third Schmidt weight {top[2]**2:.3e} exceeds {_RANK_LIMIT}; "
            "state is not confined to a 2x2 span"
        )
    return _clamp_concurrence(2.0 * top[0] * top[1])


def oracle_concurrences(jobs: Iterable) -> Iterator[tuple[float, float]]:
    """(C, norm_before_normalization) of each (config, coeffs) job, in order.

    States are built _BLOCK at a time, with one stacked SVD per cutoff (LAPACK
    factors each matrix on its own, so the bits are a one-matrix SVD's).  A
    state whose build or check fails raises on its own turn, after those
    before it, so the caller knows which it was."""
    jobs = iter(jobs)
    while block := list(itertools.islice(jobs, _BLOCK)):
        states, failure = [], None
        for config, coeffs in block:
            try:
                states.append(build_state(config, coeffs))
            except CohentError as err:
                failure = err
                break
        spectra = {}
        for cutoff in {state.truncation for state in states}:
            members = [i for i, state in enumerate(states) if state.truncation == cutoff]
            stack = np.stack([states[i].matrix() for i in members])
            spectra.update(zip(members, np.linalg.svd(stack, compute_uv=False)))
        for i, state in enumerate(states):
            yield schmidt_concurrence(spectra[i]), state.norm_before_normalization
        if failure is not None:
            raise failure


def oracle_concurrence(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> float:
    """End-to-end brute-force concurrence of the assembled Fock-space state."""
    return next(oracle_concurrences([(config, coeffs)]))[0]
