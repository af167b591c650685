"""Brute-force concurrence in a truncated two-mode Fock space.

Completely independent of the closed-form path: the four-component state is
assembled as an explicit truncation^2 vector of number-state coefficients,
and its entanglement is read off the Schmidt spectrum.  Each mode is built
centered on its pair's midpoint m: for real a and m, D(-m)|a> = |a - m>
exactly, a local unitary, so the Schmidt spectrum is the original state's,
and the Fock cutoff follows the larger half-gap (CoherentConfig.half_gap).
Every analytic result in this package is cross-checked against this module.
Every brute-force concurrence comes from `oracle_concurrences`, which takes
states in blocks and, per Fock cutoff in a block, builds them as one array
(`build_states`) and takes their spectra in one stacked SVD.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .analytic import SuperpositionCoeffs, _clamp_concurrence, _in_range
from .coherent import CoherentConfig, default_truncation, fock_vectors
from .errors import ConsistencyError, DegenerateStateError

# A third Schmidt coefficient above this (squared) means the state escaped
# the 2x2 span it must live in.
_RANK_LIMIT = 1e-6

# Each joint coefficient sums four products of a superposition coefficient and
# two unit-vector entries, so rounding errs the norm by a few eps (|mu| + |lam|
# + |rho| + |nu|); a norm within 4 eps of that sum is rounding noise.
_DEGENERATE_REL = 4.0 * sys.float_info.epsilon

# States are built, and their spectra taken, this many at a time.  A block's
# joint matrices take at most 256 x T^2 x 8 B, and building them takes one
# temporary as large.  At the half-gap cap's T(8) = 145 that is about 43 MB,
# which no caller reaches: a random sweep's half-gaps are at most 2, so
# T <= 31 and about 2 MB; the spot check's overlaps are at least 1e-6, so
# T <= 40 and about 3.3 MB; `examples` builds 15 states and `concurrence` 1.
_BLOCK = 256


@dataclass(frozen=True, eq=False)
class ProductStateVector:
    """Normalized joint Fock coefficients of the centered state, flattened
    row-major (m, n)."""

    coefficients: np.ndarray
    truncation: int
    norm_before_normalization: float

    def matrix(self) -> np.ndarray:
        """View of the coefficients as the truncation x truncation matrix."""
        return self.coefficients.reshape(self.truncation, self.truncation)


def build_states(
    jobs: list, truncation: int
) -> tuple[np.ndarray, list[float], DegenerateStateError | None]:
    """Assemble mu|a,b> + lam|a,d> + rho|g,b> + nu|g,d> for each (config,
    coeffs) job in the joint Fock basis at one cutoff, from two outer products
    of single-mode Fock coefficients (the state is rank <= 2 across the split),
    with mode 1 at a, g = -h1, h1 and mode 2 at b, d = -h2, h2, the half-gaps
    h1 = (gamma - alpha) * 0.5 and h2 = (delta - beta) * 0.5.

    Returns the normalized states as a (k, truncation, truncation) array and
    their norms before normalization, both stopping short of the first
    degenerate state, and that state's DegenerateStateError (else None).
    """
    # The joint coefficients are no larger than |mu| + |lam| + |rho| + |nu|,
    # and the norm sums their squares, so each state is built from its
    # coefficients scaled into range by a power of two (analytic._in_range),
    # which is exact and leaves the normalized state unchanged.
    scaled = [_in_range(coeffs) for _, coeffs in jobs]
    mu, lam, rho, nu = np.array(
        [(c.mu, c.lam, c.rho, c.nu) for c, _ in scaled]).T[:, :, None]
    # f(-h)_n = (-1)^n f(h)_n bit for bit (the cumulative product only flips
    # signs, and each row's norm is unchanged), so the alpha and beta rows are
    # the gamma and delta rows times a parity vector.
    f_gamma, f_delta = fock_vectors(
        [h for config, _ in jobs for h in ((config.gamma - config.alpha) * 0.5,
                                           (config.delta - config.beta) * 0.5)],
        truncation).reshape(len(jobs), 2, truncation).transpose(1, 0, 2)
    parity = np.resize([1.0, -1.0], truncation)
    f_alpha, f_beta = f_gamma * parity, f_delta * parity

    # Broadcast outer products, and each norm as the dot product that
    # np.linalg.norm takes: bit-identical, without either call's overhead.
    psi = f_alpha[:, :, None] * (mu * f_beta + lam * f_delta)[:, None, :]
    psi += f_gamma[:, :, None] * (rho * f_beta + nu * f_delta)[:, None, :]
    norms, unscaled, failure = [], [], None
    for flat, (coeffs, exponent) in zip(psi.reshape(len(jobs), -1), scaled):
        norm = math.sqrt(flat.dot(flat))
        size = abs(coeffs.mu) + abs(coeffs.lam) + abs(coeffs.rho) + abs(coeffs.nu)
        if norm <= _DEGENERATE_REL * size:
            failure = DegenerateStateError(
                f"joint state norm = {norm:.3e} is rounding noise next to the "
                f"coefficient magnitudes, which sum to {size:.3e}"
            )
            break
        norms.append(norm)
        try:
            unscaled.append(math.ldexp(norm, exponent))
        except OverflowError:  # the norm is beyond the float range
            unscaled.append(math.inf)
    psi[:len(norms)] /= np.array(norms)[:, None, None]
    return psi[:len(norms)], unscaled, failure


def build_state(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> ProductStateVector:
    """The one state of build_states, at the cutoff default_truncation
    derives from the larger half-gap."""
    truncation = default_truncation(config.half_gap)
    states, norms, failure = build_states([(config, coeffs)], truncation)
    if failure is not None:
        raise failure
    return ProductStateVector(states[0].ravel(), truncation, norms[0])


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

    Jobs are drawn _BLOCK at a time.  Per Fock cutoff in a block, their states
    are built as one array and their spectra taken in one stacked SVD (LAPACK
    factors each matrix on its own, so the bits are a one-matrix SVD's).  A
    state whose build or check fails raises on its own turn, after those
    before it, so the caller knows which it was."""
    jobs = iter(jobs)
    while block := list(itertools.islice(jobs, _BLOCK)):
        cutoffs = [default_truncation(config.half_gap) for config, _ in block]
        results, stop, failure = {}, len(block), None
        for cutoff in dict.fromkeys(cutoffs):
            members = [i for i, t in enumerate(cutoffs) if t == cutoff]
            # At its derived cutoff no half-gap's Fock tail comes near
            # TAIL_MASS_LIMIT, so only a degenerate state fails to build.
            states, norms, error = build_states([block[i] for i in members], cutoff)
            if error is not None and members[len(norms)] < stop:
                stop, failure = members[len(norms)], error
            spectra = np.linalg.svd(states, compute_uv=False)
            results.update(zip(members, zip(spectra, norms)))
        for i in range(stop):
            svals, norm = results[i]
            yield schmidt_concurrence(svals), norm
        if failure is not None:
            raise failure


def oracle_concurrence(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> float:
    """End-to-end brute-force concurrence of the assembled Fock-space state."""
    return next(oracle_concurrences([(config, coeffs)]))[0]
