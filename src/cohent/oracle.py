"""Brute-force concurrence in a truncated two-mode Fock space.

Completely independent of the closed-form path: the four-component state is
assembled as an explicit truncation^2 vector of number-state coefficients,
and its entanglement is read off the Schmidt spectrum.  Each mode is built
centered on its pair's midpoint m: for real a and m, D(-m)|a> = |a - m>
exactly, a local unitary, so the Schmidt spectrum is the original state's,
and a state is given by its signed half-gaps h1 = (gamma - alpha) / 2 and
h2 = (delta - beta) / 2 (coherent.half_gaps) and its coefficients.  The Fock
cutoff follows the larger |half-gap|.
Every analytic result in this package is cross-checked against this module.
Every brute-force concurrence comes from `oracle_concurrences`, which takes
states as columns, groups them by Fock cutoff over the whole call and, for
each stack of at most _STACK states of one cutoff, builds them as one array
(`build_states`) and takes their spectra in one stacked SVD.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .analytic import SuperpositionCoeffs, _clamped, _into_range
from .coherent import MAX_TRUNCATION, CoherentConfig, _truncations, check_amplitudes
from .coherent import default_truncation, fock_vectors
from .errors import ConsistencyError, DegenerateStateError, indexed

# A third Schmidt coefficient above this (squared) means the state escaped
# the 2x2 span it must live in.
_RANK_LIMIT = 1e-6

# Each joint coefficient sums four products of a superposition coefficient and
# two unit-vector entries, so rounding errs the norm by a few eps (|mu| + |lam|
# + |rho| + |nu|); a norm within 4 eps of that sum is rounding noise.
_DEGENERATE_REL = 4.0 * sys.float_info.epsilon

# States of one cutoff are built, and their spectra taken, this many at a
# time.  A stack's joint matrices take at most 32 x T^2 x 8 B, and building
# them takes one temporary as large: 0.25 MB in a random sweep, whose
# half-gaps are at most 2 (T <= 31); 0.4 MB in the spot check, whose
# overlaps are at least 1e-6 (T <= 40); 5.4 MB at the half-gap cap's
# T(8) = 145.  The SVDs take most of a sweep's time whatever the stack, and
# 64 kept 0.3-0.6 MB more resident for no measurable gain.
_STACK = 32

# (-1)^n for n < MAX_TRUNCATION.
_PARITY = np.resize([1.0, -1.0], MAX_TRUNCATION)


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
    h1, h2, mu, lam, rho, nu, truncation: int
) -> tuple[np.ndarray, np.ndarray, DegenerateStateError | None]:
    """Assemble mu|a,b> + lam|a,d> + rho|g,b> + nu|g,d> for each state of the
    columns in the joint Fock basis at one cutoff, from two outer products of
    single-mode Fock coefficients (the state is rank <= 2 across the split),
    with mode 1 at a, g = -h1, h1 and mode 2 at b, d = -h2, h2.

    Returns the normalized states as a (k, truncation, truncation) array and
    their norms before normalization, both stopping short of the first
    degenerate state, and that state's DegenerateStateError, indexed k
    (else None).
    """
    # The joint coefficients are no larger than |mu| + |lam| + |rho| + |nu|,
    # and the norm sums their squares, so each state is built from its
    # coefficients scaled into range by a power of two (analytic._into_range),
    # which is exact and leaves the normalized state unchanged.
    mu, lam, rho, nu, exponent, size = _into_range(
        *(np.asarray(v, dtype=float) for v in (mu, lam, rho, nu)))
    count = len(mu)
    # One Fock row per distinct half-gap, in order of first use, told apart
    # by its bits so that -0.0 keeps its own row.  f(-h)_n = (-1)^n f(h)_n bit
    # for bit (the cumulative product only flips signs, and each row's norm
    # is unchanged), so the alpha and beta rows are the gamma and delta rows
    # times (-1)^n.
    row_of = {}
    rows = [row_of.setdefault(bits, len(row_of)) for bits in
            np.concatenate([h1, h2]).astype(float).view(np.int64).tolist()]
    halves = np.array(list(row_of), dtype=np.int64).view(np.float64)
    gamma_delta = fock_vectors(halves, truncation)[np.reshape(rows, (2, count))]
    f_gamma, f_delta = gamma_delta
    f_alpha, f_beta = gamma_delta * _PARITY[:truncation]

    # Broadcast outer products, and each norm as the dot product that
    # np.linalg.norm takes: bit-identical, without either call's overhead.
    mu, lam, rho, nu = (v[:, None] for v in (mu, lam, rho, nu))
    psi = f_alpha[:, :, None] * (mu * f_beta + lam * f_delta)[:, None, :]
    psi += f_gamma[:, :, None] * (rho * f_beta + nu * f_delta)[:, None, :]
    norms = np.sqrt([flat.dot(flat) for flat in psi.reshape(count, -1)])
    degenerate = np.flatnonzero(norms <= _DEGENERATE_REL * size)
    stop, failure = count, None
    if len(degenerate):
        stop = degenerate[0]
        failure = indexed(DegenerateStateError(
            f"joint state norm = {norms[stop]:.3e} is rounding noise next to the "
            f"coefficient magnitudes, which sum to {size[stop]:.3e}"
        ), stop)
    psi, norms = psi[:stop], norms[:stop]
    psi /= norms[:, None, None]
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return psi, np.ldexp(norms, exponent[:stop]), failure


def _state_columns(config: CoherentConfig, coeffs: SuperpositionCoeffs):
    """The columns of one state: its half-gaps and coefficients."""
    return tuple([value] for value in (
        *config.half_gaps, coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu))


def build_state(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> ProductStateVector:
    """The one state of build_states, at the cutoff default_truncation
    derives from the larger half-gap."""
    truncation = default_truncation(config.half_gap)
    states, norms, failure = build_states(*_state_columns(config, coeffs), truncation)
    if failure is not None:
        raise failure
    return ProductStateVector(states[0].ravel(), truncation, float(norms[0]))


def schmidt_concurrences(svals: np.ndarray) -> np.ndarray:
    """2 sigma_1 sigma_2 of each descending Schmidt spectrum, a row of
    `svals`, checked.

    Algebraically equal to sqrt(2 (1 - Tr rho^2)) of the reduced state for
    rank-2 states, but the error stays at machine epsilon even when one
    Schmidt coefficient is essentially zero, so separable states come out at
    ~1e-15 instead of the purity subtraction's ~1e-7.  Raises
    ConsistencyError, indexed, for the first row whose third Schmidt weight
    exceeds _RANK_LIMIT or, before that, whose C exceeds 1 beyond rounding
    slack (analytic._clamped).
    """
    weights = svals[:, 2] * svals[:, 2]
    escaped = np.flatnonzero(weights > _RANK_LIMIT)
    stop = escaped[0] if len(escaped) else len(svals)
    c = _clamped(2.0 * svals[:stop, 0] * svals[:stop, 1])
    if stop < len(svals):
        raise indexed(ConsistencyError(
            f"third Schmidt weight {weights[stop]:.3e} exceeds {_RANK_LIMIT}; "
            "state is not confined to a 2x2 span"
        ), stop)
    return c


def schmidt_concurrence(svals: np.ndarray) -> float:
    """schmidt_concurrences of one descending Schmidt spectrum."""
    return float(schmidt_concurrences(np.asarray(svals)[None])[0])


def oracle_concurrences(h1, h2, mu, lam, rho, nu) -> tuple[np.ndarray, np.ndarray]:
    """C and the norm before normalization of each state, as two arrays in
    input order.

    A state is given by its signed half-gaps h1 and h2 and its coefficients;
    the six columns broadcast.  States are grouped by the Fock cutoff of
    their larger |half-gap| over the whole call, and each group is built and
    checked in stacks of at most _STACK, one stacked SVD each (LAPACK
    factors each matrix on its own, so the bits are a one-matrix SVD's).
    Every check of build_states and schmidt_concurrences, and fock_vectors'
    check of the half-gaps, is applied to every state; the error of the
    earliest state to fail, in input order, is raised, indexed by it.
    """
    # The six columns, as the rows of one array.
    columns = np.array(np.broadcast_arrays(h1, h2, mu, lam, rho, nu),
                       dtype=float).reshape(6, -1)
    check_amplitudes(columns[:2].ravel(order="F"))  # in input order
    cutoffs = _truncations(abs(columns[:2]).max(axis=0))
    c, norm = np.empty(columns.shape[1]), np.empty(columns.shape[1])
    failure = None
    for cutoff in sorted(set(cutoffs.tolist())):
        members = np.flatnonzero(cutoffs == cutoff)
        for start in range(0, len(members), _STACK):
            stack = members[start:start + _STACK]
            if failure is not None and stack[0] > failure.index:
                break  # no later stack of this cutoff can fail earlier
            states, norms, error = build_states(*columns[:, stack], cutoff)
            built = stack[:len(norms)]
            norm[built] = norms
            try:
                c[built] = schmidt_concurrences(np.linalg.svd(states, compute_uv=False))
            except ConsistencyError as err:
                error = err
            if error is not None and (failure is None
                                      or stack[error.index] < failure.index):
                failure = indexed(error, stack[error.index])
    if failure is not None:
        raise failure
    return c, norm


def oracle_concurrence(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> float:
    """End-to-end brute-force concurrence of the assembled Fock-space state."""
    return float(oracle_concurrences(*_state_columns(config, coeffs))[0][0])
