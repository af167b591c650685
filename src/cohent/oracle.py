"""Brute-force concurrence in a truncated two-mode Fock space.

Completely independent of the closed-form path: the four-component state is
assembled as an explicit T1 x T2 matrix of number-state coefficients, and
its entanglement is read off the Schmidt spectrum.  Each mode is built
centered on its pair's midpoint m: for real a and m, D(-m)|a> = |a - m>
exactly, a local unitary, so the Schmidt spectrum is the original state's,
and a state is given by its signed half-gaps h1 = (gamma - alpha) / 2 and
h2 = (delta - beta) / 2 (coherent.half_gaps) and its coefficients.  Each
mode's Fock cutoff follows its own |half-gap| (mode_cutoffs).
Every analytic result in this package is cross-checked against this module;
the closed form's values come in only to be compared (oracle_concurrences).
Every brute-force concurrence comes from `oracle_concurrences`, which takes
states as columns.  Once per call it checks them, takes the four parity-sector
weights of their coefficients on the unit ray and expands each distinct
half-gap in the Fock basis; it then builds the states in stacks of one
(T1, T2) shape, each within _STACK_BYTES, unnormalized and tall side first
(`joint_states`), takes each stack's spectra, and so each norm, in one
stacked SVD, and checks every state once, after the last stack.  Each joint
entry is one product of ulp-exact factors, so the norm is right to a few eps
relative however far the coefficients cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import SuperpositionCoeffs, _clamped, _unit_ray
from .coherent import DISTINCT_TOL, MAX_TRUNCATION, CoherentConfig, _truncations
from .coherent import check_amplitudes, fock_vectors
from .errors import ConsistencyError, DomainError, indexed

# A third Schmidt coefficient above this (squared) means the state escaped
# the 2x2 span it must live in.
_RANK_LIMIT = 1e-6

# A stack of states of one (T1, T2) shape holds as many as fit in this many
# bytes of joint matrices, and at least one (_stack_size); the matmul that
# builds it has factors of only k x T x 2.  That is 32 states at a random
# sweep's largest cutoffs, T(2) = 31 on both modes, 213 at its smallest, 12,
# 17 at the spot check's T <= 42, and one state, 0.17 MB, at the half-gap
# cap's T(8) = 145.  A fixed count would leave small shapes in many small
# stacks, each paying the stacked SVD's fixed cost.
_STACK_BYTES = 32 * 31 * 31 * 8


def _stack_size(t1: int, t2: int) -> int:
    """The states a T1 x T2 stack holds: as many as fit in _STACK_BYTES, one at least."""
    return max(1, _STACK_BYTES // (8 * t1 * t2))


@dataclass(frozen=True, eq=False)
class ProductStateVector:
    """Normalized joint Fock coefficients of the centered state, flattened
    row-major (m, n), with `shape` the two modes' cutoffs (T1, T2)."""

    coefficients: np.ndarray
    shape: tuple[int, int]
    norm_before_normalization: float

    @property
    def truncation(self) -> int:
        """The larger cutoff: a square matrix of this side holds the state."""
        return max(self.shape)

    def matrix(self) -> np.ndarray:
        """View of the coefficients as the T1 x T2 matrix."""
        return self.coefficients.reshape(self.shape)


def mode_cutoffs(half_gaps) -> np.ndarray:
    """The Fock cutoff of each mode: default_truncation at its |half-gap|
    rounded up to a quarter, ceil(4 |h|) / 4; broadcasts.

    The cutoff grows with the amplitude, and the Poisson tail it discards
    shrinks as the cutoff grows, so each mode loses less of its norm than at
    default_truncation(|h|): below 1e-16.  Quarter steps let states share a
    (T1, T2) shape: a sweep over half-gaps up to 2 takes 8 cutoffs a mode.
    """
    return _truncations(np.ceil(4.0 * np.abs(half_gaps)) * 0.25)


def _sector_weights(mu, lam, rho, nu) -> np.ndarray:
    """w_st = mu s t + lam s + rho t + nu of each state, a (2, 2, k) array
    indexed by the parities of m and n in s = (-1)^m and t = (-1)^n, by Sum2
    (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005): the four terms
    are exact, and a cascade of error-free TwoSums adds their rounding
    errors back, so each w_st is right to a few ulps of itself."""
    s = np.array([1.0, -1.0])[:, None, None]
    t = s.reshape(1, 2, 1)
    total, error = mu * s * t, 0.0
    for term in (lam * s, rho * t, nu):
        added = total + term
        virtual = added - total
        error = error + ((total - (added - virtual)) + (term - virtual))
        total = added
    return total + error


def joint_states(f_gamma, f_delta, w) -> np.ndarray:
    """mu|a,b> + lam|a,d> + rho|g,b> + nu|g,d> of each state in the joint Fock
    basis, unnormalized, mode 1 at a, g = -h1, h1 and mode 2 at b, d = -h2, h2,
    as a (k, T1, T2) array, or where T1 < T2 its transpose: the SVD is cheaper tall.

    `f_gamma` and `f_delta` hold the Fock rows of h1 and h2, one a state, and
    `w` their _sector_weights.  f(-h)_n = (-1)^n f(h)_n, so entry (m, n) is
    f_gamma,m f_delta,n w_st: one batched matmul of `left`, f_gamma times its
    row's w_s+ and w_s-, by `right`, f_delta's even and odd entries with
    exact zeros, each entry one product of ulp-exact factors plus an exact 0.
    """
    t1, t2 = f_gamma.shape[1], f_delta.shape[1]
    left = f_gamma[:, :, None] * w[np.arange(t1) % 2].transpose(2, 0, 1)
    right = f_delta[:, None, :] * (np.arange(t2) % 2 == [[0], [1]])
    if t1 < t2:
        return right.transpose(0, 2, 1) @ left.transpose(0, 2, 1)
    return left @ right


class _Call:
    """The work of one call that does not depend on the stack: its states
    checked, the sector weights of their coefficients on the unit ray, each
    mode's cutoff, and one Fock row per distinct half-gap of each cutoff."""

    def __init__(self, h1, h2, mu, lam, rho, nu, count=None):
        # The six columns of the first `count` states (or all), as rows.
        columns = np.array(np.broadcast_arrays(h1, h2, mu, lam, rho, nu),
                           dtype=float).reshape(6, -1)[:, :count]
        ordered = columns[:2].ravel(order="F")  # the half-gaps in input order
        check_amplitudes(ordered)
        # Above the bound every validator keeps (coherent.distinct), the norm
        # has a floor: the sign matrix is orthogonal, so the w_st^2 sum to
        # 4 |v|^2 >= 4 on the unit ray, and the norm^2, the sum of w_st^2
        # E_s(h1) E_t(h2) over the Fock rows' even and odd masses E_+-, is at
        # least about 4 h1^2 h2^2 >= 2.5e-37.
        vanishing = np.flatnonzero(abs(ordered) <= DISTINCT_TOL * 0.5)
        if len(vanishing):
            raise indexed(DomainError(
                f"|half-gap| = {abs(ordered[vanishing[0]])} must exceed "
                f"{DISTINCT_TOL * 0.5}: the pair is not distinct"), vanishing[0] // 2)
        # Each state is built from its coefficients on their unit ray
        # (analytic._unit_ray), which leaves the normalized state unchanged.
        *coefficients, self.exponent = _unit_ray(*columns[2:])
        self.weights = _sector_weights(*coefficients)
        # One Fock row per distinct half-gap, and one fock_vectors call per
        # cutoff, on its half-gaps.
        halves, rows = np.unique(columns[:2], return_inverse=True)
        cutoffs = mode_cutoffs(halves)
        local, self.tables = np.empty(len(halves), dtype=np.intp), {}
        for cutoff in dict.fromkeys(cutoffs.tolist()):
            members = np.flatnonzero(cutoffs == cutoff)
            local[members] = np.arange(len(members))
            self.tables[cutoff] = fock_vectors(halves[members], cutoff)
        rows = rows.reshape(2, -1)
        self.cutoffs, self.rows = cutoffs[rows], local[rows]

    def stacks(self):
        """(T1, T2, stack) for each stack of _stack_size(T1, T2) states of
        one shape, or the rest of them, whose indices ascend within it."""
        t1, t2 = self.cutoffs
        keys = t1 * (MAX_TRUNCATION + 1) + t2
        order = np.argsort(keys, kind="stable")
        return [(*shape, group[start:start + size])
                for group in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
                if len(group)
                for shape in [divmod(keys[group[0]].item(), MAX_TRUNCATION + 1)]
                for size in [_stack_size(*shape)]
                for start in range(0, len(group), size)]

    def states(self, t1, t2, stack):
        """The stack's states from joint_states, scaled by 2^-exponent."""
        r1, r2 = self.rows[:, stack]
        return joint_states(self.tables[t1][r1], self.tables[t2][r2],
                            self.weights[:, :, stack])


def _state_columns(config: CoherentConfig, coeffs: SuperpositionCoeffs):
    """The columns of one state: its half-gaps and coefficients."""
    return tuple([value] for value in (
        *config.half_gaps, coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu))


def build_state(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> ProductStateVector:
    """The one state as oracle_concurrences builds it, at the cutoffs
    mode_cutoffs gives its half-gaps."""
    call = _Call(*_state_columns(config, coeffs))
    t1, t2, stack = call.stacks()[0]
    psi = call.states(t1, t2, stack)[0]
    flat = (psi.T if t1 < t2 else psi).ravel()  # the (T1, T2) matrix, row-major
    norm = np.sqrt(flat @ flat)  # as np.linalg.norm takes it
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return ProductStateVector(flat / norm, (t1, t2),
                                  float(np.ldexp(norm, call.exponent[0])))


def schmidt_concurrences(svals: np.ndarray) -> np.ndarray:
    """2 sigma_1 sigma_2 of each descending Schmidt spectrum, a row of
    `svals` (its largest three values or more), checked.

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


def oracle_concurrences(h1, h2, mu, lam, rho, nu, expected=(), tol=math.inf,
                        failure=None) -> tuple[np.ndarray, np.ndarray]:
    """C and the norm before normalization of each state, as two arrays in
    input order.

    A state is given by its signed half-gaps h1 and h2 and its coefficients;
    the six columns broadcast.  States are grouped by the (T1, T2) cutoffs of
    their modes over the whole call, and each group is built in stacks of
    _stack_size(T1, T2), unnormalized and tall side first, one stacked SVD
    each, whose spectra give the norms too (LAPACK factors each matrix on its
    own, so the bits are a one-matrix SVD's).  After the last stack every state
    is checked: the half-gaps (before any is built: each finite, at most
    MAX_AMPLITUDE and above DISTINCT_TOL / 2 in magnitude, else DomainError),
    then schmidt_concurrences, and each C against `expected`, the closed
    form's C of each state, if given.  `failure` is the closed form's own
    indexed error, if any: no state from its index on is built.  The
    earliest state to fail, in input order, raises, indexed by it: its
    Schmidt rule's error, else a C further than `tol` from `expected` (NaN
    included), else `failure`.  So on one state the closed form's error
    comes before the oracle's.
    """
    call = _Call(h1, h2, mu, lam, rho, nu, None if failure is None else failure.index)
    count = len(call.exponent)
    norms, svals = np.empty(count), np.empty((count, 3))
    for t1, t2, stack in call.stacks():
        spectra = np.linalg.svd(call.states(t1, t2, stack), compute_uv=False)
        norm = np.sqrt((spectra[:, None, :] @ spectra[:, :, None]).ravel())
        norms[stack], svals[stack] = norm, spectra[:, :3] / norm[:, None]
    try:
        own, c = None, schmidt_concurrences(svals)
    except ConsistencyError as err:
        own, c = err, schmidt_concurrences(svals[:err.index])
    if len(expected):
        diff = abs(c - np.asarray(expected)[:len(c)])
        off = np.flatnonzero(~(diff <= tol))  # as a negation, so NaN fails
        if len(off):
            raise indexed(ConsistencyError(
                f"oracle disagrees with the closed form by {diff[off[0]]:.3e}"), off[0])
    if own or failure:
        raise own or failure
    with np.errstate(over="ignore"):  # a norm beyond the float range is inf
        return c, np.ldexp(norms, call.exponent)


def oracle_concurrence(config: CoherentConfig, coeffs: SuperpositionCoeffs) -> float:
    """End-to-end brute-force concurrence of the assembled Fock-space state."""
    return float(oracle_concurrences(*_state_columns(config, coeffs))[0][0])
