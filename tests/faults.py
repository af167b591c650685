"""Faults injected into the oracle's once-per-call checks, for the tests that
check which state a failure names.

The oracle builds states in stacks of one (T1, T2) shape, in no fixed order
across stacks, and checks them once per call, so a fault finds its state by
its values, not by counting calls or positions.
"""

import numpy as np

from cohent import oracle
from cohent.errors import indexed


def failing_norms(norms, error):
    """An oracle.degenerate_norms that fails, as a degenerate state fails it,
    the first state whose norm is one of `norms` (norm_of), unless a truly
    degenerate state comes before it."""
    real = oracle.degenerate_norms

    def patched(values, size):
        failure = real(values, size)
        hit = np.flatnonzero(np.isin(values, norms))
        if hit.size and (failure is None or hit[0] < failure.index):
            return indexed(error("check failed"), hit[0])
        return failure

    return patched


def failing_schmidt(spectrum, error):
    """An oracle.schmidt_concurrences that fails the first row of its call
    whose three largest values are those of `spectrum`, the Schmidt spectrum
    of the state to fail."""
    real = oracle.schmidt_concurrences

    def patched(svals):
        c = real(svals)
        hit = np.flatnonzero((svals == spectrum[:3]).all(axis=1))
        if hit.size:
            raise indexed(error("check failed"), hit[0])
        return c

    return patched


def spectrum_of(config, coeffs):
    """The Schmidt spectrum of one state as the oracle builds it."""
    state = oracle.build_state(config, coeffs)
    return np.linalg.svd(state.matrix(), compute_uv=False)


def norm_of(config, coeffs):
    """The norm of one state as the oracle builds it, before normalization,
    from its coefficients on their unit ray: the value degenerate_norms sees."""
    call = oracle._Call(*oracle._state_columns(config, coeffs))
    return call.states(*call.stacks()[0])[1][0]
