"""Faults injected into the oracle's per-stack steps, for the tests that
check which state a failure names.

The oracle builds and checks states in stacks of one Fock cutoff, in no
fixed order across stacks, so a fault finds its state by its values, not by
counting calls.
"""

import numpy as np

from cohent import oracle
from cohent.errors import indexed


def failing_build(lam, error, calls=None):
    """An oracle.build_states that fails, as a degenerate state fails it, the
    first state of its stack whose lambda is one of `lam`; `calls`, if
    given, collects the cutoff of every call."""
    real = oracle.build_states

    def patched(h1, h2, mu, lam_column, rho, nu, truncation):
        if calls is not None:
            calls.append(truncation)
        states, norms, failure = real(h1, h2, mu, lam_column, rho, nu, truncation)
        hit = np.flatnonzero(np.isin(np.asarray(lam_column)[:len(norms)], lam))
        if not hit.size:
            return states, norms, failure
        at = hit[0]
        return states[:at], norms[:at], indexed(error("check failed"), at)

    return patched


def failing_schmidt(spectrum, error):
    """An oracle.schmidt_concurrences that fails the first row of its stack
    equal to `spectrum`, the Schmidt spectrum of the state to fail."""
    real = oracle.schmidt_concurrences

    def patched(svals):
        c = real(svals)
        if svals.shape[1] == len(spectrum):
            hit = np.flatnonzero((svals == spectrum).all(axis=1))
            if hit.size:
                raise indexed(error("check failed"), hit[0])
        return c

    return patched


def spectrum_of(config, coeffs):
    """The Schmidt spectrum of one state as the oracle builds it."""
    state = oracle.build_state(config, coeffs)
    return np.linalg.svd(state.matrix(), compute_uv=False)
