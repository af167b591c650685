"""Faults injected into the oracle's once-per-call checks, for the tests that
check which state a failure names.

The oracle builds states in stacks of one (T1, T2) shape, in no fixed order
across stacks, and checks them once per call, so a fault finds its state by
its values, not by counting calls or positions.
"""

import numpy as np

from cohent import oracle
from cohent.errors import indexed


def failing_schmidt(spectrum, error):
    """An oracle.schmidt_concurrences that fails the first row of its call
    whose three largest values are those of `spectrum`, the Schmidt spectrum
    of the state to fail, unless a row before it fails first.  So faults
    patched over each other fail the earliest of their states."""
    real = oracle.schmidt_concurrences

    def patched(svals):
        hit = np.flatnonzero((svals == spectrum[:3]).all(axis=1))
        c = real(svals[:hit[0]] if hit.size else svals)
        if hit.size:
            raise indexed(error("check failed"), hit[0])
        return c

    return patched


def spectrum_of(config, coeffs):
    """The Schmidt spectrum of one state as the oracle hands it to
    schmidt_concurrences: the singular values of its unnormalized joint
    matrix, taken tall side first, over the norm they give."""
    call = oracle._Call(*oracle._state_columns(config, coeffs))
    spectrum = np.linalg.svd(call.states(*call.stacks()[0])[0], compute_uv=False)
    return spectrum / np.sqrt(spectrum @ spectrum)
