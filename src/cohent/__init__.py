"""Entanglement of two-qubit states built from real coherent amplitudes.

The package root re-exports the names of the README's Library example; every
other name is imported from its own module (coherent, analytic, classify,
oracle, scan, statespec, catalog, errors).
"""

from .analytic import SuperpositionCoeffs, concurrence
from .classify import classify
from .coherent import CoherentConfig, OverlapPair
from .oracle import oracle_concurrence

__version__ = "0.1.0"

__all__ = [
    "SuperpositionCoeffs", "OverlapPair", "CoherentConfig",
    "concurrence", "classify", "oracle_concurrence", "__version__",
]
