"""Coherent-state primitives: overlaps and truncated Fock expansions.

Everything here works with real amplitudes only.  Two real coherent states
|a1> and |a2> overlap by exp(-(a1-a2)^2/2), which is strictly inside (0, 1)
whenever the amplitudes differ, so a pair of distinct states always forms a
linearly independent (but nonorthogonal) qubit basis.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TruncationError

MAX_AMPLITUDE = 8.0
DISTINCT_TOL = 1e-9

# Keeps the oracle's joint vector (truncation^2 entries) desk-scale, and each
# cached table below at most 2 KB.
MAX_TRUNCATION = 256

# Construction rejects a truncation whose discarded tail mass reaches this.
TAIL_MASS_LIMIT = 1e-10


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be a finite real, got {value!r}")
    return value


def _gap_terms(gaps: list) -> tuple[np.ndarray, np.ndarray]:
    """exp(-gap^2 / 2) and -expm1(-gap^2) of each of a list of gaps, as two
    arrays, through math.exp, math.expm1 and Python's float power: np.exp
    differs from math.exp by an ulp on about 5% of inputs, and gap ** 2 from
    gap * gap on about 0.1%."""
    squares = np.array(list(map(pow, gaps, itertools.repeat(2))))
    return (np.fromiter(map(math.exp, (-0.5 * squares).tolist()), float, len(gaps)),
            -np.fromiter(map(math.expm1, (-squares).tolist()), float, len(gaps)))


def overlap_columns(a1, a2) -> tuple[np.ndarray, np.ndarray]:
    """The overlap <a1|a2> = exp(-(a1 - a2)^2 / 2) and its complement
    1 - <a1|a2>^2, without cancellation for nearby amplitudes, of each pair
    of two columns of finite amplitudes, as two arrays (_gap_terms)."""
    return _gap_terms(np.subtract(a1, a2, dtype=float).ravel().tolist())


def default_truncation(max_amp: float) -> int:
    """Fock cutoff ceil(a^2 + 9a + 9) for amplitudes up to a = max_amp.

    The mass it discards from |a> is the Poisson tail P(N >= cutoff) with
    mean a^2, below 1e-16 (under double rounding) for every a <= 8: on a
    0.001 grid at 40 digits the worst is 1.2e-17, at a ~ 2.446.  A constant
    term of 8 would leave 9.7e-17 at a ~ 1.603.
    """
    max_amp = _require_finite("max_amp", max_amp)
    if max_amp < 0:
        raise DomainError(f"max_amp must be >= 0, got {max_amp}")
    return int(_truncations(max_amp))


def _truncations(max_amps):
    """default_truncation of each finite, nonnegative amplitude; broadcasts."""
    return np.ceil(max_amps * max_amps + 9.0 * max_amps + 9.0).astype(np.int64)


def half_gaps(alpha, beta, gamma, delta):
    """The signed half-gaps h1 = (gamma - alpha) * 0.5 and
    h2 = (delta - beta) * 0.5; broadcasts.  Halving is exact, so the gaps
    are the ones overlap_columns squares."""
    return (gamma - alpha) * 0.5, (delta - beta) * 0.5


def distinct(a1, a2):
    """Whether two amplitudes differ by more than DISTINCT_TOL; broadcasts."""
    return abs(a1 - a2) > DISTINCT_TOL


@dataclass(frozen=True)
class CoherentConfig:
    """Four real amplitudes (alpha, beta, gamma, delta) of the product basis.

    |alpha>, |gamma> span system 1 and |beta>, |delta> span system 2; each
    pair must be distinct so the spans are two-dimensional.  Below the
    distinctness tolerance the basis change becomes numerically singular
    (sqrt(1 - p^2) underflows), so near-equal pairs are rejected outright.
    The entanglement depends only on the gaps gamma - alpha and delta - beta,
    so MAX_AMPLITUDE bounds their halves (half_gap), not the amplitudes.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        # Written as a negation so a gap that overflows to inf fails.
        if not self.half_gap <= MAX_AMPLITUDE:
            raise DomainError(
                f"half-gap max(|gamma - alpha|, |delta - beta|) / 2 = {self.half_gap} "
                f"exceeds the supported bound {MAX_AMPLITUDE}"
            )
        if not distinct(self.alpha, self.gamma):
            raise DomainError(
                f"alpha and gamma must differ by more than {DISTINCT_TOL} "
                f"(got {self.alpha} and {self.gamma})"
            )
        if not distinct(self.beta, self.delta):
            raise DomainError(
                f"beta and delta must differ by more than {DISTINCT_TOL} "
                f"(got {self.beta} and {self.delta})"
            )

    @property
    def half_gaps(self) -> tuple[float, float]:
        """The signed half-gaps (h1, h2) of the two modes (see half_gaps)."""
        return half_gaps(self.alpha, self.beta, self.gamma, self.delta)

    @property
    def half_gap(self) -> float:
        """The larger |half-gap|, max(|gamma - alpha|, |delta - beta|) * 0.5:
        the largest |amplitude| once each mode is centered on its pair's
        midpoint."""
        return max(map(abs, self.half_gaps))


@dataclass(frozen=True)
class OverlapPair:
    """The two basis overlaps p1 = <alpha|gamma> and p2 = <delta|beta>.

    ``c1`` and ``c2`` hold 1 - p^2; when built from a CoherentConfig they are
    computed via expm1 so sqrt(1 - p^2) stays accurate even for p very close
    to 1.  ``n1`` and ``n2`` are the normalizers sqrt(1 - p^2) of the
    orthogonalized system-1 and system-2 basis vectors.
    """

    p1: float
    p2: float
    c1: float = field(default=None, repr=False)  # type: ignore[assignment]
    c2: float = field(default=None, repr=False)  # type: ignore[assignment]
    n1: float = field(init=False, repr=False, compare=False)
    n2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, complement in (("p1", self.c1), ("p2", self.c2)):
            value = _require_finite(name, getattr(self, name))
            object.__setattr__(self, name, value)
            # Below a gap of ~1.05e-8, exp(-gap^2/2) rounds to 1; a positive
            # complement (from expm1) still places p below 1.
            if not (0.0 < value < 1.0
                    or value == 1.0 and complement is not None and complement > 0.0):
                raise DomainError(f"{name} must lie strictly inside (0, 1), got {value}")
        if self.c1 is None:
            object.__setattr__(self, "c1", (1.0 - self.p1) * (1.0 + self.p1))
        if self.c2 is None:
            object.__setattr__(self, "c2", (1.0 - self.p2) * (1.0 + self.p2))
        object.__setattr__(self, "n1", math.sqrt(self.c1))
        object.__setattr__(self, "n2", math.sqrt(self.c2))

    @classmethod
    def from_config(cls, config: CoherentConfig) -> "OverlapPair":
        (p1, p2), (c1, c2) = (column.tolist() for column in overlap_columns(
            [config.alpha, config.delta], [config.gamma, config.beta]))
        return cls(p1=p1, p2=p2, c1=c1, c2=c2)


# The oracle's cutoffs follow each mode's half-gap in quarter steps: a random
# sweep over amplitudes up to 2 uses at most 8 distinct truncations (12 to
# 31), and a spot check at overlaps down to 1e-6 at most 11 (12 to 42).
@functools.lru_cache(maxsize=64)
def _inv_sqrt_n(truncation: int) -> np.ndarray:
    """Read-only [1/sqrt(1), ..., 1/sqrt(truncation - 1)], shared by callers."""
    table = 1.0 / np.sqrt(np.arange(1.0, truncation))
    table.flags.writeable = False
    return table


def check_amplitudes(values: np.ndarray) -> None:
    """Raise DomainError naming the first of `values` that is not finite or
    whose magnitude exceeds MAX_AMPLITUDE."""
    # Written as a negation so a NaN amplitude fails.
    rejected = np.flatnonzero(~(np.abs(values) <= MAX_AMPLITUDE))
    if rejected.size:
        a = _require_finite("a", values[rejected[0]])
        raise DomainError(f"|a| = {abs(a)} exceeds the supported bound {MAX_AMPLITUDE}")


def fock_vectors(amplitudes, truncation: int) -> np.ndarray:
    """Number-state coefficients e^(-a^2/2) a^n / sqrt(n!) for n < truncation,
    one row per amplitude a.

    Each row is the cumulative product of the factors
    [e^(-a^2/2), a/sqrt(1), ..., a/sqrt(truncation - 1)], the recurrence
    c_{n+1} = c_n * a / sqrt(n+1), which stays stable for cutoffs in the
    hundreds; it is then renormalized.  Raises TruncationError, naming the
    first such amplitude, when a row's discarded tail mass is not negligible.

    Every amplitude is validated, and so is the truncation (from 1 to
    MAX_TRUNCATION); the result is a fresh, writable array.
    """
    values = np.array(amplitudes, dtype=float)
    check_amplitudes(values)
    truncation = int(truncation)
    if truncation < 1:
        raise DomainError(f"truncation must be >= 1, got {truncation}")
    if truncation > MAX_TRUNCATION:
        raise DomainError(
            f"truncation {truncation} exceeds the supported cap {MAX_TRUNCATION}"
        )
    factors = np.empty((len(values), truncation))
    # np.exp's last bit may differ from math.exp's; the row is renormalized.
    factors[:, 0] = np.exp(-0.5 * values * values)
    np.multiply(values[:, None], _inv_sqrt_n(truncation), out=factors[:, 1:])
    coeffs = factors.cumprod(axis=1)

    # Each row's dot product with itself, in one stacked matmul: the bits
    # np.dot gives a single vector.
    captured = (coeffs[:, None, :] @ coeffs[:, :, None]).ravel()
    short = np.flatnonzero(1.0 - captured >= TAIL_MASS_LIMIT)
    if short.size:
        a, kept = values[short[0]].item(), captured[short[0]].item()
        raise TruncationError(
            f"truncation {truncation} keeps only {kept:.12f} of the norm for "
            f"amplitude {a} (tail mass {1.0 - kept:.3e}); need at least "
            f"{default_truncation(abs(a))}",
            tail_mass=1.0 - kept,
        )
    coeffs /= np.sqrt(captured)[:, None]
    return coeffs


def fock_vector(a: float, truncation: int) -> np.ndarray:
    """The expansion of the one amplitude a: row 0 of fock_vectors([a], ...)."""
    return fock_vectors([a], truncation)[0]
