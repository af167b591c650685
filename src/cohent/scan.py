"""Parameter-space scanning: locate near-maximal states and test the theorem
on them.

A grid scan sweeps (lam, rho, nu) boxes at fixed overlaps x and keeps every
point whose concurrence clears a threshold.  The maximal states lie on two
lines, over rho = -lam - 2x and rho = lam at each x, so the sweep bounds only
the (lam, rho) rows inside a closed-form rho window around each of those
(analytic.rho_windows), skips each of those whose exact maximum over nu
(analytic.max_concurrence_over_nu) misses the threshold, and along every
other row evaluates only the closed-form nu windows, one on each side of
nu = lam rho, where the concurrence can clear it (analytic.nu_windows),
a chunk of bounded rows at a time.

The hits are tested as the grid found them.  With P_a v and P_b v the
family terms of v = (1, lam, rho, nu) (classify._family_terms), the theorem
says

    (1 - x) min_f |P_f v|^2  <=  N^2 (1 - C)  <=  (1 + x) min_f |P_f v|^2

(tests/test_symbolic.py proves it), so every hit must satisfy both sides
with its own C, and the lower side names the one family a hit can be near.
A seeded random subsample is re-checked against the brute-force Fock
oracle.  run_scan runs the three stages and builds the scan report, the one
dict that `cohent scan` prints as JSON or as text.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .analytic import SuperpositionCoeffs, concurrence_and_norm_sq, nu_windows
from .analytic import max_concurrence_over_nu, require_open_unit_interval, rho_windows
from .analytic import _at, _norm_sq, _unit_ray
from .classify import _family_terms, family_checks
from .errors import ConsistencyError, DegenerateStateError, DomainError, GridSizeError
from .oracle import oracle_concurrences

MAX_GRID_POINTS = 100_000_000

# The largest 1 + max|lam| + max|rho| + max|nu| of a box.  The grid's window
# arithmetic (analytic._row_terms, rho_windows, nu_windows) is not taken on the
# unit ray, and past this box t^2, lam rho and nu_windows' discriminant overflow.
_MAX_BOX = 2.0 ** 500

# refine takes hits with C >= REFINE_FLOOR, and a point passes its family
# test (family_checks) at REFINE_TARGET.
REFINE_FLOOR = 0.9
REFINE_TARGET = 1e-12

# The oracle spot check fails on a difference in C above this.
SPOT_CHECK_MAX_DIFF = 1e-8

# verify_disjoint_classes compares N^2 (1 - C) with (1 -+ x) |P_f v|^2 on
# the unit ray of v (analytic._unit_ray), so max|v| is in [1, 2); with
# S = |mu| + |lam| + |rho| + |nu|, N <= 2 S and |mu nu| + |lam rho| <= S^2 / 4,
# each side errs by at most
#   - the grid's C, which errs by 8 eps C (cancel + S / N + 1)
#     (tests/test_edges.py), times N^2: 8 eps (2 n^2 (|mu nu| + |lam rho|)
#     + C S N + C N^2) <= 52 eps S^2;
#   - N^2, whose four amplitudes each err by 4 eps S: 8 eps S (2 N) plus
#     3 eps N^2, <= 44 eps S^2, and the roundings of 1 - C and of the
#     product, <= 8 eps S^2;
#   - (1 -+ x) |P_f v|^2: each term errs by 3 eps times its magnitude sum
#     T_i, with T_1 + T_2 <= 2 S, so |P_f v|^2 errs by 9 eps (T_1^2 + T_2^2)
#     <= 36 eps S^2; times 1 -+ x <= 2, plus that product's roundings,
#     <= 88 eps S^2.
# A hit is out of the bound only beyond the sum, _BAND S^2.
_BAND = 192.0 * sys.float_info.epsilon

# The family column of the CSV: verify's family codes index this tuple.
FAMILIES = ("a", "b", "ambiguous")

# grid_scan takes the rho windows of this many (lam, x) pairs at once, bounds
# about this many of the rows inside them (or one longer window) at once and
# takes the nu windows of that chunk's kept rows, and evaluates about this
# many nu window points (or one longer window) at once: this fixes its peak
# memory.  Each block or chunk costs a fixed few dozen numpy calls, which at
# 1 << 11 took most of a 241^3 scan's time.
_BLOCK = 1 << 13

# grid_scan skips a row whose exact maximum over nu is this far below the
# threshold, and evaluates a kept row only where its exact C reaches the
# threshold minus this.  The grid's C errs by about eps C ((|nu| + |lam rho|)
# / |nu - lam rho| + S / N), S the coefficient sum (tests/test_edges.py):
# near the families, with coefficients in [-10, 10] and x up to 1 - 1e-6, at
# most 3e-11 against 50-digit mpmath, so the margin is over 10^4 times that.
_PRUNE_MARGIN = 1e-6


@dataclass(frozen=True, eq=False)
class ScanHits:
    """Scan hits as equal-length numpy columns, the one form a hit takes.

    The pipeline carries hits in this form from the grid to the CSV, so each
    stage runs as a few broadcast steps instead of a Python loop per hit.
    A hit's one classification is its family, which verify_disjoint_classes
    decides; the CSV writes it beside the hit's coordinates and C.
    """

    lam: np.ndarray
    rho: np.ndarray
    nu: np.ndarray
    x: np.ndarray
    concurrence: np.ndarray

    def __len__(self) -> int:
        return len(self.lam)


@dataclass(frozen=True)
class ScanConfig:
    """Grid specification: (min, max, steps) per coefficient plus the x list."""

    lam_range: tuple[float, float, int]
    rho_range: tuple[float, float, int]
    nu_range: tuple[float, float, int]
    x_values: tuple[float, ...]
    concurrence_threshold: float = 0.999
    seed: int = 0
    oracle_fraction: float = 0.01

    def __post_init__(self):
        for name in ("lam_range", "rho_range", "nu_range"):
            lo, hi, steps = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise DomainError(f"{name}: need finite min <= max, got ({lo}, {hi})")
            if steps < 1 or (steps == 1 and lo != hi):
                raise DomainError(
                    f"{name}: steps must be >= 2, or exactly 1 with min == max"
                )
        size = 1.0 + sum(max(abs(lo), abs(hi)) for lo, hi, _ in
                         (self.lam_range, self.rho_range, self.nu_range))
        if size > _MAX_BOX:
            raise DomainError(
                f"coefficient box too large: 1 + max|lam| + max|rho| + max|nu| "
                f"= {size:.3e} exceeds 2^500, where the grid's rho and nu window "
                "arithmetic overflows"
            )
        object.__setattr__(self, "x_values", tuple(float(x) for x in self.x_values))
        if not self.x_values:
            raise DomainError("x_values must not be empty")
        for x in self.x_values:
            if not 1e-6 <= x <= 1.0 - 1e-6:
                raise DomainError(
                    f"x value {x} outside [1e-6, 1 - 1e-6]; overlaps that close to "
                    "0 or 1 make the basis change numerically singular"
                )
        if not 0.0 < self.concurrence_threshold <= 1.0:
            raise DomainError(
                f"concurrence_threshold must lie in (0, 1], got "
                f"{self.concurrence_threshold}"
            )
        if not 0.0 <= self.oracle_fraction <= 1.0:
            raise DomainError(
                f"oracle_fraction must lie in [0, 1], got {self.oracle_fraction}"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        total = self.total_points()
        if total > MAX_GRID_POINTS:
            raise GridSizeError(
                f"grid has {total} points, above the {MAX_GRID_POINTS} limit"
            )

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            np.linspace(lo, hi, steps)
            for lo, hi, steps in (self.lam_range, self.rho_range, self.nu_range)
        )

    def total_points(self) -> int:
        return (
            self.lam_range[2]
            * self.rho_range[2]
            * self.nu_range[2]
            * len(self.x_values)
        )


@dataclass(frozen=True)
class DisjointnessReport:
    """Outcome of testing every hit against the two-sided bound.

    `n_maximal` counts the hits tested; each violation is a dict of its
    reason, lambda, rho, nu, x and concurrence.  `family` holds each hit's
    FAMILIES code, and `worst_ratio` is the least
    (N^2 (1 - C) + band) / ((1 - x) min_f |P_f v|^2), at least 1 where the
    lower side holds, over the hits off both families, those whose
    (1 - x) min_f |P_f v|^2 exceeds the band; None if there are none.
    """

    n_maximal: int
    n_class_a: int
    n_class_b: int
    n_ambiguous: int
    worst_ratio: float | None
    violations: list[dict]
    family: np.ndarray = field(compare=False, repr=False)


def _window_points(axis, lo, hi):
    """The grid points of `axis` inside each row's two windows, widened by
    one grid point each way, in grid order: yields (row, axis index) columns
    of about _BLOCK points (or one longer window) at a time.

    `lo` and `hi` have one row per window pair and one column per side, below
    first, as analytic.rho_windows and analytic.nu_windows return them.
    """
    inside = lo <= hi
    first = np.where(inside, np.maximum(np.searchsorted(axis, lo) - 1, 0), 0)
    stop = np.where(inside, np.minimum(
        np.searchsorted(axis, hi, side="right") + 1, len(axis)), 0)
    # The side above starts where the side below stops, so no point repeats.
    first[:, 1] = np.maximum(first[:, 1], stop[:, 0])
    first, sizes = first.ravel(), np.maximum(stop - first, 0).ravel()
    cuts = np.searchsorted(np.cumsum(sizes), np.arange(_BLOCK, sizes.sum(), _BLOCK),
                           side="right").tolist()
    for begin, end in zip([0, *cuts], [*cuts, len(sizes)]):
        size = sizes[begin:end]
        window = np.repeat(np.arange(begin, end), size)
        if len(window):
            offset = np.arange(len(window)) - np.repeat(np.cumsum(size) - size, size)
            yield window // 2, first[window] + offset


def grid_scan(config: ScanConfig) -> tuple[ScanHits, int, int, int]:
    """All grid points whose concurrence reaches the threshold, in grid order,
    then the number of points evaluated, of (lam, rho, x) rows bounded and of
    rows kept.

    Grid order is row-major over (x, lam, rho, nu).  A (lam, rho) pair is one
    row along the nu axis; rows whose exact maximum over nu lies more than
    _PRUNE_MARGIN below the threshold are skipped.  That maximum can reach
    the lowered threshold only inside two closed-form rho windows per
    (lam, x) (analytic.rho_windows), so only the grid rows inside them,
    widened by one grid point, are bounded, _BLOCK (lam, x) pairs at a time,
    x major.  Along each kept row the concurrence reaches it only inside two
    closed-form nu windows (analytic.nu_windows), one on each side of
    nu = lam rho, so only the grid points inside them, widened by one grid
    point, are evaluated.  Each chunk of bounded rows is windowed and
    evaluated as it comes, across lam values and x values, with x as a column.
    """
    lams, rhos, nus = config.axes()
    xs = np.array(config.x_values)
    threshold = config.concurrence_threshold
    floor = threshold - _PRUNE_MARGIN
    parts = []
    evaluated = rows_bounded = rows_kept = 0
    pairs = len(xs) * len(lams)
    for start in range(0, pairs, _BLOCK):
        pair = np.arange(start, min(start + _BLOCK, pairs))
        lam_pairs, x_pairs = lams[pair % len(lams)], xs[pair // len(lams)]
        windows = rho_windows(lam_pairs, x_pairs, floor)
        for row, rho_index in _window_points(rhos, *windows):
            rows_bounded += len(row)
            lam, rho, x = lam_pairs[row], rhos[rho_index], x_pairs[row]
            # Written as a negation so a NaN or infinite bound keeps its row.
            keep = np.flatnonzero(~(max_concurrence_over_nu(lam, rho, x) < floor))
            lam, rho, x = lam[keep], rho[keep], x[keep]
            rows_kept += len(keep)
            windows = nu_windows(lam, rho, x[:, None], floor)
            for point, nu_index in _window_points(nus, *windows):
                nu, p = nus[nu_index], x[point]
                evaluated += len(nu)
                n = np.sqrt((1.0 - p) * (1.0 + p))
                try:
                    c, _ = concurrence_and_norm_sq(1.0, lam[point], rho[point], nu,
                                                   p, p, n, n)
                except (ConsistencyError, DegenerateStateError) as err:
                    i, row = err.index, point[err.index]
                    raise type(err)(f"grid_scan: {err} at "
                                    f"{_at(lam[row], rho[row], nu[i], x[row])}") from err
                hit = np.flatnonzero(c >= threshold)
                at = point[hit]
                parts.append((lam[at], rho[at], nu[hit], x[at], c[hit]))
    columns = ([np.concatenate(column) for column in zip(*parts)] if parts
               else [np.empty(0) for _ in range(5)])
    return ScanHits(*columns), evaluated, rows_bounded, rows_kept


def refine(lam: float, rho: float, nu: float, x: float, concurrence: float):
    """Project a near-maximal hit onto the nearest point of its family;
    returns (lam, rho, nu, concurrence, converged).  No scan stage calls it.

    Both terms of each of the two sums of squares whose smaller is
    N^2 (1 - C) are affine in (lam, rho, nu) at fixed x, so one least-squares
    step lands on that sum's zero line: class (a) for nu >= lam rho, class
    (b) below.  A point that family_checks passes at REFINE_TARGET is not
    moved; a projection that it does not pass leaves the old point, flagged
    unconverged.
    """
    # Written as a negation so a NaN concurrence is refused.
    if not concurrence >= REFINE_FLOOR:
        raise DomainError(
            f"refine expects a near-maximal hit (C >= {REFINE_FLOOR}), "
            f"got C = {concurrence}"
        )
    SuperpositionCoeffs(1.0, lam, rho, nu)  # rejects non-finite coefficients
    n = math.sqrt((1.0 - require_open_unit_interval(x)) * (1.0 + x))

    def on_a_family(lam, rho, nu):
        return any(family_checks(1.0, lam, rho, nu, x, x, n, n, REFINE_TARGET))

    new = (lam, rho, nu)
    # The step never crosses the branch boundary: on the class (a) line
    # nu - lam rho = 1 - lam rho >= 1 - x^2 > 0, and on the class (b) line
    # nu - lam rho = -(t + x)^2 - (1 - x^2) < 0.
    if not on_a_family(lam, rho, nu):
        if nu >= lam * rho:
            s = (lam + rho + 2.0 * x) / 2.0
            new = (lam - s, rho - s, 1.0)
        else:
            t = (lam + rho - 2.0 * x * (nu + 1.0)) / (2.0 + 4.0 * x * x)
            new = (t, t, -1.0 - 2.0 * t * x)
    if not on_a_family(*new):
        return lam, rho, nu, concurrence, False
    try:
        c, _ = concurrence_and_norm_sq(1.0, *new, x, x, n, n)
    except (ConsistencyError, DegenerateStateError) as err:
        raise type(err)(f"refine: recomputed {err} at {_at(*new, x)}") from err
    return (*new, c.item(), True)


def verify_disjoint_classes(hits: ScanHits) -> DisjointnessReport:
    """Test every hit, with its own C, against the two-sided bound (module
    docstring), within the rounding band _BAND S^2.

    A hit is class (a) when (1 - x) |P_b v|^2 > N^2 (1 - C) + band, so that
    it cannot be near class (b); class (b) in the mirror case; and ambiguous,
    within reach of both, otherwise.
    """
    x = hits.x
    n = np.sqrt((1.0 - x) * (1.0 + x))
    *v, _ = _unit_ray(1.0, hits.lam, hits.rho, hits.nu)
    (a1, a2), (b1, b2), _ = _family_terms(*v, x, x, n, n)
    to_a, to_b = a1 * a1 + a2 * a2, b1 * b1 + b2 * b2
    size = abs(v[0]) + abs(v[1]) + abs(v[2]) + abs(v[3])
    band = _BAND * size * size
    residual = _norm_sq(*v, x, x, n, n) * (1.0 - hits.concurrence)
    ceiling = residual + band
    nearest = np.minimum(to_a, to_b)
    lower = (1.0 - x) * nearest
    # Written as negations so a NaN concurrence is a violation.
    below = ~(lower <= ceiling)
    failed = below | ~(residual <= (1.0 + x) * nearest + band)
    family = np.select([(1.0 - x) * to_b > ceiling, (1.0 - x) * to_a > ceiling],
                       [0, 1], 2)
    counts = np.bincount(family, minlength=3).tolist()
    # Within the band the lower side cannot fail, and a ratio to a lower
    # bound near zero would overflow.
    measured = np.flatnonzero(lower > band)
    reasons = np.where(below[failed], "N^2 (1 - C) below (1 - x) min_f |P_f v|^2",
                       "N^2 (1 - C) above (1 + x) min_f |P_f v|^2")
    violations = [dict(zip(("reason", "lambda", "rho", "nu", "x", "concurrence"), row))
                  for row in zip(reasons.tolist(), *(column[failed].tolist() for column in (
                      hits.lam, hits.rho, hits.nu, hits.x, hits.concurrence)))]
    return DisjointnessReport(
        n_maximal=len(hits),
        n_class_a=counts[0],
        n_class_b=counts[1],
        n_ambiguous=counts[2],
        worst_ratio=(float((ceiling[measured] / lower[measured]).min())
                     if len(measured) else None),
        violations=violations,
        family=family,
    )


def oracle_spot_check(
    hits: ScanHits, *, fraction: float, seed: int
) -> tuple[int, float]:
    """Re-check a seeded random subsample of hits against the Fock oracle.

    A hit at the overlap x is the state whose two modes both have the
    half-gap h = sqrt(-2 ln x) / 2, taken once per distinct x; all the
    subsample goes to one oracle_concurrences call.

    Returns (checked count, worst |analytic - oracle|); raises
    ConsistencyError if any difference exceeds SPOT_CHECK_MAX_DIFF.  The
    error is the earliest record's to fail, a disagreement or the oracle's
    own (oracle_concurrences), starts with "oracle spot check" and names
    the point.
    """
    if not len(hits) or fraction <= 0.0:
        return 0, 0.0
    rng = np.random.default_rng(seed)
    count = min(max(1, round(fraction * len(hits))), len(hits))
    indices = np.sort(rng.choice(len(hits), size=count, replace=False))
    lam, rho, nu, x, c = (column[indices] for column in (
        hits.lam, hits.rho, hits.nu, hits.x, hits.concurrence))
    # The overlap exp(-(2h)^2 / 2) is x up to rounding: exact at 0.2, 0.5, 0.8
    # and 1 - 1e-6, 1.27e-21 low at 1e-6 and 4.2e-17 low at 0.123456789,
    # which moves the oracle's C far less than SPOT_CHECK_MAX_DIFF.
    half_gap = {value: math.sqrt(-2.0 * math.log(value)) * 0.5 for value in set(x.tolist())}
    h = np.array([half_gap[value] for value in x.tolist()])
    try:
        found, _ = oracle_concurrences(h, h, 1.0, lam, rho, nu, c, SPOT_CHECK_MAX_DIFF)
    except (ConsistencyError, DegenerateStateError) as err:
        i = err.index
        raise type(err)(
            f"oracle spot check: {err} at {_at(lam[i], rho[i], nu[i], x[i])}"
        ) from err
    return count, abs(found - c).max().item()


def run_scan(config: ScanConfig) -> tuple[ScanHits, np.ndarray, dict]:
    """Grid scan, verification of the grid's hits against the two-sided
    bound, and the seeded oracle spot-check, in one deterministic pipeline.

    Returns the hits, verify's family code of each, and the scan report:
    the grid's counts, verify's, the spot check's, and every violation.
    """
    hits, evaluated, rows_bounded, rows_kept = grid_scan(config)
    verified = verify_disjoint_classes(hits)
    checked, worst = oracle_spot_check(
        hits, fraction=config.oracle_fraction, seed=config.seed
    )
    return hits, verified.family, {
        "grid_points": config.total_points(),
        "grid_evaluated": evaluated,
        "grid_rows_bounded": rows_bounded,
        "grid_rows_kept": rows_kept,
        "hits": len(hits),
        "class_a": verified.n_class_a,
        "class_b": verified.n_class_b,
        "ambiguous": verified.n_ambiguous,
        "worst_lower_bound_ratio": verified.worst_ratio,
        "oracle_checked": checked,
        "max_oracle_diff": worst,
        "disjoint": not verified.violations,
        "violations": verified.violations,
    }
