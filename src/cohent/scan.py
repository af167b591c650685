"""Parameter-space scanning: locate near-maximal states and pin them down.

A grid scan sweeps (lam, rho, nu) boxes at fixed overlaps x, keeps every
point whose concurrence clears a threshold, then projects each hit onto the
zero line of its maximality residual.  The maximal states lie on two lines,
over rho = -lam - 2x and rho = lam at each x, so the sweep bounds only the
(lam, rho) rows inside a closed-form rho window around each of those
(analytic.rho_windows), skips each of those whose exact maximum over nu
(analytic.max_concurrence_over_nu) misses the threshold, and along every
other row evaluates only the closed-form nu windows, one on each side of
nu = lam rho, where the concurrence can clear it (analytic.nu_windows),
windowing the kept rows of all x values in batches.  The refined hits
empirically confirm the classification: every one lands on exactly one of
the two maximal families, and a seeded random subsample is re-checked
against the brute-force Fock oracle.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .analytic import SuperpositionCoeffs, max_concurrence_over_nu, nu_windows
from .analytic import require_open_unit_interval, rho_windows
from .analytic import _CLAMP_SLACK, _RESCALE_ABOVE, _concurrence_ratio
from .analytic import _degenerate, _maximality_residual, _norm_sq
from .classify import _require_positive_tol, family_checks
from .coherent import CoherentConfig
from .errors import ConsistencyError, DegenerateStateError, DomainError, GridSizeError
from .oracle import oracle_concurrence

MAX_GRID_POINTS = 100_000_000

# Hits below this concurrence are kept as-is; refinement targets near-maximal
# candidates only.
REFINE_FLOOR = 0.9

# A maximality residual N^2 (1 - C) at or below this puts a point on its
# family up to rounding; refine neither moves such a point nor flags it.
REFINE_TARGET = 1e-18

# grid_scan takes the rho windows of this many (lam, x) pairs at once, bounds
# about this many of the rows inside them (or one longer window) at once,
# windows the kept rows in batches of at least this many (fewer than twice
# this plus one rho window's rows; the last batch may be shorter), and
# evaluates about this many nu window points (or one longer window) at once:
# this fixes its peak memory.  Each block, batch or chunk costs a fixed few
# dozen numpy calls, which at 1 << 11 took most of a 241^3 scan's time.
_BLOCK = 1 << 13

# grid_scan skips a row whose exact maximum over nu is this far below the
# threshold, and evaluates a kept row only where its exact C reaches the
# threshold minus this.  The grid's C errs by about eps C ((|nu| + |lam rho|)
# / |nu - lam rho| + S / N), S the coefficient sum (tests/test_edges.py):
# near the families, with coefficients in [-10, 10] and x up to 1 - 1e-6, at
# most 3e-11 against 50-digit mpmath, so the margin is over 10^4 times that.
_PRUNE_MARGIN = 1e-6


@dataclass(frozen=True)
class ScanRecord:
    """One grid hit: coefficients, overlap, concurrence and refinement flags.

    The verdict and class residuals are not stored; `classify` derives them
    from `coefficients()` and `x`.
    """

    lam: float
    rho: float
    nu: float
    x: float
    concurrence: float
    _: KW_ONLY
    refined: bool = False
    refine_converged: bool = True

    def coefficients(self) -> SuperpositionCoeffs:
        return SuperpositionCoeffs(1.0, self.lam, self.rho, self.nu)


@dataclass(frozen=True, eq=False)
class ScanHits:
    """Scan hits as equal-length numpy columns; row i is `record(i)`.

    The pipeline carries hits in this form from the grid to the CSV, so each
    stage runs as a few broadcast steps instead of a Python loop per hit.
    """

    lam: np.ndarray
    rho: np.ndarray
    nu: np.ndarray
    x: np.ndarray
    concurrence: np.ndarray
    refined: np.ndarray
    refine_converged: np.ndarray

    def __len__(self) -> int:
        return len(self.lam)

    def record(self, i: int) -> ScanRecord:
        return ScanRecord(
            float(self.lam[i]), float(self.rho[i]), float(self.nu[i]),
            float(self.x[i]), float(self.concurrence[i]),
            refined=bool(self.refined[i]),
            refine_converged=bool(self.refine_converged[i]),
        )

    def records(self) -> list[ScanRecord]:
        return [self.record(i) for i in range(len(self))]

    @classmethod
    def from_records(cls, records) -> "ScanHits":
        """The columns of a sequence of ScanRecord, in order."""
        return cls(*(
            np.array([getattr(r, name) for r in records],
                     dtype=bool if name.startswith("refine") else float)
            for name in ("lam", "rho", "nu", "x", "concurrence",
                         "refined", "refine_converged")
        ))


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
        # The grid does not rescale as `concurrence` does, so its N^2 would
        # overflow and every point would silently miss the threshold.
        size = 1.0 + sum(max(abs(lo), abs(hi)) for lo, hi, _ in
                         (self.lam_range, self.rho_range, self.nu_range))
        if size > _RESCALE_ABOVE:
            raise DomainError(
                f"coefficient box too large: 1 + max|lam| + max|rho| + max|nu| "
                f"= {size:.3e} exceeds 2^500, where the grid's N^2 overflows"
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
    """Outcome of checking that near-maximal records split into two classes."""

    passed: bool
    n_records: int
    n_maximal: int
    n_class_a: int
    n_class_b: int
    violations: tuple[tuple[ScanRecord, str], ...]
    tol: float
    maximal_tol: float

    def summary(self) -> str:
        if self.passed:
            return (
                f"classes disjoint: {self.n_maximal} near-maximal records "
                f"({self.n_class_a} class a, {self.n_class_b} class b), "
                f"0 violations"
            )
        lines = [
            f"DISJOINTNESS VIOLATED: {len(self.violations)} of {self.n_maximal} "
            f"near-maximal records failed"
        ]
        for record, reason in self.violations[:20]:
            lines.append(
                f"  {reason}: lam={record.lam!r} rho={record.rho!r} "
                f"nu={record.nu!r} x={record.x!r} C={record.concurrence!r}"
            )
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def _at(lam, rho, nu, x) -> str:
    return f"lam={float(lam)!r} rho={float(rho)!r} nu={float(nu)!r} x={float(x)!r}"


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


def _kept_rows(lams, rhos, x_values, floor: float):
    """The (lam, rho, x) rows of a grid whose exact maximum over nu is not
    below `floor`, in grid order: yields (lam, rho, x) column batches sized as
    _BLOCK describes, each with the number of rows bounded to find it.

    Only the grid rho inside the (lam, x) pair's two closed-form windows
    (analytic.rho_windows), widened by one grid point, are bounded; the
    pairs are windowed _BLOCK at a time, x major.
    """
    xs = np.array(x_values)
    pairs = len(xs) * len(lams)
    batch, size, bounded = [], 0, 0
    for start in range(0, pairs, _BLOCK):
        pair = np.arange(start, min(start + _BLOCK, pairs))
        lam_pairs, x_pairs = lams[pair % len(lams)], xs[pair // len(lams)]
        windows = rho_windows(lam_pairs, x_pairs, floor)
        for row, rho_index in _window_points(rhos, *windows):
            lam, rho, x = lam_pairs[row], rhos[rho_index], x_pairs[row]
            # Written as a negation so a NaN or infinite bound keeps its row.
            keep = np.flatnonzero(~(max_concurrence_over_nu(lam, rho, x) < floor))
            batch.append((lam[keep], rho[keep], x[keep]))
            size += len(keep)
            bounded += len(row)
            if size >= _BLOCK:
                yield [np.concatenate(column) for column in zip(*batch)], bounded
                batch, size, bounded = [], 0, 0
    if batch:
        yield [np.concatenate(column) for column in zip(*batch)], bounded


def grid_scan(config: ScanConfig) -> tuple[ScanHits, int, int, int]:
    """All grid points whose concurrence reaches the threshold, in grid order,
    then the number of points evaluated, of (lam, rho, x) rows bounded and of
    rows kept.

    Grid order is row-major over (x, lam, rho, nu).  A (lam, rho) pair is one
    row along the nu axis; rows whose exact maximum over nu lies more than
    _PRUNE_MARGIN below the threshold are skipped.  That maximum can reach
    the lowered threshold only inside two closed-form rho windows per
    (lam, x) (analytic.rho_windows), so only the grid rows inside them,
    widened by one grid point, are bounded (see _kept_rows).  Along each
    kept row the concurrence reaches it only inside two closed-form nu
    windows (analytic.nu_windows), one on each side of nu = lam rho, so only
    the grid points inside them, widened by one grid point, are evaluated.
    Kept rows are windowed and evaluated in batches, across lam values and
    x values, with x as a column.
    """
    lams, rhos, nus = config.axes()
    threshold = config.concurrence_threshold
    floor = threshold - _PRUNE_MARGIN
    parts = []
    evaluated = rows_bounded = rows_kept = 0
    for (lam_rows, rho_rows, x_rows), bounded in _kept_rows(lams, rhos,
                                                           config.x_values, floor):
        rows_bounded += bounded
        rows_kept += len(lam_rows)
        windows = nu_windows(lam_rows, rho_rows, x_rows[:, None], floor)
        for row, nu_index in _window_points(nus, *windows):
            lam, rho, nu, x = lam_rows[row], rho_rows[row], nus[nu_index], x_rows[row]
            evaluated += len(nu)
            n = np.sqrt((1.0 - x) * (1.0 + x))
            n_sq = _norm_sq(1.0, lam, rho, nu, x, x, n, n)
            c = _concurrence_ratio(1.0, lam, rho, nu, n, n, n_sq)
            # Written as a negation so a NaN fails it.
            if not c.max() <= 1.0 + _CLAMP_SLACK:
                i = np.flatnonzero(~(c <= 1.0 + _CLAMP_SLACK))[0]
                raise ConsistencyError(
                    f"grid_scan: concurrence {float(c[i])!r} exceeded 1 beyond "
                    f"rounding slack at {_at(lam[i], rho[i], nu[i], x[i])}"
                )
            hit = np.flatnonzero(c >= threshold)
            if len(hit):
                parts.append((lam[hit], rho[hit], nu[hit], x[hit],
                              np.minimum(c[hit], 1.0)))
    columns = ([np.concatenate(column) for column in zip(*parts)] if parts
               else [np.empty(0) for _ in range(5)])
    count = len(columns[0])
    hits = ScanHits(*columns, refined=np.zeros(count, dtype=bool),
                    refine_converged=np.ones(count, dtype=bool))
    return hits, evaluated, rows_bounded, rows_kept


def _project(lam, rho, nu, x, c):
    """`refine`'s step for columns of near-maximal points; returns the (lam,
    rho, nu, C, converged) columns.

    Both terms of each of maximality_residual's two sums of squares are
    affine in (lam, rho, nu) at fixed x, so one least-squares step
    p - A^+(Ap + b) lands on that sum's zero line.  For nu >= lam rho the
    smaller sum is (a + d)^2 + (b - c)^2, zero on class (a); below it is
    (a - d)^2 + (b + c)^2, zero on class (b).
    """
    move = _maximality_residual(lam, rho, nu, x) > REFINE_TARGET
    upper = nu >= lam * rho
    new_lam, new_rho, new_nu = lam.copy(), rho.copy(), nu.copy()
    # The step never crosses the branch boundary: on the class (a) line
    # nu - lam rho = 1 - lam rho >= 1 - x^2 > 0, and on the class (b) line
    # nu - lam rho = -(t + x)^2 - (1 - x^2) < 0.
    a = np.flatnonzero(move & upper)
    s = (lam[a] + rho[a] + 2.0 * x[a]) / 2.0
    new_lam[a], new_rho[a], new_nu[a] = lam[a] - s, rho[a] - s, 1.0
    b = np.flatnonzero(move & ~upper)
    xb = x[b]
    t = (lam[b] + rho[b] - 2.0 * xb * (nu[b] + 1.0)) / (2.0 + 4.0 * xb * xb)
    new_lam[b], new_rho[b], new_nu[b] = t, t, -1.0 - 2.0 * t * xb

    n = np.sqrt((1.0 - x) * (1.0 + x))
    n_sq = _norm_sq(1.0, new_lam, new_rho, new_nu, x, x, n, n)
    degenerate = np.flatnonzero(_degenerate(
        n_sq, 1.0 + abs(new_lam) + abs(new_rho) + abs(new_nu)))
    if len(degenerate):
        i = degenerate[0]
        raise DegenerateStateError(
            f"refine: squared norm {float(n_sq[i]):.3e} is numerically zero at "
            f"{_at(new_lam[i], new_rho[i], new_nu[i], x[i])}"
        )
    new_c = _concurrence_ratio(1.0, new_lam, new_rho, new_nu, n, n, n_sq)
    # The ratio is never negative, so this negation also rejects NaN and inf.
    bad = np.flatnonzero(~(new_c <= 1.0 + _CLAMP_SLACK))
    if len(bad):
        i = bad[0]
        raise ConsistencyError(
            f"refine: recomputed concurrence {float(new_c[i])!r} exceeded 1 beyond "
            f"rounding slack at {_at(new_lam[i], new_rho[i], new_nu[i], x[i])}"
        )
    new_c = np.clip(new_c, 0.0, 1.0)
    # A projection that lowers C keeps its old point, flagged unconverged.
    worse = new_c < c
    converged = ~worse & (
        _maximality_residual(new_lam, new_rho, new_nu, x) <= REFINE_TARGET)
    return (np.where(worse, lam, new_lam), np.where(worse, rho, new_rho),
            np.where(worse, nu, new_nu), np.where(worse, c, new_c), converged)


def refine(record: ScanRecord) -> ScanRecord:
    """Project a near-maximal hit onto the nearest point of its family.

    The step is the exact projection onto the zero line of the hit's branch
    of maximality_residual: class (a) for nu >= lam rho, class (b) below.  A
    point within REFINE_TARGET is not moved; a result with less concurrence
    than the input is returned flagged, never dropped.  This is `refine_hits`
    on one record.
    """
    if record.concurrence < REFINE_FLOOR:
        raise DomainError(
            f"refine expects a near-maximal record (C >= {REFINE_FLOOR}), "
            f"got C = {record.concurrence}"
        )
    record.coefficients()  # rejects non-finite coefficients
    require_open_unit_interval(record.x)
    return refine_hits(ScanHits.from_records([record])).record(0)


def refine_hits(hits: ScanHits) -> ScanHits:
    """`refine` applied to every hit with C >= REFINE_FLOOR; the others pass
    through unrefined."""
    todo = np.flatnonzero(hits.concurrence >= REFINE_FLOOR)
    lam, rho, nu, c = (column.copy() for column in
                       (hits.lam, hits.rho, hits.nu, hits.concurrence))
    refined, converged = hits.refined.copy(), hits.refine_converged.copy()
    lam[todo], rho[todo], nu[todo], c[todo], converged[todo] = _project(
        hits.lam[todo], hits.rho[todo], hits.nu[todo], hits.x[todo],
        hits.concurrence[todo])
    refined[todo] = True
    return ScanHits(lam, rho, nu, hits.x, c, refined, converged)


def verify_disjoint_classes(
    hits: ScanHits,
    tol: float = 1e-8,
    maximal_tol: float = 1e-10,
) -> DisjointnessReport:
    """Check every near-maximal hit sits on exactly one of the two families.

    Only hits with concurrence > 1 - maximal_tol are tested; each must
    satisfy class (a) or class (b) at `tol`, and never both.
    """
    # Written as a negation so a NaN concurrence is tested, and fails.
    maximal = np.flatnonzero(~(hits.concurrence <= 1.0 - maximal_tol))
    on_a, on_b = family_checks(hits.lam[maximal], hits.rho[maximal],
                               hits.nu[maximal], hits.x[maximal], tol)
    failed = on_a == on_b
    violations = tuple(
        (hits.record(i), "on both families" if both
         else "near-maximal but on neither family")
        for i, both in zip(maximal[failed].tolist(), on_a[failed].tolist())
    )
    return DisjointnessReport(
        passed=not violations,
        n_records=len(hits),
        n_maximal=len(maximal),
        n_class_a=int(np.count_nonzero(on_a & ~on_b)),
        n_class_b=int(np.count_nonzero(on_b & ~on_a)),
        violations=violations,
        tol=tol,
        maximal_tol=maximal_tol,
    )


def config_for_overlap(x: float) -> CoherentConfig:
    """Amplitudes (0, 0, g, g) whose common overlap is exactly-by-construction x."""
    gap = math.sqrt(-2.0 * math.log(x))
    return CoherentConfig(0.0, 0.0, gap, gap)


def oracle_spot_check(
    hits: ScanHits,
    fraction: float = 0.01,
    seed: int = 0,
    max_diff: float = 1e-8,
) -> tuple[int, float]:
    """Re-check a seeded random subsample of hits against the Fock oracle.

    Returns (checked count, worst |analytic - oracle|); raises
    ConsistencyError if any difference exceeds `max_diff`.
    """
    if not len(hits) or fraction <= 0.0:
        return 0, 0.0
    rng = np.random.default_rng(seed)
    count = max(1, int(round(fraction * len(hits))))
    count = min(count, len(hits))
    indices = sorted(rng.choice(len(hits), size=count, replace=False).tolist())
    worst = 0.0
    for i in indices:
        record = hits.record(i)
        oracle_c = oracle_concurrence(config_for_overlap(record.x),
                                      record.coefficients())
        diff = abs(oracle_c - record.concurrence)
        worst = max(worst, diff)
        if diff > max_diff:
            raise ConsistencyError(
                f"oracle disagrees with scan record by {diff:.3e} at "
                f"lam={record.lam!r} rho={record.rho!r} nu={record.nu!r} "
                f"x={record.x!r}"
            )
    return count, worst


@dataclass(frozen=True)
class ScanOutcome:
    """Everything the scan pipeline produced."""

    hits: ScanHits
    report: DisjointnessReport
    n_grid_hits: int
    n_grid_evaluated: int
    n_grid_rows_bounded: int
    n_grid_rows_kept: int
    n_refined: int
    oracle_checked: int
    max_oracle_diff: float


def run_scan(
    config: ScanConfig,
    verify_tol: float = 1e-8,
) -> ScanOutcome:
    """Grid scan, refinement of near-maximal hits, disjointness verification,
    and the seeded oracle spot-check, in one deterministic pipeline."""
    _require_positive_tol(verify_tol)
    # At tol >= 1 - x the point (lam, rho, nu) = (-1, -x, x) passes both
    # family checks, so the verdicts could no longer be disjoint.
    tol_limit = 1.0 - max(config.x_values)
    if verify_tol >= tol_limit:
        raise DomainError(
            f"verify tol {verify_tol} cannot separate the two families: it must "
            f"lie below 1 - max(x_values) = {tol_limit!r}"
        )
    grid_hits, evaluated, rows_bounded, rows_kept = grid_scan(config)
    hits = refine_hits(grid_hits)
    report = verify_disjoint_classes(hits, tol=verify_tol)
    checked, worst = oracle_spot_check(
        hits, fraction=config.oracle_fraction, seed=config.seed
    )
    return ScanOutcome(
        hits=hits,
        report=report,
        n_grid_hits=len(hits),
        n_grid_evaluated=evaluated,
        n_grid_rows_bounded=rows_bounded,
        n_grid_rows_kept=rows_kept,
        n_refined=int(np.count_nonzero(hits.refined)),
        oracle_checked=checked,
        max_oracle_diff=worst,
    )
