"""Parameter-space scanning: locate near-maximal states and pin them down.

A grid scan sweeps (lam, rho, nu) boxes at fixed overlaps x, keeps every
point whose concurrence clears a threshold, then projects each hit onto the
zero line of its maximality residual.  The maximal states lie on two lines,
so the sweep skips each (lam, rho) row whose exact maximum over nu
(analytic.max_concurrence_over_nu) misses the threshold.  The refined hits
empirically confirm the classification: every one lands on exactly one of
the two maximal families, and a seeded random subsample is re-checked
against the brute-force Fock oracle.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from .analytic import SuperpositionCoeffs, concurrence, maximality_residual
from .analytic import _RESCALE_ABOVE, _concurrence_ratio, _norm_sq
from .analytic import max_concurrence_over_nu
from .classify import check_class_a, check_class_b
from .coherent import CoherentConfig, OverlapPair
from .errors import ConsistencyError, DomainError, GridSizeError
from .oracle import oracle_concurrence

MAX_GRID_POINTS = 100_000_000

# Hits below this concurrence are kept as-is; refinement targets near-maximal
# candidates only.
REFINE_FLOOR = 0.9

# A maximality residual N^2 (1 - C) at or below this puts a point on its
# family up to rounding; refine neither moves such a point nor flags it.
REFINE_TARGET = 1e-18

# grid_scan bounds at most this many (lam, rho) rows, and evaluates at most
# this many points (or one longer row), at once: this fixes its peak memory.
_BLOCK = 1 << 11

# grid_scan skips a row whose exact maximum over nu is this far below the
# threshold: over 1000x the Gram form's rounding error for x <= 0.999.  Within
# ~1e-4 of x = 1 that form can overshoot by ~1e-5, so a full sweep could
# report a point that the exact maximum rules out.
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


def grid_scan(config: ScanConfig) -> tuple[list[ScanRecord], int]:
    """All grid points whose concurrence reaches the threshold, in grid order,
    and the number of points evaluated.

    Grid order is row-major over (x, lam, rho, nu).  A (lam, rho) pair is one
    row along the nu axis; rows whose exact maximum over nu lies more than
    _PRUNE_MARGIN below the threshold are skipped, and the rest are evaluated
    point by point in blocks of about _BLOCK points.
    """
    lams, rhos, nus = config.axes()
    n_rows = len(lams) * len(rhos)
    floor = config.concurrence_threshold - _PRUNE_MARGIN
    rows_per_chunk = max(1, _BLOCK // len(nus))
    records = []
    evaluated = 0
    for x in config.x_values:
        n = math.sqrt((1.0 - x) * (1.0 + x))
        for start in range(0, n_rows, _BLOCK):
            rows = np.arange(start, min(start + _BLOCK, n_rows))
            lam_rows, rho_rows = lams[rows // len(rhos)], rhos[rows % len(rhos)]
            # Written as a negation so a NaN or infinite bound keeps its row.
            kept = ~(max_concurrence_over_nu(lam_rows, rho_rows, x) < floor)
            lam_rows, rho_rows = lam_rows[kept], rho_rows[kept]
            evaluated += len(lam_rows) * len(nus)
            for i in range(0, len(lam_rows), rows_per_chunk):
                lam = lam_rows[i:i + rows_per_chunk, None]
                rho = rho_rows[i:i + rows_per_chunk, None]
                n_sq = _norm_sq(1.0, lam, rho, nus, x, x)
                c = _concurrence_ratio(1.0, lam, rho, nus, n, n, n_sq)
                # Written as a negation so a NaN fails it.
                if not c.max(initial=0.0) <= 1.0 + 1e-9:
                    raise ConsistencyError(
                        "grid concurrence exceeded 1 beyond rounding slack"
                    )
                hit_row, hit_nu = np.nonzero(c >= config.concurrence_threshold)
                for ir, iv in zip(hit_row.tolist(), hit_nu.tolist()):
                    records.append(ScanRecord(
                        float(lam[ir, 0]), float(rho[ir, 0]), float(nus[iv]), x,
                        min(float(c[ir, iv]), 1.0),
                    ))
    return records, evaluated


def refine(record: ScanRecord) -> ScanRecord:
    """Project a near-maximal hit onto the nearest point of its family.

    On either side of nu = lam rho both terms of maximality_residual's
    sum-of-squares form are affine in (lam, rho, nu) at fixed x, so one
    least-squares step p - A^+(Ap + b) lands on the residual's zero line:
    class (a) for nu >= lam rho, class (b) below.  A point within
    REFINE_TARGET is not moved; a result with less concurrence than the
    input is returned flagged, never dropped.
    """
    if record.concurrence < REFINE_FLOOR:
        raise DomainError(
            f"refine expects a near-maximal record (C >= {REFINE_FLOOR}), "
            f"got C = {record.concurrence}"
        )
    x = record.x
    lam, rho, nu = record.lam, record.rho, record.nu
    if maximality_residual(record.coefficients(), x) > REFINE_TARGET:
        # The step never crosses the branch boundary: on the class (a) line
        # nu - lam rho = 1 - lam rho >= 1 - x^2 > 0, and on the class (b) line
        # nu - lam rho = -(t + x)^2 - (1 - x^2) < 0.
        if nu >= lam * rho:
            s = (lam + rho + 2.0 * x) / 2.0
            lam, rho, nu = lam - s, rho - s, 1.0
        else:
            t = (lam + rho - 2.0 * x * (nu + 1.0)) / (2.0 + 4.0 * x * x)
            lam, rho, nu = t, t, -1.0 - 2.0 * t * x

    coeffs = SuperpositionCoeffs(1.0, lam, rho, nu)
    c = concurrence(coeffs, OverlapPair(x, x))
    if c < record.concurrence:
        return replace(record, refined=True, refine_converged=False)
    return ScanRecord(
        lam, rho, nu, x, c, refined=True,
        refine_converged=maximality_residual(coeffs, x) <= REFINE_TARGET,
    )


def verify_disjoint_classes(
    records: list[ScanRecord],
    tol: float = 1e-8,
    maximal_tol: float = 1e-10,
) -> DisjointnessReport:
    """Check every near-maximal record sits on exactly one of the two families.

    Only records with concurrence > 1 - maximal_tol are tested; each must
    satisfy class (a) or class (b) at `tol`, and never both.
    """
    n_a = n_b = n_max = 0
    violations = []
    for record in records:
        if record.concurrence <= 1.0 - maximal_tol:
            continue
        n_max += 1
        coeffs = record.coefficients()
        a_ok = check_class_a(coeffs, record.x, tol)
        b_ok = check_class_b(coeffs, record.x, tol)
        if a_ok and b_ok:
            violations.append((record, "on both families"))
        elif not a_ok and not b_ok:
            violations.append((record, "near-maximal but on neither family"))
        elif a_ok:
            n_a += 1
        else:
            n_b += 1
    return DisjointnessReport(
        passed=not violations,
        n_records=len(records),
        n_maximal=n_max,
        n_class_a=n_a,
        n_class_b=n_b,
        violations=tuple(violations),
        tol=tol,
        maximal_tol=maximal_tol,
    )


def config_for_overlap(x: float) -> CoherentConfig:
    """Amplitudes (0, 0, g, g) whose common overlap is exactly-by-construction x."""
    gap = math.sqrt(-2.0 * math.log(x))
    return CoherentConfig(0.0, 0.0, gap, gap)


def oracle_spot_check(
    records: list[ScanRecord],
    fraction: float = 0.01,
    seed: int = 0,
    max_diff: float = 1e-8,
) -> tuple[int, float]:
    """Re-check a seeded random subsample of records against the Fock oracle.

    Returns (checked count, worst |analytic - oracle|); raises
    ConsistencyError if any difference exceeds `max_diff`.
    """
    if not records or fraction <= 0.0:
        return 0, 0.0
    rng = np.random.default_rng(seed)
    count = max(1, int(round(fraction * len(records))))
    count = min(count, len(records))
    indices = sorted(rng.choice(len(records), size=count, replace=False).tolist())
    worst = 0.0
    for i in indices:
        record = records[i]
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

    records: tuple[ScanRecord, ...]
    report: DisjointnessReport
    n_grid_hits: int
    n_grid_evaluated: int
    n_refined: int
    oracle_checked: int
    max_oracle_diff: float


def run_scan(
    config: ScanConfig,
    verify_tol: float = 1e-8,
) -> ScanOutcome:
    """Grid scan, refinement of near-maximal hits, disjointness verification,
    and the seeded oracle spot-check, in one deterministic pipeline."""
    hits, evaluated = grid_scan(config)
    refined = [
        refine(record) if record.concurrence >= REFINE_FLOOR else record
        for record in hits
    ]
    report = verify_disjoint_classes(refined, tol=verify_tol)
    checked, worst = oracle_spot_check(
        refined, fraction=config.oracle_fraction, seed=config.seed
    )
    return ScanOutcome(
        records=tuple(refined),
        report=report,
        n_grid_hits=len(hits),
        n_grid_evaluated=evaluated,
        n_refined=sum(1 for r in refined if r.refined),
        oracle_checked=checked,
        max_oracle_diff=worst,
    )
