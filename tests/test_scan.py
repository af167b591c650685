import csv
import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohent import cli
from cohent import scan as scan_module
from cohent.analytic import SuperpositionCoeffs, concurrence, maximality_residual
from cohent.analytic import _concurrence_ratio, _maximality_residual, _norm_sq
from cohent.analytic import max_concurrence_over_nu
from cohent.classify import (
    VERDICTS,
    check_class_a,
    check_class_b,
    class_b_residual,
    classify,
    classify_columns,
    family_checks,
)
from cohent.coherent import OverlapPair
from cohent.errors import ConsistencyError, DomainError, GridSizeError
from cohent.scan import (
    REFINE_FLOOR,
    DisjointnessReport,
    ScanConfig,
    ScanHits,
    ScanRecord,
    config_for_overlap,
    grid_scan,
    oracle_spot_check,
    refine,
    refine_hits,
    run_scan,
    verify_disjoint_classes,
)


def exact_concurrence(lam, rho, nu, x):
    """Concurrence at mu = 1, p1 = p2 = x from the Gram form in 50-digit
    arithmetic, as a float."""
    with mpmath.workdps(50):
        lam, rho, nu, x = (mpmath.mpf(v) for v in (lam, rho, nu, x))
        n_sq = (1 + lam**2 + rho**2 + nu**2 + 2 * (lam + rho * nu) * x
                + 2 * (rho + lam * nu) * x + 2 * (nu + lam * rho) * x**2)
        return float(2 * abs(nu - lam * rho) * (1 - x**2) / n_sq)


def small_config(**overrides):
    base = dict(
        lam_range=(-2.0, 2.0, 21),
        rho_range=(-2.0, 2.0, 21),
        nu_range=(1.0, 1.0, 1),
        x_values=(0.5,),
        concurrence_threshold=0.9999,
    )
    base.update(overrides)
    return ScanConfig(**base)


class TestScanConfig:
    def test_total_points(self):
        assert small_config().total_points() == 21 * 21

    def test_rejects_single_step_with_distinct_bounds(self):
        with pytest.raises(DomainError):
            small_config(nu_range=(0.0, 1.0, 1))

    def test_rejects_bad_x(self):
        with pytest.raises(DomainError):
            small_config(x_values=(0.5, 1.0))
        with pytest.raises(DomainError):
            small_config(x_values=())

    def test_rejects_bad_threshold(self):
        with pytest.raises(DomainError):
            small_config(concurrence_threshold=0.0)

    def test_rejects_oversized_grid(self):
        with pytest.raises(GridSizeError):
            ScanConfig(
                lam_range=(-3.0, 3.0, 500),
                rho_range=(-3.0, 3.0, 500),
                nu_range=(-3.0, 3.0, 500),
                x_values=(0.2, 0.5),
            )

    def test_rejects_box_whose_norm_overflows(self):
        # the grid's N^2 (~1e401) would overflow and silently give 0 hits,
        # where the scalar concurrence finds 56
        with pytest.raises(DomainError, match="2\\^500"):
            ScanConfig(
                lam_range=(-2e200, 2e200, 5),
                rho_range=(-2e200, 2e200, 5),
                nu_range=(-2e200, 2e200, 5),
                x_values=(0.5,),
                concurrence_threshold=0.5,
            )


class TestGridScan:
    def test_hits_cluster_on_manifolds(self):
        # nu pinned to 1: hits track the class (a) line lam + rho = -1, except
        # the corner lam = rho = -2 where the nu = 1 slice meets class (b)
        config = ScanConfig(
            lam_range=(-2.0, 2.0, 81),
            rho_range=(-2.0, 2.0, 81),
            nu_range=(1.0, 1.0, 1),
            x_values=(0.5,),
            concurrence_threshold=0.9999,
        )
        hits = grid_scan(config)[0]
        assert len(hits)
        step = 4.0 / 80.0
        for record in hits.records():
            near_a = abs(record.lam + record.rho + 1.0) <= step
            near_b = abs(record.lam - record.rho) <= step and abs(
                record.lam + record.rho + 4.0
            ) <= 2 * step
            assert near_a or near_b

    def test_off_manifold_box_is_empty(self):
        # lam = 1, rho = 2 fixed: neither family is reachable for any nu
        config = ScanConfig(
            lam_range=(1.0, 1.0, 1),
            rho_range=(2.0, 2.0, 1),
            nu_range=(-3.0, 3.0, 61),
            x_values=(0.5,),
            concurrence_threshold=0.999,
        )
        hits, evaluated, *_ = grid_scan(config)
        assert (len(hits), evaluated) == (0, 0)

    def test_single_point_antisymmetric(self):
        config = ScanConfig(
            lam_range=(0.0, 0.0, 1),
            rho_range=(0.0, 0.0, 1),
            nu_range=(-1.0, -1.0, 1),
            x_values=(0.3,),
            concurrence_threshold=1.0 - 1e-9,
        )
        hits = grid_scan(config)[0]
        assert len(hits) == 1
        assert class_b_residual(hits.record(0).coefficients(), 0.3) == 0.0
        assert hits.concurrence[0] >= 1.0 - 1e-9

    def test_matches_scalar_concurrence(self):
        config = small_config(nu_range=(-2.0, 2.0, 9))
        for record in grid_scan(config)[0].records():
            scalar = concurrence(record.coefficients(), OverlapPair(record.x, record.x))
            assert record.concurrence == scalar

    @pytest.mark.filterwarnings("error")
    def test_huge_box_matches_scalar_concurrence(self):
        # just under the 2^500 box limit: no overflow in the bound or N^2
        config = ScanConfig(
            lam_range=(-1e150, 1e150, 5),
            rho_range=(-1e150, 1e150, 5),
            nu_range=(-1e150, 1e150, 5),
            x_values=(0.5,),
            concurrence_threshold=0.5,
        )
        expected = []
        on_threshold = 0
        for lam, rho, nu in itertools.product(*(a.tolist() for a in config.axes())):
            coeffs = SuperpositionCoeffs(1.0, lam, rho, nu)
            c = concurrence(coeffs, OverlapPair(0.5, 0.5))
            if c >= 0.5:
                expected.append((lam, rho, nu, c))
            exact = exact_concurrence(lam, rho, nu, 0.5)
            if abs(exact - 0.5) <= 1e-15:
                on_threshold += 1
            else:
                assert (c >= 0.5) == (exact >= 0.5)
        hits = grid_scan(config)[0]
        # 12 points have an exact C within 1e-16 of the threshold; rounding
        # decides those, and 49 points are hits in all.
        assert on_threshold == 12
        assert len(hits) == 49
        assert [(r.lam, r.rho, r.nu, r.concurrence) for r in hits.records()] == expected

    def test_nan_concurrence_raises(self, monkeypatch):
        ratio = scan_module._concurrence_ratio
        monkeypatch.setattr(scan_module, "_concurrence_ratio",
                            lambda *args: ratio(*args) * np.nan)
        # the first kept row, lam = rho = -2, holds the class (b) point nu = 1
        with pytest.raises(ConsistencyError,
                           match=r"^grid_scan: concurrence nan exceeded 1 .* at "
                                 r"lam=-2\.0 rho=-2\.0 nu=1\.0 x=0\.5$"):
            grid_scan(small_config())

    def test_deterministic_across_runs(self):
        config = ScanConfig(
            lam_range=(-3.0, 3.0, 31),
            rho_range=(-3.0, 3.0, 31),
            nu_range=(-3.0, 3.0, 31),
            x_values=(0.2, 0.8),
            concurrence_threshold=0.995,
        )
        (first, *n_first), (second, *n_second) = grid_scan(config), grid_scan(config)
        assert first.records() == second.records()
        assert n_first == n_second


def full_sweep(config):
    """Every grid point through the production N^2 and ratio, one (rho, nu)
    slab per lam: the sweep as it was before grid_scan skipped rows."""
    lams, rhos, nus = config.axes()
    rho, nu = rhos[:, None], nus[None, :]
    records = []
    for x in config.x_values:
        n1 = math.sqrt((1.0 - x) * (1.0 + x))
        for lam in lams.tolist():
            n_sq = _norm_sq(1.0, lam, rho, nu, x, x, n1, n1)
            c = _concurrence_ratio(1.0, lam, rho, nu, n1, n1, n_sq)
            if float(c.max()) > 1.0 + 1e-9:
                raise ConsistencyError("grid concurrence exceeded 1")
            c = np.minimum(c, 1.0)
            hit_rho, hit_nu = np.nonzero(c >= config.concurrence_threshold)
            for ir, iv in zip(hit_rho.tolist(), hit_nu.tolist()):
                records.append(ScanRecord(
                    lam, float(rhos[ir]), float(nus[iv]), x, float(c[ir, iv]),
                ))
    return records


def box(lo, hi, steps, x_values, threshold):
    return ScanConfig((lo, hi, steps), (lo, hi, steps), (lo, hi, steps),
                      x_values, threshold, seed=3, oracle_fraction=0.01)


@pytest.fixture
def nu_windows_calls(monkeypatch):
    """The x column of every grid_scan call to nu_windows, in call order."""
    calls = []
    windows = scan_module.nu_windows

    def counted(lam, rho, x, floor):
        calls.append(np.ravel(x))
        return windows(lam, rho, x, floor)

    monkeypatch.setattr(scan_module, "nu_windows", counted)
    return calls


class TestGridPruning:
    """Skipping rows by their exact maximum over nu must not change a record."""

    @pytest.mark.parametrize("x", [1e-6, 0.3, 0.999, 1.0 - 1e-6])
    @pytest.mark.parametrize("threshold", [0.5, 0.9, 0.999, 1.0])
    def test_matches_full_sweep(self, threshold, x):
        config = ScanConfig(
            lam_range=(-3.0, 3.0, 25),
            rho_range=(-3.0, 3.0, 25),
            nu_range=(-3.0, 3.0, 25),
            x_values=(x,),
            concurrence_threshold=threshold,
        )
        hits, evaluated, *_ = grid_scan(config)
        assert hits.records() == full_sweep(config)
        assert len(hits) <= evaluated <= config.total_points()

    @pytest.mark.parametrize("config, most_evaluated, rows", [
        (cli._resolve_scan_config("theorem_check.cfg"), 2_000, (1_189, 495)),
        # dense_sweep's box
        (box(-3.0, 3.0, 241, (0.2, 0.5, 0.8), 0.999999), 5_000, (4_086, 1_323)),
    ], ids=["bundled", "dense"])
    def test_benchmark_boxes_match_full_sweep(self, config, most_evaluated, rows,
                                              nu_windows_calls):
        # whole kept rows were 30,195 and 318,843 points, and every one of the
        # 11,163 and 174,243 (lam, rho, x) rows was bounded
        hits, evaluated, *counts = grid_scan(config)
        assert hits.records() == full_sweep(config)
        assert len(hits) <= evaluated <= most_evaluated
        assert tuple(counts) == rows
        # the kept rows of every lam value and x value are windowed at once
        assert len(nu_windows_calls) == 1

    @pytest.mark.parametrize("block", [1, 7, 64, 1024])
    def test_small_blocks_match_full_sweep(self, monkeypatch, block, nu_windows_calls):
        # many (lam, x) pair blocks, row chunks, row batches and point chunks,
        # windows longer than a chunk, and (at 1024) one batch holding every
        # kept row
        config = box(-3.0, 3.0, 13, (0.3, 0.6, 0.9), 0.6)
        default_hits, *default_counts = grid_scan(config)
        monkeypatch.setattr(scan_module, "_BLOCK", block)
        nu_windows_calls.clear()
        hits, *counts = grid_scan(config)
        assert hits.records() == full_sweep(config) == default_hits.records()
        # points evaluated, rows bounded and rows kept do not depend on the block
        assert counts == default_counts == [counts[0], 489, 387]
        # At block 1 each batch holds the kept rows of one rho window, so of
        # one x; from 7 up, the pair blocks and batches cross x values.
        assert any(len(set(x.tolist())) > 1 for x in nu_windows_calls) == (block > 1)
        assert (len(nu_windows_calls) == 1) == (block == 1024)

    @pytest.mark.parametrize("block", [7, 64, 200])
    def test_batches_stay_bounded_when_every_row_is_kept(self, monkeypatch, block,
                                                         nu_windows_calls):
        # floor = threshold - _PRUNE_MARGIN = 0 keeps every row, and makes each
        # row's rho and nu windows the whole axis
        config = box(-3.0, 3.0, 13, (0.3, 0.6, 0.9), scan_module._PRUNE_MARGIN)
        monkeypatch.setattr(scan_module, "_BLOCK", block)
        hits, evaluated, bounded, kept = grid_scan(config)
        sizes = [len(x) for x in nu_windows_calls]
        assert sum(sizes) == bounded == kept == 3 * 13 * 13
        # A batch is yielded once it holds `block` rows; the rows it gains last
        # come from one chunk of at most `block` rows plus one 13-point window.
        assert all(block <= size < 2 * block + 13 for size in sizes[:-1])
        assert 0 < sizes[-1] < 2 * block + 13
        assert evaluated == config.total_points()
        assert hits.records() == full_sweep(config)

    @pytest.mark.parametrize("point", [
        (-0.5, -0.5, 1.0),   # class (a) at x = 0.5
        (0.0, 0.0, -1.0),    # class (b)
        (1.0, 2.0, 0.0),     # neither
    ])
    def test_single_point_axes(self, point):
        config = ScanConfig(
            *((v, v, 1) for v in point), x_values=(0.5,),
            concurrence_threshold=0.999,
        )
        assert grid_scan(config)[0].records() == full_sweep(config)

    def test_nu_box_excluding_row_maximizer(self):
        # rows near the class (a) line peak at nu = 1, outside this box, so
        # their bound is never reached inside it
        config = ScanConfig(
            lam_range=(-2.0, 1.0, 31),
            rho_range=(-2.0, 1.0, 31),
            nu_range=(1.5, 3.0, 31),
            x_values=(0.5,),
            concurrence_threshold=0.9,
        )
        hits = grid_scan(config)[0]
        assert len(hits)
        assert hits.records() == full_sweep(config)

    def test_wide_box(self):
        config = ScanConfig(
            lam_range=(-1e3, 1e3, 41),
            rho_range=(-1e3, 1e3, 41),
            nu_range=(-1e3, 1e3, 41),
            x_values=(0.2, 0.7),
            concurrence_threshold=0.9,
        )
        hits, evaluated, *_ = grid_scan(config)
        assert hits.records() == full_sweep(config)
        assert evaluated < config.total_points()

    def test_near_one_follows_the_exact_value(self):
        # At x = 1 - 1e-6 the expanded Gram form of N^2 overshot this point's
        # concurrence by 1.3e-5, above the threshold, although the exact value
        # and the exact row maximum are below it.  The amplitude form follows
        # the exact value, so neither the full nor the pruned sweep reports it.
        x = 1.0 - 1e-6
        point = (-1.001190630430563, -1.0011786521822075, 1.002367289157893)
        config = ScanConfig(*((v, v, 1) for v in point), x_values=(x,),
                            concurrence_threshold=0.99998)
        exact = exact_concurrence(*point, x)
        assert exact < config.concurrence_threshold
        c = concurrence(SuperpositionCoeffs(1.0, *point), OverlapPair(x, x))
        assert abs(c - exact) < 1e-10
        assert full_sweep(config) == []
        hits, evaluated, *_ = grid_scan(config)
        assert (len(hits), evaluated) == (0, 0)


@st.composite
def scan_boxes(draw):
    """A small box around a family point or a random point, at a scale up to
    1e149, with 1-step axes, nu boxes beside the family point and the
    overlaps and thresholds a ScanConfig accepts."""
    scale = 10.0 ** draw(st.integers(0, 149))
    x = draw(st.one_of(st.sampled_from([1e-6, 1.0 - 1e-6]), st.floats(1e-6, 1.0 - 1e-6)))
    f = draw(st.floats(-1.0, 1.0)) * scale
    kind = draw(st.sampled_from(["a", "b", "random"]))
    if kind == "a":
        centre = [f, -2.0 * x - f, 1.0]
    elif kind == "b":
        centre = [f, f, -1.0 - 2.0 * f * x]
    else:
        centre = [draw(st.floats(-1.0, 1.0)) * scale for _ in range(3)]
    ranges = []
    for axis, c in enumerate(centre):
        steps = draw(st.sampled_from([1, 2, 5, 13, 40] if axis == 2 else [1, 2, 5, 9]))
        if steps == 1:
            ranges.append((c, c, 1))
            continue
        width = abs(c) * 10.0 ** draw(st.floats(-12.0, 0.0)) + 10.0 ** draw(
            st.floats(-6.0, 0.0))
        # beside: a nu box on one side of the point, which misses the
        # row maximiser of the rows through it
        shift = draw(st.sampled_from([0.0, 1.5, -1.5])) * width if axis == 2 else 0.0
        ranges.append((c + shift - width, c + shift + width, steps))
    threshold = draw(st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                               st.sampled_from([1.0, 1.0 - 1e-12, 0.999999, 1e-7])))
    return ScanConfig(*ranges, x_values=(x,), concurrence_threshold=threshold)


@settings(max_examples=200, deadline=None)
@given(scan_boxes())
def test_windows_keep_every_record_of_the_full_sweep(config):
    hits, evaluated, *_ = grid_scan(config)
    assert hits.records() == full_sweep(config)
    assert len(hits) <= evaluated <= config.total_points()


def all_kept_rows(config):
    """The (lam, rho, x) rows whose bound is not below the grid's floor,
    bounding every row of the box: the rows grid_scan kept before it bounded
    only those inside the rho windows."""
    lams, rhos, _ = config.axes()
    floor = config.concurrence_threshold - scan_module._PRUNE_MARGIN
    rows = []
    for x in config.x_values:
        i_lam, i_rho = np.nonzero(
            ~(max_concurrence_over_nu(lams[:, None], rhos, x) < floor))
        rows += zip(lams[i_lam].tolist(), rhos[i_rho].tolist(), [x] * len(i_lam))
    return rows


@st.composite
def row_boxes(draw):
    """A (lam, rho) box around the rho lines of one lam, or around a random
    point, at a scale up to 1e149 or at the 2^500 box limit, with one to
    three overlaps and thresholds over (0, 1]: those up to 1/2 + _PRUNE_MARGIN
    make every rho window the whole axis."""
    scale = draw(st.one_of(st.integers(0, 149).map(lambda k: 10.0 ** k),
                           st.just(2.0 ** 497)))
    xs = draw(st.lists(st.one_of(st.sampled_from([1e-6, 1.0 - 1e-6]),
                                 st.floats(1e-6, 1.0 - 1e-6)),
                       min_size=1, max_size=3))
    lam = draw(st.floats(-1.0, 1.0)) * scale
    kind = draw(st.sampled_from(["a", "b", "random"]))
    if kind == "a":
        rho = -2.0 * xs[0] - lam
    elif kind == "b":
        rho = lam
    else:
        rho = draw(st.floats(-1.0, 1.0)) * scale
    ranges = []
    for centre, choices in ((lam, [1, 2, 5, 9]), (rho, [1, 2, 5, 13, 40])):
        steps = draw(st.sampled_from(choices))
        width = 0.0 if steps == 1 else abs(centre) * 10.0 ** draw(
            st.floats(-12.0, 0.0)) + 10.0 ** draw(st.floats(-6.0, 0.0))
        ranges.append((centre - width, centre + width, steps))
    threshold = draw(st.one_of(
        st.floats(0.0, 1.0, exclude_min=True),
        st.sampled_from([1.0, 1.0 - 1e-12, 0.999999, 0.5 + 2e-6, 0.5 + 1e-6, 1e-7])))
    return ScanConfig(*ranges, (0.0, 0.0, 1), x_values=xs,
                      concurrence_threshold=threshold)


@settings(max_examples=300, deadline=None)
@given(row_boxes(), st.sampled_from([1, 5, scan_module._BLOCK]))
def test_rho_windows_keep_every_row_the_full_bound_keeps(config, block):
    floor = config.concurrence_threshold - scan_module._PRUNE_MARGIN
    with mock.patch.object(scan_module, "_BLOCK", block):
        batches = list(scan_module._kept_rows(*config.axes()[:2], config.x_values,
                                              floor))
    kept = [row for (lam, rho, x), _ in batches
            for row in zip(lam.tolist(), rho.tolist(), x.tolist())]
    assert kept == all_kept_rows(config)
    assert len(kept) <= sum(bounded for _, bounded in batches) <= len(
        config.x_values) * config.lam_range[2] * config.rho_range[2]


class TestRefine:
    def test_grid_hit_lands_on_class_a(self):
        record = ScanRecord(
            lam=-0.49, rho=-0.51, nu=1.0, x=0.5,
            concurrence=concurrence(
                SuperpositionCoeffs(1, -0.49, -0.51, 1.0), OverlapPair(0.5, 0.5)
            ),
        )
        refined = refine(record)
        assert refined.refined
        assert refined.refine_converged
        assert maximality_residual(refined.coefficients(), 0.5) < 1e-12
        assert check_class_a(refined.coefficients(), 0.5, 1e-8)

    def test_exact_manifold_point_unchanged(self):
        # one exact point per family: class (a), then class (b)
        for point in ((-0.5, -0.5, 1.0), (-0.5, -0.5, -0.5)):
            record = ScanRecord(*point, x=0.5, concurrence=1.0)
            refined = refine(record)
            assert (refined.lam, refined.rho, refined.nu) == point
            assert refined.refine_converged

    def test_far_start_reaches_a_family(self):
        # C ~ 0.95, well off both manifolds
        coeffs = SuperpositionCoeffs(1, 0.888, -1.857, 0.738)
        x = 0.709
        c0 = concurrence(coeffs, OverlapPair(x, x))
        assert 0.9 < c0 < 0.97
        record = ScanRecord(coeffs.lam, coeffs.rho, coeffs.nu, x, c0)
        refined = refine(record)
        assert refined.concurrence > 1.0 - 1e-10
        assert check_class_a(refined.coefficients(), x, 1e-8) or check_class_b(
            refined.coefficients(), x, 1e-8
        )

    def test_never_decreases_concurrence(self):
        rng = np.random.default_rng(61)
        tested = 0
        while tested < 40:
            lam, rho, nu = rng.uniform(-3, 3, size=3)
            x = rng.uniform(0.1, 0.9)
            c = concurrence(SuperpositionCoeffs(1, lam, rho, nu), OverlapPair(x, x))
            if c < 0.9:
                continue
            tested += 1
            record = ScanRecord(lam, rho, nu, x, c)
            assert refine(record).concurrence >= c

    @staticmethod
    def _random_hits(seed, count):
        rng = np.random.default_rng(seed)
        hits = []
        while len(hits) < count:
            lam, rho, nu = rng.uniform(-3, 3, size=3)
            x = rng.uniform(0.1, 0.9)
            c = concurrence(SuperpositionCoeffs(1, lam, rho, nu), OverlapPair(x, x))
            if c >= 0.9:
                hits.append(ScanRecord(lam, rho, nu, x, c))
        return hits

    def test_step_is_orthogonal_to_family(self):
        for record in self._random_hits(seed=17, count=40):
            refined = refine(record)
            assert refined.refine_converged
            step = np.array([refined.lam - record.lam, refined.rho - record.rho,
                             refined.nu - record.nu])
            if record.nu >= record.lam * record.rho:
                direction = np.array([1.0, -1.0, 0.0])  # class (a) line
            else:
                direction = np.array([1.0, 1.0, -2.0 * record.x])  # class (b) line
            assert abs(step @ direction) <= 1e-12 * np.linalg.norm(direction)

    def test_keeps_branch_sign(self):
        for record in self._random_hits(seed=23, count=40):
            refined = refine(record)
            before = record.nu - record.lam * record.rho
            after = refined.nu - refined.lam * refined.rho
            assert (before >= 0.0) == (after >= 0.0)

    def test_lower_concurrence_keeps_the_old_point(self):
        # claims C = 1 at 0.01 off the class (a) line; the projection's C
        # rounds below 1, so the old point comes back, flagged unconverged
        record = ScanRecord(-0.61, -0.6, 1.0, 0.61, 1.0)
        s = (record.lam + record.rho + 2.0 * record.x) / 2.0
        projected = SuperpositionCoeffs(1.0, record.lam - s, record.rho - s, 1.0)
        assert concurrence(projected, OverlapPair(0.61, 0.61)) < 1.0
        expected = ScanRecord(-0.61, -0.6, 1.0, 0.61, 1.0,
                              refined=True, refine_converged=False)
        assert refine(record) == expected
        assert refine_hits(ScanHits.from_records([record])).records() == [expected]

    def test_flags_are_keyword_only(self):
        # a stale call passing two residuals must not bind them to the flags
        with pytest.raises(TypeError):
            ScanRecord(-0.5, -0.5, 1.0, 0.5, 1.0, 0.0, 0.0)
        assert not ScanRecord(-0.5, -0.5, 1.0, 0.5, 1.0).refined

    def test_rejects_low_concurrence(self):
        record = ScanRecord(0.0, 0.0, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            refine(record)

    def test_nan_concurrence_raises(self, monkeypatch):
        ratio = scan_module._concurrence_ratio
        monkeypatch.setattr(scan_module, "_concurrence_ratio",
                            lambda *args: ratio(*args) * np.nan)
        # exact family points, which refine recomputes without moving
        records = [ScanRecord(-0.5, -0.5, 1.0, 0.5, 1.0),
                   ScanRecord(0.0, 0.0, -1.0, 0.3, 1.0)]
        message = (r"^refine: recomputed concurrence nan exceeded 1 beyond rounding "
                   r"slack at lam=-0\.5 rho=-0\.5 nu=1\.0 x=0\.5$")
        with pytest.raises(ConsistencyError, match=message):
            refine(records[0])
        with pytest.raises(ConsistencyError, match=message):
            refine_hits(ScanHits.from_records(records))


class TestVerifyDisjointClasses:
    def test_empty_input_passes(self):
        report = verify_disjoint_classes(ScanHits.from_records([]))
        assert report.passed
        assert report.n_maximal == 0

    def test_mixed_sweep_counts_both_classes(self):
        records = []
        for lam in (-0.2, -0.7, 0.4):
            coeffs = SuperpositionCoeffs(1, lam, -1.0 - lam, 1.0)  # class (a), x=0.5
            records.append(
                ScanRecord(coeffs.lam, coeffs.rho, coeffs.nu, 0.5,
                           concurrence(coeffs, OverlapPair(0.5, 0.5)))
            )
        for lam in (0.0, -1.0):
            coeffs = SuperpositionCoeffs(1, lam, lam, -1.0 - 2 * lam * 0.5)
            records.append(
                ScanRecord(coeffs.lam, coeffs.rho, coeffs.nu, 0.5,
                           concurrence(coeffs, OverlapPair(0.5, 0.5)))
            )
        report = verify_disjoint_classes(ScanHits.from_records(records), tol=1e-8)
        assert report.passed
        assert report.n_class_a == 3
        assert report.n_class_b == 2

    def test_detects_off_manifold_maximal_record(self):
        # a synthetic impostor: claims C = 1 while sitting on neither family
        impostor = ScanRecord(0.3, -0.2, 0.5, 0.5, 1.0)
        report = verify_disjoint_classes(ScanHits.from_records([impostor]), tol=1e-8)
        assert not report.passed
        assert report.violations[0][1] == "near-maximal but on neither family"
        assert "DISJOINTNESS VIOLATED" in report.summary()

    def test_ignores_sub_maximal_records(self):
        # off both families, and below the default 1 - 1e-10 maximal line
        records = [ScanRecord(0.3, -0.2, 0.5, 0.5, c) for c in (0.95, 1.0 - 1e-9)]
        report = verify_disjoint_classes(ScanHits.from_records(records), tol=1e-8)
        assert report.passed
        assert report.n_maximal == 0


class TestOracleSpotCheck:
    def test_passes_on_honest_records(self):
        x = 0.5
        records = []
        for lam in (-0.3, -0.5, -0.8):
            coeffs = SuperpositionCoeffs(1, lam, -1.0 - lam, 1.0)
            records.append(
                ScanRecord(lam, -1.0 - lam, 1.0, x,
                           concurrence(coeffs, OverlapPair(x, x)))
            )
        checked, worst = oracle_spot_check(ScanHits.from_records(records),
                                           fraction=1.0, seed=3)
        assert checked == len(records)
        assert worst < 1e-10

    def test_flags_wrong_concurrence(self):
        liar = ScanRecord(-0.5, -0.5, 1.0, 0.5, 0.25)
        with pytest.raises(ConsistencyError):
            oracle_spot_check(ScanHits.from_records([liar]), fraction=1.0, seed=3)

    def test_empty_records(self):
        assert oracle_spot_check(ScanHits.from_records([]), fraction=1.0,
                                 seed=3) == (0, 0.0)

    def test_config_for_overlap_reproduces_x(self):
        for x in (0.1, 0.5, 0.9):
            config = config_for_overlap(x)
            pair = OverlapPair.from_config(config)
            assert pair.p1 == pytest.approx(x, abs=1e-15)
            assert pair.p2 == pytest.approx(x, abs=1e-15)


class TestRunScan:
    def test_pipeline_on_narrow_band(self):
        config = ScanConfig(
            lam_range=(-1.5, 0.5, 41),
            rho_range=(-1.5, 0.5, 41),
            nu_range=(0.9, 1.1, 5),
            x_values=(0.5,),
            concurrence_threshold=0.9995,
            seed=7,
            oracle_fraction=0.05,
        )
        outcome = run_scan(config)
        assert outcome.report.passed
        assert outcome.n_grid_hits == len(outcome.hits)
        assert (outcome.n_grid_rows_bounded, outcome.n_grid_rows_kept) == grid_scan(
            config)[2:]
        assert outcome.n_refined > 0
        assert outcome.oracle_checked >= 1
        assert outcome.max_oracle_diff < 1e-8

    @pytest.mark.parametrize("x", [0.2, 0.8, 1.0 - 1e-6])
    def test_tol_that_joins_the_families_is_rejected(self, x):
        # (lam, rho, nu) = (-1, -x, x) lies 1 - x from both families in every
        # term, so at a tol of 1 - x it would pass both family checks
        assert family_checks(-1.0, -x, x, x, (1.0 - x) * (1.0 + 1e-12)) == (True, True)
        config = ScanConfig((-1.0, 1.0, 3), (-1.0, 1.0, 3), (-1.0, 1.0, 3),
                            x_values=(x, 0.1), concurrence_threshold=0.999)
        with pytest.raises(DomainError, match=r"below 1 - max\(x_values\) = "):
            run_scan(config, verify_tol=1.0 - x)
        assert run_scan(config, verify_tol=(1.0 - x) * 0.5).report.passed

    def test_pipeline_deterministic(self):
        config = ScanConfig(
            lam_range=(-1.5, 0.5, 21),
            rho_range=(-1.5, 0.5, 21),
            nu_range=(1.0, 1.0, 1),
            x_values=(0.5,),
            concurrence_threshold=0.999,
            seed=5,
        )
        first = run_scan(config)
        second = run_scan(config)
        assert first.hits.records() == second.hits.records()
        assert first.report == second.report
        assert first.max_oracle_diff == second.max_oracle_diff

    def test_overlap_near_one_stays_disjoint(self):
        config = ScanConfig(
            lam_range=(-3.0, 3.0, 61),
            rho_range=(-3.0, 3.0, 61),
            nu_range=(-3.0, 3.0, 61),
            x_values=(0.999,),
            concurrence_threshold=0.999,
        )
        outcome = run_scan(config)
        assert outcome.report.passed, outcome.report.summary()
        assert outcome.n_grid_hits == 38
        assert (outcome.report.n_class_a, outcome.report.n_class_b) == (22, 16)
        assert outcome.hits.refine_converged.all()


def list_refine(record):
    """refine as it was before hits became columns: scalar arithmetic, one
    record at a time, with maximality_residual's sums of squares inline."""
    def residual(lam, rho, nu, x):
        n = math.sqrt((1.0 - x) * (1.0 + x))
        a, b = x + lam + rho * x * x + nu * x, n * (1.0 + rho * x)
        c, d = n * (nu + rho * x), rho * n * n
        return min((a - d) * (a - d) + (b + c) * (b + c),
                   (a + d) * (a + d) + (b - c) * (b - c))

    x, lam, rho, nu = record.x, record.lam, record.rho, record.nu
    if residual(lam, rho, nu, x) > scan_module.REFINE_TARGET:
        if nu >= lam * rho:
            s = (lam + rho + 2.0 * x) / 2.0
            lam, rho, nu = lam - s, rho - s, 1.0
        else:
            t = (lam + rho - 2.0 * x * (nu + 1.0)) / (2.0 + 4.0 * x * x)
            lam, rho, nu = t, t, -1.0 - 2.0 * t * x
    c = concurrence(SuperpositionCoeffs(1.0, lam, rho, nu), OverlapPair(x, x))
    if c < record.concurrence:
        return ScanRecord(record.lam, record.rho, record.nu, x, record.concurrence,
                          refined=True, refine_converged=False)
    return ScanRecord(lam, rho, nu, x, c, refined=True,
                      refine_converged=residual(lam, rho, nu, x)
                      <= scan_module.REFINE_TARGET)


def list_verify(records, tol, maximal_tol=1e-10):
    """verify_disjoint_classes as it was before hits became columns: one pair
    of scalar family checks per near-maximal record."""
    n_a = n_b = n_max = 0
    violations = []
    for record in records:
        if record.concurrence <= 1.0 - maximal_tol:
            continue
        n_max += 1
        a_ok = check_class_a(record.coefficients(), record.x, tol)
        b_ok = check_class_b(record.coefficients(), record.x, tol)
        if a_ok and b_ok:
            violations.append((record, "on both families"))
        elif not a_ok and not b_ok:
            violations.append((record, "near-maximal but on neither family"))
        elif a_ok:
            n_a += 1
        else:
            n_b += 1
    return DisjointnessReport(not violations, len(records), n_max, n_a, n_b,
                              tuple(violations), tol, maximal_tol)


def list_csv(records, path, tol):
    """The scan CSV as it was written before: one classify call per row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lambda", "rho", "nu", "x", "concurrence",
                         "class_a_residual", "class_b_residual", "verdict"])
        for record in records:
            result = classify(record.coefficients(), record.x, tol)
            writer.writerow(
                [f"{v:.17g}" for v in (
                    record.lam, record.rho, record.nu, record.x, record.concurrence,
                    result.class_a_residual, result.class_b_residual,
                )] + [result.verdict.value]
            )


class TestColumnTail:
    """Refine, verify and the CSV on columns must equal the per-record tail."""

    @pytest.mark.parametrize("config", [
        cli._resolve_scan_config("theorem_check.cfg"),
        box(-3.0, 3.0, 241, (0.2, 0.5, 0.8), 0.999999),  # dense_sweep's box
        box(-3.0, 3.0, 9, (0.2, 0.5, 0.8), 0.5),  # hits below REFINE_FLOOR
        box(-1e150, 1e150, 5, (0.5,), 0.5),  # near the 2^500 box limit
    ], ids=["bundled", "dense", "box9", "huge"])
    def test_matches_per_record_tail(self, config, tmp_path):
        tol = 1e-9
        grid_hits = grid_scan(config)[0]
        records = [list_refine(r) if r.concurrence >= REFINE_FLOOR else r
                   for r in grid_hits.records()]
        list_csv(records, tmp_path / "reference.csv", tol)

        outcome = run_scan(config, verify_tol=tol)
        cli.write_records_csv(outcome.hits, tmp_path / "columns.csv", tol)
        assert outcome.hits.records() == records
        assert outcome.report == list_verify(records, tol)
        assert outcome.n_refined == sum(r.refined for r in records)
        assert ((tmp_path / "columns.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())


def bits(values):
    """Floats compared by repr, so that 0.0 and -0.0 differ."""
    return tuple(repr(float(v)) for v in values)


@st.composite
def scan_points(draw):
    """(lam, rho, nu, x): a family point, perhaps nudged, or a random point."""
    x = draw(st.floats(0.01, 0.99))
    f = draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["a", "b", "random"]))
    if kind == "a":
        point = [f, -2.0 * x - f, 1.0]
    elif kind == "b":
        point = [f, f, -1.0 - 2.0 * f * x]
    else:
        point = [draw(st.floats(-3.0, 3.0)) for _ in range(3)]
    nudge = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
    point = [v + nudge * draw(st.floats(-1.0, 1.0)) for v in point]
    return (*point, x)


@settings(max_examples=60, deadline=None)
@given(st.lists(scan_points(), min_size=1, max_size=12),
       st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_scalar_api_matches_columns_bit_for_bit(points, tol):
    records = [
        ScanRecord(lam, rho, nu, x, concurrence(SuperpositionCoeffs(1.0, lam, rho, nu),
                                                OverlapPair(x, x)))
        for lam, rho, nu, x in points
    ]
    hits = ScanHits.from_records(records)
    refined = refine_hits(hits)
    res_a, res_b, res_sep, codes = classify_columns(hits.lam, hits.rho, hits.nu,
                                                    hits.x, tol)
    on_a, on_b = family_checks(hits.lam, hits.rho, hits.nu, hits.x, tol)
    residuals = _maximality_residual(hits.lam, hits.rho, hits.nu, hits.x)
    for i, record in enumerate(records):
        expected = refine(record) if record.concurrence >= REFINE_FLOOR else record
        got = refined.record(i)
        assert bits((got.lam, got.rho, got.nu, got.x, got.concurrence)) == bits(
            (expected.lam, expected.rho, expected.nu, expected.x, expected.concurrence))
        assert (got.refined, got.refine_converged) == (expected.refined,
                                                       expected.refine_converged)
        coeffs, x = record.coefficients(), record.x
        result = classify(coeffs, x, tol)
        assert bits((res_a[i], res_b[i], res_sep[i])) == bits(result.residuals)
        assert VERDICTS[codes[i]] is result.verdict
        assert (on_a[i], on_b[i]) == (check_class_a(coeffs, x, tol),
                                      check_class_b(coeffs, x, tol))
        assert bits([residuals[i]]) == bits([maximality_residual(coeffs, x)])
