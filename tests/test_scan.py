import csv
import itertools
import math
import re
from typing import NamedTuple
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohent import analytic, cli
from cohent import oracle as oracle_module
from cohent import scan as scan_module
from cohent.analytic import SuperpositionCoeffs, concurrence, maximality_residual
from cohent.analytic import _concurrence_ratio, _norm_sq, max_concurrence_over_nu
from cohent.classify import Verdict, _family_terms, classify, family_checks
from cohent.coherent import OverlapPair
from cohent.errors import ConsistencyError, DegenerateStateError, DomainError
from cohent.errors import GridSizeError
from faults import failing_schmidt, spectrum_of
from cohent.scan import (
    FAMILIES,
    DisjointnessReport,
    ScanConfig,
    ScanHits,
    config_for_overlap,
    grid_scan,
    oracle_spot_check,
    refine,
    run_scan,
    verify_disjoint_classes,
)


class Hit(NamedTuple):
    """One scan hit as plain floats: the per-hit reference the columns must
    match."""

    lam: float
    rho: float
    nu: float
    x: float
    concurrence: float

    def coefficients(self):
        return SuperpositionCoeffs(1.0, self.lam, self.rho, self.nu)


def on_families(coeffs, x, tol):
    """family_checks of one state at p1 = p2 = x: (class (a), class (b))."""
    n = math.sqrt((1.0 - x) * (1.0 + x))
    return tuple(bool(flag) for flag in family_checks(
        coeffs.mu, coeffs.lam, coeffs.rho, coeffs.nu, x, x, n, n, tol))


def hit_list(hits):
    """The hits of a ScanHits, in order."""
    return [Hit(*row) for row in zip(*(column.tolist() for column in (
        hits.lam, hits.rho, hits.nu, hits.x, hits.concurrence)))]


def columns(points):
    """Fresh ScanHits from a sequence of Hit, in order."""
    return ScanHits(*(np.array([point[i] for point in points], dtype=float)
                      for i in range(5)))


def exact_concurrence(lam, rho, nu, x):
    """Concurrence at mu = 1, p1 = p2 = x from the Gram form in 50-digit
    arithmetic, as a float."""
    with mpmath.workdps(50):
        lam, rho, nu, x = (mpmath.mpf(v) for v in (lam, rho, nu, x))
        n_sq = (1 + lam**2 + rho**2 + nu**2 + 2 * (lam + rho * nu) * x
                + 2 * (rho + lam * nu) * x + 2 * (nu + lam * rho) * x**2)
        return float(2 * abs(nu - lam * rho) * (1 - x**2) / n_sq)


def read_at(monkeypatch, name, lam, rho, value):
    """Patch analytic.<name>, _norm_sq or _concurrence_ratio, to give `value`
    on the row (lam, rho) at mu = 1.  The kernels see each point on its unit
    ray, (1, lam, rho, nu) times mu, so the row is matched there."""
    real = getattr(analytic, name)
    monkeypatch.setattr(analytic, name, lambda mu, lams, rhos, *rest: np.where(
        (lams == lam * mu) & (rhos == rho * mu), value, real(mu, lams, rhos, *rest)))


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

    def test_rejects_box_whose_windows_overflow(self):
        # the grid's window arithmetic would overflow: analytic._row_terms'
        # t^2 and nu_windows' lam rho and discriminant
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
        for record in hit_list(hits):
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
        assert classify(hit_list(hits)[0].coefficients(),
                        OverlapPair(0.3, 0.3)).class_b_residual == 0.0
        assert hits.concurrence[0] >= 1.0 - 1e-9

    def test_matches_scalar_concurrence(self):
        config = small_config(nu_range=(-2.0, 2.0, 9))
        for record in hit_list(grid_scan(config)[0]):
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
        assert [(r.lam, r.rho, r.nu, r.concurrence) for r in hit_list(hits)] == expected

    def test_nan_concurrence_raises(self, monkeypatch):
        ratio = analytic._concurrence_ratio
        monkeypatch.setattr(analytic, "_concurrence_ratio",
                            lambda *args: ratio(*args) * np.nan)
        # the first kept row, lam = rho = -2, holds the class (b) point nu = 1
        with pytest.raises(ConsistencyError,
                           match=r"^grid_scan: concurrence evaluated to nan, beyond "
                                 r"rounding slack .* at lam=-2\.0 rho=-2\.0 nu=1\.0 "
                                 r"x=0\.5$"):
            grid_scan(small_config())

    def test_hits_match_the_scalar_concurrence_bit_for_bit(self):
        # a low threshold, so that most points are hits, at overlaps across
        # (0, 1)
        x = np.random.default_rng(5).uniform(1e-6, 1.0 - 1e-6, size=4)
        config = box(-3.0, 3.0, 8, tuple(x.tolist()), 0.05)
        hits = hit_list(grid_scan(config)[0])
        assert len(hits) > config.total_points() // 2
        for hit in hits:
            assert hit.concurrence == concurrence(hit.coefficients(),
                                                  OverlapPair(hit.x, hit.x))

    def test_degenerate_point_names_the_stage_and_point(self, monkeypatch):
        # (lam, rho, nu) = (0, -1, 1) is on class (a), after other points of
        # its block
        read_at(monkeypatch, "_norm_sq", 0.0, -1.0, 0.0)
        message = (r"^grid_scan: squared norm 0\.000e\+00 is numerically zero; .* at "
                   r"lam=0\.0 rho=-1\.0 nu=1\.0 x=0\.5$")
        with pytest.raises(DegenerateStateError, match=message) as err:
            grid_scan(small_config())
        assert err.value.__cause__.index > 0

    def test_earliest_failing_point_is_named_whichever_check_it_fails(self,
                                                                     monkeypatch):
        # C beyond the slack at the first kept row, lam = rho = -2, and N^2
        # numerically zero at a later point of the same block, (0, -1)
        read_at(monkeypatch, "_concurrence_ratio", -2.0, -2.0, 2.0)
        read_at(monkeypatch, "_norm_sq", 0.0, -1.0, 0.0)
        assert scan_module._BLOCK > small_config().total_points()
        with pytest.raises(ConsistencyError,
                           match=r"^grid_scan: concurrence evaluated to 2\.0, beyond "
                                 r"rounding slack .* at lam=-2\.0 rho=-2\.0 nu=1\.0 "
                                 r"x=0\.5$"):
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
        assert hit_list(first) == hit_list(second)
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
                records.append(Hit(lam, float(rhos[ir]), float(nus[iv]), x,
                                   float(c[ir, iv])))
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
        assert hit_list(hits) == full_sweep(config)
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
        assert hit_list(hits) == full_sweep(config)
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
        assert hit_list(hits) == full_sweep(config) == hit_list(default_hits)
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
        # Each chunk of bounded rows is windowed as it comes: it ends with the
        # 13-point rho window that takes it to `block` rows or past.
        assert all(0 < size < block + 13 for size in sizes)
        assert evaluated == config.total_points()
        assert hit_list(hits) == full_sweep(config)

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
        assert hit_list(grid_scan(config)[0]) == full_sweep(config)

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
        assert hit_list(hits) == full_sweep(config)

    def test_wide_box(self):
        config = ScanConfig(
            lam_range=(-1e3, 1e3, 41),
            rho_range=(-1e3, 1e3, 41),
            nu_range=(-1e3, 1e3, 41),
            x_values=(0.2, 0.7),
            concurrence_threshold=0.9,
        )
        hits, evaluated, *_ = grid_scan(config)
        assert hit_list(hits) == full_sweep(config)
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
    assert hit_list(hits) == full_sweep(config)
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
    calls = []
    windows = scan_module.nu_windows

    def recorded(lam, rho, x, floor):
        calls.append((lam, rho, x))
        return windows(lam, rho, x, floor)

    with mock.patch.object(scan_module, "_BLOCK", block), \
            mock.patch.object(scan_module, "nu_windows", recorded):
        _, _, bounded, rows_kept = grid_scan(config)
    # the kept rows are the rows grid_scan takes the nu windows of
    kept = [row for lam, rho, x in calls
            for row in zip(lam.tolist(), rho.tolist(), np.ravel(x).tolist())]
    assert kept == all_kept_rows(config)
    assert len(kept) == rows_kept <= bounded <= len(
        config.x_values) * config.lam_range[2] * config.rho_range[2]


def refine_hit(hit):
    """The scalar refine of one Hit: the refined Hit and whether it
    converged."""
    lam, rho, nu, c, converged = refine(*hit)
    return Hit(lam, rho, nu, hit.x, c), converged


class TestRefine:
    def test_grid_hit_lands_on_class_a(self):
        record = Hit(
            lam=-0.49, rho=-0.51, nu=1.0, x=0.5,
            concurrence=concurrence(
                SuperpositionCoeffs(1, -0.49, -0.51, 1.0), OverlapPair(0.5, 0.5)
            ),
        )
        refined, converged = refine_hit(record)
        assert converged
        assert maximality_residual(refined.coefficients(), 0.5) < 1e-12
        assert on_families(refined.coefficients(), 0.5, 1e-8)[0]

    def test_exact_manifold_point_unchanged(self):
        # one exact point per family: class (a), then class (b)
        for point in ((-0.5, -0.5, 1.0), (-0.5, -0.5, -0.5)):
            record = Hit(*point, x=0.5, concurrence=1.0)
            refined, converged = refine_hit(record)
            assert (refined.lam, refined.rho, refined.nu) == point
            assert converged

    def test_far_start_reaches_a_family(self):
        # C ~ 0.95, well off both manifolds
        coeffs = SuperpositionCoeffs(1, 0.888, -1.857, 0.738)
        x = 0.709
        c0 = concurrence(coeffs, OverlapPair(x, x))
        assert 0.9 < c0 < 0.97
        record = Hit(coeffs.lam, coeffs.rho, coeffs.nu, x, c0)
        refined, _ = refine_hit(record)
        assert refined.concurrence > 1.0 - 1e-10
        assert any(on_families(refined.coefficients(), x, 1e-8))

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
            record = Hit(lam, rho, nu, x, c)
            assert refine_hit(record)[0].concurrence >= c

    @staticmethod
    def _random_hits(seed, count):
        rng = np.random.default_rng(seed)
        hits = []
        while len(hits) < count:
            lam, rho, nu = rng.uniform(-3, 3, size=3)
            x = rng.uniform(0.1, 0.9)
            c = concurrence(SuperpositionCoeffs(1, lam, rho, nu), OverlapPair(x, x))
            if c >= 0.9:
                hits.append(Hit(lam, rho, nu, x, c))
        return hits

    def test_step_is_orthogonal_to_family(self):
        for record in self._random_hits(seed=17, count=40):
            refined, converged = refine_hit(record)
            assert converged
            step = np.array([refined.lam - record.lam, refined.rho - record.rho,
                             refined.nu - record.nu])
            if record.nu >= record.lam * record.rho:
                direction = np.array([1.0, -1.0, 0.0])  # class (a) line
            else:
                direction = np.array([1.0, 1.0, -2.0 * record.x])  # class (b) line
            assert abs(step @ direction) <= 1e-12 * np.linalg.norm(direction)

    def test_keeps_branch_sign(self):
        for record in self._random_hits(seed=23, count=40):
            refined, _ = refine_hit(record)
            before = record.nu - record.lam * record.rho
            after = refined.nu - refined.lam * refined.rho
            assert (before >= 0.0) == (after >= 0.0)

    def test_off_family_point_moves_onto_its_family(self):
        # claims C = 1 at 0.01 off the class (a) line; the projection's C
        # rounds below 1, but the projected point is on the family, so it
        # replaces the old one
        record = Hit(-0.61, -0.6, 1.0, 0.61, 1.0)
        s = (record.lam + record.rho + 2.0 * record.x) / 2.0
        projected = SuperpositionCoeffs(1.0, record.lam - s, record.rho - s, 1.0)
        c = concurrence(projected, OverlapPair(0.61, 0.61))
        assert c < 1.0
        assert on_families(projected, 0.61, scan_module.REFINE_TARGET)[0]
        assert refine(-0.61, -0.6, 1.0, 0.61, 1.0) == (projected.lam, projected.rho,
                                                        1.0, c, True)

    def test_unconverged_projection_keeps_the_old_point(self, monkeypatch):
        # a family test that passes nothing: every point moves, and no
        # projection converges, so each old point comes back, flagged
        monkeypatch.setattr(scan_module, "family_checks",
                            lambda *args: (np.False_, np.False_))
        records = [Hit(-0.61, -0.6, 1.0, 0.61, 1.0),
                   Hit(0.3, 0.2, -1.5, 0.4, 0.95)]
        assert [refine_hit(r) for r in records] == [(r, False) for r in records]

    def test_rejects_low_concurrence(self):
        with pytest.raises(DomainError, match=r"^refine expects a near-maximal hit"):
            refine(0.0, 0.0, 0.5, 0.5, 0.5)

    def test_rejects_nan_concurrence(self):
        with pytest.raises(DomainError, match=r"got C = nan$"):
            refine(-0.5, -0.5, 1.0, 0.5, math.nan)

    def test_nan_concurrence_raises(self, monkeypatch):
        ratio = analytic._concurrence_ratio
        monkeypatch.setattr(analytic, "_concurrence_ratio",
                            lambda *args: ratio(*args) * np.nan)
        # an exact family point, which refine recomputes without moving
        message = (r"^refine: recomputed concurrence evaluated to nan, beyond rounding "
                   r"slack above 1; this indicates a bug rather than float noise at "
                   r"lam=-0\.5 rho=-0\.5 nu=1\.0 x=0\.5$")
        with pytest.raises(ConsistencyError, match=message):
            refine_hit(Hit(-0.5, -0.5, 1.0, 0.5, 1.0))


def honest(lam, rho, nu, x):
    """A Hit at (lam, rho, nu, x) with the grid's own C."""
    return Hit(lam, rho, nu, x,
               concurrence(SuperpositionCoeffs(1.0, lam, rho, nu), OverlapPair(x, x)))


class TestVerifyDisjointClasses:
    def test_empty_input_passes(self):
        report = verify_disjoint_classes(columns([]))
        assert report.violations == []
        assert (report.n_maximal, report.n_ambiguous, report.worst_ratio) == (0, 0, None)

    def test_mixed_sweep_counts_both_classes(self):
        records = [honest(lam, -1.0 - lam, 1.0, 0.5)  # class (a), x = 0.5
                   for lam in (-0.2, -0.7, 0.4)]
        records += [honest(lam, lam, -1.0 - 2 * lam * 0.5, 0.5)  # class (b)
                    for lam in (0.0, -1.0)]
        report = verify_disjoint_classes(columns(records))
        assert report.violations == []
        assert (report.n_class_a, report.n_class_b, report.n_ambiguous) == (3, 2, 0)
        assert report.family.tolist() == [0, 0, 0, 1, 1]
        # each lies on its family within the rounding band, so gives no ratio
        assert report.worst_ratio is None
        # a hit off both families gives one, at least 1
        report = verify_disjoint_classes(columns(records + [honest(0.3, -0.2, 0.5, 0.5)]))
        assert report.worst_ratio >= 1.0

    def test_hit_within_reach_of_both_families_is_ambiguous(self):
        # (lam, rho, nu) = (-1, -x, x) has |P_a v|^2 = |P_b v|^2 = 2 (1 - x)^2
        report = verify_disjoint_classes(columns([honest(-1.0, -0.5, 0.5, 0.5)]))
        assert report.violations == []
        assert (report.n_class_a, report.n_class_b, report.n_ambiguous) == (0, 0, 1)
        assert [FAMILIES[code] for code in report.family] == ["ambiguous"]
        # it attains the upper side, (1 + x) / (1 - x) times the lower one
        assert report.worst_ratio == pytest.approx(3.0)

    def test_detects_off_manifold_maximal_record(self):
        # a synthetic impostor: claims C = 1 while sitting on neither family
        impostor = Hit(0.3, -0.2, 0.5, 0.5, 1.0)
        report = verify_disjoint_classes(columns([impostor]))
        assert report.violations == [
            {"reason": "N^2 (1 - C) below (1 - x) min_f |P_f v|^2", "lambda": 0.3,
             "rho": -0.2, "nu": 0.5, "x": 0.5, "concurrence": 1.0}]
        assert report.worst_ratio < 1e-12

    def test_nan_concurrence_is_a_violation(self):
        report = verify_disjoint_classes(columns([Hit(-0.5, -0.5, 1.0, 0.5, math.nan)]))
        assert len(report.violations) == 1

    def test_tests_sub_maximal_records(self):
        # off both families: its own C passes, a C of 1 - 1e-9 does not
        record = honest(0.3, -0.2, 0.5, 0.5)
        assert record.concurrence < 0.95
        report = verify_disjoint_classes(columns([record]))
        assert report.violations == []
        assert report.n_maximal == 1
        lying = record._replace(concurrence=1.0 - 1e-9)
        assert verify_disjoint_classes(columns([lying])).violations


@st.composite
def bound_points(draw):
    """(lam, rho, nu, x) at mu = 1: a point on a family, near one or far
    from both, at x near 1e-6, 1/2 or 1 - 1e-6, with coefficients up to
    about 1e149, inside the 2^500 box limit."""
    x = draw(st.sampled_from([1e-6, 2e-6, 0.5, 1.0 - 2e-6, 1.0 - 1e-6]))
    f = draw(st.floats(-10.0, 10.0)) * draw(st.sampled_from([1.0, 1e-100, 1e100, 1e148]))
    kind = draw(st.sampled_from(["a", "b", "random"]))
    if kind == "a":
        point = [f, -2.0 * x - f, 1.0]
    elif kind == "b":
        point = [f, f, -1.0 - 2.0 * f * x]
    else:
        point = [f * draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    nudge = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3]))
    size = max(1.0, *map(abs, point))
    return (*(v + nudge * size * draw(st.floats(-1.0, 1.0)) for v in point), x)


@settings(max_examples=400, deadline=None)
@given(st.lists(bound_points(), min_size=1, max_size=8))
# a lower bound of 5e-324: its ratio overflowed to inf, with a RuntimeWarning
@example([(0.0, 7.24808378e-162, -1.0, 1e-6)])
def test_band_never_flags_a_correct_hit(points):
    # a run must never exit 5 from float trouble
    hits = []
    for point in points:
        try:
            hits.append(honest(*point))
        except DegenerateStateError:
            continue
    report = verify_disjoint_classes(columns(hits))
    assert report.violations == []
    assert report.n_class_a + report.n_class_b + report.n_ambiguous == len(hits)
    if report.worst_ratio is not None:
        assert report.worst_ratio >= 1.0


class TestOracleSpotCheck:
    def test_passes_on_honest_records(self):
        x = 0.5
        records = []
        for lam in (-0.3, -0.5, -0.8):
            coeffs = SuperpositionCoeffs(1, lam, -1.0 - lam, 1.0)
            records.append(
                Hit(lam, -1.0 - lam, 1.0, x,
                    concurrence(coeffs, OverlapPair(x, x)))
            )
        checked, worst = oracle_spot_check(columns(records), fraction=1.0, seed=3)
        assert checked == len(records)
        assert type(worst) is float
        assert worst < 1e-10

    @pytest.mark.parametrize("target, error", [
        ("concurrence", ConsistencyError),
        ("schmidt_concurrence", ConsistencyError),
    ])
    def test_failure_past_the_first_block_names_its_record(self, monkeypatch,
                                                           target, error):
        # Every record is at x = 0.5, so at one Fock cutoff.  The third
        # record of the oracle's second stack disagrees with the oracle by
        # 1e-3 or fails the Schmidt rule; the error names that record.
        failing = oracle_module._stack_size(
            *oracle_module.mode_cutoffs(config_for_overlap(0.5).half_gaps)) + 3
        records = [honest(-0.01 * k, -1.0 + 0.01 * k, 1.0, 0.5)
                   for k in range(1, failing + 4)]
        lam, rho, nu, x, c = records[failing - 1]
        if target == "schmidt_concurrence":
            spectra = [spectrum_of(config_for_overlap(x), SuperpositionCoeffs(1.0, *r[:3]))
                       for r in records]
            spectrum = spectra[failing - 1]
            # The fault finds the record by its spectrum, which no other has.
            assert sum(np.array_equal(s, spectrum) for s in spectra) == 1
            monkeypatch.setattr(oracle_module, "schmidt_concurrences",
                                failing_schmidt(spectrum, error))
            message = "check failed"
        else:
            records[failing - 1] = records[failing - 1]._replace(concurrence=c - 1e-3)
            message = "oracle disagrees with the closed form by 1.000e-03"
        with pytest.raises(error, match="^" + re.escape(
                f"oracle spot check: {message} at lam={lam!r} rho={rho!r} "
                f"nu=1.0 x=0.5") + "$"):
            oracle_spot_check(columns(records), fraction=1.0, seed=3)

    def test_disagreement_before_an_oracle_failure_is_named_first(self, monkeypatch):
        # The oracle fails record 5; record 2 disagrees with the oracle, and
        # is named.
        records = [honest(-0.01 * k, -1.0 + 0.01 * k, 1.0, 0.5) for k in range(1, 8)]
        records[1] = records[1]._replace(concurrence=0.5)
        monkeypatch.setattr(oracle_module, "schmidt_concurrences", failing_schmidt(
            spectrum_of(config_for_overlap(0.5), SuperpositionCoeffs(1.0, *records[4][:3])),
            ConsistencyError))
        with pytest.raises(ConsistencyError, match=(
                r"^oracle spot check: oracle disagrees with the closed form by .* "
                f"at lam={records[1].lam!r} ")):
            oracle_spot_check(columns(records), fraction=1.0, seed=3)

    def test_flags_wrong_concurrence(self):
        liar = Hit(-0.5, -0.5, 1.0, 0.5, 0.25)
        honest = Hit(0.0, 0.0, 0.0, 0.2, 0.0)
        with pytest.raises(ConsistencyError, match=(
                r"^oracle spot check: oracle disagrees with the closed form by .* "
                r"at lam=-0\.5 rho=-0\.5 nu=1\.0 x=0\.5$")):
            oracle_spot_check(columns([honest, liar]), fraction=1.0, seed=3)

    def test_records_one_ulp_below_one_pass(self):
        # At x one ulp below 1 the amplitude gap is 1.5e-8, and the product
        # state (|a> - |g>)(|b> - |d>) has a joint norm of about 2e-16 next
        # to coefficients summing to 4; each joint entry is one product of
        # ulp-exact factors, so the oracle builds it to a few eps.
        x = 1.0 - 2.0**-53
        records = [Hit(0.0, 0.0, 1.0, x, 0.0),
                   Hit(-1.0, -1.0, 1.0, x, 0.0)]
        checked, worst = oracle_spot_check(columns(records), fraction=1.0, seed=3)
        assert checked == 2 and worst <= 1e-15

    def test_nan_concurrence_fails(self):
        record = Hit(0.0, 0.0, 1.0, 0.5, math.nan)
        with pytest.raises(ConsistencyError, match="^oracle spot check: "):
            oracle_spot_check(columns([record]), fraction=1.0, seed=3)

    def test_empty_records(self):
        assert oracle_spot_check(columns([]), fraction=1.0, seed=3) == (0, 0.0)

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
        _, _, report = run_scan(config)
        assert report["disjoint"]
        assert report["violations"] == []
        assert (report["grid_rows_bounded"], report["grid_rows_kept"]) == grid_scan(
            config)[2:]
        assert report["oracle_checked"] >= 1
        assert report["max_oracle_diff"] < 1e-8

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
        assert hit_list(first[0]) == hit_list(second[0])
        assert first[1].tolist() == second[1].tolist()
        assert first[2] == second[2]

    def test_overlap_near_one_stays_disjoint(self):
        config = ScanConfig(
            lam_range=(-3.0, 3.0, 61),
            rho_range=(-3.0, 3.0, 61),
            nu_range=(-3.0, 3.0, 61),
            x_values=(0.999,),
            concurrence_threshold=0.999,
        )
        _, _, report = run_scan(config)
        assert report["violations"] == []
        assert (report["hits"], report["class_a"], report["class_b"],
                report["ambiguous"]) == (38, 22, 16, 0)

    def test_box_near_the_size_limit_stays_in_the_bound(self):
        # max|v| = 1e150: the terms are formed on the unit ray, where their
        # squares cannot overflow
        _, _, report = run_scan(box(-1e150, 1e150, 5, (0.5,), 0.5))
        assert report["violations"] == []
        assert (report["class_a"], report["class_b"], report["ambiguous"]) == (28, 21, 0)


def list_verify(records):
    """verify_disjoint_classes one record at a time, in scalar arithmetic."""
    counts, ratios, violations, family = [0, 0, 0], [], [], []
    for lam, rho, nu, x, c in records:
        e = math.frexp(max(1.0, abs(lam), abs(rho), abs(nu)))[1] - 1
        v = [math.ldexp(coefficient, -e) for coefficient in (1.0, lam, rho, nu)]
        n = math.sqrt((1.0 - x) * (1.0 + x))
        (a1, a2), (b1, b2), _ = _family_terms(*v, x, x, n, n)
        to_a, to_b = a1 * a1 + a2 * a2, b1 * b1 + b2 * b2
        size = sum(map(abs, v))
        band = scan_module._BAND * size * size
        residual = _norm_sq(*v, x, x, n, n) * (1.0 - c)
        lower = (1.0 - x) * min(to_a, to_b)
        point = {"lambda": lam, "rho": rho, "nu": nu, "x": x, "concurrence": c}
        if not lower <= residual + band:
            violations.append({"reason": "N^2 (1 - C) below (1 - x) min_f |P_f v|^2",
                               **point})
        elif not residual <= (1.0 + x) * min(to_a, to_b) + band:
            violations.append({"reason": "N^2 (1 - C) above (1 + x) min_f |P_f v|^2",
                               **point})
        if (1.0 - x) * to_b > residual + band:
            family.append(0)
        elif (1.0 - x) * to_a > residual + band:
            family.append(1)
        else:
            family.append(2)
        counts[family[-1]] += 1
        if lower > band:
            ratios.append((residual + band) / lower)
    return DisjointnessReport(len(records), *counts, min(ratios, default=None),
                              violations, np.array(family, dtype=int))


def list_csv(records, family, path):
    """The scan CSV one row at a time, as csv.writer writes it."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["lambda", "rho", "nu", "x", "concurrence", "family"])
        for record, code in zip(records, family):
            writer.writerow([f"{v:.17g}" for v in record] + [FAMILIES[code]])


class TestColumnTail:
    """Verify and the CSV on columns must equal the per-record tail."""

    @pytest.mark.parametrize("config", [
        cli._resolve_scan_config("theorem_check.cfg"),
        box(-3.0, 3.0, 241, (0.2, 0.5, 0.8), 0.999999),  # dense_sweep's box
        box(-3.0, 3.0, 9, (0.2, 0.5, 0.8), 0.5),  # hits far below C = 1
        box(-1e150, 1e150, 5, (0.5,), 0.5),  # near the 2^500 box limit
    ], ids=["bundled", "dense", "box9", "huge"])
    def test_matches_per_record_tail(self, config, tmp_path):
        records = hit_list(grid_scan(config)[0])
        reference = list_verify(records)
        list_csv(records, reference.family, tmp_path / "reference.csv")

        hits, family, report = run_scan(config)
        cli.write_records_csv(hits, family, tmp_path / "columns.csv")
        assert hit_list(hits) == records
        assert ([report[key] for key in ("hits", "class_a", "class_b", "ambiguous",
                                          "worst_lower_bound_ratio", "violations")]
                == [reference.n_maximal, reference.n_class_a, reference.n_class_b,
                    reference.n_ambiguous, reference.worst_ratio, reference.violations])
        assert family.tolist() == reference.family.tolist()
        assert ((tmp_path / "columns.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    @pytest.mark.parametrize("n", [0, 2 * cli._CSV_BLOCK + 3])
    def test_csv_of_repeated_and_signed_zero_values(self, n, tmp_path):
        # The writer formats each distinct value of a column once; no scan
        # output has a -0, so only this test sees 0.0 and -0.0 in one column.
        rng = np.random.default_rng(5)
        hits = ScanHits(
            rng.choice([0.0, -0.0, 0.5, -1.25, 1.0 / 3.0], n),
            rng.choice([-0.0, 0.0, 2.0, 1e-300], n),
            rng.uniform(-3.0, 3.0, n),
            rng.choice([0.2, 0.5, 0.8], n),
            rng.choice([1.0, 0.0, -0.0, 0.9999999999999999], n),
        )
        family = rng.integers(0, len(FAMILIES), n)
        cli.write_records_csv(hits, family, tmp_path / "columns.csv")
        list_csv(hit_list(hits), family, tmp_path / "reference.csv")
        written = (tmp_path / "columns.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        lams = {line.split(b",")[0] for line in written.splitlines()[1:]}
        assert lams == ({b"0", b"-0", b"0.5", b"-1.25", b"0.33333333333333331"}
                        if n else set())
        if not n:
            assert written == cli._CSV_HEADER.encode()


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
        Hit(lam, rho, nu, x, concurrence(SuperpositionCoeffs(1.0, lam, rho, nu),
                                         OverlapPair(x, x)))
        for lam, rho, nu, x in points
    ]
    hits = columns(records)
    n = np.sqrt((1.0 - hits.x) * (1.0 + hits.x))
    on_a, on_b = family_checks(1.0, hits.lam, hits.rho, hits.nu, hits.x, hits.x, n, n,
                               tol)
    for i, record in enumerate(records):
        coeffs, x = record.coefficients(), record.x
        assert (on_a[i], on_b[i]) == on_families(coeffs, x, tol)
        # after separability, classify's verdict follows the family checks
        verdict = classify(coeffs, OverlapPair(x, x), tol).verdict
        if verdict is not Verdict.SEPARABLE:
            assert verdict is (Verdict.MAXIMAL_CLASS_A if on_a[i] else
                               Verdict.MAXIMAL_CLASS_B if on_b[i] else
                               Verdict.INTERMEDIATE)
