import math

import mpmath
import numpy as np
import pytest

from cohent.analytic import SuperpositionCoeffs, concurrence, maximality_residual
from cohent.classify import (
    check_class_a,
    check_class_b,
    class_a_residual,
    class_b_residual,
)
from cohent.coherent import OverlapPair
from cohent.errors import ConsistencyError, DomainError, GridSizeError
from cohent.scan import (
    ScanConfig,
    ScanRecord,
    config_for_overlap,
    grid_scan,
    oracle_spot_check,
    refine,
    run_scan,
    verify_disjoint_classes,
)


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
        hits, _ = grid_scan(config)
        assert hits
        step = 4.0 / 80.0
        for record in hits:
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
        assert grid_scan(config) == ([], 0)

    def test_single_point_antisymmetric(self):
        config = ScanConfig(
            lam_range=(0.0, 0.0, 1),
            rho_range=(0.0, 0.0, 1),
            nu_range=(-1.0, -1.0, 1),
            x_values=(0.3,),
            concurrence_threshold=1.0 - 1e-9,
        )
        hits, _ = grid_scan(config)
        assert len(hits) == 1
        assert hits[0].class_b_residual == 0.0
        assert hits[0].concurrence >= 1.0 - 1e-9

    def test_matches_scalar_concurrence(self):
        config = small_config(nu_range=(-2.0, 2.0, 9))
        for record in grid_scan(config)[0]:
            scalar = concurrence(record.coefficients(), OverlapPair(record.x, record.x))
            assert record.concurrence == scalar

    def test_deterministic_across_runs(self):
        config = ScanConfig(
            lam_range=(-3.0, 3.0, 31),
            rho_range=(-3.0, 3.0, 31),
            nu_range=(-3.0, 3.0, 31),
            x_values=(0.2, 0.8),
            concurrence_threshold=0.995,
        )
        assert grid_scan(config) == grid_scan(config)


def full_sweep(config):
    """Every grid point through the Gram form, one (rho, nu) slab per lam: the
    sweep as it was before grid_scan skipped rows."""
    lams, rhos, nus = config.axes()
    rho, nu = rhos[:, None], nus[None, :]
    records = []
    for x in config.x_values:
        n1 = math.sqrt((1.0 - x) * (1.0 + x))
        for lam in lams.tolist():
            n_sq = (
                (1.0 + lam * lam + rho * rho + nu * nu)
                + 2.0 * (lam + rho * nu) * x
                + 2.0 * (rho + lam * nu) * x
                + 2.0 * (nu + lam * rho) * x * x
            )
            c = 2.0 * np.abs(nu - lam * rho) * n1 * n1 / n_sq
            if float(c.max()) > 1.0 + 1e-9:
                raise ConsistencyError("grid concurrence exceeded 1")
            c = np.minimum(c, 1.0)
            hit_rho, hit_nu = np.nonzero(c >= config.concurrence_threshold)
            for ir, iv in zip(hit_rho.tolist(), hit_nu.tolist()):
                coeffs = SuperpositionCoeffs(1.0, lam, float(rhos[ir]), float(nus[iv]))
                records.append(ScanRecord(
                    coeffs.lam, coeffs.rho, coeffs.nu, x, float(c[ir, iv]),
                    class_a_residual(coeffs, x), class_b_residual(coeffs, x),
                ))
    return records


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
        records, evaluated = grid_scan(config)
        assert records == full_sweep(config)
        assert evaluated % 25 == 0 and evaluated <= config.total_points()

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
        assert grid_scan(config)[0] == full_sweep(config)

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
        records, _ = grid_scan(config)
        assert records
        assert records == full_sweep(config)

    def test_wide_box(self):
        config = ScanConfig(
            lam_range=(-1e3, 1e3, 41),
            rho_range=(-1e3, 1e3, 41),
            nu_range=(-1e3, 1e3, 41),
            x_values=(0.2, 0.7),
            concurrence_threshold=0.9,
        )
        records, evaluated = grid_scan(config)
        assert records == full_sweep(config)
        assert evaluated < config.total_points()

    def test_near_one_follows_the_exact_value(self):
        # At x = 1 - 1e-6 the Gram form overshoots this point's concurrence by
        # ~7.5e-6: the full sweep reports it, the exact row maximum is below
        # the threshold, and the pruned sweep skips the row.
        x = 1.0 - 1e-6
        point = (-1.001190630430563, -1.0011786521822075, 1.002367289157893)
        config = ScanConfig(*((v, v, 1) for v in point), x_values=(x,),
                            concurrence_threshold=0.99998)
        with mpmath.workdps(50):
            lam, rho, nu, xm = (mpmath.mpf(v) for v in (*point, x))
            n_sq = (1 + lam**2 + rho**2 + nu**2 + 2 * (lam + rho * nu) * xm
                    + 2 * (rho + lam * nu) * xm + 2 * (nu + lam * rho) * xm**2)
            exact = 2 * abs(nu - lam * rho) * (1 - xm**2) / n_sq
        assert exact < config.concurrence_threshold
        assert len(full_sweep(config)) == 1
        assert grid_scan(config) == ([], 0)


class TestRefine:
    def test_grid_hit_lands_on_class_a(self):
        record = ScanRecord(
            lam=-0.49, rho=-0.51, nu=1.0, x=0.5,
            concurrence=concurrence(
                SuperpositionCoeffs(1, -0.49, -0.51, 1.0), OverlapPair(0.5, 0.5)
            ),
            class_a_residual=0.0, class_b_residual=0.0,
        )
        refined = refine(record)
        assert refined.refined
        assert refined.refine_converged
        assert maximality_residual(refined.coefficients(), 0.5) < 1e-12
        assert check_class_a(refined.coefficients(), 0.5, 1e-8)

    def test_exact_manifold_point_unchanged(self):
        # one exact point per family: class (a), then class (b)
        for point in ((-0.5, -0.5, 1.0), (-0.5, -0.5, -0.5)):
            record = ScanRecord(
                *point, x=0.5,
                concurrence=1.0, class_a_residual=0.0, class_b_residual=0.0,
            )
            refined = refine(record)
            assert (refined.lam, refined.rho, refined.nu) == point
            assert refined.refine_converged

    def test_far_start_reaches_a_family(self):
        # C ~ 0.95, well off both manifolds
        coeffs = SuperpositionCoeffs(1, 0.888, -1.857, 0.738)
        x = 0.709
        c0 = concurrence(coeffs, OverlapPair(x, x))
        assert 0.9 < c0 < 0.97
        record = ScanRecord(coeffs.lam, coeffs.rho, coeffs.nu, x, c0, 0.0, 0.0)
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
            record = ScanRecord(lam, rho, nu, x, c, 0.0, 0.0)
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
                hits.append(ScanRecord(lam, rho, nu, x, c, 0.0, 0.0))
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

    def test_rejects_low_concurrence(self):
        record = ScanRecord(0.0, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            refine(record)


class TestVerifyDisjointClasses:
    def test_empty_input_passes(self):
        report = verify_disjoint_classes([])
        assert report.passed
        assert report.n_maximal == 0

    def test_mixed_sweep_counts_both_classes(self):
        records = []
        for lam in (-0.2, -0.7, 0.4):
            coeffs = SuperpositionCoeffs(1, lam, -1.0 - lam, 1.0)  # class (a), x=0.5
            records.append(
                ScanRecord(coeffs.lam, coeffs.rho, coeffs.nu, 0.5,
                           concurrence(coeffs, OverlapPair(0.5, 0.5)), 0.0, 0.0)
            )
        for lam in (0.0, -1.0):
            coeffs = SuperpositionCoeffs(1, lam, lam, -1.0 - 2 * lam * 0.5)
            records.append(
                ScanRecord(coeffs.lam, coeffs.rho, coeffs.nu, 0.5,
                           concurrence(coeffs, OverlapPair(0.5, 0.5)), 0.0, 0.0)
            )
        report = verify_disjoint_classes(records, tol=1e-8)
        assert report.passed
        assert report.n_class_a == 3
        assert report.n_class_b == 2

    def test_detects_off_manifold_maximal_record(self):
        # a synthetic impostor: claims C = 1 while sitting on neither family
        impostor = ScanRecord(0.3, -0.2, 0.5, 0.5, 1.0, 1.0, 1.0)
        report = verify_disjoint_classes([impostor], tol=1e-8)
        assert not report.passed
        assert report.violations[0][1] == "near-maximal but on neither family"
        assert "DISJOINTNESS VIOLATED" in report.summary()

    def test_ignores_sub_maximal_records(self):
        intermediate = ScanRecord(0.3, -0.2, 0.5, 0.5, 0.95, 1.0, 1.0)
        report = verify_disjoint_classes([intermediate], tol=1e-8)
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
                           concurrence(coeffs, OverlapPair(x, x)), 0.0, 0.0)
            )
        checked, worst = oracle_spot_check(records, fraction=1.0, seed=3)
        assert checked == len(records)
        assert worst < 1e-10

    def test_flags_wrong_concurrence(self):
        liar = ScanRecord(-0.5, -0.5, 1.0, 0.5, 0.25, 0.0, 0.0)
        with pytest.raises(ConsistencyError):
            oracle_spot_check([liar], fraction=1.0, seed=3)

    def test_empty_records(self):
        assert oracle_spot_check([], fraction=1.0, seed=3) == (0, 0.0)

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
        assert outcome.n_grid_hits == len(outcome.records)
        assert outcome.n_refined > 0
        assert outcome.oracle_checked >= 1
        assert outcome.max_oracle_diff < 1e-8

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
        assert first.records == second.records
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
        assert all(record.refine_converged for record in outcome.records)
