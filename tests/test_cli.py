import csv
import json
import math

import pytest

from cohent import cli
from cohent.analytic import SuperpositionCoeffs
from cohent.classify import classify
from cohent.scan import (
    REFINE_FLOOR,
    DisjointnessReport,
    ScanHits,
    ScanOutcome,
    ScanRecord,
)

OVERLAP_STATE = "p1 = 0.5\np2 = 0.5\nlambda = -0.5\nrho = -0.5\nnu = 1\n"
AMP_STATE = "alpha = 0\nbeta = 0\ngamma = 1\ndelta = 1\nlambda = 0\nrho = 0\nnu = -1\n"
SMALL_SCAN = (
    "lambda_min = -1.5\nlambda_max = 0.5\nlambda_steps = 21\n"
    "rho_min = -1.5\nrho_max = 0.5\nrho_steps = 21\n"
    "nu_min = 1\nnu_max = 1\nnu_steps = 1\n"
    "x_values = 0.5\nthreshold = 0.999\nseed = 7\noracle_fraction = 0.2\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConcurrenceCommand:
    def test_overlap_state(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", OVERLAP_STATE)
        assert cli.main(["concurrence", path]) == 0
        out = capsys.readouterr().out
        assert "analytic_concurrence" in out
        assert "oracle_concurrence" not in out  # no amplitudes given

    def test_amplitude_state_includes_oracle(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", AMP_STATE)
        assert cli.main(["concurrence", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_concurrence"] == pytest.approx(1.0, abs=1e-12)
        assert payload["oracle_diff"] < 1e-10

    def test_nearly_equal_amplitudes_reach_one(self, tmp_path, capsys):
        # exit 3 ("concurrence evaluated to 1.000000001077471") with the Gram
        # form of N^2
        path = write(tmp_path, "s.txt", AMP_STATE.replace("1\n", "1e-4\n", 2))
        assert cli.main(["concurrence", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_concurrence"] == 1.0
        assert payload["oracle_diff"] < 1e-10

    @pytest.mark.parametrize("gap", ["2e-8", "5e-9"])
    def test_gaps_near_the_distinct_tol_reach_one(self, tmp_path, capsys, gap):
        # Both exited 2: at 2e-8 the oracle took norm^2 ~ 8e-16 for zero; at
        # 5e-9 the overlap rounds to 1.0, which OverlapPair rejected.
        path = write(tmp_path, "s.txt", AMP_STATE.replace("1\n", f"{gap}\n", 2))
        assert cli.main(["concurrence", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_concurrence"] == pytest.approx(1.0, abs=1e-12)
        assert payload["oracle_concurrence"] == pytest.approx(1.0, abs=1e-12)

    def test_overlap_of_exactly_one_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", OVERLAP_STATE.replace("p1 = 0.5", "p1 = 1"))
        assert cli.main(["concurrence", path]) == 2
        assert "p1 must lie strictly inside (0, 1)" in capsys.readouterr().err

    def test_known_value(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt",
                     "p1 = 0.5\np2 = 0.5\nlambda = 0\nrho = 0\nnu = 1\n")
        assert cli.main(["concurrence", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analytic_concurrence"] == pytest.approx(0.6, abs=1e-14)

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "lambda = 0\nrho = 0\nnu = 1\n")
        assert cli.main(["concurrence", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["concurrence", str(tmp_path / "none.txt")]) == 2

    def test_oracle_disagreement_exits_3(self, tmp_path, capsys, monkeypatch):
        # exercise the inconsistency branch: fake a broken oracle
        monkeypatch.setattr(cli, "oracle_concurrence", lambda *a, **k: 0.123)
        path = write(tmp_path, "s.txt", AMP_STATE)
        assert cli.main(["concurrence", path]) == 3
        assert "disagree" in capsys.readouterr().err


class TestClassifyCommand:
    def test_class_a_verdict(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", OVERLAP_STATE)
        assert cli.main(["classify", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "MaximalClassA"
        assert payload["concurrence"] == pytest.approx(1.0, abs=1e-12)

    def test_class_b_verdict(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt",
                     "p1 = 0.5\np2 = 0.5\nlambda = -2\nrho = -2\nnu = 1\n")
        assert cli.main(["classify", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "MaximalClassB"

    def test_separable_verdict(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt",
                     "p1 = 0.5\np2 = 0.5\nlambda = 1\nrho = 1\nnu = 1\n")
        assert cli.main(["classify", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "Separable"

    def test_unequal_overlaps_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt",
                     "p1 = 0.5\np2 = 0.6\nlambda = -0.5\nrho = -0.5\nnu = 1\n")
        assert cli.main(["classify", path]) == 4
        assert "equal overlaps" in capsys.readouterr().err

    def test_non_unit_mu_exit_2(self, tmp_path):
        path = write(tmp_path, "s.txt",
                     "p1 = 0.5\np2 = 0.5\nmu = 2\nlambda = -1\nrho = -1\nnu = 2\n")
        assert cli.main(["classify", path]) == 2


class TestExamplesCommand:
    def test_all_reference_states_pass(self, capsys):
        assert cli.main(["examples", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["states"]) == 15
        assert all(row["ok"] for row in payload["states"])
        assert payload["x"] == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_alternate_gap(self, capsys):
        assert cli.main(["examples", "--gap-squared", "2.5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(row["ok"] for row in payload["states"])

    def test_bad_gap_exits_2(self):
        assert cli.main(["examples", "--gap-squared", "-1"]) == 2


class TestBellLimitCommand:
    def test_bell_pair_limits(self, capsys):
        assert cli.main(["bell-limit", "--lam", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        root_half = 1.0 / math.sqrt(2.0)
        assert payload["class_a"]["target"] == [0.0, root_half, root_half, -0.0]
        assert payload["class_a"]["max_deviation"] < 1e-6
        assert payload["class_b"]["target"] == [0.0, root_half, -root_half, 0.0]
        assert payload["class_b"]["max_deviation"] < 1e-6

    def test_nonzero_lambda(self, capsys):
        assert cli.main(["bell-limit", "--lam", "1", "--x-small", "1e-8",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class_a"]["target"] == [0.5, 0.5, 0.5, -0.5]
        assert payload["class_a"]["max_deviation"] < 1e-6
        assert payload["class_b"]["max_deviation"] < 1e-6

    def test_oversized_x_exits_2(self):
        assert cli.main(["bell-limit", "--x-small", "0.1"]) == 2


class TestScanCommand:
    def test_scan_writes_csv_and_passes(self, tmp_path, capsys):
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        out = tmp_path / "records.csv"
        assert cli.main(["scan", config, str(out)]) == 0
        assert "classes disjoint" in capsys.readouterr().out
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["lambda", "rho", "nu", "x", "concurrence",
                           "class_a_residual", "class_b_residual", "verdict"]
        assert len(rows) > 1
        for row in rows[1:]:
            assert row[-1] == "MaximalClassA"
            assert float(row[4]) > 0.999
            # 17 significant digits round-trip
            assert float(row[0]) == float(f"{float(row[0]):.17g}")

    def test_scan_json_report(self, tmp_path, capsys):
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        out = tmp_path / "records.csv"
        assert cli.main(["scan", config, str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disjoint"] is True
        assert payload["hits"] == payload["class_a"] + payload["class_b"]
        assert 0 < payload["grid_evaluated"] <= payload["grid_points"]

    def test_bundled_config_evaluates_under_a_tenth(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        assert cli.main(["scan", "theorem_check.cfg", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid_points"] == 680_943
        assert payload["hits"] == 480
        assert 0 < payload["grid_evaluated"] < 0.1 * payload["grid_points"]
        assert cli.main(["scan", "theorem_check.cfg", str(out)]) == 0
        assert (f"scanned 680943 grid points ({payload['grid_evaluated']} evaluated)"
                in capsys.readouterr().out)

    def test_csv_residuals_and_verdict_come_from_classify(self, tmp_path):
        text = SMALL_SCAN.replace("nu_min = 1\nnu_max = 1\nnu_steps = 1",
                                  "nu_min = -1.5\nnu_max = 1.5\nnu_steps = 7")
        config = write(tmp_path, "scan.cfg", text.replace("0.999", "0.5"))
        out = tmp_path / "records.csv"
        assert cli.main(["scan", config, str(out), "--tol", "1e-9"]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        concurrences = [float(row["concurrence"]) for row in rows]
        assert min(concurrences) < REFINE_FLOOR <= max(concurrences)
        for row in rows:
            lam, rho, nu, x = (float(row[k]) for k in ("lambda", "rho", "nu", "x"))
            result = classify(SuperpositionCoeffs(1.0, lam, rho, nu), x, 1e-9)
            assert float(row["class_a_residual"]) == result.class_a_residual
            assert float(row["class_b_residual"]) == result.class_b_residual
            assert row["verdict"] == result.verdict.value

    @pytest.mark.parametrize("steps, threshold", [(3, 1.0), (9, 0.5)],
                             ids=["no-hits", "hits"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_non_positive_tol_exits_2(self, tmp_path, capsys, tol, steps, threshold):
        text = "".join(f"{axis}_min = -3\n{axis}_max = 3\n{axis}_steps = {steps}\n"
                       for axis in ("lambda", "rho", "nu"))
        config = write(tmp_path, "scan.cfg",
                       text + f"x_values = 0.5\nthreshold = {threshold}\n")
        out = tmp_path / "o.csv"
        assert cli.main(["scan", config, str(out), "--tol", tol]) == 2
        assert "tol must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_tol_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert cli.main(["scan", "theorem_check.cfg", str(out), "--tol", "inf"]) == 2
        assert "tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()
        state = write(tmp_path, "s.txt", OVERLAP_STATE)
        assert cli.main(["classify", state, "--tol", "inf"]) == 2

    def test_overlap_near_one_exits_0(self, tmp_path, capsys):
        # the 16-term Gram form of N^2 cancelled here, and refine's recomputed
        # concurrence came out 1.000000001227012 (exit 3)
        text = "".join(f"{axis}_min = -3\n{axis}_max = 3\n{axis}_steps = 61\n"
                       for axis in ("lambda", "rho", "nu"))
        config = write(tmp_path, "scan.cfg",
                       text + "x_values = 0.999999\nthreshold = 0.999\n")
        assert cli.main(["scan", config, str(tmp_path / "o.csv"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disjoint"] is True
        assert (payload["hits"], payload["class_a"], payload["class_b"]) == (70, 40, 30)

    def test_oversized_box_exits_2(self, tmp_path, capsys):
        text = SMALL_SCAN.replace("lambda_max = 0.5", "lambda_max = 4e150")
        config = write(tmp_path, "scan.cfg", text)
        assert cli.main(["scan", config, str(tmp_path / "o.csv")]) == 2
        assert "2^500" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        config = write(tmp_path, "scan.cfg", "lambda_min = -1\n")
        assert cli.main(["scan", config, str(tmp_path / "o.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_and_not_bundled_exits_2(self, tmp_path):
        assert cli.main(["scan", "no_such.cfg", str(tmp_path / "o.csv")]) == 2

    def test_disjointness_violation_exits_5(self, tmp_path, monkeypatch):
        impostor = ScanRecord(0.3, -0.2, 0.5, 0.5, 1.0)
        report = DisjointnessReport(
            passed=False, n_records=1, n_maximal=1, n_class_a=0, n_class_b=0,
            violations=((impostor, "near-maximal but on neither family"),),
            tol=1e-8, maximal_tol=1e-10,
        )
        fake = ScanOutcome(hits=ScanHits.from_records([impostor]), report=report,
                           n_grid_hits=1,
                           n_grid_evaluated=1, n_refined=0, oracle_checked=0,
                           max_oracle_diff=0.0)
        monkeypatch.setattr(cli, "run_scan", lambda *a, **k: fake)
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        assert cli.main(["scan", config, str(tmp_path / "o.csv")]) == 5

    def test_bundled_config_resolves(self, tmp_path, monkeypatch):
        # resolve the packaged grid but swap in a light pipeline to keep the
        # unit test quick; the full bundled run is exercised in acceptance
        seen = {}

        def fake_run(config, verify_tol=1e-8):
            seen["points"] = config.total_points()
            report = DisjointnessReport(True, 0, 0, 0, 0, (), verify_tol, 1e-10)
            return ScanOutcome(ScanHits.from_records([]), report, 0, 0, 0, 0, 0.0)

        monkeypatch.setattr(cli, "run_scan", fake_run)
        assert cli.main(["scan", "theorem_check.cfg", str(tmp_path / "o.csv")]) == 0
        assert seen["points"] == 61 * 61 * 61 * 3


class TestOracleCheckCommand:
    def test_single_state(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", AMP_STATE)
        assert cli.main(["oracle-check", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["states_checked"] == 1
        assert payload["max_concurrence_diff"] < 1e-10

    def test_random_trials(self, capsys):
        assert cli.main(["oracle-check", "--trials", "25", "--seed", "5",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["states_checked"] == 25
        assert payload["max_concurrence_diff"] < 1e-8
        assert payload["max_norm_sq_diff"] < 1e-8

    @staticmethod
    def _offset_oracle(monkeypatch):
        # A deterministic 1e-9 disagreement, independent of float noise.
        real = cli.oracle_concurrence
        monkeypatch.setattr(cli, "oracle_concurrence",
                            lambda *a, **k: real(*a, **k) + 1e-9)

    def test_strict_bound_exits_3(self, tmp_path, monkeypatch):
        self._offset_oracle(monkeypatch)
        path = write(tmp_path, "s.txt", AMP_STATE)
        assert cli.main(["oracle-check", path, "--max-diff", "1e-10"]) == 3

    def test_strict_bound_exits_3_on_trials(self, monkeypatch):
        self._offset_oracle(monkeypatch)
        assert cli.main(["oracle-check", "--trials", "3", "--seed", "1",
                         "--max-diff", "1e-10"]) == 3

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_exit_2(self, trials, capsys):
        assert cli.main(["oracle-check", "--trials", trials]) == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["nan", "-1", "inf"])
    def test_invalid_max_diff_exits_2(self, tmp_path, bound, capsys):
        path = write(tmp_path, "s.txt", AMP_STATE)
        assert cli.main(["oracle-check", path, "--max-diff", bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-diff" in captured.err

    def test_requires_spec_or_trials(self):
        assert cli.main(["oracle-check"]) == 2

    def test_overlap_spec_rejected(self, tmp_path):
        path = write(tmp_path, "s.txt", OVERLAP_STATE)
        assert cli.main(["oracle-check", path]) == 2


class TestDeterminism:
    def test_scan_csv_identical_across_runs(self, tmp_path):
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["scan", config, str(out1)]) == 0
        assert cli.main(["scan", config, str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
