"""Tests of the benchmark itself: the correctness gate and the tracer.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, derived_seed  # noqa: E402

SCAN = WORKLOADS["theorem_scan"]
ORACLE = WORKLOADS["oracle_sweep"]

GOOD_SCAN = {"grid_points": 680943, "hits": 480, "refined": 480, "class_a": 237,
             "class_b": 243, "oracle_checked": 5, "max_oracle_diff": 2.2e-16,
             "disjoint": True, "out": "x.csv"}
GOOD_ORACLE = {"states_checked": 2000, "max_concurrence_diff": 1.9e-14,
               "max_norm_sq_diff": 2.8e-14, "max_allowed_diff": 1e-8}


def write_csv(path, rows):
    header = "lambda,rho,nu,x,concurrence,class_a_residual,class_b_residual,verdict"
    path.write_text("\n".join([header] + ["0,0,1,0.5,1,0,0,MaximalClassA"] * rows)
                    + "\n")
    return path


def test_untampered_outputs_pass(tmp_path):
    csv_path = write_csv(tmp_path / "out.csv", 480)
    assert SCAN.check(0, json.dumps(GOOD_SCAN), csv_path) == []
    assert ORACLE.check(0, json.dumps(GOOD_ORACLE), None) == []


@pytest.mark.parametrize("key, value", [
    ("class_a", 238),
    ("class_b", 242),
    ("hits", 479),
    ("disjoint", False),
    ("max_oracle_diff", 1e-6),
    ("max_oracle_diff", float("nan")),
])
def test_tampered_scan_output_fails(tmp_path, key, value):
    csv_path = write_csv(tmp_path / "out.csv", 480)
    tampered = dict(GOOD_SCAN, **{key: value})
    assert SCAN.check(0, json.dumps(tampered), csv_path)


def test_scan_csv_must_match_hits(tmp_path):
    assert SCAN.check(0, json.dumps(GOOD_SCAN), write_csv(tmp_path / "a.csv", 479))
    assert SCAN.check(0, json.dumps(GOOD_SCAN), tmp_path / "missing.csv")


@pytest.mark.parametrize("key, value", [
    ("states_checked", 1999),
    ("max_concurrence_diff", 2e-8),
    ("max_norm_sq_diff", None),
])
def test_tampered_oracle_output_fails(key, value):
    assert ORACLE.check(0, json.dumps(dict(GOOD_ORACLE, **{key: value})), None)


def test_nonzero_exit_or_garbage_fails():
    assert ORACLE.check(3, json.dumps(GOOD_ORACLE), None) == ["exit code 3"]
    assert ORACLE.check(0, "states_checked 2000", None)


def test_failed_pass_fails_all_its_operations(tmp_path):
    import run

    class FakeCli:
        @staticmethod
        def main(argv):
            print(json.dumps(dict(GOOD_ORACLE, states_checked=1)))
            return 0

    tally = run.Tally()
    inputs = ORACLE.prepare(1, tmp_path)
    run.run_pass(FakeCli, ORACLE, inputs, tally)
    assert (tally.attempted, tally.failed) == (ORACLE.operations, ORACLE.operations)


def test_derived_seed_is_fixed_per_workload_and_seed():
    assert derived_seed("oracle_sweep", 1) == derived_seed("oracle_sweep", 1)
    assert derived_seed("oracle_sweep", 1) != derived_seed("oracle_sweep", 2)
    assert derived_seed("oracle_sweep", 1) != derived_seed("dense_sweep", 1)


def test_self_times_subtract_direct_children():
    recorded = [
        ["cli.main", 0.0, 10.0, None, 1],
        ["scan.run_scan", 1.0, 9.0, 0, 1],
        ["scan.refine", 2.0, 5.0, 1, 1],
        ["analytic.concurrence", 3.0, 4.0, 2, 1],
    ]
    assert spans.self_times(recorded) == [2.0, 5.0, 2.0, 1.0]
    summary = spans.pass_summaries(recorded)[1]
    assert sum(summary["self"].values()) == 10.0
    assert summary["self"]["scan.refine"] == 2.0


def test_tracer_wraps_where_callers_look_up_and_restores():
    import cohent.cli
    import cohent.oracle

    original = cohent.oracle.fock_vector
    tracer = spans.Tracer()
    argv = ["oracle-check", "--trials", "3", "--seed", "1", "--json"]
    with tracer.installed(1), redirect_stdout(io.StringIO()):
        assert cohent.cli.main(argv) == 0
    assert cohent.oracle.fock_vector is original
    calls = spans.pass_summaries(tracer.spans)[1]["calls"]
    # Each state is built twice (once directly, once inside the oracle).
    assert calls["oracle.build_state"] == 6
    assert calls["coherent.fock_vector"] == 24
    assert calls["cli.main"] == 1
    assert tracer.counts[1]["analytic.gram_norm_squared"] == 6
    assert tracer.absent == []


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    import cohent.scan

    monkeypatch.delattr(cohent.scan, "refine")
    tracer = spans.Tracer()
    with tracer.installed(1):
        pass
    assert tracer.absent == ["scan.refine"]


def test_end_to_end_times_are_rescaled_to_reference_speed(monkeypatch, tmp_path):
    import time

    import run

    class FakeCli:
        @staticmethod
        def main(argv):
            time.sleep(0.03)
            print(json.dumps(GOOD_ORACLE))
            return 0

    floors = iter([2 * run.CAL_REF_MS, 4 * run.CAL_REF_MS] * 1000)
    monkeypatch.setattr(run.machine, "calibration_sample",
                        lambda: {"total_ms": next(floors)})
    monkeypatch.setattr(run, "setup_sample", lambda inputs: (0.4, {}))
    tally = run.Tally()
    with redirect_stdout(io.StringIO()):
        metrics, calibration = run.end_to_end(
            FakeCli, ORACLE, ORACLE.prepare(1, tmp_path), 0.1, tally)
    # The fastest calibration sample is twice the reference: set-up halves.
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert 0 < metrics["wall_ref_s"] < 0.1
    assert len(calibration) >= run.SETUP_RUNS + 1
    assert tally.failed == 0


def test_pass_at_reference_speed_takes_out_the_probe():
    import run

    # The probe ran twice as slow as the reference: the pass's own 1 s halves.
    result = run.Pass(1.0 + 4 * run.PROBE_REF_S * 2, [], "",
                      probe=[run.PROBE_REF_S * 2] * 4)
    assert result.at_reference_speed() == pytest.approx(0.5)


def test_speed_probe_samples_during_a_pass_and_restores_the_handler():
    import signal
    import time

    import machine

    before = signal.getsignal(signal.SIGALRM)
    with machine.SpeedProbe() as probe:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with machine.SpeedProbe() as probe:
        pass
    assert len(probe.samples) == 1
