import csv
import dataclasses
import errno
import hashlib
import importlib
import json
import math
import os
import re
import resource
import stat
import subprocess
import sys
from decimal import Decimal
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import cohent
from cohent import analytic, cli, coherent, oracle, scan
from cohent.catalog import example_states
from cohent.analytic import SuperpositionCoeffs
from cohent.classify import _family_terms
from cohent.coherent import CoherentConfig, OverlapPair, default_truncation
from cohent.errors import ConsistencyError, DegenerateStateError, DomainError, indexed
from cohent.oracle import oracle_concurrence
from faults import failing_schmidt, spectrum_of
from cohent.scan import ScanHits

OVERLAP_STATE = "p1 = 0.5\np2 = 0.5\nlambda = -0.5\nrho = -0.5\nnu = 1\n"
AMP_STATE = "alpha = 0\nbeta = 0\ngamma = 1\ndelta = 1\nlambda = 0\nrho = 0\nnu = -1\n"
SMALL_SCAN = (
    "lambda_min = -1.5\nlambda_max = 0.5\nlambda_steps = 21\n"
    "rho_min = -1.5\nrho_max = 0.5\nrho_steps = 21\n"
    "nu_min = 1\nnu_max = 1\nnu_steps = 1\n"
    "x_values = 0.5\nthreshold = 0.999\nseed = 7\noracle_fraction = 0.2\n"
)
# A 7^3 box at x = 0.8 and threshold 0.5: 87 hits, 51 of family a, 28 of
# family b and 8 ambiguous, some far below C = 1.
FAMILY_SCAN = "".join(f"{axis}_min = -3\n{axis}_max = 3\n{axis}_steps = 7\n"
                      for axis in ("lambda", "rho", "nu")) + (
    "x_values = 0.8\nthreshold = 0.5\nseed = 7\noracle_fraction = 0.2\n")


def strict_json_constant(name):
    raise ValueError(f"{name} is not JSON")


def sweep_draws(seed, trials):
    """oracle-check's first `trials` draws, redone one trial at a time: four
    amplitudes, drawn again until both pairs are distinct, then three
    coefficients."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        while True:
            alpha, beta, gamma, delta = rng.uniform(-2.0, 2.0, size=4).tolist()
            if abs(alpha - gamma) > 1e-9 and abs(beta - delta) > 1e-9:
                break
        draws.append((alpha, beta, gamma, delta,
                      *rng.uniform(-3.0, 3.0, size=3).tolist()))
    return draws


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def scan_report(**values):
    """A report as scan.run_scan returns it: an empty scan's, with `values`
    in place."""
    return {"grid_points": 0, "grid_evaluated": 0, "grid_rows_bounded": 0,
            "grid_rows_kept": 0, "hits": 0, "class_a": 0, "class_b": 0, "ambiguous": 0,
            "worst_lower_bound_ratio": None, "oracle_checked": 0, "max_oracle_diff": 0.0,
            "disjoint": True, "violations": [], **values}


def hit_columns(records):
    """ScanHits of (lam, rho, nu, x, concurrence) records."""
    return ScanHits(*(np.array(column, dtype=float) for column in
                      (zip(*records) if records else [()] * 5)))


def honest(lam, rho, nu, x):
    """A record at (lam, rho, nu, x) with the grid's own C."""
    return lam, rho, nu, x, analytic.concurrence(
        SuperpositionCoeffs(1.0, lam, rho, nu), OverlapPair(x, x))


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

    def test_amplitude_cap_takes_the_largest_cutoff(self, tmp_path, capsys):
        # gamma = delta = 16, half-gaps at the cap of 8: the oracle builds the
        # state at its largest Fock cutoff, T(8) = 145.
        assert default_truncation(8.0) == 145
        path = write(tmp_path, "s.txt", AMP_STATE.replace("1\n", "16\n", 2))
        assert cli.main(["concurrence", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_diff"] <= 1e-6

    def test_only_the_gaps_count(self, tmp_path, capsys):
        # alpha = 100 exited 2 while |alpha| was capped; the overlaps and the
        # centered oracle see gaps 1 and 1, as at alpha = beta = 0.
        outputs = []
        shifted = AMP_STATE.replace("alpha = 0", "alpha = 100").replace(
            "gamma = 1", "gamma = 101")
        for text in (AMP_STATE, shifted):
            assert cli.main(["concurrence", write(tmp_path, "s.txt", text), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

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

    @pytest.mark.parametrize("coeffs", [
        "lambda = 1e300\nrho = 1e300\nnu = 1\n",
        "mu = 1e160\nlambda = 1e160\nrho = 1e160\nnu = -1e160\n",
    ])
    def test_huge_coefficients_agree_with_the_oracle(self, tmp_path, capsys, coeffs):
        # Both exited 3: the oracle's joint norm overflowed, so it read C = 0,
        # and the first printed norm inf, as N^2 overflowed.
        text = "alpha = 0\nbeta = 0\ngamma = 1\ndelta = 1\n" + coeffs
        path = write(tmp_path, "s.txt", text)
        assert cli.main(["concurrence", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["norm"])
        assert payload["analytic_concurrence"] > 0.4
        assert payload["oracle_diff"] <= 1e-12

    def test_amplitudes_beyond_the_float_range_exit_2(self, tmp_path, capsys):
        # Exited 0 and printed "amplitude_a": Infinity and "norm": Infinity,
        # which is not JSON.
        text = ("alpha = 0\nbeta = 0\ngamma = 1\ndelta = 1\n"
                "mu = 1e308\nlambda = 1e308\nrho = 1e308\nnu = -1e308\n")
        path = write(tmp_path, "s.txt", text)
        assert cli.main(["concurrence", path, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "amplitude_a, norm overflow the float range" in err

    def test_json_output_is_strict(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", AMP_STATE)
        assert cli.main(["concurrence", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=strict_json_constant)
        assert list(payload) == [
            "analytic_concurrence", "amplitude_a", "amplitude_b", "amplitude_c",
            "amplitude_d", "norm", "p1", "p2", "oracle_concurrence", "oracle_diff"]
        assert payload["analytic_concurrence"] == pytest.approx(1.0, abs=1e-12)

    def test_emit_refuses_non_finite_json(self, capsys):
        # text mode printed "norm inf"; both modes now name the key
        for as_json in (True, False):
            with pytest.raises(DomainError, match="^norm, p1 overflow the float range"):
                cli._emit({"norm": math.inf, "verdict": "x", "p1": math.nan}, as_json)
        assert capsys.readouterr().out == ""

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

    def test_truncation_flag_is_refused(self, tmp_path, capsys):
        # It was ignored: the oracle's cutoff is always derived from the
        # amplitudes.
        path = write(tmp_path, "s.txt", AMP_STATE)
        with pytest.raises(SystemExit) as exited:
            cli.main(["concurrence", path, "--truncation", "3"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --truncation 3" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "lambda = 0\nrho = 0\nnu = 1\n")
        assert cli.main(["concurrence", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "none.txt")
        assert cli.main(["concurrence", path]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read {path}: No such file or directory" in err
        assert err.count(path) == 1

    def test_oracle_disagreement_exits_3(self, tmp_path, capsys, monkeypatch):
        # A broken oracle, C = 0.123 or NaN where the closed form gives 1:
        # the comparison inside oracle_concurrences fails before any output,
        # so a NaN exits 3 before _emit can refuse the payload (exit 2).
        path = write(tmp_path, "s.txt", AMP_STATE)
        for c_oracle, shown in [(0.123, "8.770e-01"), (math.nan, "nan")]:
            monkeypatch.setattr(oracle, "schmidt_concurrences",
                                lambda svals, c=c_oracle: np.full(len(svals), c))
            for argv in ([], ["--json"]):
                assert cli.main(["concurrence", path, *argv]) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    f"error: oracle disagrees with the closed form by {shown}\n")


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

    def test_state_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_bytes(OVERLAP_STATE.encode() + b"# \xff\n")
        assert cli.main(["classify", str(path)]) == 2
        assert f"cannot read {path}: not UTF-8 text" in capsys.readouterr().err

    def test_unequal_overlaps_separable(self, tmp_path, capsys):
        # mu nu = lam rho, and C = 0: exited 4, as classify took p1 = p2 only
        path = write(tmp_path, "s.txt",
                     "p1 = 0.5\np2 = 0.6\nlambda = 1\nrho = 1\nnu = 1\n")
        assert cli.main(["classify", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "Separable"
        assert payload["concurrence"] == 0.0
        assert (payload["p1"], payload["p2"]) == (0.5, 0.6)
        assert "x" not in payload

    @pytest.mark.parametrize("kind, verdict", [
        (0, "MaximalClassA"), (1, "MaximalClassB"), (2, "Separable")])
    def test_unequal_overlaps_against_the_oracle(self, tmp_path, capsys, kind, verdict):
        # amplitude files at p1 != p2: states on each family get their class
        # with the Fock oracle's C within 1e-12 of 1, and states with
        # mu nu = lam rho are separable
        rng = np.random.default_rng(53 + kind)
        for trial in range(20):
            alpha, beta, gamma, delta = rng.uniform(-1.5, 1.5, size=4).tolist()
            config = CoherentConfig(alpha, beta, gamma, delta)
            pair = OverlapPair.from_config(config)
            if kind == 2:
                lam, rho = rng.uniform(-2.0, 2.0, size=2)
                v = np.array([1.0, lam, rho, lam * rho])
            else:
                # a point of ker P_f, from the kernel's own rows
                rows = np.array(_family_terms(*np.eye(4), pair.p1, pair.p2,
                                              pair.n1, pair.n2)[kind])
                v = np.linalg.svd(rows)[2][2:].T @ rng.normal(size=2)
            coeffs = SuperpositionCoeffs(*v)
            text = "".join(f"{key} = {value!r}\n" for key, value in zip(
                ("alpha", "beta", "gamma", "delta", "mu", "lambda", "rho", "nu"),
                (alpha, beta, gamma, delta, *v.tolist())))
            path = write(tmp_path, f"s{trial}.txt", text)
            assert cli.main(["classify", path, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["verdict"] == verdict, (trial, text)
            assert (payload["p1"], payload["p2"]) == (pair.p1, pair.p2)
            target = 0.0 if kind == 2 else 1.0
            assert abs(oracle_concurrence(config, coeffs) - target) <= 1e-12

    @pytest.mark.parametrize("coeffs", ["mu = 2\nlambda = -1\nrho = -1\nnu = 2\n",
                                        "mu = 0\nlambda = 1\nrho = -1\nnu = 0\n"],
                             ids=["mu=2", "mu=0"])
    def test_non_unit_mu_verdict(self, tmp_path, capsys, coeffs):
        # exited 2: classify took only the mu = 1 gauge
        path = write(tmp_path, "s.txt", "p1 = 0.5\np2 = 0.5\n" + coeffs)
        assert cli.main(["classify", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "MaximalClassA"
        assert payload["concurrence"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_non_positive_tol_exits_2(self, tmp_path, capsys, tol):
        state = write(tmp_path, "s.txt", OVERLAP_STATE)
        assert cli.main(["classify", state, "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: tol must be positive and finite, got {float(tol)}" in err

    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
    def test_residuals_stay_finite_at_any_scale(self, tmp_path, capsys, mode):
        # |mu nu - lam rho| = 1e400 exited 2 ("separability_residual overflow
        # the float range") while `concurrence` printed C = 0.6 for the file;
        # the residuals are those of v / max|v|
        path = write(tmp_path, "s.txt",
                     "p1 = 0.5\np2 = 0.5\nlambda = 1e200\nrho = 1e200\nnu = 1\n")
        assert cli.main(["classify", path, *mode]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        values = (json.loads(out, parse_constant=strict_json_constant) if mode else
                  dict(line.split() for line in out.splitlines()))
        assert [values[key] for key in CLASSIFY_KEYS[1:5]] == (
            [0.6, 2.0, 1.0, 1.0] if mode else ["0.59999999999999998", "2", "1", "1"])

    def test_residuals_are_those_of_v_over_its_largest_coefficient(self, tmp_path,
                                                                   capsys):
        def residuals(text):
            path = write(tmp_path, "s.txt", "p1 = 0.5\np2 = 0.6\n" + text)
            assert cli.main(["classify", path, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            return [payload[key] for key in CLASSIFY_KEYS[2:5]]

        # max|v| = 1: the sums of the |terms| of v itself, as before
        n1, n2 = math.sqrt(0.75), 0.8
        (a1, a2), (b1, b2), sep = _family_terms(1.0, -0.5, 0.25, 0.75, 0.5, 0.6, n1, n2)
        assert residuals("lambda = -0.5\nrho = 0.25\nnu = 0.75\n") == [
            abs(a1) + abs(a2), abs(b1) + abs(b2), abs(sep)]
        # max|v| = 3 divides them by 3, and 9 for separability; so does any
        # common scale
        (a1, a2), (b1, b2), sep = _family_terms(1.0, 3.0, -0.5, 2.0, 0.5, 0.6, n1, n2)
        expected = [(abs(a1) + abs(a2)) / 3, (abs(b1) + abs(b2)) / 3, abs(sep) / 9]
        for scale in (1.0, 2.0 ** -600, 7.0, 1e300 / 3):
            text = "".join(f"{key} = {value * scale!r}\n" for key, value in
                           zip(("mu", "lambda", "rho", "nu"), (1.0, 3.0, -0.5, 2.0)))
            assert residuals(text) == pytest.approx(expected, rel=1e-15)


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

    @pytest.mark.parametrize("gap_squared, status, label, message", [
        # The closed form's check: C came out beyond the rounding slack.
        ("1e-14", 3, "class-b reciprocal lam=rho=-1/x", "concurrence evaluated to"),
        # The closed form's N^2 is rounding noise.
        ("1e-16", 2, "class-a symmetric pair lam=rho=-x", "squared norm 1.000e-32"),
    ])
    def test_failed_state_is_named(self, capsys, gap_squared, status, label, message):
        # Both errors gave no label, so the failing state was unknown.
        assert cli.main(["examples", "--gap-squared", gap_squared]) == status
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: examples: {label}: {message}")
        assert err.count("\n") == 1

    def test_oracle_failure_names_its_state(self, monkeypatch, capsys):
        # The third state fails the Schmidt rule's check.
        state = example_states()[2]
        monkeypatch.setattr(oracle, "schmidt_concurrences", failing_schmidt(
            spectrum_of(state.config, state.coeffs), ConsistencyError))
        assert cli.main(["examples"]) == 3
        label = state.label
        assert capsys.readouterr().err == f"error: examples: {label}: check failed\n"

    @pytest.mark.parametrize("argv", [["--tol", "1e-3"], ["--truncation", "40"]])
    def test_tol_and_truncation_flags_are_refused(self, capsys, argv):
        # Neither is documented; the states are checked at the defaults.
        with pytest.raises(SystemExit) as exited:
            cli.main(["examples", *argv])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err


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

    # The SHA-256 of each --json output as bell-limit printed it with its own
    # power-of-two shift: the unit ray gives the same bytes.
    HUGE_LAMBDA_DIGESTS = {
        "1e200": "0220f4baadbc3e7a2b1c354ee37bcbfc45ffa166ad9609d653eba626fd22a01f",
        "1.5e308": "2450528eb637813c854ce76d85421ccd36a8763a305909f4c1a753d3d399a417",
        repr(sys.float_info.max):
            "4c4beaba800dfca8d94f2df04c6e1e9e39cc248e37696f25bb3316f785d1f3a2",
    }

    @pytest.mark.parametrize("lam", ["1e200", "1.5e308", repr(sys.float_info.max)])
    def test_huge_lambda(self, capsys, lam):
        # At 1e200 lam^2 overflowed the target's scale and N^2 the norm, so
        # every amplitude and deviation read 0; at 1.5e308 sqrt(2) lam and
        # 2 lam overflowed as well
        assert cli.main(["bell-limit", "--lam", lam, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.HUGE_LAMBDA_DIGESTS[lam]
        payload = json.loads(out)
        root_half = 1.0 / math.sqrt(2.0)
        assert payload["class_a"]["target"] == pytest.approx(
            [root_half, 0.0, 0.0, -root_half], abs=1e-15)
        for name in ("class_a", "class_b"):
            assert payload[name]["amplitudes"][0] == pytest.approx(root_half, abs=1e-6)
            assert payload[name]["max_deviation"] < 1e-6

    def test_subnormal_amplitudes_are_within_one_step(self, capsys):
        # Scaled so that lam is in [1, 2), the coefficient 1 becomes 2^-1023
        # and rho x underflows, so class_b's b is one subnormal step (2^-1074)
        # above its correctly rounded value.  The exact values are those of
        # rational arithmetic on the same float inputs.
        exact = {"class_a": ["7.07106781186547524401e-1", "4.71404520791031328401e-309",
                             "4.71404520791031328401e-309", "-7.07106781186547524401e-1"],
                 "class_b": ["7.07106781186547524401e-1", "4.71404520791032027115e-309",
                             "-4.71404520791032061111e-309", "7.07106781186547524401e-1"]}
        assert cli.main(["bell-limit", "--lam", "1.5e308", "--x-small", "5e-324",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for name, values in exact.items():
            for got, want in zip(payload[name]["amplitudes"], values):
                step = Decimal(math.ulp(float(want)))
                assert abs(Decimal(got) - Decimal(want)) <= step, (name, got, want)

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
        assert rows[0] == ["lambda", "rho", "nu", "x", "concurrence", "family"]
        assert len(rows) > 1
        # in the nu = 1 slice every hit is a grid point of the class (a) line
        # lam + rho = -1
        for row in rows[1:]:
            assert row[-1] == "a"
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
        assert payload["ambiguous"] == 0
        # every hit lies on its family within the rounding band, so none
        # has a lower bound to take a ratio to
        assert payload["worst_lower_bound_ratio"] is None
        assert 0 < payload["hits"] <= payload["grid_evaluated"] <= payload["grid_points"]

    def test_bundled_config_evaluates_under_a_tenth(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        assert cli.main(["scan", "theorem_check.cfg", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid_points"] == 680_943
        assert payload["hits"] == 480
        assert payload["hits"] <= payload["grid_evaluated"] < 0.1 * payload["grid_points"]
        # of the 11,163 (lambda, rho, x) rows, those inside the rho windows
        assert (payload["grid_rows_bounded"], payload["grid_rows_kept"]) == (1_189, 495)
        assert cli.main(["scan", "theorem_check.cfg", str(out)]) == 0
        text = capsys.readouterr().out
        assert (f"scanned 680943 grid points ({payload['grid_evaluated']} evaluated)"
                in text)
        assert "bounded 1189 (lambda, rho, x) rows, kept 495" in text
        assert "refine" not in json.dumps(payload)
        assert payload["ambiguous"] == 0
        assert (f"verify: classes disjoint: 480 records (237 class a, 243 class b, "
                f"0 ambiguous), 0 violations, worst lower-bound ratio "
                f"{payload['worst_lower_bound_ratio']:.17g}") in text

    def test_tol_flag_is_refused(self, tmp_path, capsys):
        # It set only the CSV's verdicts, and a loose one wrote Separable
        # beside family a or b; the CSV now carries verify's family alone.
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exited:
            cli.main(["scan", "theorem_check.cfg", str(out), "--tol", "1e-3"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_family_and_concurrence_come_from_run_scan(self, tmp_path):
        config = write(tmp_path, "scan.cfg", FAMILY_SCAN)
        out = tmp_path / "records.csv"
        assert cli.main(["scan", config, str(out)]) == 0
        hits, family, _ = scan.run_scan(cli._resolve_scan_config(config))
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(hits) == 87
        assert [row["family"] for row in rows] == [scan.FAMILIES[code] for code in family]
        assert set(family.tolist()) == {0, 1, 2}
        concurrences = np.array([float(row["concurrence"]) for row in rows])
        assert concurrences.min() < 0.9 <= concurrences.max()
        # "%.17g" round-trips, so the column holds the grid's C bit for bit
        assert concurrences.view(np.int64).tolist() == (
            hits.concurrence.view(np.int64).tolist())

    def test_scan_does_not_classify(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a scan classified a hit")

        # The package re-exports classify, so `cohent.classify` is the function.
        kernel = importlib.import_module("cohent.classify")
        for module, name in ((kernel, "classify"), (kernel, "_ray_columns"),
                             (cohent, "classify"), (cli, "classify")):
            monkeypatch.setattr(module, name, refuse)
        config = write(tmp_path, "scan.cfg", FAMILY_SCAN)
        out = tmp_path / "records.csv"
        assert cli.main(["scan", config, str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hits"] == len(out.read_text().splitlines()) - 1 > 0

    def test_infinite_tol_exits_2(self, tmp_path, capsys):
        # scan takes no --tol; classify's must be finite
        state = write(tmp_path, "s.txt", OVERLAP_STATE)
        assert cli.main(["classify", state, "--tol", "inf"]) == 2
        assert "tol must be positive and finite" in capsys.readouterr().err

    def test_overlap_near_one_exits_0(self, tmp_path, capsys):
        # the 16-term Gram form of N^2 cancelled here, and a concurrence
        # recomputed at a moved point came out 1.000000001227012 (exit 3)
        text = "".join(f"{axis}_min = -3\n{axis}_max = 3\n{axis}_steps = 61\n"
                       for axis in ("lambda", "rho", "nu"))
        config = write(tmp_path, "scan.cfg",
                       text + "x_values = 0.999999\nthreshold = 0.999\n")
        assert cli.main(["scan", config, str(tmp_path / "o.csv"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["hits"], payload["class_a"], payload["class_b"],
                payload["ambiguous"], payload["disjoint"]) == (70, 40, 30, 0, True)

    def test_box_near_the_size_limit_exits_0(self, tmp_path, capsys):
        # hits such as (lam, rho, nu) = (-1e150, 1e150, 1) lie 1 from class
        # (a) in one term, 7e-151 of max|v|; an absolute tol exited 5, and
        # squares of the unscaled terms would overflow
        text = "".join(f"{axis}_min = -1e150\n{axis}_max = 1e150\n{axis}_steps = 5\n"
                       for axis in ("lambda", "rho", "nu"))
        config = write(tmp_path, "scan.cfg", text + "x_values = 0.5\nthreshold = 0.5\n")
        assert cli.main(["scan", config, str(tmp_path / "o.csv"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["hits"], payload["class_a"], payload["class_b"],
                payload["ambiguous"], payload["disjoint"]) == (49, 28, 21, 0, True)

    def test_oversized_box_exits_2(self, tmp_path, capsys):
        text = SMALL_SCAN.replace("lambda_max = 0.5", "lambda_max = 4e150")
        config = write(tmp_path, "scan.cfg", text)
        assert cli.main(["scan", config, str(tmp_path / "o.csv")]) == 2
        assert "2^500" in capsys.readouterr().err

    def test_negative_seed_exits_2_before_scanning(self, tmp_path, monkeypatch, capsys):
        # The scan ran, then np.random.default_rng(-1) raised ValueError (exit 1).
        config = write(tmp_path, "scan.cfg", SMALL_SCAN.replace("seed = 7", "seed = -1"))
        monkeypatch.setattr(cli, "run_scan", self._must_not_scan)
        assert cli.main(["scan", config, str(tmp_path / "o.csv")]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        config = write(tmp_path, "scan.cfg", "lambda_min = -1\n")
        assert cli.main(["scan", config, str(tmp_path / "o.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_and_not_bundled_exits_2(self, tmp_path, capsys):
        assert cli.main(["scan", "no_such.cfg", str(tmp_path / "o.csv")]) == 2
        assert "no bundled config of that name" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, monkeypatch, capsys):
        # named like the bundled config, which must not stand in for a file
        # that opens but does not decode
        (tmp_path / "theorem_check.cfg").write_bytes(b"\xff" + SMALL_SCAN.encode())
        monkeypatch.chdir(tmp_path)
        assert cli.main(["scan", "theorem_check.cfg", "o.csv"]) == 2
        err = capsys.readouterr().err
        assert "cannot read theorem_check.cfg: not UTF-8 text" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("out", ["missing/o.csv", "."], ids=["no-dir", "is-dir"])
    def test_unwritable_output_exits_2(self, tmp_path, monkeypatch, capsys, out):
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_scan", self._must_not_scan)
        assert cli.main(["scan", config, out]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err
        assert err.count(out) == 1

    @staticmethod
    def _must_not_scan(*args, **kwargs):
        pytest.fail("scanned although the output cannot be written")

    @pytest.mark.parametrize("earlier", [None, "earlier records\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("error, code", [(DomainError, 2), (ConsistencyError, 3)])
    def test_failed_scan_leaves_the_output_as_it_was(self, tmp_path, monkeypatch,
                                                     error, code, earlier):
        def failing_run(config):
            raise error("scan failed")

        monkeypatch.setattr(cli, "run_scan", failing_run)
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        out = tmp_path / "o.csv"
        if earlier is not None:
            out.write_text(earlier)
        assert cli.main(["scan", config, str(out)]) == code
        assert (out.read_text() if out.exists() else None) == earlier

    @staticmethod
    def _scan_past_a_size_limit(tmp_path, out):
        """Scan FAMILY_SCAN into `out` in a child process whose file size limit
        (RLIMIT_FSIZE, 64 bytes) the CSV outgrows part way; the scan exits 2."""
        config = write(tmp_path, "scan.cfg", FAMILY_SCAN)
        files = sorted(tmp_path.iterdir())
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "cohent.cli", "scan", config, str(out)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64)),
            capture_output=True, env=env, timeout=300)
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == f"error: cannot write {out}: File too large\n".encode()
        # no temporary file is left beside the output
        assert sorted(tmp_path.iterdir()) == files

    def test_failed_csv_write_leaves_no_new_file(self, tmp_path):
        out = tmp_path / "o.csv"
        self._scan_past_a_size_limit(tmp_path, out)
        assert not out.exists()

    def test_failed_csv_write_leaves_an_existing_file_as_it_was(self, tmp_path):
        out = tmp_path / "o.csv"
        out.write_bytes(b"earlier records\n")
        self._scan_past_a_size_limit(tmp_path, out)
        assert out.read_bytes() == b"earlier records\n"

    @pytest.mark.parametrize("mode", [None, 0o640, 0o604], ids=["new", "640", "604"])
    def test_csv_write_keeps_links_and_permission_bits(self, tmp_path, mode):
        # as open(path, "w") does: the write goes through a symlink, an
        # existing file keeps its bits, and a new one gets 0o666 less the umask
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        target, link = tmp_path / "records.csv", tmp_path / "link.csv"
        link.symlink_to(target.name)
        if mode is not None:
            target.write_text("earlier records\n")
            target.chmod(mode)
        umask = os.umask(0o027)
        try:
            assert cli.main(["scan", config, str(link)]) == 0
        finally:
            os.umask(umask)
        assert link.is_symlink()
        assert target.read_text().startswith("lambda,rho,nu,x,concurrence,family")
        assert target.stat().st_mode & 0o7777 == (0o640 if mode is None else mode)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "link.csv", "records.csv", "scan.cfg"]

    def test_device_output_is_written_in_place(self, tmp_path, monkeypatch):
        # a rename would put a regular file where the device was; none is
        # let through, so a failure here leaves the device as it is
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        monkeypatch.setattr(os, "replace", self._must_not_replace)
        before = os.stat(os.devnull)
        assert cli.main(["scan", config, os.devnull]) == 0
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode)
        assert (after.st_ino, after.st_rdev) == (before.st_ino, before.st_rdev)

    def test_file_in_a_read_only_directory_is_written_in_place(self, tmp_path,
                                                              monkeypatch):
        # the directory takes no temporary file, so the file is written
        # through open(path, "w"), which needs only the file to be writable
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        directory = tmp_path / "kept"
        directory.mkdir()
        out = directory / "o.csv"
        out.write_text("earlier records\n")
        if os.geteuid() == 0:  # the directory's bits do not bind root
            monkeypatch.setattr(cli, "_temp_beside", self._no_new_file)
        directory.chmod(0o555)
        try:
            assert cli.main(["scan", config, str(out)]) == 0
        finally:
            directory.chmod(0o755)
        assert out.read_text().startswith("lambda,rho,nu,x,concurrence,family")
        assert [path.name for path in directory.iterdir()] == ["o.csv"]

    @staticmethod
    def _must_not_replace(*args, **kwargs):
        pytest.fail("renamed a file over the output")

    @staticmethod
    def _no_new_file(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    def test_hard_linked_file_is_written_in_place(self, tmp_path):
        # a rename would part the two names
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        out, twin = tmp_path / "o.csv", tmp_path / "twin.csv"
        out.write_text("earlier records\n")
        os.link(out, twin)
        assert cli.main(["scan", config, str(out)]) == 0
        assert out.samefile(twin)
        assert twin.read_text().startswith("lambda,rho,nu,x,concurrence,family")

    def test_existing_file_keeps_its_group(self, tmp_path):
        # renamed over it when the group is one of the process's own, and
        # written in place when only root could give a new file that group
        group = next((g for g in os.getgroups() if g != os.getegid()),
                     65534 if os.geteuid() == 0 else None)
        if group is None:
            pytest.skip("the process has one group only")
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        out = tmp_path / "o.csv"
        out.write_text("earlier records\n")
        os.chown(out, -1, group)
        assert cli.main(["scan", config, str(out)]) == 0
        assert out.stat().st_gid == group
        assert out.read_text().startswith("lambda,rho,nu,x,concurrence,family")

    def test_readable_config_reports_its_own_error(self, tmp_path, monkeypatch,
                                                   capsys):
        # the key's name is "cannot read", but the file itself was read; a
        # relative path, since the bundled-config lookup of an absolute one
        # reads the same file
        write(tmp_path, "bad.cfg", "cannot read = 1\n" + SMALL_SCAN)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["scan", "bad.cfg", "o.csv"]) == 2
        err = capsys.readouterr().err
        assert "line 1: unknown key 'cannot read'" in err
        assert "bundled" not in err

    def test_disjointness_violation_exits_5(self, tmp_path, monkeypatch):
        impostor = (0.3, -0.2, 0.5, 0.5, 1.0)
        violation = dict(zip(("reason", "lambda", "rho", "nu", "x", "concurrence"),
                             ("N^2 (1 - C) below (1 - x) min_f |P_f v|^2", *impostor)))
        report = scan_report(grid_points=1, grid_evaluated=1, grid_rows_bounded=1,
                             grid_rows_kept=1, hits=1, ambiguous=1,
                             worst_lower_bound_ratio=0.0, disjoint=False,
                             violations=[violation])
        fake = (hit_columns([impostor]), np.array([2]), report)
        monkeypatch.setattr(cli, "run_scan", lambda *a, **k: fake)
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        assert cli.main(["scan", config, str(tmp_path / "o.csv")]) == 5
        # the records that broke the claim are written, not an empty file
        rows = list(csv.DictReader((tmp_path / "o.csv").read_text().splitlines()))
        assert [(float(row["lambda"]), float(row["rho"])) for row in rows] == [(0.3, -0.2)]

    def test_grid_hit_off_both_families_exits_5(self, tmp_path, monkeypatch, capsys):
        # the grid's C raised to 1 at (lam, rho, nu) = (-0.5, -0.5, -2), which
        # is off both families: |P_a v|^2 = 9, |P_b v|^2 = 2.25; the kernel
        # sees it on its unit ray, (1, lam, rho, nu) times mu
        ratio = analytic._concurrence_ratio

        def raised(mu, lam, rho, nu, n1, n2, n_sq):
            return np.where((lam == -0.5 * mu) & (rho == -0.5 * mu) & (nu == -2.0 * mu),
                            1.0, ratio(mu, lam, rho, nu, n1, n2, n_sq))

        monkeypatch.setattr(analytic, "_concurrence_ratio", raised)
        text = SMALL_SCAN.replace("nu_min = 1\nnu_max = 1\nnu_steps = 1",
                                  "nu_min = -2\nnu_max = 1\nnu_steps = 2")
        config = write(tmp_path, "scan.cfg", text.replace("oracle_fraction = 0.2",
                                                          "oracle_fraction = 0"))
        out = str(tmp_path / "o.csv")
        # --json names the violating record as the text does
        assert cli.main(["scan", config, out, "--json"]) == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["disjoint"] is False
        assert payload["violations"] == [{
            "reason": "N^2 (1 - C) below (1 - x) min_f |P_f v|^2",
            "lambda": -0.5, "rho": -0.5, "nu": -2.0, "x": 0.5, "concurrence": 1.0}]
        assert cli.main(["scan", config, out]) == 5
        text = capsys.readouterr().out
        lines = text.splitlines()
        assert lines[3] == ("verify: DISJOINTNESS VIOLATED: 1 of 22 records outside "
                            "the two-sided bound")
        assert lines[4] == ("  N^2 (1 - C) below (1 - x) min_f |P_f v|^2: lam=-0.5 "
                            "rho=-0.5 nu=-2.0 x=0.5 C=1.0")
        assert text == "\n".join(render_scan(payload)) + "\n"

    def test_bundled_config_resolves(self, tmp_path, monkeypatch):
        # resolve the packaged grid but swap in a light pipeline to keep the
        # unit test quick; the full bundled run is exercised in acceptance
        seen = {}

        def fake_run(config):
            seen["points"] = config.total_points()
            return hit_columns([]), np.array([], dtype=int), scan_report()

        monkeypatch.setattr(cli, "run_scan", fake_run)
        assert cli.main(["scan", "theorem_check.cfg", str(tmp_path / "o.csv")]) == 0
        assert seen["points"] == 61 * 61 * 61 * 3


class TestScanVerifyText:
    """scan's verify line(s) on records put in the grid's place: run_scan
    tests them and reports, and the text renders the report."""

    @staticmethod
    def scan_text(tmp_path, monkeypatch, capsys, records, status):
        """The --json payload and the verify lines of the text output."""
        hits = hit_columns(records)
        monkeypatch.setattr(scan, "grid_scan", lambda config: (hits, len(hits), 1, 1))
        config = write(tmp_path, "scan.cfg", SMALL_SCAN.replace(
            "oracle_fraction = 0.2", "oracle_fraction = 0"))
        out = str(tmp_path / "o.csv")
        assert cli.main(["scan", config, out, "--json"]) == status
        payload = json.loads(capsys.readouterr().out)
        assert cli.main(["scan", config, out]) == status
        text = capsys.readouterr().out
        assert text == "\n".join(render_scan(payload)) + "\n"
        return payload, text.splitlines()[3:-1]

    def test_no_hits(self, tmp_path, monkeypatch, capsys):
        payload, lines = self.scan_text(tmp_path, monkeypatch, capsys, [], 0)
        assert payload["violations"] == []
        assert lines == ["verify: classes disjoint: 0 records (0 class a, 0 class b, "
                         "0 ambiguous), 0 violations, worst lower-bound ratio none"]

    def test_counts_both_classes(self, tmp_path, monkeypatch, capsys):
        records = [honest(lam, -1.0 - lam, 1.0, 0.5)  # class (a), x = 0.5
                   for lam in (-0.2, -0.7, 0.4)]
        records += [honest(lam, lam, -1.0 - 2 * lam * 0.5, 0.5)  # class (b)
                    for lam in (0.0, -1.0)]
        _, lines = self.scan_text(tmp_path, monkeypatch, capsys, records, 0)
        # each lies on its family within the rounding band, so gives no ratio
        assert lines == ["verify: classes disjoint: 5 records (3 class a, 2 class b, "
                         "0 ambiguous), 0 violations, worst lower-bound ratio none"]
        # a hit off both families gives one, at least 1
        records.append(honest(0.3, -0.2, 0.5, 0.5))
        payload, lines = self.scan_text(tmp_path, monkeypatch, capsys, records, 0)
        ratio = payload["worst_lower_bound_ratio"]
        assert ratio >= 1.0
        assert lines[0].endswith(f"worst lower-bound ratio {ratio:.17g}")

    def test_names_an_off_family_record(self, tmp_path, monkeypatch, capsys):
        # a synthetic impostor: claims C = 1 while sitting on neither family
        payload, lines = self.scan_text(tmp_path, monkeypatch, capsys,
                                        [(0.3, -0.2, 0.5, 0.5, 1.0)], 5)
        assert payload["violations"] == [{
            "reason": "N^2 (1 - C) below (1 - x) min_f |P_f v|^2",
            "lambda": 0.3, "rho": -0.2, "nu": 0.5, "x": 0.5, "concurrence": 1.0}]
        assert lines == [
            "verify: DISJOINTNESS VIOLATED: 1 of 1 records outside the two-sided bound",
            "  N^2 (1 - C) below (1 - x) min_f |P_f v|^2: lam=0.3 rho=-0.2 nu=0.5 "
            "x=0.5 C=1.0",
        ]

    def test_lists_twenty_violations_and_counts_the_rest(self, tmp_path, monkeypatch,
                                                         capsys):
        # the first hit lies on class (a) but claims C = 0.5, above the
        # upper bound; the 20 others claim C = 1 on neither family
        records = [(-0.5, -0.5, 1.0, 0.5, 0.5)]
        records += [(0.3 + i, -0.2, 0.5, 0.5, 1.0) for i in range(20)]
        payload, lines = self.scan_text(tmp_path, monkeypatch, capsys, records, 5)
        # --json lists every one
        assert [v["lambda"] for v in payload["violations"]] == [r[0] for r in records]
        assert lines[:3] == [
            "verify: DISJOINTNESS VIOLATED: 21 of 21 records outside the two-sided "
            "bound",
            "  N^2 (1 - C) above (1 + x) min_f |P_f v|^2: lam=-0.5 rho=-0.5 nu=1.0 "
            "x=0.5 C=0.5",
            "  N^2 (1 - C) below (1 - x) min_f |P_f v|^2: lam=0.3 rho=-0.2 nu=0.5 "
            "x=0.5 C=1.0",
        ]
        assert len(lines) == 22
        assert lines[-2].startswith("  N^2 (1 - C) below (1 - x) min_f |P_f v|^2: "
                                    "lam=18.3 ")
        assert lines[-1] == "  ... and 1 more"


class TestOracleCheckCommand:
    @pytest.mark.parametrize("flag", ["--trials", "--seed", "--truncation"])
    def test_sweep_flags_with_a_state_file_exit_2(self, tmp_path, capsys, flag):
        # A state file is checked by `concurrence`, which reports the
        # oracle's C; `oracle-check` only sweeps.
        path = write(tmp_path, "s.txt", AMP_STATE)
        with pytest.raises(SystemExit) as exited:
            cli.main(["oracle-check", "--trials", "3", path, flag, "5"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {path}" in captured.err

    def test_random_trials(self, capsys):
        assert cli.main(["oracle-check", "--trials", "25", "--seed", "5",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["states_checked"] == 25
        assert payload["max_concurrence_diff"] < 1e-8
        assert payload["max_norm_sq_diff"] < 1e-8
        assert payload["max_allowed_diff"] == cli.SWEEP_ORACLE_TOL == 1e-8

    def test_trials_without_a_seed_draw_with_seed_0(self, capsys):
        assert cli.main(["oracle-check", "--trials", "3", "--json"]) == 0
        unseeded = capsys.readouterr().out
        assert cli.main(["oracle-check", "--trials", "3", "--seed", "0", "--json"]) == 0
        assert capsys.readouterr().out == unseeded
        assert cli.main(["oracle-check", "--trials", "3", "--seed", "1", "--json"]) == 0
        assert capsys.readouterr().out != unseeded

    @staticmethod
    def _trial_values(seed, trial):
        """The `at ...` text of a trial's seven drawn values."""
        return " ".join(f"{name}={value!r}" for name, value in zip(
            ("alpha", "beta", "gamma", "delta", "lambda", "rho", "nu"),
            sweep_draws(seed, trial)[-1]))

    def test_strict_bound_exits_3(self, monkeypatch, capsys):
        # The N^2 bound: a deterministic disagreement of twice the bound,
        # named at the first trial, with nothing on stdout.
        real = cli.concurrence_and_norm_sq

        def shifted(*columns):
            c, n_sq = real(*columns)
            return c, n_sq + 2.0 * cli.SWEEP_ORACLE_TOL

        monkeypatch.setattr(cli, "concurrence_and_norm_sq", shifted)
        assert cli.main(["oracle-check", "--trials", "3", "--seed", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: oracle-check trial 1: oracle N^2 disagrees with the "
                       f"closed form by 2.000e-08 at {self._trial_values(1, 1)}\n")

    def test_strict_bound_exits_3_on_trials(self, monkeypatch, capsys):
        # The C bound: a deterministic disagreement of twice the bound, in
        # every C of the Schmidt rule, named at the first trial, with
        # nothing on stdout.
        real = oracle.schmidt_concurrences
        monkeypatch.setattr(oracle, "schmidt_concurrences",
                            lambda svals: real(svals) + 2.0 * cli.SWEEP_ORACLE_TOL)
        assert cli.main(["oracle-check", "--trials", "3", "--seed", "1", "--json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: oracle-check trial 1: oracle disagrees with the "
                       f"closed form by 2.000e-08 at {self._trial_values(1, 1)}\n")

    def test_disagreement_before_a_closed_form_failure_is_named_first(
            self, monkeypatch, capsys):
        # The oracle is 1e-6 off on trial 3 and the closed form fails trial
        # 7: the oracle is given the closed form's C of trials 1 to 6, and
        # the earlier trial, 3, is named.
        draws = sweep_draws(2, 9)
        alpha, beta, gamma, delta, lam, rho, nu = draws[2]
        spectrum = spectrum_of(CoherentConfig(alpha, beta, gamma, delta),
                               SuperpositionCoeffs(1.0, lam, rho, nu))
        real_schmidt, real_analytic = oracle.schmidt_concurrences, cli.concurrence_and_norm_sq

        def oracle_off(svals):
            return real_schmidt(svals) + np.where(
                (svals == spectrum[:3]).all(axis=1), 1e-6, 0.0)

        def analytic_fails(mu, lam, *rest):
            result = real_analytic(mu, lam, *rest)
            at = np.flatnonzero(lam == draws[6][4])
            if len(at):
                raise indexed(ConsistencyError("closed form failed"), at[0])
            return result

        monkeypatch.setattr(oracle, "schmidt_concurrences", oracle_off)
        monkeypatch.setattr(cli, "concurrence_and_norm_sq", analytic_fails)
        assert cli.main(["oracle-check", "--trials", "9", "--seed", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: oracle-check trial 3: oracle disagrees with the "
                       f"closed form by 1.000e-06 at {self._trial_values(2, 3)}\n")

    @pytest.mark.parametrize("target, error, status", [
        ("schmidt_concurrence", ConsistencyError, 3),
        ("concurrence_and_norm_sq", DegenerateStateError, 2),
    ])
    def test_failed_state_names_its_trial(self, monkeypatch, capsys, target,
                                          error, status):
        # A state of the second draw chunk fails a per-state check: the
        # oracle's Schmidt rule (oracle.schmidt_concurrences), or the closed
        # form's norm (cli.concurrence_and_norm_sq).  The error names its
        # trial, counted from 1, and its draws.
        failing = cli._SWEEP_CHUNK + 3
        draws = sweep_draws(4, failing)[-1]
        alpha, beta, gamma, delta, lam, rho, nu = draws
        state = (CoherentConfig(alpha, beta, gamma, delta),
                 SuperpositionCoeffs(1.0, lam, rho, nu))
        if target == "schmidt_concurrence":
            monkeypatch.setattr(oracle, "schmidt_concurrences",
                                failing_schmidt(spectrum_of(*state), error))
        else:
            real = cli.concurrence_and_norm_sq

            def analytic_fails(mu, lams, *rest):
                result = real(mu, lams, *rest)
                at = np.flatnonzero(lams == lam)
                if len(at):
                    raise indexed(error("check failed"), at[0])
                return result

            monkeypatch.setattr(cli, "concurrence_and_norm_sq", analytic_fails)
        assert cli.main(["oracle-check", "--trials", str(failing + 5),
                         "--seed", "4", "--json"]) == status
        out, err = capsys.readouterr()
        assert out == ""
        at = " ".join(f"{name}={value!r}" for name, value in zip(
            ("alpha", "beta", "gamma", "delta", "lambda", "rho", "nu"), draws))
        assert err == f"error: oracle-check trial {failing}: check failed at {at}\n"

    @pytest.mark.parametrize("oracle_trial, analytic_trial, status, message", [
        (5, 7, 3, "check failed"),
        (7, 5, 3, "closed form failed"),
        (5, 5, 3, "closed form failed"),
    ])
    def test_earliest_failing_trial_is_named_across_both_sides(
            self, monkeypatch, capsys, oracle_trial, analytic_trial, status, message):
        # The oracle and the closed form each fail one trial: the earlier
        # is named and, on one trial, the closed form's error, which the
        # oracle is given and which stops it building that trial.
        draws = sweep_draws(2, 9)
        real = cli.concurrence_and_norm_sq

        def analytic_fails(mu, lam, *rest):
            # fails its trial, or returns the real result on rows without it
            result = real(mu, lam, *rest)
            at = np.flatnonzero(lam == draws[analytic_trial - 1][4])
            if len(at):
                raise indexed(ConsistencyError("closed form failed"), at[0])
            return result

        alpha, beta, gamma, delta, lam, rho, nu = draws[oracle_trial - 1]
        spectrum = spectrum_of(CoherentConfig(alpha, beta, gamma, delta),
                               SuperpositionCoeffs(1.0, lam, rho, nu))
        monkeypatch.setattr(cli, "concurrence_and_norm_sq", analytic_fails)
        monkeypatch.setattr(oracle, "schmidt_concurrences",
                            failing_schmidt(spectrum, ConsistencyError))
        assert cli.main(["oracle-check", "--trials", "9", "--seed", "2"]) == status
        trial = min(oracle_trial, analytic_trial)
        assert capsys.readouterr().err.startswith(
            f"error: oracle-check trial {trial}: {message} at "
            f"alpha={draws[trial - 1][0]!r} ")

    def test_draws_are_the_per_trial_stream_across_chunks(self, monkeypatch):
        # One (n, 7) draw a chunk gives the values that per-trial draws of
        # four and then three take, across chunk boundaries.
        seen = []
        real = cli.oracle_concurrences

        def recording(h1, h2, mu, lam, rho, nu, **kwargs):
            seen.append(np.column_stack([h1, h2, lam, rho, nu]))
            return real(h1, h2, mu, lam, rho, nu, **kwargs)

        monkeypatch.setattr(cli, "oracle_concurrences", recording)
        trials = cli._SWEEP_CHUNK + 40
        assert cli.main(["oracle-check", "--trials", str(trials), "--seed", "9",
                         "--json"]) == 0
        assert [len(chunk) for chunk in seen] == [cli._SWEEP_CHUNK, 40]
        draws = np.array(sweep_draws(9, trials))
        expected = np.column_stack([(draws[:, 2] - draws[:, 0]) * 0.5,
                                    (draws[:, 3] - draws[:, 1]) * 0.5, draws[:, 4:]])
        assert np.array_equal(np.concatenate(seen), expected)

    def test_rows_refused_as_not_distinct_are_drawn_again(self, monkeypatch, capsys):
        # With DISTINCT_TOL at 1, about half the rows are refused; every
        # trial checked is one CoherentConfig accepts, and there are --trials
        # of them.
        seen = []
        real = cli.oracle_concurrences

        def recording(h1, h2, *rest, **kwargs):
            seen.append(np.column_stack([h1, h2]))
            return real(h1, h2, *rest, **kwargs)

        monkeypatch.setattr(coherent, "DISTINCT_TOL", 1.0)
        monkeypatch.setattr(cli, "_SWEEP_CHUNK", 16)
        monkeypatch.setattr(cli, "oracle_concurrences", recording)
        assert cli.main(["oracle-check", "--trials", "100", "--seed", "3",
                         "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["states_checked"] == 100
        half_gaps = np.concatenate(seen)
        assert len(half_gaps) == 100
        assert len(seen) > 100 // 16 + 1  # some chunks came up short
        assert (2.0 * abs(half_gaps) > 1.0).all()

    def test_output_does_not_depend_on_chunk_or_stack(self, monkeypatch, capsys):
        # The same trials, drawn 64 at a time or built one state a stack,
        # print the same bytes.
        def output():
            assert cli.main(["oracle-check", "--trials", "300", "--seed", "5",
                             "--json"]) == 0
            return capsys.readouterr().out

        expected = output()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_SWEEP_CHUNK", 64)
            assert output() == expected
        monkeypatch.setattr(oracle, "_STACK_BYTES", 1)
        assert oracle._stack_size(12, 12) == 1
        assert output() == expected

    def test_benchmark_sweep_reports_the_pinned_diffs(self, capsys):
        # The benchmark's oracle_sweep run, 2000 trials in one draw chunk,
        # each mode at its own Fock cutoff.  Both diffs rest on LAPACK's SVD
        # and BLAS's dot product; these are the values with numpy 2.4's
        # bundled OpenBLAS.
        assert cli.main(["oracle-check", "--trials", "2000", "--seed", "1333878482",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_concurrence_diff"] == 6.661338147750939e-16
        assert payload["max_norm_sq_diff"] == 7.105427357601002e-14

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_non_positive_trials_exit_2(self, trials, capsys):
        assert cli.main(["oracle-check", "--trials", trials]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        # np.random.default_rng(-1) raised ValueError (exit 1).
        assert cli.main(["oracle-check", "--trials", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed must be >= 0, got -1" in captured.err

    @pytest.mark.parametrize("bound", ["nan", "-1", "inf", "1e-10"])
    def test_invalid_max_diff_exits_2(self, bound, capsys):
        # The flag is gone: the bound is SWEEP_ORACLE_TOL.
        with pytest.raises(SystemExit) as exited:
            cli.main(["oracle-check", "--trials", "3", "--max-diff", bound])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --max-diff {bound}" in captured.err

    @pytest.mark.parametrize("argv", [[], ["FILE", "--json"], ["--truncation", "40"]],
                             ids=["nothing", "state-file", "truncation"])
    def test_requires_trials(self, tmp_path, capsys, argv):
        # --truncation set the oracle's cutoff, which is now always derived.
        path = write(tmp_path, "s.txt", AMP_STATE)
        with pytest.raises(SystemExit) as exited:
            cli.main(["oracle-check", *(path if arg == "FILE" else arg for arg in argv)])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --trials" in captured.err

    def test_overlap_spec_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", OVERLAP_STATE)
        with pytest.raises(SystemExit) as exited:
            cli.main(["oracle-check", "--trials", "3", path])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {path}" in capsys.readouterr().err


# Each file is refused by a domain type as it loads, before any command runs.
@pytest.mark.parametrize("text, error", [
    (AMP_STATE.replace("gamma = 1", "gamma = 16.000001"),
     "half-gap max(|gamma - alpha|, |delta - beta|) / 2 = 8.0000005 exceeds the "
     "supported bound 8.0"),
    (AMP_STATE.replace("alpha = 0", "alpha = 1e308").replace("gamma = 1", "gamma = -1e308"),
     "half-gap max(|gamma - alpha|, |delta - beta|) / 2 = inf exceeds"),
    (AMP_STATE.replace("alpha = 0", "alpha = 1"), "alpha and gamma must differ"),
    (OVERLAP_STATE.replace("p1 = 0.5", "p1 = 1"), "p1 must lie strictly inside (0, 1)"),
    (AMP_STATE.replace("nu = -1", "mu = 0\nnu = 0"),
     "at least one coefficient must be nonzero"),
    (AMP_STATE.replace("rho = 0", "rho = nan"), "rho must be a finite real, got nan"),
    # the key is the file's, not the field's (lam)
    (OVERLAP_STATE.replace("lambda = -0.5", "lambda = nan"),
     "lambda must be a finite real, got nan"),
    # the oracle's Fock cutoff is always derived from the amplitudes
    (AMP_STATE + "truncation = 40\n", "line 8: unknown key 'truncation'"),
], ids=["half-gap>8", "gap-overflow", "alpha=gamma", "p1=1", "all-zero", "nan", "lambda-nan", "truncation"])
@pytest.mark.parametrize("command", ["concurrence", "classify"])
def test_refused_state_file_exits_2(tmp_path, capsys, command, text, error):
    path = write(tmp_path, "s.txt", text)
    assert cli.main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {error}")
    assert err.count("\n") == 1


# One value of each command's payload patched to inf: as with _emit, the
# command exits 2 with one error line naming the key, and prints nothing.
@pytest.mark.parametrize("argv, target, patch, key", [
    (["scan", "CONFIG", "OUT", "--json"], "run_scan", lambda real: lambda config: (
        *real(config)[:2], scan_report(max_oracle_diff=math.inf)), "max_oracle_diff"),
    (["examples", "--json"], "oracle_concurrences",
     lambda real: lambda *columns, **kwargs: (np.full(15, math.inf),
                                              real(*columns, **kwargs)[1]),
     "states[0].oracle_concurrence"),
    (["bell-limit", "--json"], "orthonormal_amplitudes",
     lambda real: lambda *a: dataclasses.replace(real(*a), a=math.inf),
     "class_a.amplitudes[0]"),
], ids=["scan", "examples", "bell-limit"])
def test_json_output_refuses_non_finite_values(tmp_path, monkeypatch, capsys,
                                               argv, target, patch, key):
    monkeypatch.setattr(cli, target, patch(getattr(cli, target)))
    out = tmp_path / "records.csv"
    paths = {"CONFIG": write(tmp_path, "scan.cfg", SMALL_SCAN), "OUT": str(out)}
    assert cli.main([paths.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key}")
    assert captured.err.count("\n") == 1
    assert not out.exists()  # a scan checks its report before it writes


def aligned(payload):
    """Aligned `key value` lines, a float at 17 significant digits."""
    return [f"{key:<26} {f'{value:.17g}' if isinstance(value, float) else value}"
            for key, value in payload.items()]


def render_examples(payload):
    return [f"reference states at (alpha-gamma)^2 = {payload['gap_squared']:.17g} "
            f"(x = {payload['x']:.17g})"] + [
        f"{'ok' if row['ok'] else 'FAIL':4} {row['label']:<50} "
        f"C(analytic)={row['analytic_concurrence']:.12f} "
        f"C(oracle)={row['oracle_concurrence']:.12f} {row['verdict']}"
        for row in payload["states"]]


def render_bell_limit(payload):
    lines = {"lambda": payload["lambda"], "x_small": payload["x_small"]}
    for name in ("class_a", "class_b"):
        family = payload[name]
        lines.update(zip([f"{name}_{part}" for part in "abcd"], family["amplitudes"]))
        lines[f"{name}_max_deviation"] = family["max_deviation"]
    return aligned(lines)


def render_scan(p):
    ratio, violations = p["worst_lower_bound_ratio"], p["violations"]
    verify = [
        f"verify: classes disjoint: {p['hits']} records ({p['class_a']} class a, "
        f"{p['class_b']} class b, {p['ambiguous']} ambiguous), 0 violations, "
        f"worst lower-bound ratio {'none' if ratio is None else f'{ratio:.17g}'}"]
    if violations:
        # the first 20 records, then a count of the rest
        verify = [f"verify: DISJOINTNESS VIOLATED: {len(violations)} of {p['hits']} "
                  f"records outside the two-sided bound"]
        verify += [f"  {v['reason']}: lam={v['lambda']!r} rho={v['rho']!r} "
                   f"nu={v['nu']!r} x={v['x']!r} C={v['concurrence']!r}"
                   for v in violations[:20]]
        verify += [f"  ... and {len(violations) - 20} more"] * (len(violations) > 20)
    return [
        f"scanned {p['grid_points']} grid points ({p['grid_evaluated']} evaluated): "
        f"{p['hits']} hits",
        f"bounded {p['grid_rows_bounded']} (lambda, rho, x) rows, "
        f"kept {p['grid_rows_kept']}",
        f"oracle spot-checked {p['oracle_checked']} records, "
        f"max |analytic - oracle| = {p['max_oracle_diff']:.17g}",
        *verify,
        f"records written to {p['out']}",
    ]


CONCURRENCE_KEYS = ["analytic_concurrence", "amplitude_a", "amplitude_b", "amplitude_c",
                    "amplitude_d", "norm", "p1", "p2"]
CLASSIFY_KEYS = ["verdict", "concurrence", "class_a_residual", "class_b_residual",
                 "separability_residual", "p1", "p2", "tol"]
EXAMPLES_ROW_KEYS = ["label", "lambda", "rho", "nu", "analytic_concurrence",
                     "oracle_concurrence", "verdict", "ok"]
FAMILY_KEYS = ["amplitudes", "target", "max_deviation"]
SCAN_KEYS = ["grid_points", "grid_evaluated", "grid_rows_bounded", "grid_rows_kept",
             "hits", "class_a", "class_b", "ambiguous", "worst_lower_bound_ratio",
             "oracle_checked", "max_oracle_diff", "disjoint", "violations", "out"]


# Every command's text output is a rendering of its --json payload on the same
# input, with the same exit status and stderr.  Each payload's keys are pinned
# in order, and so are those of its nested dicts (`nested`: a dict, or every
# row of a list).
@pytest.mark.parametrize("argv, status, render, keys, nested", [
    (["concurrence", "OVERLAP"], 0, aligned, CONCURRENCE_KEYS, {}),
    (["concurrence", "AMP"], 0, aligned,
     CONCURRENCE_KEYS + ["oracle_concurrence", "oracle_diff"], {}),
    (["classify", "OVERLAP"], 0, aligned, CLASSIFY_KEYS, {}),
    (["classify", "AMP"], 0, aligned, CLASSIFY_KEYS, {}),
    (["oracle-check", "--trials", "20", "--seed", "3"], 0, aligned,
     ["states_checked", "max_concurrence_diff", "max_norm_sq_diff", "max_allowed_diff"],
     {}),
    (["examples"], 0, render_examples, ["gap_squared", "x", "states"],
     {"states": EXAMPLES_ROW_KEYS}),
    # three states fail reproduction: FAIL rows, and exit 3 after the table
    (["examples", "--gap-squared", "1e-8"], 3, render_examples,
     ["gap_squared", "x", "states"], {"states": EXAMPLES_ROW_KEYS}),
    (["bell-limit", "--lam", "1", "--x-small", "1e-8"], 0, render_bell_limit,
     ["lambda", "x_small", "class_a", "class_b"],
     {"class_a": FAMILY_KEYS, "class_b": FAMILY_KEYS}),
    # no ratio measured (printed "none", JSON null), then the bundled box's
    (["scan", "CONFIG", "OUT"], 0, render_scan, SCAN_KEYS, {}),
    (["scan", "theorem_check.cfg", "OUT"], 0, render_scan, SCAN_KEYS, {}),
], ids=["concurrence-overlap", "concurrence-amp", "classify-overlap", "classify-amp",
        "oracle-check", "examples", "examples-failing", "bell-limit", "scan-small",
        "scan-bundled"])
def test_text_output_renders_the_json_payload(tmp_path, capsys, argv, status, render,
                                              keys, nested):
    paths = {"OVERLAP": write(tmp_path, "ov.txt", OVERLAP_STATE),
             "AMP": write(tmp_path, "amp.txt", AMP_STATE),
             "CONFIG": write(tmp_path, "scan.cfg", SMALL_SCAN),
             "OUT": str(tmp_path / "records.csv")}
    argv = [paths.get(arg, arg) for arg in argv]
    assert cli.main(argv + ["--json"]) == status
    as_json = capsys.readouterr()
    assert cli.main(argv) == status
    as_text = capsys.readouterr()
    payload = json.loads(as_json.out, parse_constant=strict_json_constant)
    assert list(payload) == keys
    for key, inner in nested.items():
        rows = payload[key] if isinstance(payload[key], list) else [payload[key]]
        assert [list(row) for row in rows] == [inner] * len(rows)
    assert as_text.out == "\n".join(render(payload)) + "\n"
    assert as_text.err == as_json.err


class TestDeterminism:
    def test_scan_csv_identical_across_runs(self, tmp_path):
        config = write(tmp_path, "scan.cfg", SMALL_SCAN)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["scan", config, str(out1)]) == 0
        assert cli.main(["scan", config, str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # SHA-256 of the CSVs of the bundled box, of the dense_sweep box (241^3),
    # of the bundled box at threshold 0.9 (50,217 hits, CI's wide smoke scan)
    # and at threshold 0.5 (284,712 hits, CI's half scan, the only one whose
    # hits include ambiguous ones: 5,206), in the six columns
    # lambda,rho,nu,x,concurrence,family: the grid uses only correctly
    # rounded elementwise operations, so any numpy should write these bytes,
    # and a record moved by one ulp fails here.
    @pytest.mark.parametrize("steps, threshold, digest", [
        (61, "0.999", "88ccb391babb54d121132979dafee7abcf754ef4ec52a72ee60abe72da8fa234"),
        (241, "0.999999",
         "f56c75f1db411515db7c375f6468997b3400c317a7cbb4f8ab0152b42b74e60e"),
        (61, "0.9", "b4e16a48dd1981a358bfb37cb833b1513dddfec285f9ccffddb2b440237f6149"),
        (61, "0.5", "ecdaa50cd385fc0e3f4b4c81cd5c52db9759d16bf11c50b6b01d71a488881e91"),
    ], ids=["bundled", "dense", "wide", "half"])
    def test_scan_csv_digest(self, tmp_path, steps, threshold, digest):
        text = resources.files("cohent").joinpath("configs").joinpath(
            "theorem_check.cfg").read_text(encoding="utf-8")
        text = text.replace("_steps = 61", f"_steps = {steps}").replace(
            "threshold = 0.999", f"threshold = {threshold}")
        out = tmp_path / "records.csv"
        assert cli.main(["scan", write(tmp_path, "scan.cfg", text), str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_examples_digest(self, capsys):
        # SHA-256 of `examples --json`, as the one-state-at-a-time oracle
        # printed it; its oracle C values rest on LAPACK's SVD, here numpy
        # 2.4's bundled OpenBLAS.
        assert cli.main(["examples", "--json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "12e5b97d8067170d5837248f2fd643a5d3b250c0e3de0261728b703da040c9aa"


def _run_with_closed_stdout(tmp_path, argv, unbuffered):
    """`python -m cohent.cli ARGV` with stdout's reader gone before anything
    is written, as with `| head`."""
    src = str(Path(cli.__file__).parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    reader, writer = os.pipe()
    os.close(reader)
    try:
        return subprocess.run([sys.executable, "-m", "cohent.cli", *argv],
                              stdout=writer, stderr=subprocess.PIPE, cwd=tmp_path,
                              env=env, timeout=300)
    finally:
        os.close(writer)


_CLOSED_STDOUT_ERROR = b"error: cannot write to standard output: the pipe is closed\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["examples"],
    ["oracle-check", "--trials", "3", "--json"],
    ["scan", "theorem_check.cfg", "out.csv", "--json"],
], ids=["examples", "oracle-check", "scan"])
def test_closed_stdout_exits_2(tmp_path, argv, unbuffered):
    # these exited 1 with a BrokenPipeError traceback (unbuffered), or 120
    # at the interpreter's final flush (buffered)
    result = _run_with_closed_stdout(tmp_path, argv, unbuffered)
    assert result.returncode == 2
    assert result.stderr == _CLOSED_STDOUT_ERROR


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]], ids=["help", "scan-help"])
def test_help_to_closed_stdout_exits_2(tmp_path, argv):
    # argparse exits before any command runs, and the interpreter's final
    # flush failed: exit 120.  (Unbuffered, argparse itself drops the write
    # error.)
    result = _run_with_closed_stdout(tmp_path, argv, unbuffered=False)
    assert result.returncode == 2
    assert result.stderr == _CLOSED_STDOUT_ERROR


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]], ids=["help", "scan-help"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cohent")


def test_package_root_exports_the_readme_library_names():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    imported = re.search(r"from cohent import \(([^)]*)\)", readme).group(1)
    names = [name.strip() for name in imported.split(",") if name.strip()]
    assert sorted(cohent.__all__) == sorted(names + ["__version__"])
    namespace = {}
    exec("from cohent import *", namespace)
    assert all(name in namespace for name in cohent.__all__)
