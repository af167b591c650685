"""cohent benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload theorem_scan --seed 1 --seconds 30 --trace 0

Each pass runs `cohent.cli.main([...])` in this process on the checkout's
`src/`, with one program thread and BLAS fixed at one thread, and every
pass's output goes through the workload's correctness gate.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median wall time of fresh interpreters that import cohent.cli
               and build and validate the workload's input, at reference speed
  wall_ref_s   lower quartile of the passes after an untimed warm-up pass, at
               reference speed
  peak_rss_mb  peak resident set of this process, which runs only this workload
and prints the raw median pass time as wall_s.

The host's cores change speed by up to 2x, in stretches from a fraction of
a second to many minutes, so raw times of the same code spread by about 30%
between runs.  "At reference speed" takes that out.  A pass is rescaled by
PROBE_REF_S / the mean time of the speed probe that ran all through it
(machine.SpeedProbe).  That leaves a tail of passes that the contention
slowed more than it slowed the probe; interference only ever adds time, so
the lower quartile skips that tail and still rests on a quarter of the
passes, where the fastest pass alone is noisy.  A set-up sample runs in its
own interpreter, so it is rescaled by CAL_REF_MS / the run's calibration
floor: the fastest of the fixed calibration samples (machine.py) taken after
every pass and set-up sample.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics.  Spans go to .bench_run/spans-<workload>.jsonl.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A failed pass fails all of its operations (failed / attempted is
the failed fraction).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import machine
import spans
from workloads import WORKLOADS, Inputs, Workload, csv_rows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 11
# Speed-probe sample time and calibration floor on a quiet core of the
# 2-vCPU Intel Xeon VM where the benchmark was defined.  Times "at reference
# speed" read as they would on that machine at its fastest.
PROBE_REF_S = 56e-6
CAL_REF_MS = 22.0
# Traced passes keep every span in memory (about 26,000 per oracle_sweep pass).
TRACED_PAIRS = 6

# ROADMAP Baseline rows and the traced metric that stands for each.
BASELINE_ROWS = (
    ("import", "cli.import_s"),
    ("grid sweep", "scan.grid_s"),
    ("refine", "scan.refine_s"),
    ("verify", "scan.verify_s"),
    ("oracle spot check", "scan.spot_s"),
    ("oracle-check (Fock oracle)", "self_s.oracle"),
    ("CSV", "cli.write_csv_s"),
)


@dataclass
class Pass:
    seconds: float
    problems: list[str]
    stdout: str
    # Speed-probe sample times during the pass; empty when it ran unprobed.
    probe: list[float] = field(default_factory=list)

    def at_reference_speed(self) -> float:
        """The pass time, probe time taken out, on a core as fast as PROBE_REF_S."""
        own = self.seconds - sum(self.probe)
        return own * PROBE_REF_S / statistics.fmean(self.probe)


@dataclass
class Tally:
    """Operations attempted and failed over every pass of the run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, workload: Workload, result: Pass) -> None:
        self.attempted += workload.operations
        if result.problems:
            self.failed += workload.operations
            self.problems.append("; ".join(result.problems))


def run_pass(cli, workload: Workload, inputs: Inputs, tally: Tally,
             tracer: spans.Tracer | None = None, pass_id: int = 0,
             probe: machine.SpeedProbe | None = None) -> Pass:
    if inputs.csv_path is not None:
        inputs.csv_path.unlink(missing_ok=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    traced = tracer.installed(pass_id) if tracer else nullcontext()
    with traced, redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        with probe or nullcontext():
            try:
                code = cli.main(inputs.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "exception"
                traceback.print_exc()
        elapsed = time.perf_counter() - start
    problems = workload.check(code, out.getvalue(), inputs.csv_path)
    if problems and err.getvalue():
        problems.append("stderr: " + err.getvalue().strip()[-500:])
    result = Pass(elapsed, problems, out.getvalue(),
                  list(probe.samples) if probe else [])
    tally.add(workload, result)
    return result


def setup_sample(inputs: Inputs) -> tuple[float, dict]:
    command = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
               json.dumps(inputs.argv)]
    if inputs.config_path is not None:
        command.append(str(inputs.config_path))
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    return time.perf_counter() - start, json.loads(done.stdout)


def quantile(values: list[float], q: int, n: int) -> float:
    """The q-th of n quantiles; the single value, or 0.0, below two samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=n)[q - 1]


def describe_samples(values: list[float]) -> str:
    q1, q3 = (quantile(values, 1, 4), quantile(values, 3, 4))
    return (f"median {statistics.median(values):.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"min {min(values):.4f}  max {max(values):.4f}  n {len(values)}")


def max_residual(rows: list[dict]) -> float:
    """Largest N^2 (1 - C) over scan CSV rows, in the sum-of-squares form."""
    worst = 0.0
    for row in rows:
        lam, rho, nu, x = (float(row[k]) for k in ("lambda", "rho", "nu", "x"))
        if nu >= lam * rho:
            h = lam + rho + 2.0 * x
            first, second = nu - 1.0 + x * h, h
        else:
            first, second = 1.0 + nu + (lam + rho) * x, lam - rho
        worst = max(worst, first * first + (1.0 - x) * (1.0 + x) * second * second)
    return worst


def timed_passes(cli, workload, inputs, seconds, tally, take_pass,
                 max_passes=None):
    """Passes for `seconds` after an untimed warm-up; set-up samples in between.

    The warm-up pass keeps lazy loading (numpy.linalg, about 10 ms on the
    first oracle call) out of the pass times.  Set-up samples are spread over
    the same window so that both see the same machine conditions; the time
    they take does not count against `seconds`.  A calibration sample
    follows every pass and every set-up sample.
    """
    run_pass(cli, workload, inputs, tally)
    machine.calibration_sample()
    setup, results, calibration = [], [], []
    passing = 0.0
    while not results or (passing < seconds and len(results) != max_passes):
        start = time.perf_counter()
        results.append(take_pass())
        calibration.append(machine.calibration_sample())
        passing += time.perf_counter() - start
        if len(setup) < min(passing / seconds * SETUP_RUNS, SETUP_RUNS):
            setup.append(setup_sample(inputs))
            calibration.append(machine.calibration_sample())
    while len(setup) < SETUP_RUNS:
        setup.append(setup_sample(inputs))
        calibration.append(machine.calibration_sample())
    return setup, results, calibration


def end_to_end(cli, workload, inputs, seconds, tally):
    probe = machine.SpeedProbe()
    setup, results, calibration = timed_passes(
        cli, workload, inputs, seconds, tally,
        lambda: run_pass(cli, workload, inputs, tally, probe=probe))
    timed = [r.seconds for r in results]
    at_ref = [r.at_reference_speed() for r in results]
    probes = [x for r in results for x in r.probe]
    setup_raw = [s for s, _ in setup]
    floor = min(c["total_ms"] for c in calibration)
    scale = CAL_REF_MS / floor
    print(f"speed probe: {len(probes)} samples, median "
          f"{statistics.median(probes) * 1e6:.1f} us, reference "
          f"{PROBE_REF_S * 1e6:.1f} us")
    print(f"calibration floor {floor:.3f} ms over {len(calibration)} samples; "
          f"reference {CAL_REF_MS} ms, scale {scale:.4f}")
    print(f"setup_s      [s]     {describe_samples([s * scale for s in setup_raw])}")
    print(f"  raw        [s]     {describe_samples(setup_raw)}")
    print(f"wall_ref_s   [s]     {describe_samples(at_ref)}  (reported: q1)")
    print(f"wall_s       [s]     {describe_samples(timed)}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb  [MB]    {peak:.2f}  n 1")
    print(f"failed_frac  [ratio] {tally.failed / tally.attempted:.4f}  "
          f"({tally.failed} of {tally.attempted} operations, {len(timed) + 1} passes)")
    return {"setup_s": statistics.median(setup_raw) * scale,
            "wall_ref_s": quantile(at_ref, 1, 4),
            "peak_rss_mb": peak}, calibration


class PassView:
    """One traced pass; each accessor returns None for a name that is absent."""

    def __init__(self, summary, counts, absent):
        self.summary, self.counts, self.absent = summary, counts, absent

    def calls(self, name):
        return None if name in self.absent else self.summary["calls"][name]

    def total(self, name):
        return None if name in self.absent else self.summary["total"][name]

    def count(self, source, name=None):
        return None if source in self.absent else self.counts[name or source]


def ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def pass_metrics(view: PassView, payload: dict, rows: list[dict] | None) -> dict:
    points = payload.get("grid_points", 0)
    grid_s = view.total("scan.grid_scan")
    refine_calls = view.calls("scan.refine")
    residual_calls = view.count("analytic.maximality_residual")
    build_calls = view.calls("oracle.build_state")
    values = {
        "scan.grid_s": grid_s,
        "scan.grid_points": points,
        "scan.grid_hits": payload.get("hits", 0),
        "scan.grid_hit_frac": ratio(payload.get("hits", 0), points),
        "scan.grid_points_per_s": ratio(points, grid_s),
        "scan.refine_s": view.total("scan.refine"),
        "scan.refine_calls": refine_calls,
        "scan.refine_unconverged": view.count("scan.refine",
                                              "scan.refine_unconverged"),
        "scan.refine_residual_evals_per_hit": ratio(residual_calls, refine_calls),
        "scan.refine_max_residual": max_residual(rows) if rows else 0.0,
        "scan.verify_s": view.total("scan.verify_disjoint_classes"),
        "scan.verify_n_maximal": view.count("scan.verify_disjoint_classes",
                                            "scan.verify_n_maximal"),
        "scan.verify_violations": view.count("scan.verify_disjoint_classes",
                                             "scan.verify_violations"),
        "scan.spot_s": view.total("scan.oracle_spot_check"),
        "scan.spot_checked": payload.get("oracle_checked", 0),
        "scan.spot_max_diff": payload.get("max_oracle_diff", 0.0),
        "analytic.concurrence_calls": view.calls("analytic.concurrence"),
        "analytic.concurrence_s": view.total("analytic.concurrence"),
        "analytic.residual_calls": residual_calls,
        "analytic.gram_norm_calls": view.count("analytic.gram_norm_squared"),
        "classify.calls": view.calls("classify.classify"),
        "classify.s": view.total("classify.classify"),
        "cli.write_csv_s": view.total("cli.write_records_csv"),
        "cli.csv_rows": len(rows) if rows else 0,
        "coherent.fock_vector_calls": view.calls("coherent.fock_vector"),
        "coherent.fock_vector_s": view.total("coherent.fock_vector"),
        "oracle.build_state_calls": build_calls,
        "oracle.builds_per_state": ratio(
            build_calls, view.calls("oracle.oracle_concurrence")),
        "oracle.build_state_s": view.total("oracle.build_state"),
        "oracle.schmidt_s": view.total("oracle.schmidt_concurrence"),
        "oracle.bytes_computed": view.count("oracle.build_state",
                                            "oracle.bytes_computed"),
        "oracle.max_concurrence_diff": payload.get("max_concurrence_diff", 0.0),
        "oracle.max_norm_sq_diff": payload.get("max_norm_sq_diff", 0.0),
        "trace.traced_pass_s": view.total("cli.main"),
        "trace.self_sum_s": sum(view.summary["self"].values()),
    }
    for layer, own in view.summary["self"].items():
        values[f"self_s.{layer}"] = own
    return values


def per_layer(cli, workload, inputs, seconds, tally, spans_path):
    tracer = spans.Tracer()
    untraced, overheads, extras = [], [], {}

    def traced_pair():
        untraced.append(run_pass(cli, workload, inputs, tally).seconds)
        pass_id = len(untraced)
        result = run_pass(cli, workload, inputs, tally, tracer, pass_id)
        overheads.append(result.seconds - untraced[-1])
        payload = json.loads(result.stdout) if not result.problems else {}
        rows = csv_rows(inputs.csv_path)
        csv_bytes = inputs.csv_path.stat().st_size if rows is not None else 0
        extras[pass_id] = (payload, rows, csv_bytes)

    setup, _, calibration = timed_passes(cli, workload, inputs, seconds, tally,
                                         traced_pair, max_passes=TRACED_PAIRS)
    tracer.write_jsonl(spans_path)

    per_pass = []
    for pass_id, summary in spans.pass_summaries(tracer.spans).items():
        payload, rows, csv_bytes = extras[pass_id]
        view = PassView(summary, tracer.counts[pass_id], tracer.absent)
        values = pass_metrics(view, payload, rows)
        values["cli.csv_bytes"] = csv_bytes
        per_pass.append(values)
    metrics = {name: statistics.median(v[name] for v in per_pass)
               for name in per_pass[0] if per_pass[0][name] is not None}

    durations = {}
    for name, start, end, _, _ in tracer.spans:
        durations.setdefault(name, []).append((end - start) * 1e3)
    pooled = (("scan.refine_ms", "scan.refine", (50, 95)),
              ("oracle.state_ms", "oracle.oracle_concurrence", (50, 99)))
    for prefix, name, percentiles in pooled:
        if name in tracer.absent:
            continue
        for p in percentiles:
            metrics[f"{prefix}_p{p}"] = quantile(durations.get(name, []), p, 100)

    metrics["cli.import_s"] = statistics.median(info["import_s"] for _, info in setup)
    metrics["statespec.parse_s"] = statistics.median(
        info["parse_s"] for _, info in setup)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace_overhead_s"] = statistics.median(overheads)

    print(f"traced {len(per_pass)} passes (+{len(untraced)} untraced); "
          f"spans in {spans_path.relative_to(ROOT)}")
    if tracer.absent:
        print(f"absent from the program: {', '.join(tracer.absent)}")
    print("self time per layer (median traced pass):")
    for layer in spans.LAYERS:
        if f"self_s.{layer}" in metrics:
            share = metrics[f"self_s.{layer}"] / metrics["trace.traced_pass_s"]
            print(f"  {layer:<30} {metrics[f'self_s.{layer}']:.4f} s  {share:6.1%}")
    print(f"  {'sum of self times':<30} {metrics['trace.self_sum_s']:.4f} s; "
          f"traced pass {metrics['trace.traced_pass_s']:.4f} s, untraced "
          f"{metrics['trace.untraced_pass_s']:.4f} s, overhead "
          f"{metrics['trace_overhead_s']:.4f} s")
    print("ROADMAP Baseline rows:")
    for row, name in BASELINE_ROWS:
        value = metrics.get(name)
        shown = "absent" if value is None else f"{value:.4f} s"
        print(f"  {row:<30} {name:<22} {shown}")
    return metrics, calibration


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohent" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} holds no cohent sources under src/ or no "
              "BENCHMARK.json; run from a full checkout", file=sys.stderr)
        return 2
    for var in machine.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import cohent.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cohent from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    inputs = workload.prepare(args.seed, WORK)
    print(f"workload {workload.name} seed {args.seed}: cohent {' '.join(inputs.argv)}")
    print("machine " + json.dumps(machine.describe()))

    tally = Tally()
    if args.trace:
        spans_path = WORK / f"spans-{workload.name}.jsonl"
        metrics, calibration = per_layer(cli, workload, inputs, args.seconds,
                                         tally, spans_path)
    else:
        metrics, calibration = end_to_end(cli, workload, inputs, args.seconds,
                                          tally)
    print("calibration " + json.dumps(machine.summarize(calibration)))
    for problem in dict.fromkeys(tally.problems):
        print(f"FAILED PASS: {problem}")

    reported = {}
    for entry in wanted:
        value = metrics.get(entry["name"])
        if value is not None and math.isfinite(value):
            reported[entry["name"]] = {"value": value, "unit": entry["unit"]}
    missing = [entry["name"] for entry in wanted if entry["name"] not in reported]
    if missing:
        print(f"not reported: {', '.join(missing)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
