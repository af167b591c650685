"""The three benchmark workloads and the correctness gate every pass must clear.

Each workload is one `cohent` CLI invocation.  The benchmark builds its
inputs (argument list and, for scans, the config text) from the workload
seed; the program sees only those.  The expected counts are the ones the
program produced when the benchmark was defined: a pass that reports other
counts has changed the classification, not just its speed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Largest |analytic - oracle| difference a pass may report.
MAX_ORACLE_DIFF = 1e-8

ORACLE_TRIALS = 2000

# The coefficient box of the bundled theorem_check.cfg; `steps`, `threshold`
# and `seed` are filled in per workload.
_SCAN_TEMPLATE = """\
lambda_min = -3
lambda_max = 3
lambda_steps = {steps}
rho_min = -3
rho_max = 3
rho_steps = {steps}
nu_min = -3
nu_max = 3
nu_steps = {steps}
x_values = 0.2, 0.5, 0.8
threshold = {threshold}
seed = {seed}
oracle_fraction = 0.01
"""


def derived_seed(workload: str, seed: int) -> int:
    """The program-facing seed for one workload, a fixed function of --seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Inputs:
    argv: list[str]
    config_path: Path | None
    csv_path: Path | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Operations one pass attempts: grid hits carried to a verdict, or
    # random states checked against the oracle.
    operations: int
    # Scan workloads only: grid steps per axis, threshold, and the counts
    # (hits, class_a, class_b) recorded when the benchmark was defined.
    steps: int = 0
    threshold: float = 0.0
    expected: tuple[int, int, int] | None = None

    @property
    def is_scan(self) -> bool:
        return self.expected is not None

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        """Write this workload's input files under `workdir`; return the argv."""
        program_seed = derived_seed(self.name, seed)
        if not self.is_scan:
            argv = ["oracle-check", "--trials", str(self.operations),
                    "--seed", str(program_seed), "--json"]
            return Inputs(argv, None, None)
        config = workdir / f"{self.name}.cfg"
        config.write_text(_SCAN_TEMPLATE.format(
            steps=self.steps, threshold=self.threshold, seed=program_seed))
        out = workdir / f"{self.name}.csv"
        return Inputs(["scan", str(config), str(out), "--json"], config, out)

    def check(self, exit_code, stdout: str, csv_path: Path | None) -> list[str]:
        """Every way this pass's output differs from a correct one."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return ["stdout is not one JSON document"]
        if not isinstance(payload, dict):
            return ["stdout is not a JSON object"]
        if self.is_scan:
            return _check_scan(payload, self.expected, csv_path)
        return _check_oracle(payload, self.operations)


def _number(payload: dict, key: str):
    value = payload.get(key)
    return value if isinstance(value, (int, float)) else None


def _check_scan(payload: dict, expected, csv_path: Path) -> list[str]:
    problems = []
    if payload.get("disjoint") is not True:
        problems.append(f"disjoint = {payload.get('disjoint')!r}")
    for key, want in zip(("hits", "class_a", "class_b"), expected):
        if payload.get(key) != want:
            problems.append(f"{key} = {payload.get(key)!r}, expected {want}")
    diff = _number(payload, "max_oracle_diff")
    if diff is None or not diff <= MAX_ORACLE_DIFF:
        problems.append(f"max_oracle_diff = {payload.get('max_oracle_diff')!r}")
    rows = csv_rows(csv_path)
    if rows is None:
        problems.append("CSV missing or without a header")
    elif len(rows) != payload.get("hits"):
        problems.append(f"CSV has {len(rows)} rows, hits = {payload.get('hits')!r}")
    return problems


def _check_oracle(payload: dict, trials: int) -> list[str]:
    problems = []
    if payload.get("states_checked") != trials:
        problems.append(
            f"states_checked = {payload.get('states_checked')!r}, expected {trials}")
    for key in ("max_concurrence_diff", "max_norm_sq_diff"):
        diff = _number(payload, key)
        if diff is None or not diff <= MAX_ORACLE_DIFF:
            problems.append(f"{key} = {payload.get(key)!r}")
    return problems


def csv_rows(path: Path | None) -> list[dict] | None:
    """Data rows of a scan CSV, or None when the file or its header is missing."""
    if path is None or not path.is_file():
        return None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
    return rows if reader.fieldnames else None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="theorem_scan",
            why="bundled 61^3 x 3 box: refine takes ~90% of a pass, the grid ~1%",
            operations=480, steps=61, threshold=0.999, expected=(480, 237, 243),
        ),
        Workload(
            name="dense_sweep",
            why="241^3 x 3 box (42M points) at C >= 0.999999: the array grid takes "
                "~95%, hits sit on a family so refine is cheap",
            operations=884, steps=241, threshold=0.999999, expected=(884, 603, 281),
        ),
        Workload(
            name="oracle_sweep",
            why="2000 random states through the Fock oracle and scalar formulas; "
                "never touches scan",
            operations=ORACLE_TRIALS,
        ),
    )
}
