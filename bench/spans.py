"""Outside-in tracing of cohent's layers, without editing the package.

`Tracer.installed()` swaps each traced function for a wrapper in every
loaded `cohent` module that binds it, because callers look names up in their
own module globals (`cli` imports `run_scan` by name, `scan` calls `refine`
through its globals, `oracle.build_state` finds `fock_vector` in `oracle`).
Leaving the block restores the originals.

Spanned functions record [name, start, end, parent index, pass id] in memory.
Counted functions are called hundreds of thousands of times per pass
(`maximality_residual` inside refine), so they only bump a counter and their
time stays in their caller's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function, layer).  A layer is a module of the package, except
# that the scan pipeline's four stages and the CSV writer are their own rows.
SPANNED = (
    ("cli", "main", "cli"),
    ("cli", "write_records_csv", "cli.csv"),
    ("statespec", "load_scan_file", "statespec"),
    ("statespec", "parse_scan_text", "statespec"),
    ("scan", "run_scan", "scan"),
    ("scan", "grid_scan", "scan.grid_scan"),
    ("scan", "refine", "scan.refine"),
    ("scan", "verify_disjoint_classes", "scan.verify_disjoint_classes"),
    ("scan", "oracle_spot_check", "scan.oracle_spot_check"),
    ("analytic", "concurrence", "analytic"),
    ("classify", "classify", "classify"),
    ("oracle", "oracle_concurrence", "oracle"),
    ("oracle", "build_state", "oracle"),
    ("oracle", "schmidt_concurrence", "oracle"),
    ("coherent", "fock_vector", "coherent"),
)
COUNTED = (
    ("analytic", "maximality_residual"),
    ("analytic", "gram_norm_squared"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SPANNED))
LAYER_OF = {f"{module}.{name}": layer for module, name, layer in SPANNED}


def _refine_counts(counts, result):
    counts["scan.refine_unconverged"] += not result.refine_converged


def _verify_counts(counts, result):
    counts["scan.verify_n_maximal"] += result.n_maximal
    counts["scan.verify_violations"] += len(result.violations)


def _build_state_counts(counts, result):
    # Bytes of the T x T float64 joint matrix, from its size, not measured.
    counts["oracle.bytes_computed"] += 8 * result.truncation ** 2


# Counters read off a spanned call's result.
RESULT_COUNTS = {
    "scan.refine": _refine_counts,
    "scan.verify_disjoint_classes": _verify_counts,
    "oracle.build_state": _build_state_counts,
}


class Tracer:
    """Spans and counters for the traced passes of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _spanned(self, name, fn, pass_id, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, pass_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    @staticmethod
    def _counted(name, fn, pass_id, counts):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name, attr, wrap, pass_id):
        name = f"{module_name}.{attr}"
        try:
            original = getattr(importlib.import_module(f"cohent.{module_name}"),
                               attr, None)
        except ModuleNotFoundError:
            original = None
        if original is None:
            if name not in self.absent:
                self.absent.append(name)
            return
        wrapper = wrap(name, original, pass_id, self.counts[pass_id])
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cohent" and not mod_name.startswith("cohent."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    @contextmanager
    def installed(self, pass_id: int):
        """Trace every call made inside the block as part of pass `pass_id`."""
        self.counts[pass_id] = Counter()
        try:
            for module_name, attr, _ in SPANNED:
                self._patch(module_name, attr, self._spanned, pass_id)
            for module_name, attr in COUNTED:
                self._patch(module_name, attr, self._counted, pass_id)
            yield
        finally:
            for mod, key, original in reversed(self._patches):
                setattr(mod, key, original)
            self._patches.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, pass_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "pass": pass_id,
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def pass_summaries(spans: list[list]) -> dict[int, dict]:
    """Per pass: call count and total time per name, self time per layer."""
    summaries: dict[int, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, pass_id = span
        summary = summaries.setdefault(pass_id, {
            "calls": Counter(), "total": Counter(),
            "self": dict.fromkeys(LAYERS, 0.0),
        })
        summary["calls"][name] += 1
        summary["total"][name] += end - start
        summary["self"][LAYER_OF[name]] += own
    return summaries
