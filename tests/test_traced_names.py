"""The benchmark's tracer wraps functions by name (bench/spans.py); a name
that no longer resolves drops its per-layer metrics from a traced run's
result line.  This reads the names from bench/spans.py without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names():
    """(module, function) of every entry of SPANNED and COUNTED."""
    names = []
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")):
            names += [entry[:2] for entry in ast.literal_eval(node.value)]
    return names


def test_both_tables_are_found():
    assert len(traced_names()) >= 10


@pytest.mark.parametrize("module, name", traced_names())
def test_every_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"cohent.{module}"), name, None))
