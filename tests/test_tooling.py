"""The benchmark's tracer and work budget look slopekit functions up by name;
a rename or deletion there must fail here before it breaks a benchmark run."""

import importlib
import sys
from pathlib import Path

import slopekit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    names = list(tracing.TRACED) + [("linalg", "rref")]  # rref: wrapped by WorkBudget
    for mod, path in names:
        obj = getattr(slopekit, mod)
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod}.{path}"
