"""The benchmark's tracer and work budget look slopekit functions up by name;
a rename or deletion there must fail here before it breaks a benchmark run."""

import ast
import importlib
import inspect
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


def test_benchmark_mu_max_mf_calls_bind():
    """Every mu_max_mf call in the benchmark sources still binds to the
    signature, so removing a parameter they pass fails here first."""
    sig = inspect.signature(slopekit.multifilt.mu_max_mf)
    calls = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "mu_max_mf":
                continue
            sig.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            calls += 1
    assert calls >= 3
