"""The benchmark's tracer and work budget look slopekit functions up by name;
a rename or deletion there must fail here before it breaks a benchmark run."""

import ast
import importlib
import inspect
import random
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


def _sample_space(rng, dim, n_filts):
    mf = slopekit.multifilt
    filts = []
    for _ in range(n_filts):
        # a unitriangular basis with shuffled columns, cut into a flag
        cols = rng.sample(range(dim), dim)
        b = [[1 if j == i else rng.randint(-2, 2) * (j > i) for j in range(dim)] for i in range(dim)]
        b = [[row[c] for c in cols] for row in b]
        n_steps = rng.randint(1, dim)
        sizes = [dim] + sorted(rng.sample(range(1, dim), n_steps - 1), reverse=True)
        breaks = sorted(rng.sample(range(-3, 4), n_steps))
        filts.append(mf.Filtration(dim, [(lam, b[:k]) for lam, k in zip(breaks, sizes)]))
    return mf.MultifilteredSpace(dim, filts)


def test_multifilt_eliminates_only_through_rref(monkeypatch):
    """The benchmark's work budget meters only `linalg.rref`, so multifiltered
    code must not eliminate by any other kernel."""
    linalg, mf = slopekit.linalg, slopekit.multifilt
    banned = (linalg.bareiss, linalg.det_int, linalg.pivots_field, linalg.hnf, linalg.diagonalize_int)

    def forbid(fn):
        def call(*args, **kwargs):
            raise AssertionError(f"multifilt reached linalg.{fn.__name__}")

        return call

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "slopekit" or name.startswith("slopekit."):
            for attr, val in list(vars(module).items()):
                if any(val is fn for fn in banned):
                    monkeypatch.setattr(module, attr, forbid(val))
                    patched += 1
    assert patched >= len(banned)
    rng = random.Random(3)
    for _ in range(12):
        n_filts = rng.randint(1, 3)
        m1 = _sample_space(rng, rng.randint(1, 3), n_filts)
        m2 = _sample_space(rng, rng.randint(1, 2), n_filts)
        r1, r2 = mf.mu_max_mf(m1), mf.mu_max_mf(m2)
        t = mf.tensor_mf(m1, m2)
        products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
        mf.mu_max_mf(t, extra_candidates=[products])
        mf.nu_witness(t)
        mf.multigraded_dims(t)
        if r1.certified:
            mf.slope_filtration_mf(m1)


def test_linalg_eliminates_through_rref(monkeypatch):
    """The work budget wraps `linalg.rref` by name, so each rational route of
    `linalg` must look that name up at call time."""
    linalg = slopekit.linalg
    calls = []
    real = linalg.rref

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "rref", counted)
    a = linalg.mat([[1, 2, 3], [2, 4, 7]])
    b = linalg.mat([[1, 2, 4]])
    g = linalg.mat([[2, 1], [1, 1]])
    routes = {
        "rank": lambda: linalg.rank(a),
        "kernel": lambda: linalg.kernel(a),
        "intersect_row_spaces": lambda: linalg.intersect_row_spaces(a, b, 3),
        "sum_row_spaces": lambda: linalg.sum_row_spaces(a, b),
        "in_row_space": lambda: linalg.in_row_space(b[0], a),
        "solve": lambda: linalg.solve(a, b[0]),
        "inverse": lambda: linalg.inverse(g),
        "is_positive_semidefinite": lambda: linalg.is_positive_semidefinite(g),
    }
    for name, route in routes.items():
        before = len(calls)
        route()
        assert len(calls) > before, f"linalg.{name} eliminated around rref"


def test_factoring_goes_through_public_name(monkeypatch):
    """The benchmark's factoring span wraps `exactval.factor_positive_int`, so
    every route to a factorization must look that name up at call time."""
    ev = slopekit.exactval
    calls = []
    real = ev.factor_positive_int

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(ev, "factor_positive_int", counted)
    routes = {
        "EuclideanLattice.degree": lambda: slopekit.lattice.EuclideanLattice([[2, 1], [1, 2]]).degree(),
        "half_log": lambda: ev.half_log(6),
        "parse": lambda: ev.parse("log(6)"),
        "LogRational": lambda: ev.LogRational(0, {6: 1}),
    }
    for name, route in routes.items():
        before = len(calls)
        route()
        assert len(calls) > before, name
