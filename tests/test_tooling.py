"""The benchmark's tracer and work budget look slopekit functions up by name;
a rename or deletion there must fail here before it breaks a benchmark run."""

import ast
import importlib
import inspect
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import slopekit
import slopekit.harness  # `import slopekit` alone does not load it

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    names = list(tracing.TRACED) + [("linalg", "rref")]  # rref: wrapped by WorkBudget
    for mod, path in names:
        obj = getattr(slopekit, mod)
        for part in path.split("."):
            # the tracer wraps a method from its own class's dict, not an inherited one
            obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
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
    banned = (linalg.bareiss, linalg.det_int, linalg.hnf, linalg.saturate)

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
    # the op-26 tensor stops at its witness product through the quotient
    # test: the quotient and its relaxation eliminate, and the budget is
    # charged for it, in the units `WorkBudget` counts
    from test_multifilt import _OP26_FACTORS

    units, quotients, quotient_units = [], [], []
    real_rref, real_quotient, real_bound = linalg.rref, mf.quotient_object, mf._profile_upper_bound

    def charged(a):
        units.append(len(a) * len(a[0]) * min(len(a), len(a[0])) if a else 0)
        return real_rref(a)

    def quotient(m, rows):
        before = sum(units)
        out = real_quotient(m, rows)
        quotients.append(out[0])
        quotient_units.append(sum(units) - before)
        return out

    def bound(m):
        before = sum(units)
        out = real_bound(m)
        if any(m is q for q in quotients):
            quotient_units[-1] += sum(units) - before
        return out

    monkeypatch.setattr(linalg, "rref", charged)
    monkeypatch.setattr(mf, "quotient_object", quotient)
    monkeypatch.setattr(mf, "_profile_upper_bound", bound)
    m1, m2 = (mf.MultifilteredSpace(3, [mf.Filtration(3, s) for s in f]) for f in _OP26_FACTORS)
    r1, r2 = mf.mu_max_mf(m1), mf.mu_max_mf(m2)
    products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
    rt = mf.mu_max_mf(mf.tensor_mf(m1, m2), extra_candidates=[products])
    assert rt.certified and rt.value == r1.value + r2.value == -1
    assert len(quotient_units) == 1 and quotient_units[0] > 0


def _budget_corpus():
    """The seeded mf corpus whose elimination work is pinned: 24 pairs of
    `_sample_space` factors (dimensions 2..3 and 1..3, 1..3 filtrations),
    one with its bases scaled by Fractions, the op-26 factors, and the op-23
    factors, whose tensor certifies on the bounds through its witness
    product.  Each case is one op of the benchmark's mf-tensor workload
    (both factors' mu_max, the tensor's mu_max with the witness products,
    nu of the tensor) plus the first factor's multigraded dimensions, dual
    and slope filtration."""
    from fractions import Fraction

    from test_multifilt import _OP23_FACTORS, _OP26_FACTORS

    mf = slopekit.multifilt
    rng = random.Random(23)
    cases = []
    for _ in range(24):
        n_filts = rng.randint(1, 3)
        cases.append((_sample_space(rng, rng.randint(2, 3), n_filts), _sample_space(rng, rng.randint(1, 3), n_filts)))
    m1, m2 = cases[0]
    scaled = [
        mf.Filtration(f.ambient_dim, [(lam, [[Fraction(x, k + 2) for x in row] for row in space]) for lam, space in f.steps])
        for k, f in enumerate(m1.filtrations)
    ]
    cases.append((mf.MultifilteredSpace(m1.dim, scaled), m2))
    cases.append(tuple(mf.MultifilteredSpace(3, [mf.Filtration(3, s) for s in f]) for f in _OP26_FACTORS))
    cases.append(tuple(mf.MultifilteredSpace(d, [mf.Filtration(d, s) for s in f]) for d, f in zip((3, 2), _OP23_FACTORS)))
    return cases


def _run_budget_op(m1, m2):
    """The benchmark's mf-tensor op: both factors' mu_max, the tensor's
    mu_max with the witness products, and nu of the tensor.  Returns the
    first factor's mu_max."""
    mf = slopekit.multifilt
    r1, r2 = mf.mu_max_mf(m1), mf.mu_max_mf(m2)
    t = mf.tensor_mf(m1, m2)
    products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
    mf.mu_max_mf(t, extra_candidates=[products])
    mf.nu_witness(t)
    return r1


def _run_budget_rest(m1, r1):
    """The rest of a case: the first factor's multigraded dimensions, dual
    and, where its mu_max certified, slope filtration."""
    mf = slopekit.multifilt
    mf.multigraded_dims(m1)
    mf.dual_mf(m1)
    if r1.certified:
        mf.slope_filtration_mf(m1)


# (units, rref calls) of the benchmark's op on each `_budget_corpus` case
# (`_run_budget_op`).  The work budget charges the same units, so a change
# to these is a change to what the benchmark meters: a library change that
# saves metered work re-pins them, and says so, and a change that moves
# elimination off `linalg.rref` must not pass by re-pinning.
_BUDGET_PINNED_OP = [
    (11845, 73), (224, 5), (1084, 20), (3412, 22), (108, 4), (888, 7),
    (540, 4), (13578, 33), (4095, 31), (4456, 26), (16, 2), (32, 4),
    (696, 4), (8235, 16), (8955, 16), (54, 2), (10260, 22), (160, 4),
    (5661, 17), (16, 2), (1320, 9), (4096, 24), (3951, 13), (360, 4),
    (11845, 73), (59637, 159), (27511, 179),
]

# The same for the rest of each case (`_run_budget_rest`), outside the
# benchmark's op.  The slope filtration builds its chain as first edges of
# quotients, each stage a `mu_max_mf`.
_BUDGET_PINNED_REST = [
    (73, 16), (8, 1), (42, 15), (304, 22), (81, 3), (219, 16),
    (30, 7), (399, 26), (42, 10), (80, 21), (0, 0), (24, 3),
    (110, 6), (220, 16), (113, 7), (0, 0), (185, 14), (0, 0),
    (138, 10), (0, 0), (409, 29), (260, 29), (96, 7), (0, 0),
    (73, 16), (612, 47), (1199, 50),
]


def test_work_budget_units_are_pinned(monkeypatch):
    """The mf-tensor work budget charges each `linalg.rref` call rows x
    columns x min(rows, columns), as `WorkBudget` does.  On a fixed seeded
    corpus the units and calls of the benchmark's op and, separately, of
    the rest of each case are the pinned ones, and `_rref_rows` makes
    no `rref` call on integer RREF rows or on unit-pivot Fraction RREF rows,
    the forms stored subspaces and their printed bases take.  Only the
    op-23 case reads the bounds through a probe (`through`), and the degree
    bounds of its pieces (the probe's subobject and quotient) eliminate
    through `rref`, so the budget charges them."""
    linalg, mf = slopekit.linalg, slopekit.multifilt
    cases = _budget_corpus()
    calls, split_units = [], []
    real, real_bounds = linalg.rref, mf._degree_bounds

    def charged(a):
        rows = len(a)
        cols = len(a[0]) if rows else 0
        calls.append(rows * cols * min(rows, cols))
        return real(a)

    def piece_bounds(m):
        before = sum(calls)
        out = real_bounds(m)
        split_units[-1] += sum(calls) - before
        return out

    monkeypatch.setattr(linalg, "rref", charged)
    monkeypatch.setattr(mf, "_degree_bounds", piece_bounds)
    op, rest = [], []
    for m1, m2 in cases:
        calls.clear()
        split_units.append(0)
        r1 = _run_budget_op(m1, m2)
        op.append((sum(calls), len(calls)))
        calls.clear()
        _run_budget_rest(m1, r1)
        rest.append((sum(calls), len(calls)))
    assert op == _BUDGET_PINNED_OP
    assert rest == _BUDGET_PINNED_REST
    assert split_units[:-1] == [0] * (len(cases) - 1) and split_units[-1] > 0
    stored = [space for m in itertools.chain.from_iterable(cases) for f in m.filtrations for _, space in f.steps]
    assert len(stored) >= 50
    calls.clear()
    for space in stored:
        assert mf._rref_rows(space, len(space[0])) == space
        assert mf._rref_rows(linalg.unit_rref(space), len(space[0])) == space
    assert calls == []


def test_linalg_eliminates_through_rref(monkeypatch):
    """The work budget wraps `linalg.rref` by name, so each rational route of
    `linalg` must look that name up at call time.  (Lattice duals run on
    `bareiss`, and the budget meters only multifiltered ops, which build no
    lattice.)"""
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
        "linalg.rank": lambda: linalg.rank(a),
        "linalg.kernel": lambda: linalg.kernel(a),
        "linalg.intersect_and_sum": lambda: linalg.intersect_and_sum(a, b, 3),
        "linalg.intersect_row_spaces": lambda: linalg.intersect_row_spaces(a, b, 3),
        "linalg.sum_row_spaces": lambda: linalg.sum_row_spaces(a, b),
        "linalg.in_row_space": lambda: linalg.in_row_space(b[0], a),
        "linalg.is_positive_semidefinite": lambda: linalg.is_positive_semidefinite(g),
    }
    for name, route in routes.items():
        before = len(calls)
        route()
        assert len(calls) > before, f"{name} eliminated around rref"


def test_rref_takes_only_rational_entries(monkeypatch):
    """`rref` works over Q only: the hermitian manifests and a hermitian
    dual hand it ints, bools and Fractions and nothing else (a dual runs on
    `bareiss`).  The entries are recorded, not asserted on, since a
    manifest turns a failed assertion into a failed check."""
    linalg, herm = slopekit.linalg, slopekit.hermitian
    real = linalg.rref
    other = []

    def rational(a):
        other.extend(x for x in itertools.chain.from_iterable(a) if type(x) not in (int, bool, Fraction))
        return real(a)

    monkeypatch.setattr(linalg, "rref", rational)
    for report in (herm.a2_twist_checks(), herm.q7_checks(), herm.qp_checks(5)):
        assert report.passed, report.name
    k = herm.ImagQuadField(7)
    herm.HermitianLattice(k, [[2, k.omega], [k.omega.conj(), 3]]).dual()
    assert other == []


def test_lattice_kinds_share_one_pair_implementation():
    """Euclidean and hermitian lattices are one integral pair: each operation
    on it is one function object, defined once in `lattice._GramPair`, or
    in `exactval._Value` for immutability and equality."""
    lat, herm = slopekit.lattice, slopekit.hermitian
    e, h = lat.EuclideanLattice, herm.HermitianLattice
    shared = (
        "_init_pair", "gram", "rank", "det", "scaled_gram", "slope", "dual", "tensor",
        "orthogonal_sum", "exterior_power", "is_integral", "is_unimodular", "__hash__",
    )
    for name in shared:
        assert name not in vars(e) and name not in vars(h), name
        assert getattr(e, name) is getattr(h, name) is vars(lat._GramPair)[name], name
    for name in ("__setattr__", "__delattr__", "__eq__"):
        assert name not in vars(e) and name not in vars(h) and name not in vars(lat._GramPair), name
        assert getattr(e, name) is getattr(h, name) is vars(slopekit.exactval._Value)[name], name
    assert e._new.__func__ is h._new.__func__
    assert e.scale is h.twist is lat._GramPair._rescale
    # a dual is one `bareiss` run in the entries' ring, with no per-kind hook
    assert e.dual is h.dual is vars(lat._GramPair)["dual"]
    assert not any(hasattr(kind, "_clear") for kind in (e, h, lat._GramPair))
    # EuclideanLattice names `degree` too, for the tracer (test_traced_names_resolve)
    assert e.degree is h.degree is vars(lat._GramPair)["degree"] and "degree" not in vars(h)
    # a bound classmethod is a fresh object on every access, so `is` cannot test `load`
    assert "load" in vars(lat._GramPair) and "load" not in vars(e) and "load" not in vars(h)


def test_immutable_values_share_one_base():
    """Immutability and identity are written once, in `exactval._Value`:
    no other class of `src/slopekit` refuses assignment or deletion, every
    class with `__slots__` derives from it, and each of its subclasses
    defines `__reduce__` below it (with `object`'s empty state, every
    instance would equal every other).  Only `LogRational` (equal to an int
    or Fraction), `QuadField` (equal to an `ImagQuadField`) and `_GramPair`
    (a cached hash without the field) override `__eq__` or `__hash__`."""
    classes = {}
    for path in sorted((PERFBENCH.parent / "src" / "slopekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                assert node.name not in classes, node.name
                names = set()
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names.add(item.name)
                    elif isinstance(item, ast.Assign):
                        names |= {t.id for t in item.targets if isinstance(t, ast.Name)}
                bases = [b.id if isinstance(b, ast.Name) else b.attr for b in node.bases]
                classes[node.name] = (bases, names)

    def lineage(name):
        """name, its first base, that base's first base and so on, up to
        `_Value` or to a class defined outside `src/slopekit`."""
        out = [name]
        while out[-1] != "_Value" and out[-1] in classes and classes[out[-1]][0]:
            out.append(classes[out[-1]][0][0])
        return out

    def defining(method):
        return {name for name, (_, names) in classes.items() if method in names}

    values = {name for name in classes if "_Value" in lineage(name)}
    assert values >= {"_Value", "LogRational", "_GramPair", "EuclideanLattice", "HermitianLattice", "Sublattice",
                      "LatticeMorphism", "Filtration", "MultifilteredSpace", "QuadField", "ImagQuadField", "QElt"}
    assert defining("__setattr__") == defining("__delattr__") == {"_Value"}
    assert defining("__slots__") <= values
    for name in values - {"_Value"}:
        assert any("__reduce__" in classes[c][1] for c in lineage(name)[:-1]), name
    assert defining("__eq__") == {"_Value", "LogRational", "QuadField"}
    assert defining("__hash__") == {"_Value", "LogRational", "QuadField", "_GramPair"}


def test_hashing_builds_no_gram_view():
    """A lattice hashes on its pair: hashing a law-built non-integral
    lattice (a euclidean dual, rescaling or tensor of duals, a hermitian
    dual or twist) leaves its `Fraction` view G unbuilt."""
    lat, herm = slopekit.lattice, slopekit.hermitian
    a2, g = lat.a2_lattice(), lat.EuclideanLattice([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    k7 = herm.ImagQuadField(7)
    h = herm.HermitianLattice(k7, [[2, 1], [1, 2]])
    derived = [
        a2.dual(), g.dual(), a2.scale(Fraction(1, 3)), g.scale(Fraction(2, 5)),
        a2.dual().tensor(g.dual()), a2.tensor(g.dual()), g.dual().scale(Fraction(1, 2)),
        h.dual(), h.twist(Fraction(1, 3)), h.dual().tensor(h.dual()),
    ]
    for x in derived:
        assert not x.is_integral() and x._gram is None
        hash(x)
        assert x._gram is None, x


def test_multifilt_defines_no_result_type():
    """Both categories return `enumeration.CertifiedMuMax`: multifilt defines
    no result type of its own."""
    mf = slopekit.multifilt
    own = {name for name, obj in vars(mf).items() if isinstance(obj, type) and obj.__module__ == mf.__name__}
    assert own == {"Filtration", "MultifilteredSpace"}


def test_multifiltered_mu_max_has_one_certificate():
    """multifilt proves a subspace the largest of maximal slope in one place
    (`_mf_canopy`'s `passes`), so the source has one of each step: one call
    of `_split_uppers`, inside the bounds through a subspace (`through`);
    one relaxation of a quotient (`_profile_upper_bound` on anything but the
    space itself), of the one quotient `_mf_canopy` makes per subspace; and
    `mu_max_mf` reads the first edge of the canopy with
    no bound arithmetic of its own.  The three earlier certificates
    (`certifies`, `split` and the tightening after the closure) are gone,
    and `passes` has one form: every call hands it its bounds, the
    relaxation's (`plain`) included, and no hand-made memo remains."""
    tree = ast.parse(Path(slopekit.multifilt.__file__).read_text())
    calls: dict[str, list] = {}

    def visit(node, stack):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                calls.setdefault(child.func.id, []).append((stack, child))
            visit(child, stack + (child.name,) if isinstance(child, ast.FunctionDef) else stack)

    visit(tree, ())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not {"certifies", "split"} & set(functions)
    split = [stack for stack, _ in calls["_split_uppers"]]
    assert len(split) == 1 and split[0][:2] == ("_mf_canopy", "through")
    own = [(stack, call) for stack, call in calls["_profile_upper_bound"] if ast.unparse(call.args[0]) != "m"]
    assert len(own) == 1 and own[0][0][:2] == ("_mf_canopy", "relaxation")
    assert ast.unparse(own[0][1].args[0]) == "quotient(rows)"
    assert [stack[:1] for stack, _ in calls["quotient_object"]].count(("_mf_canopy",)) == 1
    _, *body = functions["mu_max_mf"].body  # after the docstring
    assert [ast.unparse(s) for s in body] == ["return first_edge(_mf_canopy(m, extra_candidates))"]
    passes = [call for stack, call in calls["passes"] if stack[:1] == ("_mf_canopy",)]
    assert len(passes) >= 3 and all(len(call.args) == 2 and not call.keywords for call in passes)
    assert len(calls["passes"]) == len(passes)
    names = {node.id for node in ast.walk(functions["_mf_canopy"]) if isinstance(node, ast.Name)}
    assert not {"memo", "once"} & (names | set(functions))


def test_one_tensor_step():
    """Both slope categories take mu_max of a tensor and its factors in one
    place, `harness.tensor_mu_max`, the only `mu_max_mf` call in the sources
    that passes a probe; the suite and the seeded loops read it, and
    multifilt binds none of the lattice search or the report type."""
    mf = slopekit.multifilt
    assert not {"mu_max", "minimum_sq", "DEFAULT_NODE_CAP", "half_log", "Report", "inequality_suite"} & set(vars(mf))
    probed = []
    for path in sorted((Path(slopekit.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, stack):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "mu_max_mf" and (len(child.args) > 1 or child.keywords):
                        probed.append((path.stem,) + stack)
                visit(child, stack + (child.name,) if isinstance(child, ast.FunctionDef) else stack)

        visit(tree, ())
    assert probed == [("harness", "tensor_mu_max")]


def test_one_hermite_bound_for_every_rank():
    """The dense-sublattice search and the Minkowski floors read gamma_k^k
    through `_gamma_pow`, one bound for every rank, so only it and the exact
    `hermite_constant_pow` read the Hermite table."""
    tree = ast.parse(Path(slopekit.enumeration.__file__).read_text())
    readers = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "_HERMITE_POW" for n in ast.walk(func))
    }
    assert readers == {"hermite_constant_pow", "_gamma_pow"}


def _is_dual_run(m, s):
    """Whether the `bareiss` input m is [s | I], the one run of a dual."""
    n = len(s)
    one = s[0][0] * 0 + 1
    return len(m) == n and all(
        tuple(row[:n]) == tuple(r) and all(x == one if i == j else not x for j, x in enumerate(row[n:]))
        for i, (row, r) in enumerate(zip(m, s))
    )


def test_hermitian_grams_go_through_bareiss(monkeypatch):
    """`bareiss` is the one ring kernel, looked up by its module name:
    an input hermitian Gram's positivity and determinant come from exactly
    one run, on int coordinates, and so do the minors of its exterior
    powers on and above the diagonal, one run each (3 for the first power
    of a rank-2 lattice; the minor below is the conjugate of the one
    above).  `tensor`, `twist` and `dual` are proven by their laws and run
    no square run at construction: `tensor` and `twist` none at all, and
    `dual` exactly one, on [D*G | I]; the first read of a derived lattice's
    `_gso` runs exactly one, on int coordinates, and a second read runs
    none."""
    linalg, herm = slopekit.linalg, slopekit.hermitian
    calls = []
    real = linalg.bareiss

    def counted(a):
        calls.append(a)
        return real(a)

    def int_coordinates(m):
        return all(type(c) is int for row in m for x in row for c in (x.a, x.b))

    monkeypatch.setattr(linalg, "bareiss", counted)
    field = herm.ImagQuadField(7)
    w = field.omega
    lat = herm.HermitianLattice(field, [[2, w], [w.conj(), 3]])
    assert len(calls) == 1 and lat.det() == 4 and int_coordinates(calls[0])
    calls.clear()
    ext = lat.exterior_power(1)
    assert len(calls) == 3 and all(len(m) == 1 for m in calls) and ext.det() == lat.det()
    calls.clear()
    half = herm.HermitianLattice(field, [[Fraction(3, 2), w / 2], [w.conj() / 2, 1]])
    assert len(calls) == 1 and int_coordinates(calls[0])
    ops = {
        "tensor": lambda: lat.tensor(half),
        "twist": lambda: half.twist(Fraction(5, 3)),
        "dual": lambda: half.dual(),
    }
    for name, op in ops.items():
        calls.clear()
        out = op()
        if name == "dual":
            assert len(calls) == 1 and _is_dual_run(calls[0], half.scaled_gram()[0])
            assert int_coordinates(calls[0])
            calls.clear()
        assert calls == [], f"{name} ran {len(calls)} bareiss"
        gso = out._gso
        assert len(calls) == 1, name
        (m,) = calls
        assert int_coordinates(m) and len(m) == out.rank and m == out.scaled_gram()[0], name
        assert out._gso is gso and len(calls) == 1, name


def test_law_built_lattices_run_no_sylvester_check(monkeypatch, tmp_path):
    """A lattice derived by an operation whose law proves it positive
    definite, with its determinant, runs no Sylvester check, the square
    `linalg.bareiss` run: `tensor`, `_rescale` (`scale`, `twist`),
    `orthogonal_sum`, `lll_reduce` and `restrict_scalars` run none, `dual`
    only its one run on [D*G | I], and `exterior_power` one per minor on or
    above the diagonal (the others are adjoints) and no more.  Every path
    that takes a Gram from outside runs exactly one square run, on its own
    D*G: both constructors, `_from_scaled`, `load` and both
    `from_json_dict`s, pickle and `copy` (through `__reduce__`), and the
    Schur complement of `_lattice_quotient`, whose dual adds its one run
    on [D*G | I]."""
    import copy
    import json
    import math
    import pickle

    from slopekit.enumeration import _lattice_quotient, lll_reduce
    from slopekit.lattice import EuclideanLattice, Sublattice

    linalg, herm = slopekit.linalg, slopekit.hermitian
    calls = []
    real = linalg.bareiss
    monkeypatch.setattr(linalg, "bareiss", lambda a: calls.append(a) or real(a))

    def run(route):
        del calls[:]
        return route()

    field = herm.ImagQuadField(7)
    w = field.omega
    e = EuclideanLattice([[Fraction(5, 2), 1, 0], [1, 3, 1], [0, 1, 4]])
    f = EuclideanLattice([[2, 1], [1, 2]])
    h = herm.HermitianLattice(field, [[2, w], [w.conj(), 3]])
    g = herm.HermitianLattice(field, [[Fraction(3, 2), w / 2], [w.conj() / 2, 1]])
    t = e.tensor(f).dual()
    assert t._gso  # LLL starts from its parent's record, built on first read
    derived = {
        "tensor": lambda: e.tensor(f),
        "dual": lambda: e.dual(),
        "scale": lambda: e.scale(Fraction(3, 7)),
        "orthogonal_sum": lambda: e.orthogonal_sum(f),
        "lll_reduce": lambda: lll_reduce.__wrapped__(t)[0],
        "hermitian tensor": lambda: h.tensor(g),
        "hermitian dual": lambda: g.dual(),
        "twist": lambda: g.twist(Fraction(5, 3)),
        "hermitian orthogonal_sum": lambda: h.orthogonal_sum(g),
        "restrict_scalars": lambda: g.tensor(h).restrict_scalars(),
    }
    parents = {"dual": e, "hermitian dual": g}
    outs = {}
    for name, route in derived.items():
        outs[name] = run(route)
        if name in parents:
            assert len(calls) == 1 and _is_dual_run(calls[0], parents[name].scaled_gram()[0]), name
            del calls[:]
        assert calls == [], f"{name} ran {len(calls)} bareiss"
    for lat, p in [(e, 1), (e, 2), (e, 3), (h, 1), (h, 2)]:
        run(lambda: lat.exterior_power(p))
        c = math.comb(lat.rank, p)
        assert len(calls) == c * (c + 1) // 2 and all(len(m) == p for m in calls)
    path = tmp_path / "e.json"
    path.write_text(json.dumps(e.to_json_dict()))
    line = Sublattice(e, [[1, 0, 0]])
    inputs = {
        "int Gram": lambda: EuclideanLattice([[2, 1], [1, 2]]),
        "Fraction Gram": lambda: EuclideanLattice(e.gram),
        "_from_scaled": lambda: EuclideanLattice._from_scaled([[4, 2], [2, 6]], 4),
        "load": lambda: EuclideanLattice.load(str(path)),
        "from_json_dict": lambda: EuclideanLattice.from_json_dict(e.to_json_dict()),
        "hermitian Gram": lambda: herm.HermitianLattice(field, g.gram),
        "hermitian from_json_dict": lambda: herm.HermitianLattice.from_json_dict(g.to_json_dict()),
        "quotient": lambda: _lattice_quotient(e, line)[0].dual(),
    }
    for name, out in outs.items():
        inputs[f"pickle {name}"] = lambda out=out: pickle.loads(pickle.dumps(out))
        inputs[f"copy {name}"] = lambda out=out: copy.copy(out)
        inputs[f"deepcopy {name}"] = lambda out=out: copy.deepcopy(out)
    for name, route in inputs.items():
        out = run(route)
        if name == "quotient":
            assert len(calls) == 2 and _is_dual_run(calls.pop(), out.scaled_gram()[0])
        assert calls == [out.scaled_gram()[0]], f"{name} ran {len(calls)} bareiss"


def test_candidate_family_reduces_only_pairs_and_extras(monkeypatch):
    """Stored subspaces are RREF and never reduced again: the closure makes
    one `rref` per pair, inside `intersect_and_sum`, and one per non-empty
    extra candidate."""
    linalg, mf = slopekit.linalg, slopekit.multifilt
    counts = {"rref": 0, "intersect_and_sum": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    m1 = _sample_space(random.Random(6), 3, 3)
    m2 = _sample_space(random.Random(106), 2, 3)
    t = mf.tensor_mf(m1, m2)
    r1, r2 = mf.mu_max_mf(m1), mf.mu_max_mf(m2)
    products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
    extras = [products, [], [[1] + [0] * (t.dim - 1)]]
    for name in counts:
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    family = list(mf._candidate_family(t, extras))
    assert counts["intersect_and_sum"] >= 100 and len(family) >= 40
    assert counts["rref"] == counts["intersect_and_sum"] + 2


def _certifying_factors():
    """Two planes whose mu_max certify, with a witness product that meets the
    bound of their tensor."""
    mf = slopekit.multifilt
    full = [[1, 0], [0, 1]]
    m1 = mf.MultifilteredSpace(2, [
        mf.Filtration(2, [(0, full), (2, [[1, 0]])]),
        mf.Filtration(2, [(0, full), (1, [[0, 1]])]),
    ])
    m2 = mf.MultifilteredSpace(2, [
        mf.Filtration(2, [(0, full), (1, [[1, 1]])]),
        mf.Filtration(2, [(-1, full), (1, [[1, -1]])]),
    ])
    return m1, m2


def test_certifying_product_makes_no_closure_eliminations(monkeypatch):
    """mu_max_mf computes the profile bound first and probes the extra
    candidates before the closure.  On a tensor whose factors certify and
    whose witness product meets the bound, with every larger dimension's bound
    below it, it eliminates no pair of the closure; with two filtrations the
    bound needs no intersection basis either."""
    linalg, mf = slopekit.linalg, slopekit.multifilt
    m1, m2 = _certifying_factors()
    r1, r2 = mf.mu_max_mf(m1), mf.mu_max_mf(m2)
    assert r1.certified and r2.certified
    t = mf.tensor_mf(m1, m2)
    products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
    calls = []
    real = linalg.intersect_and_sum

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "intersect_and_sum", counted)
    rt = mf.mu_max_mf(t, extra_candidates=[products])
    assert rt.certified and rt.value == r1.value + r2.value
    assert rt.witness == linalg.rref(linalg.mat(products))[0]
    assert calls == []


def test_mu_max_mf_scores_candidates_through_public_name(monkeypatch):
    """The tracer counts calls of `multifilt.slope_of_subspace` as the
    candidates mu_max_mf scores (`multifilt.mu_max_mf.candidates`), so every
    scored candidate, closure member or probed extra, must be scored through
    that name: a private scoring path would zero the counter."""
    linalg, mf = slopekit.linalg, slopekit.multifilt
    scored, members = [], []
    real_slope, real_family = mf.slope_of_subspace, mf._candidate_family

    def counted(m, rows):
        scored.append(rows)
        return real_slope(m, rows)

    def family(m, extra):
        for rows in real_family(m, extra):
            members.append(rows)
            yield rows

    monkeypatch.setattr(mf, "slope_of_subspace", counted)
    monkeypatch.setattr(mf, "_candidate_family", family)
    m1, m2 = _certifying_factors()
    r1, r2 = mf.mu_max_mf(m1), mf.mu_max_mf(m2)
    products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
    # a space of dimension 3 or less has an exact canopy and scores no candidate
    cases = [
        (_sample_space(random.Random(9), 4, 3), ()),  # reads the closure
        (mf.tensor_mf(m1, m2), [[[0, 1, 0, 0]]]),  # probes an extra that does not certify, then the closure
        (mf.tensor_mf(m1, m2), [products]),  # stops at the probe
    ]
    for m, extra in cases:
        scored.clear()
        members.clear()
        mf.mu_max_mf(m, extra)
        probed = [linalg.rref(linalg.mat(rows))[0] for rows in extra]
        assert set(members + probed) <= set(scored)
        assert len(scored) >= len(set(members + probed)) >= 1
    assert members == []


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


def _patch_everywhere(monkeypatch, real, fake) -> int:
    """Replace `real` by `fake` under every name a slopekit module binds it
    to; the number of names replaced."""
    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "slopekit" or name.startswith("slopekit."):
            for attr, val in list(vars(module).items()):
                if val is real:
                    monkeypatch.setattr(module, attr, fake)
                    patched += 1
    return patched


def test_polygon_readers_reach_quotient_polygon(monkeypatch):
    """slope_filtration and slope_filtration_mf build their polygons in
    `enumeration.quotient_polygon`, one stage through their category's
    mu_max per edge at least, and mu_max, mu_max_mf and both kinds of
    inequality_suite read `enumeration.first_edge`, all looked up by name,
    so a second polygon path cannot come back silently."""
    en, mf = slopekit.enumeration, slopekit.multifilt
    polygons, edges = [], []
    real_polygon, real_edge = en.quotient_polygon, en.first_edge

    def polygon(*args):
        polygons.append(real_polygon(*args))
        return polygons[-1]

    def edge(canopy):
        edges.append(real_edge(canopy))
        return edges[-1]

    assert _patch_everywhere(monkeypatch, real_polygon, polygon) >= 2
    assert _patch_everywhere(monkeypatch, real_edge, edge) >= 2
    lat = slopekit.lattice.EuclideanLattice([[5, 2, 1], [2, 6, 2], [1, 2, 7]])
    a2 = slopekit.lattice.a2_lattice()
    m = _sample_space(random.Random(5), 3, 2)
    poly = en.slope_filtration(lat)
    assert polygons == [poly] and len(edges) >= len(poly.hull) - 1 == 3
    del polygons[:], edges[:]
    chain = mf.slope_filtration_mf(m)
    assert len(polygons) == 1 and polygons[0].filtration == chain and len(edges) >= len(chain)
    routes = {
        "mu_max": lambda: en.mu_max(lat),
        "mu_max_mf": lambda: mf.mu_max_mf(m),
        "inequality_suite lattice": lambda: slopekit.harness.inequality_suite(("lattice", a2, a2)),
        "inequality_suite multifilt": lambda: slopekit.harness.inequality_suite(("multifilt", m, m)),
    }
    for name, route in routes.items():
        del polygons[:], edges[:]
        route()
        assert edges and not polygons, f"{name} computed mu_max around first_edge"


def test_mu_max_readers_reach_first_edge(monkeypatch):
    """mu_max and mu_max_mf build their result in `enumeration.first_edge`,
    looked up by name, so the two categories keep one mu_max contract."""
    en, mf = slopekit.enumeration, slopekit.multifilt
    calls = []
    real = en.first_edge

    def counted(canopy):
        res = real(canopy)
        calls.append(res)
        return res

    assert _patch_everywhere(monkeypatch, real, counted) >= 2
    lat = slopekit.lattice.EuclideanLattice([[5, 2, 1], [2, 6, 2], [1, 2, 7]])
    m = _sample_space(random.Random(5), 3, 2)
    for route in (lambda: en.mu_max(lat), lambda: en.mu_max(lat, 3), lambda: mf.mu_max_mf(m)):
        res = route()
        assert calls and calls[-1] is res
        del calls[:]


def test_slope_filtration_searches_what_mu_max_searches_on_its_quotients(monkeypatch):
    """On a 2x3 tensor whose ranks 4 and 5 lie below their Minkowski floors,
    mu_max runs the dense-sublattice search at ranks 2 and 3 alone (ranks 1
    and 5 are exact), and slope_filtration runs exactly the searches of
    mu_max on each of its stages' lattices, the tensor and then its
    quotients, in turn (all names looked up at call time).  mu_max of a
    rank-2 lattice builds no dual."""
    en, lattice = slopekit.enumeration, slopekit.lattice

    def gram(b):
        return [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]

    t = lattice.EuclideanLattice(gram([[-1, -2], [0, -2]])).tensor(
        lattice.EuclideanLattice(gram([[-1, -1, 2], [-1, 2, 2], [-1, 1, 1]]))
    )
    searches, ranks, stages = [], [], []
    real_search, real_min_det, real_mu_max = en.densest_sublattice, en._min_det_rank_k, en.mu_max

    def search(lat, k, *args):
        searches.append((lat, k, args))
        return real_search(lat, k, *args)

    def min_det(lat, k, *args):
        if lat is t:
            ranks.append(k)
        return real_min_det(lat, k, *args)

    def stage(lat, *args):
        stages.append(lat)
        return real_mu_max(lat, *args)

    monkeypatch.setattr(en, "densest_sublattice", search)
    monkeypatch.setattr(en, "_min_det_rank_k", min_det)
    en.mu_max(t)
    assert set(ranks) == {1, 2, 3} and {k for lat, k, _ in searches if lat is t} == {2, 3}
    monkeypatch.setattr(en, "mu_max", stage)
    del searches[:]
    poly = en.slope_filtration(t)
    assert poly.certified and stages[0] is t and len(stages) >= len(poly.hull) - 1 >= 2
    assert {k for lat, k, _ in searches if lat is t} == {2, 3}
    filtration_searches = searches[:]
    del searches[:]
    for lat in stages:
        real_mu_max(lat)
    assert searches == filtration_searches
    # at rank 2 the primal floor is exact, so no dual is built
    duals = []
    real_dual = lattice.EuclideanLattice.dual
    monkeypatch.setattr(lattice.EuclideanLattice, "dual", lambda lat: duals.append(lat) or real_dual(lat))
    for lat in (lattice.a2_lattice(), lattice.EuclideanLattice(gram([[-1, -2], [0, -2]]))):
        en.mu_max(lat)
    assert not duals


def _module_references(nodes: list[ast.AST], module: str, own_module: bool) -> set[str]:
    """Names the nodes of a file take from the slopekit module `module`:
    attributes of any name bound to it (`linalg.f`, `sk.linalg.f`, `ev.f`
    after `ev = sk.exactval`, or an `import ... as` alias), names imported
    from a module ending in `module`, and, inside the module itself, bare
    names."""
    aliases = {module}
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases.update(a.asname for a in node.names if a.asname and a.name.split(".")[-1] == module)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) and node.value.attr == module:
            aliases.update(t.id for t in node.targets if isinstance(t, ast.Name))
    names = set()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            base = node.value
            base_name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            if base_name in aliases:
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names.update(alias.name for alias in node.names)
        elif own_module and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


def _defined_names(node: ast.stmt) -> list[str]:
    """The function or the upper-case constants a top-level statement
    defines.  A module `__getattr__` (PEP 562) is left out: the interpreter
    calls it, not a name in the sources."""
    if isinstance(node, ast.FunctionDef):
        return [] if node.name == "__getattr__" else [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]


def _unread_locals(func: ast.FunctionDef) -> list[str]:
    """The names a function binds in its own scope (outside nested
    functions, lambdas and classes, and not declared global or nonlocal)
    that neither it nor a nested function reads.  An augmented assignment
    reads its target; `_` is the name of a value meant to be dropped."""
    own, todo = [], list(func.body)
    while todo:
        node = todo.pop()
        own.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    declared = {name for node in own if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
    stores = {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)} - declared - {"_"}
    reads = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            reads.add(node.target.id)
    return sorted(stores - reads)


def test_functions_read_every_local_they_assign():
    """No function of `src/slopekit` assigns a local name that it, or a
    function nested in it, never reads: such an assignment is dead code."""
    unread = []
    checked = 0
    for path in sorted((PERFBENCH.parent / "src" / "slopekit").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                checked += 1
                unread += [f"{path.stem}.{func.name}: {name}" for name in _unread_locals(func)]
    assert checked >= 300 and not unread, unread


def test_linalg_helpers_have_callers():
    """Every top-level function and every upper-case constant of each
    slopekit module, `linalg` included, is used outside its own definition:
    a private function somewhere in the sources, since a helper that only
    tests reach is dead code, and anything else in the sources, the tests or
    the benchmark.  Methods are left out: a name alone cannot tell them from
    a benchmark function of the same name."""
    root = PERFBENCH.parent
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in files}
    nodes = {path: list(ast.walk(tree)) for path, tree in trees.items()}
    src = root / "src"
    unused = []
    checked = private = 0
    for module_path in sorted((src / "slopekit").glob("*.py")):
        module = module_path.stem
        tree = trees[module_path]
        in_src = set()
        for node in tree.body:  # uses inside the module, each outside its own definition
            in_src |= _module_references(list(ast.walk(node)), module, own_module=True) - set(_defined_names(node))
        used = set(in_src)
        for path, other in nodes.items():
            if path != module_path:
                refs = _module_references(other, module, own_module=False)
                used |= refs
                if path.is_relative_to(src):
                    in_src |= refs
        for node in tree.body:
            for name in _defined_names(node):
                checked += 1
                helper = isinstance(node, ast.FunctionDef) and name.startswith("_")
                private += helper
                if name not in (in_src if helper else used):
                    unused.append(f"{module}.{name}")
    assert checked >= 100 and private >= 40 and not unused, unused


def test_package_import_leaves_out_the_harness():
    """`import slopekit` does not load the experiment harness; the package
    still serves `inequality_suite` from it, on first use."""
    import os
    import subprocess

    src = str(PERFBENCH.parent / "src")
    code = (
        "import sys, slopekit\n"
        "assert 'slopekit.harness' not in sys.modules\n"
        "from slopekit import inequality_suite\n"
        "import slopekit.harness\n"
        "assert inequality_suite is slopekit.harness.inequality_suite\n"
        "assert 'inequality_suite' in slopekit.__all__\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_euclidean_hashes_repeat_across_interpreters():
    """A euclidean lattice hashes the same in every process, integral or
    not, under string hash randomization: its hash reads only ints."""
    import os
    import subprocess

    code = (
        "from fractions import Fraction as F\n"
        "from slopekit.lattice import EuclideanLattice, a2_lattice, unit_lattice\n"
        "g = EuclideanLattice([[2, 1, 0], [1, 3, 1], [0, 1, 4]])\n"
        "lats = [unit_lattice(2), a2_lattice(), g, a2_lattice().dual(), g.scale(F(2, 5)),\n"
        "        g.dual().tensor(a2_lattice()), EuclideanLattice([[F(1, 2), F(1, 3)], [F(1, 3), 1]])]\n"
        "print([hash(x) for x in lats])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src"), "PYTHONHASHSEED": "random"}
    run = [sys.executable, "-c", code]
    runs = [subprocess.run(run, check=True, env=env, capture_output=True, text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1] and runs[0].count(",") == 6
