"""The benchmark's tracer and work budget look slopekit functions up by name;
a rename or deletion there must fail here before it breaks a benchmark run."""

import ast
import importlib
import inspect
import itertools
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

    units, quotient_units = [], []
    real_rref, real_quotient = linalg.rref, mf._quotient_bounds

    def charged(a):
        units.append(len(a) * len(a[0]) * min(len(a), len(a[0])) if a else 0)
        return real_rref(a)

    def quotient(m, rows):
        before = sum(units)
        out = real_quotient(m, rows)
        quotient_units.append(sum(units) - before)
        return out

    monkeypatch.setattr(linalg, "rref", charged)
    monkeypatch.setattr(mf, "_quotient_bounds", quotient)
    m1, m2 = (mf.MultifilteredSpace(3, [mf.Filtration(3, s) for s in f]) for f in _OP26_FACTORS)
    r1, r2 = mf.mu_max_mf(m1), mf.mu_max_mf(m2)
    products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
    rt = mf.mu_max_mf(mf.tensor_mf(m1, m2), extra_candidates=[products])
    assert rt.certified and rt.value == r1.value + r2.value == -1
    assert len(quotient_units) == 1 and quotient_units[0] > 0


def _budget_corpus():
    """The seeded mf corpus whose elimination work is pinned: 24 pairs of
    `_sample_space` factors (dimensions 2..3 and 1..3, 1..3 filtrations),
    one with its bases scaled by Fractions, and the op-26 factors.  Each case
    is one op of the benchmark's mf-tensor workload (both factors' mu_max,
    the tensor's mu_max with the witness products, nu of the tensor) plus
    the first factor's multigraded dimensions, dual and slope filtration."""
    from fractions import Fraction

    from test_multifilt import _OP26_FACTORS

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
    return cases


def _run_budget_case(m1, m2):
    mf = slopekit.multifilt
    r1, r2 = mf.mu_max_mf(m1), mf.mu_max_mf(m2)
    t = mf.tensor_mf(m1, m2)
    products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
    mf.mu_max_mf(t, extra_candidates=[products])
    mf.nu_witness(t)
    mf.multigraded_dims(m1)
    mf.dual_mf(m1)
    if r1.certified:
        mf.slope_filtration_mf(m1)


# (units, rref calls) of each `_budget_corpus` case, as computed before
# subspaces were kept as integer RREF rows: every elimination still goes
# through `linalg.rref` with the same shapes, so the work budget charges the
# same.  Change these only with a benchmark change that says why.
_BUDGET_PINNED = [
    (12289, 112), (240, 7), (1126, 36), (3943, 53), (189, 7), (1326, 30),
    (578, 12), (14671, 84), (4563, 66), (4694, 59), (16, 2), (56, 7),
    (851, 11), (8710, 40), (9215, 28), (54, 2), (10778, 48), (168, 5),
    (5898, 32), (16, 2), (1948, 45), (4599, 63), (4146, 25), (372, 5),
    (12289, 112), (62000, 275),
]


def test_work_budget_units_are_pinned(monkeypatch):
    """The mf-tensor work budget charges each `linalg.rref` call rows x
    columns x min(rows, columns), as `WorkBudget` does.  On a fixed seeded
    corpus the units and calls are the pinned ones, and `_rref_rows` makes
    no `rref` call on integer RREF rows or on unit-pivot Fraction RREF rows,
    the forms stored subspaces and their printed bases take."""
    linalg, mf = slopekit.linalg, slopekit.multifilt
    cases = _budget_corpus()
    calls = []
    real = linalg.rref

    def charged(a):
        rows = len(a)
        cols = len(a[0]) if rows else 0
        calls.append(rows * cols * min(rows, cols))
        return real(a)

    monkeypatch.setattr(linalg, "rref", charged)
    got = []
    for m1, m2 in cases:
        calls.clear()
        _run_budget_case(m1, m2)
        got.append((sum(calls), len(calls)))
    assert got == _BUDGET_PINNED
    stored = [space for m in itertools.chain.from_iterable(cases) for f in m.filtrations for _, space in f.steps]
    assert len(stored) >= 50
    calls.clear()
    for space in stored:
        assert mf._rref_rows(space, len(space[0])) == space
        assert mf._rref_rows(linalg.unit_rref(space), len(space[0])) == space
    assert calls == []


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
        "intersect_and_sum": lambda: linalg.intersect_and_sum(a, b, 3),
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


def test_hermitian_grams_go_through_bareiss(monkeypatch):
    """`bareiss` is the one square elimination: a hermitian Gram's positivity
    and determinant, and the minors of its exterior powers, come from it,
    looked up by its module name."""
    linalg, herm = slopekit.linalg, slopekit.hermitian
    calls = []
    real = linalg.bareiss

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "bareiss", counted)
    field = herm.ImagQuadField(7)
    w = field.omega
    lat = herm.HermitianLattice(field, [[2, w], [w.conj(), 3]])
    assert len(calls) == 1 and lat.det() == 4
    calls.clear()
    ext = lat.exterior_power(2)
    assert len(calls) >= 2 and ext.det() == lat.det()


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
    cases = [
        (_sample_space(random.Random(9), 3, 3), ()),  # reads the closure
        (m1, [[[0, 1]]]),  # probes an extra that does not certify, then the closure
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


def test_polygon_readers_reach_upper_hull(monkeypatch):
    """mu_max, slope_filtration, their multifiltered twins and both kinds of
    inequality_suite read their results off `enumeration.upper_hull`, so a
    second polygon path cannot come back silently."""
    en, mf = slopekit.enumeration, slopekit.multifilt
    calls = []
    real = en.upper_hull

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "slopekit" or name.startswith("slopekit."):
            for attr, val in list(vars(module).items()):
                if val is real:
                    monkeypatch.setattr(module, attr, counted)
                    patched += 1
    assert patched >= 2
    lat = slopekit.lattice.EuclideanLattice([[5, 2, 1], [2, 6, 2], [1, 2, 7]])
    a2 = slopekit.lattice.a2_lattice()
    m = _sample_space(random.Random(5), 3, 2)
    routes = {
        "mu_max": lambda: en.mu_max(lat),
        "slope_filtration": lambda: en.slope_filtration(lat),
        "mu_max_mf": lambda: mf.mu_max_mf(m),
        "slope_filtration_mf": lambda: mf.slope_filtration_mf(m),
        "inequality_suite lattice": lambda: mf.inequality_suite(("lattice", a2, a2)),
        "inequality_suite multifilt": lambda: mf.inequality_suite(("multifilt", m, m)),
    }
    for name, route in routes.items():
        before = len(calls)
        route()
        assert len(calls) > before, f"{name} computed a polygon around upper_hull"


def test_mu_max_skips_ranks_that_slope_filtration_searches(monkeypatch):
    """On a 2x3 tensor whose ranks 4 and 5 lie below their Minkowski floors,
    mu_max runs the dense-sublattice search at fewer ranks than
    slope_filtration, which still reaches `_min_det_rank_k` at every rank
    1..r-1 (both look the names up at call time).  mu_max of a rank-2
    lattice builds no dual."""
    en, lattice = slopekit.enumeration, slopekit.lattice

    def gram(b):
        return [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]

    t = lattice.EuclideanLattice(gram([[-1, -2], [0, -2]])).tensor(
        lattice.EuclideanLattice(gram([[-1, -1, 2], [-1, 2, 2], [-1, 1, 1]]))
    )
    searches, ranks = [], []
    real_search, real_min_det = en.densest_sublattice, en._min_det_rank_k

    def search(lat, k, *args):
        searches.append(k)
        return real_search(lat, k, *args)

    def min_det(lat, k, *args):
        if lat is t:
            ranks.append(k)
        return real_min_det(lat, k, *args)

    monkeypatch.setattr(en, "densest_sublattice", search)
    monkeypatch.setattr(en, "_min_det_rank_k", min_det)
    en.mu_max(t)
    bound_first, mu_ranks = len(searches), set(ranks)
    del searches[:], ranks[:]
    en.slope_filtration(t)
    assert bound_first < len(searches)
    assert mu_ranks == {1, 2, 3} and set(ranks) == set(range(1, t.rank))
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
    """The public function or the upper-case constants a top-level statement
    defines."""
    if isinstance(node, ast.FunctionDef):
        return [] if node.name.startswith("_") else [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]


def test_linalg_helpers_have_callers():
    """Every public top-level function and every upper-case constant of each
    slopekit module, `linalg` included, is used somewhere in the sources, the
    tests or the benchmark, outside its own definition.  Methods are left
    out: a name alone cannot tell them from a benchmark function of the same
    name."""
    root = PERFBENCH.parent
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in files}
    nodes = {path: list(ast.walk(tree)) for path, tree in trees.items()}
    unused = []
    checked = 0
    for module_path in sorted((root / "src" / "slopekit").glob("*.py")):
        module = module_path.stem
        tree = trees[module_path]
        used = set()
        for node in tree.body:  # uses inside the module, each outside its own definition
            used |= _module_references(list(ast.walk(node)), module, own_module=True) - set(_defined_names(node))
        for path, other in nodes.items():
            if path != module_path:
                used |= _module_references(other, module, own_module=False)
        for node in tree.body:
            for name in _defined_names(node):
                checked += 1
                if name not in used:
                    unused.append(f"{module}.{name}")
    assert checked >= 100 and not unused, unused
