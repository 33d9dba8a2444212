import itertools
import math
import random
from fractions import Fraction

import pytest

from slopekit import linalg
from slopekit.harness import inequality_suite
from slopekit.multifilt import (
    Filtration,
    MultifilteredSpace,
    dual_mf,
    is_semistable_mf,
    mu_max_mf,
    multigraded_dims,
    nu_witness,
    quotient_object,
    slope_faltings,
    slope_filtration_mf,
    slope_of_subspace,
    subobject,
    tensor_mf,
)
from test_linalg import _reference_solve_coords

F = Fraction


def crossed_example():
    """dim 2; filtration 1 jumps on span(e1) at 1, filtration 2 on span(e2)."""
    full = [[1, 0], [0, 1]]
    f1 = Filtration(2, [(0, full), (1, [[1, 0]])])
    f2 = Filtration(2, [(0, full), (1, [[0, 1]])])
    return MultifilteredSpace(2, [f1, f2])


def unit_object(n_filtrations, breaks=None):
    """One-dimensional space; break c_v in filtration v (default all 0)."""
    if breaks is None:
        breaks = [F(0)] * n_filtrations
    return MultifilteredSpace(1, [Filtration(1, [(c, ((F(1),),))]) for c in breaks])


def random_mf(rng, dim, n_filts, max_breaks=3, break_bound=3, denominator=1):
    """Random flags cut at breaks in (1/denominator)Z ∩ [-break_bound, break_bound]."""
    filts = []
    for _ in range(n_filts):
        # random flag pieces at random distinct breaks
        while True:
            b = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
            if linalg.rank(linalg.mat(b)) == dim:
                break
        n_steps = rng.randint(1, min(max_breaks, dim))
        grid = [F(j, denominator) for j in range(-break_bound * denominator, break_bound * denominator + 1)]
        breaks = sorted(rng.sample(grid, n_steps))
        sizes = [dim]
        if n_steps > 1:
            sizes += sorted(rng.sample(range(1, dim), n_steps - 1), reverse=True)
        steps = [(F(lam), b[:size]) for lam, size in zip(breaks, sizes)]
        filts.append(Filtration(dim, steps))
    return MultifilteredSpace(dim, filts)


def test_filtration_validation():
    with pytest.raises(ValueError):
        Filtration(2, [(0, [[1, 0]])])  # lowest step not full
    with pytest.raises(ValueError):
        Filtration(2, [(0, [[1, 0], [0, 1]]), (0, [[1, 0]])])  # duplicate break
    with pytest.raises(ValueError):
        Filtration(2, [(0, [[1, 0], [0, 1]]), (1, [[1, 0]]), (2, [[0, 1]])])  # not decreasing
    with pytest.raises(ValueError, match="decreasing"):
        # shrinking but not nested
        Filtration(3, [(0, linalg.identity(3)), (1, [[1, 0, 0], [0, 1, 0]]), (2, [[0, 0, 1]])])
    with pytest.raises(ValueError, match="decreasing"):
        # two distinct steps of equal dimension
        Filtration(3, [(0, linalg.identity(3)), (1, [[1, 0, 0], [0, 1, 0]]), (2, [[1, 0, 0], [0, 0, 1]])])
    f = Filtration(2, [(0, [[1, 0], [0, 1]]), (1, [[2, 0]])])
    assert f.steps[1][1] == ((F(1), F(0)),)  # rref-normalized
    # a float row is refused, never read as the binary fraction it approximates
    with pytest.raises(ValueError, match="cannot coerce"):
        Filtration(2, [(0, [[1.0, 0.0], [0.5, 1.0]]), (1, [[0.5, 1.0]])])


def test_weight_and_spaces():
    f = Filtration(2, [(0, [[1, 0], [0, 1]]), (1, [[1, 0]])])
    assert f.weight((1, 0)) == 1
    assert f.weight((0, 1)) == 0
    assert f.weight((1, 1)) == 0
    assert f.space_at(F(1)) == ((F(1), F(0)),)
    assert f.space_at(F(2)) == ()
    assert f.space_at(F(1, 2)) == ((F(1), F(0)),)  # F^{>0}


@pytest.mark.parametrize(
    "v, message",
    [
        ((0, 0), "zero vector has no weight"),
        ((F(0), F(0)), "zero vector has no weight"),
        ((1, 0, 0), "rows must have 2 entries"),
        ((1,), "rows must have 2 entries"),
    ],
)
def test_weight_refuses_zero_and_wrong_width(v, message):
    f = Filtration(2, [(0, [[1, 0], [0, 1]]), (1, [[1, 0]])])
    with pytest.raises(ValueError, match=message):
        f.weight(v)


def test_slope_examples():
    line = unit_object(1, [F(2)])
    assert slope_faltings(line) == 2
    m = crossed_example()
    assert slope_faltings(m) == 1
    shifted = MultifilteredSpace(
        2, [Filtration(2, [(lam + 3, space) for lam, space in m.filtrations[0].steps]), m.filtrations[1]]
    )
    assert slope_faltings(shifted) == 1 + F(3, 1) * F(2, 2) / 1 - F(1, 1) * 0  # +3*dim/dim... see below
    assert slope_faltings(shifted) == slope_faltings(m) + 3


def test_multigraded_crossed():
    m = crossed_example()
    dims = multigraded_dims(m)
    assert dims == {(F(1), F(0)): 1, (F(0), F(1)): 1}


def test_multigraded_single_filtration():
    f = Filtration(3, [(0, linalg.identity(3)), (2, [[1, 0, 0], [0, 1, 0]]), (5, [[0, 1, 0]])])
    m = MultifilteredSpace(3, [f])
    dims = multigraded_dims(m)
    assert dims == {(F(0),): 1, (F(2),): 1, (F(5),): 1}


def test_multigraded_lemma_random():
    rng = random.Random(3)
    for _ in range(15):
        m = random_mf(rng, rng.randint(1, 5), rng.randint(1, 3))
        dims = multigraded_dims(m)  # raises ReproFailure unless aggregate = slope*dim
        assert sum(dims.values()) == m.dim
        # aggregate equality for every permutation of the filtration order
        for order in itertools.permutations(range(m.n_filtrations)):
            d2 = multigraded_dims(m.permuted(order))
            agg = sum((sum(k) * v for k, v in d2.items()), F(0))
            assert agg == slope_faltings(m) * m.dim


def test_nu_witness_crossed():
    m = crossed_example()
    val, line = nu_witness(m)
    assert val == 1
    assert tuple(line) in {(F(1), F(0)), (F(0), F(1))}


def test_nu_witness_single():
    f = Filtration(2, [(0, linalg.identity(2)), (3, [[0, 1]])])
    m = MultifilteredSpace(2, [f])
    val, line = nu_witness(m)
    assert val == 3
    assert linalg.in_row_space(line, ((F(0), F(1)),))


def test_nu_witness_three_lines_below_slope():
    # three weight-1 lines in Q^2: the slope is 3/2 and a multigraded piece
    # has break-sum 2, but no line lies on two of them, so the best value is 1
    lines = ((1, 0), (0, 1), (1, 1))
    m = MultifilteredSpace(
        2, [Filtration(2, [(0, linalg.identity(2)), (1, [l])]) for l in lines]
    )
    val, line = nu_witness(m)
    assert val == 1 and slope_faltings(m) == F(3, 2)
    assert max(sum(k) for k in multigraded_dims(m)) == 2
    assert any(linalg.in_row_space(line, linalg.mat([l])) for l in lines)
    assert slope_of_subspace(m, (line,)) == 1


def test_nu_witness_of_the_whole_space_builds_no_identity(monkeypatch):
    """Where no break tuple has a proper step (no filtrations, or one step
    each), the witness is e_1, the first RREF row of V, as an int tuple; it
    is made without `linalg.identity`, which is quadratic in the dimension."""
    spaces = [
        (MultifilteredSpace.from_json_dict({"dim": 100_000, "filtrations": []}), 0),
        (MultifilteredSpace(1, []), 0),
        (MultifilteredSpace(3, [Filtration(3, [(F(5, 2), linalg.identity(3))])] * 2), 5),
    ]

    def refuse(n):
        raise AssertionError("nu_witness built an identity")

    monkeypatch.setattr(linalg, "identity", refuse)
    for m, val in spaces:
        got_val, line = nu_witness(m)
        assert got_val == val and type(got_val) is F
        assert line == (1,) + (0,) * (m.dim - 1) and all(type(x) is int for x in line)


def test_nu_between_mu_and_mu_max():
    rng = random.Random(7)
    for _ in range(12):
        m = random_mf(rng, rng.randint(1, 4), rng.randint(1, 3))
        val, line = nu_witness(m)
        assert val >= slope_faltings(m)
        res = mu_max_mf(m)
        assert val <= res.value or not res.certified
        # nu equals the maximal break-sum over nonzero multigraded pieces
        dims = multigraded_dims(m)
        assert val == max(sum(k) for k in dims)
        # the witness line really has slope = val
        assert slope_of_subspace(m, (line,)) == val


def test_mu_max_crossed_certified():
    m = crossed_example()
    res = mu_max_mf(m)
    assert res.certified
    assert res.value == 1 == res.upper
    assert is_semistable_mf(m)


def test_mu_max_single_filtration():
    f = Filtration(2, [(0, linalg.identity(2)), (3, [[0, 1]])])
    m = MultifilteredSpace(2, [f])
    res = mu_max_mf(m)
    assert res.certified
    assert res.value == 3
    assert res.witness == ((F(0), F(1)),)


def test_subobject_quotient_additivity():
    rng = random.Random(11)
    for _ in range(10):
        m = random_mf(rng, rng.randint(2, 4), rng.randint(1, 3))
        k = rng.randint(1, m.dim - 1)
        rows = tuple(
            tuple(F(rng.randint(-2, 2)) for _ in range(m.dim)) for _ in range(k)
        )
        rr = linalg.rref(linalg.mat(rows))[0]
        if not rr or len(rr) == m.dim:
            continue
        sub = subobject(m, rr)
        quot, _ = quotient_object(m, rr)
        lhs = slope_faltings(m) * m.dim
        rhs = slope_faltings(sub) * sub.dim + slope_faltings(quot) * quot.dim
        assert lhs == rhs


def test_tensor_unit_and_slope_additivity():
    m = crossed_example()
    u = unit_object(2)
    t = tensor_mf(m, u)
    assert slope_faltings(t) == slope_faltings(m)
    assert t.dim == m.dim
    rng = random.Random(13)
    for _ in range(8):
        m1 = random_mf(rng, rng.randint(1, 3), 2)
        m2 = random_mf(rng, rng.randint(1, 3), 2)
        t = tensor_mf(m1, m2)
        assert slope_faltings(t) == slope_faltings(m1) + slope_faltings(m2)


def test_tensor_crossed_square():
    m = crossed_example()
    t = tensor_mf(m, m)
    assert t.dim == 4
    assert slope_faltings(t) == 2
    res = mu_max_mf(t)
    assert res.certified and res.value == 2


def test_dual_negates_slope():
    rng = random.Random(17)
    for _ in range(10):
        m = random_mf(rng, rng.randint(1, 4), rng.randint(1, 3))
        d = dual_mf(m)
        assert slope_faltings(d) == -slope_faltings(m)
        assert dual_mf(d) == m


def test_theorem_tensor_mu_max_additive_small():
    rng = random.Random(19)
    done = 0
    for _ in range(30):
        if done >= 8:
            break
        m1 = random_mf(rng, rng.randint(1, 3), rng.randint(1, 3))
        m2 = random_mf(rng, rng.randint(1, 3), m1.n_filtrations)
        r1, r2 = mu_max_mf(m1), mu_max_mf(m2)
        if not (r1.certified and r2.certified):
            continue
        t = tensor_mf(m1, m2)
        seed_cand = [
            tuple(a * b for a in wa for b in wb)
            for wa in r1.witness
            for wb in r2.witness
        ]
        rt = mu_max_mf(t, extra_candidates=[seed_cand])
        if not rt.certified:
            continue
        assert rt.value == r1.value + r2.value
        done += 1
    assert done >= 5


def test_slope_filtration_semistable():
    m = crossed_example()
    poly = slope_filtration_mf(m)
    chain = poly.filtration
    assert poly.certified and len(chain) == 1 and len(chain[0]) == 2


def test_slope_filtration_split():
    # direct sum of unit objects with breaks 3 and 0
    f = Filtration(2, [(0, linalg.identity(2)), (3, [[1, 0]])])
    m = MultifilteredSpace(2, [f])
    poly = slope_filtration_mf(m)
    chain = poly.filtration
    assert poly.certified and poly.hull == ((0, 0), (1, 3), (2, 3))
    assert len(chain) == 2
    assert chain[0] == ((F(1), F(0)),)
    assert len(chain[1]) == 2


def test_slope_filtration_matches_brute_force():
    rng = random.Random(23)
    for _ in range(5):
        m = random_mf(rng, rng.randint(2, 3), rng.randint(1, 2))
        poly = slope_filtration_mf(m)
        if not poly.certified:
            continue
        chain = poly.filtration
        # breaks: piece slopes strictly decreasing, first = mu_max
        res = mu_max_mf(m)
        assert slope_of_subspace(m, chain[0]) == res.value


def test_inequality_suite_unit_objects():
    u = unit_object(2)
    rep = inequality_suite((u, u))
    assert rep.passed
    for c in rep.checks:
        if "bound" in c.name:
            assert "0" in c.detail


def test_inequality_suite_crossed():
    m = crossed_example()
    rep = inequality_suite((m, m))
    assert rep.passed


def test_inequality_suite_lattices():
    from slopekit.lattice import a2_lattice
    from fractions import Fraction as FF

    lat = a2_lattice().scale(FF(2, 3))
    rep = inequality_suite((lat, lat))
    assert rep.passed


def test_json_roundtrip():
    m = crossed_example()
    back = MultifilteredSpace.from_json_dict(m.to_json_dict())
    assert back == m


def naive_profile_bound(m):
    """Independent unpruned re-implementation of the profile relaxation: the
    bound for each k = 1..dim."""
    n = m.n_filtrations
    steps = [f.steps for f in m.filtrations]
    bounds = []
    for k in range(1, m.dim + 1):
        best = None
        per_v = []
        for v in range(n):
            brks = [lam for lam, _ in steps[v]]
            adims = [len(s) for _, s in steps[v]]
            profs = []

            def rec(i, prev, acc):
                if i == len(brks):
                    profs.append(tuple(acc))
                    return
                if i == 0:
                    rng_vals = [k]
                else:
                    lo = max(0, prev - (adims[i - 1] - adims[i]))
                    hi = min(prev, adims[i], k)
                    rng_vals = range(lo, hi + 1)
                for d in rng_vals:
                    acc.append(d)
                    rec(i + 1, d, acc)
                    acc.pop()

            rec(0, k, [])
            per_v.append(profs)
        for combo in itertools.product(*per_v):
            ok = True
            for v in range(n):
                for w in range(v + 1, n):
                    for i, d in enumerate(combo[v]):
                        for j, e in enumerate(combo[w]):
                            cap = len(
                                linalg.intersect_row_spaces(
                                    steps[v][i][1], steps[w][j][1], m.dim
                                )
                            )
                            if d + e - k > cap:
                                ok = False
            if not ok:
                continue
            total = F(0)
            for v in range(n):
                brks = [lam for lam, _ in steps[v]]
                prof = combo[v]
                for t_i in range(len(prof)):
                    nxt = prof[t_i + 1] if t_i + 1 < len(prof) else 0
                    total += brks[t_i] * (prof[t_i] - nxt)
            val = total / k
            if best is None or val > best:
                best = val
        bounds.append(best)
    return bounds


def test_profile_bound_matches_naive_enumeration():
    from slopekit.multifilt import _profile_upper_bound

    rng = random.Random(37)
    for _ in range(8):
        m = random_mf(rng, rng.randint(1, 3), rng.randint(1, 2))
        assert _profile_upper_bound(m) == naive_profile_bound(m)
    assert _profile_upper_bound(crossed_example()) == naive_profile_bound(crossed_example()) == [1, 1]


def _parent_profile_upper_bound(m):
    """Reference copy of the earlier `_profile_upper_bound`: profiles over
    every step, the whole space included, scored in Fractions."""
    n = m.n_filtrations
    steps = [f.steps for f in m.filtrations]

    def meet_dim(a, b):
        return len(a) + len(b) - linalg.rank(a + b)

    pair_dim = {}
    for v in range(n):
        for w in range(v + 1, n):
            for i, (_, si) in enumerate(steps[v]):
                for j, (_, sj) in enumerate(steps[w]):
                    pair_dim[(v, i, w, j)] = meet_dim(si, sj)
    triple_dim = {}
    if n >= 3:
        for v, w, x in itertools.combinations(range(n), 3):
            for i in range(len(steps[v])):
                for j in range(len(steps[w])):
                    si = linalg.intersect_row_spaces(steps[v][i][1], steps[w][j][1], m.dim)
                    for l in range(len(steps[x])):
                        triple_dim[(v, i, w, j, x, l)] = meet_dim(si, steps[x][l][1])

    bounds = []
    for k in range(1, m.dim + 1):
        per_v = []
        for v in range(n):
            brks = [lam for lam, _ in steps[v]]
            adims = [len(s) for _, s in steps[v]]
            profs = []

            def rec(i, prev, acc):
                if i == len(brks):
                    contrib = F(0)
                    for t in range(len(acc)):
                        nxt = acc[t + 1] if t + 1 < len(acc) else 0
                        contrib += brks[t] * (acc[t] - nxt)
                    profs.append((contrib, tuple(acc)))
                    return
                lo = max(0, prev - (adims[i - 1] - adims[i])) if i > 0 else k
                hi = min(prev, adims[i], k) if i > 0 else k
                for d in range(hi, lo - 1, -1):
                    acc.append(d)
                    rec(i + 1, d, acc)
                    acc.pop()

            rec(0, k, [])
            profs.sort(key=lambda t: t[0], reverse=True)
            per_v.append(profs)

        best_k = None
        suffix_max = [F(0)] * (n + 1)
        for v in range(n - 1, -1, -1):
            suffix_max[v] = suffix_max[v + 1] + per_v[v][0][0]

        def feasible(chosen, v, prof):
            for w in range(v):
                for i, d in enumerate(prof):
                    for j, e in enumerate(chosen[w]):
                        if d + e - k > pair_dim[(w, j, v, i)]:
                            return False
            if n >= 3:
                for w, x in itertools.combinations(range(v), 2):
                    for i, d in enumerate(prof):
                        for j, e in enumerate(chosen[w]):
                            for l, g in enumerate(chosen[x]):
                                if d + e + g - 2 * k > triple_dim[(w, j, x, l, v, i)]:
                                    return False
            return True

        def dfs(v, chosen, total):
            nonlocal best_k
            if v == n:
                if best_k is None or total > best_k * k:
                    best_k = total / k
                return
            for contrib, prof in per_v[v]:
                if best_k is not None and total + contrib + suffix_max[v + 1] <= best_k * k:
                    break
                if feasible(chosen, v, prof):
                    chosen.append(prof)
                    dfs(v + 1, chosen, total + contrib)
                    chosen.pop()

        dfs(0, [], F(0))
        bounds.append(best_k)
    return bounds


def _profile_corpus(rng, count):
    """`count` seeded spaces of dimension 1..6 and tensors of dimension up to
    9, each with 0..3 filtrations of at most 3 steps, with breaks in
    (1/6)Z so that denominators 2, 3 and 6 occur."""

    def space(dim, n_filts):
        return random_mf(rng, dim, n_filts, denominator=6)

    out = []
    for i in range(count):
        n_filts = rng.randint(0, 3)
        if i % 4 == 3:
            out.append(tensor_mf(space(rng.randint(1, 3), n_filts), space(rng.randint(1, 3), n_filts)))
        else:
            out.append(space(rng.choice((1, 2, 2, 3, 3, 4, 4, 5, 6)), n_filts))
    return out


def test_integer_profile_bound_matches_parent_on_seeded_spaces():
    """Profiles over the proper steps, scored in integers, give the earlier
    per-k bound lists on 2,000 seeded spaces and tensors whose breaks have
    denominators up to 6."""
    from slopekit.multifilt import _profile_upper_bound

    corpus = _profile_corpus(random.Random(1601), 2000)
    for m in corpus:
        assert _profile_upper_bound(m) == _parent_profile_upper_bound(m)
    assert max(m.dim for m in corpus) == 9
    assert {m.n_filtrations for m in corpus} == {0, 1, 2, 3}
    breaks = [lam for m in corpus for f in m.filtrations for lam in f.breaks()]
    assert {lam.denominator for lam in breaks} >= {1, 2, 3, 6}
    assert sum(len(f.steps) == 1 for m in corpus for f in m.filtrations) >= 300


def _mf_tensor_spaces(monkeypatch):
    """The factors and tensor of every op of the benchmark's mf-tensor list at
    seed 1 (135 ops, all its run reaches)."""
    from pathlib import Path

    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.setattr("sys.dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(perfbench))
    import workloads

    out = []
    for i in range(135):
        m1, m2 = (
            MultifilteredSpace(d, [Filtration(d, steps) for steps in filts])
            for d, filts in workloads.mf_tensor_input(1, i)
        )
        out += [m1, m2, tensor_mf(m1, m2)]
    return out


def test_integer_profile_bound_matches_parent_on_mf_tensor_spaces(monkeypatch):
    """The same on every factor and tensor of the mf-tensor benchmark at
    seed 1."""
    from slopekit.multifilt import _profile_upper_bound

    spaces = _mf_tensor_spaces(monkeypatch)
    assert len(spaces) == 405 and max(m.dim for m in spaces) == 9
    for m in spaces:
        assert _profile_upper_bound(m) == _parent_profile_upper_bound(m)


def test_profile_bound_matches_parent_on_many_filtrations():
    """The same on 320 seeded spaces of dimension 2..5 with 4 or 5
    filtrations, where three or more are enumerated ahead of the one read in
    closed form and triples of enumerated filtrations bound each other."""
    from slopekit.multifilt import _profile_upper_bound

    rng = random.Random(4501)
    corpus = [
        random_mf(rng, rng.choice((2, 3, 4, 4, 5, 5)), rng.choice((4, 5)), denominator=rng.choice((1, 2, 6)))
        for _ in range(320)
    ]
    for m in corpus:
        assert _profile_upper_bound(m) == _parent_profile_upper_bound(m)
    proper = [sum(len(f.steps) > 1 for f in m.filtrations) for m in corpus]
    assert sum(p >= 4 for p in proper) >= 80 and sum(p == 5 for p in proper) >= 10


def _own_profiles(k, a):
    """Every (d_1, ..., d_s) with d_0 = k, d_i <= min(d_(i-1), a_i) and
    d_(i-1) - d_i <= a_(i-1) - a_i, d_i >= 0, by brute force."""
    s = len(a) - 1
    out = []
    for prof in itertools.product(range(k + 1), repeat=s):
        d = (k,) + prof
        if all(d[i] <= min(d[i - 1], a[i]) and d[i - 1] - d[i] <= a[i - 1] - a[i] for i in range(1, s + 1)):
            out.append(prof)
    return out


def test_closed_form_profile_is_the_best_under_caps():
    """`_profiles` lists exactly the profiles of a filtration, by decreasing
    score, and `_greatest_profile_score` is the best score of a profile
    under random caps, or None where none meets them, over every profile of
    1,500 seeded flags of dimension up to 7."""
    from slopekit.multifilt import _greatest_profile_score, _profiles

    rng = random.Random(4502)
    infeasible = 0
    for _ in range(1500):
        n = rng.randint(2, 7)
        dims = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))), reverse=True)
        a = [n] + dims
        g = [rng.randint(1, 6) for _ in dims]
        k = rng.randint(1, n)
        everything = _own_profiles(k, a)
        listed = _profiles(k, a, g)
        assert sorted(prof for _, prof in listed) == everything
        assert all(score == sum(x * y for x, y in zip(g, prof)) for score, prof in listed)
        assert [score for score, _ in listed] == sorted((score for score, _ in listed), reverse=True)
        caps = [rng.randint(0, dim) for dim in dims]
        scores = [sum(x * y for x, y in zip(g, prof)) for prof in everything if all(map(int.__le__, prof, caps))]
        want = max(scores) if scores else None
        assert _greatest_profile_score(k, a, g, caps) == want
        assert _greatest_profile_score(k, a, g, dims) == listed[0][0]
        infeasible += want is None
    assert infeasible >= 100


def test_stacked_meet_dimensions_match_meet_dim(monkeypatch):
    """One `rref` per step against a whole flag gives `_meet_dim` of that
    step with every step of the flag, and the triple tables give the meet
    of three steps, for every pair and triple of filtrations (either way
    round) of the 405 mf-tensor spaces, `built` counting the pairs of steps
    whose meet the triple tables build and meet with the third flag."""
    from slopekit.multifilt import _flag_meet_dims, _meet_dim, _triple_meet_dims

    pairs = triples = built = 0
    for m in _mf_tensor_spaces(monkeypatch):
        flags = [[space for _, space in f.steps[1:]] for f in m.filtrations]
        table = {}
        for v, w in itertools.permutations(range(len(flags)), 2):
            table[v, w] = [_flag_meet_dims(x, flags[w]) for x in flags[v]]
            assert table[v, w] == [[_meet_dim(x, y) for y in flags[w]] for x in flags[v]]
            pairs += len(flags[v]) * len(flags[w])
        for v, w, x in itertools.permutations(range(len(flags)), 3):
            got = _triple_meet_dims(flags[v], flags[w], flags[x], table[v, w], table[v, x], table[w, x], m.dim)
            want = [
                [[_meet_dim(linalg.intersect_row_spaces(fv, fw, m.dim), fx) for fx in flags[x]] for fw in flags[w]]
                for fv in flags[v]
            ]
            assert got == want
            triples += len(flags[v]) * len(flags[w]) * len(flags[x])
            built += sum(
                0 < d < min(len(fv), len(fw)) for fv, row in zip(flags[v], table[v, w]) for fw, d in zip(flags[w], row)
            )
    assert pairs >= 1000 and triples >= 900 and built >= 100


def test_relaxation_witness_and_mu_max_leave_no_cycles():
    """One call of the relaxation, of `mu_max_mf` or of `nu_witness` leaves
    nothing for the cyclic garbage collector: with it disabled, a
    collection right after the call finds no unreachable object."""
    import gc

    from slopekit.multifilt import _profile_upper_bound

    rng = random.Random(4503)
    spaces = [tensor_mf(random_mf(rng, 3, 3), random_mf(rng, rng.randint(2, 3), 3)) for _ in range(4)]
    spaces.append(random_mf(rng, 5, 4))
    for fn in (_profile_upper_bound, mu_max_mf, nu_witness):
        for m in spaces:
            gc.collect()
            gc.disable()
            try:
                fn(m)
                assert gc.collect() == 0
            finally:
                gc.enable()


def _holds_whole_space(a, n):
    """Whether rows of `a`, cut to their first n entries, hold the n x n
    identity (the stored whole space) as a block, next to other rows."""
    heads = tuple(tuple(row[:n]) for row in a)
    ident = linalg.identity(n)
    return len(a) > n and any(heads[r:r + n] == ident for r in range(len(a) - n + 1))


def test_proper_steps_only_reach_rref(monkeypatch):
    """The relaxation, slopes, witness lines, filtrations, tensor products,
    subobjects, multigraded dimensions, the hyperplane search and the
    candidate closure never hand `linalg.rref` the whole space next to
    another operand: its meets are known, so they are not computed.  (Only
    the whole space of the input is watched, not those of the graded
    pieces.)"""
    from slopekit.multifilt import _best_hyperplane, _candidate_family, _profile_upper_bound

    seen = {"calls": 0, "whole": [], "n": None}
    real = linalg.rref

    def watched(a):
        seen["calls"] += 1
        if seen["n"] is not None and _holds_whole_space(a, seen["n"]):
            seen["whole"].append(a)
        return real(a)

    monkeypatch.setattr(linalg, "rref", watched)
    rng = random.Random(1607)
    for _ in range(60):
        n_filts = rng.randint(1, 3)
        d1, d2 = rng.randint(2, 3), rng.randint(1, 3)
        seen["n"] = d1
        m1 = random_mf(rng, d1, n_filts)
        seen["n"] = d2
        m2 = random_mf(rng, d2, n_filts)
        seen["n"] = d1 * d2
        t = tensor_mf(m1, m2)
        for m in (m1, t):
            seen["n"] = m.dim
            _profile_upper_bound(m)
            nu_witness(m)
            _best_hyperplane(m)
            multigraded_dims(m)
            if m.dim <= 4:
                list(_candidate_family(m, ()))
            rows = [[rng.randint(-2, 2) for _ in range(m.dim)] for _ in range(rng.randint(1, m.dim - 1))]
            if linalg.rank(linalg.mat(rows)):
                slope_of_subspace(m, rows)
                subobject(m, rows)
    assert seen["calls"] >= 2000
    assert seen["whole"] == []
    # the check itself sees the whole space next to a step
    seen["n"] = 2
    linalg.rank(linalg.identity(2) + ((F(1), F(1)),))
    assert len(seen["whole"]) == 1


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda m: Filtration(2, [(0, [[1, 0], [0, 1]]), (1, [[1, 0, 5]])]), id="step"),
        pytest.param(lambda m: Filtration(2, [(0, [[1, 0, 0], [0, 1, 0]])]), id="lowest-step"),
        pytest.param(lambda m: slope_of_subspace(m, [[1]]), id="slope-short"),
        pytest.param(lambda m: slope_of_subspace(m, [[0, 1, 1]]), id="slope-long"),
        pytest.param(lambda m: mu_max_mf(m, extra_candidates=[[[0, 1, 1]]]), id="extra"),
        # the whole space certifies at the probe, which still checks every extra
        pytest.param(lambda m: mu_max_mf(m, extra_candidates=[[[1, 0], [0, 1]], [[1]]]), id="second-extra"),
        pytest.param(lambda m: subobject(m, [[1, 0, 7]]), id="subobject"),
        pytest.param(lambda m: quotient_object(m, [[1, 0, 7]]), id="quotient"),
    ],
)
def test_rows_of_the_wrong_width_raise(call):
    """Rows outside the ambient Q^2 raise a ValueError naming the width."""
    with pytest.raises(ValueError, match="rows must have 2 entries"):
        call(crossed_example())


def _in_scaled_rref(rows, want) -> bool:
    """Whether rows are a tuple of tuples matching the integer RREF want row
    by row: each row a positive multiple of want's row, in ints, or want's
    row divided by its pivot, in Fractions."""
    if type(rows) is not tuple or len(rows) != len(want):
        return False
    for row, w, unit in zip(rows, want, linalg.unit_rref(want)):
        kinds = set(map(type, row)) if type(row) is tuple else None
        if not (
            kinds == {int} and tuple(x // math.gcd(*row) for x in row) == w
            or kinds == {F} and row == unit
        ):
            return False
    return True


def test_rref_input_is_not_reduced_again(monkeypatch):
    """`_rref_rows` hands back, with no elimination, the integer RREF of rows
    that are already in RREF up to row scaling (a tuple of tuples, each row
    a positive multiple in ints or the unit-pivot row in Fractions), and
    reduces every other input to the integer RREF of `linalg.rref`: seeded
    rows, their integer RREFs, their RREFs, and integer RREFs spoilt by a
    row doubled or negated, rows out of order, a nonzero entry above a
    pivot, a zero row, a row of the RREF among integer rows, a pivot of 2
    in the RREF, or lists.  `slope_of_subspace` of the whole space is the
    Faltings slope, with no elimination."""
    from slopekit.multifilt import _rref_rows

    rng = random.Random(12)
    inputs = []
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = linalg.mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))])
        red = linalg.rref(rows)[0]
        unit = linalg.unit_rref(red)
        inputs += [rows, red, unit]
        if red:
            i = rng.randrange(len(red))
            inputs += [
                red[:i] + (tuple(2 * x for x in red[i]),) + red[i + 1:],
                red[:i] + (tuple(-x for x in red[i]),) + red[i + 1:],
                red[::-1],
                (tuple(x + y for x, y in zip(red[0], red[-1])),) + red[1:],
                red + ((0,) * n,),
                red[:i] + unit[i:i + 1] + red[i + 1:],
                unit[:i] + (tuple(2 * x for x in unit[i]),) + unit[i + 1:],
                [list(row) for row in red],
            ]
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda a: calls.append(a) or real(a))
    kept = 0
    for rows in filter(None, inputs):
        want = real(rows)[0]
        calls.clear()
        got = _rref_rows(rows, len(rows[0]))
        assert got == want and all(type(x) is int for row in got for x in row)
        assert all(row[next(c for c, x in enumerate(row) if x)] > 0 and math.gcd(*row) == 1 for row in got)
        assert (calls == []) == _in_scaled_rref(rows, want)
        kept += calls == []
    assert kept >= 1200
    for m in (random_mf(rng, n, rng.randint(1, 3)) for n in (1, 2, 4, 5)):
        calls.clear()
        assert slope_of_subspace(m, linalg.identity(m.dim)) == slope_faltings(m) and calls == []
        rows = [[rng.randint(-2, 2) for _ in range(m.dim)] for _ in range(m.dim)]
        if linalg.rank(linalg.mat(rows)) == m.dim:
            assert slope_of_subspace(m, rows) == slope_faltings(m)


def test_slope_filtration_subquotient_rederivation():
    """Chain piece slopes re-derived through explicit sub/quotient objects."""
    from slopekit.multifilt import quotient_object, subobject

    rng = random.Random(41)
    checked = 0
    for _ in range(12):
        m = random_mf(rng, rng.randint(2, 3), rng.randint(1, 2))
        poly = slope_filtration_mf(m)
        if not poly.certified:
            continue
        chain = poly.filtration
        prev = None
        prev_slope = None
        for rows in chain:
            if prev is None:
                piece_slope = slope_faltings(subobject(m, rows))
            else:
                quot, completion = quotient_object(m, prev)
                # image of rows in the quotient: their completion coordinates
                # in the basis prev + completion
                full = prev + completion
                coords = (tuple(_reference_solve_coords(linalg.mat(full), r)) for r in rows)
                imgs = [p for p in (c[len(prev):] for c in coords) if any(p)]
                piece_slope = slope_of_subspace(quot, tuple(imgs))
            if prev_slope is not None:
                assert piece_slope < prev_slope
            prev_slope = piece_slope
            prev = rows
        checked += 1
    assert checked >= 8


def test_slope_filtration_breaks_match_candidate_polygon():
    """Chain piece slopes equal the upper-hull slopes of the per-dimension
    best degrees over an exhaustive candidate family (brute-force oracle)."""
    from slopekit.multifilt import _candidate_family

    rng = random.Random(47)
    checked = 0
    for _ in range(14):
        m = random_mf(rng, rng.randint(2, 4), rng.randint(1, 2))
        poly = slope_filtration_mf(m)
        if not poly.certified:
            continue
        chain = poly.filtration
        draw = random.Random(0)
        subspaces = []
        for _ in range(12):
            k = draw.randint(1, m.dim)
            subspaces.append(
                [tuple(F(draw.randint(-2, 2)) for _ in range(m.dim)) for _ in range(k)]
            )
        cands = _candidate_family(m, subspaces)
        best_deg = {}
        for rows in cands:
            k = len(rows)
            deg = slope_of_subspace(m, rows) * k
            if k not in best_deg or deg > best_deg[k]:
                best_deg[k] = deg
        pts = [(0, F(0))] + sorted(best_deg.items())
        hull = [(0, F(0))]
        for pt in pts[1:]:
            while len(hull) >= 2:
                (x0, y0), (x1, y1) = hull[-2], hull[-1]
                if (y1 - y0) * (pt[0] - x1) <= (pt[1] - y1) * (x1 - x0):
                    hull.pop()
                else:
                    break
            hull.append(pt)
        hull_slopes = [
            (y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])
        ]
        chain_slopes = []
        prev_rows = None
        prev_deg = F(0)
        for rows in chain:
            deg = slope_of_subspace(m, rows) * len(rows)
            chain_slopes.append((deg - prev_deg) / (len(rows) - (len(prev_rows) if prev_rows else 0)))
            prev_rows, prev_deg = rows, deg
        assert chain_slopes == hull_slopes
        checked += 1
    assert checked >= 10


def _parent_candidate_family(m, extra, seed=0, rand_count=8, cap=400):
    """Reference copy of the earlier candidate family: ordered pairs of the
    closure (each pair inside a frontier visited twice), then the extra
    candidates, then `rand_count` seeded random subspaces."""
    seen = {}

    def add(rows):
        rows = linalg.rref(linalg.mat(rows))[0] if rows else ()
        if rows and rows not in seen:
            seen[rows] = None
            return rows
        return None

    add(linalg.identity(m.dim))
    for f in m.filtrations:
        for _, space in f.steps:
            add(space)
    frontier = list(seen)
    while frontier and len(seen) < cap:
        new = []
        current = list(seen)
        for a in frontier:
            for b in current:
                if a == b:
                    continue
                i = linalg.intersect_row_spaces(a, b, m.dim)
                s = linalg.sum_row_spaces(a, b)
                for rows in (i, s):
                    got = add(rows)
                    if got is not None:
                        new.append(got)
                if len(seen) >= cap:
                    break
            if len(seen) >= cap:
                break
        frontier = new
    for rows in extra:
        add(rows)
    rng = random.Random(seed)
    for _ in range(rand_count):
        k = rng.randint(1, m.dim)
        add([tuple(F(rng.randint(-2, 2)) for _ in range(m.dim)) for _ in range(k)])
    return list(seen)


def _reference_corpus(low=1):
    """64 random spaces (dim low..4, low..3 filtrations) and, for each, its
    tensor with a random partner (tensor dim <= 6) and the witness-product
    candidate."""
    rng = random.Random(61)
    spaces = [random_mf(rng, rng.randint(low, 4), rng.randint(low, 3)) for _ in range(64)]
    tensors = []
    for m1 in spaces:
        m2 = random_mf(rng, rng.randint(1, 6 // m1.dim), m1.n_filtrations)
        r1, r2 = mu_max_mf(m1), mu_max_mf(m2)
        products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
        tensors.append((tensor_mf(m1, m2), [products]))
    return [(m, ()) for m in spaces] + tensors


def test_mu_max_matches_parent_family_with_random_draws(monkeypatch):
    """Dropping the seeded random subspaces changes no value, witness, upper
    bound or certified flag."""
    from slopekit import multifilt

    corpus = _reference_corpus()
    new = [mu_max_mf(m, extra) for m, extra in corpus]
    monkeypatch.setattr(multifilt, "_candidate_family", _parent_candidate_family)
    old = [mu_max_mf(m, extra) for m, extra in corpus]
    assert new == old
    assert sum(r.certified for r in new) >= 120


@pytest.mark.parametrize("cap,low", [(400, 1), (12, 2)])
def test_candidate_family_matches_parent_order(monkeypatch, cap, low):
    """Visiting each pair once keeps the family's content and order, also
    where the cap cuts the closure off (the richer corpus at cap 12)."""
    from slopekit import multifilt

    monkeypatch.setattr(multifilt, "_FAMILY_CAP", cap)
    cut = 0
    for m, extra in _reference_corpus(low):
        fam = list(multifilt._candidate_family(m, extra))
        assert fam == _parent_candidate_family(m, extra, rand_count=0, cap=cap)
        cut += len(fam) >= cap
    if cap == 12:
        assert cut >= 20


def _parent_coords_in_rows(rows, v):
    """Reference copy of the earlier coordinates: one linear solve per vector,
    in the RREF basis (stored integer RREF rows divided by their pivots)."""
    sol = _reference_solve_coords(linalg.unit_rref(rows), v)
    if sol is None:
        raise ValueError("vector outside the span")
    return tuple(sol)


def _parent_quotient_data(m_dim, sub_rows):
    """Reference copy of the earlier quotient data: a greedy completion by unit
    vectors, one elimination per vector, and a projector by linear solve."""
    sub_rows = linalg.rref(linalg.mat(sub_rows))[0] if sub_rows else ()
    completion = []
    current = sub_rows
    for i in range(m_dim):
        e = tuple(F(1 if j == i else 0) for j in range(m_dim))
        if current and linalg.in_row_space(e, current):
            continue
        completion.append(e)
        current = linalg.rref(linalg.mat(current + (e,)))[0]
    full = sub_rows + tuple(completion)

    def project(v):
        return tuple(_parent_coords_in_rows(full, v)[len(sub_rows):])

    return tuple(completion), project


def _parent_quotient_object(m, rows):
    rows = linalg.rref(linalg.mat(rows))[0] if rows else ()
    q_dim = m.dim - len(rows)
    if q_dim == 0:
        raise ValueError("quotient by the whole space")
    completion, project = _parent_quotient_data(m.dim, rows)
    filts = []
    for f in m.filtrations:
        steps = []
        for lam, space in f.steps:
            imgs = [r for r in (project(r) for r in space) if any(r)]
            steps.append((lam, linalg.rref(linalg.mat(imgs))[0] if imgs else ()))
        filts.append(Filtration(q_dim, steps))
    return MultifilteredSpace(q_dim, filts), completion


def _parent_multigraded(m):
    if m.n_filtrations == 0:
        return {(): m.dim}
    f = m.filtrations[-1]
    rest = m.filtrations[:-1]
    out = {}
    for i, (lam, space) in enumerate(f.steps):
        nxt = f.steps[i + 1][1] if i + 1 < len(f.steps) else ()
        if len(space) == len(nxt):
            continue
        for key, d in _parent_graded_piece(m, rest, space, nxt).items():
            if d:
                out[key + (lam,)] = out.get(key + (lam,), 0) + d
    return out


def _parent_graded_piece(m, rest, space, nxt):
    """Reference copy of the earlier graded piece: its own projection to
    ambient/nxt and re-coordination in the image of `space`."""
    piece_dim = len(space) - len(nxt)
    if not rest:
        return {(): piece_dim}
    _, project = _parent_quotient_data(m.dim, nxt)
    basis = linalg.rref(linalg.mat([p for p in (project(r) for r in space) if any(p)]))[0]
    piece_filts = []
    for f in rest:
        steps = []
        for lam, fspace in f.steps:
            inter = linalg.intersect_row_spaces(fspace, space, m.dim)
            imgs = [r for r in (project(r) for r in inter) if any(r)]
            img_rows = linalg.rref(linalg.mat(imgs))[0] if imgs else ()
            steps.append((lam, tuple(_parent_coords_in_rows(basis, r) for r in img_rows)))
        piece_filts.append(Filtration(piece_dim, steps))
    return _parent_multigraded(MultifilteredSpace(piece_dim, piece_filts))


def _parent_meet_dim(a, b):
    """The earlier intersection dimension: the length of an intersection basis."""
    return len(linalg.intersect_row_spaces(a, b, len((a or b)[0])))


def _sub_quotient_corpus():
    """100 random spaces (dim 1..4; 1..3 filtrations, at most 2 in dim 4,
    where the closure blows up), each with a random
    spanning set (possibly dependent, not in RREF) of a nonzero subspace,
    proper where the dimension allows."""
    rng = random.Random(71)
    out = []
    for _ in range(100):
        dim = rng.randint(1, 4)
        m = random_mf(rng, dim, rng.randint(1, 3 if dim < 4 else 2))
        while True:
            k = rng.randint(1, max(1, m.dim - 1))
            rows = [[F(rng.randint(-2, 2)) for _ in range(m.dim)] for _ in range(k)]
            if linalg.rank(linalg.mat(rows)):
                break
        out.append((m, rows))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_rank_dims_and_pivot_coords_match_parent(monkeypatch):
    """Dimensions by rank, coordinates at pivot columns, the one-echelon
    quotient and graded pieces as quotients of subobjects give the same
    subobjects, quotients, multigraded dimensions, mu_max results and
    slope filtrations as the earlier basis-building code."""
    from slopekit import multifilt

    corpus = _sub_quotient_corpus()

    def run():
        out = []
        for m, rows in corpus:
            sub = subobject(m, rows).to_json_dict()
            quot = _outcome(multifilt.quotient_object, m, rows)
            if isinstance(quot[0], MultifilteredSpace):
                quot = (quot[0].to_json_dict(), quot[1])
            graded = [
                multigraded_dims(m.permuted(order))
                for order in itertools.permutations(range(m.n_filtrations))
            ]
            out.append((sub, quot, graded, mu_max_mf(m), slope_filtration_mf(m)))
        return out

    new = run()
    monkeypatch.setattr(multifilt, "_coords_in_rows", _parent_coords_in_rows)
    monkeypatch.setattr(multifilt, "_meet_dim", _parent_meet_dim)
    monkeypatch.setattr(multifilt, "quotient_object", _parent_quotient_object)
    monkeypatch.setattr(multifilt, "_multigraded", _parent_multigraded)
    old = run()
    assert new == old
    assert sum(isinstance(q[0], dict) for _, q, _, _, _ in new) >= 75
    assert sum(c.certified and len(c.filtration) > 1 for *_, c in new) >= 50


def _reference_mu_max_mf(m, extra=()):
    """Reference copy of the earlier mu_max_mf: the best slope over the
    family, then the span of all its maximizers.  Where the profile bound
    lies above, the bounds of the ranks above the witness are tightened
    through the quotient by it (`_tightened_through_quotient`)."""
    from slopekit.multifilt import _candidate_family, _profile_upper_bound

    best, maximizers = None, []
    for rows in _candidate_family(m, extra):
        s = slope_of_subspace(m, rows)
        if best is None or s > best:
            best, maximizers = s, [rows]
        elif s == best:
            maximizers.append(rows)
    span = maximizers[0]
    for rows in maximizers[1:]:
        span = linalg.sum_row_spaces(span, rows)
    s_span = slope_of_subspace(m, span)
    if s_span >= best:
        best, witness = s_span, span
    else:
        witness = max(maximizers, key=len)
    uppers = [k * b for k, b in enumerate(_profile_upper_bound(m), 1)]
    if max(u / k for k, u in enumerate(uppers, 1)) != best and len(witness) < m.dim:
        uppers = _tightened_through_quotient(m, uppers, witness)
    upper = max(u / k for k, u in enumerate(uppers, 1))
    return best, witness, upper, upper == best


def _tightened_through_quotient(m, uppers, s):
    """The per-rank degree bounds `uppers` (rank k at index k - 1) with those
    of the ranks above the proper subspace s bounded through the quotient
    by s, as `mu_max_mf` does."""
    from slopekit.multifilt import _profile_upper_bound

    v, n = len(s), m.dim
    quot = _profile_upper_bound(quotient_object(m, s)[0])
    out = list(uppers)
    for k in range(v + 1, n + 1):
        via_s = max((out[j - 1] if j else 0) + (k - j) * quot[k - j - 1] for j in range(max(0, k + v - n), v + 1))
        out[k - 1] = min(out[k - 1], via_s)
    return out


def _duality_mu_max_mf(m):
    """mu_max of a space of dimension n <= 3 as (value, witness, upper,
    certified), from its three kinds of subspace: the best line
    (`nu_witness`), the best hyperplane as the annihilator of the best line
    l of the dual (deg l^⊥ = deg V + deg l), and V.  The witness is the best
    subspace of the largest rank of maximal slope, the only maximizer of
    that rank (the sum of two would be a larger one)."""
    n = m.dim
    deg_v = slope_faltings(m) * n
    best = {n: (deg_v, linalg.identity(n))}
    if n > 1:
        value, line = nu_witness(m)
        best[1] = (value, (line,))
    if n > 2:
        value, line = nu_witness(dual_mf(m))
        best[n - 1] = (deg_v + value, linalg.rref(linalg.kernel((line,)))[0])
    mu = max(deg / k for k, (deg, _) in best.items())
    k = max(k for k, (deg, _) in best.items() if deg == k * mu)
    return mu, best[k][1], mu, True


def _reference_slope_filtration_mf(m):
    """Reference copy of the earlier slope_filtration_mf: the largest
    destabilizer of each quotient in turn, every stage certified.  A stage
    of dimension at most 3 takes `_duality_mu_max_mf`, exact at every rank,
    as the library does."""
    chain, prev, current, lift = [], (), m, linalg.identity(m.dim)
    while True:
        stage = _duality_mu_max_mf if current.dim <= 3 else _reference_mu_max_mf
        _, witness, _, certified = stage(current)
        if not certified:
            raise ValueError("uncertified mu_max stage; filtration aborted")
        wit = linalg.rref(linalg.mat([[sum(x * y for x, y in zip(col, r)) for col in zip(*lift)] for r in witness]))[0]
        prev = linalg.sum_row_spaces(prev, wit) if prev else wit
        chain.append(prev)
        if len(prev) == m.dim:
            return tuple(chain)
        current, lift = quotient_object(m, prev)


def test_polygon_readers_match_parent_reference(monkeypatch):
    """mu_max_mf and slope_filtration_mf, read off one polygon, agree with
    the earlier results on 330 seeded spaces of dimension 4 and 5 and
    tensors of two planes: every value and witness is the whole closure's,
    every upper bound is at most its, and every result is certified where
    it is (`_no_worse`); every chain is the earlier per-stage code's where
    that code gave one, and every polygon is uncertified where that code
    raised a ValueError, with the vertices of its certified stages.  The one
    certificate certifies two results (inputs 145 and 181) that the earlier
    bounds left open, where the earlier chain raised a ValueError: each
    chain then runs from the certified witness to the whole space, with
    strictly decreasing quotient slopes.  Every vertex after the origin is
    that of its chain member, and an uncertified polygon ends at the whole
    space's.  The closure is capped at 25 members on both sides, which
    keeps the corpus quick and leaves some of it uncertified; quotients of
    dimension at most 3 are exact on both sides."""
    from slopekit import multifilt

    def kind(f, *args):
        try:
            return f(*args)
        except ValueError:
            return "ValueError"

    monkeypatch.setattr(multifilt, "_FAMILY_CAP", 25)
    rng = random.Random(173)
    uncertified = raised = newly = chains = 0
    for i in range(330):
        extra = ()
        if i % 3 == 0:
            m = random_mf(rng, rng.randint(4, 5), rng.randint(1, 2))
        elif i % 3 == 1:
            m = tensor_mf(random_mf(rng, 2, 3), random_mf(rng, 2, 3))
        else:
            m1, m2 = random_mf(rng, 2, 3), random_mf(rng, 2, 3)
            r1, r2 = mu_max_mf(m1), mu_max_mf(m2)
            m = tensor_mf(m1, m2)
            extra = [[tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]]
        res = mu_max_mf(m, extra)
        newly += _no_worse(res, _full_closure_mu_max_mf(m, extra))
        poly, ref = slope_filtration_mf(m), kind(_reference_slope_filtration_mf, m)
        chain = poly.filtration
        points = [(len(w), len(w) * slope_of_subspace(m, w)) for w in chain]
        top = () if poly.certified else ((m.dim, m.dim * slope_faltings(m)),)
        assert poly.hull == ((0, 0), *points, *top)
        if ref == "ValueError" and poly.certified:
            # a chain from the certified witness to V whose quotients have
            # strictly decreasing slopes, the first the certified value
            slopes = poly.quotient_slopes()
            assert res.certified and chain[0] == res.witness and len(chain[-1]) == m.dim
            assert slopes[0] == res.value and all(a > b for a, b in zip(slopes, slopes[1:]))
            chains += 1
        else:
            assert poly.certified == (ref != "ValueError")
            assert chain == ref or not poly.certified
        uncertified += not res.certified
        raised += not poly.certified
    assert uncertified >= 3 and raised >= 5 and newly == chains == 2


def test_slope_filtration_bounds_ranks_past_a_vertex_through_its_quotient():
    """Two tensor-shaped spaces whose relaxation is loose at rank 2 or 3: the
    polygon of the canopy alone is uncertified, and the bounds through the
    quotients by its vertex witnesses certify the chain the earlier per-stage
    code found."""
    from test_enumeration import _reference_upper_hull

    h = F(1, 2)
    full = linalg.identity(4)
    cases = [
        (
            [
                [(-2, full), (3, [[0, 1, 0, 0], [0, 0, 0, 1]])],
                [(-2, full), (0, [[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]),
                 (1, [[1, 0, -1, 0], [0, 1, 0, -1]]), (3, [[1, -1, -1, 1]])],
                [(-3, full), (1, [[1, 0, 2, 0], [0, 1, 0, 2]])],
            ],
            [[[0, 1, 0, 2]], [[0, 1, 0, 0], [0, 0, 0, 1]], [[1, 0, 2, 0], [0, 1, 0, 0], [0, 0, 0, 1]]],
        ),
        (
            [
                [(-1, full), (2, [[0, 0, 1, 0], [0, 0, 0, 1]])],
                [(0, full), (2, [[1, 0, 0, -h], [0, 1, 0, h], [0, 0, 1, 1]]),
                 (3, [[1, 1, 0, 0], [0, 0, 1, 1]]), (5, [[1, 1, h, h]])],
                [(-5, full), (-1, [[1, 0, h, 0], [0, 1, 0, 0], [0, 0, 0, 1]]), (3, [[0, 1, 0, h]])],
            ],
            [[[0, 1, 0, h]], [[1, 0, h, 0], [0, 1, 0, h]], [[1, 0, h, 0], [0, 1, 0, 0], [0, 0, 0, 1]]],
        ),
    ]
    for steps, chain in cases:
        m = MultifilteredSpace(4, [Filtration(4, s) for s in steps])
        assert not _reference_upper_hull(_full_closure_canopy(m)).certified
        expected = tuple(linalg.rref(linalg.mat(rows))[0] for rows in chain) + (full,)
        assert slope_filtration_mf(m).filtration == expected == _reference_slope_filtration_mf(m)


def _parent_meet(a, b, n):
    """The earlier `linalg.intersect_row_spaces`: the kernel of the stacked
    annihilators."""
    ident = linalg.identity(n)
    anns = (linalg.kernel(a) if a else ident) + (linalg.kernel(b) if b else ident)
    if not anns:
        return ident
    ker = linalg.kernel(anns)
    return linalg.rref(ker)[0] if ker else ()


def _parent_avoid_subspaces(span_rows, bads):
    v = span_rows[0]
    handled = []
    for bad in bads:
        if bad and linalg.in_row_space(v, bad):
            b = next(r for r in span_rows if not linalg.in_row_space(r, bad))
            t = 1
            while True:
                cand = tuple(x + t * y for x, y in zip(v, b))
                if not any(w and linalg.in_row_space(cand, w) for w in handled + [bad]):
                    v = cand
                    break
                t += 1
        handled.append(bad)
    return v


def _parent_nu_witness(m):
    """Reference copy of the earlier `nu_witness`, with its avoidance of the
    steps above the chosen breaks."""
    if not m.filtrations:
        return F(0), tuple(F(int(i == 0)) for i in range(m.dim))
    tuples = sorted(
        itertools.product(*[f.breaks() for f in m.filtrations]), key=lambda t: sum(t), reverse=True
    )
    for tup in tuples:
        inter = None
        for f, lam in zip(m.filtrations, tup):
            space = f.space_at(lam)
            inter = space if inter is None else _parent_meet(inter, space, m.dim)
            if not inter:
                break
        if not inter:
            continue
        bads = []
        degenerate = False
        for f, lam in zip(m.filtrations, tup):
            above = next((space for mu, space in f.steps if mu > lam), ())
            bad = _parent_meet(inter, above, m.dim) if above else ()
            if len(bad) == len(inter):
                degenerate = True
                break
            bads.append(bad)
        if degenerate:
            continue
        return sum(tup, F(0)), _parent_avoid_subspaces(inter, bads)
    raise AssertionError("no witness line found")


def test_nu_witness_matches_parent_avoidance():
    """Without the avoidance of the steps above the chosen breaks, nu_witness
    returns the earlier value and line on 360 spaces, tensors and duals: the
    first break tuple with a nonzero meet meets none of those steps."""
    rng = random.Random(181)
    spaces = [MultifilteredSpace(3, [])]
    for i in range(360):
        if i % 4 == 3:
            n_filts = rng.randint(1, 3)
            m1, m2 = random_mf(rng, 2, n_filts), random_mf(rng, rng.randint(1, 3), n_filts)
            spaces.append(tensor_mf(m1, m2))
        else:
            m = random_mf(rng, rng.randint(1, 4), rng.randint(1, 4), break_bound=rng.choice((1, 3)))
            spaces.append(dual_mf(m) if i % 4 == 2 else m)
    for m in spaces:
        val, line = nu_witness(m)
        assert (val, line) == _parent_nu_witness(m)
        assert slope_of_subspace(m, (line,)) == val


def _full_closure_canopy(m, extra=()):
    """Reference copy of the earlier whole-closure read: for each dimension
    k the best candidate of the whole closure (the first among ties), and k
    times the profile bound."""
    from slopekit.enumeration import RankBound
    from slopekit.multifilt import _candidate_family, _profile_upper_bound

    best = {}
    for rows in list(_candidate_family(m, extra)):
        k = len(rows)
        deg = slope_of_subspace(m, rows) * k
        if k not in best or deg > best[k][0]:
            best[k] = (deg, rows)
    bounds = _profile_upper_bound(m)
    return [RankBound(*best.get(k, (None, None)), k * bounds[k - 1]) for k in range(1, m.dim + 1)]


def _full_closure_mu_max_mf(m, extra=()):
    """Reference copy of the earlier mu_max_mf: the canopy over the whole
    closure, the profile bound after it, then the polygon's first edge.
    Where that edge is uncertified, the bounds above its witness are
    tightened through the quotient by it, as the earlier slope_filtration_mf
    did at each vertex, and the edge is read again."""
    from test_enumeration import _reference_upper_hull

    canopy = _full_closure_canopy(m, extra)
    poly = _reference_upper_hull(canopy, edges=1)
    s = poly.filtration[0]
    if not poly.certified and len(s) < m.dim:
        uppers = _tightened_through_quotient(m, [b.upper for b in canopy], s)
        canopy = [b._replace(upper=u) for b, u in zip(canopy, uppers)]
        poly = _reference_upper_hull(canopy, edges=1)
    (_, (k, deg)) = poly.hull
    upper = deg / k if poly.certified else max(b.upper / j for j, b in enumerate(canopy, 1))
    return deg / k, poly.filtration[0], upper, poly.certified


def _no_worse(res, ref) -> bool:
    """Asserts that the result `res` keeps the reference's value and witness
    (ref = (value, witness, upper, certified), as `_full_closure_mu_max_mf`
    gives), has an upper bound no larger, and is certified wherever the
    reference is; returns whether it certifies where the reference does
    not."""
    value, witness, upper, certified = ref
    assert (res.value, res.witness) == (value, witness)
    assert res.upper <= upper
    assert res.certified or not certified
    return res.certified and not certified


def _exact_degrees(m):
    """The greatest degree of a subspace of each rank 1..n of a space of
    dimension n <= 3: the best line, the best hyperplane by duality
    (deg V + nu of the dual) and V."""
    n = m.dim
    deg_v = slope_faltings(m) * n
    best = {n: deg_v}
    if n > 1:
        best[1] = nu_witness(m)[0]
    if n > 2:
        best[n - 1] = deg_v + nu_witness(dual_mf(m))[0]
    return [best[k] for k in range(1, n + 1)]


def _split_rule_mu_max_mf(m, extra):
    """Test-local copy of the split certificate on the first extra S, of
    dimension 0 < k < n, or None where it does not certify.  Rank j of m is
    bounded by the least of j times the profile bound and, over the
    dimensions i that U ∩ S can take, the largest bound on an i-dimensional
    subspace of S plus the bound on a (j - i)-dimensional subspace of m/S
    (exact degrees in dimension <= 3, else the profile bound).  Where those
    bounds lie at or below j * mu_S for j <= k and strictly below it for
    j > k, the result is (mu_S, S, mu_S, True)."""
    from slopekit.multifilt import _profile_upper_bound

    if not extra:
        return None
    s = linalg.rref(linalg.mat(extra[0]))[0]
    k, n = len(s), m.dim
    if not 0 < k < n:
        return None

    def bounds(p):
        if p.dim <= 3:
            return _exact_degrees(p)
        return [t * b for t, b in enumerate(_profile_upper_bound(p), 1)]

    sub, quot = bounds(subobject(m, s)), bounds(quotient_object(m, s)[0])
    mu = slope_of_subspace(m, s)
    for j, b in enumerate(_profile_upper_bound(m), 1):
        split = max(
            (sub[i - 1] if i else 0) + (quot[j - i - 1] if i < j else 0)
            for i in range(n + 1)
            if i <= min(j, k) and j - i <= n - k
        )
        upper = min(j * b, split)
        if upper > j * mu or (j > k and upper == j * mu):
            return None
    return mu, s, mu, True


def _witness_products(m1, m2):
    r1, r2 = mu_max_mf(m1), mu_max_mf(m2)
    return [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]


def _stop_corpus(rng, count, heavy):
    """`count` seeded inputs in turn: a space alone, a space with a random
    subspace as extra, a tensor alone and a tensor with its witness product.
    Heavy inputs all have three filtrations, and their spaces dimension 4
    or 5 and tensors dimension 4 or 6, where a closure cut at 25 often
    leaves the bound unmet."""
    out = []
    for i in range(count):
        if i % 4 < 2:
            dim = rng.randint(4, 5) if heavy else rng.randint(1, 4)
            m = random_mf(rng, dim, 3 if heavy else rng.randint(1, 3))
            extra = ()
            if i % 4 == 1:
                k = rng.randint(1, m.dim)
                extra = [[[F(rng.randint(-2, 2)) for _ in range(m.dim)] for _ in range(k)]]
        else:
            n_filts = 3 if heavy else rng.randint(1, 3)
            m1 = random_mf(rng, 2 if heavy else rng.randint(1, 3), n_filts)
            dim2 = rng.randint(2, 3) if heavy else rng.randint(1, 6 // m1.dim if n_filts < 3 else 2)
            m2 = random_mf(rng, dim2, n_filts)
            m = tensor_mf(m1, m2)
            extra = [_witness_products(m1, m2)] if i % 4 == 3 else ()
        out.append((m, extra))
    return out


def _track_family(monkeypatch):
    """Counts how often mu_max_mf starts the closure and reads it to the end."""
    from slopekit import multifilt

    real = multifilt._candidate_family
    counts = {"started": 0, "exhausted": 0}

    def tracked(m, extra):
        counts["started"] += 1
        yield from real(m, extra)
        counts["exhausted"] += 1

    monkeypatch.setattr(multifilt, "_candidate_family", tracked)
    return counts


@pytest.mark.parametrize("cap,seed,count,heavy", [(400, 181, 320, False), (25, 191, 160, True)])
def test_bound_first_stop_matches_full_closure(monkeypatch, cap, seed, count, heavy):
    """Stopping at the first candidate that certifies, after the profile bound
    and a probe of the extra candidates, keeps the full closure's value and
    witness, with an upper bound no larger and certified wherever that
    closure certifies (`_no_worse`), on 640 seeded spaces and tensors, with
    and without extras, at the default cap and with the closure cut at 25.
    Where the closure does not certify, the result is the test-local split
    rule's wherever that certifies (the one certificate, on the bounds
    through a probe, holds where the split rule's strict bounds do).  At
    least five inputs of each corpus certify only now.  Each corpus has inputs that stop
    at the probe, inside the closure, and that read the whole closure, and
    at least four that stay uncertified (four at the default cap, five at
    25).  For those, the default-cap corpus also takes 183 heavy draws: 64
    each at seeds 2 and 3, 19 at seed 4 and 36 at seed 9, the last draw of
    each short run being uncertified.  The cap-25 corpus takes 96 heavy
    draws without extras (seeds 2, 5 and 6), where no probe is tested."""
    from slopekit import multifilt

    monkeypatch.setattr(multifilt, "_FAMILY_CAP", cap)
    corpus = _stop_corpus(random.Random(seed), count, heavy)
    if not heavy:
        corpus += [c for s, k in ((2, 64), (3, 64), (4, 19), (9, 36)) for c in _stop_corpus(random.Random(s), k, True)]
    else:
        corpus += [(m, ()) for s in (2, 5, 6) for m, _ in _stop_corpus(random.Random(s), 32, True)]
    full = [_full_closure_mu_max_mf(m, extra) for m, extra in corpus]
    split = [None if f[3] else _split_rule_mu_max_mf(m, extra) for f, (m, extra) in zip(full, corpus)]
    counts = _track_family(monkeypatch)
    new = [mu_max_mf(m, extra) for m, extra in corpus]
    assert sum(_no_worse(r, f) for r, f in zip(new, full)) >= 5
    assert all((r.value, r.witness, r.upper, r.certified) == s for r, s in zip(new, split) if s)
    assert sum(s is not None for s in split) >= 1  # certified by the split where the closure is not
    assert sum(not r.certified for r in new) >= 4
    assert len(corpus) - counts["started"] >= 30  # an extra certified at the probe
    assert counts["started"] - counts["exhausted"] >= 100  # stopped in the closure
    assert counts["exhausted"] >= 4


def test_certifying_extra_stops_before_the_closure(monkeypatch):
    """A witness product with the bound's slope and every larger rank's bound
    below it is the answer on its own: mu_max_mf returns the full closure's
    result without starting the closure."""
    full = [[1, 0], [0, 1]]
    m1 = MultifilteredSpace(2, [
        Filtration(2, [(0, full), (2, [[1, 0]])]),
        Filtration(2, [(0, full), (1, [[0, 1]])]),
    ])
    m2 = MultifilteredSpace(2, [
        Filtration(2, [(0, full), (1, [[1, 1]])]),
        Filtration(2, [(-1, full), (1, [[1, -1]])]),
    ])
    t, extra = tensor_mf(m1, m2), [_witness_products(m1, m2)]
    ref = _full_closure_mu_max_mf(t, extra)
    counts = _track_family(monkeypatch)
    res = mu_max_mf(t, extra)
    assert counts["started"] == 0
    assert (res.value, res.witness, res.upper, res.certified) == ref
    assert res.certified and res.value == 3 and len(res.witness) == 1


# mf-tensor (seed 1) op 26: both factors certify with line witnesses, and the
# tensor's profile bound is -1 at dimensions 1 and 2, so the witness product,
# a line of slope -1, cannot rule out a larger maximizer.
_OP26_FACTORS = (
    [
        [(-3, [[-2, 0, -2], [-1, 2, -1], [-1, 1, -2]]), (0, [[-2, 0, -2], [-1, 2, -1]]), (3, [[-2, 0, -2]])],
        [(0, [[-1, 1, 0], [2, 1, 2], [-2, -2, 2]]), (2, [[-1, 1, 0]])],
        [(-3, [[0, 1, 0], [2, 1, 1], [0, 0, 1]]), (2, [[0, 1, 0]])],
    ],
    [
        [(-1, [[1, -1, 1], [0, 0, 2], [0, 1, -1]])],
        [(-3, [[0, -2, -2], [-2, -2, 0], [-1, 0, 2]]), (-1, [[0, -2, -2]])],
        [(-3, [[1, -1, 1], [0, 0, -2], [-2, 1, 1]]), (-1, [[1, -1, 1], [0, 0, -2]]), (1, [[1, -1, 1]])],
    ],
)


def _track_quotients(monkeypatch):
    """Records the subspaces W whose quotient m/W mu_max_mf bounds by the
    relaxation: for the one certificate's test at a tight rank, and for the
    bounds through W where m/W has dimension 4 or more, which share that
    relaxation; a quotient of dimension at most 3 is bounded by its exact
    degrees there (`_degree_bounds`)."""
    from slopekit import multifilt

    real_quotient, real_bound = multifilt.quotient_object, multifilt._profile_upper_bound
    made, quotients = {}, []

    def quotient(m, rows):
        out = real_quotient(m, rows)
        made[id(out[0])] = (out[0], rows)  # keeps the object, so its id stays its own
        return out

    def bound(m):
        if id(m) in made:
            quotients.append(made[id(m)][1])
        return real_bound(m)

    monkeypatch.setattr(multifilt, "quotient_object", quotient)
    monkeypatch.setattr(multifilt, "_profile_upper_bound", bound)
    return quotients


def test_bound_tied_by_a_larger_maximizer_does_not_stop(monkeypatch):
    """A candidate of the bound's slope does not stop the search while a
    larger maximizer may hold it.  In Q^4 crossed by the planes A = (e1, e2)
    and B = (e3, e4), weight 1 each, the line e1 has slope 1 and so has the
    whole space, the largest maximizer: the rank-4 bound ties 1, and so does
    the rank-3 bound of the quotient by e1, of slope 1.  In Q^4 = e1 + e2 +
    P, where P = (e3, e4) carries three weight-1 lines and e1 weight 1/2 in
    each filtration (e2 in the first two), e1, P and e1 + P all have slope
    3/2: the quotient by e1 has lines of slope at most 1, so only its rank-2
    bound, 3/2, shows the larger maximizer.  The probed e1 fails the
    quotient test in both, and the search reads the closure, which starts
    with the whole space; in the second, P fails it too."""
    full = linalg.identity(4)
    crossed = MultifilteredSpace(4, [
        Filtration(4, [(0, full), (1, plane)]) for plane in (full[:2], full[2:])
    ])
    lines = ([0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1])
    halves = MultifilteredSpace(4, [
        Filtration(4, [(0, full), (F(1, 2), full[:2 - i // 2] + (line,)), (1, [line])])
        for i, line in enumerate(lines)
    ])
    cases = [(crossed, [[[1, 0, 0, 0]]]), (halves, [[[1, 0, 0, 0]]])]
    refs = [_full_closure_mu_max_mf(m, extra) for m, extra in cases]
    counts = _track_family(monkeypatch)
    quotients = _track_quotients(monkeypatch)
    for (m, extra), ref, want in zip(cases, refs, [[full[:1]], [full[:1], full[2:]]]):
        res = mu_max_mf(m, extra)
        assert (res.value, res.witness, res.upper, res.certified) == ref
        assert quotients == want
        quotients.clear()
    assert counts["started"] == 2
    assert refs == [(1, full, 1, True), (F(3, 2), (full[0],) + full[2:], F(3, 2), True)]


def test_quotient_bound_below_the_tie_stops_at_the_probe(monkeypatch):
    """The op-26 tensor (closure cut at 25 for the reference) has a witness
    product of slope -1 = mu_b with the rank-2 bound also -1, but the
    quotient by that line has rank-1 bound -3: no plane holding the line has
    slope -1, so the line is the largest maximizer.  The search stops at
    the probe, before the closure starts, and returns the closure's
    result."""
    from slopekit import multifilt
    from slopekit.multifilt import _profile_upper_bound

    monkeypatch.setattr(multifilt, "_FAMILY_CAP", 25)
    m1, m2 = (MultifilteredSpace(3, [Filtration(3, s) for s in f]) for f in _OP26_FACTORS)
    t, products = tensor_mf(m1, m2), _witness_products(m1, m2)
    line = linalg.rref(linalg.mat(products))[0]
    bounds = _profile_upper_bound(t)
    assert bounds[0] == bounds[1] == max(bounds) == -1 and max(bounds[2:]) < -1
    assert slope_of_subspace(t, products) == -1 and len(line) == 1
    assert _profile_upper_bound(quotient_object(t, line)[0])[0] == -3
    ref = _full_closure_mu_max_mf(t, [products])
    counts = _track_family(monkeypatch)
    quotients = _track_quotients(monkeypatch)
    res = mu_max_mf(t, [products])
    assert (res.value, res.witness, res.upper, res.certified) == ref
    assert counts["started"] == 0 and quotients == [line]
    assert res.witness == line and res.certified


def _tie_corpus(rng, count):
    """The inputs of `count` seeded draws whose profile bound ties its
    maximum at two or more ranks.  Draws come in turn: a space of dimension
    3 or 4 with 3 or 4 filtrations, alone or with a random subspace of
    smaller dimension as extra, and a tensor of two planes with 3
    filtrations, alone or with its witness product."""
    from slopekit.multifilt import _profile_upper_bound

    out = []
    for i in range(count):
        if i % 4 < 2:
            m = random_mf(rng, rng.randint(3, 4), rng.randint(3, 4))
            extra = ()
            if i % 4 == 1:
                k = rng.randint(1, m.dim - 1)
                extra = [[[F(rng.randint(-2, 2)) for _ in range(m.dim)] for _ in range(k)]]
        else:
            m1, m2 = random_mf(rng, 2, 3), random_mf(rng, 2, 3)
            m = tensor_mf(m1, m2)
            extra = [_witness_products(m1, m2)] if i % 4 == 3 else ()
        bounds = _profile_upper_bound(m)
        if bounds.count(max(bounds)) >= 2:
            out.append((m, extra))
    return out


@pytest.mark.parametrize("cap,seed,count", [(400, 4, 300), (25, 6, 200)])
def test_quotient_stop_matches_full_closure_on_tied_bounds(monkeypatch, cap, seed, count):
    """Where the bound ties its maximum at a larger rank, a candidate whose
    quotient bounds lie below the tie stops the search, and the result is
    the whole closure's value, witness, upper bound and flag, at the default
    cap and with the closure cut at 25.  Each corpus has at least 5 inputs
    stopped by the quotient test and 5 where it runs and fails; no
    candidate is quotiented twice."""
    from slopekit import multifilt

    monkeypatch.setattr(multifilt, "_FAMILY_CAP", cap)
    corpus = _tie_corpus(random.Random(seed), count)
    ref = [_full_closure_mu_max_mf(m, extra) for m, extra in corpus]
    counts = _track_family(monkeypatch)
    quotients = _track_quotients(monkeypatch)
    stopped = failed = 0
    for (m, extra), want in zip(corpus, ref):
        quotients.clear()
        exhausted = counts["exhausted"]
        res = mu_max_mf(m, extra)
        assert (res.value, res.witness, res.upper, res.certified) == want
        assert len(set(quotients)) == len(quotients)
        # a passing quotient test stops the search at its candidate, the
        # last one quotiented, which is then the witness
        stop = bool(quotients) and quotients[-1] == res.witness and counts["exhausted"] == exhausted
        stopped += stop
        failed += len(quotients) > stop
    assert stopped >= 5 and failed >= 5


def test_probe_leaves_ties_to_family_order(monkeypatch):
    """An extra candidate probed first but not certifying takes its family
    place: e1 and e2 of the crossed space in Q^4 both have the maximal slope
    1, their plane is cut off with the closure at 3 members, and its rank-2
    bound ties 1, so the witness is e1, the first in family order, though
    the extra e2 was scored first.  The crossed space in Q^3 has an exact
    canopy, and its witness is that plane, the largest maximizer."""
    from slopekit import multifilt

    monkeypatch.setattr(multifilt, "_FAMILY_CAP", 3)
    for n, witness in [(4, ((1, 0, 0, 0),)), (3, ((1, 0, 0), (0, 1, 0)))]:
        full = linalg.identity(n)
        m = MultifilteredSpace(n, [
            Filtration(n, [(0, full), (1, full[:1])]),
            Filtration(n, [(0, full), (1, full[1:2])]),
        ])
        extra = [[[2 * x for x in full[1]]]]
        res = mu_max_mf(m, extra)
        assert res.witness == witness and res.value == res.upper == 1 and res.certified
        if n == 4:
            assert (res.value, res.witness, res.upper, res.certified) == _full_closure_mu_max_mf(m, extra)


def _track_split(monkeypatch):
    """Records the pieces whose degree bounds mu_max_mf reads through a
    subspace S, a probe or an uncertified edge's witness: the subobject S,
    and m/S where it has dimension at most 3 (a larger quotient takes the
    relaxation the certificate's test shares).  `_degree_bounds` has no
    other caller."""
    from slopekit import multifilt

    real = multifilt._degree_bounds
    pieces = []

    def tracked(m):
        pieces.append(m)
        return real(m)

    monkeypatch.setattr(multifilt, "_degree_bounds", tracked)
    return pieces


def test_split_certificate_agrees_with_the_tensor_theorem(monkeypatch):
    """On 320 seeded tensors of two spaces of dimension at most 3 with three
    filtrations, the witness product as extra: every result the split
    certifies (it ran and the closure never started) has the value
    mu1 + mu2, which the paper's tensor theorem gives, and the probe as
    witness; wherever the full closure certifies, the result is its (the
    closure is cut at 25 on both sides)."""
    from slopekit import multifilt

    monkeypatch.setattr(multifilt, "_FAMILY_CAP", 25)
    rng = random.Random(11)
    corpus = []
    for _ in range(320):
        m1, m2 = random_mf(rng, rng.randint(1, 3), 3), random_mf(rng, rng.randint(2, 3), 3)
        extra = [_witness_products(m1, m2)]
        corpus.append((tensor_mf(m1, m2), extra, mu_max_mf(m1).value + mu_max_mf(m2).value))
    refs = [_full_closure_mu_max_mf(m, extra) for m, extra, _ in corpus]
    counts = _track_family(monkeypatch)
    pieces = _track_split(monkeypatch)
    split = compared = 0
    for (m, extra, mu), ref in zip(corpus, refs):
        started, pieces[:] = counts["started"], []
        res = mu_max_mf(m, extra)
        if pieces and counts["started"] == started:
            split += 1
            assert res.certified and res.value == res.upper == mu
            assert res.witness == linalg.rref(linalg.mat(extra[0]))[0]
        if ref[3]:
            compared += 1
            assert (res.value, res.witness, res.upper, res.certified) == ref
    assert split >= 8 and compared >= 250


# mf-tensor (seed 1) op 23, as the benchmark builds it: both factors certify
# (-8/3 and 3), but the tensor's relaxation reaches 2/3 at rank 3, above the
# witness product's 1/3, so no candidate can pass on the relaxation's
# bounds, and the closure overspent the work budget.
_OP23_FACTORS = (
    [
        [(-2, [[0, 1, -1], [2, 1, -1], [-2, 1, 2]]), (1, [[0, 1, -1]])],
        [(-3, [[-2, -1, -1], [1, 1, -2], [0, 1, -2]]), (0, [[-2, -1, -1], [1, 1, -2]]), (1, [[-2, -1, -1]])],
        [(-2, [[-2, 2, -2], [1, -1, -2], [1, 0, 0]]), (-1, [[-2, 2, -2], [1, -1, -2]]), (0, [[-2, 2, -2]])],
    ],
    [
        [(0, [[-1, 0], [0, 1]]), (3, [[-1, 0]])],
        [(0, [[1, -2], [2, 1]])],
        [(0, [[-2, 1], [1, 0]]), (2, [[-2, 1]])],
    ],
)


def test_op23_certifies_through_the_split(monkeypatch):
    """The op-23 tensor certifies 1/3 = -8/3 + 3 with its witness product
    as witness, through the split: the product S and m/S both have
    dimension 3, so both are exact.  The closure never starts, and the
    whole op (both factors, the tensor and nu of the tensor) charges fewer
    than 50,000 units to `linalg.rref`, looked up by name, where it spent
    the 1.3M-unit budget before."""
    from slopekit.multifilt import _profile_upper_bound

    m1, m2 = (MultifilteredSpace(d, [Filtration(d, s) for s in f]) for d, f in zip((3, 2), _OP23_FACTORS))
    t, products = tensor_mf(m1, m2), _witness_products(m1, m2)
    s = linalg.rref(linalg.mat(products))[0]
    assert (m1.dim, m2.dim, len(s)) == (3, 2, 3)
    assert max(_profile_upper_bound(t)) == F(2, 3) and slope_of_subspace(t, s) == F(1, 3)
    counts = _track_family(monkeypatch)
    pieces = _track_split(monkeypatch)
    units = []
    real = linalg.rref

    def charged(a):
        units.append(len(a) * len(a[0]) * min(len(a), len(a[0])) if a else 0)
        return real(a)

    monkeypatch.setattr(linalg, "rref", charged)
    r1, r2 = mu_max_mf(m1), mu_max_mf(m2)
    res = mu_max_mf(t, [products])
    nu_witness(t)
    assert (r1.value, r2.value) == (F(-8, 3), 3) and r1.certified and r2.certified
    assert (res.value, res.witness, res.upper, res.certified) == (F(1, 3), s, F(1, 3), True)
    assert counts["started"] == 0 and [p.dim for p in pieces] == [3, 3]
    assert 0 < sum(units) < 50_000


# mf-tensor seed-1 op 287, a plane and a 3-space with three filtrations.
_OP287_FACTORS = (
    [
        [(0, [[0, 1], [1, -1]])],
        [(0, [[1, 2], [-2, -2]]), (2, [[1, 2]])],
        [(-2, [[-2, -1], [0, 1]]), (0, [[-2, -1]])],
    ],
    [
        [(-1, [[-2, 1, 1], [1, -1, -1], [-2, 1, 0]]), (2, [[-2, 1, 1], [1, -1, -1]]), (3, [[-2, 1, 1]])],
        [(2, [[0, -1, -1], [-1, -1, -1], [2, 2, 0]])],
        [(1, [[0, 2, 0], [-1, 2, 2], [-1, 1, 1]]), (2, [[0, 2, 0], [-1, 2, 2]])],
    ],
)


def test_tightening_reads_the_canopys_quotient(monkeypatch):
    """On the op-287 tensor the witness product S fails the one certificate
    on the relaxation's bounds and on the bounds through S, the closure
    leaves the result uncertified with S as witness, and the bounds through
    S, made once for the probe, tighten it: `quotient_object(t, S)` runs
    once, and the result is the one the tightening after the closure gave
    before."""
    from slopekit import multifilt

    m1, m2 = (MultifilteredSpace(d, [Filtration(d, s) for s in f]) for d, f in zip((2, 3), _OP287_FACTORS))
    t, products = tensor_mf(m1, m2), _witness_products(m1, m2)
    s = linalg.rref(linalg.mat(products))[0]
    calls = []
    real = multifilt.quotient_object
    monkeypatch.setattr(multifilt, "quotient_object", lambda m, rows: calls.append(rows) or real(m, rows))
    res = mu_max_mf(t, [products])
    assert calls == [s]
    assert (res.value, res.witness, res.upper, res.certified) == (6, s, F(13, 2), False)


def _direct_sum(a, b):
    """a ⊕ b on the coordinates of a followed by those of b: each step is
    the sum of the factors' steps at the same break."""
    n = a.dim + b.dim
    filts = []
    for fa, fb in zip(a.filtrations, b.filtrations):
        steps = [
            (lam, [r + (0,) * b.dim for r in fa.space_at(lam)] + [(0,) * a.dim + r for r in fb.space_at(lam)])
            for lam in sorted(set(fa.breaks()) | set(fb.breaks()))
        ]
        filts.append(Filtration(n, steps))
    return MultifilteredSpace(n, filts)


# Two semistable planes with three filtrations, of slopes 1/2 and 0.
_PLANE = [[1, 0], [0, 1]]
_HIGH = [[(1, _PLANE), (3, [[1, -2]])], [(-1, _PLANE), (2, [[1, 0]])], [(-3, _PLANE), (-1, [[0, 1]])]]
_LOW = [[(-2, _PLANE), (1, [[2, 1]])], [(-1, _PLANE), (3, [[1, -1]])], [(-1, _PLANE), (0, [[0, 1]])]]


def test_split_certifies_the_higher_summand_of_a_direct_sum(monkeypatch):
    """In A ⊕ B, A and B semistable planes of slopes 1/2 > 0, the relaxation
    reaches 2/3 at rank 3, so the probe A cannot pass on the relaxation's
    bounds; it passes on the bounds through A: A and m/A ≅ B are exact, and every plane or larger subspace
    other than A lies strictly below slope 1/2.  The result is certified
    with A as witness, the closure never starts, and it is the full
    closure's."""
    from slopekit.multifilt import _profile_upper_bound

    a, b = (MultifilteredSpace(2, [Filtration(2, s) for s in f]) for f in (_HIGH, _LOW))
    assert (mu_max_mf(a).value, slope_faltings(a), mu_max_mf(b).value, slope_faltings(b)) == (F(1, 2), F(1, 2), 0, 0)
    m, probe = _direct_sum(a, b), [(1, 0, 0, 0), (0, 1, 0, 0)]
    assert max(_profile_upper_bound(m)) == F(2, 3)
    ref = _full_closure_mu_max_mf(m, [probe])
    counts = _track_family(monkeypatch)
    pieces = _track_split(monkeypatch)
    res = mu_max_mf(m, [probe])
    assert (res.value, res.witness, res.upper, res.certified) == ref == (F(1, 2), tuple(probe), F(1, 2), True)
    assert counts["started"] == 0 and [p.dim for p in pieces] == [2, 2]


def test_split_does_not_certify_a_tie(monkeypatch):
    """In A ⊕ A, of slope 1/2 like A, the quotient by the probe A has slope
    1/2 too, so the whole space ties the probe's slope at rank 4 and the
    certificate must not pass on the bounds through A; likewise the lower
    summand of A ⊕ B, below the slope of A.  Both read the bounds through
    the probe, then the closure, and keep the full closure's result
    (`_no_worse`): the whole space, and A.  The pieces are the probe's
    subobject and quotient in each, and in A ⊕ B also those of the
    closure's witness A, which are A and B: the first edge of the
    closure's canopy is uncertified there, the relaxation reaching 2/3 at
    rank 3, and the bounds through A certify it."""
    a, b = (MultifilteredSpace(2, [Filtration(2, s) for s in f]) for f in (_HIGH, _LOW))
    cases = [(_direct_sum(a, a), [[(1, 0, 0, 0), (0, 1, 0, 0)]]), (_direct_sum(b, a), [[(1, 0, 0, 0), (0, 1, 0, 0)]])]
    refs = [_full_closure_mu_max_mf(m, extra) for m, extra in cases]
    counts = _track_family(monkeypatch)
    pieces = _track_split(monkeypatch)
    for (m, extra), ref in zip(cases, refs):
        assert not _no_worse(mu_max_mf(m, extra), ref)
    assert counts["started"] == 2 and [p.dim for p in pieces] == [2, 2, 2, 2, 2, 2]
    assert pieces[4:] == [a, b]  # A and (B ⊕ A)/A, B in its coordinates
    assert [r[1] for r in refs] == [linalg.identity(4), ((0, 0, 1, 0), (0, 0, 0, 1))]
    assert all(r[0] == r[2] == F(1, 2) and r[3] for r in refs)


def test_one_certificate_against_the_full_closure(monkeypatch):
    """The one certificate only tightens: on the first 240 draws of a
    seeded corpus (`Random(2024)`; in each six draws, five spaces of
    dimension 4 to 6 with 1 to 3 filtrations, then a tensor of two spaces
    of dimension 2 or 3, none with a probe), mu_max_mf keeps the full
    closure's value and witness, never has a larger upper bound, and
    certifies wherever it does (`_no_worse`), with the closure cut at 25 on
    both sides.  The tensors of draws 101 and 209 certify only now, through
    the bounds through their witness, as they do with the closure uncut.
    And it proves the largest maximizer: on the 22 of 60 seeded
    thm07-shaped tensors of dimension 4 or more whose probe passed (the
    closure never started) with a proper witness, the quotient by the
    witness has a certified mu_max strictly below the value, so no
    maximizer strictly holds the witness (its image in the quotient would
    have the value's slope)."""
    from slopekit import multifilt
    from slopekit.harness import THM07_MAX_DIM, THM07_MAX_FILTS, random_multifiltered

    monkeypatch.setattr(multifilt, "_FAMILY_CAP", 25)
    rng = random.Random(2024)
    newly = []
    for i in range(240):
        if i % 6 < 5:
            m = random_mf(rng, rng.randint(4, 6), rng.randint(1, 3))
        else:
            nf = rng.randint(1, 3)
            m1 = random_mf(rng, rng.randint(2, 3), nf)
            m = tensor_mf(m1, random_mf(rng, rng.randint(2, 3), nf))
        if _no_worse(mu_max_mf(m), _full_closure_mu_max_mf(m)):
            newly.append(i)
    assert newly == [101, 209]
    counts = _track_family(monkeypatch)
    rng = random.Random(35)
    probed = 0
    for _ in range(60):
        m1 = random_multifiltered(rng, rng.randint(1, THM07_MAX_DIM), rng.randint(1, THM07_MAX_FILTS))
        m2 = random_multifiltered(rng, rng.randint(1, THM07_MAX_DIM), m1.n_filtrations)
        t, started = tensor_mf(m1, m2), counts["started"]
        res = mu_max_mf(t, [_witness_products(m1, m2)])
        if t.dim > 3 and res.certified and counts["started"] == started and len(res.witness) < t.dim:
            quot = mu_max_mf(quotient_object(t, res.witness)[0])
            assert quot.certified and quot.value < res.value
            probed += 1
    assert probed == 22


def test_best_hyperplane_matches_duality():
    """The hyperplane search gives the degree that duality gives, deg V plus
    the best line value of the dual, on 360 seeded spaces of dimension 2 to
    5 with 0 to 4 filtrations, breaks with denominators up to 3, and duals;
    its witness is a hyperplane of that degree, in integer RREF."""
    from slopekit.multifilt import _best_hyperplane

    rng = random.Random(3203)
    dens = set()
    for i in range(360):
        n = rng.randint(2, 5)
        m = random_mf(rng, n, rng.randint(0, 4), denominator=rng.choice([1, 2, 3]))
        if i % 3 == 2:
            m = dual_mf(m)
        deg, rows = _best_hyperplane(m)
        assert deg == slope_faltings(m) * n + nu_witness(dual_mf(m))[0]
        assert len(rows) == n - 1 and linalg.rref(rows)[0] == rows
        assert deg == (n - 1) * slope_of_subspace(m, rows)
        dens |= {lam.denominator for f in m.filtrations for lam in f.breaks()}
    assert dens == {1, 2, 3}


def _small_corpus(rng, count):
    """`count` seeded spaces of dimension 1 to 3 with 0 to 4 filtrations,
    alone, with breaks of denominator 2, as duals, and as tensors of two
    smaller factors with the witness product as extra."""
    out = []
    for i in range(count):
        extra = ()
        if i % 4 == 3:
            m1 = random_mf(rng, 1, rng.randint(1, 3))
            m2 = random_mf(rng, rng.randint(1, 3), m1.n_filtrations)
            m, extra = tensor_mf(m1, m2), [_witness_products(m1, m2)]
        else:
            m = random_mf(rng, rng.randint(1, 3), rng.randint(0, 4), denominator=1 + (i % 4 == 1))
            if i % 4 == 2:
                m = dual_mf(m)
        out.append((m, extra))
    return out


def test_small_spaces_match_the_full_closure(monkeypatch):
    """A space of dimension at most 3 gets the exact result: the one of
    `_duality_mu_max_mf`, and the whole closure's (value, witness, upper,
    certified) wherever that closure certifies; where it does not, the
    certified value lies between its value and its upper bound.  Checked on
    every such space among the mf-tensor factors and tensors at seed 1 and
    on 640 seeded ones, of which some certify only now."""
    spaces = [(m, ()) for m in _mf_tensor_spaces(monkeypatch) if m.dim <= 3]
    corpus = spaces + _small_corpus(random.Random(3209), 640)
    newly = 0
    for m, extra in corpus:
        res = mu_max_mf(m, extra)
        got = (res.value, res.witness, res.upper, res.certified)
        assert got == _duality_mu_max_mf(m)
        ref = _full_closure_mu_max_mf(m, extra)
        if ref[3]:
            assert got == ref
        else:
            assert ref[0] <= res.value <= ref[2]
            newly += 1
    assert len(spaces) >= 250 and newly >= 5


def test_small_spaces_skip_the_relaxation_and_the_closure(monkeypatch):
    """mu_max_mf and slope_filtration_mf of a space of dimension at most 3
    run neither the profile bound nor the closure, at any stage, and
    certify; the hyperplane search eliminates through `linalg.rref`, looked
    up by name, which the benchmark's work budget meters."""
    from slopekit import multifilt

    def forbid(*args):
        raise AssertionError("relaxation or closure on a small space")

    for name in ("_candidate_family", "_profile_upper_bound"):
        monkeypatch.setattr(multifilt, name, forbid)
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda a: calls.append(a) or real(a))
    searched = 0
    for m, extra in _small_corpus(random.Random(3217), 200):
        assert mu_max_mf(m, extra).certified
        poly = slope_filtration_mf(m)
        assert poly.certified and len(poly.filtration[-1]) == m.dim
        if m.dim == 3:
            del calls[:]
            multifilt._best_hyperplane(m)
            searched += bool(calls)
    assert searched >= 20


_LINE = MultifilteredSpace(1, [Filtration(1, [(0, [[1]])])])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tensor_mf(_LINE, MultifilteredSpace(1, _LINE.filtrations * 2)),
         "factors must have the same number of filtrations"),
        (lambda: MultifilteredSpace(2, _LINE.filtrations), "all filtrations must live on the ambient space"),
        (lambda: slope_of_subspace(_LINE, [[0]]), "zero subspace has no slope"),
        (lambda: subobject(_LINE, []), "zero subspace"),
    ],
    ids=["tensor-filtration-counts", "filtration-of-another-dimension", "slope-of-zero", "subobject-of-zero"],
)
def test_space_rejections(call, message):
    with pytest.raises(ValueError, match=message):
        call()
