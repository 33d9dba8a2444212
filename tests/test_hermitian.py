import copy
import json
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from slopekit import linalg
from slopekit.exactval import LogRational, half_log, log_of_rational
from slopekit.hermitian import (
    QElt,
    HermitianLattice,
    ImagQuadField,
    QuadField,
    _sixteen_bound_norms,
    a2_twist_checks,
    euclid_gcd,
    faltings_height_sq,
    identity_tensor_sq,
    q7_checks,
    q7_gram,
    qp_checks,
    rank_one_degree,
    unit_hermitian,
)
from slopekit.lattice import EuclideanLattice, Sublattice, a2_lattice
from test_linalg import _reference_field_inverse

F = Fraction

MANIFESTS = Path(__file__).parent / "data" / "manifests.json"


def field7():
    return ImagQuadField(7)


def random_hermitian(rng, field, rank, bound=1):
    while True:
        b = [
            [field.elt(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(rank)]
            for _ in range(rank)
        ]
        gram = [
            [
                sum((b[kk][i].conj() * b[kk][j] for kk in range(rank)), field.zero)
                for j in range(rank)
            ]
            for i in range(rank)
        ]
        try:
            return HermitianLattice(field, gram)
        except ValueError:
            continue


def test_field_arithmetic():
    k = field7()
    w = k.omega
    assert w * w == k.elt(-2, 1)  # w^2 = w - 2
    assert w * w.conj() == k.elt(2)  # N(w) = 2
    assert (w + w.conj()) == k.one  # tr(w) = 1
    assert (w / w) == k.one
    assert k.elt(3, 2) - 1 == k.elt(2, 2)  # a rational acts on the first coordinate
    with pytest.raises(ValueError, match="not rational"):
        k.elt(3, 2).as_fraction()
    k5 = ImagQuadField(5)
    assert k5.omega * k5.omega == k5.elt(-5)
    with pytest.raises(ValueError):
        ImagQuadField(12)  # not squarefree


def test_construction_validation():
    k = field7()
    with pytest.raises(ValueError):
        HermitianLattice(k, [[k.omega]])  # diagonal not rational
    with pytest.raises(ValueError):
        HermitianLattice(k, [[k.one, k.omega], [k.omega, k.one]])  # not conj-symmetric
    with pytest.raises(ValueError):
        HermitianLattice(k, [[k.elt(1), k.elt(2)], [k.elt(2), k.elt(1)]])  # indefinite


def test_construction_rejects_entries_of_another_field():
    """A Gram entry of another field is refused at construction, not read as
    an element of the given one: the rank-1 and rank-2 Grams over
    Q(sqrt(-3)) were accepted as d = 7 lattices (det 2 and 5), and the
    second one's `restrict_scalars` then failed."""
    k7, k3 = ImagQuadField(7), ImagQuadField(3)
    over_k3 = [[k3.elt(2), k3.omega], [k3.omega.conj(), k3.elt(3)]]
    for gram in ([[k3.elt(2)]], over_k3, [[k7.elt(2), k3.zero], [k3.zero, k7.elt(2)]]):
        with pytest.raises(ValueError, match="^field mismatch$"):
            HermitianLattice(k7, gram)
    assert HermitianLattice(k3, over_k3).det() == 5
    assert HermitianLattice(k7, [[ImagQuadField(7).elt(2)]]) == HermitianLattice(k7, [[2]])


def test_rejection_messages_match_parent_wording():
    """Every ValueError of the two constructors, `scale`/`twist`,
    `exterior_power`, `tensor`/`orthogonal_sum` and both `from_json_dict`s
    keeps its wording, and, where a Gram has several faults, which of them
    it names: a euclidean Gram is checked for symmetry before positivity, a
    hermitian one row by row, each diagonal entry before the rest of its
    row.  Only the hermitian `exterior_power` gained the range "1..r" that
    the euclidean one printed."""
    k7, k3 = ImagQuadField(7), ImagQuadField(3)
    w = k7.omega
    e1, h1 = EuclideanLattice([[1]]), HermitianLattice(k7, [[1]])
    square = "Gram matrix must be square and nonempty"
    definite = "Gram matrix must be positive definite"
    conj_sym = "Gram matrix must be conjugate-symmetric"
    diagonal = "diagonal Gram entries must be positive rationals"
    cases = [
        (lambda: EuclideanLattice([]), square),
        (lambda: EuclideanLattice([[1, 2]]), square),
        (lambda: EuclideanLattice([[1, 2], [3, 4]]), "Gram matrix must be symmetric"),
        (lambda: EuclideanLattice([[0, 2], [3, 4]]), "Gram matrix must be symmetric"),
        (lambda: EuclideanLattice._new(None, [[1, 2], [3, 4]], 2), "Gram matrix must be symmetric"),
        (lambda: EuclideanLattice([[1, 2], [2, 1]]), definite),
        (lambda: EuclideanLattice([[-1]]), definite),
        (lambda: e1.scale(0), "scale factor must be positive"),
        (lambda: e1.scale(F(-2, 3)), "scale factor must be positive"),
        (lambda: e1.exterior_power(2), "exterior power degree 2 out of range 1..1"),
        (lambda: e1.exterior_power(0), "exterior power degree 0 out of range 1..1"),
        (lambda: EuclideanLattice.from_json_dict([]), "lattice JSON must be an object"),
        (lambda: EuclideanLattice.from_json_dict({}), 'lattice JSON needs a "gram" field holding a list of rows'),
        (lambda: EuclideanLattice.from_json_dict({"gram": [[1]], "rank": 2}), "rank field disagrees with Gram size"),
        (lambda: EuclideanLattice.from_json_dict({"gram": [[1]], "scale": "-1"}), "scale factor must be positive"),
        (lambda: HermitianLattice(k7, []), square),
        (lambda: HermitianLattice(k7, [[1, 2]]), square),
        (lambda: HermitianLattice(k7, [[2, w], [w, 2]]), conj_sym),
        (lambda: HermitianLattice(k7, [[w, 0], [0, 1]]), diagonal),
        (lambda: HermitianLattice(k7, [[-1, 0], [0, 1]]), diagonal),
        (lambda: HermitianLattice(k7, [[1, 0], [0, F(-1, 2)]]), diagonal),
        (lambda: HermitianLattice(k7, [[1, w], [1, -1]]), conj_sym),
        (lambda: HermitianLattice(k7, [[-1, w], [1, 1]]), diagonal),
        (lambda: HermitianLattice(k7, [[1, 2], [2, 1]]), definite),
        (lambda: HermitianLattice(k7, [[k3.one]]), "field mismatch"),
        (lambda: h1.twist(0), "twist multiplier must be positive"),
        (lambda: h1.exterior_power(2), "exterior power degree 2 out of range 1..1"),
        (lambda: h1.tensor(HermitianLattice(k3, [[1]])), "field mismatch"),
        (lambda: h1.orthogonal_sum(HermitianLattice(k3, [[1]])), "field mismatch"),
        (lambda: HermitianLattice.from_json_dict([]), 'hermitian lattice JSON must be an object with an integer "d"'),
        (lambda: HermitianLattice.from_json_dict({"d": 7}), '"gram" must be a list of rows of {"a": ..., "b": ...} entries'),
        (lambda: HermitianLattice.from_json_dict({"d": 7, "rank": 2, "gram": [[{"a": 1}]]}), "rank field disagrees with Gram size"),
        (lambda: HermitianLattice.from_json_dict({"d": 4, "gram": [[{"a": 1}]]}), "d must be a squarefree positive integer, got 4"),
        (lambda: HermitianLattice.from_json_dict(BAD_HERMITIAN_JSON["not-hermitian"]), conj_sym),
        (lambda: HermitianLattice.from_json_dict(BAD_HERMITIAN_JSON["not-definite"]), definite),
    ]
    for build, want in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == want


def test_degree_examples():
    k = field7()
    assert unit_hermitian(k, 3).degree() == LogRational(0)
    lat = q7_gram()
    assert lat.det() == 1
    assert lat.degree() == LogRational(0)
    assert lat.is_unimodular() and lat.is_integral()
    assert lat.slope() == LogRational(0)


def test_degree_additive_and_tensor_laws():
    rng = random.Random(5)
    k = field7()
    for _ in range(6):
        l1 = random_hermitian(rng, k, rng.randint(1, 2))
        l2 = random_hermitian(rng, k, rng.randint(1, 2))
        s = l1.orthogonal_sum(l2)
        assert s.degree() == l1.degree() + l2.degree()
        t = l1.tensor(l2)
        assert t.degree() == l2.rank * l1.degree() + l1.rank * l2.degree()
        assert l1.dual().degree() == -l1.degree()
        assert l1.dual().dual() == l1
        c = F(rng.randint(1, 5), rng.randint(1, 5))
        lam = -log_of_rational(c)
        assert l1.twist(c).degree() == l1.degree() + l1.rank * lam
        assert l1.exterior_power(l1.rank).degree() == l1.degree()


def test_identity_tensor_sq_is_rank():
    rng = random.Random(7)
    k = field7()
    for _ in range(4):
        lat = random_hermitian(rng, k, rng.randint(1, 3))
        assert identity_tensor_sq(lat) == lat.rank


def test_rank_one_degree_unit():
    k = field7()
    lat = unit_hermitian(k, 2)
    assert rank_one_degree(lat, [k.one, k.zero]) == LogRational(0)
    # non-primitive vector: index = N(2) = 4 against |2e1|^2 = 4
    assert rank_one_degree(lat, [k.elt(2), k.zero]) == log_of_rational(4) - log_of_rational(4)
    # omega*e1: N(omega) = 2, |omega e1|^2 = 2
    assert rank_one_degree(lat, [k.omega, k.zero]) == LogRational(0)
    with pytest.raises(ValueError):
        rank_one_degree(lat, [k.zero, k.zero])


def test_rank_one_degree_rejects_nonuclidean():
    k = ImagQuadField(5)
    lat = unit_hermitian(k, 2)
    with pytest.raises(ValueError):
        rank_one_degree(lat, [k.one, k.zero])


def test_euclidean_specialization_agrees():
    # shortest vector of A2<2/3> over the rationals: line degree (1/2)log(3/4)
    lat = a2_lattice().scale(F(2, 3))
    line = Sublattice(lat, [[1, 0]])
    assert line.degree() == half_log(F(3, 4))
    assert line.degree() == half_log(F(3, 2)) - half_log(2)


def test_saturation_index_gcd():
    k = field7()
    # gcd(omega, 2): 2 = omega * conj(omega), so the gcd has norm 2
    g = euclid_gcd([k.omega, k.elt(2)])
    assert g.norm() == 2
    g2 = euclid_gcd([k.one + k.omega, k.elt(3)])
    assert g2.norm() in (1, 3)


def test_faltings_height():
    k = field7()
    assert faltings_height_sq(unit_hermitian(k, 1)) == LogRational(0)
    # rank 2: deg + 2*(1/2) = deg + 1
    lat = unit_hermitian(k, 2).twist(4)  # det = 16, deg = -4*log 2
    assert faltings_height_sq(lat) == LogRational(1) - 4 * log_of_rational(2)
    rng = random.Random(11)
    for _ in range(6):
        l = random_hermitian(rng, k, rng.randint(1, 3))
        h = faltings_height_sq(l)
        r = l.rank
        if h >= LogRational(0):
            # nonneg height forces deg >= -r*log(r)
            assert l.degree() >= -r * log_of_rational(max(r, 1))


def test_restriction_of_scalars_determinant_law():
    rng = random.Random(13)
    for d in (7, 5, 1):
        k = ImagQuadField(d)
        d0 = F(d, 4) if (-d) % 4 == 1 else F(d)
        for _ in range(3):
            lat = random_hermitian(rng, k, rng.randint(1, 2))
            eucl = lat.restrict_scalars()
            assert eucl.rank == 2 * lat.rank
            assert eucl.det() == lat.det() ** 2 * d0**lat.rank
            assert eucl.degree() == lat.degree() - F(lat.rank, 2) * log_of_rational(d0)


def _alternating_square_map(w):
    """Image of w in the tensor square of a rank-2 space under the natural map
    to the alternating square: e1⊗e2 -> e1∧e2, e2⊗e1 -> -e1∧e2."""
    return (w[1] - w[2],)


def test_alternating_map_norm_bound():
    # the natural map from the tensor square to the alternating square has
    # norm sqrt(2), attained on orthogonal frames
    from slopekit.lattice import unit_lattice

    lat = unit_lattice(1).scale(3).orthogonal_sum(unit_lattice(1).scale(5))
    tsq = lat.tensor(lat)
    alt = lat.exterior_power(2)
    w = [F(0), F(1), F(-1), F(0)]  # e1⊗e2 - e2⊗e1
    img = _alternating_square_map(w)
    num = sum(img[i] * alt.gram[i][j] * img[j] for i in range(1) for j in range(1))
    den = tsq.norm_sq(w)
    assert num / den == 2  # squared norm ratio = p!
    rng = random.Random(17)
    for _ in range(20):
        w = [F(rng.randint(-2, 2)) for _ in range(4)]
        if all(x == 0 for x in w):
            continue
        img = _alternating_square_map(w)
        num = sum(img[i] * alt.gram[0][0] * img[j] for i in range(1) for j in range(1))
        assert num <= 2 * tsq.norm_sq(w)


def test_json_roundtrip():
    lat = q7_gram()
    back = HermitianLattice.from_json_dict(lat.to_json_dict())
    assert back == lat


BAD_HERMITIAN_JSON = {
    "top-level-list": [[1]],
    "top-level-number": 3,
    "no-d": {"gram": [[{"a": 1}]]},
    "d-float": {"d": 7.9, "gram": [[{"a": 1}]]},
    "d-string": {"d": "7", "gram": [[{"a": 1}]]},
    "d-bool": {"d": True, "gram": [[{"a": 1}]]},
    "d-not-squarefree": {"d": 4, "gram": [[{"a": 1}]]},
    "d-negative": {"d": -7, "gram": [[{"a": 1}]]},
    "no-gram": {"d": 7},
    "gram-not-list": {"d": 7, "gram": 5},
    "row-not-list": {"d": 7, "gram": [{"a": 1}]},
    "entry-not-object": {"d": 7, "gram": [[1]]},
    "entry-without-a": {"d": 7, "gram": [[{"b": 1}]]},
    "entry-not-rational": {"d": 7, "gram": [[{"a": "x"}]]},
    "entry-zero-denominator": {"d": 7, "gram": [[{"a": "1/0"}]]},
    "rank-fractional": {"d": 7, "rank": 1.5, "gram": [[{"a": 1}]]},
    "rank-not-number": {"d": 7, "rank": [1], "gram": [[{"a": 1}]]},
    "rank-mismatch": {"d": 7, "rank": 2, "gram": [[{"a": 1}]]},
    "empty-gram": {"d": 7, "gram": []},
    "not-square": {"d": 7, "gram": [[{"a": 1}, {"a": 0}]]},
    "not-hermitian": {"d": 7, "gram": [[{"a": 2}, {"a": 0, "b": 1}], [{"a": 0, "b": 1}, {"a": 2}]]},
    "not-definite": {"d": 7, "gram": [[{"a": 1}, {"a": 2}], [{"a": 2}, {"a": 1}]]},
}


@pytest.mark.parametrize("case", sorted(BAD_HERMITIAN_JSON))
def test_from_json_dict_rejects_bad_input(case):
    with pytest.raises(ValueError):
        HermitianLattice.from_json_dict(BAD_HERMITIAN_JSON[case])


def test_repro_a2_passes():
    rep = a2_twist_checks()
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "stable_full_rank" in names and "norm_product_spot_checks" in names
    assert any("nef" in n for n in rep.notes)


def test_repro_a2_rejects_bad_twist():
    from slopekit.report import ReproFailure

    with pytest.raises(ReproFailure):
        a2_twist_checks(F(1, 2))  # lambda too large


def test_repro_q7_passes():
    rep = q7_checks()
    assert rep.passed
    modes = {c.name: c.mode for c in rep.checks}
    frame = [
        f"{check}_{label}_{what}"
        for label in ("plus", "minus")
        for check, what in (("theta", "abs_sq"), ("frame", "norms"), ("frame", "orthogonal"))
    ]
    assert all(modes[name] == "exact" for name in frame)
    assert modes["unimodular_determinant"] == "exact"


def test_repro_qp_passes():
    for p in (5, 13, 37):
        rep = qp_checks(p)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "index_four_subring" in names
        assert "height_term_negative" in names
        assert "semistable_by_decomposition" in names
        assert "rank_one_degree_bound_dual" in names
        assert "rank_one_degree_bound_ring" in names
    with pytest.raises(ValueError):
        qp_checks(11)


# -- the positivity check on D*G against the Fraction-coordinate check ----------

def _fraction_quotient(x, y):
    """x / y with Fraction coordinates, y an int or a nonzero QElt."""
    if isinstance(y, int):
        return QElt(x.field, F(x.a) / y, F(x.b) / y)
    num, n = x * y.conj(), F(y.norm())
    return QElt(x.field, F(num.a) / n, F(num.b) / n)


def _reference_gram_check(field, gram):
    """The Gram check as it ran on Fraction coordinates before the integral
    D*G: the determinant, or the ValueError message."""
    g = [[QElt(field, F(x.a), F(x.b)) for x in row] for row in gram]
    r = len(g)
    for i in range(r):
        if g[i][i].b or g[i][i].a <= 0:
            return "diagonal Gram entries must be positive rationals"
        for j in range(r):
            if g[j][i] != g[i][j].conj():
                return "Gram matrix must be conjugate-symmetric"
    m = [list(row) for row in g]
    swaps, prev = 0, 1
    for k in range(r - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, r) if m[i][k]), None)
            if piv is None:
                break
            m[k], m[piv] = m[piv], m[k]
            swaps += 1
        p = m[k][k]
        for i in range(k + 1, r):
            f = m[i][k]
            for j in range(k + 1, r):
                m[i][j] = _fraction_quotient(m[i][j] * p - f * m[k][j], prev)
        prev = p
    if swaps or not all(not m[k][k].b and m[k][k].a > 0 for k in range(r)):
        return "Gram matrix must be positive definite"
    return m[-1][-1].a


def _rational_hermitian(rng, field, r, kind):
    """A conjugate-symmetric rational Gram of rank r: "random" entries (often
    indefinite), "zero_minor" random with a zero second leading minor (the
    elimination swaps or stops there), "definite" B^*·D·B, "singular"
    B^*·D·B with dependent rows of B, or "asymmetric" with one broken mirror
    entry."""
    def q(bound, den):
        return F(rng.randint(-bound, bound), rng.randint(1, den))

    if kind in ("random", "zero_minor", "asymmetric"):
        g = [[None] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = field.elt(F(rng.randint(-2, 12), rng.randint(1, 4)))
            for j in range(i + 1, r):
                g[i][j] = field.elt(q(3, 3), q(3, 3))
                g[j][i] = g[i][j].conj()
        if kind == "zero_minor" and r > 1:
            g[0][0] = field.elt(F(rng.randint(1, 6), rng.randint(1, 3)))
            g[1][1] = field.elt(F(g[0][1].norm()) / g[0][0].a)
        if kind == "asymmetric" and r > 1:
            g[1][0] = g[1][0] + field.omega
        return g
    b = [[field.elt(q(2, 2), q(2, 2)) for _ in range(r)] for _ in range(r)]
    if kind == "singular":
        c = field.elt(q(2, 2), q(2, 2))
        b[-1] = [c * x for x in b[0]]
    diag = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(r)]
    return [
        [sum((b[k][i].conj() * b[k][j] * diag[k] for k in range(r)), field.zero) for j in range(r)]
        for i in range(r)
    ]


def test_integral_gram_check_matches_fraction_check():
    """On seeded rational Grams of rank 1-4 over seven fields, the check on
    D*G accepts exactly what the Fraction-coordinate check accepted, with
    the same determinant (a Fraction) and the same rejection message; the
    stored Gram, and the Gram view of a lattice built from its pair (D*G, D)
    alone, equal the input with int coordinates where integral."""
    rng = random.Random(2100)
    kinds = ("random", "zero_minor", "definite", "singular", "asymmetric")
    seen = {}
    for n in range(400):
        field = ImagQuadField((1, 2, 3, 5, 7, 11, 13)[n % 7])
        r = 1 + n % 4
        gram = _rational_hermitian(rng, field, r, kinds[(n // 4) % 5])
        want = _reference_gram_check(field, gram)
        try:
            lat = HermitianLattice(field, gram)
        except ValueError as exc:
            got = str(exc)
        else:
            got = lat.det()
            assert type(got) is F
            view = lat.twist(1)  # built from the pair, its gram made on first use
            for g in (lat.gram, view.gram):
                assert [list(row) for row in g] == gram
                assert all(
                    type(c) is (int if c.denominator == 1 else F)
                    for row in g for x in row for c in (x.a, x.b)
                )
            assert view == lat and hash(view) == hash(lat) and view.det() == got
        assert got == want
        key = "accepted" if isinstance(want, F) else want
        seen[key] = seen.get(key, 0) + 1
    assert seen["accepted"] >= 80
    assert seen["Gram matrix must be positive definite"] >= 80
    assert seen["Gram matrix must be conjugate-symmetric"] >= 30
    assert seen["diagonal Gram entries must be positive rationals"] >= 10


# -- the manifests against their stored reports ---------------------------------

def test_manifest_reports_match_stored_reports():
    """The `to_dict()` reports of a2, q7 and qp at p = 5, 13, 37 equal the
    reports stored in tests/data/manifests.json, which were made by the
    Fraction-coordinate implementation."""
    want = json.loads(MANIFESTS.read_text(encoding="utf-8"))
    got = {"a2": a2_twist_checks().to_dict(), "q7": q7_checks().to_dict()}
    for p in (5, 13, 37):
        got[f"qp-{p}"] = qp_checks(p).to_dict()
    assert got == want


def _fraction_sixteen_norms(p):
    """The norm-product loop of `qp_checks` on the samples themselves, with
    the half-integral Fraction coordinates of u = (1 + sqrt p)/2."""
    k = ImagQuadField(p)
    kp = QuadField(0, 1, k)
    i_elt, one = kp.omega, kp.one
    u = kp.elt(k.elt(F(1, 2)), k.elt(0, F(-1, 2)))
    samples = [one, i_elt, u, one + i_elt, u + i_elt, u * 2 - one, u + one]
    out = []
    for a in samples:
        for b in samples:
            if a.is_zero() or b.is_zero():
                continue
            e_val = a * a.conjugate() + b * b.conjugate()
            out.append((e_val.norm().norm(), (a * b).norm().norm()))
    return out


def test_doubled_norm_products_match_fraction_loop():
    """N(E) and N(ab) from the doubled samples, over 256, are the values of
    the Fraction loop for all 49 pairs, as ints."""
    for p in (5, 13, 37):
        got = _sixteen_bound_norms(QuadField(0, 1, ImagQuadField(p)))
        want = _fraction_sixteen_norms(p)
        assert len(got) == len(want) == 49
        assert got == want
        assert [tuple(map(str, x)) for x in got] == [tuple(map(str, x)) for x in want]
        assert all(type(x) is int for pair in got for x in pair)


# -- QElt as a value, and the hermitian pair (D*G, D) --------------------------

def test_qelt_is_an_immutable_value():
    k = field7()
    k2 = QuadField(0, -2, k)
    x = k.elt(3, F(-1, 2))
    for name in ("a", "b", "field", "c"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.b
    assert x == k.elt(3, F(-1, 2))
    y, z = k.elt(2, 5), QElt(k, F(2), F(5))
    assert type(y.a) is int and type(z.a) is F
    assert y == z and hash(y) == hash(z) and len({y, z}) == 1
    for v in (x, y, k.zero, k2.elt(x, y)):
        for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert back == v and hash(back) == hash(v) and repr(back) == repr(v)
    for other in (2, F(2), "2", None, (k, 2, 0)):
        assert (k.elt(2) == other) is False and (k.elt(2) != other) is True
    assert k.elt(1) != ImagQuadField(5).elt(1)


def _definite(rng, field, rank):
    while True:
        try:
            return HermitianLattice(field, _rational_hermitian(rng, field, rank, "definite"))
        except ValueError:  # B was singular
            continue


def _reference_dual_pair(lat):
    """The dual's pair as `HermitianLattice.dual` built it through the
    deleted `linalg.inverse` (here the test-local field inverse) and the lcm
    of the coordinates' denominators: the transpose of D * (D*G)^-1 over
    that lcm, both divided by their gcd."""
    dg, d = lat.scaled_gram()
    inv = _reference_field_inverse(dg)
    den = math.lcm(*(c.denominator for row in inv for x in row for c in (x.a, x.b)))
    m = [[x * (d * den) for x in col] for col in zip(*inv)]
    assert all(c.denominator == 1 for row in m for x in row for c in (x.a, x.b))
    g = math.gcd(den, *(int(c) for row in m for x in row for c in (x.a, x.b)))
    return tuple(tuple(QElt(lat.field, int(x.a) // g, int(x.b) // g) for x in row) for row in m), den // g


def test_dual_matches_field_inverse_route():
    """The dual read off one `bareiss` run on [D*G | I], adj(D*G) over
    det(D*G), equals the dual built through the field inverse, on 240 seeded lattices of rank 1-4
    over six fields, three rank-9 tensors, q7 and its twist: the same pair
    (int coordinates, D least), det and Gram, the transpose of G^-1; it is
    built once, and its own dual is the lattice it came from."""
    rng = random.Random(2501)
    lats = [
        _definite(rng, ImagQuadField((1, 2, 3, 5, 7, 13)[n % 6]), 1 + (n // 6) % 4)
        for n in range(240)
    ]
    for d in (1, 3, 13):
        field = ImagQuadField(d)
        lats.append(_definite(rng, field, 3).tensor(_definite(rng, field, 3)))
    lats += [q7_gram(), q7_gram().twist(F(9, 5))]
    integral = 0
    for lat in lats:
        dual = lat.dual()
        assert dual.scaled_gram() == _reference_dual_pair(lat)
        s, den = dual.scaled_gram()
        assert all(type(c) is int for row in s for x in row for c in (x.a, x.b))
        assert dual.det() == 1 / lat.det()
        g, r = lat.gram, lat.rank
        assert dual.gram == tuple(zip(*_reference_field_inverse(g)))
        one = [[sum((g[i][k] * dual.gram[j][k] for k in range(r)), lat.field.zero) for j in range(r)] for i in range(r)]
        assert one == [[lat.field.elt(int(i == j)) for j in range(r)] for i in range(r)]
        assert lat.dual() is dual and dual.dual() is lat
        integral += dual.is_integral()
    assert {lat.rank for lat in lats} == {1, 2, 3, 4, 9} and 0 < integral < len(lats)


def _fraction_gram(lat):
    return [[QElt(lat.field, F(x.a), F(x.b)) for x in row] for row in lat.gram]


def test_hermitian_pair_operations_match_fraction_grams():
    """twist, tensor, orthogonal_sum and exterior_power on the pair give the
    lattice of the Fraction Gram matrix computed directly, and D is least."""
    rng = random.Random(2401)
    for n in range(80):
        field = ImagQuadField((1, 2, 3, 5, 7, 11, 13)[n % 7])
        a = _definite(rng, field, rng.randint(1, 3))
        b = _definite(rng, field, rng.randint(1, 2))
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        back = a.twist(c).twist(1 / c)
        assert back == a and hash(back) == hash(a) and back.gram == a.gram
        assert a.twist(c) == HermitianLattice(field, [[x * c for x in row] for row in _fraction_gram(a)])
        t = a.tensor(b)
        want = HermitianLattice(field, linalg.kron(_fraction_gram(a), _fraction_gram(b)))
        assert t == want and hash(t) == hash(want) and t.gram == want.gram and t.det() == want.det()
        zero = QElt(field, F(0), F(0))
        block = [row + [zero] * b.rank for row in _fraction_gram(a)] + [
            [zero] * a.rank + row for row in _fraction_gram(b)
        ]
        assert a.orthogonal_sum(b) == HermitianLattice(field, block)
        assert a.exterior_power(a.rank).det() == a.det()
        for lat in (a, t, a.dual(), a.twist(c), a.orthogonal_sum(b)):
            dg, d = lat.scaled_gram()
            coords = [c for row in dg for x in row for c in (x.a, x.b)]
            assert all(type(x) is int for x in coords) and math.gcd(d, *coords) == 1
            assert lat.is_integral() == (d == 1)


_K7, _K3 = ImagQuadField(7), ImagQuadField(3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _K7.omega + _K3.omega, ValueError, "field mismatch"),
        (lambda: _K7.omega * _K3.omega, ValueError, "field mismatch"),
        (lambda: _K7.omega + 1.5, TypeError, "cannot coerce 1.5"),
        (lambda: _K7.omega * "x", TypeError, "cannot coerce 'x'"),
        (lambda: _K7.zero.inverse(), ZeroDivisionError, "division by zero field element"),
        (lambda: euclid_gcd([_K7.zero, _K7.zero]), ValueError, "gcd of zero elements"),
        (lambda: euclid_gcd([_K7.elt(F(1, 2)), _K7.one]), ValueError, "gcd requires integral elements"),
        (lambda: rank_one_degree(unit_hermitian(_K7, 2), [F(1, 2), 1]), ValueError,
         "vector must have integral coordinates"),
    ],
    ids=["add-across-fields", "mul-across-fields", "add-float", "mul-string", "inverse-of-zero",
         "gcd-of-zeros", "gcd-of-non-integral", "rank-one-degree-non-integral"],
)
def test_field_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_inner_rejects_a_vector_whose_length_is_not_the_rank():
    """Both kinds' one `inner` refuses a vector longer or shorter than the
    rank; the euclidean one ignored an extra coordinate or raised
    IndexError, and the hermitian `norm_sq` cut the vector to the rank."""
    a2, h = a2_lattice(), unit_hermitian(_K7, 2)
    for call in (
        lambda: a2.inner([1, 0, 7], [1, 0]),
        lambda: a2.inner([1], [1, 0]),
        lambda: a2.norm_sq([1, 1, 1]),
        lambda: h.norm_sq([_K7.one, _K7.zero, _K7.one]),
        lambda: h.norm_sq([_K7.one]),
        lambda: h.inner([_K7.one, _K7.zero], [_K7.one]),
    ):
        with pytest.raises(ValueError, match="vectors must have 2 coordinates, the rank"):
            call()
    assert a2.inner([1, 0], [0, 1]) == 1 and h.norm_sq([_K7.one, _K7.one]) == 2


def test_euclidean_inner_takes_ints_and_fractions_only():
    """A euclidean coordinate is an int or a Fraction, never a float or a
    string, which were read as their Fraction values."""
    a2 = a2_lattice()
    for bad in (0.5, "1/2", None, _K7.one):
        with pytest.raises(ValueError, match="cannot coerce"):
            a2.inner([bad, 0], [1, 0])
        with pytest.raises(ValueError, match="cannot coerce"):
            a2.norm_sq([1, bad])
    assert a2.inner([F(1, 2), 0], [1, 0]) == 1
    assert a2.scale(F(1, 3)).norm_sq([F(1, 2), 1]) == F(7, 6)


def test_hermitian_inner_brings_its_coordinates_into_the_field():
    """A hermitian coordinate is an element of the lattice's field or an int
    or Fraction, which coerces (an int raised AttributeError); anything else
    is refused, and an element of another field stays "field mismatch".
    A Gram entry goes through the same coercion."""
    h = unit_hermitian(_K7, 2).twist(F(1, 3))
    w = _K7.omega
    assert h.norm_sq([1, 0]) == F(1, 3) and h.norm_sq([F(3, 2), w]) == F(17, 12)
    assert h.inner([1, w], [w, 2]) == h.inner([_K7.one, w], [w, _K7.elt(2)]) == (w + w.conj() * 2) / 3
    for bad in (0.5, "1/2", None):
        with pytest.raises(ValueError, match="cannot coerce"):
            h.inner([bad, 0], [1, 0])
    with pytest.raises(ValueError, match="field mismatch"):
        h.norm_sq([_K3.one, 0])
    with pytest.raises(ValueError, match="cannot coerce 1.5"):
        HermitianLattice(_K7, [[1.5]])


def test_hermitian_load(tmp_path):
    """`load` is the pair's one reader of a JSON file, for both kinds."""
    lat = q7_gram().twist(F(2, 3))
    path = tmp_path / "q7.json"
    path.write_text(json.dumps(lat.to_json_dict()))
    assert HermitianLattice.load(str(path)) == lat
    path.write_text(json.dumps({"gram": [[{"a": "1"}]]}))
    with pytest.raises(ValueError, match='hermitian lattice JSON must be an object with an integer "d"'):
        HermitianLattice.load(str(path))


def _product_norm_product_holds(t, a, b):
    """The a2 norm-product check on the elements themselves: |N(ab)| from
    the product, and for t < 0 the value with its Fraction half-trace."""
    nab = abs((a * b).norm())
    if t < 0:
        val = a.norm() + b.norm() + F((a.conj() * b).trace(), 2)
        prod = val**2
    else:
        e = a * a + a * b + b * b
        prod = e.norm()
    return prod >= nab >= 1, prod, nab


def test_norm_products_from_sample_norms_match_product_loop():
    """`_norm_product_holds` on each sample's norm and square gives the
    verdict of the product loop on all 6 fields x 36 pairs of a2's samples,
    and those inputs give its values: |N(ab)| = |N(a)*N(b)|, and for t < 0
    the product is (2v)^2/4 for the int 2v.  A failing pair reports the
    product loop's values in its wording."""
    from slopekit.hermitian import _norm_product_holds, _omega_data

    samples = [(1, 0), (1, 1), (2, -1), (0, 1), (3, 2), (-1, 2)]
    for t in (-1, -2, -3, -7, 2, 3):
        field = QuadField(*_omega_data(t))
        data = [(a, a.norm(), a * a) for a in (field.elt(p, q) for p, q in samples)]
        pairs = 0
        for x in data:
            for y in data:
                (a, na, aa), (b, nb, bb) = x, y
                ok, prod, nab = _product_norm_product_holds(t, a, b)
                assert _norm_product_holds(t, x, y) == (ok, "") and ok
                assert abs(na * nb) == nab and type(na * nb) is int
                if t < 0:
                    v2 = 2 * (na + nb) + (a.conj() * b).trace()
                    assert type(v2) is int and F(v2 * v2, 4) == prod
                else:
                    assert (aa + a * b + bb).norm() == prod
                pairs += 1
        assert pairs == 36
        half = field.elt(F(1, 2))
        for a, b in ((field.zero, field.one), (half, half), (half, field.elt(1, F(-1, 2)))):
            ok, prod, nab = _product_norm_product_holds(t, a, b)
            got = _norm_product_holds(t, (a, a.norm(), a * a), (b, b.norm(), b * b))
            assert not ok and got == (False, f"product={prod}, |N(ab)|={nab}")


def test_qp_multiplies_in_k_i_on_ints_only(monkeypatch):
    """No product of two K(i) elements in `qp_checks` has a Fraction among
    its operands' coordinates: every check runs on 2u = 1 - w*i, not on
    u = (1 + sqrt p)/2.  The operands are recorded, not asserted on, since
    a manifest turns a failed assertion into a failed check."""
    real = QElt.__mul__
    products, with_fraction = [], []

    def coordinates(x):
        return coordinates(x.a) + coordinates(x.b) if isinstance(x, QElt) else [x]

    def in_tower(x):  # an element of K(i), whose base is a field itself
        return isinstance(x, QElt) and isinstance(x.field.base, QuadField)

    def recording(self, other):
        if in_tower(self) and in_tower(other):
            products.append((self, other))
            if any(type(c) is F for c in coordinates(self) + coordinates(other)):
                with_fraction.append((self, other))
        return real(self, other)

    monkeypatch.setattr(QElt, "__mul__", recording)
    for p in (5, 13, 37):
        assert qp_checks(p).passed, p
    assert products and with_fraction == []
