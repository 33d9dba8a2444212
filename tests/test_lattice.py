import copy
import gc
import math
import pickle
import random
import weakref
from fractions import Fraction

import pytest

from slopekit import exactval, linalg
from slopekit.enumeration import lll_reduce
from slopekit.exactval import LogRational, half_log, log_of_rational
from slopekit.hermitian import ImagQuadField
from slopekit.lattice import (
    EuclideanLattice,
    LatticeMorphism,
    Sublattice,
    a2_lattice,
    e8_lattice,
    evaluation_vector,
    tensor_vector_to_hom,
    unit_lattice,
)
from test_linalg import _reference_exterior_gram, _reference_inverse, _reference_solve_coords

F = Fraction


def random_lattice(rng, rank, bound=3):
    while True:
        b = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rank)]
        if linalg.det_bareiss(linalg.mat(b)) != 0:
            bt = list(zip(*b))
            gram = [[sum(x * y for x, y in zip(r1, r2)) for r2 in b] for r1 in b]
            return EuclideanLattice(gram)


def test_construction_rejects_bad_grams():
    with pytest.raises(ValueError):
        EuclideanLattice([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        EuclideanLattice([[1, 2], [2, 1]])  # indefinite
    with pytest.raises(ValueError):
        EuclideanLattice([[0]])
    with pytest.raises(ValueError):
        EuclideanLattice([[0, 1], [1, 0]])  # indefinite; elimination swaps rows
    with pytest.raises(ValueError):
        EuclideanLattice([[1, 1], [1, 1]])  # singular PSD
    with pytest.raises(ValueError):
        EuclideanLattice([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])  # singular PSD, rational
    with pytest.raises(ValueError):
        EuclideanLattice([[0, 0], [0, 1]])  # singular PSD, zero leading minor


def test_hash_and_equality_follow_the_gram_matrix():
    a = EuclideanLattice([[2, 1], [1, 2]])
    b = EuclideanLattice([[F(4, 2), F(1)], [1, F(6, 3)]])
    c = EuclideanLattice([[2, 1], [1, 3]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert {a: 1}[b] == 1
    half = EuclideanLattice([[1, F(1, 2)], [F(1, 2), 1]])
    assert a.scale(F(1, 2)) == half and hash(a.scale(F(1, 2))) == hash(half)
    assert {half: 1}[a.scale(F(1, 2))] == 1


def test_degree_examples():
    assert unit_lattice(4).degree() == LogRational(0)
    assert a2_lattice().degree() == -half_log(3)
    # A2 scaled by 2/3 is the twist at lambda = (1/2)log(3/2)
    lam = half_log(F(3, 2))
    scaled = a2_lattice().scale(F(2, 3))
    assert scaled.degree() == 2 * lam - half_log(3)
    assert scaled.degree() == log_of_rational(3) - log_of_rational(2) - half_log(3)


def test_slope_examples():
    assert unit_lattice(3).slope() == LogRational(0)
    assert a2_lattice().slope() == -half_log(3) / 2
    z1 = unit_lattice(1)
    s = Sublattice(z1, [[2]])
    assert s.slope() == -log_of_rational(2)


def test_dual():
    assert unit_lattice(2).dual() == unit_lattice(2)
    d = a2_lattice().dual()
    assert d.gram == linalg.mat([[F(2, 3), F(-1, 3)], [F(-1, 3), F(2, 3)]])
    assert d.degree() == half_log(3)
    rng = random.Random(7)
    for _ in range(10):
        lat = random_lattice(rng, rng.randint(1, 4))
        assert lat.dual().dual() == lat
        assert lat.dual().degree() == -lat.degree()


def test_tensor_sum_scale_exterior():
    a2 = a2_lattice()
    assert unit_lattice(1).tensor(a2) == a2
    t = a2.tensor(a2)
    assert t.degree() == -2 * log_of_rational(3)
    assert t.slope() == a2.slope() + a2.slope()
    assert a2.exterior_power(2).gram == linalg.mat([[3]])
    assert a2.exterior_power(2).degree() == a2.degree()
    s = a2.orthogonal_sum(unit_lattice(2))
    assert s.degree() == a2.degree()
    sc = a2.scale(F(1, 4))
    assert sc.degree() == a2.degree() - F(2, 2) * log_of_rational(F(1, 4))


def test_degree_laws_random():
    rng = random.Random(11)
    for _ in range(15):
        l1 = random_lattice(rng, rng.randint(1, 3))
        l2 = random_lattice(rng, rng.randint(1, 3))
        t = l1.tensor(l2)
        assert t.degree() == l2.rank * l1.degree() + l1.rank * l2.degree()
        assert t.slope() == l1.slope() + l2.slope()
        assert l1.orthogonal_sum(l2).degree() == l1.degree() + l2.degree()
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        assert l1.scale(c).degree() == l1.degree() - F(l1.rank, 2) * log_of_rational(c)
        assert l1.exterior_power(l1.rank).degree() == l1.degree()


def test_morphism_norms():
    z1 = unit_lattice(1)
    z2 = unit_lattice(2)
    ident = LatticeMorphism(z2, z2, [[1, 0], [0, 1]])
    assert ident.norm_le_one()
    assert ident.hilbert_schmidt_sq() == 2
    diagonal = LatticeMorphism(z1, z2, [[1], [1]])
    assert not diagonal.norm_le_one()  # norm sqrt(2) > 1
    assert diagonal.hilbert_schmidt_sq() == 2
    half = LatticeMorphism(z1, z2, [[F(1, 2)], [F(1, 2)]])
    assert half.norm_le_one()
    assert not half.is_integral


def _contraction(rng, source, target):
    """A random nonzero map source -> target, halved until its norm is <= 1."""
    m = [[F(rng.randint(-2, 2)) for _ in range(source.rank)] for _ in range(target.rank)]
    m[0][0] = m[0][0] or F(1)
    f = LatticeMorphism(source, target, m)
    while not f.norm_le_one():
        f = LatticeMorphism(source, target, [[x / 2 for x in row] for row in f.matrix])
    return f


def test_morphism_composition_norm():
    """Operator norms are submultiplicative, so maps of norm <= 1 compose to
    one: on random maps scaled into the unit ball, and on signed
    permutations between rescaled unit lattices (norm^2 = c_target / c_source)."""
    rng = random.Random(3)
    checked = 0
    for t in range(12):
        n = rng.randint(1, 3)
        if t % 2:
            l1, l2, l3 = (random_lattice(rng, n) for _ in range(3))
            f, g = _contraction(rng, l1, l2), _contraction(rng, l2, l3)
        else:
            c = sorted((F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)), reverse=True)
            l1, l2, l3 = (unit_lattice(n).scale(x) for x in c)
            perms = [rng.sample(range(n), n) for _ in range(2)]
            f, g = (
                LatticeMorphism(a, b, [[rng.choice((-1, 1)) * (j == p[i]) for j in range(n)] for i in range(n)])
                for (a, b), p in zip(((l1, l2), (l2, l3)), perms)
            )
        if not (f.norm_le_one() and g.norm_le_one()):
            continue
        h = g.compose(f)
        assert (h.source, h.target) == (l1, l3)
        assert h.matrix == linalg.mat(linalg.matmul(g.matrix, f.matrix))
        assert h.norm_le_one() and not h.is_zero()
        checked += 1
    assert checked >= 5


def test_evaluation_vector_sq_length():
    for r in (1, 2, 3):
        lat = unit_lattice(r)
        t = lat.tensor(lat.dual())
        assert t.norm_sq(evaluation_vector(lat)) == r
    rng = random.Random(5)
    for _ in range(5):
        lat = random_lattice(rng, rng.randint(1, 3))
        t = lat.tensor(lat.dual())
        assert t.norm_sq(evaluation_vector(lat)) == lat.rank


def test_tensor_vector_to_hom():
    z2 = unit_lattice(2)
    f = tensor_vector_to_hom(z2, z2, [1, 0, 0, 0])
    assert f.norm_le_one()
    assert f.hilbert_schmidt_sq() == 1
    ident = tensor_vector_to_hom(z2, z2, [1, 0, 0, 1])
    assert ident.norm_le_one()
    assert ident.hilbert_schmidt_sq() == 2
    with pytest.raises(ValueError):
        tensor_vector_to_hom(z2, z2, [0, 0, 0, 0])


def test_hom_operator_norm_at_most_hs_random():
    rng = random.Random(17)
    for _ in range(25):
        l1 = random_lattice(rng, rng.randint(1, 3))
        l2 = random_lattice(rng, rng.randint(1, 3))
        t = l1.tensor(l2)
        w = [rng.randint(-2, 2) for _ in range(t.rank)]
        if all(x == 0 for x in w):
            w[0] = 1
        f = tensor_vector_to_hom(l1, l2, w)
        hs = f.hilbert_schmidt_sq()
        assert hs == t.norm_sq(w)
        assert f.norm_sq_le(hs)
        assert not f.is_zero()


def test_saturation_and_integrality():
    z2 = unit_lattice(2)
    s = Sublattice(z2, [[2, 0]])
    sat = s.saturation()
    assert sat.hnf_basis() == ((1, 0),)
    assert e8_lattice().is_integral() and e8_lattice().is_unimodular()
    assert e8_lattice().det() == 1
    assert a2_lattice().is_integral() and not a2_lattice().is_unimodular()


def test_saturation_never_decreases_slope():
    rng = random.Random(23)
    for _ in range(20):
        lat = random_lattice(rng, rng.randint(2, 4))
        k = rng.randint(1, lat.rank - 1)
        rows = [[rng.randint(-2, 2) for _ in range(lat.rank)] for _ in range(k)]
        if linalg.rank(linalg.mat(rows)) != k:
            continue
        s = Sublattice(lat, rows)
        assert s.saturation().slope() >= s.slope()
        assert linalg.saturate(s.saturation().basis)[0] == 1


def test_integral_lattice_sublattices_nonpositive_degree():
    rng = random.Random(29)
    for _ in range(10):
        lat = random_lattice(rng, 3)  # B*B^T is integral
        assert lat.is_integral()
        for _ in range(5):
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rng.randint(1, 3))]
            if linalg.rank(linalg.mat(rows)) != len(rows):
                continue
            assert Sublattice(lat, rows).degree() <= LogRational(0)


def test_json_roundtrip():
    a2 = a2_lattice().scale(F(2, 3))
    data = a2.to_json_dict()
    back = EuclideanLattice.from_json_dict(data)
    assert back == a2
    with_scale = EuclideanLattice.from_json_dict({"rank": 2, "gram": [["2", "1"], ["1", "2"]], "scale": "2/3"})
    assert with_scale == a2


def test_short_tensor_vectors_give_contracting_morphisms():
    # a tensor vector of squared length <= 1 induces a norm <= 1 map
    rng = random.Random(37)
    for _ in range(15):
        l1 = random_lattice(rng, rng.randint(1, 3))
        l2 = random_lattice(rng, rng.randint(1, 3))
        t = l1.tensor(l2)
        w = [rng.randint(-2, 2) for _ in range(t.rank)]
        if all(x == 0 for x in w):
            w[0] = 1
        nsq = t.norm_sq(w)
        scaled = [F(x) / (1 + nsq) for x in w]  # squared length < 1
        assert t.norm_sq(scaled) <= 1
        f = tensor_vector_to_hom(l1, l2, scaled)
        assert f.norm_le_one()


def _reference_contains(s, o):
    """The earlier `Sublattice.contains`: every row of o solved over Q in the
    HNF rows of s, with integer coefficients."""
    mine = linalg.mat(linalg.hnf(s.basis))
    for row in linalg.mat(o.basis):
        coeffs = _reference_solve_coords(mine, row)
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            return False
    return True


def _independent_rows(rng, k, n):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if linalg.rank(linalg.mat(rows)) == k:
            return rows


def test_sublattice_stores_hnf_and_contains_matches_solve():
    """The stored basis is the HNF of the given rows, and `contains` (the HNF
    of both bases is the first HNF) agrees with solving over Q, on saturated
    and unsaturated sublattices, for contained, saturation and random
    partners."""
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    unsaturated = 0
    for t in range(400):
        n = rng.randint(1, 4)
        lat = random_lattice(rng, n)
        k = rng.randint(1, n)
        rows = _independent_rows(rng, k, n)
        if t % 2:
            i, c = rng.randrange(k), rng.choice((2, 3))
            rows[i] = [c * x for x in rows[i]]
        s = Sublattice(lat, rows)
        assert s.basis == linalg.hnf(rows) == s.hnf_basis()
        assert s.basis == Sublattice(lat, list(reversed(rows))).basis
        kind = t % 3
        if kind == 0:
            j = rng.randint(1, k)
            cs = _independent_rows(rng, j, k)
            other = Sublattice(lat, [[sum(c * r[m] for c, r in zip(row, rows)) for m in range(n)] for row in cs])
        elif kind == 1:
            other = s.saturation()
        else:
            other = Sublattice(lat, _independent_rows(rng, rng.randint(1, n), n))
        for a, b in ((s, other), (other, s)):
            got = a.contains(b)
            assert got == _reference_contains(a, b)
            verdicts[got] += 1
        unsaturated += linalg.saturate(s.basis)[0] != 1
    assert verdicts[True] >= 250 and verdicts[False] >= 150 and unsaturated >= 100
    with pytest.raises(ValueError, match="independent"):
        Sublattice(unit_lattice(2), [[1, 2], [2, 4]])


# ---------------------------------------------------------------------------
# Oracle: every lattice operation on the pair (L*G, L) against the public
# constructor on the Fraction Gram matrix.


def _rational_lattice(rng, rank):
    """B B^T for a random invertible B, divided by a random positive integer
    and sometimes multiplied by one, so that L runs over 1, 2, 3, 4, 6, ...
    and the content of L*G is often not 1."""
    lat = random_lattice(rng, rank, 3)
    c = F(rng.choice((1, 1, 2, 3, 4, 6)), rng.choice((1, 2, 3, 4, 6, 9)))
    return EuclideanLattice(linalg.scalar_mul(c, lat.gram))


def _block_diag(a, b):
    za, zb = (F(0),) * len(b), (F(0),) * len(a)
    return tuple(row + za for row in a) + tuple(zb + row for row in b)


def _same_lattice(got, gram):
    want = EuclideanLattice(gram)
    assert got.gram == want.gram == linalg.mat(gram)
    assert got.scaled_gram() == want.scaled_gram()
    gi, scale = got.scaled_gram()
    assert all(type(x) is int for row in gi for x in row) and type(scale) is int
    assert math.gcd(scale, *(x for row in gi for x in row)) == 1
    assert got.det() == want.det() == linalg.det_bareiss(linalg.mat(gram))
    assert got == want and hash(got) == hash(want)
    assert got.degree() == want.degree()


def test_integer_pair_matches_fraction_gram():
    """tensor, dual, scale, exterior_power, orthogonal_sum and lll_reduce
    on seeded integral and rational lattices give the lattice of the Fraction
    Gram matrix computed directly: same gram, scaled_gram, det, == and hash."""
    from slopekit.enumeration import lll_reduce

    rng = random.Random(2212)
    half, two = EuclideanLattice([[F(1, 2)]]), EuclideanLattice([[2]])
    assert half.tensor(two).scaled_gram() == (((1,),), 1)  # L_A * L_B = 2 is not least
    _same_lattice(half.tensor(two), [[1]])
    for t in range(300):
        a = _rational_lattice(rng, rng.randint(1, 3))
        b = _rational_lattice(rng, rng.randint(1, 3))
        ga, gb = a.gram, b.gram
        _same_lattice(a.tensor(b), linalg.kron(ga, gb))
        _same_lattice(a.dual(), _reference_inverse(ga))
        _same_lattice(a.orthogonal_sum(b), _block_diag(ga, gb))
        c = F(rng.randint(1, 12), rng.randint(1, 12))
        _same_lattice(a.scale(c), linalg.scalar_mul(c, ga))
        p = rng.randint(1, a.rank)
        _same_lattice(a.exterior_power(p), _reference_exterior_gram(ga, p))
        reduced, u = lll_reduce(a.tensor(b) if t % 2 else a)
        g = (a.tensor(b) if t % 2 else a).gram
        _same_lattice(reduced, linalg.matmul(linalg.matmul(u, g), linalg.transpose(u)))
        assert a.is_integral() == all(x.denominator == 1 for row in ga for x in row)


def test_invalid_grams_raise_the_same_errors():
    """The public constructor and the pair constructor reject what the
    Fraction checks reject, with the same messages."""
    rng = random.Random(2213)
    kinds = {"square": 0, "symmetric": 0, "positive definite": 0, None: 0}
    for t in range(400):
        n = rng.randint(1, 4)
        g = [[_rand_entry(rng) for _ in range(n)] for _ in range(n)]
        if t % 3:
            g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if t % 7 == 0:
            g = g[:-1]
        m = linalg.mat(g)
        if not m or any(len(row) != len(m) for row in m):
            want = "square"
        elif not linalg.is_symmetric(m):
            want = "symmetric"
        elif any(linalg.det_bareiss(tuple(r[: k + 1] for r in m[: k + 1])) <= 0 for k in range(n)):
            want = "positive definite"
        else:
            want = None
        kinds[want] += 1
        if want is None:
            lat = EuclideanLattice(g)
            assert EuclideanLattice._from_scaled(*linalg.clear_denominators(m)) == lat
            continue
        with pytest.raises(ValueError, match=want):
            EuclideanLattice(g)
        if want != "square":
            with pytest.raises(ValueError, match=want):
                EuclideanLattice._from_scaled(*linalg.clear_denominators(m))
    assert min(kinds.values()) >= 30


def test_int_gram_builds_the_lattice_of_its_fractions():
    """A Gram of ints goes to the pair (G, 1) without a Fraction copy; it
    gives the lattice (pair, Fraction view, det, == and hash), or the error,
    that the same entries as Fractions give."""
    rng = random.Random(2906)
    seen = set()
    for t in range(300):
        n = rng.randint(1, 4)
        g = [[rng.randint(-4, 6) for _ in range(n)] for _ in range(n)]
        if t % 3:
            g = [[g[min(i, j)][max(i, j)] + 6 * (i == j) for j in range(n)] for i in range(n)]
        if t % 7 == 0:
            g = g[:-1]
        got = []
        for gram in (g, linalg.mat(g)):
            try:
                lat = EuclideanLattice(gram)
            except ValueError as exc:
                got.append(str(exc))
            else:
                assert all(type(x) is F for row in lat.gram for x in row)
                got.append((lat, lat.scaled_gram(), lat.gram, lat.det(), hash(lat)))
        assert got[0] == got[1]
        seen.add(got[0] if isinstance(got[0], str) else "accepted")
    assert len(seen) == 4


def _rand_entry(rng):
    return F(rng.randint(-4, 6), rng.choice((1, 1, 2, 3)))


def _reference_dual_pair(lat):
    """The pair of the dual as it was built through the deleted
    `linalg.inverse` (a test-local copy) and `clear_denominators`:
    L * inverse(L*G) over the least common denominator, both divided by
    their gcd."""
    gi, scale = lat.scaled_gram()
    inv, den = linalg.clear_denominators(_reference_inverse(linalg.mat(gi)))
    m = [[scale * x for x in row] for row in inv]
    g = math.gcd(den, *(x for row in m for x in row))
    return tuple(tuple(x // g for x in row) for row in m), den // g


def test_dual_from_integer_rref_matches_inverse():
    """The dual read off one `bareiss` run on [L*G | I], adj(L*G) over
    det(L*G), equals the dual built through the Fraction inverse, on 330 seeded integral, scaled and
    tensor lattices of rank 1-6: the same pair, det, gram, and its own dual
    is the lattice it came from."""
    rng = random.Random(2215)
    ranks = set()
    for t in range(330):
        kind = t % 3
        if kind == 0:
            lat = random_lattice(rng, 1 + t % 6, 2)
        elif kind == 1:
            lat = _rational_lattice(rng, 1 + t % 6)
        else:
            r1 = rng.randint(1, 3)
            lat = _rational_lattice(rng, r1).tensor(_rational_lattice(rng, rng.randint(1, 6 // r1)))
        ranks.add(lat.rank)
        gi, scale = _reference_dual_pair(lat)
        d = lat.dual()
        assert d.scaled_gram() == (gi, scale)
        assert all(type(x) is int for row in gi for x in row)
        assert d.det() == 1 / lat.det() == F(linalg.det_int(gi), scale**lat.rank)
        assert d.gram == tuple(tuple(F(x, scale) for x in row) for row in gi) == _reference_inverse(lat.gram)
        assert d.dual() is lat and lat.dual() is d
    assert ranks == {1, 2, 3, 4, 5, 6}


def test_dual_and_degree_are_built_once():
    rng = random.Random(2214)
    for _ in range(40):
        lat = _rational_lattice(rng, rng.randint(1, 4))
        assert lat.dual() is lat.dual()
        assert lat.dual().dual() is lat
        assert EuclideanLattice(lat.dual().gram).dual() == lat  # a fresh inverse
        assert lat.degree() is lat.degree()
        assert lat.dual().degree() == -lat.degree()


def _derived_euclidean(rng, n):
    """A seeded lattice a of rank 1-6, integral or not, another lattice b,
    and the lattices derived from them: first those whose law adds no
    constant (a tensor product, of rank 9 every tenth time, the dual, an
    exterior power, an orthogonal sum and the LLL reduction), then a dual
    of a rescaled dual and the LLL reduction of a rescaling."""
    a = (random_lattice if n % 2 else _rational_lattice)(rng, 1 + n % 6)
    b = _rational_lattice(rng, rng.randint(1, 2))
    if n % 10 == 0:
        a, b = random_lattice(rng, 3), _rational_lattice(rng, 3)
    c = F(rng.randint(1, 9), rng.randint(1, 9))
    pure = [
        a.tensor(b),
        a.dual(),
        a.exterior_power(rng.randint(1, a.rank)),
        a.orthogonal_sum(b),
        lll_reduce.__wrapped__(a)[0],
    ]
    return (a, b), pure, [a.dual().scale(c).dual(), lll_reduce.__wrapped__(a.scale(c))[0]]


def _derived_hermitian(rng, n):
    """A seeded hermitian lattice a of rank 1-3 over Q(sqrt(-d)),
    d in {1, 2, 3, 5, 7, 13}, another lattice b, and the lattices derived
    from them: first a tensor product, an exterior power, the dual and an
    orthogonal sum, then a twist and the restrictions of scalars of a, of
    its twist and of its dual."""
    from test_hermitian import _definite

    field = ImagQuadField((1, 2, 3, 5, 7, 13)[n % 6])
    a = _definite(rng, field, 1 + (n // 6) % 3)
    b = _definite(rng, field, rng.randint(1, 2))
    c = F(rng.randint(1, 9), rng.randint(1, 9))
    pure = [a.tensor(b), a.exterior_power(rng.randint(1, a.rank)), a.dual(), a.orthogonal_sum(b)]
    shifted = [a.twist(c), a.restrict_scalars(), a.twist(c).restrict_scalars(), a.dual().restrict_scalars()]
    return (a, b), pure, shifted


def test_derived_degrees_match_factored_determinants(monkeypatch):
    """Every derived lattice takes its degree from the law of its operation;
    on 300 seeded euclidean lattices and 210 hermitian ones, each equals
    -w*log(det G), factored from the determinant that Sylvester's check
    computed.  Once the parents' degrees are known, the laws that add no
    constant (tensor, dual, exterior power, orthogonal sum, LLL) call no
    `factor_positive_int`."""
    calls = []
    real = exactval.factor_positive_int
    monkeypatch.setattr(exactval, "factor_positive_int", lambda n: calls.append(n) or real(n))
    rng = random.Random(2902)
    cases = [_derived_euclidean(rng, n) for n in range(300)]
    cases += [_derived_hermitian(rng, n) for n in range(210)]
    ranks, fields = set(), set()
    for parents, pure, shifted in cases:
        for p in parents:
            p.degree()
        del calls[:]
        for lat in pure:
            lat.degree()
        assert calls == []
        for lat in pure + shifted:
            assert lat.degree() == log_of_rational(lat.det()) * -lat._WEIGHT
            ranks.add(lat.rank)
        fields.add(getattr(parents[0], "field", None))
    assert ranks >= {1, 2, 3, 4, 5, 6, 9} and len(fields) == 7


def test_pair_keeps_the_lower_triangle_of_its_sylvester_check():
    """Every lattice keeps as `_gso` the lower triangle of `linalg.bareiss`
    on its own D*G (row i: lambda_i0 .. lambda_i,i-1, then d_(i+1)), on
    seeded lattices built every way: int and Fraction Grams, `_from_scaled`
    with a gcd to divide out, and the derived lattices of both kinds
    (tensors, duals, rescalings and twists, exterior powers, orthogonal
    sums, LLL reductions and restrictions of scalars)."""
    rng = random.Random(3001)
    lats = []
    for n in range(120):
        (a, b), pure, shifted = _derived_euclidean(rng, n)
        gi, den = a.scaled_gram()
        k = rng.randint(2, 6)
        divided = EuclideanLattice._from_scaled([[x * k for x in row] for row in gi], den * k)
        assert divided.scaled_gram() == (gi, den)
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        lats += [a, b, EuclideanLattice(a.gram), divided, a.scale(c), *pure, *shifted]
    for n in range(60):
        parents, pure, shifted = _derived_hermitian(rng, n)
        lats += [*parents, *pure, *shifted]
    kinds = set()
    for lat in lats:
        m, swaps = linalg.bareiss(lat.scaled_gram()[0])
        assert swaps == 0
        assert lat._gso == tuple(tuple(row[: i + 1]) for i, row in enumerate(m))
        kinds.add((type(lat).__name__, lat.rank))
    assert {r for kind, r in kinds if kind == "EuclideanLattice"} >= {1, 2, 3, 4, 5, 6, 9}
    assert {r for kind, r in kinds if kind == "HermitianLattice"} >= {1, 2, 3, 4, 6}


def _check_against_elimination(lat):
    """lat's det() and `_gso` are those one `linalg.bareiss` run on its D*G
    gives, and that run meets Sylvester's criterion: no swap, every leading
    minor of positive real part."""
    s, den = lat.scaled_gram()
    m, swaps = linalg.bareiss(s)
    assert swaps == 0
    assert all(lat._real(m[k][k]) > 0 for k in range(lat.rank))
    assert lat.det() == F(lat._real(m[-1][-1]), den**lat.rank)
    assert lat._gso == tuple(tuple(row[: i + 1]) for i, row in enumerate(m))


def test_law_built_lattices_match_their_elimination():
    """Derived lattices are proven by the laws of their operations, with no
    Sylvester check.  On the corpus of
    `test_derived_degrees_match_factored_determinants` (300 euclidean and
    210 hermitian lattices with their tensors, duals, rescalings and
    twists, exterior powers, orthogonal sums, LLL reductions and
    restrictions of scalars), each law-built lattice's det() and `_gso` are
    those of an elimination of its Gram, which would have passed the
    check; `_gso` is so whether LLL reads it first or not, and the reduced
    lattice's handed-over record is so too."""
    rng = random.Random(2902)
    cases = [_derived_euclidean(rng, n) for n in range(300)]
    cases += [_derived_hermitian(rng, n) for n in range(210)]
    reduced = 0
    for t, (_, pure, shifted) in enumerate(cases):
        for lat in pure + shifted:
            if type(lat) is EuclideanLattice:
                if t % 2:
                    _check_against_elimination(lat)
                red, _ = lll_reduce.__wrapped__(lat)
                _check_against_elimination(red)
                assert red.det() == lat.det()
                reduced += 1
            _check_against_elimination(lat)
    assert reduced == 300 * 7 + 210 * 3


def _conjugated(u, gram):
    """U G U^T."""
    um = linalg.mat(u)
    return linalg.matmul(linalg.matmul(um, gram), linalg.transpose(um))


def test_lll_hands_over_the_record_of_its_reduced_gram(monkeypatch):
    """On every lattice that the criterion-4 tensor experiment reduces
    (the factors and tensors of its 200 seeded pairs, and what their
    mu_max searches reduce), the record `lll_reduce` hands to the reduced
    lattice is that of an elimination of the reduced Gram, and the
    reduction equals the memoized one."""
    from slopekit import enumeration
    from slopekit.harness import ExperimentConfig, bost_experiment

    seen = {}
    real = enumeration.lll_reduce
    monkeypatch.setattr(enumeration, "lll_reduce", lambda lat: seen.setdefault(lat, lat) and real(lat))
    bost_experiment(ExperimentConfig(seed=20260809, count=200))
    assert len(seen) >= 400
    for lat in seen:
        red, u = lll_reduce.__wrapped__(lat)
        _check_against_elimination(red)
        assert (red, u) == real(lat) and red.det() == lat.det()
        assert red.gram == _conjugated(u, lat.gram)


def test_immutable_values_round_trip():
    """pickle, copy.copy and copy.deepcopy rebuild each immutable value from
    its canonical state: equal, of equal hash, repr and degree where the
    class has them, and a lattice, derived ones included, of equal det()
    and `_gso`.  No slot of a value can be assigned or deleted, and the
    value stays equal to its copy.  A Sublattice and a LatticeMorphism
    compare by value, unequal to one of another basis or matrix.  Equal
    values hash equal, also a LogRational with no log term and the int or
    Fraction it equals, and a QuadField and the equal ImagQuadField."""
    from slopekit.harness import ExperimentConfig, bost_experiment
    from slopekit.hermitian import QuadField, _omega_data
    from slopekit.multifilt import Filtration, MultifilteredSpace
    from test_hermitian import _definite

    rng = random.Random(3002)
    a, b = _rational_lattice(rng, 3), random_lattice(rng, 2)
    k7 = ImagQuadField(7)
    h = _definite(rng, k7, 2)
    f1 = Filtration(2, [(0, [[1, 0], [0, 1]]), (F(1, 2), [[1, 1]])])
    f2 = Filtration(2, [(-1, [[1, 0], [0, 1]]), (3, [[1, 0]])])
    values = [
        LogRational(F(2, 3), {2: F(1, 2), 15: -3}),
        half_log(F(5, 7)),
        a,
        b,
        a.tensor(b),
        a.dual().scale(F(3, 2)),
        a.exterior_power(2).orthogonal_sum(b),
        lll_reduce(a)[0],
        h,
        h.twist(5).dual(),
        h.tensor(h).exterior_power(2),
        h.restrict_scalars(),
        f1,
        MultifilteredSpace(2, [f1, f2]),
        bost_experiment(ExperimentConfig(count=2))[0][0],
        k7,
        QuadField(0, -2, k7),
        k7.elt(3, F(-1, 2)),
        Sublattice(a, [[1, 2, 0], [0, 3, 1]]),
        tensor_vector_to_hom(a, b, range(6)),
    ]
    for v in values:
        for back in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
            assert type(back) is type(v)
            assert back == v and hash(back) == hash(v)
            if type(v).__repr__ is not object.__repr__:
                assert repr(back) == repr(v)
            if hasattr(v, "degree"):
                assert back.degree() == v.degree()
            if hasattr(v, "_gso"):
                assert back.det() == v.det() and back._gso == v._gso
        slots = [name for cls in type(v).__mro__ for name in getattr(cls, "__slots__", ()) if name != "__weakref__"]
        for name in slots:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
            with pytest.raises(AttributeError):
                delattr(v, name)
        back = copy.copy(v)
        assert back == v and hash(back) == hash(v)
    sub, hom = values[-2:]
    assert sub == Sublattice(a, [[1, 5, 1], [0, 3, 1]]) and len({sub, Sublattice(a, sub.basis)}) == 1
    assert sub != Sublattice(a, [[1, 2, 0]]) and sub != Sublattice(a.scale(2), sub.basis)
    assert hom == tensor_vector_to_hom(a, b, range(6)) != tensor_vector_to_hom(a, b, range(1, 7))
    equal = [
        (LogRational(2), 2),
        (LogRational(F(1, 2)), F(1, 2)),
        (log_of_rational(1), 0),
        (QuadField(*_omega_data(-7)), k7),
    ]
    for x, y in equal:
        assert x == y and hash(x) == hash(y) and y in {x} and x in {y}


class _Payload:
    """Pickles as the given (callable, args) pair."""

    def __init__(self, reduced):
        self.reduced = reduced

    def __reduce__(self):
        return self.reduced


def test_reduce_payloads_are_checked():
    """Pickle and `copy` rebuild a lattice through the checked constructor,
    so the law-built path cannot be reached from outside: a `__reduce__`
    payload of a derived lattice whose Gram is made non-symmetric, or
    symmetric but not positive definite, raises the constructor's
    ValueError, for both kinds."""
    from test_hermitian import _definite

    rng = random.Random(3404)
    k7 = ImagQuadField(7)
    lats = [
        _rational_lattice(rng, 2).tensor(random_lattice(rng, 2)),
        random_lattice(rng, 3).dual().scale(F(2, 5)),
        _definite(rng, k7, 2).tensor(_definite(rng, k7, 2)),
        _definite(rng, k7, 3).twist(F(3, 4)).dual(),
    ]
    for lat in lats:
        make, (field, s, den) = lat.__reduce__()
        assert pickle.loads(pickle.dumps(_Payload((make, (field, s, den))))) == lat
        rows = [list(row) for row in s]
        rows[0][1] += 1
        symmetric = "Gram matrix must be " + ("symmetric" if field is None else "conjugate-symmetric")
        with pytest.raises(ValueError, match=symmetric):
            pickle.loads(pickle.dumps(_Payload((make, (field, rows, den)))))
        # a 2 x 2 leading minor a*b - (a + b)^2 < 0
        rows = [list(row) for row in s]
        rows[0][1] = rows[1][0] = s[0][0] + s[1][1]
        with pytest.raises(ValueError, match="Gram matrix must be positive definite"):
            pickle.loads(pickle.dumps(_Payload((make, (field, rows, den)))))


def test_resolved_degree_keeps_no_parent():
    """A derived lattice holds its parents only until its degree is
    resolved: then nothing it keeps refers to them."""
    from test_hermitian import _definite

    rng = random.Random(2904)
    a, b = _rational_lattice(rng, 3), random_lattice(rng, 2)
    h = _definite(rng, ImagQuadField(7), 2)
    derived = [
        a.tensor(b),
        a.scale(F(3, 2)),
        a.exterior_power(2),
        a.orthogonal_sum(b),
        lll_reduce.__wrapped__(b)[0],
        h.twist(5).restrict_scalars(),
        h.exterior_power(2),
    ]
    refs = [weakref.ref(x) for x in (a, b, h)]
    del a, b, h
    gc.collect()
    assert all(r() is not None for r in refs)  # the unresolved laws hold them
    for lat in derived:
        lat.degree()
    gc.collect()
    assert all(r() is None for r in refs)


def test_long_chain_of_derivations_resolves():
    """The laws of a chain of derived lattices longer than the recursion
    limit resolve, each once; the ends agree with the factored value.  The
    tensor square of a dual meets its unresolved parent twice, and resolves
    it once."""
    lat = _rational_lattice(random.Random(2905), 2)
    chain = [lat]
    for n in range(3000):
        chain.append(chain[-1].scale(F(3, 2)) if n % 2 else chain[-1].dual())
    top = chain[-1]
    assert top.degree() == log_of_rational(top.det()) * -top._WEIGHT
    assert all(type(x._degree) is LogRational for x in chain)
    d = random_lattice(random.Random(5), 3).dual()
    t = d.tensor(d)
    assert t.degree() == 6 * d.degree() == EuclideanLattice(t.gram).degree()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Sublattice(unit_lattice(2), []), "sublattice must be nonzero"),
        (lambda: Sublattice(unit_lattice(2), [[1, 0, 0]]), "basis width must equal ambient rank"),
        (lambda: Sublattice(unit_lattice(2), [[Fraction(1, 2), 0]]), "expected integer entries"),
        (lambda: LatticeMorphism(unit_lattice(2), unit_lattice(3), [[1, 0, 0]] * 3),
         "morphism matrix shape must be target_rank x source_rank"),
        (lambda: tensor_vector_to_hom(unit_lattice(2), unit_lattice(2), [1, 0, 0]),
         "tensor vector has wrong length"),
    ],
    ids=["sublattice-no-rows", "sublattice-wrong-width", "sublattice-non-integer", "morphism-wrong-shape", "tensor-vector-wrong-length"],
)
def test_shape_rejections(call, message):
    with pytest.raises(ValueError, match=message):
        call()
