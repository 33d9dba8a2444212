import itertools
import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from slopekit import linalg
from slopekit.exactval import LogRational, half_log, log_of_rational
from slopekit.enumeration import (
    CertifiedMuMax,
    EnumerationCapExceeded,
    densest_sublattice,
    enumerate_short_vectors,
    hermite_constant_pow,
    is_semistable,
    lll_reduce,
    minimum_sq,
    minkowski_check,
    mu_max,
    mu_min,
    slope_filtration,
)
from slopekit.lattice import (
    EuclideanLattice,
    Sublattice,
    a2_lattice,
    e8_lattice,
    unit_lattice,
)
from test_linalg import _gso, _reference_diagonalize_int

F = Fraction


def random_lattice(rng, rank, bound=2):
    while True:
        b = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rank)]
        if linalg.det_bareiss(linalg.mat(b)) != 0:
            gram = [[sum(x * y for x, y in zip(r1, r2)) for r2 in b] for r1 in b]
            return EuclideanLattice(gram)


def is_lll_reduced(lat, delta=F(3, 4)):
    g = [list(r) for r in lat.gram]
    mu, b = _gso(g)
    n = len(g)
    for i in range(n):
        for j in range(i):
            if abs(mu[i][j]) > F(1, 2):
                return False
    for k in range(1, n):
        if b[k] < (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            return False
    return True


def test_lll_unit_unchanged():
    lat = unit_lattice(3)
    red, u = lll_reduce(lat)
    assert red == lat
    assert u == linalg.int_mat(linalg.identity(3))


def test_lll_skewed_basis_reduces():
    # Z^2 under basis change [[1, 100], [0, 1]]
    b = [[1, 100], [0, 1]]
    gram = [[sum(x * y for x, y in zip(r1, r2)) for r2 in b] for r1 in b]
    lat = EuclideanLattice(gram)
    red, u = lll_reduce(lat)
    assert red == unit_lattice(2)
    # U G U^T = reduced gram and U unimodular
    um = linalg.mat(u)
    assert linalg.matmul(linalg.matmul(um, lat.gram), linalg.transpose(um)) == red.gram
    assert abs(linalg.det_bareiss(um)) == 1


def test_lll_a2_already_reduced():
    assert is_lll_reduced(a2_lattice())
    red, _ = lll_reduce(a2_lattice())
    assert is_lll_reduced(red)
    assert red.det() == 3


def test_lll_random_congruence_and_reducedness():
    rng = random.Random(41)
    for _ in range(15):
        lat = random_lattice(rng, rng.randint(2, 5), bound=4)
        red, u = lll_reduce(lat)
        um = linalg.mat(u)
        assert linalg.matmul(linalg.matmul(um, lat.gram), linalg.transpose(um)) == red.gram
        assert abs(linalg.det_bareiss(um)) == 1
        assert is_lll_reduced(red)
        assert red.det() == lat.det()


def test_short_vectors_z2():
    report = enumerate_short_vectors(unit_lattice(2), 1)
    assert report.count_up_to_sign() == 2
    assert all(sq == 1 for _, sq in report.vectors)


def test_short_vectors_a2():
    report = enumerate_short_vectors(a2_lattice(), 2)
    assert report.count_up_to_sign() == 3
    assert all(sq == 2 for _, sq in report.vectors)


def test_short_vectors_e8():
    report = enumerate_short_vectors(e8_lattice(), 2)
    assert report.count_up_to_sign() == 120
    assert all(sq == 2 for _, sq in report.vectors)


def test_short_vectors_supserset_with_larger_bound():
    rng = random.Random(43)
    for _ in range(5):
        lat = random_lattice(rng, 3)
        small = set(enumerate_short_vectors(lat, 4).vectors)
        large = set(enumerate_short_vectors(lat, 9).vectors)
        assert small <= large


def brute_force_count(n, bound):
    """Vectors of Z^n with 0 < |x|^2 <= bound, one per sign pair."""
    side = int(bound**0.5) + 1
    count = 0
    for x in itertools.product(range(-side, side + 1), repeat=n):
        if any(x) and sum(t * t for t in x) <= bound:
            count += 1
    return count // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theta_series_oracle_zn(n):
    for bound in (1, 2, 5, 10):
        report = enumerate_short_vectors(unit_lattice(n), bound)
        assert report.count_up_to_sign() == brute_force_count(n, bound)


def test_enumeration_cap_is_distinct():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_short_vectors(unit_lattice(4), 50, node_cap=10)


def test_minimum_sq():
    assert minimum_sq(unit_lattice(5)) == 1
    assert minimum_sq(a2_lattice()) == 2
    assert minimum_sq(e8_lattice()) == 2


def test_minimum_sq_bound_is_the_least_reduced_diagonal(monkeypatch):
    """`_minimum_sq` bounds its search by the least diagonal entry of the
    LLL-reduced Gram matrix, read from the integer pair (L*G, L) as
    min(gi[i][i]) / L: on seeded lattices, integral and scaled by rationals,
    it is the least diagonal entry of the reduced lattice's Fraction view."""
    from slopekit import enumeration

    bounds = []
    real = enumeration.enumerate_short_vectors

    def recorded(lat, bound, node_cap):
        bounds.append(bound)
        return real(lat, bound, node_cap)

    monkeypatch.setattr(enumeration, "enumerate_short_vectors", recorded)
    rng = random.Random(404)
    scaled = 0
    for t in range(60):
        lat = random_lattice(rng, 1 + t % 5)
        if t % 2:
            lat = lat.scale(F(rng.randint(1, 5), rng.randint(2, 7)))
        scaled += lat.scaled_gram()[1] > 1
        bounds.clear()
        # the memo is bypassed, so each lattice reaches the search
        _, value = enumeration._minimum_sq.__wrapped__(lat, enumeration.DEFAULT_NODE_CAP)
        reduced, _ = lll_reduce(lat)
        assert bounds == [min(reduced.gram[i][i] for i in range(lat.rank))]
        assert value == minimum_sq(lat) <= bounds[0]
    assert scaled >= 20


def test_hermite_attainment():
    # gamma_2^2 = 4/3 attained by A2; gamma_8^8 = 256 attained by E8
    a2 = a2_lattice()
    assert minimum_sq(a2) ** 2 / a2.det() == hermite_constant_pow(2)
    e8 = e8_lattice()
    assert minimum_sq(e8) ** 8 / e8.det() == hermite_constant_pow(8)
    with pytest.raises(ValueError):
        hermite_constant_pow(9)


def test_densest_sublattice_full_rank():
    lat = a2_lattice()
    sub = densest_sublattice(lat, 2, lat.det())
    assert sub.rank == 2 and sub.det() == 3
    # below det L no rank-r sublattice is within the budget
    assert densest_sublattice(lat, 2, F(299, 100)) is None
    lat = EuclideanLattice([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert lat.det() == 18 and densest_sublattice(lat, 3, F(1, 100)) is None


def test_densest_sublattice_axis():
    lat = unit_lattice(1).orthogonal_sum(unit_lattice(1).scale(4))
    sub = densest_sublattice(lat, 1, F(1))
    assert sub.det() == 1
    assert sub.hnf_basis() == ((1, 0),)


def test_densest_sublattice_tensor_a2_min():
    t = a2_lattice().tensor(a2_lattice())
    # no vector shorter than the product of the minima
    assert minimum_sq(t) == 4
    sub = densest_sublattice(t, 1, F(4))
    assert sub.det() == 4


def test_mu_max_unimodular_fast_path():
    res = mu_max(e8_lattice())
    assert res.certified and res.value == LogRational(0)
    assert res.witness.rank == 8
    assert is_semistable(e8_lattice())
    assert mu_min(e8_lattice()) == LogRational(0)
    poly = slope_filtration(e8_lattice())
    assert poly.certified
    assert poly.hull == ((0, LogRational(0)), (8, LogRational(0)))
    assert [s.hnf_basis() for s in poly.filtration] == [linalg.int_mat(linalg.identity(8))]


def test_fast_path_matches_search():
    """Lattices with det(L * G) = 1, L the Gram denominator, are certified
    without a search; their hull and chain are those of a searching
    reference, and their polygon has the rank-r point alone."""
    from slopekit.enumeration import DEFAULT_NODE_CAP

    rng = random.Random(47)
    checked = 0
    # random unimodular lattices: U U^T for unimodular U, and rescalings
    for _ in range(5):
        u = linalg.identity(3)
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-2, 2)
            u = tuple(
                tuple(u[a][b] + (q * u[j][b] if a == i else 0) for b in range(3))
                for a in range(3)
            )
        gram = linalg.matmul(u, linalg.transpose(u))
        unimodular = EuclideanLattice(gram)
        assert unimodular.is_unimodular()
        for lat in (unimodular, unimodular.scale(F(1, 2)), unimodular.scale(F(1, 3))):
            assert linalg.det_int(lat.scaled_gram()[0]) == 1
            fast = mu_max(lat)
            poly = slope_filtration(lat)
            _, hull, chain, cert = _reference_slope_filtration(lat, DEFAULT_NODE_CAP)
            assert cert and fast.certified and poly.certified
            assert poly.hull == hull and tuple(s.hnf_basis() for s in poly.filtration) == chain
            assert poly.hull == ((0, LogRational(0)), (3, lat.degree()))
            assert fast.value == poly.quotient_slopes()[0] == lat.slope()
            assert len(poly.filtration) == 1
            assert fast.witness.hnf_basis() == chain[0] == linalg.int_mat(linalg.identity(3))
            checked += 1
    assert checked == 15


def test_mu_max_a2_twisted_stable():
    lat = a2_lattice().scale(F(2, 3))
    res = mu_max(lat)
    assert res.certified
    assert res.value == lat.slope()
    assert res.witness.rank == 2
    # strict rank-1 deficit: lambda - (1/2)log 2 < mu
    rank1_best = -half_log(minimum_sq(lat))
    lam = half_log(F(3, 2))
    assert rank1_best == lam - half_log(2)
    assert rank1_best < res.value


def test_mu_max_split_example():
    lat = unit_lattice(1).orthogonal_sum(unit_lattice(1).scale(F(1, 4)))
    res = mu_max(lat)
    assert res.certified
    assert res.value == log_of_rational(2)
    assert res.value > lat.slope()
    assert not is_semistable(lat)


def test_mu_min_by_duality():
    # quotient onto the long axis of Z ⊥ Z<4> has degree -log 2
    lat = unit_lattice(1).orthogonal_sum(unit_lattice(1).scale(4))
    assert mu_min(lat) == -log_of_rational(2)
    # and the short-axis quotient of Z ⊥ Z<1/4> keeps mu_min at 0
    lat2 = unit_lattice(1).orthogonal_sum(unit_lattice(1).scale(F(1, 4)))
    assert mu_min(lat2) == LogRational(0)
    assert mu_min(unit_lattice(3)) == LogRational(0)


def test_slope_filtration_semistable_trivial():
    poly = slope_filtration(a2_lattice())
    assert poly.certified
    assert len(poly.filtration) == 1
    assert poly.filtration[0].rank == 2
    assert poly.quotient_slopes() == (a2_lattice().slope(),)


def test_slope_filtration_two_step():
    lat = unit_lattice(1).scale(F(1, 4)).orthogonal_sum(unit_lattice(1).scale(4))
    poly = slope_filtration(lat)
    assert poly.certified
    slopes = poly.quotient_slopes()
    assert slopes == (log_of_rational(2), -log_of_rational(2))
    assert len(poly.filtration) == 2
    assert poly.filtration[0].hnf_basis() == ((1, 0),)


def test_slope_filtration_a2_summand_example():
    # A2<2/3> ⊥ Z<9/16>: one positive and one negative hull slope
    lat = a2_lattice().scale(F(2, 3)).orthogonal_sum(unit_lattice(1).scale(F(9, 16)))
    poly = slope_filtration(lat)
    assert poly.certified
    slopes = poly.quotient_slopes()
    assert len(slopes) == 2
    assert slopes[0].sign() > 0 and slopes[1].sign() < 0
    assert all(
        (a - b).sign() > 0 for a, b in zip(slopes, slopes[1:])
    )


def test_dual_reverses_polygon():
    rng = random.Random(53)
    for _ in range(6):
        lat = random_lattice(rng, 3)
        p = slope_filtration(lat)
        pd = slope_filtration(lat.dual())
        assert p.certified and pd.certified
        assert tuple(reversed([-s for s in pd.quotient_slopes()])) == p.quotient_slopes()


def test_mu_max_random_consistency():
    """mu_max >= slope and >= every explicitly sampled sublattice slope."""
    rng = random.Random(59)
    for _ in range(8):
        lat = random_lattice(rng, 3)
        res = mu_max(lat)
        assert res.certified
        assert res.value >= lat.slope()
        for _ in range(10):
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(rng.randint(1, 2))]
            if linalg.rank(linalg.mat(rows)) == len(rows):
                assert res.value >= Sublattice(lat, rows).slope()


def test_minkowski_check():
    assert minkowski_check(unit_lattice(4))
    assert minkowski_check(a2_lattice())
    assert a2_lattice().det() == 3 and 3 * F(2) ** 2 >= 1
    with pytest.raises(ValueError):
        minkowski_check(unit_lattice(2).scale(F(1, 2)))


def test_tensor_mu_max_bounds_small():
    rng = random.Random(61)
    for _ in range(4):
        l1 = random_lattice(rng, 2)
        l2 = random_lattice(rng, 2)
        m1, m2 = mu_max(l1), mu_max(l2)
        mt = mu_max(l1.tensor(l2))
        assert m1.certified and m2.certified and mt.certified
        lower = m1.value + m2.value
        upper = lower + half_log(l1.rank) + half_log(l2.rank)
        assert lower <= mt.value <= upper


def test_nef_degree_zero_not_semistable_split():
    # A2<2/3> ⊥ Z<3/4> has total degree exactly 0 but two distinct hull slopes
    lat = a2_lattice().scale(F(2, 3)).orthogonal_sum(unit_lattice(1).scale(F(3, 4)))
    assert lat.degree() == LogRational(0)
    assert not is_semistable(lat)
    poly = slope_filtration(lat)
    slopes = poly.quotient_slopes()
    assert len(slopes) == 2
    assert slopes[0].sign() > 0 and slopes[1].sign() < 0


def test_densest_sublattice_against_duality_oracle():
    """Direct branch-and-bound vs the exact duality identity
    d_k(L) = det(L) * d_{r-k}(dual L), computed independently."""
    from slopekit.enumeration import _greedy_rank_k_det

    rng = random.Random(71)
    for _ in range(10):
        lat = random_lattice(rng, 3)
        budget = _greedy_rank_k_det(lat, 2)
        sub = densest_sublattice(lat, 2, budget)
        # independent oracle: minimal rank-2 det = det(L) * min_sq(dual)
        # (the shortest dual vector is primitive, so it spans the minimal line)
        oracle = lat.det() * minimum_sq(lat.dual())
        assert sub.det() == oracle


def test_densest_sublattice_self_dual_cross_check():
    """Rank-2 searches on a rank-4 lattice and on its dual must satisfy
    d_2(L) = det(L) * d_2(dual L)."""
    from slopekit.enumeration import _greedy_rank_k_det

    rng = random.Random(73)
    for _ in range(4):
        lat = random_lattice(rng, 4, bound=1)
        b1 = _greedy_rank_k_det(lat, 2)
        d_direct = densest_sublattice(lat, 2, b1).det()
        dual = lat.dual()
        b2 = _greedy_rank_k_det(dual, 2)
        d_dual = densest_sublattice(dual, 2, b2).det()
        assert d_direct == lat.det() * d_dual


def test_enumeration_isometry_invariance():
    """Counts per squared length are basis-independent (completeness check)."""
    rng = random.Random(79)
    for _ in range(6):
        lat = random_lattice(rng, 3)
        u = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        um = linalg.mat(u)
        gram2 = linalg.matmul(linalg.matmul(um, lat.gram), linalg.transpose(um))
        lat2 = EuclideanLattice(gram2)
        bound = 4 * minimum_sq(lat)
        r1 = enumerate_short_vectors(lat, bound)
        r2 = enumerate_short_vectors(lat2, bound)
        hist1 = {}
        for _, sq in r1.vectors:
            hist1[sq] = hist1.get(sq, 0) + 1
        hist2 = {}
        for _, sq in r2.vectors:
            hist2[sq] = hist2.get(sq, 0) + 1
        assert hist1 == hist2


def test_slope_filtration_two_plane_split():
    # A2<1/3> ⊥ A2<3>: hull vertices at ranks 2 and 4, chain = first plane
    lat = a2_lattice().scale(F(1, 3)).orthogonal_sum(a2_lattice().scale(3))
    poly = slope_filtration(lat)
    assert poly.certified
    assert [k for k, _ in poly.hull] == [0, 2, 4]
    assert len(poly.filtration) == 2
    assert poly.filtration[0].hnf_basis() == ((1, 0, 0, 0), (0, 1, 0, 0))
    s1, s2 = poly.quotient_slopes()
    assert s1 == half_log(3) / 2 and s1.sign() > 0 and s2.sign() < 0


# ---------------------------------------------------------------------------
# Oracles for the dense-sublattice search and LLL.


def _reference_lll(lat, delta=F(3, 4)):
    """LLL as first written: the full Gram-Schmidt data recomputed after every
    size-reduction step.  Kept as the reference the integral lll_reduce must
    match exactly."""
    n = lat.rank
    g = [list(row) for row in lat.gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        for t in range(n):
            g[i][t] -= q * g[j][t]
        for t in range(n):
            g[t][i] -= q * g[t][j]

    def swap(i, j):
        u[i], u[j] = u[j], u[i]
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    k = 1
    while k < n:
        mu, b = _gso(g)
        for j in reversed(range(k)):
            q = round(mu[k][j])
            if q != 0:
                row_op(k, j, q)
                mu, b = _gso(g)
        if b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            k += 1
        else:
            swap(k, k - 1)
            k = max(k - 1, 1)
    return tuple(tuple(row) for row in g), tuple(tuple(row) for row in u)


def test_lll_rounds_ties_to_even():
    # mu_21 = 1/2 rounds to 0: A2 is left as it is
    assert lll_reduce(a2_lattice()) == (a2_lattice(), ((1, 0), (0, 1)))
    # mu_21 = 5/2 rounds to 2, so b_2 - 2 b_1, then mu_21 = 1/2 stays
    red, u = lll_reduce(EuclideanLattice([[2, 5], [5, 20]]))
    assert red.gram == linalg.mat([[2, 1], [1, 8]]) and u == ((1, 0), (-2, 1))


def test_lll_matches_reference_exactly():
    """The reduced Gram and U are the reference's on 320 seeded lattices:
    ranks 1-8, integral and rescaled by rationals, rational and their duals,
    tensors of rank 4 and 6, and E8 in random bases."""
    rng = random.Random(103)
    ranks = set()
    for t in range(320):
        kind, r = t % 8, 1 + t // 8 % 8
        if kind < 2:
            lat = random_lattice(rng, r, bound=5 if r <= 5 else 3)
        elif kind == 2:
            lat = random_lattice(rng, r, bound=4).scale(F(rng.randint(1, 9), rng.randint(2, 7)))
        elif kind in (3, 4):
            lat = _random_rational_lattice(rng, r)
            lat = lat.dual() if kind == 4 else lat
        elif kind == 5:
            lat = random_lattice(rng, r, bound=4).dual()
        elif kind == 6:
            lat = random_lattice(rng, 2, bound=3).tensor(random_lattice(rng, 2 + t // 8 % 2, bound=3))
        else:
            lat = _change_basis(rng, e8_lattice()) if t // 8 % 4 == 0 else random_lattice(rng, r)
        ranks.add(lat.rank)
        red, u = lll_reduce.__wrapped__(lat)
        assert (red.gram, u) == _reference_lll(lat)
    assert ranks == set(range(1, 9))
    # LLL-reduced bases of rank 6-8, E8's among them, in reverse order: the
    # swaps at small k come first and move rows that k has not reached yet
    for lat in [e8_lattice()] + [random_lattice(rng, 6 + t % 3, bound=3) for t in range(9)]:
        g = lll_reduce(lat)[0].gram
        rev = EuclideanLattice([row[::-1] for row in g[::-1]])
        red, u = lll_reduce.__wrapped__(rev)
        assert (red.gram, u) == _reference_lll(rev)


def test_lll_makes_no_elimination(monkeypatch):
    """The integral LLL keeps its Gram-Schmidt data across iterations and
    hands it to the reduced lattice, which its law proves: the reduction
    runs no `linalg.bareiss` at all.  Once the reduction is memoized,
    Fincke-Pohst reads the reduced lattice's record:
    `enumerate_short_vectors` and `minimum_sq` run no `linalg.bareiss`."""
    from slopekit import enumeration

    calls = []
    real = linalg.bareiss
    rng = random.Random(109)
    lats = [_random_rational_lattice(rng, 2 + t % 6) for t in range(20)]
    lats.append(_change_basis(rng, e8_lattice()))
    monkeypatch.setattr(linalg, "bareiss", lambda a: calls.append(a) or real(a))
    for lat in lats:
        del calls[:]
        red, _ = enumeration.lll_reduce.__wrapped__(lat)
        assert calls == [] and is_lll_reduced(red)
        enumeration.lll_reduce(lat)
        del calls[:]
        bound = max(red.gram[i][i] for i in range(red.rank))
        assert enumeration.enumerate_short_vectors(lat, bound).vectors
        assert enumeration.minimum_sq(lat) <= bound
        assert calls == []


def _change_basis(rng, lat):
    """The same lattice in a random new basis: U G U^T with U unimodular."""
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-1, 1))
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    um = linalg.mat(u)
    return EuclideanLattice(linalg.matmul(linalg.matmul(um, lat.gram), linalg.transpose(um)))


def _half_glued_z5(last_row):
    """Z^5 + 1/2(1,...,1) in the first five coordinates of Q^6, plus one more
    basis row; its successive minima e_1..e_5 span an index-2 sublattice."""
    h = F(1, 2)
    basis = [[int(i == j) for j in range(6)] for i in range(4)]
    basis += [[h, h, h, h, h, 0], last_row]
    return EuclideanLattice(
        [[sum(F(x) * y for x, y in zip(r1, r2)) for r2 in basis] for r1 in basis]
    )


def test_densest_sublattice_rankin_duality_rank5_rank6():
    """Rank r-1: d_{r-1}(L) = det(L) * min_sq(dual L), on direct searches at
    k = 4 (Minkowski radius, span leaf test) and k = 5 (saturation leaf test)."""
    from slopekit.enumeration import _greedy_rank_k_det

    rng = random.Random(107)
    lats = [random_lattice(rng, 5) for _ in range(4)]
    lats += [
        _change_basis(rng, _half_glued_z5([0, 0, 0, 0, 0, 3])),
        _change_basis(rng, _half_glued_z5([1, 0, 0, 0, 0, 2])),
        _change_basis(rng, _half_glued_z5([F(1, 2), 0, 0, 0, 0, F(3, 2)])),
    ]
    for lat in lats:
        k = lat.rank - 1
        budget = _greedy_rank_k_det(lat, k)
        sub = densest_sublattice(lat, k, budget)
        assert sub.det() == lat.det() * minimum_sq(lat.dual())
        assert sub.basis == sub.saturation().basis
    # the glued Z^5 + 1/2(1,...,1) summand is the densest hyperplane
    assert sub.det() == F(1, 4)


def _half_glued_z4(last_row):
    """Z^4 + 1/2(1,1,1,1) in the first four coordinates of Q^5, plus one more
    basis row.  Its 24 shortest vectors, of norm 1, fall into three
    orthogonal frames (e_1..e_4 and two of half vectors), each spanning an
    index-2 sublattice of the glued Z^4."""
    h = F(1, 2)
    basis = [[int(i == j) for j in range(5)] for i in range(3)]
    basis += [[h, h, h, h, 0], last_row]
    return EuclideanLattice(
        [[sum(F(x) * y for x, y in zip(r1, r2)) for r2 in basis] for r1 in basis]
    )


def _box_densest(lat, k, box):
    """Least determinant, and least HNF among its ties, over the saturated
    rank-k sublattices that a coefficient box reaches, by brute force, for
    min(k, r - k) <= 2.  For k <= r - k these are the saturations of
    k-subsets of the vectors of L with coordinates in [-box, box] over an
    LLL-reduced basis; past that, by Rankin duality, the annihilators of the
    saturations N of (r - k)-subsets of such vectors of the dual L*, of
    determinant det L * det N.  [saturation : span] is the gcd of the
    maximal minors; the saturation itself, the integer kernel of the integer
    kernel, is built only for a least determinant."""
    from itertools import combinations, product
    from math import gcd

    r = lat.rank
    dual = k > r - k
    side, j = (lat.dual(), r - k) if dual else (lat, k)
    assert j <= 2
    u = lll_reduce(side)[1]
    vecs = [
        tuple(sum(c * row[i] for c, row in zip(x, u)) for i in range(r))
        for x in product(range(-box, box + 1), repeat=r)
        if any(x) and next(c for c in x if c) > 0
    ]
    gi, scale = side.scaled_gram()
    gv = {v: [sum(map(operator.mul, row, v)) for row in gi] for v in vecs}
    best, ties = None, set()
    for rows in combinations(vecs, j):
        if j == 1:
            (v,) = rows
            span_det, index = sum(map(operator.mul, v, gv[v])), gcd(*v)
        else:
            v, w = rows
            vw = sum(map(operator.mul, v, gv[w]))
            span_det = sum(map(operator.mul, v, gv[v])) * sum(map(operator.mul, w, gv[w])) - vw * vw
            index = gcd(*(v[a] * w[b] - v[b] * w[a] for a, b in combinations(range(r), 2)))
        if span_det == 0:
            continue
        d = F(span_det, scale**j * index**2) * (lat.det() if dual else 1)
        if best is not None and d > best:
            continue
        if best is None or d < best:
            best, ties = d, set()
        sat = linalg.int_kernel_saturated(linalg.int_kernel_saturated(rows, r), r)
        ties.add(linalg.int_kernel_saturated(sat, r) if dual else sat)
    return best, min(ties)


def _span_rule_corpus():
    """Rank-5 lattices holding the glued Z^4 of `_half_glued_z4`, whose
    frames span index-2 sublattices, in the given basis and in seeded new
    ones, and two random rank-5 lattices."""
    rng = random.Random(211)
    lats = []
    for last in ([0, 0, 0, 0, 1], [0, 0, 0, 0, 2], [F(1, 2), 0, 0, 0, 1], [1, 1, 0, 0, 2]):
        lat = _half_glued_z4(last)
        lats += [lat, _change_basis(rng, lat)]
    return lats + [random_lattice(rng, 5) for _ in range(2)]


def _orthogonal_ties_first(monkeypatch):
    """Reorder the pool of every `densest_sublattice` call within each norm,
    keeping it sorted by norm, the only order the DFS relies on: first a
    greedy set of pairwise orthogonal vectors, then the rest, so that a
    frame of the glued Z^4 leads its norm."""
    import sys

    from slopekit import enumeration

    real = enumeration.enumerate_short_vectors

    def reordered(lat, bound, node_cap=enumeration.DEFAULT_NODE_CAP):
        report = real(lat, bound, node_cap)
        if sys._getframe(1).f_code.co_name != "densest_sublattice":
            return report
        out = []
        for _, group in itertools.groupby(report.vectors, key=lambda t: t[1]):
            group, first = list(group), []
            for t in group:
                if all(lat.inner(t[0], o[0]) == 0 for o in first):
                    first.append(t)
            out += first + [t for t in group if t not in first]
        return type(report)(report.bound, tuple(out))

    monkeypatch.setattr(enumeration, "enumerate_short_vectors", reordered)


def test_span_leaf_rule_keeps_only_saturated_ties_at_k_le_4(monkeypatch):
    """At k <= 4 a DFS leaf is judged by its span determinant alone and its
    span's HNF is recorded as the tie, with no saturation: a span S of index
    > 1 in its saturation M has det M = det S / index^2 < det S, and the DFS
    reaches a basis of M attaining its minima, so S is never a final tie.

    The leaf's `linalg.hnf` call is wrapped to saturate the rows it gets and
    count those of index > 1.  In the pool's own (norm, coordinates) order
    a spanning set of the glued Z^4 comes before each of its frames, so none
    passes the leaf test; the argument uses only the norm order, so the test
    also puts orthogonal vectors first within each norm, where index-2
    frames do pass first.  Either way the result is the brute force over a coefficient box
    (`_box_densest`), at the greedy budget and at four times it, which
    admits the frames (det 1 on the glued Z^4 of det 1/4)."""
    from slopekit.enumeration import _greedy_rank_k_det

    real_hnf = linalg.hnf
    indices = []

    def counting_hnf(rows):
        import sys

        if sys._getframe(1).f_code.co_name == "dfs":
            indices.append(linalg.saturate(rows)[0])
        return real_hnf(rows)

    monkeypatch.setattr(linalg, "hnf", counting_hnf)
    cases = []
    for lat in _span_rule_corpus():
        for k in (2, 3, 4):
            want = _box_densest(lat, k, 1)
            greedy = _greedy_rank_k_det(lat, k)
            for budget in (greedy, 4 * greedy):
                sub = densest_sublattice(lat, k, budget)
                assert (sub.det(), sub.basis) == want
                cases.append((lat, k, budget, want))
    assert indices and set(indices) == {1}

    _orthogonal_ties_first(monkeypatch)
    indices.clear()
    for lat, k, budget, want in cases:
        sub = densest_sublattice(lat, k, budget)
        assert (sub.det(), sub.basis) == want
    assert indices.count(2) >= 4 and set(indices) == {1, 2}


def test_saturation_leaf_rule_from_k_5():
    """From k = 5 on the successive minima need not span the sublattice M
    attaining them, so a leaf is judged by its saturation.  On the glued
    Z^5 of `_half_glued_z5`, d_5 = 1/4, but its minima e_1..e_5 span an
    index-2 sublattice of det 1.  Restricted to those minima (a pool cut
    down to the norm-1 layer), the search still finds M through its
    saturation rule, while the span determinant alone would find nothing at
    budget 1/4 and, at budget 1, a non-saturated span of det 1.  (On the
    full pool a glued basis e_1..e_4, h lies within the Hermite bound, so
    there both rules agree; the cut pool is the one the k <= 4 argument
    needs.)"""
    import sys

    from slopekit import enumeration

    rng = random.Random(227)
    real_enum, real_sat = enumeration.enumerate_short_vectors, linalg.saturate

    def minima_only(lat, bound, node_cap=enumeration.DEFAULT_NODE_CAP):
        report = real_enum(lat, bound, node_cap)
        if sys._getframe(1).f_code.co_name != "densest_sublattice":
            return report
        least = report.vectors[0][1]
        return type(report)(report.bound, tuple(t for t in report.vectors if t[1] == least))

    def span_rule(rows):
        return 1, tuple(map(tuple, rows))

    for lat in (_half_glued_z5([0, 0, 0, 0, 0, 3]), _change_basis(rng, _half_glued_z5([1, 0, 0, 0, 0, 2]))):
        want = densest_sublattice(lat, 5, F(1, 4))
        assert want.det() == F(1, 4) and want.basis == want.saturation().basis
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "enumerate_short_vectors", minima_only)
            for budget in (F(1, 4), F(1)):
                sub = densest_sublattice(lat, 5, budget)
                assert (sub.det(), sub.basis) == (want.det(), want.basis)
            mp.setattr(linalg, "saturate", span_rule)
            assert densest_sublattice(lat, 5, F(1, 4)) is None
            wrong = densest_sublattice(lat, 5, F(1))
        assert wrong.det() == 1 and real_sat(wrong.basis)[0] == 2


def _brute_force_densest(lat, k, det_bound):
    """Least determinant and least HNF among the saturations of all k-subsets
    of the vectors within the LLL radius 2^(k(k-1)/2) * det_bound / min^(k-1),
    which holds a basis of every rank-k sublattice of det <= det_bound."""
    from itertools import combinations
    from math import gcd

    r = lat.rank
    bound = F(2) ** (k * (k - 1) // 2) * det_bound / minimum_sq(lat) ** (k - 1)
    pool = [v for v, _ in enumerate_short_vectors(lat, bound).vectors]
    gv = {v: [sum(x * y for x, y in zip(row, v)) for row in lat.gram] for v in pool}
    best, ties = None, set()
    for rows in combinations(pool, k):
        span_det = linalg.det_bareiss(
            [[sum(x * y for x, y in zip(v, gv[w])) for w in rows] for v in rows]
        )
        if span_det == 0:
            continue
        # [saturation : span] is the gcd of the maximal minors
        index = gcd(*(
            linalg.det_int([[v[c] for c in cols] for v in rows])
            for cols in combinations(range(r), k)
        ))
        d = span_det / index**2
        if best is None or d < best:
            best, ties = d, set()
        if d == best:
            # the saturation: the integer kernel of the integer kernel
            ties.add(linalg.int_kernel_saturated(linalg.int_kernel_saturated(rows, r), r))
    return best, min(ties)


def test_densest_sublattice_brute_force_rank_le_4():
    """Every k on rank <= 4.  Hyperplane pools of random rank-4 lattices run to
    hundreds of vectors at the LLL radius (28 and 40 for A3 + <7> and
    A3 + <5>), so rank-4 k = 3 uses those two; Rankin duality covers the
    random ones.  Each case is searched at the greedy budget, at d_k, the
    least rank-k determinant, which gives the same minimizer, and 1 % below
    d_k, which gives None."""
    from slopekit.enumeration import _greedy_rank_k_det

    def check(lat, k):
        budget = _greedy_rank_k_det(lat, k)
        sub = densest_sublattice(lat, k, budget)
        want = _brute_force_densest(lat, k, sub.det())
        assert (sub.det(), sub.hnf_basis()) == want
        at_d_k = densest_sublattice(lat, k, want[0])
        assert (at_d_k.det(), at_d_k.hnf_basis()) == want
        assert densest_sublattice(lat, k, want[0] * F(99, 100)) is None

    for lat, ks in _brute_force_corpus():
        for k in ks:
            check(lat, k)


def _brute_force_corpus():
    """The (lattice, ranks k) pairs of the brute-force densest-sublattice
    test, drawn in order from one seeded generator."""
    a3 = EuclideanLattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    rng = random.Random(109)
    lats = [random_lattice(rng, r) for r in (2, 2, 3, 3, 3)]
    lats += [a3.orthogonal_sum(unit_lattice(1).scale(c)) for c in (7, 5)]
    for lat in lats:
        lat = _change_basis(rng, lat)
        yield lat, range(1, lat.rank)
    for _ in range(3):
        yield random_lattice(rng, 4), (1, 2)


def test_densest_sublattice_hands_over_its_proved_det():
    """The sublattice that the DFS of `densest_sublattice` (1 < k < r)
    returns carries the determinant the search proved, inc / L^k, as the
    memo of `det()`; on the brute-force corpus, at the greedy budget, that
    memo equals the determinant of the induced Gram matrix B G B^T."""
    from slopekit.enumeration import _greedy_rank_k_det

    cases = [(lat, k) for lat, ks in _brute_force_corpus() for k in ks if k > 1]
    assert len(cases) == 10
    for lat, k in cases:
        sub = densest_sublattice(lat, k, _greedy_rank_k_det(lat, k))
        b = linalg.mat(sub.basis)
        induced = linalg.matmul(linalg.matmul(b, lat.gram), linalg.transpose(b))
        assert sub._det is not None and sub._det == linalg.det_bareiss(induced)


def test_mu_max_invariant_under_signed_permutations():
    rng = random.Random(113)
    for r1, r2 in ((2, 2), (1, 5), (2, 3), (3, 2), (2, 2), (5, 1), (2, 3)):
        t = random_lattice(rng, r1).tensor(random_lattice(rng, r2))
        n = t.rank
        perm = rng.sample(range(n), n)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        p = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
        pm = linalg.mat(p)
        moved = EuclideanLattice(linalg.matmul(linalg.matmul(pm, t.gram), linalg.transpose(pm)))
        a, b = mu_max(t), mu_max(moved)
        assert a.certified and b.certified
        assert a.value == b.value
        assert a.witness.rank == b.witness.rank


# ---------------------------------------------------------------------------
# The scaled-integer Fincke-Pohst traversal and dense-sublattice DFS against
# the Fraction versions they replaced.


def _reference_enumerate(lat, bound, node_cap):
    """Fincke-Pohst as first written: a Fraction centre and radius at every
    node.  Returns the sorted (coords, squared length) pairs."""
    from test_quadratic import _reference_int_range_bounds

    bound = F(bound)
    reduced, u = lll_reduce(lat)
    n = lat.rank
    mu, b = _gso(reduced.gram)
    found = {}
    x = [0] * n
    nodes = 0

    def recurse(level, remaining, top_zero):
        nonlocal nodes
        if level < 0:
            if any(x):
                coords = tuple(sum(x[i] * u[i][j] for i in range(n)) for j in range(n))
                if next(c for c in coords if c) < 0:
                    coords = tuple(-c for c in coords)
                found[coords] = bound - remaining
            return
        c = sum(mu[j][level] * x[j] for j in range(level + 1, n))
        lo, hi = _reference_int_range_bounds(c, remaining / b[level])
        if top_zero:
            lo = max(lo, 0)
        for xi in range(lo, hi + 1):
            nodes += 1
            if nodes > node_cap:
                raise EnumerationCapExceeded(node_cap)
            x[level] = xi
            recurse(level - 1, remaining - b[level] * (xi + c) ** 2, top_zero and xi == 0)
        x[level] = 0

    recurse(n - 1, bound, True)
    return tuple(sorted(found.items(), key=lambda t: (t[1], t[0])))


def _reference_densest(lat, k, det_budget, node_cap):
    """densest_sublattice as first written: Fraction norms and level bounds,
    and det_int on the fresh Gram matrix of every candidate."""

    def _first_independent_subset(pool, k):
        rows = []
        for v in pool:
            cand = rows + [v]
            if len(linalg.hnf(cand)) == len(cand):
                rows.append(v)
                if len(rows) == k:
                    return rows
        return None

    det_budget = F(det_budget)
    r = lat.rank
    if k == r:
        return lat.full_sublattice()
    reduced, _ = lll_reduce(lat)
    min_sq = _reference_enumerate(lat, min(reduced.gram[i][i] for i in range(r)), node_cap)[0][1]
    gamma_pow = hermite_constant_pow(k)
    b_sq = gamma_pow * det_budget / min_sq ** (k - 1)
    if b_sq < min_sq:
        return None
    vectors = _reference_enumerate(lat, b_sq, node_cap)
    pool = [v for v, _ in vectors]
    norms = [sq for _, sq in vectors]
    if k == 1:
        return Sublattice(lat, [pool[0]]).saturation()
    rows_indep = _first_independent_subset(pool, k)
    if rows_indep is None:
        return None
    incumbent = Sublattice(lat, rows_indep).saturation()
    incumbent_det = incumbent.det()
    ties = {incumbent.basis}
    gi, scale = lat.scaled_gram()

    def sdot(i, j):
        return sum(pool[i][a] * gi[a][c] * pool[j][c] for a in range(r) for c in range(r))

    nodes = 0

    def norm_level_bound(prod_so_far, chosen):
        bound = gamma_pow * incumbent_det / (prod_so_far * min_sq ** (k - chosen - 1))
        return min(bound, b_sq)

    def dfs(start, chosen, prod_so_far):
        nonlocal incumbent_det, ties, nodes
        level_bound = norm_level_bound(prod_so_far, len(chosen))
        for idx in range(start, len(pool)):
            nodes += 1
            if nodes > node_cap:
                raise EnumerationCapExceeded(node_cap)
            if norms[idx] > level_bound:
                break
            cand = chosen + [idx]
            d = linalg.det_int([[sdot(i, j) for j in cand] for i in cand])
            if d == 0:
                continue
            if len(cand) < k:
                dfs(idx + 1, cand, prod_so_far * norms[idx])
                continue
            if k <= 4 and F(d, scale**k) > incumbent_det:
                continue
            diag, cinv = _reference_diagonalize_int([pool[i] for i in cand])
            index = 1
            for i in range(k):
                index *= diag[i][i]
            sdet = F(d, scale**k * index**2)
            if sdet > incumbent_det:
                continue
            sat = linalg.hnf(cinv[:k])
            if sdet < incumbent_det:
                incumbent_det, ties = sdet, {sat}
                level_bound = norm_level_bound(prod_so_far, len(chosen))
            else:
                ties.add(sat)

    dfs(0, [], F(1))
    return Sublattice(lat, min(ties))


def _random_rational_lattice(rng, rank):
    """B diag(q) B^T: B a random invertible integer matrix, q positive with
    mixed denominators."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        if linalg.det_int(b):
            break
    q = [F(rng.randint(1, 9), rng.choice((1, 2, 3, 7, 12))) for _ in range(rank)]
    return EuclideanLattice(
        [[sum(x * c * y for x, c, y in zip(r1, q, r2)) for r2 in b] for r1 in b]
    )


def _capped(f, *args):
    try:
        return f(*args)
    except EnumerationCapExceeded as exc:
        return ("cap", exc.cap)


def test_scaled_integer_search_matches_fraction_reference():
    """Every pool, minimum, densest sublattice and cap hit is the same as the
    Fraction traversal and DFS give, on rank 1..5 and k <= 3 or k = r."""
    from slopekit.enumeration import DEFAULT_NODE_CAP, _greedy_rank_k_det

    def sub_key(sub):
        return sub if sub is None or isinstance(sub, tuple) else sub.hnf_basis()

    rng = random.Random(131)
    outcomes = []
    for t in range(60):
        r = 1 + t % 5
        lat = _random_rational_lattice(rng, r)
        cap = rng.choice((2, 5, 12, 40, DEFAULT_NODE_CAP))
        reduced, _ = lll_reduce(lat)
        bound = min(reduced.gram[i][i] for i in range(r)) * F(rng.randint(2, 8), 2)
        got = _capped(lambda: enumerate_short_vectors(lat, bound, cap).vectors)
        assert got == _capped(_reference_enumerate, lat, bound, cap)
        outcomes.append(got == ("cap", cap))
        for k in sorted({k for k in (1, 2, 3, r) if k <= r}):
            budget = _greedy_rank_k_det(lat, k) * rng.choice((1, 1, F(3, 2)))
            got = sub_key(_capped(densest_sublattice, lat, k, budget, cap))
            assert got == sub_key(_capped(_reference_densest, lat, k, budget, cap))
            outcomes.append(got == ("cap", cap))
    # both sides of every cap are exercised
    assert 0 < sum(outcomes) < len(outcomes)


# ---------------------------------------------------------------------------
# first_edge, against a brute-force hull and the earlier polygon reader.

class _Polygon(NamedTuple):
    points: tuple
    hull: tuple
    filtration: tuple
    certified: bool


def _reference_upper_hull(canopy, edges=None):
    """Reference copy of the earlier `upper_hull`: the upper convex hull of
    the origin and the points (k, lower_k), from each vertex the point of
    greatest slope and the largest rank among ties, stopped after `edges`
    edges; certified iff no upper_k lies above the hull continued past its
    last vertex."""
    pts = [(k, b.lower, b.witness) for k, b in enumerate(canopy, 1) if b.lower is not None]
    vertices, witnesses = [(0, pts[-1][1] * 0)], []
    i = 0
    while i < len(pts) and (edges is None or len(witnesses) < edges):
        (v, yv), best = vertices[-1], i
        for j in range(i + 1, len(pts)):
            (kj, yj, _), (kb, yb, _) = pts[j], pts[best]
            if (yj - yv) * (kb - v) >= (yb - yv) * (kj - v):
                best = j
        k, y, wit = pts[best]
        vertices.append((k, y))
        witnesses.append(wit)
        i = best + 1

    def above_hull(k, u) -> bool:
        j = next((j for j, (kv, _) in enumerate(vertices) if kv >= k), len(vertices) - 1)
        (ka, ya), (kb, yb) = vertices[j - 1], vertices[j]
        return (u - ya) * (kb - ka) > (yb - ya) * (k - ka)

    certified = True
    for k, b in enumerate(canopy, 1):
        if b.upper != b.lower:
            if b.lower is not None and b.upper < b.lower:
                raise AssertionError(f"rank-{k} upper bound fell below an exact degree")
            certified = certified and not above_hull(k, b.upper)
    points = tuple((k, y) for k, y, _ in pts)
    return _Polygon(points, tuple(vertices), tuple(witnesses), certified)


def _brute_force_hull(points, r):
    """Vertex ranks of the upper hull of the origin and the points {k: y}, and
    its height at each rank 1..r: a point is a vertex iff it lies strictly
    above every chord between two points whose ranks straddle it."""
    pts = {0: F(0), **points}

    def chord(i, j, k):
        return pts[i] + (pts[j] - pts[i]) * (k - i) / (j - i)

    vertices = [
        k for k in sorted(points)
        if all(chord(i, j, k) < pts[k] for i in pts if i < k for j in pts if j > k)
    ]
    height = {
        k: max([chord(i, j, k) for i in pts if i < k for j in pts if j >= k] + [pts.get(k, pts[0] - 99)])
        for k in range(1, r + 1)
    }
    return vertices, height


def test_first_edge_matches_brute_force(monkeypatch):
    """The first edge's vertex, witness, flag and upper bound on 400 random
    canopies with collinear ties and missing ranks, over Fractions and over
    LogRationals (y -> y*log 2), against a brute-force hull; an exact
    LogRational canopy costs one sign() per comparison of the first edge and
    no more.  A rank with neither a degree nor a bound, which a canopy
    proved below the edge, passes the certificate and is left out of an
    uncertified `upper`.  The reference copy of the earlier whole-polygon
    reader, which other tests compare with, matches the brute-force hull
    too."""
    from slopekit.enumeration import RankBound, first_edge

    signs = []
    real_sign = LogRational.sign
    monkeypatch.setattr(LogRational, "sign", lambda self: signs.append(1) or real_sign(self))
    rng = random.Random(151)
    ties = exact = 0
    blank = {True: 0, False: 0}  # results whose canopy has a rank with no bound, by flag
    for _ in range(400):
        r = rng.randint(1, 7)
        c = F(rng.randint(-3, 3), rng.randint(1, 2))
        all_exact = rng.random() < 0.3
        canopy, points = [], {}
        for k in range(1, r + 1):
            if k < r and not all_exact and rng.random() < 0.15:
                canopy.append(RankBound(None, None, None))
                continue
            lower = None
            if k == r or all_exact or rng.random() < 0.8:
                lower = k * c if rng.random() < 0.4 else F(rng.randint(-6, 6), rng.choice((1, 2)))
                points[k] = lower
            roll = rng.random()
            if all_exact or (roll < 0.4 and lower is not None):
                upper = lower
            else:
                upper = (lower if lower is not None else F(-6)) + F(rng.randint(0, 8), rng.choice((1, 2, 3)))
            canopy.append(RankBound(lower, ("w", k), upper))
        vertices, height = _brute_force_hull(points, r)
        ties += any(k not in vertices and points[k] == height[k] for k in points)
        bounded = [(k, b.upper) for k, b in enumerate(canopy, 1) if b.upper is not None]
        certified = all(u <= height[k] for k, u in bounded)
        mu = max(y / k for k, y in points.items())
        k1 = max(k for k, y in points.items() if y / k == mu)
        first_certified = all(u <= k * mu for k, u in bounded)
        upper = mu if first_certified else max(u / k for k, u in bounded)
        if len(bounded) < r:
            blank[first_certified] += 1
        log2 = [
            RankBound(*(None if x is None else LogRational(0, {2: x}) for x in (b.lower, None, b.upper)))
            ._replace(witness=b.witness)
            for b in canopy
        ]
        for deg, can in ((lambda y: y, canopy), (lambda y: LogRational(0, {2: y}), log2)):
            poly = _reference_upper_hull(can)
            assert poly.points == tuple((k, deg(y)) for k, y in sorted(points.items()))
            assert poly.hull == ((0, deg(F(0))),) + tuple((k, deg(points[k])) for k in vertices)
            assert poly.filtration == tuple(("w", k) for k in vertices)
            assert poly.certified == certified
            del signs[:]
            first = first_edge(can)
            assert first == CertifiedMuMax(deg(mu), ("w", k1), deg(upper), first_certified)
            if can is log2 and all_exact:
                assert len(signs) == len(points) - 1
                exact += 1
    assert ties >= 50 and exact >= 50 and min(blank.values()) >= 20
    with pytest.raises(AssertionError, match="rank-1 upper bound"):
        first_edge([RankBound(F(1), None, F(0)), RankBound(F(0), None, F(0))])


def _reference_mu_max(lat, node_cap):
    """Reference copy of the earlier mu_max: its own per-rank loop."""
    from slopekit.enumeration import _min_det_rank_k

    if lat.is_unimodular():
        return LogRational(0), lat.full_sublattice(), True
    best_slope, best_witness, certified = lat.slope(), lat.full_sublattice(), True
    try:
        for k in range(1, lat.rank):
            det_k, wit = _min_det_rank_k(lat, k, node_cap)
            slope_k = -half_log(det_k) / k
            cmp = (slope_k - best_slope).sign()
            if cmp > 0 or (cmp == 0 and wit.rank > best_witness.rank):
                best_slope, best_witness = slope_k, wit
    except EnumerationCapExceeded:
        certified = False
    return best_slope, best_witness, certified


def _reference_slope_filtration(lat, node_cap):
    """Reference copy of the earlier slope_filtration: points up to the first
    cap, then a monotone-chain hull that pops collinear points."""
    from slopekit.enumeration import _min_det_rank_k

    points, witnesses, certified = [], {}, True
    try:
        for k in range(1, lat.rank + 1):
            det_k, wit = _min_det_rank_k(lat, k, node_cap) if k < lat.rank else (lat.det(), lat.full_sublattice())
            points.append((k, -half_log(det_k)))
            witnesses[k] = wit
    except EnumerationCapExceeded:
        certified = False
    hull = [(0, LogRational(0))]
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if ((y1 - y0) * (pt[0] - x1) - (pt[1] - y1) * (x1 - x0)).sign() <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    chain = [witnesses[k].hnf_basis() for k, _ in hull[1:]]
    return tuple(points), tuple(hull), tuple(chain), certified


def test_polygon_readers_match_parent_reference():
    """mu_max is the earlier result on 312 seeded lattices and caps wherever
    that certified; slope_filtration is the earlier polygon (hull, chain and
    flag) wherever that certified.  Where the earlier result was uncertified,
    the integrality bound on the capped ranks, or the smaller searches of
    the quotients, may certify a result, which must then be the earlier one
    at the default cap.  An uncertified polygon is the vertices certified so
    far, each a maximal degree of the earlier polygon at the default cap,
    with their witnesses, and the rank-r point.  A lattice with
    det(L * G) = 1, L the Gram denominator, is searched at no rank: its
    polygon has the rank-r point alone, and the hull and chain of the
    earlier result at the default cap.  The first 300 lattices are of rank
    1-4 at caps 3, 12, 40 and the default; the quotient loop certifies some
    that the earlier polygon did not, so 12 rank-4 lattices at cap 3, which
    stay uncertified, close the corpus."""
    from slopekit.enumeration import DEFAULT_NODE_CAP

    rng = random.Random(157)
    corpus = []
    for t in range(300):
        r = 1 + t % 4
        lat = _random_rational_lattice(rng, r) if t % 3 else random_lattice(rng, r)
        if rng.random() < 0.3:
            lat = lat.dual()
        corpus.append((lat, rng.choice((3, 12, 40, DEFAULT_NODE_CAP, DEFAULT_NODE_CAP))))
    corpus += [(random_lattice(rng, 4, bound=3), 3) for _ in range(12)]
    certified_polygons = uncertified = unsearched = 0
    for lat, cap in corpus:
        r = lat.rank
        value, witness, cert = _reference_mu_max(lat, cap)
        res = mu_max(lat, cap)
        got = (res.value, res.witness.hnf_basis(), res.certified)
        if cert or not res.certified:
            assert got == (value, witness.hnf_basis(), cert)
        else:
            value, witness, cert = _reference_mu_max(lat, DEFAULT_NODE_CAP)
            assert got == (value, witness.hnf_basis(), cert)
        points, hull, chain, cert = _reference_slope_filtration(lat, cap)
        poly = slope_filtration(lat, cap)
        got = (poly.hull, tuple(s.hnf_basis() for s in poly.filtration), poly.certified)
        if linalg.det_int(lat.scaled_gram()[0]) == 1:
            # searched at no rank: the rank-r point alone, and the reference hull
            points, hull, chain, cert = _reference_slope_filtration(lat, DEFAULT_NODE_CAP)
            assert got == (hull, chain, True) and hull == ((0, LogRational(0)), (r, lat.degree())) and cert
            unsearched += 1
        elif cert:
            assert got == (hull, chain, cert)
            certified_polygons += 1
        elif poly.certified:
            points, hull, chain, cert = _reference_slope_filtration(lat, DEFAULT_NODE_CAP)
            assert got == (hull, chain, cert)
        else:
            points, _, _, _ = _reference_slope_filtration(lat, DEFAULT_NODE_CAP)
            assert poly.hull[-1] == (r, lat.degree())
            assert set(poly.hull[1:-1]) <= set(points)
            assert [s.rank for s in poly.filtration] == [k for k, _ in poly.hull[1:-1]]
            uncertified += 1
    assert certified_polygons >= 150 and uncertified >= 30 and unsearched >= 5


def test_capped_witness_of_slope_zero_merges_to_the_largest():
    """The second 3x3 tensor drawn after 42 random lattices of rank 2-8 from
    `random_lattice(Random(7), .)`: at node cap 200 `mu_max` certifies the
    value 0 with a rank-2 witness, since the cap leaves the higher ranks the
    integrality bound 0, on the edge; the largest sublattice of slope 0 has
    rank 6.  The merge rule of `quotient_polygon` still gives the default
    cap's polygon (0, 0), (6, 0), (9, -3 log 2), with the same chain."""
    rng = random.Random(7)
    for r in range(2, 9):
        for _ in range(6):
            random_lattice(rng, r)
    for a, b in ((2, 3), (2, 4), (3, 2), (2, 2), (3, 3), (3, 3)):
        for _ in range(4 if (a, b) != (3, 3) else 1):
            lat = random_lattice(rng, a).tensor(random_lattice(rng, b))
    capped, full = mu_max(lat, 200), mu_max(lat)
    assert capped.certified and full.certified and capped.value == full.value == 0
    assert (capped.witness.rank, full.witness.rank) == (2, 6)
    poly, want = slope_filtration(lat, 200), slope_filtration(lat)
    assert poly == want and poly.certified
    assert poly.hull == ((0, 0), (6, 0), (9, -3 * log_of_rational(2)))


def _unimodular(rng, n):
    """A random unimodular n x n integer matrix: row operations on I."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


def test_lattice_quotient_oracle():
    """`_lattice_quotient` on 240 seeded pairs (L, W), L of rank 2-6
    (integral, rational, and the duals of both) and W spanned by the first
    k rows of a random unimodular U.  deg(L/W) = deg L - deg W.  The Gram of
    L/W, in the basis dual to `linalg.int_kernel_saturated`'s basis of W's
    annihilator, is the Schur complement of W's block in the Gram of L on
    W's basis completed by lifts c_j of that dual basis (c = N^-1 U[k:], N
    the images of U[k:]).  The lift of L/W is L, and the lift of a saturated
    X of L/W (the first rows of a random unimodular) is saturated (its
    maximal minors have gcd 1), holds W, has rank k + rk X, and maps into
    the span of X."""
    from slopekit.enumeration import _lattice_quotient
    from test_linalg import _reference_det_int, _reference_inverse

    rng = random.Random(211)
    for t in range(240):
        r, kind = 2 + t % 5, t // 5 % 4
        lat = random_lattice(rng, r) if kind % 2 == 0 else _random_rational_lattice(rng, r)
        if kind >= 2:
            lat = lat.dual()
        k = rng.randint(1, r - 1)
        u = _unimodular(rng, r)
        w = Sublattice(lat, u[:k])
        q, lift = _lattice_quotient(lat, w)
        assert q.rank == r - k and q.degree() == lat.degree() - w.degree()
        ann = linalg.int_kernel_saturated(w.basis, r)

        def image(v):
            return [sum(a * x for a, x in zip(row, v)) for row in ann]

        ninv = _reference_inverse(linalg.mat([image(v) for v in u[k:]]))
        c = [[sum(x * v[col] for x, v in zip(row, u[k:])) for col in range(r)] for row in ninv]
        assert all(x.denominator == 1 for row in c for x in row)
        assert [image(v) for v in c] == [[int(i == j) for j in range(r - k)] for i in range(r - k)]
        basis = linalg.mat(list(w.basis) + c)
        g = linalg.matmul(linalg.matmul(basis, lat.gram), linalg.transpose(basis))
        a, b, d = [row[:k] for row in g[:k]], [row[k:] for row in g[:k]], [row[k:] for row in g[k:]]
        schur = linalg.sub(d, linalg.matmul(linalg.matmul(linalg.transpose(b), _reference_inverse(a)), b))
        assert q.gram == schur
        assert lift(q.full_sublattice()) == lat.full_sublattice()
        j = rng.randint(1, r - k)
        x = Sublattice(q, _unimodular(rng, r - k)[:j])
        up = lift(x)
        assert up.rank == k + j and up.contains(w)
        minors = [
            _reference_det_int([[row[col] for col in cols] for row in up.basis])
            for cols in itertools.combinations(range(r), k + j)
        ]
        assert math.gcd(*minors) == 1
        assert all(linalg.rank(linalg.mat(x.basis + (tuple(image(v)),))) == j for v in up.basis)


# ---------------------------------------------------------------------------
# Bound-first mu_max, against the full canopy.

def _full_canopy_mu_max(lat, node_cap):
    """Reference copy of mu_max before it searched bound-first: every rank
    up to the first node cap, the integrality bound past it, and the first
    edge of the earlier `upper_hull` (`_reference_upper_hull`)."""
    from slopekit.enumeration import RankBound, _min_det_rank_k

    r = lat.rank
    scale = lat.scaled_gram()[1]
    searched = r if lat.det() * scale**r != 1 else 1
    canopy = []
    try:
        for k in range(1, searched):
            det_k, wit = _min_det_rank_k(lat, k, node_cap)
            deg = -half_log(det_k)
            canopy.append(RankBound(deg, wit, deg))
    except EnumerationCapExceeded:
        pass
    canopy += [RankBound(None, None, k * half_log(scale)) for k in range(len(canopy) + 1, r)]
    canopy.append(RankBound(lat.degree(), lat.full_sublattice(), lat.degree()))
    poly = _reference_upper_hull(canopy, edges=1)
    (_, (k, deg)) = poly.hull
    return deg / k, poly.filtration[0].hnf_basis(), poly.certified


def test_bound_first_mu_max_matches_full_canopy(monkeypatch):
    """mu_max equals the full-canopy reference on 480 seeded lattices (random
    and rational of rank 2-4, duals, the 2x2, 2x3 and 3x2 tensors of the
    lattice-tensor benchmark, det(L * G) = 1 rescalings) at caps 3, 12, 40
    and the default, wherever the reference certified; a result only the
    bound-first search certifies is the reference's at the default cap.  Both
    rules fire: a rank skipped by its Minkowski floor, and a rank whose search
    up to C_k finds nothing."""
    from slopekit import enumeration as en

    real = en._min_det_rank_k
    calls = []
    nothing = "nothing at or below the cap"

    def counted(lat, k, node_cap, cap=None):
        try:
            out = real(lat, k, node_cap, cap)
        except EnumerationCapExceeded:
            calls.append((lat, k, cap, None))
            raise
        calls.append((lat, k, cap, nothing if out is None else out[0]))
        return out

    rng = random.Random(163)
    skips = caps = checked = newly = 0
    for t in range(480):
        kind = t % 6
        r = 2 + t % 3
        if kind == 0:
            lat = random_lattice(rng, r)
        elif kind in (1, 2):
            lat = _random_rational_lattice(rng, r)
        elif kind == 3:
            lat = _random_rational_lattice(rng, r).dual()
        elif kind == 4:
            r1, r2 = ((2, 2), (2, 3), (3, 2))[t // 6 % 3]  # the lattice-tensor shapes
            lat = random_lattice(rng, r1).tensor(random_lattice(rng, r2))
        else:  # det(L * G) = 1 with L = q
            lat = _change_basis(rng, unit_lattice(r)).scale(F(1, rng.randint(1, 6)))
        cap = rng.choice((3, 12, 40, en.DEFAULT_NODE_CAP))
        want = _full_canopy_mu_max(lat, cap)
        monkeypatch.setattr(en, "_min_det_rank_k", counted)
        del calls[:]
        try:
            res = mu_max(lat, cap)
        finally:
            monkeypatch.setattr(en, "_min_det_rank_k", real)
        got = (res.value, res.witness.hnf_basis(), res.certified)
        if want[2]:
            assert got == want
            checked += 1
        elif res.certified:
            want = _full_canopy_mu_max(lat, en.DEFAULT_NODE_CAP)
            assert want[2] and got == want
            newly += 1
        top = [(k, cap_k, det_k) for m, k, cap_k, det_k in calls if m is lat]
        caps += sum(det_k is nothing for _, _, det_k in top)
        if linalg.det_int(lat.scaled_gram()[0]) != 1:
            # every rank up to the first node cap is searched unless skipped
            last = next((k for k, _, det_k in top if det_k is None), lat.rank - 1)
            skips += last - len({k for k, _, _ in top if k <= last})
    assert skips >= 50 and caps >= 50 and checked >= 300 and newly > 0


def test_lattice_canopy_records_only_what_it_proved():
    """Every proper rank of the lattice canopy is one of three things, on 240
    seeded lattices (random and rational of rank 2-4, duals, the 2x2, 2x3
    and 3x2 tensors, det(L * G) = 1 rescalings) at node caps 3, 12, 40 and
    the default: exact, the degree of its witness, which is d_k; no bound,
    RankBound(None, None, None), where every rank-k determinant d has
    d^k1 > d_(k1)^k for the first edge's rank k1, so the rank lies strictly
    below the edge; or the integrality bound k/2 log L, from the first
    node-capped rank on, and at every rank when det(L * G) = 1.  The full
    rank is exact."""
    from slopekit.enumeration import DEFAULT_NODE_CAP, RankBound, _lattice_canopy, _min_det_rank_k, first_edge

    rng = random.Random(193)
    seen = {"exact": 0, "none": 0, "integrality": 0, "unit": 0}
    for t in range(240):
        kind, r = t % 6, 2 + t % 3
        if kind == 0:
            lat = random_lattice(rng, r)
        elif kind in (1, 2):
            lat = _random_rational_lattice(rng, r)
        elif kind == 3:
            lat = _random_rational_lattice(rng, r).dual()
        elif kind == 4:
            r1, r2 = ((2, 2), (2, 3), (3, 2))[t // 6 % 3]
            lat = random_lattice(rng, r1).tensor(random_lattice(rng, r2))
        else:  # det(L * G) = 1 with L = q
            lat = _change_basis(rng, unit_lattice(r)).scale(F(1, rng.randint(1, 6)))
        node_cap = (3, 12, 40, DEFAULT_NODE_CAP)[t // 6 % 4]
        canopy = _lattice_canopy(lat, node_cap)
        r, scale = lat.rank, lat.scaled_gram()[1]
        assert len(canopy) == r and canopy[-1] == RankBound(lat.degree(), lat.full_sublattice(), lat.degree())
        edge = first_edge(canopy).witness
        unit = capped = lat.det() * scale**r == 1
        seen["unit"] += unit
        for k, b in enumerate(canopy[:-1], 1):
            if b.lower is not None:
                assert not capped and b.upper == b.lower == -half_log(b.witness.det()) and b.witness.rank == k
                assert b.witness.det() == _min_det_rank_k(lat, k, DEFAULT_NODE_CAP)[0]
                seen["exact"] += 1
            elif b.upper is None:
                assert not unit and b.witness is None
                d_k = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP)[0]
                assert d_k**edge.rank > edge.det() ** k
                seen["none"] += 1
            else:
                assert b == RankBound(None, None, k * half_log(scale))
                capped = True
                seen["integrality"] += not unit
    assert seen["exact"] >= 150 and seen["none"] >= 100 and seen["integrality"] >= 80 and seen["unit"] >= 30


def test_rankin_witness_determinant_is_the_law():
    """At every rank k > r - k of 60 seeded lattices of rank 3-8 (integral,
    rational, duals, tensors), the determinant the Rankin witness carries
    by law, det L * d_(r-k)(L*), is that of a fresh Sublattice on its basis,
    built from the induced Gram."""
    from slopekit.enumeration import DEFAULT_NODE_CAP, _min_det_rank_k

    rng = random.Random(197)
    checked = 0
    for t in range(60):
        r = 3 + t % 6
        kind = t // 6 % 4
        if kind == 0:
            lat = random_lattice(rng, r)
        elif kind == 1:
            lat = _random_rational_lattice(rng, r)
        elif kind == 2:
            lat = _random_rational_lattice(rng, r).dual()
        elif r % 2 == 0:
            lat = random_lattice(rng, 2).tensor(random_lattice(rng, r // 2))
        else:
            lat = random_lattice(rng, r).scale(F(1, 3))
        for k in range(r // 2 + 1, r):
            det_k, wit = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP)
            assert wit.rank == k and det_k == wit.det() == Sublattice(lat, wit.basis).det()
            checked += 1
    assert checked >= 100


def test_minkowski_floors_are_sound():
    """F_k <= d_k at every proper rank of seeded lattices of rank 2-6, with
    equality at k = 1 and, from rank 3 on, at k = r - 1."""
    from slopekit.enumeration import DEFAULT_NODE_CAP, _min_det_rank_k, _minkowski_floors

    rng = random.Random(167)
    strict = 0
    for t in range(60):
        r = 2 + t % 5
        if r == 6:
            r1, r2 = rng.choice(((2, 3), (3, 2)))
            lat = random_lattice(rng, r1).tensor(random_lattice(rng, r2))
        elif t % 2:
            lat = _random_rational_lattice(rng, r)
        else:
            lat = random_lattice(rng, r)
        floors = _minkowski_floors(lat, DEFAULT_NODE_CAP)
        assert floors[0] is None and len(floors) == r
        for k in range(1, r):
            d_k = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP)[0]
            assert floors[k] <= d_k
            if k == 1 or k == r - 1:
                assert floors[k] == d_k
            strict += floors[k] < d_k
    assert strict >= 20


def test_gamma_bound_is_the_table_then_k_to_the_k():
    """_gamma_pow reads the exact Hermite table up to rank 8 and bounds
    gamma_k^k by k^k past it (gamma_k <= k, Minkowski)."""
    from slopekit.enumeration import _gamma_pow

    for k in range(1, 9):
        assert _gamma_pow(k) == hermite_constant_pow(k) <= k**k
    for k in range(9, 21):
        assert _gamma_pow(k) == k**k


def test_minkowski_floors_reach_every_rank_past_the_table():
    """A lattice of rank 18 has a floor at every proper rank, rank 9 (past
    the Hermite table on both sides) included: the unit lattice and a seeded
    3x6 tensor.  Each floor is exact at k = 1 and r - 1, and at most the
    determinant of the first k vectors of the LLL-reduced basis, a saturated
    rank-k sublattice (for the unit lattice that is d_k = 1)."""
    from slopekit.enumeration import DEFAULT_NODE_CAP, _min_det_rank_k, _minkowski_floors

    rng = random.Random(191)
    tensor = random_lattice(rng, 3).tensor(random_lattice(rng, 6))
    for lat in (unit_lattice(18), tensor):
        r = lat.rank
        floors = _minkowski_floors(lat, DEFAULT_NODE_CAP)
        assert floors[0] is None and None not in floors[1:]
        for k in (1, r - 1):
            assert floors[k] == _min_det_rank_k(lat, k, DEFAULT_NODE_CAP)[0]
        gi, scale = lll_reduce(lat)[0].scaled_gram()
        for k in range(1, r):
            assert floors[k] <= F(linalg.det_int([row[:k] for row in gi[:k]]), scale**k)


def test_densest_sublattice_past_the_table_prunes_by_the_hermite_bound():
    """At rank 9, a budget below min_sq^9 / 9^9 is below every rank-9
    determinant (gamma_9 <= 9), so the search returns None before it
    enumerates anything, well within a small node cap."""
    lat = random_lattice(random.Random(4), 10, 1)
    m = minimum_sq(lat)
    assert densest_sublattice(lat, 9, m**9 / F(9) ** 9 * F(99, 100), 10_000) is None


def test_root_ceil_is_the_least_rational_over_b():
    """For q = a/b and n >= 1, _root_ceil(q, n) = c/b with c the least
    integer such that c^n >= a * b^(n-1); an exact n-th power comes back as
    its root."""
    from slopekit.enumeration import _root_ceil

    rng = random.Random(173)
    for _ in range(500):
        n = rng.randint(1, 8)
        if rng.random() < 0.3:
            x, y = rng.randint(1, 10**4), rng.randint(1, 10**3)
            assert _root_ceil(F(x, y) ** n, n) == F(x, y)
            continue
        q = F(rng.randint(1, 10 ** rng.randint(1, 30)), rng.randint(1, 10 ** rng.randint(0, 12)))
        a, b = q.numerator, q.denominator
        t = a * b ** (n - 1)
        c = _root_ceil(q, n) * b
        assert c.denominator == 1
        c = c.numerator
        assert c**n >= t and (c - 1) ** n < t
        assert _root_ceil(q, n) ** n >= q


# An integral rank-5 lattice whose least rank-2 determinant is not that of two
# vectors of its LLL-reduced basis, so the rank-2 search, and the rank-3
# search of its dual (Rankin), must find it.
_NON_GREEDY_RANK5 = EuclideanLattice([
    [44, 7, -10, 24, 0],
    [7, 21, -8, -6, -13],
    [-10, -8, 67, -36, -9],
    [24, -6, -36, 47, 27],
    [0, -13, -9, 27, 45],
])


def test_capped_min_det_is_exact_up_to_its_cap():
    """_min_det_rank_k with a cap: at cap = d_k it returns d_k, with a witness
    of that determinant, and below d_k it returns None, save at ranks 1 and
    r - 1, which give d_k above the cap; at Rankin ranks (k > r - k) the cap
    reaches the dual as cap / det L.
    Seeded lattices of rank 2-5, their duals and rescalings by 1/3, and a
    lattice, its dual and a rescaling where the greedy incumbent of the rank
    actually searched is not the minimum."""
    from slopekit.enumeration import DEFAULT_NODE_CAP, _greedy_rank_k_det, _min_det_rank_k

    rng = random.Random(179)
    lats = []
    for t in range(90):
        r = 2 + t % 4
        lat = _random_rational_lattice(rng, r) if t % 2 else random_lattice(rng, r)
        lats.append((lat, lat.dual(), lat.scale(F(1, 3)))[t % 3])
    lats += [_NON_GREEDY_RANK5, _NON_GREEDY_RANK5.dual(), _NON_GREEDY_RANK5.dual().scale(F(1, 3))]
    rankin = not_greedy = 0
    for lat in lats:
        r = lat.rank
        for k in range(1, r):
            d_k = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP)[0]
            det_k, wit = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP, d_k)
            assert det_k == d_k == wit.det() and wit.rank == k
            below = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP, d_k * F(99, 100))
            assert below is None if 1 < k < r - 1 else below[0] == d_k
            rankin += k > r - k
            searched = (lat.dual(), r - k, lat.det()) if k > r - k else (lat, k, 1)
            not_greedy += _greedy_rank_k_det(*searched[:2]) * searched[2] > d_k
    assert rankin >= 50 and not_greedy >= 3


def _greedy_incumbent(lat, k):
    """The greedy incumbent with its witness, as `_greedy_rank_k_det` built
    it before it returned the budget alone: the first k-subset of the
    LLL-reduced basis of least determinant, as a Sublattice."""
    reduced, u = lll_reduce(lat)
    gi, scale = reduced.scaled_gram()
    d, subset = min(
        (linalg.det_int([[gi[i][j] for j in s] for i in s]), s) for s in itertools.combinations(range(lat.rank), k)
    )
    return F(d, scale**k), Sublattice(lat, [u[i] for i in subset])


def _searched_min_det_rank_k(lat, k, node_cap, cap=None):
    """Reference copy of `_min_det_rank_k` as it was before ranks 1 and
    r - 1 were read off the shortest vectors: the greedy incumbent, the
    budget min(incumbent, cap), and `densest_sublattice`."""
    r = lat.rank
    if k == r:
        return lat.det(), lat.full_sublattice()
    if k > r - k:
        dual_cap = None if cap is None else cap / lat.det()
        _, dwit = _searched_min_det_rank_k(lat.dual(), r - k, node_cap, dual_cap)
        wit = Sublattice(lat, linalg.int_kernel_saturated(dwit.basis, r))
        return wit.det(), wit
    greedy = _greedy_incumbent(lat, k)
    budget = greedy[0] if cap is None else min(greedy[0], cap)
    sub = densest_sublattice(lat, k, budget, node_cap)
    if sub is None or sub.det() > budget:
        return greedy
    return sub.det(), sub


def test_exact_ranks_match_the_search():
    """At k = 1 and k = r - 1, `_min_det_rank_k` gives the value and HNF
    witness of the search it replaced, on 320 seeded lattices of rank 2-6
    (integral, rational, duals, tensors) at node caps 3, 12, 40 and the
    default, and at caps d_k and above.  Below d_k the search returned its
    greedy incumbent; now d_k itself comes back, still above the cap, with a
    witness of that determinant."""
    from slopekit.enumeration import DEFAULT_NODE_CAP, _min_det_rank_k

    def key(out):
        return out if out[0] == "cap" else (out[0], out[1].hnf_basis())

    rng = random.Random(181)
    node_capped = below = differs = 0
    for t in range(320):
        r, kind = 2 + t % 5, t // 5 % 4
        if kind == 0:
            lat = random_lattice(rng, r)
        elif kind == 1:
            lat = _random_rational_lattice(rng, r)
        elif kind == 2:
            lat = _random_rational_lattice(rng, r).dual()
        elif r in (4, 6):
            lat = random_lattice(rng, 2).tensor(random_lattice(rng, r // 2))
        else:
            lat = random_lattice(rng, r).scale(F(1, 3))
        node_cap = rng.choice((3, 12, 40, DEFAULT_NODE_CAP))
        for k in sorted({1, r - 1}):
            want = _capped(_searched_min_det_rank_k, lat, k, node_cap)
            assert key(_capped(_min_det_rank_k, lat, k, node_cap)) == key(want)
            node_capped += want[0] == "cap"
            d_k = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP)[0]
            for cap in (d_k, d_k * 2, d_k * F(99, 100), d_k / 3):
                want = _searched_min_det_rank_k(lat, k, DEFAULT_NODE_CAP, cap)
                det_k, wit = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP, cap)
                if cap >= d_k:
                    assert (det_k, wit.hnf_basis()) == key(want)
                    continue
                assert det_k == d_k == wit.det() > cap and wit.rank == k
                assert want[0] > cap
                below += 1
                differs += key(want) != (det_k, wit.hnf_basis())
    assert node_capped >= 60 and below >= 600 and differs >= 60


def test_exact_ranks_run_no_search(monkeypatch):
    """Ranks 1 and r - 1 call neither the greedy incumbent nor the search,
    directly or from `mu_max` and `slope_filtration`; so a lattice of rank 2
    or 3 is searched at no rank."""
    from slopekit import enumeration as en

    def refuse(*args):
        raise AssertionError("an exact rank was searched")

    monkeypatch.setattr(en, "densest_sublattice", refuse)
    monkeypatch.setattr(en, "_greedy_rank_k_det", refuse)
    rng = random.Random(191)
    for t in range(60):
        r = 2 + t % 5
        lat = _random_rational_lattice(rng, r) if t % 2 else random_lattice(rng, r)
        for k in {1, r - 1}:
            det_k, wit = en._min_det_rank_k(lat, k, en.DEFAULT_NODE_CAP, F(1, 10**9))
            assert det_k == wit.det()
        if r <= 3:
            assert mu_max(lat).certified
            assert slope_filtration(lat).certified


_G3 = EuclideanLattice([[5, 2, 1], [2, 6, 2], [1, 2, 7]])  # uncertified at node cap 3


def test_uncertified_mu_max_carries_an_upper_bound():
    """`first_edge` gives a lattice result an upper bound: the value when
    certified, and otherwise the largest upper_k / k of the canopy, which
    is at least the certified mu_max and above the capped value."""
    capped, full = mu_max(_G3, 3), mu_max(_G3)
    assert full.certified and full.upper == full.value
    assert not capped.certified and capped.value <= full.value <= capped.upper
    assert capped.upper > capped.value
    for lat in (a2_lattice(), e8_lattice(), _G3.dual()):
        res = mu_max(lat)
        assert res.certified and res.upper == res.value


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: enumerate_short_vectors(_G3, 0), ValueError, "bound must be positive"),
        (lambda: densest_sublattice(_G3, 0, 1), ValueError, r"rank 0 out of range 1\.\.3"),
        (lambda: densest_sublattice(_G3, 4, 1), ValueError, r"rank 4 out of range 1\.\.3"),
        (lambda: mu_min(_G3, 3), EnumerationCapExceeded, "enumeration node cap 3 exceeded"),
        (lambda: is_semistable(_G3, 3), EnumerationCapExceeded, "enumeration node cap 3 exceeded"),
    ],
    ids=["short-vectors-bound-0", "densest-k-0", "densest-k-past-rank", "mu-min-uncertified",
         "is-semistable-uncertified"],
)
def test_search_rejections(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_rank_one_densest_sublattice_is_the_memoized_minimum():
    """`densest_sublattice(lat, 1, budget)` searches nothing: it is the
    shortest vector of `minimum_sq`, with its determinant proved, at every
    budget >= min_sq, and None below.  That is pool[0] of the enumeration
    up to the budget, the answer of the pool search, on seeded lattices of
    rank 2-6 at budgets min - 1/7, min, 2*min and 5*min."""
    from slopekit import harness

    rng = random.Random(4)
    nones = 0
    for _ in range(200):
        lat = harness.random_lattice(rng, rng.randint(2, 6))
        m = minimum_sq(lat)
        for budget in (m - F(1, 7), m, 2 * m, 5 * m):
            got = densest_sublattice(lat, 1, budget)
            pool = enumerate_short_vectors(lat, budget).vectors
            if not pool:
                assert got is None
                nones += 1
                continue
            vector, length = pool[0]
            assert got == Sublattice(lat, [vector]) and got._det == length == m == got.det()
    assert nones == 200


def test_every_witness_is_its_own_hnf():
    """Sublattices built from rows already in HNF skip the reduction
    (`Sublattice._of_hnf`), so every witness of `mu_max`, `densest_sublattice`
    and `slope_filtration` must still be `linalg.hnf` of itself, and a
    determinant it carries must be that of its induced Gram, recomputed.
    `mu_max` and `slope_filtration` run on the golden lattices at the
    default cap and at cap 200, `mu_max` on the golden tensors at caps 200
    and 2,000 (the default cap takes minutes there), and
    `densest_sublattice` on the brute-force corpus at every rank."""
    from make_golden import lattices, tensors

    from slopekit.enumeration import _greedy_rank_k_det

    def check(w):
        assert linalg.hnf(w.basis) == w.basis
        if w._det is None:
            return 0
        b = linalg.mat(w.basis)
        assert w._det == linalg.det_bareiss(linalg.matmul(linalg.matmul(b, w.ambient.gram), linalg.transpose(b)))
        return 1

    single, big = lattices(), tensors()
    proved = 0
    for caps, lats in (((None, 200), single), ((200, 2000), big)):
        for cap in caps:
            args = () if cap is None else (cap,)
            for lat in lats:
                proved += check(mu_max(lat, *args).witness)
                if lats is single:
                    for w in slope_filtration(lat, *args).filtration:
                        check(w)
    for lat, ks in _brute_force_corpus():
        for k in ks:
            proved += check(densest_sublattice(lat, k, _greedy_rank_k_det(lat, k)))
    assert proved > 100
