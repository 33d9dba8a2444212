import itertools
import random
from fractions import Fraction

import pytest

from slopekit import linalg
from slopekit.exactval import LogRational, half_log, log_of_rational
from slopekit.enumeration import (
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
        value = enumeration._minimum_sq.__wrapped__(lat, enumeration.DEFAULT_NODE_CAP)
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
    assert poly.certified and poly.points == ((8, LogRational(0)),)
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
            assert poly.points == ((3, lat.degree()),)
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
        budget, _ = _greedy_rank_k_det(lat, 2)
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
        b1, _ = _greedy_rank_k_det(lat, 2)
        d_direct = densest_sublattice(lat, 2, b1).det()
        dual = lat.dual()
        b2, _ = _greedy_rank_k_det(dual, 2)
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
    rng = random.Random(103)
    for t in range(50):
        lat = random_lattice(rng, 2 + t % 5, bound=5)
        if t % 3 == 0:
            lat = lat.dual()
        red, u = lll_reduce(lat)
        assert (red.gram, u) == _reference_lll(lat)


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
        budget, _ = _greedy_rank_k_det(lat, k)
        sub = densest_sublattice(lat, k, budget)
        assert sub.det() == lat.det() * minimum_sq(lat.dual())
        assert sub.same_sublattice(sub.saturation())
    # the glued Z^5 + 1/2(1,...,1) summand is the densest hyperplane
    assert sub.det() == F(1, 4)


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
    random ones."""
    from slopekit.enumeration import _greedy_rank_k_det

    a3 = EuclideanLattice([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    rng = random.Random(109)
    lats = [random_lattice(rng, r) for r in (2, 2, 3, 3, 3)]
    lats += [a3.orthogonal_sum(unit_lattice(1).scale(c)) for c in (7, 5)]
    for lat in lats:
        lat = _change_basis(rng, lat)
        for k in range(1, lat.rank):
            budget, _ = _greedy_rank_k_det(lat, k)
            sub = densest_sublattice(lat, k, budget)
            assert (sub.det(), sub.hnf_basis()) == _brute_force_densest(lat, k, sub.det())
    for _ in range(3):
        lat = random_lattice(rng, 4)
        for k in (1, 2):
            budget, _ = _greedy_rank_k_det(lat, k)
            sub = densest_sublattice(lat, k, budget)
            assert (sub.det(), sub.hnf_basis()) == _brute_force_densest(lat, k, sub.det())


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
    from slopekit.enumeration import _first_independent_subset

    det_budget = F(det_budget)
    r = lat.rank
    if k == r:
        return lat.full_sublattice()
    reduced, _ = lll_reduce(lat)
    min_sq = _reference_enumerate(lat, min(reduced.gram[i][i] for i in range(r)), node_cap)[0][1]
    gamma_pow = hermite_constant_pow(k) if k <= 8 else None
    if gamma_pow is None:
        b_sq = F(2) ** (k * (k - 1) // 2) * det_budget / min_sq ** (k - 1)
    else:
        b_sq = gamma_pow * det_budget / min_sq ** (k - 1)
    span_is_basis = k <= 4 or gamma_pow is None
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
        if gamma_pow is None:
            return b_sq
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
            if span_is_basis and F(d, scale**k) > incumbent_det:
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
            budget = _greedy_rank_k_det(lat, k)[0] * rng.choice((1, 1, F(3, 2)))
            got = sub_key(_capped(densest_sublattice, lat, k, budget, cap))
            assert got == sub_key(_capped(_reference_densest, lat, k, budget, cap))
            outcomes.append(got == ("cap", cap))
    # both sides of every cap are exercised
    assert 0 < sum(outcomes) < len(outcomes)


# ---------------------------------------------------------------------------
# upper_hull, against a brute-force hull and the earlier readers.

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


def test_upper_hull_matches_brute_force(monkeypatch):
    """Vertices, witnesses and both certification rules of `upper_hull` on 400
    random canopies with collinear ties and missing ranks, over
    Fractions and over LogRationals (y -> y*log 2); an exact LogRational
    canopy costs one sign() per comparison of the first edge and no more."""
    from slopekit.enumeration import RankBound, upper_hull

    signs = []
    real_sign = LogRational.sign
    monkeypatch.setattr(LogRational, "sign", lambda self: signs.append(1) or real_sign(self))
    rng = random.Random(151)
    ties = exact = 0
    for _ in range(400):
        r = rng.randint(1, 7)
        c = F(rng.randint(-3, 3), rng.randint(1, 2))
        all_exact = rng.random() < 0.3
        canopy, points = [], {}
        for k in range(1, r + 1):
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
        certified = all(b.upper <= height[k] for k, b in enumerate(canopy, 1))
        mu = max(y / k for k, y in points.items())
        k1 = max(k for k, y in points.items() if y / k == mu)
        first_certified = all(b.upper <= k * mu for k, b in enumerate(canopy, 1))
        log2 = [
            RankBound(*(None if x is None else LogRational(0, {2: x}) for x in (b.lower, None, b.upper)))
            ._replace(witness=b.witness)
            for b in canopy
        ]
        for deg, can in ((lambda y: y, canopy), (lambda y: LogRational(0, {2: y}), log2)):
            poly = upper_hull(can)
            assert poly.points == tuple((k, deg(y)) for k, y in sorted(points.items()))
            assert poly.hull == ((0, deg(F(0))),) + tuple((k, deg(points[k])) for k in vertices)
            assert poly.filtration == tuple(("w", k) for k in vertices)
            assert poly.certified == certified
            del signs[:]
            first = upper_hull(can, edges=1)
            assert first.hull == ((0, deg(F(0))), (k1, deg(points[k1])))
            assert first.filtration == (("w", k1),)
            assert first.certified == first_certified
            if can is log2 and all_exact:
                assert len(signs) == len(points) - 1
                exact += 1
    assert ties >= 50 and exact >= 50
    with pytest.raises(AssertionError, match="rank-1 upper bound"):
        upper_hull([RankBound(F(1), None, F(0)), RankBound(F(0), None, F(0))])


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
            det_k, wit = _min_det_rank_k(lat, k, node_cap)
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
    """mu_max is the earlier result on 300 seeded lattices and caps wherever
    that certified; slope_filtration is the earlier polygon wherever that
    certified, and otherwise adds only the rank-r point.  Where the earlier
    result was uncertified, the integrality bound on the capped ranks may
    certify a result, which must then be the earlier one at the default cap
    (for the polygon: its hull and chain, with the points found a subset of
    its points).  A lattice with det(L * G) = 1, L the Gram denominator, is
    searched at no rank: its polygon has the rank-r point alone, and the hull
    and chain of the earlier result at the default cap."""
    from slopekit.enumeration import DEFAULT_NODE_CAP

    rng = random.Random(157)
    certified_polygons = uncertified = unsearched = 0
    for t in range(300):
        r = 1 + t % 4
        lat = _random_rational_lattice(rng, r) if t % 3 else random_lattice(rng, r)
        if rng.random() < 0.3:
            lat = lat.dual()
        cap = rng.choice((3, 12, 40, DEFAULT_NODE_CAP, DEFAULT_NODE_CAP))
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
        got = (poly.points, poly.hull, tuple(s.hnf_basis() for s in poly.filtration), poly.certified)
        if linalg.det_int(lat.scaled_gram()[0]) == 1:
            # searched at no rank: the rank-r point alone, and the reference hull
            points, hull, chain, cert = _reference_slope_filtration(lat, DEFAULT_NODE_CAP)
            assert got == (((r, lat.degree()),), hull, chain, True) and cert
            unsearched += 1
        elif cert:
            assert got == (points, hull, chain, cert)
            certified_polygons += 1
        elif poly.certified:
            points, hull, chain, cert = _reference_slope_filtration(lat, DEFAULT_NODE_CAP)
            assert got[1:] == (hull, chain, cert)
            assert set(poly.points) <= set(points)
        else:
            assert poly.points == points + ((r, lat.degree()),)
            assert poly.hull[-1] == (r, lat.degree())
            uncertified += 1
    assert certified_polygons >= 150 and uncertified >= 30 and unsearched >= 5


# ---------------------------------------------------------------------------
# Bound-first mu_max, against the full canopy.

def _full_canopy_mu_max(lat, node_cap):
    """Reference copy of mu_max before it searched bound-first: every rank
    up to the first node cap, the integrality bound past it, and the first
    edge of `upper_hull`."""
    from slopekit.enumeration import RankBound, _min_det_rank_k, upper_hull

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
    poly = upper_hull(canopy, edges=1)
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

    def counted(lat, k, node_cap, cap=None):
        try:
            out = real(lat, k, node_cap, cap)
        except EnumerationCapExceeded:
            calls.append((lat, k, cap, None))
            raise
        calls.append((lat, k, cap, out[0]))
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
        caps += sum(det_k is not None and cap_k is not None and det_k > cap_k for _, cap_k, det_k in top)
        if linalg.det_int(lat.scaled_gram()[0]) != 1:
            # every rank up to the first node cap is searched unless skipped
            last = next((k for k, _, det_k in top if det_k is None), lat.rank - 1)
            skips += last - len({k for k, _, _ in top if k <= last})
    assert skips >= 50 and caps >= 50 and checked >= 300 and newly > 0


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
    of that determinant, and below d_k it returns a determinant above the
    cap; at Rankin ranks (k > r - k) the cap reaches the dual as cap / det L.
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
            below = _min_det_rank_k(lat, k, DEFAULT_NODE_CAP, d_k * F(99, 100))[0]
            assert below > d_k * F(99, 100)
            rankin += k > r - k
            searched = (lat.dual(), r - k, lat.det()) if k > r - k else (lat, k, 1)
            not_greedy += _greedy_rank_k_det(*searched[:2])[0] * searched[2] > d_k
    assert rankin >= 50 and not_greedy >= 3
