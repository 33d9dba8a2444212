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

F = Fraction


def random_lattice(rng, rank, bound=2):
    while True:
        b = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rank)]
        if linalg.det_bareiss(linalg.mat(b)) != 0:
            gram = [[sum(x * y for x, y in zip(r1, r2)) for r2 in b] for r1 in b]
            return EuclideanLattice(gram)


def is_lll_reduced(lat, delta=F(3, 4)):
    from slopekit.enumeration import _gso

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


def test_fast_path_matches_search():
    rng = random.Random(47)
    # random unimodular lattices: U U^T for unimodular U
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
        lat = EuclideanLattice(gram)
        assert lat.is_unimodular()
        fast = mu_max(lat)
        slow = mu_max(lat, fast_path=False)
        assert fast.value == slow.value == LogRational(0)
        assert fast.certified and slow.certified


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
    size-reduction step.  Kept as the reference the incremental update in
    lll_reduce must match exactly."""
    from slopekit.enumeration import _gso

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
    gv = {v: linalg.matvec(lat.gram, v) for v in pool}
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
            ties.add(linalg.saturation_basis(rows, r))
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
