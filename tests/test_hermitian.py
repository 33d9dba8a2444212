import random
from fractions import Fraction

import pytest

from slopekit import linalg
from slopekit.exactval import LogRational, half_log, log_of_rational
from slopekit.hermitian import (
    HermitianLattice,
    ImagQuadField,
    RIv,
    a2_twist_checks,
    euclid_gcd,
    faltings_height_sq,
    identity_tensor_sq,
    interval_eq,
    q7_checks,
    q7_gram,
    qelt_interval,
    qp_checks,
    rank_one_degree,
    sqrt_interval,
    unit_hermitian,
)
from slopekit.lattice import Sublattice, a2_lattice

F = Fraction


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


def test_degree_examples():
    k = field7()
    assert unit_hermitian(k, 3).degree() == LogRational(0)
    lat = q7_gram()
    assert lat.det() == 1
    assert lat.degree() == LogRational(0)
    assert lat.is_unimodular() and lat.is_integral()
    assert lat.unimodular_semistable_slope() == LogRational(0)


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


def test_alternating_map_norm_bound():
    # the natural map from the tensor square to the alternating square has
    # norm sqrt(2), attained on orthogonal frames
    from slopekit.lattice import EuclideanLattice, unit_lattice

    amap = linalg.alternating_map_matrix(2, 2)
    lat = unit_lattice(1).scale(3).orthogonal_sum(unit_lattice(1).scale(5))
    tsq = lat.tensor(lat)
    alt = lat.exterior_power(2)
    w = [F(0), F(1), F(-1), F(0)]  # e1⊗e2 - e2⊗e1
    img = linalg.matvec(amap, w)
    num = sum(img[i] * alt.gram[i][j] * img[j] for i in range(1) for j in range(1))
    den = tsq.norm_sq(w)
    assert num / den == 2  # squared norm ratio = p!
    rng = random.Random(17)
    for _ in range(20):
        w = [F(rng.randint(-2, 2)) for _ in range(4)]
        if all(x == 0 for x in w):
            continue
        img = linalg.matvec(amap, w)
        num = sum(img[i] * alt.gram[0][0] * img[j] for i in range(1) for j in range(1))
        assert num <= 2 * tsq.norm_sq(w)


def test_intervals():
    s = sqrt_interval(2, 160)
    assert s.lo**2 <= 2 <= s.hi**2
    assert s.width() <= F(1, 1 << 158)
    a = RIv.const(3) - RIv.const(2) * s
    b = RIv.const(3) - RIv.const(2) * s
    assert interval_eq(a, b)
    k = field7()
    w_iv = qelt_interval(k.omega, 160)
    assert w_iv.norm().contains(2) or w_iv.norm().intersects(RIv.const(2))


def test_json_roundtrip():
    lat = q7_gram()
    back = HermitianLattice.from_json_dict(lat.to_json_dict())
    assert back == lat


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
    assert modes["theta_plus_abs_sq"] == "interval-128"
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
