"""Acceptance suite: one test per criterion, exact tolerances throughout
(interval checks only where stated), one printed pass line each."""

import pathlib
import random
from fractions import Fraction

from slopekit import linalg
from slopekit.enumeration import (
    enumerate_short_vectors,
    hermite_constant_pow,
    minimum_sq,
    minkowski_check,
    mu_max,
)
from slopekit.exactval import LogRational, half_log, log_of_rational
from slopekit.harness import (
    ExperimentConfig,
    bost_experiment,
    random_lattice,
    repro,
    repro_mf_lemma,
    repro_thm07,
)
from slopekit.hermitian import q7_checks, qp_checks
from slopekit.lattice import (
    LatticeMorphism,
    a2_lattice,
    e8_lattice,
    evaluation_vector,
    tensor_vector_to_hom,
    unit_lattice,
)

F = Fraction


def _ok(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_a2_twist_degree_and_stability():
    lam = half_log(F(3, 2))
    lat = a2_lattice().scale(F(2, 3))
    deg = lat.degree()
    assert deg == 2 * lam - half_log(3)
    assert deg == half_log(F(3, 4))
    assert half_log(3) - log_of_rational(2) <= deg < LogRational(0)
    res = mu_max(lat)
    assert res.certified
    assert res.witness.rank == 2 and res.value == lat.slope()
    rank_one_best = -half_log(minimum_sq(lat))
    assert rank_one_best == lam - half_log(2)
    assert rank_one_best < res.value  # strict deficit: stable
    _ok(1, "twisted planar root lattice: degree = 1/2*log(3/4), stable at full rank")


def test_criterion_2_rank3_unimodular_hermitian():
    rep = q7_checks()
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["unimodular_determinant"].passed  # det = 1
    assert by_name["identity_vector_sq_length"].passed  # = 3
    assert by_name["quotient_line_degree"].passed  # -2*lambda + log 3
    assert by_name["quotient_line_degree_negative"].passed
    assert by_name["complement_vector_pairing"].passed  # <e3, v3> = 1
    assert by_name["complement_vector_norm"].passed  # |v3|^2 = 2
    assert by_name["theta_plus_abs_sq"].mode == "exact"
    assert by_name["theta_plus_abs_sq"].passed and by_name["theta_minus_abs_sq"].passed
    assert all(c.mode == "exact" for c in rep.checks)
    _ok(2, "rank-3 unimodular hermitian lattice: every identity exact, "
           "the sqrt(2) frame included")


def test_criterion_3_class_field_rings():
    for p in (5, 13, 37):
        rep = qp_checks(p)
        assert rep.passed
        by_name = {c.name: c for c in rep.checks}
        assert by_name["ring_lattice_degree"].passed  # 2*log 2 exactly
        assert by_name["height_term_negative"].passed  # 1 - 2*log 2 < 0
        assert by_name["semistable_by_decomposition"].passed
        assert by_name["split_orthogonal"].passed
        assert by_name["line_through_half_unit_degree"].passed  # -log((p+1)/4)
    _ok(3, "class-field rings over p in {5,13,37}: degree 2*log 2, negative "
           "height term, semistable splitting, line degree -log((p+1)/4)")


def test_criterion_4_tensor_bound_experiment():
    cfg = ExperimentConfig(seed=20260809, count=200)
    records, summary = bost_experiment(cfg)
    assert summary["count"] == 200
    assert summary["certified"] == 200
    assert summary["violations"] == []
    for r in records:
        assert r.ranks[0] * r.ranks[1] <= 6
        assert r.gap >= LogRational(0)  # upper bound holds
        assert r.residual >= LogRational(0)  # superadditivity holds
    ucfg = ExperimentConfig(seed=77, count=25)
    urecords, usummary = bost_experiment(ucfg, unimodular=True)
    assert usummary["all_residuals_zero"]
    assert all(r.residual == LogRational(0) for r in urecords)
    _ok(4, "200/200 certified random pairs, zero bound violations; "
           "unimodular batch residual exactly 0")


def test_criterion_5_degree_laws_500_lattices():
    rng = random.Random(123)
    lattices = [random_lattice(rng, rng.randint(1, 3)) for _ in range(500)]
    for i, lat in enumerate(lattices):
        other = lattices[(i + 1) % len(lattices)]
        t = lat.tensor(other)
        assert t.slope() == lat.slope() + other.slope()
        assert t.degree() == other.rank * lat.degree() + lat.rank * other.degree()
        assert lat.dual().degree() == -lat.degree()
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        lam = -half_log(c)
        assert lat.scale(c).degree() == lat.degree() + lat.rank * lam
        assert lat.exterior_power(lat.rank).degree() == lat.degree()
        # the library computes these degrees by the laws above: each must
        # also be -1/2*log of a determinant eliminated from its Gram matrix
        for derived in (t, lat.dual(), lat.scale(c), lat.exterior_power(lat.rank)):
            assert derived.degree() == -half_log(linalg.det_bareiss(derived.gram))
    _ok(5, "slope additivity and degree laws exact on 500 random lattices")


def test_criterion_6_multigraded_lemma_200():
    rep = repro_mf_lemma(seed=6, count=200)
    assert rep.passed
    _ok(6, "multigraded aggregate equals the slope on 200 random instances, "
           "every filtration order")


def test_criterion_7_tensor_mu_max_additive_50():
    rep = repro_thm07(seed=7, count=50)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert "50/50" in by_name["tensor_mu_max_additive"].detail
    assert "50/50" in by_name["line_value_at_most_mu_max"].detail
    assert "50/50" in by_name["slope_at_most_mu_max"].detail
    _ok(7, "mu_max additive under tensor on 50 certified pairs; line value "
           "<= mu_max and slope <= mu_max everywhere")


def test_criterion_8_structural_norms():
    z1, z2 = unit_lattice(1), unit_lattice(2)
    diagonal = LatticeMorphism(z1, z2, [[1], [1]])
    assert not diagonal.norm_le_one()  # norm sqrt(2) > 1: rejected
    rng = random.Random(8)
    for _ in range(20):
        lat = random_lattice(rng, rng.randint(1, 3))
        t = lat.tensor(lat.dual())
        assert t.norm_sq(evaluation_vector(lat)) == lat.rank
    checked = 0
    while checked < 100:
        l1 = random_lattice(rng, rng.randint(1, 3))
        l2 = random_lattice(rng, rng.randint(1, 3))
        w = [rng.randint(-2, 2) for _ in range(l1.rank * l2.rank)]
        if all(x == 0 for x in w):
            continue
        f = tensor_vector_to_hom(l1, l2, w)
        hs = f.hilbert_schmidt_sq()
        assert hs == l1.tensor(l2).norm_sq(w)
        assert f.norm_sq_le(hs)  # operator norm <= Hilbert-Schmidt norm
        checked += 1
    for _ in range(30):
        lat = random_lattice(rng, rng.randint(1, 3))
        if minimum_sq(lat) >= 1:
            assert minkowski_check(lat)
    assert minkowski_check(e8_lattice()) and minkowski_check(a2_lattice())
    a2 = a2_lattice()
    assert minimum_sq(a2) ** 2 / a2.det() == hermite_constant_pow(2)
    assert enumerate_short_vectors(a2, 2).count_up_to_sign() == 3
    e8 = e8_lattice()
    assert minimum_sq(e8) ** 8 / e8.det() == hermite_constant_pow(8)
    assert enumerate_short_vectors(e8, 2).count_up_to_sign() == 120
    _ok(8, "morphism norm tests, evaluation vector length, HS >= operator "
           "norm on 100 tensors, volume bound, extremal-lattice attainment")


def test_criterion_9_substitution_documented():
    for rep in (repro("a2"), repro("q7"), repro("qp", p=5), repro("thm07", seed=1, count=2)):
        assert any("nef" in n and "consequences" in n for n in rep.notes)
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    assert readme.exists()
    text = readme.read_text()
    assert "consequence" in text.lower()
    _ok(9, "computable-consequence substitution documented in every "
           "reproduction manifest and the README")
