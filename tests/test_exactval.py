import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit.exactval import (
    LogRational,
    compare,
    factor_positive_int,
    half_log,
    log_of_rational,
    parse,
    to_float,
)


F = Fraction


def test_factorization_basics():
    assert factor_positive_int(1) == {}
    assert factor_positive_int(81) == {3: 4}
    assert factor_positive_int(2 * 3 * 5 * 7 * 11) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}
    # residue beyond the trial-division limit: a prime > 10^6
    big = 1000003
    assert factor_positive_int(4 * big) == {2: 2, big: 1}


def test_log_of_one_is_zero():
    assert log_of_rational(1).is_zero()
    assert log_of_rational(1) == LogRational(0)


def test_log_canonical_prime_form():
    v = log_of_rational(F(3, 4))
    assert v.terms == ((2, F(-2)), (3, F(1)))
    assert v.constant == 0
    assert log_of_rational(81) == log_of_rational(3) * 4


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_of_rational(0)
    with pytest.raises(ValueError):
        log_of_rational(F(-3, 4))


def test_compare_examples():
    l3 = log_of_rational(3)
    assert compare(l3 / 2, l3 / 4) == 1
    # deg A2<lambda> with lambda = (1/2)log(3/2): log3 - log2 - (1/2)log3 < 0
    deg = log_of_rational(3) - log_of_rational(2) - half_log(3)
    assert compare(deg, LogRational(0)) == -1
    assert compare(log_of_rational(2) + log_of_rational(3), log_of_rational(6)) == 0


def test_equality_is_canonical_form_identity():
    a = log_of_rational(2) + log_of_rational(3)
    b = log_of_rational(6)
    assert a == b and a.terms == b.terms and hash(a) == hash(b)


def test_to_float_zero():
    assert to_float(LogRational(0), 53) == (0.0, 0.0)


def test_to_float_log2():
    lo, hi = to_float(log_of_rational(2), 53)
    assert lo <= 0.6931471805599453 <= hi
    assert hi - lo <= 2.0 ** (1 - 53) * 1.0 * 1.0001


def test_to_float_one_minus_2log2_negative():
    v = LogRational(1) - 2 * log_of_rational(2)
    lo, hi = to_float(v, 53)
    assert lo <= -0.3862943611198906 <= hi
    assert hi < 0
    assert v.sign() == -1


def test_to_float_precision_floor():
    with pytest.raises(ValueError):
        to_float(log_of_rational(2), 15)


rationals = st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=10**4)


@given(p=rationals, q=rationals)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_log_is_a_homomorphism(p, q):
    assert log_of_rational(p * q) == log_of_rational(p) + log_of_rational(q)


@given(p=rationals, q=rationals)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_compare_consistent_with_float_intervals(p, q):
    a, b = log_of_rational(p), log_of_rational(q) * F(1, 3)
    c = compare(a, b)
    alo, ahi = to_float(a, 64)
    blo, bhi = to_float(b, 64)
    if c == 0:
        assert alo <= bhi and blo <= ahi
    elif c < 0:
        assert alo <= bhi
    else:
        assert ahi >= blo


@given(
    c=rationals,
    coeffs=st.lists(st.tuples(st.sampled_from([2, 3, 5, 7, 30]), rationals), max_size=4),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_render_parse_roundtrip(c, coeffs):
    v = LogRational(c, {})
    for base, q in coeffs:
        v = v + log_of_rational(base) * q
    assert parse(v.render()) == v


def test_parse_accepts_composite_and_rational_args():
    assert parse("log(6)") == log_of_rational(6)
    assert parse("1/2*log(3/4)") == half_log(F(3, 4))
    assert parse("1 - 2*log(2)") == LogRational(1) - 2 * log_of_rational(2)
    assert parse("0") == LogRational(0)


@pytest.mark.parametrize("text", ["1/0", "1/0*log(2)", "log(1/0)", "1 + log(3/0)"])
def test_parse_zero_denominator_is_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse(text)


def test_total_order():
    vals = [
        LogRational(0),
        log_of_rational(2),
        log_of_rational(3),
        LogRational(1),
        half_log(F(3, 4)),
        LogRational(F(7, 10)),
    ]
    s = sorted(vals)
    floats = [v.float_approx() for v in s]
    assert floats == sorted(floats)
    assert math.isclose(floats[0], math.log(3 / 4) / 2)


def test_arithmetic_identities():
    a = half_log(F(9, 2)) - 3 * log_of_rational(3)
    b = -a
    assert (a + b).is_zero()
    assert a - a == LogRational(0)
    assert (a * 6) / 6 == a
    assert a * 0 == LogRational(0)


def test_render_compact():
    v = half_log(F(3, 4))
    assert v.render_compact() == "1/2*log(3/4)"
    assert parse(v.render_compact()) == v
    assert log_of_rational(8).render_compact() == "3*log(2)"
    assert LogRational(F(5, 7)).render_compact() == "5/7"
    w = LogRational(1) - 2 * log_of_rational(2)
    assert w.render_compact() == w.render()
