import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import linalg
from slopekit.exactval import (
    LogRational,
    RIv,
    _is_prime,
    _log_int_bounds,
    compare,
    factor_positive_int,
    fmt_rat,
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
    # a prime cofactor beyond the small-prime trial division
    big = 1000003
    assert factor_positive_int(4 * big) == {2: 2, big: 1}


def _reference_factor(n):
    """The former factoring: a mod-30 wheel up to 10**6, then Floyd-cycle rho."""

    def rho(m):
        if m % 2 == 0:
            return 2
        for c in range(1, 100):
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = math.gcd(abs(x - y), m)
            if d != m:
                return d
        raise ArithmeticError(f"factorization failed for {m}")

    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d, i = 7, 0
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    while d <= 10**6 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += steps[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = rho(m)
        stack += [f, m // f]
    return out


def _factor_corpus():
    rng = random.Random(8)
    dets = []
    for _ in range(200):
        r = rng.randint(1, 4)
        b = [[rng.randint(-100, 100) for _ in range(r)] for _ in range(r)]
        gram = [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]
        dets.append((r, linalg.det_int(gram)))
    corpus = [d for _, d in dets]
    corpus += [d1**r2 * d2**r1 for (r1, d1), (r2, d2) in zip(dets[::2], dets[1::2])]
    corpus += [1, 999983, 1000003, 1000003**2, 16 * 70102139**2, 7124413**2 * 4]
    corpus += [1093**2, 3511**2, 2047, 3215031751, 561, 41041]
    corpus += [2**64, 3**40, (10007 * 10009) ** 3]
    primes20 = [p for p in range(2**19, 2**19 + 2000) if _is_prime(p)]
    corpus += [math.prod(rng.sample(primes20, 3)) for _ in range(20)]
    return [n for n in corpus if n > 0]


def test_factor_matches_parent_reference():
    corpus = _factor_corpus()
    assert len(corpus) > 300
    for n in corpus:
        assert factor_positive_int(n) == _reference_factor(n), n


def test_factor_rejects_nonpositive_and_returns_fresh_dicts():
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factor_positive_int(n)
    factor_positive_int(12)[2] = 99
    factor_positive_int(12).clear()
    assert factor_positive_int(12) == {2: 2, 3: 1}


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


def test_render_compact_past_the_digit_limit():
    """A pure log whose single-log argument has more digits than Python
    converts to text gets the canonical rendering, which parses back; just
    under the limit it keeps the single-log form."""
    import sys

    limit = sys.get_int_max_str_digits()
    v = log_of_rational(1000003) * 40 + log_of_rational(2) * F(1, 18)  # argument 2 * 1000003^720
    assert limit and 2 * 1000003**720 >= 10**limit
    assert v.render_compact() == v.render() == "1/18*log(2) + 40*log(1000003)"
    assert parse(v.render_compact()) == v
    w = log_of_rational(1000003) * 700  # argument 1000003^700, 4201 digits
    assert w.render_compact() == "700*log(1000003)"
    # arguments 2 * 10^limit, one digit past the limit, and 2 * 10^(limit - 1)
    x = log_of_rational(2) * (limit + 1) + log_of_rational(5) * limit
    assert x.render_compact() == x.render()
    y = x - log_of_rational(10)
    assert y.render_compact() == f"1*log({2 * 10 ** (limit - 1)})"


# ---------------------------------------------------------------------------
# Oracle: the earlier LogRational, one Fraction coefficient per prime.


class _FractionLog:
    """The earlier LogRational: a Fraction constant and sorted (p, Fraction)
    terms, arithmetic and order on Fractions."""

    def __init__(self, constant, terms=()):
        self.constant = Fraction(constant)
        self.terms = tuple((p, c) for p, c in terms if c != 0)

    @staticmethod
    def log(q):
        q = Fraction(q)
        terms = {}
        for p, e in factor_positive_int(q.numerator).items():
            terms[p] = terms.get(p, Fraction(0)) + e
        for p, e in factor_positive_int(q.denominator).items():
            terms[p] = terms.get(p, Fraction(0)) - e
        return _FractionLog(0, sorted(terms.items()))

    def __add__(self, other):
        acc = dict(self.terms)
        for p, c in other.terms:
            acc[p] = acc.get(p, Fraction(0)) + c
        return _FractionLog(self.constant + other.constant, sorted(acc.items()))

    def __neg__(self):
        return _FractionLog(-self.constant, [(p, -c) for p, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return _FractionLog(self.constant * s, [(p, c * s) for p, c in self.terms])

    def __truediv__(self, scalar):
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other):
        return self.constant == other.constant and self.terms == other.terms

    def bounds(self, bits):
        lo = hi = self.constant
        for p, c in self.terms:
            b = _log_int_bounds(p, bits)
            if c >= 0:
                lo, hi = lo + c * b.lo, hi + c * b.hi
            else:
                lo, hi = lo + c * b.hi, hi + c * b.lo
        return lo, hi

    def sign(self):
        if not self.terms:
            return (self.constant > 0) - (self.constant < 0)
        bits = 64
        while True:
            lo, hi = self.bounds(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def render(self):
        parts = []
        if self.constant != 0 or not self.terms:
            parts.append(fmt_rat(self.constant))
        for p, c in self.terms:
            piece = f"{fmt_rat(abs(c))}*log({p})"
            if not parts:
                parts.append(piece if c > 0 else "-" + piece)
            else:
                parts.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(parts)

    def render_compact(self):
        if self.constant != 0 or not self.terms:
            return self.render()
        num_gcd, den_lcm = 0, 1
        for _, c in self.terms:
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        q = Fraction(num_gcd, den_lcm)
        arg = Fraction(1)
        for p, c in self.terms:
            arg *= Fraction(p) ** int(c / q)
        return f"{fmt_rat(q)}*log({fmt_rat(arg)})"


_BASES = (2, 3, 5, 6, 7, 12, 13, 30, 97, 1000003, F(3, 4), F(10, 9))


def _rand_q(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return F(0)
    return F(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 4, 6, 9, 10, 12)))


def _random_pair(rng):
    """The same value as a LogRational and as a _FractionLog, built by the
    constructor, by logs times scalars, or as a sum of both."""
    c = _rand_q(rng, 0.5)
    logs = [(rng.choice(_BASES), _rand_q(rng)) for _ in range(rng.randint(0, 4))]
    ref = _FractionLog(c)
    for base, q in logs:
        ref = ref + _FractionLog.log(base) * q
    how = rng.randrange(3)
    if how == 0 and all(F(b).denominator == 1 for b, _ in logs):
        merged = {}
        for base, q in logs:
            merged[base] = merged.get(base, 0) + q
        new = LogRational(c, merged)
    else:
        new = LogRational(c)
        for base, q in logs:
            new = new + (log_of_rational(base) * q if how != 2 else q * log_of_rational(base))
    return new, ref


def _outcome(f):
    try:
        return f()
    except ValueError as exc:
        return type(exc)


def _same(new, ref):
    return new.constant == ref.constant and new.terms == ref.terms


def test_logrational_matches_fraction_reference():
    """On 5,000 seeded forms the integer canonical form gives the earlier
    Fraction-coefficient results: sums, differences, negation, products and
    quotients by ints and Fractions (negative and 0 included), `==` with a
    consistent hash, `terms`, `render`, `render_compact` and a `parse` round
    trip."""
    rng = random.Random(2210)
    scalars = (0, 1, -1, 2, -3, 7, F(1, 2), F(-2, 3), F(9, 4), F(-5, 12), F(0))
    equal_pairs = past_limit = 0
    for _ in range(5000):
        a, ra = _random_pair(rng)
        b, rb = _random_pair(rng)
        assert _same(a, ra) and _same(b, rb)
        assert all(type(c) is Fraction for _, c in a.terms) and type(a.constant) is Fraction
        assert _same(a + b, ra + rb) and _same(a - b, ra - rb) and _same(-a, -ra)
        assert _same(a + b.constant, ra + _FractionLog(rb.constant))
        assert _same(b.constant - a, _FractionLog(rb.constant) - ra)
        s = rng.choice(scalars)
        assert _same(a * s, ra * s) and _same(s * a, ra * s)
        if s:
            assert _same(a / s, ra / s)
        else:
            with pytest.raises(ZeroDivisionError):
                a / s
        assert (a == b) == (ra == rb)
        back = a + b - b
        assert back == a and hash(back) == hash(a)
        equal_pairs += a == b
        assert a.render() == ra.render() and repr(a) == f"LogRational({ra.render()!r})"
        assert parse(a.render()) == a
        compact = a.render_compact()
        want = _outcome(ra.render_compact)
        # the earlier code raised on an argument past str()'s digit limit;
        # that value now gets the canonical rendering
        assert compact == (a.render() if want is ValueError else want)
        assert parse(compact) == a
        past_limit += want is ValueError
        assert a.is_zero() == (ra.constant == 0 and not ra.terms)
        assert a.bounds(64) == RIv(*ra.bounds(64))
    assert equal_pairs >= 10 and past_limit >= 1


def _near_ties():
    """Pure logs a*log p - b*log q with p^a close to q^b (continued-fraction
    convergents of log q / log p), some times a third prime."""
    out = []
    for p, q in ((2, 3), (2, 5), (3, 5), (2, 7), (5, 7)):
        x = math.log(q) / math.log(p)
        h0, h1, k0, k1 = 0, 1, 1, 0
        for _ in range(10):
            t = int(x)
            h0, h1 = h1, t * h1 + h0
            k0, k1 = k1, t * k1 + k0
            out.append({p: h1, q: -k1})
            if x == t:
                break
            x = 1 / (x - t)
    return out


def test_pure_log_sign_matches_interval_sign():
    """The integer comparison of prime-power products gives the interval
    sign on 10,000 seeded pure logs (one to four primes, den up to 12), on
    near-ties such as 84*log 2 - 53*log 3 and their multiples, and past the
    bit cap, where the interval loop decides."""
    rng = random.Random(2211)
    forms = []
    for exps in _near_ties():
        for den in (1, 2, 7):
            forms.append((exps, den))
            forms.append(({p: -e for p, e in exps.items()}, den))
    forms.append(({3: 5000, 2: -7925}, 1))  # 16,000 bits: still integers
    forms.append(({3: 5000, 2: -7925, 5: 1}, 3))
    forms.append(({3: 24727 * 2, 2: -15601 * 3}, 1))  # past the cap
    forms.append(({2: 24727, 3: -15601}, 5))
    primes = (2, 3, 5, 7, 11, 13, 97, 1000003)
    while len(forms) < 10_000:
        ps = rng.sample(primes, rng.randint(1, 4))
        exps = {p: rng.choice((-1, 1)) * rng.randint(1, 60) for p in ps}
        forms.append((exps, rng.randint(1, 12)))
    signs = {1: 0, -1: 0}
    for exps, den in forms:
        v = LogRational(0, {p: F(e, den) for p, e in exps.items()})
        ref = _FractionLog(0, sorted((p, F(e, den)) for p, e in exps.items()))
        got = v.sign()
        assert got == ref.sign(), (exps, den)
        assert (-v).sign() == -got
        signs[got] += 1
    assert min(signs.values()) >= 4000
