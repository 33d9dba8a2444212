import json
import math
import operator
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopekit import linalg
from slopekit.exactval import (
    LogRational,
    RIv,
    _MAX_FLOAT_PRECISION_BITS,
    _float_toward,
    _is_prime,
    _log_int_bounds,
    compare,
    factor_positive_int,
    fmt_rat,
    half_log,
    log_of_rational,
    parse,
    parse_rat,
    rational,
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


@pytest.mark.parametrize("n", [2.5, 4.0, F(4), "3"])
def test_factor_rejects_non_integers(n):
    with pytest.raises(ValueError, match="argument must be a positive integer"):
        factor_positive_int(n)


@pytest.mark.parametrize("base", [2.5, F(5, 2), F(4), "3", 0, -2])
def test_log_base_must_be_a_positive_integer(base):
    """An int base of any size is accepted; anything else is refused before
    its coefficient is read, a zero coefficient included."""
    for coeff in (1, 0):
        with pytest.raises(ValueError, match="log base must be a positive integer"):
            LogRational(0, {base: coeff})
    big = 2**127 - 1  # a Mersenne prime
    assert LogRational(0, {big: F(1, 3)}).terms == ((big, F(1, 3)),)


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


def test_to_float_doubles_its_precision_until_the_enclosure_is_narrow(monkeypatch):
    """v = 10**12*log 3 - 1584962500721*log 2, about 0.108, cancels 41 bits,
    so its 64-bit enclosure is too wide for 53 bits and to_float asks again
    at 128; the float interval it returns holds v."""
    v = 10**12 * log_of_rational(3) - 1584962500721 * log_of_rational(2)
    seen = []
    bounds = LogRational.bounds

    def spy(self, bits):
        seen.append(bits)
        return bounds(self, bits)

    monkeypatch.setattr(LogRational, "bounds", spy)
    lo, hi = v.to_float(53)
    assert seen == [64, 128]
    tight = bounds(v, 300)
    assert F(lo) <= tight.lo and tight.hi <= F(hi) and 0.10825673431 < lo <= hi < 0.10825673432


def _float_down_by_steps(q):
    f = float(q)
    while F(f) > q:
        f = math.nextafter(f, -math.inf)
    return f


def _float_up_by_steps(q):
    f = float(q)
    while F(f) < q:
        f = math.nextafter(f, math.inf)
    return f


def test_directed_rounding_matches_stepping_until_past():
    """The one nextafter step of `_float_toward` gives what stepping until
    the float lies past q gave, at binade edges (2^e and just off it, from
    the subnormals up to 2^1023), among subnormals and at zero."""
    tiny = F(5e-324)
    qs = [F(0), tiny, tiny / 2, tiny / 3, tiny * F(7, 3), F(2) ** -1022 - tiny / 3]
    for e in list(range(-1080, -1015)) + list(range(-60, 60)) + list(range(1010, 1024)):
        edge = F(2) ** e
        for off in (F(0), F(2) ** (e - 53), F(2) ** (e - 54), F(2) ** (e - 80), F(2) ** (e - 52) / 3):
            qs += [edge + off, edge - off]
        qs.append(edge * F(2, 3))
    qs += [-q for q in qs]
    for q in qs:
        down, up = _float_toward(q, -math.inf), _float_toward(q, math.inf)
        assert (down, up) == (_float_down_by_steps(q), _float_up_by_steps(q)), q
        assert F(down) <= q <= F(up)


def test_to_float_precision_floor():
    with pytest.raises(ValueError):
        to_float(log_of_rational(2), 15)


def test_to_float_past_the_float_range_is_rigorous():
    """An enclosure end past the float range is read as the infinity on its
    side: toward that infinity the end is the infinity, and the other way
    the largest finite float, so neither `to_float` nor `float_approx`
    raises OverflowError.  Just past sys.float_info.max, where float(q)
    still rounds to it, the upward end steps to inf as well."""
    big = sys.float_info.max
    assert LogRational(10**400).to_float() == (big, math.inf)
    assert LogRational(-(10**400)).to_float() == (-math.inf, -big)
    assert to_float(10**400 * log_of_rational(2), 64) == (big, math.inf)
    assert to_float(5 - 10**400 * log_of_rational(3), 53) == (-math.inf, -big)
    assert LogRational(10**400).float_approx() == math.inf
    assert LogRational(-(10**400)).float_approx() == -math.inf
    past = F(big) + F(2) ** 960  # within half an ulp of the largest float
    assert (_float_toward(past, -math.inf), _float_toward(past, math.inf)) == (big, math.inf)
    assert (_float_toward(-past, -math.inf), _float_toward(-past, math.inf)) == (-math.inf, -big)


def test_to_float_precision_ceiling():
    """A precision past `_MAX_FLOAT_PRECISION_BITS` is refused at once with
    ValueError, as one below 16 is, instead of running the precision loop
    without bound.  No float interval is narrower than one ulp, so the
    ceiling and 1,100 bits already give log 2 between adjacent floats."""
    assert _MAX_FLOAT_PRECISION_BITS >= 1100
    for bits in (_MAX_FLOAT_PRECISION_BITS + 1, 10**6):
        with pytest.raises(ValueError, match="precision_bits must be <="):
            to_float(log_of_rational(2), bits)
    lo, hi = to_float(log_of_rational(2), _MAX_FLOAT_PRECISION_BITS)
    assert (lo, hi) == to_float(log_of_rational(2), 1100)
    assert math.nextafter(lo, math.inf) == hi and lo <= math.log(2) <= hi


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


@pytest.mark.parametrize(
    "text, message",
    [("", "empty LogRational text"), ("  ", "empty LogRational text"),
     ("2*log[3]", r"cannot parse LogRational term '2\*log\[3\]'"),
     ("1 + log(x)", r"cannot parse LogRational term 'log\(x\)'"),
     ("3 +", "cannot parse LogRational term ''"), ("log(2) +", "cannot parse LogRational term ''"),
     ("3 -", "cannot parse LogRational term '-'")],
)
def test_parse_rejects_empty_and_malformed_text(text, message):
    with pytest.raises(ValueError, match=message):
        parse(text)


def test_parse_reads_a_sign_after_the_coefficient():
    assert parse("3*-log(2)") == -3 * log_of_rational(2)
    assert parse("1 - 1/2*-log(3)") == 1 + half_log(3)


def test_parse_reads_one_leading_sign():
    assert parse("-3") == -3 and parse("+3") == 3
    assert parse("- log(2)") == -log_of_rational(2)
    assert parse(" -3/2 +1*log(2)-  2 * - log( 5 ) ") == F(-3, 2) + log_of_rational(2) + 2 * log_of_rational(5)


@pytest.mark.parametrize("text", ["3 - -2", "3 - - log(2)", "3 + + 2", "3 + -log(2)", "3 + -2*log(2)", "--3"])
def test_parse_refuses_a_doubled_sign(text):
    """The rendering grammar never writes two signs in a row.  These used to
    read three ways: "3 - -2" as 5, "3 - - log(2)" as 3 + log 2, and
    "3 + + 2" as a `Fraction` error."""
    with pytest.raises(ValueError, match="^cannot parse LogRational term "):
        parse(text)


@given(st.text(alphabet="0123456789/+-*log() x[]", max_size=20))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_parse_returns_a_value_or_raises_value_error(text):
    try:
        value = parse(text)
    except ValueError:
        return
    assert isinstance(value, LogRational)


_RAT = r"\d+(?:/\d+)?"
_LOG_TERM = rf"{_RAT}\*log\({_RAT}\)"
# What `render` writes, with at least one log term: a rational alone is left
# out, as golden.json holds many that are no LogRational.
_RENDERED = re.compile(rf"-?(?:{_RAT}(?= [+-] )|{_LOG_TERM})(?: [+-] {_LOG_TERM})*")


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _strings(value)


def test_golden_renderings_round_trip():
    """Every rendered LogRational in tests/data/golden.json, 1,767 strings
    written by `render` across every kind of output, parses back to itself."""
    golden = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())
    rendered = [s for s in _strings(golden) if _RENDERED.fullmatch(s)]
    assert len(rendered) == 1767 and len(set(rendered)) == 279
    for s in set(rendered):
        assert parse(s).render() == s


_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "truediv": "/", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


@pytest.mark.parametrize("op", list(_SYMBOLS))
def test_arithmetic_with_a_float_is_a_type_error(op):
    """A float is no exact number, nor is a str or None: +, -, *, / and the
    four order comparisons with one, on either side, raise a TypeError that
    names the operator written.  Reflected `-` and the comparisons used to
    name `+` and `-`.  Python's str concatenation and repetition word their
    own message for str + x and for * with a str, so those are only checked
    to be TypeErrors."""
    x, symbol = log_of_rational(2), _SYMBOLS[op]
    for other in (1.5, "1/2", None):
        for args in ((x, other), (other, x)):
            with pytest.raises(TypeError) as error:
                getattr(operator, op)(*args)
            if not (isinstance(other, str) and (symbol == "*" or symbol == "+" and args[0] is other)):
                assert f"for {symbol}:" in str(error.value) or f"'{symbol}' not supported" in str(error.value)


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


def test_sign_doubles_its_precision_until_the_enclosure_clears_zero(monkeypatch):
    """x = log 2 - (the lower end of its 200-bit enclosure) is positive but
    narrower than the 64- and 128-bit enclosures, so sign() doubles its
    precision twice and decides at 256 bits, for x and for -x alike."""
    x = log_of_rational(2) - log_of_rational(2).bounds(200).lo
    seen = []
    bounds = LogRational.bounds

    def spy(self, bits):
        seen.append(bits)
        return bounds(self, bits)

    monkeypatch.setattr(LogRational, "bounds", spy)
    assert x.sign() == 1
    assert (-x).sign() == -1
    assert seen == [64, 128, 256] * 2


def test_rational_is_the_one_rule():
    """`rational` keeps an int, turns an integral Fraction into its int,
    keeps any other Fraction, and refuses everything else; text is the job
    of `parse_rat`, which reads a JSON decimal exactly."""
    assert rational(3) == 3 and type(rational(3)) is int
    assert rational(F(6, 2)) == 3 and type(rational(F(6, 2))) is int
    assert rational(F(1, 2)) == F(1, 2) and type(rational(F(1, 2))) is F
    for x in (0.5, 1.0, "1/2", None, 1j, [1]):
        with pytest.raises(ValueError, match="^cannot coerce "):
            rational(x)
    assert parse_rat(0.1) == F(1, 10) and parse_rat(1.5) == F(3, 2) and parse_rat("2/3") == F(2, 3)


def test_every_entry_point_reads_numbers_by_the_one_rule():
    """Every public entry point that takes a number from a caller reads it
    by `rational`: 0.5, "1/2" and None each raise "cannot coerce".  Floats
    and strings used to be read as binary fractions (`LogRational(0.1)`
    was 3602879701896397/36028797018963968), truncated (a sublattice basis
    [[1.5, 0]] became [[1, 0]]) or failed with a TypeError (`weight`).  An
    int or a Fraction gives the value it always gave, each pinned below."""
    from slopekit import enumeration, hermitian, lattice, multifilt
    from slopekit.report import ReproFailure

    k = hermitian.ImagQuadField(7)
    z1, a2 = lattice.unit_lattice(1), lattice.a2_lattice()
    h1 = hermitian.unit_hermitian(k, 1)
    f = multifilt.Filtration(2, [(0, linalg.identity(2)), (1, [[1, 0]])])
    m = multifilt.MultifilteredSpace(2, [f])
    hom = lattice.LatticeMorphism(z1, z1, [[1]])
    entry_points = {
        "LogRational constant": LogRational,
        "LogRational coefficient": lambda x: LogRational(0, {2: x}),
        "log_of_rational": log_of_rational,
        "half_log": half_log,
        "EuclideanLattice": lambda x: lattice.EuclideanLattice([[x]]),
        "HermitianLattice": lambda x: hermitian.HermitianLattice(k, [[x]]),
        "scale": a2.scale,
        "twist": h1.twist,
        "Sublattice": lambda x: lattice.Sublattice(a2, [[x, 1]]),
        "LatticeMorphism": lambda x: lattice.LatticeMorphism(z1, z1, [[x]]),
        "norm_sq_le": hom.norm_sq_le,
        "tensor_vector_to_hom": lambda x: lattice.tensor_vector_to_hom(z1, z1, [x]),
        "inner": lambda x: a2.inner([x, 0], [1, 0]),
        "a2_twist_checks": hermitian.a2_twist_checks,
        "QuadField.elt": k.elt,
        "QuadField.elt b": lambda x: k.elt(0, x),
        "QuadField call": k,
        "enumerate_short_vectors": lambda x: enumeration.enumerate_short_vectors(a2, x),
        "densest_sublattice": lambda x: enumeration.densest_sublattice(a2, 1, x),
        "Filtration break": lambda x: multifilt.Filtration(1, [(x, [[1]])]),
        "Filtration row": lambda x: multifilt.Filtration(2, [(0, [[1, 0], [x, 1]])]),
        "weight": lambda x: f.weight((x, 0)),
        "slope_of_subspace": lambda x: multifilt.slope_of_subspace(m, [[x, 1]]),
        "subobject": lambda x: multifilt.subobject(m, [[x, 1]]),
        "quotient_object": lambda x: multifilt.quotient_object(m, [[x, 1]]),
        "mu_max_mf extra": lambda x: multifilt.mu_max_mf(m, [[[x, 1]]]),
    }
    for name, call in entry_points.items():
        for x in (0.5, "1/2", None):
            with pytest.raises(ValueError, match="^cannot coerce "):
                call(x)
                pytest.fail(f"{name} took {x!r}")

    half, two = F(1, 2), F(4, 2)
    assert LogRational(half).constant == half and LogRational(two) == 2
    assert LogRational(0, {2: half}) == half_log(2) and LogRational(0, {2: two}) == log_of_rational(4)
    assert log_of_rational(F(9, 4)) == 2 * log_of_rational(3) - 2 * log_of_rational(2)
    assert half_log(F(1, 4)) == -log_of_rational(2) and half_log(two) == half_log(2)
    assert lattice.EuclideanLattice([[half]]).scaled_gram() == (((1,),), 2)
    s, den = lattice.EuclideanLattice([[two, 1], [1, two]]).scaled_gram()
    assert (s, den) == (((2, 1), (1, 2)), 1) and type(s[0][0]) is int
    assert hermitian.HermitianLattice(k, [[half]]).det() == half
    assert hermitian.HermitianLattice(k, [[two]]) == hermitian.HermitianLattice(k, [[2]])
    assert a2.scale(half).det() == F(3, 4) and a2.scale(two).det() == 12
    assert h1.twist(half).det() == half and h1.twist(two).det() == 2
    basis = lattice.Sublattice(a2, [[two, 1]]).basis
    assert basis == ((2, 1),) and type(basis[0][0]) is int
    with pytest.raises(ValueError, match="^expected integer entries$"):
        lattice.Sublattice(a2, [[F(3, 2), 0]])
    assert lattice.LatticeMorphism(z1, z1, [[half]]).matrix == ((half,),)
    assert lattice.LatticeMorphism(z1, z1, [[two]]).is_integral
    assert hom.norm_sq_le(1) and not hom.norm_sq_le(half) and hom.norm_sq_le(two)
    assert lattice.tensor_vector_to_hom(z1, z1, [half]).norm_sq_le(F(1, 4))
    assert a2.inner([half, 0], [1, 0]) == 1 and a2.inner([two, 0], [1, 0]) == 4
    assert hermitian.a2_twist_checks(F(2, 3)).passed
    with pytest.raises(ReproFailure, match="twist_in_admissible_interval"):
        hermitian.a2_twist_checks(half)
    x = k.elt(two, half)
    assert (x.a, x.b) == (2, half) and type(x.a) is int and type(k(two).a) is int
    assert len(enumeration.enumerate_short_vectors(a2, two).vectors) == 3
    assert enumeration.densest_sublattice(a2, 1, two).det() == 2
    assert enumeration.densest_sublattice(a2, 1, F(3, 2)) is None
    assert multifilt.Filtration(1, [(half, [[1]])]).breaks() == (half,)
    assert multifilt.Filtration(2, [(0, [[1, 0], [half, 1]])]) == multifilt.Filtration(2, [(0, [[2, 0], [1, 2]])])
    assert f.weight((half, 0)) == 1 and f.weight((two, 1)) == 0
    assert multifilt.slope_of_subspace(m, [[half, 0]]) == 1
    assert multifilt.subobject(m, [[half, 0]]) == multifilt.subobject(m, [[1, 0]])
    assert multifilt.quotient_object(m, [[half, 0]]) == multifilt.quotient_object(m, [[1, 0]])
    assert multifilt.mu_max_mf(m, [[[two, 0]]]).value == 1


def test_rational_reads_a_bool_as_its_int():
    """A bool is an int subclass, and `rational` returns it as its int, so
    no entry point stores or prints True for 1."""
    from slopekit import hermitian, lattice

    for x, want in ((True, 1), (False, 0)):
        assert rational(x) == want and type(rational(x)) is int
    basis = lattice.Sublattice(lattice.unit_lattice(2), [[True, False]]).basis
    assert basis == ((1, 0),) and all(type(x) is int for row in basis for x in row)
    assert str(basis) == "((1, 0),)"
    s, den = lattice.EuclideanLattice([[True]]).scaled_gram()
    assert (s, den) == (((1,),), 1) and type(s[0][0]) is int and type(den) is int
    z = hermitian.ImagQuadField(7).elt(True, False)
    assert type(z.a) is int and type(z.b) is int and repr(z) == "(1+0w)"
