"""`hermitian.QElt`, `exactval.RIv` and the Gram operations of
`HermitianLattice` against test-local copies of what they replaced: the
classes `hermitian.QuadInt` (norm products over Q(sqrt t)) and `QuartElt`
(K(i) over K = Q(sqrt(-p))), `linalg.sqrt_frac_upper`, the tuple-valued
`LogRational.bounds`, the leading-minor positivity test and the entrywise
loops of `HermitianLattice`, and the Fraction range `_int_range_bounds` that
`enumeration._isqrt_range` replaced; and the tower Q(sqrt(-d))(sqrt 2) of
the q7 frame against a pair-of-coordinates model.  The same Fraction
models check that int coordinates stay ints through + - * and through
exact quotients, and that no result has a float coordinate."""

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from slopekit import linalg
from slopekit.enumeration import _isqrt_range
from slopekit.exactval import LogRational, RIv
from slopekit.hermitian import (
    HermitianLattice,
    ImagQuadField,
    QElt,
    QuadField,
    _omega_data,
)
from slopekit.lattice import EuclideanLattice
from test_linalg import _reference_field_inverse

F = Fraction


# -- the deleted classes ------------------------------------------------------

@dataclass(frozen=True)
class QuadInt:
    t: int
    p: Fraction
    q: Fraction

    def _w_data(self):
        if self.t % 4 == 1:
            return 1, F(1 - self.t, 4)
        return 0, F(-self.t)

    def __add__(self, other):
        return QuadInt(self.t, self.p + other.p, self.q + other.q)

    def __mul__(self, other):
        tr, nm = self._w_data()
        a, b, c, e = self.p, self.q, other.p, other.q
        return QuadInt(self.t, a * c - b * e * nm, a * e + b * c + b * e * tr)

    def conj(self):
        tr, _ = self._w_data()
        return QuadInt(self.t, self.p + self.q * tr, -self.q)

    def norm(self):
        tr, nm = self._w_data()
        return self.p**2 + self.p * self.q * tr + self.q**2 * nm

    def trace(self):
        tr, _ = self._w_data()
        return 2 * self.p + self.q * tr


@dataclass(frozen=True)
class QuartElt:
    x0: QElt
    x1: QElt

    def __add__(self, other):
        return QuartElt(self.x0 + other.x0, self.x1 + other.x1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QElt)):
            return QuartElt(self.x0 * other, self.x1 * other)
        return QuartElt(
            self.x0 * other.x0 - self.x1 * other.x1,
            self.x0 * other.x1 + self.x1 * other.x0,
        )

    def tau(self):
        return QuartElt(self.x0, -self.x1)

    def cconj(self):
        return QuartElt(self.x0.conj(), -self.x1.conj())

    def relative_norm(self):
        prod = self * self.tau()
        assert prod.x1.is_zero()
        return prod.x0

    def absolute_norm(self):
        return self.relative_norm().norm()


@dataclass(frozen=True)
class Sqrt2Elt:
    """x0 + x1*sqrt(2) with x0, x1 in K = Q(sqrt(-d)); complex conjugation
    acts on K only, since sqrt(2) is real."""

    x0: QElt
    x1: QElt

    def __add__(self, other):
        return Sqrt2Elt(self.x0 + other.x0, self.x1 + other.x1)

    def __mul__(self, other):
        return Sqrt2Elt(
            self.x0 * other.x0 + self.x1 * other.x1 * 2,
            self.x0 * other.x1 + self.x1 * other.x0,
        )

    def cconj(self):
        return Sqrt2Elt(self.x0.conj(), self.x1.conj())

    def to_complex(self):
        d = self.x0.field.d

        def embed(x):  # omega = sqrt(-d), or (1 + sqrt(-d))/2 when -d = 1 mod 4
            w = (1 + 1j * math.sqrt(d)) / 2 if x.field.omega_trace else 1j * math.sqrt(d)
            return float(x.a) + float(x.b) * w

        return embed(self.x0) + embed(self.x1) * math.sqrt(2)


def _loop_tensor(g, h):
    return [[x * y for x in ra for y in rb] for ra in g for rb in h]


def _loop_orthogonal_sum(g, h, zero):
    return [list(row) + [zero] * len(h) for row in g] + [[zero] * len(g) + list(row) for row in h]


def _loop_dual(g):
    inv = _reference_field_inverse(g)
    return [[inv[j][i] for j in range(len(g))] for i in range(len(g))]


def _loop_inner(g, v, w, zero, conj=QElt.conj):
    acc = zero
    for i in range(len(g)):
        for j in range(len(g)):
            acc = acc + conj(v[i]) * g[i][j] * w[j]
    return acc


def _sqrt_frac_upper(q):
    if q < 0:
        raise ValueError("negative argument")
    if q == 0:
        return Fraction(0)
    scale = 1 << 30
    n = q.numerator * q.denominator
    root = math.isqrt(n * scale * scale) + 1
    return Fraction(root, q.denominator * scale)


def _reference_int_range_bounds(c, q):
    if q < 0:
        return 0, -1
    s = _sqrt_frac_upper(q)
    lo = math.ceil(-c - s)
    hi = math.floor(-c + s)
    while lo <= hi and (lo + c) ** 2 > q:
        lo += 1
    while hi >= lo and (hi + c) ** 2 > q:
        hi -= 1
    return lo, hi


def _atanh_bounds(z, bits):
    if z == 0:
        return Fraction(0), Fraction(0)
    n_terms = (bits + 4) // 3 + 2
    s = Fraction(0)
    zsq = z * z
    power = z
    for j in range(n_terms):
        s += power / (2 * j + 1)
        power *= zsq
    s *= 2
    rem = 2 * power / ((2 * n_terms + 1) * (1 - zsq))
    return s, s + rem


def _log_int_bounds(n, bits):
    if n == 1:
        return Fraction(0), Fraction(0)
    k = n.bit_length() - 1
    inner = bits + k.bit_length() + 2
    l2lo, l2hi = _atanh_bounds(Fraction(1, 3), inner)
    m = Fraction(n, 1 << k)
    slo, shi = _atanh_bounds((m - 1) / (m + 1), inner)
    return k * l2lo + slo, k * l2hi + shi


def _reference_bounds(x, bits):
    lo = hi = x.constant
    for p, c in x.terms:
        blo, bhi = _log_int_bounds(p, bits)
        if c >= 0:
            lo += c * blo
            hi += c * bhi
        else:
            lo += c * bhi
            hi += c * blo
    return lo, hi


# -- helpers ------------------------------------------------------------------

def _rat(rng, bound=5):
    return F(rng.randint(-bound, bound), rng.randint(1, 4))


def _pair(x):
    return x.a, x.b


def _embed(x, t):
    """x = a + b*omega of Q(sqrt t) as a complex number, omega = sqrt(t) or
    (1 + sqrt(t))/2 when t = 1 mod 4, with sqrt(t) = i*sqrt(-t) for t < 0."""
    root = cmath.sqrt(t)
    return float(x.a) + float(x.b) * ((1 + root) / 2 if t % 4 == 1 else root)


# -- tests --------------------------------------------------------------------

@pytest.mark.parametrize("t", [-1, -2, -3, -7, -11, 2, 3, 5])
def test_quadratic_field_matches_quadint(t):
    """Arithmetic against `QuadInt`, and `conjugate()` and `real` against the
    complex embedding: `conjugate()` is `conj` on Q(sqrt(-d)) and the
    identity on a real field, where `real` raises."""
    field = QuadField(*_omega_data(t))
    if t < 0:
        assert field == ImagQuadField(-t)
    rng = random.Random(400 + t)
    for _ in range(50):
        p, q, r, s = (_rat(rng) for _ in range(4))
        x, y = field.elt(p, q), field.elt(r, s)
        rx, ry = QuadInt(t, p, q), QuadInt(t, r, s)
        assert _pair(x + y) == ((rx + ry).p, (rx + ry).q)
        assert _pair(x * y) == ((rx * ry).p, (rx * ry).q)
        assert _pair(x.conj()) == (rx.conj().p, rx.conj().q)
        z = _embed(x, t)
        assert abs(_embed(x.conjugate(), t) - z.conjugate()) <= 1e-9 * (1 + abs(z))
        if t < 0:
            assert x.conjugate() == x.conj()
            assert x.real == F(x.trace(), 2) and abs(float(x.real) - z.real) <= 1e-9 * (1 + abs(z))
            assert type(x.real) is (int if F(x.real).denominator == 1 else Fraction)
        else:
            assert x.conjugate() == x
            with pytest.raises(ValueError, match="no rational real part"):
                x.real
        assert x.norm() == rx.norm()
        assert x.trace() == rx.trace()
        e, re = x * x + x * y + y * y, rx * rx + rx * ry + ry * ry
        assert _pair(e) == (re.p, re.q) and e.norm() == re.norm()
    if t == -7:
        assert field.omega.real == F(1, 2)


@pytest.mark.parametrize("p", [5, 13, 37])
def test_tower_matches_quartelt(p):
    k = ImagQuadField(p)
    kp = QuadField(0, 1, k)
    rng = random.Random(500 + p)

    def draw():
        x0, x1 = k.elt(_rat(rng), _rat(rng)), k.elt(_rat(rng), _rat(rng))
        return kp.elt(x0, x1), QuartElt(x0, x1)

    for _ in range(50):
        (x, rx), (y, ry) = draw(), draw()
        scalar = k.elt(_rat(rng), _rat(rng))
        assert _pair(x * y) == ((rx * ry).x0, (rx * ry).x1)
        assert _pair(x * scalar) == ((rx * scalar).x0, (rx * scalar).x1)
        assert _pair(x * 3) == ((rx * 3).x0, (rx * 3).x1)
        assert _pair(x.conj()) == (rx.tau().x0, rx.tau().x1)
        assert _pair(x.conjugate()) == (rx.cconj().x0, rx.cconj().x1)
        assert _pair(QElt(kp, x.a.conj(), x.b.conj()).conj()) == _pair(x.conjugate())
        assert x.norm() == rx.relative_norm()
        assert x.norm().norm() == rx.absolute_norm()
        e, re = x * x.conjugate() + y * y.conjugate(), rx * rx.cconj() + ry * ry.cconj()
        assert _pair(e) == (re.x0, re.x1) and e.norm().norm() == re.absolute_norm()
        with pytest.raises(ValueError, match="no rational real part"):
            x.real


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_sqrt2_tower_matches_pair_model(d):
    """Over L = Q(sqrt(-d))(sqrt 2), complex conjugation is a ring
    automorphism fixing sqrt(2), and x * cconj(x) = |x|^2 is a rational
    combination of 1 and sqrt(2)."""
    k = ImagQuadField(d)
    el = QuadField(0, -2, k)  # omega^2 = 2
    rng = random.Random(650 + d)
    assert el.omega * el.omega == el.elt(2)
    assert el.omega.conjugate() == el.omega

    def draw():
        x0, x1 = k.elt(_rat(rng), _rat(rng)), k.elt(_rat(rng), _rat(rng))
        return el.elt(x0, x1), Sqrt2Elt(x0, x1)

    for _ in range(50):
        (x, rx), (y, ry) = draw(), draw()
        cx, cy = x.conjugate(), y.conjugate()
        assert _pair(cx) == (rx.cconj().x0, rx.cconj().x1)
        assert _pair(x * y) == ((rx * ry).x0, (rx * ry).x1)
        assert (x * y).conjugate() == cx * cy
        assert (x + y).conjugate() == cx + cy
        assert cx.conjugate() == x
        z = (rx.to_complex() * ry.to_complex()).conjugate()
        assert abs((rx.cconj() * ry.cconj()).to_complex() - z) <= 1e-9 * (1 + abs(z))
        abs_sq = x * cx
        assert _pair(abs_sq) == ((rx * rx.cconj()).x0, (rx * rx.cconj()).x1)
        assert abs_sq.a.is_rational() and abs_sq.b.is_rational()
        want = abs(rx.to_complex()) ** 2
        got = float(abs_sq.a.as_fraction()) + float(abs_sq.b.as_fraction()) * math.sqrt(2)
        assert abs(got - want) <= 1e-9 * (1 + want)
        with pytest.raises(ValueError, match="no rational real part"):
            x.real


@pytest.mark.parametrize("d", [1, 2, 3, 7, 11])
def test_gram_operations_match_loops(d):
    """tensor, orthogonal_sum, twist, dual and inner through `linalg` give
    the entrywise loops they replaced; inner also on euclidean lattices with
    D > 1 and Fraction coordinates, where the loop conjugates nothing."""
    field = ImagQuadField(d)
    rng = random.Random(660 + d)
    zero = field.zero

    def draw():
        while True:
            r = rng.randint(1, 3)
            g = [[None] * r for _ in range(r)]
            for i in range(r):
                g[i][i] = field.elt(F(rng.randint(1, 12), rng.randint(1, 3)))
                for j in range(i + 1, r):
                    g[i][j] = field.elt(F(rng.randint(-2, 2), rng.randint(1, 2)), rng.randint(-2, 2))
                    g[j][i] = g[i][j].conj()
            try:
                return HermitianLattice(field, g)
            except ValueError:
                continue

    lats = [draw() for _ in range(12)]
    for a, b in zip(lats, lats[1:]):
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        assert a.tensor(b) == HermitianLattice(field, _loop_tensor(a.gram, b.gram))
        assert a.orthogonal_sum(b) == HermitianLattice(field, _loop_orthogonal_sum(a.gram, b.gram, zero))
        assert a.twist(c) == HermitianLattice(field, [[x * c for x in row] for row in a.gram])
        assert a.dual() == HermitianLattice(field, _loop_dual(a.gram))
        v = [field.elt(_rat(rng), _rat(rng)) for _ in range(a.rank)]
        w = [field.elt(_rat(rng), _rat(rng)) for _ in range(a.rank)]
        assert a.inner(v, w) == _loop_inner(a.gram, v, w, zero)
    euclidean = 0
    while euclidean < 12:
        r = rng.randint(1, 4)
        g = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r)] for _ in range(r)]
        try:
            e = EuclideanLattice([[g[i][j] + g[j][i] + 4 * (i == j) for j in range(r)] for i in range(r)])
        except ValueError:
            continue
        if e.scaled_gram()[1] == 1:
            continue
        euclidean += 1
        for lat in (e, e.dual()):
            v, w = [_rat(rng) for _ in range(r)], [_rat(rng) for _ in range(r)]
            assert lat.inner(v, w) == _loop_inner(lat.gram, v, w, 0, Fraction)
            assert lat.norm_sq(v) == _loop_inner(lat.gram, v, v, 0, Fraction)


def test_int_range_bounds_match_sqrt_frac_upper():
    rng = random.Random(700)
    cases = [(F(0), F(0)), (F(1, 2), F(-1)), (F(0), F(4)), (F(-3, 2), F(9, 4))]
    for _ in range(60):
        c = F(rng.randint(-50, 50), rng.randint(1, 12))
        q = F(rng.randint(0, 10**6), rng.randint(1, 10**3)) if rng.random() < 0.8 else F(rng.randint(0, 30)) ** 2
        cases.append((c, q))
    for c, q in cases:
        # with c = s / d, (x + c)^2 <= q iff the integer (d x + s)^2 is at
        # most floor(q d^2): the range the Fincke-Pohst traversal solves
        s, d = c.numerator, c.denominator
        assert _isqrt_range(s, d, math.floor(q * d * d)) == _reference_int_range_bounds(c, q)


def test_bounds_match_tuple_version():
    rng = random.Random(800)
    for n in range(50):
        terms = {rng.choice([2, 3, 5, 7, 11, 97, 1009, 65537]): _rat(rng, 9) for _ in range(3)}
        x = LogRational(_rat(rng), terms)
        bits = (64, 128, 256)[n % 3]
        iv = x.bounds(bits)
        assert isinstance(iv, RIv)
        assert (iv.lo, iv.hi) == _reference_bounds(x, bits)


def _leibniz_det(g, field):
    """Determinant as the signed sum over permutations, sign by inversions."""
    n = len(g)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = field.one
        for i, j in enumerate(perm):
            term = term * g[i][j]
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("d", [1, 3, 7])
def test_positivity_matches_leading_minors(d):
    field = ImagQuadField(d)
    rng = random.Random(900 + d)

    def draw(n):
        r = 1 + n % 4
        g = [[None] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = field.elt(rng.randint(-1, 6))
            for j in range(i + 1, r):
                g[i][j] = field.elt(rng.randint(-2, 2), rng.randint(-2, 2))
                g[j][i] = g[i][j].conj()
        return g

    # a zero second leading minor: elimination swaps a row in and then
    # meets only positive pivots, yet the determinant is -1
    swapped = [[field.elt(x) for x in row] for row in ((1, 1, 0), (1, 1, 1), (0, 1, 1))]
    accepted = rejected = 0
    for g in [swapped] + [draw(n) for n in range(60)]:
        minors = [_leibniz_det([row[:k] for row in g[:k]], field) for k in range(1, len(g) + 1)]
        definite = all(m.is_rational() and m.as_fraction() > 0 for m in minors)
        if definite:
            accepted += 1
            assert HermitianLattice(field, g).det() == minors[-1].as_fraction()
        else:
            rejected += 1
            with pytest.raises(ValueError):
                HermitianLattice(field, g)
    assert accepted >= 10 and rejected >= 10


# -- int coordinates against the Fraction models --------------------------------

def _coords(x):
    """The rational coordinates of x, through every level of a tower."""
    if isinstance(x, QElt):
        return _coords(x.a) + _coords(x.b)
    return (x,)


def _exact(*xs):
    """Every rational coordinate is an int or a Fraction, never a float."""
    return all(type(c) in (int, F) for x in xs for c in _coords(x))


def _all_int(x):
    return all(type(c) is int for c in _coords(x))


def _coord(rng, integral):
    n = rng.randint(-6, 6)
    return n if integral else F(n, rng.randint(1, 4))


def _qi(r):
    return r.p, r.q


def _quadint_quotient(rx, ry):
    num, n = rx * ry.conj(), ry.norm()
    return QuadInt(rx.t, num.p / n, num.q / n)


@pytest.mark.parametrize("t", [-1, -2, -3, -5, -7, -11, -13, -37, 2, 3])
def test_int_coordinates_match_quadint_over_quadratic_fields(t):
    """Over Q(sqrt t), integral operands keep int coordinates through + - *
    and through every exact quotient; all results equal the Fraction model,
    and none has a float coordinate."""
    field = QuadField(*_omega_data(t))
    rng = random.Random(1100 + t)
    divisible = 0
    for n in range(150):
        integral = n % 3 != 0
        x = field.elt(_coord(rng, integral), _coord(rng, integral))
        y = field.elt(_coord(rng, integral), _coord(rng, integral))
        z = field.elt(rng.randint(-5, 5), rng.randint(-5, 5))
        if n % 4 == 0:
            x = y * z  # y divides x in the ring when y is integral
        rx, ry = QuadInt(t, F(x.a), F(x.b)), QuadInt(t, F(y.a), F(y.b))
        minus_one, one = QuadInt(t, F(-1), F(0)), QuadInt(t, F(1), F(0))
        assert integral <= _all_int(x)
        assert _exact(x + y, x - y, x * y, -x, x.conj(), x.norm(), x.trace(), x * 3, x / 3, 3 - x)
        assert _pair(x + y) == _qi(rx + ry)
        assert _pair(x - y) == _qi(rx + ry * minus_one)
        assert _pair(x * y) == _qi(rx * ry)
        assert _pair(x.conj()) == _qi(rx.conj())
        assert x.norm() == rx.norm() and x.trace() == rx.trace()
        assert _pair(x / 3) == (rx.p / 3, rx.q / 3)
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        q, inv = x / y, y.inverse()
        assert _exact(q, inv)
        assert _pair(q) == _qi(_quadint_quotient(rx, ry))
        assert _pair(inv) == _qi(_quadint_quotient(one, ry))
        if _all_int(x) and _all_int(y) and q.is_integral():
            assert _all_int(q)
            divisible += 1
        if n % 4 == 0 and _all_int(y):
            assert q == z and _all_int(q)
    assert divisible >= 20


@pytest.mark.parametrize("p", [5, 13, 37])
def test_int_coordinates_match_quartelt_over_k_i(p):
    """K(i) over K = Q(sqrt(-p)): quotients checked through the model's
    product, integral quotients on ints at both levels."""
    k = ImagQuadField(p)
    kp = QuadField(0, 1, k)
    rng = random.Random(1200 + p)

    def draw(integral):
        return kp.elt(*(k.elt(_coord(rng, integral), _coord(rng, integral)) for _ in range(2)))

    def model(x):
        return QuartElt(x.a, x.b)

    one = QuartElt(k.one, k.zero)
    divisible = 0
    for n in range(120):
        integral = n % 3 != 0
        x, y, z = draw(integral), draw(integral), draw(True)
        if n % 4 == 0:
            x = y * z
        rx, ry = model(x), model(y)
        assert integral <= _all_int(x)
        assert _exact(x + y, x - y, x * y, x.conj(), x.norm(), x.trace(), x / 3, x / k.elt(2, 1))
        assert model(x + y) == rx + ry
        assert model(x - y) == rx + ry * -1
        assert model(x * y) == rx * ry
        assert model(x.conj()) == rx.tau()
        assert x.norm() == rx.relative_norm() and x.trace() == rx.x0 * 2
        assert model(x / k.elt(2, 1)) * k.elt(2, 1) == rx
        if y.is_zero():
            continue
        q, inv = x / y, y.inverse()
        assert _exact(q, inv)
        assert model(q) * ry == rx and model(inv) * ry == one
        if n % 4 == 0 and _all_int(y):
            assert q == z and _all_int(q)
            divisible += 1
    assert divisible >= 15


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_int_coordinates_match_sqrt2_model(d):
    """K(sqrt 2) over K = Q(sqrt(-d)), as for K(i)."""
    k = ImagQuadField(d)
    el = QuadField(0, -2, k)
    rng = random.Random(1300 + d)

    def draw(integral):
        return el.elt(*(k.elt(_coord(rng, integral), _coord(rng, integral)) for _ in range(2)))

    def model(x):
        return Sqrt2Elt(x.a, x.b)

    one = Sqrt2Elt(k.one, k.zero)
    divisible = 0
    for n in range(60):
        integral = n % 3 != 0
        x, y, z = draw(integral), draw(integral), draw(True)
        if n % 4 == 0:
            x = y * z
        rx, ry = model(x), model(y)
        tau = Sqrt2Elt(rx.x0, -rx.x1)
        assert integral <= _all_int(x)
        assert _exact(x + y, x - y, x * y, x.conj(), x.norm(), x.trace())
        assert model(x + y) == rx + ry
        assert model(x - y) == rx + ry * Sqrt2Elt(-k.one, k.zero)
        assert model(x * y) == rx * ry
        assert model(x.conj()) == tau
        assert (rx * tau).x1.is_zero() and x.norm() == (rx * tau).x0
        assert x.trace() == rx.x0 * 2
        if y.is_zero():
            continue
        q, inv = x / y, y.inverse()
        assert _exact(q, inv)
        assert model(q) * ry == rx and model(inv) * ry == one
        if n % 4 == 0 and _all_int(y):
            assert q == z and _all_int(q)
            divisible += 1
    assert divisible >= 8
