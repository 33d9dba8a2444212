"""`hermitian.QElt` and `exactval.RIv` against test-local copies of what they
replaced: the classes `hermitian.QuadInt` (norm products over Q(sqrt t)),
`QuartElt` (K(i) over K = Q(sqrt(-p))) and `CIv` (complex enclosures),
`linalg.sqrt_frac_upper`, the tuple-valued `LogRational.bounds`, and the
leading-minor positivity test of `HermitianLattice`."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from slopekit import linalg
from slopekit.enumeration import _int_range_bounds
from slopekit.exactval import LogRational, RIv, sqrt_interval
from slopekit.hermitian import (
    HermitianLattice,
    ImagQuadField,
    QElt,
    QuadField,
    _cconj,
    _omega_data,
    qelt_interval,
)

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
class CIv:
    re: RIv
    im: RIv

    def __mul__(self, other):
        return CIv(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self):
        return CIv(self.re, -self.im)

    def abs_sq(self):
        return self.re * self.re + self.im * self.im


def _reference_qelt_interval(x, bits):
    im_scale = F(1, 2) if x.field.omega_trace == 1 else F(1)
    sq = sqrt_interval(x.field.d, bits)
    return CIv(RIv.const(x.real_part()), RIv.const(x.b * im_scale) * sq)


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


def _riv(rng):
    lo = F(rng.randint(-40, 40), rng.randint(1, 9))
    return RIv(lo, lo + F(rng.randint(0, 20), rng.randint(1, 9)))


# -- tests --------------------------------------------------------------------

@pytest.mark.parametrize("t", [-1, -2, -3, -7, 2, 3])
def test_quadratic_field_matches_quadint(t):
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
        assert x.norm() == rx.norm()
        assert x.trace() == rx.trace()
        e, re = x * x + x * y + y * y, rx * rx + rx * ry + ry * ry
        assert _pair(e) == (re.p, re.q) and e.norm() == re.norm()


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
        assert _pair(_cconj(x)) == (rx.cconj().x0, rx.cconj().x1)
        assert _pair(QElt(kp, x.a.conj(), x.b.conj()).conj()) == _pair(_cconj(x))
        assert x.norm() == rx.relative_norm()
        assert x.norm().norm() == rx.absolute_norm()
        e, re = x * _cconj(x) + y * _cconj(y), rx * rx.cconj() + ry * ry.cconj()
        assert _pair(e) == (re.x0, re.x1) and e.norm().norm() == re.absolute_norm()


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_complex_enclosures_match_civ(d):
    field = ImagQuadField(d)
    rng = random.Random(600 + d)
    bits = 192
    sqrt2 = sqrt_interval(2, bits)
    for n in range(50):
        x = field.elt(_rat(rng, 9), _rat(rng, 9))
        y = field.elt(_rat(rng, 9), _rat(rng, 9))
        xi, yi = qelt_interval(x, bits), qelt_interval(y, bits)
        rxi, ryi = _reference_qelt_interval(x, bits), _reference_qelt_interval(y, bits)
        assert _pair(xi) == (rxi.re, rxi.im)
        if n % 2:  # a coordinate that straddles 0, as in the q7 frames
            xi = QElt(xi.field, _riv(rng), xi.b)
            rxi = CIv(xi.a, rxi.im)
        factor = RIv.const(_rat(rng)) * sqrt2 - RIv.const(_rat(rng))
        zi = QElt(xi.field, factor, _riv(rng))
        rzi = CIv(zi.a, zi.b)
        assert _pair(xi * yi) == ((rxi * ryi).re, (rxi * ryi).im)
        assert _pair(xi.conj() * zi) == ((rxi.conj() * rzi).re, (rxi.conj() * rzi).im)
        assert xi.norm() == rxi.abs_sq()
        assert (xi * zi).norm() == (rxi * rzi).abs_sq()


def test_int_range_bounds_match_sqrt_frac_upper():
    rng = random.Random(700)
    cases = [(F(0), F(0)), (F(1, 2), F(-1)), (F(0), F(4)), (F(-3, 2), F(9, 4))]
    for _ in range(60):
        c = F(rng.randint(-50, 50), rng.randint(1, 12))
        q = F(rng.randint(0, 10**6), rng.randint(1, 10**3)) if rng.random() < 0.8 else F(rng.randint(0, 30)) ** 2
        cases.append((c, q))
    for c, q in cases:
        assert _int_range_bounds(c, q) == _reference_int_range_bounds(c, q)
        if q >= 0:
            assert sqrt_interval(q, 30).hi == _sqrt_frac_upper(q)


def test_bounds_match_tuple_version():
    rng = random.Random(800)
    for n in range(50):
        terms = {rng.choice([2, 3, 5, 7, 11, 97, 1009, 65537]): _rat(rng, 9) for _ in range(3)}
        x = LogRational(_rat(rng), terms)
        bits = (64, 128, 256)[n % 3]
        iv = x.bounds(bits)
        assert isinstance(iv, RIv)
        assert (iv.lo, iv.hi) == _reference_bounds(x, bits)


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
        minors = [linalg.det_field([row[:k] for row in g[:k]]) for k in range(1, len(g) + 1)]
        definite = all(m.is_rational() and m.as_fraction() > 0 for m in minors)
        if definite:
            accepted += 1
            assert HermitianLattice(field, g).det() == linalg.det_field(g).as_fraction()
        else:
            rejected += 1
            with pytest.raises(ValueError):
                HermitianLattice(field, g)
    assert accepted >= 10 and rejected >= 10
