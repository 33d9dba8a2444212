"""Exact numbers of the form q0 + sum_i q_i*log(p_i) with rational q's and prime p's.

Every degree and slope computed by this package is such a value.  Equality is
decided symbolically on the canonical form (logs of distinct primes are
linearly independent over the rationals, so canonical forms are faithful);
strict order is decided by rational interval arithmetic at doubling precision,
which terminates because a nonzero canonical form denotes a nonzero real.

`RIv`, the closed rational interval, is the package's one rigorous-enclosure
type: `LogRational.bounds` returns one, `sqrt_interval` encloses square
roots, and the hermitian checks that involve sqrt(2) compute with them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

Rat = int | Fraction

_TRIAL_LIMIT = 10**6

# Witnesses making Miller-Rabin deterministic for n < 3.3*10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, deterministic (Brent, fixed seeds)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"factorization failed for {n}")


def factor_positive_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1; trial division then rho for the residue."""
    if n < 1:
        raise ValueError("argument must be a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while d <= _TRIAL_LIMIT and d * d <= n:
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
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


# ---------------------------------------------------------------------------
# Rigorous rational enclosures.

@dataclass(frozen=True)
class RIv:
    """The closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    @staticmethod
    def const(q: "Rat | RIv") -> "RIv":
        """The point interval [q, q]; an interval is returned as it is."""
        if isinstance(q, RIv):
            return q
        q = Fraction(q)
        return RIv(q, q)

    def __add__(self, other):
        other = RIv.const(other)
        return RIv(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return RIv(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-RIv.const(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RIv.const(other)
        prods = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return RIv(min(prods), max(prods))

    __rmul__ = __mul__

    def width(self) -> Fraction:
        return self.hi - self.lo

    def intersects(self, other: "RIv") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def contains(self, q: Rat) -> bool:
        return self.lo <= Fraction(q) <= self.hi


def sqrt_interval(q: Rat, bits: int = 160) -> RIv:
    """Enclosure of sqrt(q), q >= 0, between consecutive multiples of
    1/(denominator(q) * 2**bits)."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative argument")
    if q == 0:
        return RIv.const(0)
    scale = 1 << bits
    n = q.numerator * q.denominator
    root = math.isqrt(n * scale * scale)
    return RIv(Fraction(root, q.denominator * scale), Fraction(root + 1, q.denominator * scale))


def _atanh_bounds(z: Fraction, bits: int) -> RIv:
    """Enclosure of 2*atanh(z) for 0 <= z <= 1/3, width <= 2**-bits."""
    if z == 0:
        return RIv.const(0)
    # remainder after N terms is <= 2*z^(2N+1)/((2N+1)(1-z^2)) <= (9/4)*3^-(2N+1)
    n_terms = (bits + 4) // 3 + 2
    s = Fraction(0)
    zsq = z * z
    power = z
    for j in range(n_terms):
        s += power / (2 * j + 1)
        power *= zsq
    s *= 2
    # power is now z^(2*n_terms+1); tail <= power/((2N+1)(1-z^2)), doubled
    rem = 2 * power / ((2 * n_terms + 1) * (1 - zsq))
    return RIv(s, s + rem)


@lru_cache(maxsize=64)
def _log2_bounds(bits: int) -> RIv:
    return _atanh_bounds(Fraction(1, 3), bits)


@lru_cache(maxsize=1024)
def _log_int_bounds(n: int, bits: int) -> RIv:
    """Rigorous lo <= log n <= hi for integer n >= 1, width <= 2**(1-bits)."""
    if n == 1:
        return RIv.const(0)
    k = n.bit_length() - 1
    inner = bits + k.bit_length() + 2
    l2 = _log2_bounds(inner)
    m = Fraction(n, 1 << k)  # in [1, 2)
    s = _atanh_bounds((m - 1) / (m + 1), inner)
    return RIv(k * l2.lo + s.lo, k * l2.hi + s.hi)


def _fraction_to_float_down(q: Fraction) -> float:
    f = float(q)
    while Fraction(f) > q:
        f = math.nextafter(f, -math.inf)
    return f


def _fraction_to_float_up(q: Fraction) -> float:
    f = float(q)
    while Fraction(f) < q:
        f = math.nextafter(f, math.inf)
    return f


# ---------------------------------------------------------------------------

class LogRational:
    """Immutable canonical value q0 + sum q_p*log(p) over primes p."""

    __slots__ = ("constant", "terms")

    def __init__(self, constant: Rat = 0, terms: Mapping[int, Rat] | None = None):
        object.__setattr__(self, "constant", Fraction(constant))
        merged: dict[int, Fraction] = {}
        if terms:
            for base, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                if base < 1:
                    raise ValueError(f"log base must be a positive integer, got {base}")
                for p, e in factor_positive_int(base).items():
                    merged[p] = merged.get(p, Fraction(0)) + e * coeff
        cleaned = {p: c for p, c in sorted(merged.items()) if c != 0}
        object.__setattr__(self, "terms", tuple(cleaned.items()))

    def __setattr__(self, name, value):
        raise AttributeError("LogRational is immutable")

    # -- algebra

    def _raw(self, constant: Fraction, terms: Iterable[tuple[int, Fraction]]) -> "LogRational":
        out = object.__new__(LogRational)
        object.__setattr__(out, "constant", constant)
        object.__setattr__(out, "terms", tuple((p, c) for p, c in terms if c != 0))
        return out

    def __add__(self, other) -> "LogRational":
        if isinstance(other, (int, Fraction)):
            other = LogRational(other)
        if not isinstance(other, LogRational):
            return NotImplemented
        acc = dict(self.terms)
        for p, c in other.terms:
            acc[p] = acc.get(p, Fraction(0)) + c
        return self._raw(self.constant + other.constant, sorted(acc.items()))

    __radd__ = __add__

    def __neg__(self) -> "LogRational":
        return self._raw(-self.constant, ((p, -c) for p, c in self.terms))

    def __sub__(self, other) -> "LogRational":
        if isinstance(other, (int, Fraction)):
            other = LogRational(other)
        if not isinstance(other, LogRational):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LogRational":
        return (-self) + other

    def __mul__(self, scalar) -> "LogRational":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        scalar = Fraction(scalar)
        return self._raw(self.constant * scalar, ((p, c * scalar) for p, c in self.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "LogRational":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(scalar))

    # -- comparisons

    def is_zero(self) -> bool:
        return self.constant == 0 and not self.terms

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        if not self.terms:
            c = self.constant
            return (c > 0) - (c < 0)
        # nonzero canonical form with log terms denotes a nonzero real
        bits = 64
        while True:
            iv = self.bounds(bits)
            if iv.lo > 0:
                return 1
            if iv.hi < 0:
                return -1
            bits *= 2

    def bounds(self, bits: int) -> RIv:
        """Rigorous rational enclosure, width <= 2**(3-bits)*sum(1+|coeff|)."""
        lo = hi = self.constant
        for p, c in self.terms:
            b = _log_int_bounds(p, bits)
            if c >= 0:
                lo += c * b.lo
                hi += c * b.hi
            else:
                lo += c * b.hi
                hi += c * b.lo
        return RIv(lo, hi)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LogRational(other)
        if not isinstance(other, LogRational):
            return NotImplemented
        return self.constant == other.constant and self.terms == other.terms

    def __hash__(self):
        return hash((self.constant, self.terms))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    # -- rendering

    def __repr__(self):
        return f"LogRational({self.render()!r})"

    def __str__(self):
        return self.render()

    def render(self) -> str:
        parts: list[str] = []
        if self.constant != 0 or not self.terms:
            parts.append(fmt_rat(self.constant))
        for p, c in self.terms:
            piece = f"{fmt_rat(abs(c))}*log({p})"
            if not parts:
                parts.append(piece if c > 0 else "-" + piece)
            else:
                parts.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(parts)

    def render_compact(self) -> str:
        """Single-log form q*log(a/b) when the value is a pure log; canonical
        rendering otherwise."""
        if self.constant != 0 or not self.terms:
            return self.render()
        num_gcd = 0
        den_lcm = 1
        for _, c in self.terms:
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        q = Fraction(num_gcd, den_lcm)
        arg = Fraction(1)
        for p, c in self.terms:
            e = c / q
            arg *= Fraction(p) ** int(e)
        return f"{fmt_rat(q)}*log({fmt_rat(arg)})"

    def float_approx(self) -> float:
        lo, hi = self.to_float(64)
        return (lo + hi) / 2


    def to_float(self, precision_bits: int = 53) -> tuple[float, float]:
        """Rigorous enclosing float interval of width <= 2**(1-precision_bits)*max(1,|value|)."""
        if precision_bits < 16:
            raise ValueError("precision_bits must be >= 16")
        target = Fraction(1, 1 << (precision_bits - 1))
        bits = max(precision_bits + 8, 64)
        while True:
            iv = self.bounds(bits)
            scale = max(Fraction(1), min(abs(iv.lo), abs(iv.hi)) if iv.lo * iv.hi > 0 else Fraction(1))
            if iv.width() <= target * scale:
                return _fraction_to_float_down(iv.lo), _fraction_to_float_up(iv.hi)
            bits *= 2


def fmt_rat(q: Fraction) -> str:
    """Render q as "p" or "p/q", the rational format of reports and JSON files."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Module-level operations.

def log_of_rational(q: Rat) -> LogRational:
    """Exact log q for a positive rational q; log 1 = 0."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"log argument must be positive, got {q}")
    terms: dict[int, Fraction] = {}
    for p, e in factor_positive_int(q.numerator).items():
        terms[p] = terms.get(p, Fraction(0)) + e
    for p, e in factor_positive_int(q.denominator).items():
        terms[p] = terms.get(p, Fraction(0)) - e
    out = object.__new__(LogRational)
    object.__setattr__(out, "constant", Fraction(0))
    object.__setattr__(out, "terms", tuple(sorted((p, c) for p, c in terms.items() if c != 0)))
    return out


def half_log(q: Rat) -> LogRational:
    return log_of_rational(q) * Fraction(1, 2)


ZERO = LogRational(0)


def compare(a: LogRational, b: LogRational) -> int:
    """Exact trichotomy: -1, 0 or 1 as a < b, a = b, a > b."""
    return (a - b).sign()


def to_float(a: LogRational, precision_bits: int = 53) -> tuple[float, float]:
    return a.to_float(precision_bits)


# ---------------------------------------------------------------------------
# Parsing of the rendered grammar: "q0 + q1*log(n1) - q2*log(n2) ...".

_TERM_RE = re.compile(
    r"""^\s*
        (?:(?P<coeff>-?\d+(?:/\d+)?)\s*\*\s*)?   # optional rational coefficient
        (?:(?P<neg>-)\s*)?                       # or a bare sign before log
        log\(\s*(?P<arg>\d+(?:/\d+)?)\s*\)\s*$""",
    re.VERBOSE,
)


def parse(text: str) -> LogRational:
    """Parse the rendering grammar; log arguments may be positive integers or a/b."""
    s = text.strip()
    if not s:
        raise ValueError("empty LogRational text")
    # split into signed chunks at top level
    chunks: list[str] = []
    sign = 1
    buf = ""
    depth = 0
    first = True
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and buf.strip() and buf.rstrip()[-1] not in "*/(":
            chunks.append(("-" if sign < 0 else "") + buf.strip())
            sign = 1 if ch == "+" else -1
            buf = ""
            first = False
            continue
        buf += ch
    chunks.append(("-" if sign < 0 else "") + buf.strip())
    result = LogRational(0)
    for chunk in chunks:
        if not chunk:
            continue
        neg = False
        body = chunk
        if body.startswith("-"):
            neg = True
            body = body[1:].strip()
        if "log" in body:
            m = _TERM_RE.match(body)
            if not m:
                raise ValueError(f"cannot parse LogRational term {chunk!r}")
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            if m.group("neg"):
                coeff = -coeff
            arg = Fraction(m.group("arg"))
            term = log_of_rational(arg) * coeff
        else:
            term = LogRational(Fraction(body))
        result = result + (-term if neg else term)
    return result
