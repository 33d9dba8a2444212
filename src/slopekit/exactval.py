"""Exact numbers of the form q0 + sum_i q_i*log(p_i) with rational q's and prime p's.

Every degree and slope computed by this package is such a value.  Its
canonical form is (q0, den, exps): q0 a Fraction and the log part
(1/den)*sum e_p*log(p) with integer exponents e_p != 0 over one denominator
den >= 1, gcd(den, e_p, ...) = 1.  Equality is decided symbolically on that
form (logs of distinct primes are linearly independent over the rationals, so
canonical forms are faithful).  The sign of a pure log (q0 = 0) is an integer
comparison of two products of prime powers; any other strict order is decided
by rational interval arithmetic at doubling precision, which terminates
because a nonzero canonical form denotes a nonzero real.

The canonical form needs prime factorizations.  `factor_positive_int` trial
divides by the primes below 1000, then takes each cofactor, with its
multiplicity, through a perfect-power test (integer k-th roots), Miller-Rabin
and Pollard-Brent rho, in that order; results are memoized in a bounded LRU
cache.  Rho has a fixed step cap, past which `FactoringCapExceeded` is raised
(a product of two primes above ~10**11 can hit it).  Miller-Rabin with
the first 12 primes as witnesses is proven correct only below 3.3*10**24;
above that a factor it calls prime is a strong probable prime to 12 bases, and
the faithfulness of the canonical form rests on that.

`RIv`, the closed rational interval, is the package's one rigorous-enclosure
type: the enclosure `LogRational.bounds` returns.

`rational` is the one rule for every number a caller hands over: an int or
a Fraction, never a float or a string; text is read, exactly, only by
`parse_rat`, at the JSON and command-line boundary.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

Rat = int | Fraction

# Witnesses making Miller-Rabin deterministic for n < 3.3*10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))

# Pollard-Brent rho gives up after this many polynomial steps on one cofactor,
# across all its polynomials: under a second of work, enough for a prime factor
# up to ~10**11 (rho needs ~sqrt(p) steps); two 56-bit primes would need 2**28.
_RHO_STEP_CAP = 1 << 20
_RHO_BATCH = 128


class FactoringCapExceeded(ArithmeticError):
    """Pollard-Brent rho ran out of steps before splitting a composite."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
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


def _iroot(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 1, k >= 2 (Newton from above)."""
    if k == 2:
        return math.isqrt(m)
    x = 1 << -(-m.bit_length() // k)
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r**k for the least prime k that allows it, else (m, 1).
    m is a prime or has no prime factor below 1000, so a power has r > 2**9
    and m > 2**(9k), which bounds the exponents to try; a composite exponent
    is found as a power of a power, through the factoring stack."""
    for k in _SMALL_PRIMES:
        if 9 * k >= m.bit_length():
            break
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of the composite n, which is odd and not a perfect
    power: Brent's cycle search with gcds batched over _RHO_BATCH products,
    polynomials x^2 + c for c = 1, 2, ... from x = 2 (Brent, "An improved Monte
    Carlo factorization algorithm", BIT 20, 1980).  Deterministic."""
    steps = 0
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            steps += 2 * r  # a round takes at most 2r steps
            if steps > _RHO_STEP_CAP:
                raise FactoringCapExceeded(
                    f"cannot factor {n} within {_RHO_STEP_CAP} Pollard-Brent steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k, q = 0, 1
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=1024)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted (prime, exponent) pairs of n >= 1.  Trial division by the primes
    below 1000; each cofactor m, with its multiplicity, then goes through a
    perfect-power test, Miller-Rabin, and Pollard-Brent rho, in that order."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, mult = stack.pop()
        r, k = _perfect_power(m)
        if k > 1:
            stack.append((r, mult * k))
        elif _is_prime(m):
            out[m] = out.get(m, 0) + mult
        else:
            f = _pollard_brent(m)
            stack += [(f, mult), (m // f, mult)]
    return tuple(sorted(out.items()))


def factor_positive_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, a fresh dict on every call; raises
    FactoringCapExceeded on a composite that rho cannot split in its step cap."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("argument must be a positive integer")
    return dict(_factor(n))


# ---------------------------------------------------------------------------
# Rigorous rational enclosures.

@dataclass(frozen=True)
class RIv:
    """The closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def width(self) -> Fraction:
        return self.hi - self.lo


def _atanh_bounds(z: Fraction, bits: int) -> RIv:
    """Enclosure of 2*atanh(z) for 0 <= z <= 1/3, width <= 2**-bits."""
    if z == 0:
        return RIv(z, z)
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
    k = n.bit_length() - 1
    inner = bits + k.bit_length() + 2
    l2 = _log2_bounds(inner)
    m = Fraction(n, 1 << k)  # in [1, 2)
    s = _atanh_bounds((m - 1) / (m + 1), inner)
    return RIv(k * l2.lo + s.lo, k * l2.hi + s.hi)


def _float_toward(q: Fraction, direction: float) -> float:
    """The float next to q toward direction (-inf or inf): the greatest float
    <= q, or the least float >= q.  One nextafter step is enough: float(q) is
    correctly rounded, so when it lies on the wrong side of q no float lies
    strictly between the two, and the next float in that direction lies past q.
    A q past the float range overflows float(q) and is read as the infinity
    on its side: toward that side the answer is the infinity, and the other
    way the float next to it, +-sys.float_info.max."""
    try:
        f = float(q)
    except OverflowError:
        f = math.inf if q > 0 else -math.inf
    if math.isinf(f):
        return f if (f > 0) == (direction > 0) else math.nextafter(f, direction)
    if (Fraction(f) > q) if direction < 0 else (Fraction(f) < q):
        f = math.nextafter(f, direction)
    return f


# ---------------------------------------------------------------------------

# The most precision `to_float` takes.  No float interval is narrower than one
# ulp, and the least ulp is 2**-1074, so past about 1,100 bits a precision
# changes no float it returns; the cap keeps a caller's argument from running
# the precision loop without bound.
_MAX_FLOAT_PRECISION_BITS = 2048

# Pure-log signs are decided on integers when the two products have at most
# this many bits together; larger ones go through the interval loop.
_INT_SIGN_BITS = 1 << 14

_set = object.__setattr__
_ZERO = Fraction(0)


class _Value:
    """Base of the package's immutable values: `LogRational`, both lattice
    kinds, `Sublattice`, `LatticeMorphism`, `Filtration`,
    `MultifilteredSpace`, `QuadField` and `QElt`.

    A value is the state its `__reduce__` rebuilds it from, through the
    checking constructor, so every subclass defines `__reduce__`: `object`'s
    default would give every slotted instance the same empty state.  `==`
    compares the two states of values of one type and returns NotImplemented
    for any other; `hash` hashes the state.  Assigning or deleting an
    attribute raises AttributeError, so no value can be changed or unmade;
    `__init__` and the memos built on first read set slots through
    `object.__setattr__` (`QElt` through its slot descriptors).

    Three classes override identity, each for a reason of its own:
    `LogRational` equals an int or Fraction of its value and hashes as it;
    `QuadField` equals an `ImagQuadField` of the same omega, whose state is d
    alone; `_GramPair` caches its hash and leaves the field out of it, since
    hash(None) differs between processes."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__()[1] == other.__reduce__()[1]

    def __hash__(self):
        return hash(self.__reduce__()[1])


_Key = tuple[Fraction, int, tuple[tuple[int, int], ...]]


def _lr(key: _Key) -> "LogRational":
    out = object.__new__(LogRational)
    _set(out, "_key", key)
    return out


def _canonical(constant: Fraction, den: int, exps: Iterable[tuple[int, int]]) -> _Key:
    """The key of constant + (1/den)*sum e*log(p) over sorted (p, e) pairs:
    zero exponents dropped, den and the exponents divided by their gcd (den = 1
    when no exponent is left)."""
    exps = tuple((p, e) for p, e in exps if e)
    if not exps:
        return constant, 1, ()
    if den > 1:
        g = math.gcd(den, *(e for _, e in exps))
        if g > 1:
            den //= g
            exps = tuple((p, e // g) for p, e in exps)
    return constant, den, exps


def _ordering(op):
    """The comparison `self op other`, decided by the sign of self - other;
    NotImplemented, for an operand `-` does not take, is passed on, so the
    TypeError Python raises names the comparison written."""

    def compare(self, other):
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else op(diff.sign(), 0)

    return compare


class LogRational(_Value):
    """Immutable value q0 + (1/den)*sum_p e_p*log(p) over primes p.

    The canonical form is the key (q0, den, exps): q0 a Fraction, den >= 1 an
    int, exps the sorted (p, e_p) pairs with every e_p a nonzero int, and
    gcd(den, e_p, ...) = 1 (den = 1 when exps is empty).  So equal values have
    equal keys, and the arithmetic on the log part runs on ints.  `terms`
    gives the same part as (p, e_p/den) pairs."""

    __slots__ = ("_key",)

    def __init__(self, constant: Rat = 0, terms: Mapping[int, Rat] | None = None):
        """constant + sum coeff*log(base) over terms, summed by `+` from
        `log_of_rational(base) * coeff`, so `log_of_rational` is the one route
        from a base to a canonical key."""
        value = _lr((Fraction(rational(constant)), 1, ()))
        for base, coeff in (terms or {}).items():
            if not isinstance(base, int) or base < 1:
                raise ValueError(f"log base must be a positive integer, got {base!r}")
            coeff = rational(coeff)
            if coeff:
                value += log_of_rational(base) * coeff
        _set(self, "_key", value._key)

    def __reduce__(self):
        return _lr, (self._key,)

    @property
    def constant(self) -> Fraction:
        return self._key[0]

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """The (p, coefficient of log p) pairs, by increasing p."""
        _, den, exps = self._key
        return tuple((p, Fraction(e, den)) for p, e in exps)

    # -- algebra

    def __add__(self, other) -> "LogRational":
        if isinstance(other, LogRational):
            c2, d2, x2 = other._key
        elif isinstance(other, (int, Fraction)):
            c2, d2, x2 = Fraction(other), 1, ()
        else:
            return NotImplemented
        c1, d1, x1 = self._key
        c = c1 + c2 if c1 and c2 else c1 or c2
        if not x2:
            return _lr((c, d1, x1))
        if not x1:
            return _lr((c, d2, x2))
        # over lcm(d1, d2), then back to canonical form
        den = d1 * d2 // math.gcd(d1, d2)
        m1, m2 = den // d1, den // d2
        acc = dict(x1) if m1 == 1 else {p: e * m1 for p, e in x1}
        for p, e in x2:
            acc[p] = acc.get(p, 0) + e * m2
        return _lr(_canonical(c, den, sorted(acc.items())))

    __radd__ = __add__

    def __neg__(self) -> "LogRational":
        c, den, exps = self._key
        return _lr((-c, den, tuple((p, -e) for p, e in exps)))

    def __sub__(self, other) -> "LogRational":
        if not isinstance(other, (int, Fraction, LogRational)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LogRational":
        return (-self).__add__(other)

    def _times(self, a: int, b: int) -> "LogRational":
        """self * (a/b) for b > 0."""
        c, den, exps = self._key
        if not a:
            return _lr((_ZERO, 1, ()))
        if c:
            c = Fraction(c.numerator * a, c.denominator * b)
        return _lr(_canonical(c, den * b, ((p, e * a) for p, e in exps)))

    def __mul__(self, scalar) -> "LogRational":
        if isinstance(scalar, int):
            return self._times(scalar, 1)
        if isinstance(scalar, Fraction):
            return self._times(scalar.numerator, scalar.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "LogRational":
        if isinstance(scalar, int):
            a, b = scalar, 1
        elif isinstance(scalar, Fraction):
            a, b = scalar.numerator, scalar.denominator
        else:
            return NotImplemented
        if not a:
            raise ZeroDivisionError("LogRational division by zero")
        return self._times(b, a) if a > 0 else self._times(-b, -a)

    # -- comparisons

    def is_zero(self) -> bool:
        return not self._key[0] and not self._key[2]

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        c, _, exps = self._key
        if not exps:
            return (c > 0) - (c < 0)
        if not c:
            # A pure log (1/den)*log(P/N), P = prod p^e over e > 0 and
            # N = prod p^(-e) over e < 0: exp is increasing and den > 0, so its
            # sign is that of P - N, an exact integer comparison (P != N by
            # unique factorization, the primes being distinct).  One term is
            # the sign of its exponent.  p^|e| < 2^(|e|*bitlen(p)), which
            # bounds the size of P and N before they are built.
            if len(exps) == 1:
                return 1 if exps[0][1] > 0 else -1
            if sum(abs(e) * p.bit_length() for p, e in exps) <= _INT_SIGN_BITS:
                pos = neg = 1
                for p, e in exps:
                    if e > 0:
                        pos *= p**e
                    else:
                        neg *= p**-e
                return 1 if pos > neg else -1
        # nonzero canonical form with log terms denotes a nonzero real
        iv = self._enclosure(64, lambda iv: iv.lo > 0 or iv.hi < 0)
        return 1 if iv.lo > 0 else -1

    def _enclosure(self, bits: int, good: Callable[[RIv], bool]) -> RIv:
        """The first of bounds(bits), bounds(2*bits), ... that `good` accepts:
        the one precision loop of `sign` and `to_float`."""
        while not good(iv := self.bounds(bits)):
            bits *= 2
        return iv

    def bounds(self, bits: int) -> RIv:
        """Rigorous rational enclosure, width <= 2**(3-bits)*sum(1+|coeff|)."""
        c, den, exps = self._key
        if not exps:
            return RIv(c, c)
        lo = hi = 0
        for p, e in exps:
            b = _log_int_bounds(p, bits)
            if e > 0:
                lo += e * b.lo
                hi += e * b.hi
            else:
                lo += e * b.hi
                hi += e * b.lo
        return RIv(c + lo / den, c + hi / den)

    # Not `_Value`'s: a value equals an int or Fraction of its value, so one
    # with no log term hashes as its constant q0.
    def __eq__(self, other) -> bool:
        if isinstance(other, LogRational):
            return self._key == other._key
        if isinstance(other, (int, Fraction)):
            return not self._key[2] and self._key[0] == other
        return NotImplemented

    def __hash__(self):
        c, _, exps = self._key
        return hash(self._key) if exps else hash(c)

    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)

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
        rendering otherwise.  q = g/den for g the gcd of the exponents (coprime
        to den), and a/b = prod p^(e/g).  An a or b with more digits than
        Python converts to text (`sys.get_int_max_str_digits`) gets the
        canonical rendering too."""
        c, den, exps = self._key
        if c or not exps:
            return self.render()
        g = math.gcd(*(e for _, e in exps))
        a = b = 1
        for p, e in exps:
            if e > 0:
                a *= p ** (e // g)
            else:
                b *= p ** (-e // g)
        limit = sys.get_int_max_str_digits()
        if limit and max(a, b) >= 10**limit:
            return self.render()
        return f"{fmt_rat(Fraction(g, den))}*log({fmt_rat(Fraction(a, b))})"

    def float_approx(self) -> float:
        lo, hi = self.to_float(64)
        return (lo + hi) / 2


    def to_float(self, precision_bits: int = 53) -> tuple[float, float]:
        """Rigorous enclosing float interval of width <= 2**(1-precision_bits)*max(1,|value|),
        for 16 <= precision_bits <= 2048 (`_MAX_FLOAT_PRECISION_BITS`); past
        the float range an end is +-sys.float_info.max or +-inf."""
        if precision_bits < 16:
            raise ValueError("precision_bits must be >= 16")
        if precision_bits > _MAX_FLOAT_PRECISION_BITS:
            raise ValueError(f"precision_bits must be <= {_MAX_FLOAT_PRECISION_BITS}")
        target = Fraction(1, 1 << (precision_bits - 1))

        def narrow(iv: RIv) -> bool:
            scale = max(Fraction(1), min(abs(iv.lo), abs(iv.hi)) if iv.lo * iv.hi > 0 else Fraction(1))
            return iv.width() <= target * scale

        iv = self._enclosure(max(precision_bits + 8, 64), narrow)
        return _float_toward(iv.lo, -math.inf), _float_toward(iv.hi, math.inf)


def fmt_rat(q: Fraction) -> str:
    """Render q as "p" or "p/q", the rational format of reports and JSON files."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rational(x) -> Rat:
    """x itself if an int (a bool as its int), a Fraction's int where integral,
    else the Fraction; ValueError for anything else, a float or a string."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise ValueError(f"cannot coerce {x!r} to a rational: not an int or a Fraction")


def parse_rat(x) -> Fraction:
    """Read a rational from its text ("p", "p/q", "1.5") or a JSON number, a
    decimal exactly (0.1 is 1/10); every malformed input is a ValueError."""
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


# ---------------------------------------------------------------------------
# Module-level operations.

def log_of_rational(q: Rat) -> LogRational:
    """Exact log q for a positive rational q (read by `rational`); log 1 = 0."""
    q = rational(q)
    num, den = q.numerator, q.denominator
    if num <= 0:
        raise ValueError(f"log argument must be positive, got {q}")
    exps = list(factor_positive_int(num).items())
    if den > 1:  # coprime to num: no prime is in both
        exps += [(p, -e) for p, e in factor_positive_int(den).items()]
        exps.sort()
    return _lr((_ZERO, 1, tuple(exps)))


def half_log(q: Rat) -> LogRational:
    return log_of_rational(q)._times(1, 2)


def compare(a: LogRational, b: LogRational) -> int:
    """Exact trichotomy: -1, 0 or 1 as a < b, a = b, a > b."""
    return (a - b).sign()


def to_float(a: LogRational, precision_bits: int = 53) -> tuple[float, float]:
    return a.to_float(precision_bits)


# ---------------------------------------------------------------------------
# Parsing of the rendered grammar: "q0 + q1*log(n1) - q2*log(n2) ...".

_RAT = r"\d+(?:/\d+)?"

# One term with its sign, and the space after it, so that the next match
# starts at an operator; a term ends at the next operator or at the end of
# the text.
_SIGNED_TERM = re.compile(
    rf"""(?P<sign>[+-]?)\s*
        (?:(?:(?P<coeff>{_RAT})\s*\*\s*(?P<neg>-?)\s*)?log\(\s*(?P<arg>{_RAT})\s*\)
          | (?P<rat>{_RAT}))
        \s*(?=[+-]|\Z)""",
    re.VERBOSE | re.ASCII,
)


def parse(text: str) -> LogRational:
    """Read what `render` and `render_compact` write: term (op term)*, op
    "+" or "-" and one optional leading sign on the first term; a term is a
    rational or [rational "*" ["-"]] "log(" rational ")", a rational "p" or
    "p/q" in decimal digits, with optional spaces around every token.  Any
    other text, a doubled sign included, is a ValueError quoting the text
    from the term that fails on (an operator "+" left out)."""
    s = text.strip()
    if not s:
        raise ValueError("empty LogRational text")
    result, pos = LogRational(0), 0
    while pos < len(s):
        m = _SIGNED_TERM.match(s, pos)
        if not m:
            rest = s[pos:]
            bad = rest[1:].lstrip() if rest[0] == "+" else rest
            raise ValueError(f"cannot parse LogRational term {bad!r}")
        if m["rat"]:
            term = LogRational(parse_rat(m["rat"]))
        else:
            term = log_of_rational(parse_rat(m["arg"])) * parse_rat(m["coeff"] or 1)
        result = result - term if (m["sign"] == "-") != (m["neg"] == "-") else result + term
        pos = m.end()
    return result
