"""Hermitian lattices over imaginary quadratic fields.

Free modules over the ring of integers of Q(sqrt(-d)) carrying a
conjugate-symmetric positive definite Gram matrix (hermitian scalar product
left antilinear).  Degrees land in LogRational via deg = -log(det Gram) for
the single complex place; a derived lattice takes its degree from the law
of its operation (see `lattice`).  The reproduction routines rebuild the
explicit rank-2/3 computations the counterexample constructions rest on.

Every quadratic extension here is a `QuadField` and its elements are `QElt`:
Q(sqrt(-d)) (`ImagQuadField`), the real fields of the norm-product checks,
and the towers K(i) over K = Q(sqrt(-p)) and Q(sqrt(-7))(sqrt(2)).  Every
check is exact, the sqrt(2) frame of the rank-3 lattice included.

Coordinates over Q are Python ints where they are integral and Fractions
otherwise, never floats: calling a field, K(x), is the one way into it,
reading a rational by `exactval.rational`; sums and products of ints stay
ints, and every division goes through `_div`, which divides exactly
(`int / int` would be a float).  A quotient in the ring of integers, such
as each division `linalg.bareiss` makes, so stays on ints.

Complex conjugation is `QElt.conjugate()` and the rational real part
`QElt.real`, the members of Python's number protocol that ints and
Fractions have too, so `lattice` and `linalg.sesquilinear` read every
entry type alike.

`HermitianLattice` is the integral pair (D*G, D) of `lattice._GramPair`,
which `EuclideanLattice` shares: D is the least common denominator of the
coordinates of G's entries, so D*G has int coordinates.  The pair's checks,
tensor products, twists, duals, sums, exterior powers, `inner` and
`norm_sq` are the euclidean ones, run on `QElt` entries through the few
hooks this class sets (the conjugate transpose, the coordinates a vector
may have, an entry of the view), and G is a view built on first use.

Where a construction has half-integral elements, the checks run on their
doubles, which are integral: every K(i) computation of `qp_checks` on 2u =
1 - omega*i for u = (1 + sqrt p)/2 (its Gram, split generators and norm
products), and the sqrt(2) frame of `q7_checks` on 2*theta.  Doubling is
exact: the absolute norm of K(i) has degree 4, so N(2x) = 16*N(x), and an
identity between (sesqui)linear values holds iff it holds times 2, 4 or 16.
Both norm-product loops read the norm multiplicatively, N(ab) = N(a)*N(b).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import truediv
from typing import Sequence

from . import linalg
from .exactval import (
    LogRational,
    _Value,
    factor_positive_int,
    fmt_rat,
    half_log,
    log_of_rational,
    parse_rat,
    rational,
)
from .enumeration import minimum_sq, mu_max
from .lattice import EuclideanLattice, _GramPair, a2_lattice, evaluation_vector
from .report import Report, SCOPE_NOTE

F = Fraction

Rat = int | Fraction


def _div(x, n):
    """The coordinate x over the nonzero scalar n of its base ring, exactly:
    x // n for ints when n divides x, else Fraction(x, n); a coordinate in a
    tower is a `QElt` and divides itself."""
    if type(x) is int and type(n) is int:
        q, rem = divmod(x, n)
        return F(x, n) if rem else q
    return x / n


def _is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    return all(e == 1 for e in factor_positive_int(d).values())


def _omega_data(t: int) -> tuple[int, int]:
    """(trace, norm) of the omega with Z[omega] the ring of integers of
    Q(sqrt t), t squarefree: omega = (1 + sqrt t)/2 if t = 1 mod 4, else
    omega = sqrt t."""
    return (1, (1 - t) // 4) if t % 4 == 1 else (0, -t)


class QuadField(_Value):
    """The quadratic extension base(omega) with omega^2 = trace*omega - norm.

    `base` maps a rational, or an element of the base ring, to a coefficient:
    `exactval.rational` for Q (an int where integral), a `QuadField` for a tower."""

    __slots__ = ("omega_trace", "omega_norm", "base")

    def __init__(self, omega_trace: Rat, omega_norm: Rat, base=rational):
        object.__setattr__(self, "omega_trace", omega_trace)
        object.__setattr__(self, "omega_norm", omega_norm)
        object.__setattr__(self, "base", base)

    def __reduce__(self):
        return QuadField, self._key()

    def _key(self):
        return self.omega_trace, self.omega_norm, self.base

    # Not `_Value`'s: an `ImagQuadField` is rebuilt from d alone, and it
    # equals the QuadField of its omega.
    def __eq__(self, other):
        return self is other or (isinstance(other, QuadField) and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"QuadField(trace={self.omega_trace}, norm={self.omega_norm}, base={self.base!r})"

    def __call__(self, x) -> "QElt":
        """x as an element of this field, each coordinate read by `base`; an
        element of the base ring or a rational goes through `elt`.  ValueError
        "field mismatch" for an element of another field."""
        if isinstance(x, QElt):
            f = x.field
            if f is self or f == self:
                if type(x.a) is int and type(x.b) is int:
                    return x
                return QElt(f, self.base(x.a), self.base(x.b))
            if f != self.base:
                raise ValueError("field mismatch")
        return self.elt(x)

    def elt(self, a, b=0) -> "QElt":
        return QElt(self, self.base(a), self.base(b))

    @property
    def zero(self) -> "QElt":
        return self.elt(0)

    @property
    def one(self) -> "QElt":
        return self.elt(1)

    @property
    def omega(self) -> "QElt":
        return self.elt(0, 1)


class ImagQuadField(QuadField):
    """Q(sqrt(-d)) with ring of integers Z[omega]."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        if not _is_squarefree(d):
            raise ValueError(f"d must be a squarefree positive integer, got {d}")
        super().__init__(*_omega_data(-d))
        object.__setattr__(self, "d", d)

    def __reduce__(self):
        return ImagQuadField, (self.d,)

    def __repr__(self):
        return f"ImagQuadField(d={self.d})"

    def is_norm_euclidean(self) -> bool:
        return self.d in (1, 2, 3, 7, 11)


class QElt(_Value):
    """a + b*omega in a QuadField, with a and b in its base ring.

    Over Q, a and b are ints where integral and Fractions otherwise, never
    floats; `==` and `hash` are on (field, a, b), so an int and the equal
    Fraction give equal elements with equal hashes.  Every division is exact
    (`_div`), so a quotient that lies in the ring of integers keeps int
    coordinates.  An element is immutable: `_Value` refuses assignment and
    deletion, and `__init__` fills the three slots once through their slot
    descriptors, the cheapest way past that refusal (elements are made by
    the thousand in every manifest)."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: QuadField, a, b):
        _set_field(self, field)
        _set_a(self, a)
        _set_b(self, b)

    def __reduce__(self):
        return QElt, (self.field, self.a, self.b)

    def _is_elt(self, other) -> bool:
        """Whether other lies in this field; False for a scalar of the base
        ring, which acts on the coefficients."""
        if isinstance(other, QElt):
            f = self.field
            if other.field is f or other.field == f:
                return True
            if other.field != f.base:
                raise ValueError("field mismatch")
        elif not isinstance(other, (int, Fraction)):
            raise TypeError(f"cannot coerce {other!r}")
        return False

    # Each operator first tries the common case, an element of the same
    # field object, before `_is_elt`.

    def __add__(self, other):
        f = self.field
        if (other.__class__ is QElt and other.field is f) or self._is_elt(other):
            return QElt(f, self.a + other.a, self.b + other.b)
        return QElt(f, self.a + other, self.b)

    __radd__ = __add__

    def __neg__(self):
        return QElt(self.field, -self.a, -self.b)

    def __sub__(self, other):
        f = self.field
        if (other.__class__ is QElt and other.field is f) or self._is_elt(other):
            return QElt(f, self.a - other.a, self.b - other.b)
        return QElt(f, self.a - other, self.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        f = self.field
        if not ((other.__class__ is QElt and other.field is f) or self._is_elt(other)):
            return QElt(f, self.a * other, self.b * other)
        t, n = f.omega_trace, f.omega_norm
        a, b, c, e = self.a, self.b, other.a, other.b
        be = b * e
        re = a * c - (be if n == 1 else be * n)
        im = a * e + b * c
        return QElt(f, re, im + be * t if t else im)

    __rmul__ = __mul__

    def conj(self) -> "QElt":
        """The automorphism omega -> trace - omega, fixing the base ring."""
        t = self.field.omega_trace
        return QElt(self.field, self.a + self.b * t if t else self.a, -self.b)

    def norm(self):
        """The relative norm x*conj(x), in the base ring."""
        t, n = self.field.omega_trace, self.field.omega_norm
        a, b = self.a, self.b
        out = a * a + (b * b if n == 1 else b * b * n)
        return out + a * b * t if t else out

    def trace(self):
        return 2 * self.a + self.b * self.field.omega_trace

    def inverse(self) -> "QElt":
        nrm = self.norm()
        if not nrm:
            raise ZeroDivisionError("division by zero field element")
        cj = self.conj()
        return QElt(self.field, _div(cj.a, nrm), _div(cj.b, nrm))

    def __truediv__(self, other):
        x = self
        if self._is_elt(other):
            if other.b:  # x / y = x*conj(y) / N(y), N(y) in the base ring
                x, other = self * other.conj(), other.norm()
            else:
                other = other.a  # a divisor of the base ring divides the coordinates
        return QElt(self.field, _div(x.a, other), _div(x.b, other))

    # exact in a field, and on ints whenever the quotient is integral: the
    # operator `linalg.bareiss` divides by
    __floordiv__ = __truediv__

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not self.b

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return F(self.a)

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def conjugate(self) -> "QElt":
        """Complex conjugation: conjugate each coordinate, then apply `conj`
        iff omega is not real (trace^2 < 4*norm): `conj` on Q(sqrt(-d)), the
        identity on a real field, and on K(i) conjugation of K and i -> -i."""
        f = self.field
        x = QElt(f, self.a.conjugate(), self.b.conjugate())
        t = f.omega_trace
        return x.conj() if t * t < 4 * f.omega_norm else x

    @property
    def real(self) -> Rat:
        """The real part a + b*trace/2 over Q(sqrt(-d)), an int where
        integral; ValueError over a real field or a tower."""
        f = self.field
        t = f.omega_trace
        if f.base is not rational or t * t >= 4 * f.omega_norm:
            raise ValueError(f"{self} has no rational real part over {f!r}")
        return rational(self.a + _div(self.b * t, 2))

    def __repr__(self):
        return f"({self.a}+{self.b}w)"


_set_field, _set_a, _set_b = QElt.field.__set__, QElt.a.__set__, QElt.b.__set__


def _round_half(q: Fraction) -> int:
    return math.floor(q + F(1, 2))


def euclid_gcd(elts: Sequence[QElt]) -> QElt:
    """gcd in the norm-euclidean rings d in {1,2,3,7,11} (up to units)."""
    nonzero = [e for e in elts if not e.is_zero()]
    if not nonzero:
        raise ValueError("gcd of zero elements")
    field = nonzero[0].field
    if not field.is_norm_euclidean():
        raise ValueError(
            f"saturation indices need a norm-euclidean ring; d={field.d} unsupported"
        )
    if any(not e.is_integral() for e in nonzero):
        raise ValueError("gcd requires integral elements")

    def gcd2(x: QElt, y: QElt) -> QElt:
        while not y.is_zero():
            q = x / y
            qr = QElt(field, _round_half(q.a), _round_half(q.b))
            x, y = y, x - qr * y
        return x

    g = nonzero[0]
    for e in nonzero[1:]:
        g = gcd2(g, e)
    return g


# ---------------------------------------------------------------------------

class HermitianLattice(_GramPair):
    """Free o_K-module with conjugate-symmetric positive definite Gram matrix.

    A lattice is its integral pair (D*G, D) (see `lattice._GramPair`): G its
    Gram matrix and D the least common denominator of the coordinates of
    G's entries, so that D*G has int coordinates and two lattices are equal
    iff their fields and pairs are."""

    __slots__ = ()

    _content = staticmethod(lambda s: (c for row in s for x in row for c in (x.a, x.b)))
    _adjoint = staticmethod(lambda s: tuple(tuple(x.conjugate() for x in col) for col in zip(*s)))
    _entry = truediv  # coordinates ints where integral (`_div`)
    _SYMMETRIC = "Gram matrix must be conjugate-symmetric"
    _DIAGONAL = "diagonal Gram entries must be positive rationals"
    _RESCALE = "twist multiplier must be positive"
    _WEIGHT = 1

    def __init__(self, field: ImagQuadField, gram: Sequence[Sequence[QElt]]):
        self._read(field, gram)

    @property
    def field(self) -> ImagQuadField:
        return self._field

    twist = _GramPair._rescale

    def _coordinate(self, x) -> QElt:
        return self._field(x)

    def restrict_scalars(self) -> EuclideanLattice:
        """Rank-2r euclidean lattice on the Z-basis (e_j, omega*e_j), with the
        real part of the hermitian form: tr(x)/2 for each entry x, so the
        traces of the entries of D*G over 2D.

        Degree law: deg Res E = deg E - (r/2)*log(|Delta_K|/4).  Proof: on the
        R-basis (e_j, i*e_j) the real part of h has the Gram matrix
        [[Re H, -Im H], [Im H, Re H]], of determinant |det H|^2 = (det H)^2.
        With omega = t/2 + i*s, s^2 = N(omega) - t^2/4 = |Delta_K|/4, the
        change to (e_j, omega*e_j) is triangular with diagonal (1, s) in each
        coordinate, so det Res E = (det E)^2 * (|Delta_K|/4)^r.  The real
        part of a positive definite hermitian form is positive definite on
        the underlying real space, Re h(x, x) = h(x, x) > 0 for x != 0, and
        (e_j, omega*e_j) is an R-basis of it, omega not being real."""
        r = self.rank
        field = self.field
        disc_quarter = field.omega_norm - F(field.omega_trace) ** 2 / 4
        gens = [(j, c) for j in range(r) for c in (field.one, field.omega)]
        gram = [[(a.conjugate() * self._s[i][j] * b).trace() for j, b in gens] for i, a in gens]
        det = self._det**2 * disc_quarter**r
        out = EuclideanLattice._new(None, gram, 2 * self._den, det=det)
        return out._by_law((1, self), base=disc_quarter, power=r)

    def __repr__(self):
        return f"HermitianLattice(d={self.field.d}, rank={self.rank}, det={self._det})"

    # -- JSON wire format: entries a + b*omega as {"a": "p/q", "b": "p/q"}

    def to_json_dict(self) -> dict:
        return {
            "d": self.field.d,
            "rank": self.rank,
            "gram": [[{"a": fmt_rat(x.a), "b": fmt_rat(x.b)} for x in row] for row in self.gram],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "HermitianLattice":
        if not isinstance(data, dict) or type(data.get("d")) is not int:
            raise ValueError('hermitian lattice JSON must be an object with an integer "d"')
        rows = data.get("gram")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(e, dict) and "a" in e for e in row)
            for row in rows
        ):
            raise ValueError('"gram" must be a list of rows of {"a": ..., "b": ...} entries')
        field = ImagQuadField(data["d"])
        gram = [
            [field.elt(parse_rat(e["a"]), parse_rat(e.get("b", 0))) for e in row]
            for row in rows
        ]
        if "rank" in data and parse_rat(data["rank"]) != len(gram):
            raise ValueError("rank field disagrees with Gram size")
        return HermitianLattice(field, gram)


def unit_hermitian(field: ImagQuadField, rank: int) -> HermitianLattice:
    return HermitianLattice(
        field,
        [[field.one if i == j else field.zero for j in range(rank)] for i in range(rank)],
    )


def rank_one_degree(lat: HermitianLattice, v: Sequence[QElt]) -> LogRational:
    """Degree of the saturated rank-one sublattice through v:
    log #(sat / o_K v) - log ||v||^2."""
    v = tuple(map(lat._coordinate, v))
    if all(x.is_zero() for x in v):
        raise ValueError("vector must be nonzero")
    nsq = lat.norm_sq(v)
    if any(not x.is_integral() for x in v):
        raise ValueError("vector must have integral coordinates")
    g = euclid_gcd(v)
    index = g.norm()  # #(o_K/(g)) = N(g)
    return log_of_rational(index) - log_of_rational(nsq)


def identity_tensor_sq(lat: HermitianLattice) -> Fraction:
    """Squared length of sum_i e_i⊗e_i^∨ in L ⊗ dual(L); equals the rank."""
    return lat.tensor(lat.dual()).norm_sq(evaluation_vector(lat))


def faltings_height_sq(lat: HermitianLattice) -> LogRational:
    """deg + ([K:Q]*r/2) * sum_{m=2}^{r} 1/m, exactly (the height term of the
    associated projective bundle; [K:Q] = 2 here)."""
    r = lat.rank
    harmonic = sum((F(1, m) for m in range(2, r + 1)), F(0))
    return lat.degree() + LogRational(r * harmonic)


def _norm_product_holds(t: int, x: tuple, y: tuple) -> tuple[bool, str]:
    """Exact check of prod_sigma(|sigma(a)|^2+|sigma(b)|^2+Re(conj(sigma a) sigma b))
    >= |N(ab)| >= 1 over Q(sqrt t) for the samples x = (a, N(a), a*a) and
    y = (b, N(b), b*b), with |N(ab)| = |N(a)*N(b)| as N is multiplicative.
    For t < 0 the product is v^2, v = N(a) + N(b) + tr(conj(a)*b)/2, checked
    times 4 on the int 2v: (2v)^2 >= 4*|N(a)N(b)| >= 4.  The detail is built
    only when the check fails, and is "" when it holds."""
    a, na, aa = x
    b, nb, bb = y
    nab = abs(na * nb)
    if t < 0:
        v2 = 2 * (na + nb) + (a.conj() * b).trace()
        if v2 * v2 >= 4 * nab >= 4:
            return True, ""
        prod = F(v2 * v2, 4)
    else:
        prod = (aa + a * b + bb).norm()
        if prod >= nab >= 1:
            return True, ""
    return False, f"product={prod}, |N(ab)|={nab}"


# ---------------------------------------------------------------------------
# Reproductions.


def a2_twist_checks(gram_multiplier: Rat = F(2, 3)) -> Report:
    """Rank-2 root lattice twisted to small negative degree: stability, line
    degrees, and the norm-product bound behind its rank-one quotient claims."""
    c = rational(gram_multiplier)
    rep = Report(name="a2-twist")
    lam = -half_log(c)  # Gram multiplier c = e^(-2*lambda)
    lo, hi = half_log(F(3, 2)), half_log(3) / 2
    rep.require(
        "twist_in_admissible_interval",
        lo <= lam < hi,
        f"lambda = {lam} in [{lo}, {hi})",
    )
    lat = a2_lattice().scale(c)
    deg = lat.degree()
    rep.require(
        "degree_formula",
        deg == 2 * lam - half_log(3),
        f"deg = {deg.render_compact()} = 2*lambda - 1/2*log(3)",
    )
    rep.require(
        "degree_window",
        half_log(3) - log_of_rational(2) <= deg < LogRational(0),
        f"deg = {deg} lies in [1/2*log(3) - log(2), 0)",
    )
    msq = minimum_sq(lat)
    rep.require("shortest_vector_sq", msq == 2 * c, f"min |v|^2 = {msq} = 2*e^(-2*lambda)")
    line_max = -half_log(msq)
    rep.require(
        "line_degree_max",
        line_max == lam - half_log(2),
        f"max rank-one degree = {line_max} = lambda - 1/2*log(2)",
    )
    res = mu_max(lat)
    rep.require(
        "stable_full_rank",
        res.certified and res.value == lat.slope() and res.witness.rank == 2 and line_max < lat.slope(),
        f"mu_max = {res.value} attained at full rank; rank-1 deficit strict",
    )
    rep.require("negative_degree", deg < LogRational(0), f"deg = {deg} < 0")
    dual_min = minimum_sq(lat.dual())
    quot_min_degree = half_log(dual_min)
    rep.require(
        "rank_one_quotients_nonnegative",
        quot_min_degree >= LogRational(0),
        f"min rank-one quotient degree = {quot_min_degree} >= 0",
    )
    samples = [(1, 0), (1, 1), (2, -1), (0, 1), (3, 2), (-1, 2)]
    for t in (-1, -2, -3, -7, 2, 3):
        field = QuadField(*_omega_data(t))
        elts = [field.elt(pa, qa) for pa, qa in samples]
        data = [(a, a.norm(), a * a) for a in elts if a]  # each norm and square once
        for x in data:
            for y in data:
                ok, detail = _norm_product_holds(t, x, y)
                if not ok:
                    rep.require(f"norm_product_bound_t{t}", False, detail)
    rep.require(
        "norm_product_spot_checks",
        True,
        f"norm products over quadratic extensions t in (-1,-2,-3,-7,2,3), "
        f"{len(samples)**2} integer pairs each: all >= |N(ab)| >= 1",
    )
    rep.note(SCOPE_NOTE)
    return rep


def q7_gram() -> HermitianLattice:
    """The indecomposable unimodular integral rank-3 lattice over Q(sqrt(-7))."""
    k = ImagQuadField(7)
    w = k.omega
    one = k.one
    two = k.elt(2)
    return HermitianLattice(
        k,
        [
            [two, w, one],
            [w.conj(), two, one],
            [one, one, two],
        ],
    )


def q7_checks() -> Report:
    """Rank-3 unimodular lattice over Q(sqrt(-7)): unimodularity, the identity
    tensor vector, the negative-degree quotient line of the twisted square,
    and the orthogonal frames whose norms involve sqrt(2)."""
    rep = Report(name="q7")
    c_exp = F(9, 5)  # lambda = log(c_exp); twisted Gram multiplier e^lambda
    lat = q7_gram()
    k = lat.field
    w = k.omega
    rep.require("integral_gram", lat.is_integral(), "all Gram entries lie in the ring")
    rep.require("unimodular_determinant", lat.det() == 1, f"det = {lat.det()}")
    idsq = identity_tensor_sq(lat)
    rep.require("identity_vector_sq_length", idsq == 3, f"|identity|^2 = {idsq} = rank")

    lam = log_of_rational(c_exp)
    lam_lo = half_log(3)
    lam_hi = log_of_rational(3) - F(2, 3) * log_of_rational(2)
    rep.require(
        "twist_in_admissible_interval",
        lam_lo < lam <= lam_hi,
        f"lambda = {lam} in ({lam_lo}, {lam_hi}]",
    )
    # The lattice is isometric to its coordinate-conjugate via the swap of the
    # first two generators; composed with unimodular self-duality this turns
    # the identity endomorphism into a vector of the square itself.
    tau = (1, 0, 2)
    rep.require(
        "conjugation_symmetry",
        all(
            lat.gram[tau[i]][tau[j]] == lat.gram[i][j].conj()
            for i in range(3)
            for j in range(3)
        ),
        "swapping the first two generators conjugates the Gram matrix",
    )
    inv = linalg.transpose(lat.dual().gram)  # G^-1: the dual's Gram is its transpose
    w_id = [inv[i][tau[j]] for i in range(3) for j in range(3)]
    square = lat.tensor(lat)
    w_norm = square.norm_sq(w_id)
    rep.require(
        "identity_image_in_square",
        w_norm == 3 and all(x.is_integral() for x in w_id),
        f"the transported identity vector has squared length {w_norm} = rank",
    )
    # its pairing functional generates the line in the dual square that cuts
    # out the rank-one quotient of the twisted square
    vec_f = linalg.matmul([[x.conjugate() for x in w_id]], square.gram)[0]  # conj(w)^T (G (x) G)
    tw_dual = lat.twist(c_exp).dual()  # Gram multiplied by e^lambda = the <-lambda> twist
    dual_sq = tw_dual.tensor(tw_dual)
    nsq = dual_sq.norm_sq(vec_f)
    rep.require(
        "quotient_line_norm",
        nsq == 3 / c_exp**2,
        f"|line generator|^2 = {nsq} = 3*e^(-2*lambda)",
    )
    content = euclid_gcd(vec_f)
    rep.require("quotient_line_primitive", content.norm() == 1, f"content norm = {content.norm()}")
    q_deg = log_of_rational(nsq)
    rep.require(
        "quotient_line_degree",
        q_deg == -2 * lam + log_of_rational(3),
        f"quotient degree = {q_deg} = -2*lambda + log(3)",
    )
    rep.require("quotient_line_degree_negative", q_deg < LogRational(0), f"{q_deg} < 0")
    lam_end = lam_hi
    end_deg = -2 * lam_end + log_of_rational(3)
    rep.require(
        "quotient_degree_negative_at_endpoint",
        end_deg < LogRational(0),
        f"at the top admissible twist: {end_deg} < 0 (decreasing in lambda, 0 at the bottom)",
    )

    # orthogonal basis of the plane spanned by the first two generators
    e2p = [k.elt(-1), w.conj(), k.zero]
    rep.require(
        "plane_orthogonal_basis",
        lat.inner([k.one, k.zero, k.zero], e2p).is_zero() and lat.norm_sq(e2p) == 2,
        "e1 and -e1 + conj(w)*e2 are orthogonal of squared length 2",
    )

    # complement vector v3 = w^2 e1 + conj(w)^2 e2 + 2 e3
    v3 = [w * w, w.conj() * w.conj(), k.elt(2)]
    e1 = [k.one, k.zero, k.zero]
    e2 = [k.zero, k.one, k.zero]
    e3 = [k.zero, k.zero, k.one]
    rep.require(
        "complement_vector_orthogonal",
        lat.inner(e1, v3).is_zero() and lat.inner(e2, v3).is_zero(),
        "v3 is orthogonal to e1 and e2",
    )
    pairing = lat.inner(e3, v3)
    rep.require("complement_vector_pairing", pairing == k.one, f"<e3, v3> = {pairing}")
    rep.require("complement_vector_norm", lat.norm_sq(v3) == 2, f"|v3|^2 = {lat.norm_sq(v3)}")

    # the sqrt(2) frame, exactly in K(sqrt 2): omega^2 = 2.  It runs on
    # 2*theta = conj(w)*(sign*sqrt(2) - 2), which is integral, and on the
    # doubled frame 2*f1, 2*f2, so each identity is checked times 4
    k2 = QuadField(0, -2, k)
    g2 = [[k2(lat.gram[i][j]) for j in range(2)] for i in range(2)]
    two = k2.elt(2)
    for sign, label in ((1, "plus"), (-1, "minus")):
        op = "-" if sign > 0 else "+"
        theta2 = k2(w.conj()) * k2.elt(-2, sign)  # 2*theta, theta = conj(w)*(sign*sqrt(2)/2 - 1)
        rep.require(
            f"theta_{label}_abs_sq",
            theta2 * theta2.conjugate() == k2.elt(12, -8 * sign),
            f"|theta_{label}|^2 = 3 {op} 2*sqrt(2)",
        )
        # 2*f1 and 2*f2, for f1 = e1 + theta e2 and f2 = conj(theta) e1 + e2
        f1 = [two, theta2]
        f2 = [theta2.conjugate(), two]
        frame_target = k2.elt(16, -8 * sign)  # 4 * 2*sqrt2*(sqrt2 -+ 1)
        rep.require(
            f"frame_{label}_norms",
            linalg.sesquilinear(g2, f1, f1) == frame_target
            and linalg.sesquilinear(g2, f2, f2) == frame_target,
            f"|f1|^2 = |f2|^2 = 2*sqrt(2)*(sqrt(2) {op} 1)",
        )
        rep.require(
            f"frame_{label}_orthogonal",
            linalg.sesquilinear(g2, f1, f2).is_zero(),
            "<f1, f2> = 0",
        )
    rep.note(
        "The source construction labels two distinct frame vectors with the same "
        "symbol; the second (conj(theta)*e1 + e2) is read as the second frame "
        "vector here, and both are checked."
    )
    rep.note(SCOPE_NOTE)
    return rep


# ---------------------------------------------------------------------------
# The class-field construction: K' = K(i) over K = Q(sqrt(-p)); the absolute
# norm of K' is `norm().norm()`.

def _sixteen_bound_norms(kp: QuadField) -> list[tuple[int, int]]:
    """(N(E), N(ab)) for each ordered pair of the samples a, b in
    (1, i, u, 1 + i, u + i, 2u - 1, u + 1) of K' = K(i), u = (1 + sqrt p)/2,
    with E = a*conjugate(a) + b*conjugate(b) and N the absolute norm of K'.

    They run on the doubled samples 2a, which stay on ints: 2u = 1 - w*i is
    integral over (1, i).  N has degree 4 over Q, so N(2x) = 16*N(x), and
    N(4E) = 256*N(E), N(4ab) = 256*N(ab): exact quotients by 256.  N is
    multiplicative, so N(2a*2b) = N(2a)*N(2b), from one norm per sample."""
    two, i2 = kp.elt(2), kp.omega * 2
    u2 = kp.elt(1, -kp.base.omega)
    samples2 = [two, i2, u2, two + i2, u2 + i2, u2 * 2 - two, u2 + two]
    abs_sq = [x * x.conjugate() for x in samples2]  # 4*|a|^2, once per sample
    norms = [x.norm().norm() for x in samples2]  # N(2a), once per sample
    return [
        (_div((xx + yy).norm().norm(), 256), _div(nx * ny, 256))
        for xx, nx in zip(abs_sq, norms)
        for yy, ny in zip(abs_sq, norms)
    ]


def qp_checks(p: int) -> Report:
    """Class-field ring of integers over Q(sqrt(-p)), p in {5, 13, 37}:
    index-4 subring, degree 2*log 2, negative height term of its dual,
    base-change splitting, and the rank-one degree bounds.

    Every K(i) computation runs on 2u = 1 - w*i, integral over (1, i), so
    on ints; a check reads a power-of-2 multiple, exact since the pairing is
    sesquilinear and N has degree 4: the Gram of (2u, 2i) is 4*G,
    `split_equations` reads twice the images, the base change pairs
    2e_pm = (2, 2b_pm) under 4*G, 16 times the form, and
    `split_basis_unimodular` checks N(2b_- - 2b_+) = 16*N(b_- - b_+)."""
    if p not in (5, 13, 37):
        raise ValueError("p must be one of 5, 13, 37")
    rep = Report(name=f"qp-{p}")
    # the ring of integers of K(i) as a hermitian lattice over K
    k = ImagQuadField(p)  # omega = sqrt(-p)
    kp = QuadField(0, 1, k)  # K(i)
    w, i_elt, one, two = k.omega, kp.omega, kp.one, kp.elt(2)
    # u = (1 + sqrt(p))/2 = 1/2 - (omega/2) i;  basis (u, i)
    u2 = kp.elt(1, -w)  # 2u

    def pair(x: QElt, y: QElt) -> QElt:
        """(1/2) tr_{K'/K}(conjugate(x) * y) on coordinates over (1, i)."""
        return (x.conjugate() * y).a

    gram4 = [[pair(x, y) for y in (u2, 2 * i_elt)] for x in (u2, 2 * i_elt)]  # 4*G
    gram = [[x / 4 for x in row] for row in gram4]
    expected = [[k.elt(F(p + 1, 4)), w * F(1, 2)], [w * F(-1, 2), k.one]]
    rep.require(
        "ring_gram_matrix",
        gram == expected,
        f"Gram of (u, i) = [[(p+1)/4, w/2], [-w/2, 1]] with w = sqrt(-p)",
    )
    lat = HermitianLattice(k, gram)

    # 1 = 2u + w*i, so the orthogonal subring o ⊥ o*sqrt(-1) has basis rows
    # [2, w], [0, 1] in (u, i) coordinates; its index is |N(det)| = N(2) = 4
    rep.require("unit_in_basis", u2 + i_elt * w == one, "1 = 2u + w*i")
    index = (k.elt(2) * k.one - w * k.zero).norm()
    rep.require("index_four_subring", index == 4, f"index = |N(2)| = {index}")
    sub_gram = [[pair(x, y) for y in (one, i_elt)] for x in (one, i_elt)]
    rep.require(
        "orthonormal_subring",
        sub_gram == [[k.one, k.zero], [k.zero, k.one]],
        "the index-4 subring is an orthogonal sum of two unit lattices",
    )
    deg = lat.degree()
    rep.require(
        "ring_lattice_degree",
        lat.det() == F(1, 4) and deg == 2 * log_of_rational(2),
        f"det = {lat.det()}, degree = {deg} = 2*log(2)",
    )

    dual = lat.dual()
    rep.require(
        "dual_degree", dual.degree() == -2 * log_of_rational(2), f"deg dual = {dual.degree()}"
    )
    height = faltings_height_sq(dual)
    rep.require(
        "height_term_negative",
        height == LogRational(1) - 2 * log_of_rational(2) and height < LogRational(0),
        f"height term = {height} = 1 - 2*log(2) < 0",
    )

    # base-change splitting: idempotent-derived orthogonal generators
    # e_pm = 1*(u⊗1) + b_pm*(i⊗1), coordinates (1, b_pm) over (u⊗1, i⊗1),
    # run on 2b_pm: 2b_+ = 2(1-u)/i and 2b_- = -2u/i
    b2s = ((two - u2) * -i_elt, i_elt * u2)
    # twice the images of e_pm under x⊗s -> sigma(x)*s, sigma = id and conj
    images = [(u2 + b2 * i_elt, u2.conj() - b2 * i_elt) for b2 in b2s]
    rep.require(
        "split_equations",
        images == [(two, kp.zero), (kp.zero, two)],
        "the two generators project to (1,0) and (0,1) under the algebra splitting",
    )
    for name, b2 in zip(("plus", "minus"), b2s):
        # b = c_u*u + c_i*i with c_u = (2b).a and c_i = ((2b).b + (2b).a*w)/2
        cu, ci = b2.a, (b2.b + b2.a * w) / 2
        rep.require(
            f"split_generator_{name}_integral",
            cu.is_integral() and ci.is_integral(),
            f"b_{name} = ({cu})*u + ({ci})*i lies in the ring",
        )

    # hermitian form on the base change, sesquilinear over K', 16 times
    gq4 = [[kp.elt(x) for x in row] for row in gram4]
    e2_plus, e2_minus = ((two, b2) for b2 in b2s)
    rep.require(
        "split_orthogonal",
        linalg.sesquilinear(gq4, e2_plus, e2_minus).is_zero(),
        "the two split generators are orthogonal",
    )
    h_p, h_m = (linalg.sesquilinear(gq4, e, e) / 16 for e in (e2_plus, e2_minus))
    rep.require(
        "split_norms_equal_rational",
        h_p == h_m and h_p.b.is_zero() and h_p.a.is_rational() and h_p.a.as_fraction() > 0,
        f"both generators have squared norm {h_p.a}",
    )
    h_val = h_p.a.as_fraction()
    piece_deg = -2 * log_of_rational(h_val)
    rep.require(
        "split_piece_degrees",
        piece_deg == 2 * log_of_rational(2),
        f"each piece of the extended dual has degree {piece_deg}; dually the "
        f"extension of the rank-2 lattice splits into two degree -2*log(2) pieces",
    )
    rep.require(
        "base_change_degree_doubles",
        piece_deg + piece_deg == 2 * deg,
        "sum of piece degrees equals twice the base degree",
    )
    rep.require(
        "split_basis_unimodular",
        (b2s[1] - b2s[0]).norm().norm() == 16,
        "the change of basis to the split generators is unimodular",
    )
    rep.require(
        "semistable_by_decomposition",
        True,
        "equal-slope orthogonal rank-one decomposition after base change forces "
        "semistability of the rank-2 lattice",
        mode="consequence",
    )

    # certified rank-one degree bound: every saturated line is a fractional
    # ideal times a vector, so its degree is log(minimal principal index of
    # its class) - log(length^2 of its shortest vector); the class group here
    # has order two (the degree-2 everywhere-unramified extension above), with
    # the ramified prime over 2 representing the nontrivial class; its class
    # index iota depends only on K
    gens = [k.elt(2), k.elt(0, 2), k.elt(1, 1), k.omega * k.elt(1, 1)]
    rows = linalg.hnf(tuple((int(g.a), int(g.b)) for g in gens))
    ideal_norm = abs(rows[0][0] * rows[1][1])
    b1 = k.elt(rows[0][0], rows[0][1])
    b2 = k.elt(rows[1][0], rows[1][1])
    form = EuclideanLattice(
        [
            [b1.norm(), (b1.conj() * b2).real],
            [(b2.conj() * b1).real, b2.norm()],
        ]
    )
    iota = minimum_sq(form) / ideal_norm
    for name, lham in (("ring", lat), ("dual", dual)):
        lam1 = minimum_sq(lham.restrict_scalars())
        line_bound = max(
            -log_of_rational(lam1), log_of_rational(iota) - log_of_rational(lam1)
        )
        rep.require(
            f"rank_one_degree_bound_{name}",
            line_bound <= lham.slope(),
            f"every rank-one sublattice degree <= {line_bound} <= slope "
            f"{lham.slope()}: semistable (shortest vector {lam1}, class index {iota})",
        )

    # the free line through the first basis vector u
    line_deg = -log_of_rational(lat.gram[0][0].as_fraction())
    rep.require(
        "line_through_half_unit_degree",
        line_deg == -log_of_rational(F(p + 1, 4)) and line_deg < LogRational(0),
        f"degree of the line through (1+sqrt p)/2 is {line_deg} = -log((p+1)/4) < 0",
    )

    # norm-product lower bound on the orthogonal subring
    checked = 0
    for n_e, n_ab in _sixteen_bound_norms(kp):
        if not (n_e >= 16 * n_ab >= 16):
            rep.require(
                "norm_product_sixteen_bound",
                False,
                f"N(E) = {n_e}, 16*|N(ab)| = {16 * n_ab}",
            )
        checked += 1
    rep.require(
        "norm_product_sixteen_bound",
        True,
        f"{checked} integer pairs: N(|a|^2 + |b|^2 summand) >= 16*|N(ab)| >= 16",
    )

    # restriction of scalars consistency
    eucl = lat.restrict_scalars()
    rep.require(
        "restriction_degree",
        eucl.degree() == 2 * log_of_rational(2) - log_of_rational(p),
        f"euclidean restriction degree = {eucl.degree()} = 2*log(2) - log(p)",
    )
    rep.note(
        "Twist labels for base-changed pieces are reported in base-field "
        "normalization: each piece has degree -2*log(2) over the extension, "
        "which the construction writes as a -log(2) twist."
    )
    rep.note(SCOPE_NOTE)
    return rep

