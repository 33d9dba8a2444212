"""Euclidean lattices as exact rational Gram matrices, and the integral pair
that euclidean and hermitian lattices share.

A lattice is its integral pair (D*G, D): G its Gram matrix and D the least
common denominator of G's entries (of their coordinates over Q, for a
hermitian lattice), so that two lattices are equal iff their pairs are.
`_GramPair` holds the pair and each operation on it, once for both kinds:
the checks, tensor products, rescalings, exterior powers, orthogonal sums
and duals all work on D*G, and G is a view, built on first use.  A dual
reads G^-1 = D*adj(S)/det S, S = D*G, off one `linalg.bareiss` run on
[S | I], in the ring of the entries.
`EuclideanLattice` is the pair over Z (D*G of ints, D written L) and
`hermitian.HermitianLattice` the pair over the ring of integers of
Q(sqrt(-d)).  Degrees and slopes land in LogRational.  The degree of a
euclidean lattice is minus the log of the covolume, i.e. -1/2*log(det Gram).

A Gram matrix that comes from outside (either constructor, `load`, a
pickle or copy, the Schur complement of a lattice quotient) is checked by
Sylvester's criterion, and the pair keeps that elimination's determinant
(`det`) and lower triangle (`_gso`), the integral Gram-Schmidt data that
LLL starts from and Fincke-Pohst reads; its degree factors that
determinant.  A lattice derived from others (tensor product, dual,
rescaling, exterior power, orthogonal sum, LLL reduction, restriction of
scalars) is proven by the law of its operation instead: a written proof
that the derived Gram is positive definite, and its determinant as a
product of powers of its parents' and a constant.  It runs no check, and
records the matching degree law, a constant log plus a combination of its
parents' degrees, which `degree` resolves on first call, so nothing is
factored beyond the parents' own determinants.  Its `_gso` is built by one
elimination on first read, unless LLL hands over the record it kept.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, combinations
from typing import Sequence

from . import linalg
from .exactval import LogRational, _Value, fmt_rat, half_log, log_of_rational, parse_rat

Rat = int | Fraction

_set = object.__setattr__


def _lower_triangle(m) -> tuple:
    """Rows i of m cut after column i."""
    return tuple(tuple(row[: i + 1]) for i, row in enumerate(m))


class _GramPair(_Value):
    """A lattice as its integral pair (S, D) = (D*G, D), D >= 1 least, with
    the field of its entries (None for Z).

    A kind states what the pair needs to know of its entries in a few hooks,
    each called per matrix or per row, never per entry of an int matrix:
    `_content(S)` the ints whose gcd with D is divided out; `_adjoint(S)` the
    conjugate transpose; `_real(x)` the rational value of an entry fixed by
    conjugation; `_entry(x, D)` an entry x/D of the view G; `_WEIGHT` the
    weight of the infinite place in the degree; `from_json_dict`, which `load`
    reads; and the wording of its errors, `_SYMMETRIC` and `_RESCALE`.  A
    kind that sets `_DIAGONAL` has each diagonal entry checked to be a
    positive rational before the rest of its row; without it (euclidean
    lattices) the whole symmetry check comes first, and a diagonal entry
    <= 0 fails Sylvester's test.

    Equality and hash are on the pair as well, for both kinds: `__eq__`
    (`_Value`'s) compares the field, D*G and D of two lattices of one kind,
    and `__hash__` hashes (D, D*G), so no view G is built to hash a
    lattice."""

    __slots__ = ("_field", "_s", "_den", "_det", "_gso_memo", "_gram", "_dual", "_hash", "_degree", "__weakref__")

    _DIAGONAL = None

    @classmethod
    def _new(cls, field, s, den: int, *, det=None, gso=None):
        """The lattice of Gram matrix s / den, for a square s of the ring's
        integers and an integer den >= 1: checked, or law-built when the
        caller passes det (see `_init_pair`).  det is keyword-only, so the
        positional arguments of a `__reduce__` payload always reach the
        check."""
        out = object.__new__(cls)
        out._init_pair(field, s, den, det, gso)
        return out

    def _init_pair(self, field, s, den: int, det=None, gso=None) -> None:
        """Store s / den as its pair, den made least by dividing both by
        gcd(den, content(s)).

        With det None the Gram comes from outside and is checked: square,
        equal to its adjoint, and positive definite by Sylvester's
        criterion on one `bareiss` run, whose last minor over den^r is
        det G and whose lower triangle is kept as `_gso`.  Scaling by
        den > 0 keeps each verdict and the row swaps of `bareiss`, whose
        k-th step holds k x k minors, den^k times those of G.

        Otherwise the pair is law-built: the caller's operation proves s / den
        positive definite (the proof is written next to each law) and det is
        det G, by its law; nothing is checked or eliminated.  gso, if given,
        is the record `_gso` of s as passed, kept unless a gcd divides it."""
        if det is None:
            r = len(s)
            if not r or any(len(row) != r for row in s):
                raise ValueError("Gram matrix must be square and nonempty")
        if den > 1:
            g = math.gcd(den, *self._content(s))
            if g > 1:
                den //= g
                s = [[x // g for x in row] for row in s]
                gso = None
        s = tuple(map(tuple, s))
        if det is None:
            adj, real, diagonal = self._adjoint(s), self._real, self._DIAGONAL
            for i, row in enumerate(s):
                if diagonal and (row[i] != adj[i][i] or real(row[i]) <= 0):
                    raise ValueError(diagonal)
                if row != adj[i]:
                    raise ValueError(self._SYMMETRIC)
            # Sylvester: positive definite iff every leading principal minor
            # is positive.  Each is real, as the determinant of a matrix equal
            # to its adjoint.  `bareiss` swaps only past a zero minor and
            # leaves the leading minors on the diagonal of a run without swaps.
            m, swaps = linalg.bareiss(s)
            if swaps or any(real(m[k][k]) <= 0 for k in range(r)):
                raise ValueError("Gram matrix must be positive definite")
            det = Fraction(real(m[-1][-1]), den**r)
            gso = _lower_triangle(m)
        _set(self, "_field", field)
        _set(self, "_s", s)
        _set(self, "_den", den)
        _set(self, "_det", det)
        _set(self, "_gso_memo", gso)
        for name in ("_gram", "_dual", "_hash", "_degree"):
            _set(self, name, None)

    @property
    def _gso(self) -> tuple:
        """The integral Gram-Schmidt record of D*G, the lower triangle of
        `linalg.bareiss` on it: row i holds lambda_i0 .. lambda_i,i-1, then
        d_(i+1).  G is positive definite, so the run swaps no row.  A
        checked Gram keeps its Sylvester run's, an LLL reduction the one
        its loop kept; any other is built on first read."""
        if self._gso_memo is None:
            _set(self, "_gso_memo", _lower_triangle(linalg.bareiss(self._s)[0]))
        return self._gso_memo

    def __reduce__(self):
        return self._new, (self._field, self._s, self._den)

    @property
    def gram(self):
        """The Gram matrix D*G / D."""
        if self._gram is None:
            den, entry = self._den, self._entry
            _set(self, "_gram", tuple(tuple(entry(x, den) for x in row) for row in self._s))
        return self._gram

    @property
    def rank(self) -> int:
        return len(self._s)

    def det(self) -> Fraction:
        return self._det

    def scaled_gram(self) -> tuple:
        """(D * gram, D) with D the least common denominator of the Gram
        entries (of their coordinates, over an imaginary quadratic field)."""
        return self._s, self._den

    def degree(self) -> LogRational:
        """-w*log(det G), built once, with w = `_WEIGHT`: 1/2 over Z, and 1
        over Q(sqrt(-d)), whose single complex place carries weight 2.  A
        derived lattice resolves the law it recorded (`_by_law`); any other
        factors det G."""
        law = self._degree
        if law is None:
            _set(self, "_degree", log_of_rational(self._det) * -self._WEIGHT)
        elif type(law) is tuple:
            self._resolve()
        return self._degree

    def _by_law(self, *terms, base=1, power=0):
        """Record the degree that the law of the operation which built self
        proves: -w*power*log(base) + the sum of a*deg(P) over the pairs
        (a, P) of terms, P a parent lattice.  `degree` resolves it on first
        call.  Returns self."""
        _set(self, "_degree", (base, power, terms))
        return self

    def _resolve(self) -> None:
        """Resolve the recorded laws of self and of its unresolved ancestors,
        parents before children, each into its LogRational, and drop the
        parents.  A parent's degree is read through `degree`.  The pending
        lattices wait on a stack, not in nested calls, so a long chain of
        derivations cannot reach the recursion limit; one met twice (a
        tensor square) is resolved once."""
        stack = [self]
        while stack:
            lat = stack[-1]
            law = lat._degree
            if type(law) is not tuple:
                stack.pop()
                continue
            base, power, terms = law
            pending = [p for _, p in terms if type(p._degree) is tuple]
            if pending:
                stack += pending
                continue
            stack.pop()
            parts = [p.degree() if a == 1 else p.degree() * a for a, p in terms]
            if power:
                parts.append(log_of_rational(base) * (-lat._WEIGHT * power))
            _set(lat, "_degree", sum(parts[1:], parts[0]))

    def slope(self) -> LogRational:
        return self.degree() / self.rank

    @classmethod
    def load(cls, path: str):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def dual(self):
        """The dual lattice, built once; its own dual is self.  Its Gram
        matrix is the transpose of G^-1 = D * S^-1 = D * adj(S) / det S,
        both read off one `linalg.bareiss` run on [S | I] (fraction-free
        Gauss-Jordan, which swaps no row, S being positive definite): the
        pair ((D * adj(S))^T, det S), which `_init_pair` makes least.

        Law: det (G^-1)^T = 1/det G, so deg L* = -deg L.  (G^-1)^T is
        positive definite: G^-1 = G^-1 G G^-1* is congruent to G, and the
        transpose of a positive definite form is its conjugate, positive
        definite too."""
        if self._dual is None:
            s, n, den = self._s, len(self._s), self._den
            zero = s[0][0] * 0  # of the entries' ring
            one = zero + 1
            m, _ = linalg.bareiss([row + (zero,) * i + (one,) + (zero,) * (n - 1 - i) for i, row in enumerate(s)])
            inv = [[den * x for x in row[n:]] for row in m]
            dual = self._new(self._field, tuple(zip(*inv)), self._real(m[-1][n - 1]), det=1 / self._det)
            dual._by_law((-1, self))
            _set(self, "_dual", dual)
            _set(dual, "_dual", self)
        return self._dual

    def tensor(self, other):
        """Gram matrix kron(A, B), the pair (kron(S_A, S_B), D_A * D_B).

        Law: det kron(A, B) = det(A)^m * det(B)^n for ranks n, m, so
        deg(A (x) B) = m * deg A + n * deg B.  Proof: kron(A, B) =
        kron(A, I_m) * kron(I_n, B); kron(I_n, B) is block diagonal with n
        blocks B, and kron(A, I_m) is that for A after the same permutation
        of rows and columns.  kron(A, B) is positive definite: it is
        hermitian, and its eigenvalues are the products of those of A and
        B, all positive."""
        if self._field != other._field:
            raise ValueError("field mismatch")
        det = self._det**other.rank * other._det**self.rank
        out = self._new(self._field, linalg.kron(self._s, other._s), self._den * other._den, det=det)
        return out._by_law((other.rank, self), (self.rank, other))

    def orthogonal_sum(self, other):
        """Block diagonal Gram matrix.  Law: det is the product of the
        blocks' dets, so deg(A + B) = deg A + deg B; a block diagonal form
        of two positive definite blocks is positive definite."""
        if self._field != other._field:
            raise ValueError("field mismatch")
        scale = math.lcm(self._den, other._den)
        ma, mb = scale // self._den, scale // other._den
        zero = self._s[0][0] * 0  # of the entries' ring
        za, zb = (zero,) * other.rank, (zero,) * self.rank
        return self._new(
            self._field,
            [tuple(x * ma for x in row) + za for row in self._s]
            + [zb + tuple(x * mb for x in row) for row in other._s],
            scale,
            det=self._det * other._det,
        )._by_law((1, self), (1, other))

    def _rescale(self, c: Rat):
        """Multiply the Gram matrix by c > 0, which keeps it positive
        definite.  Law: det(c*G) = c^r * det G, so the degree shifts by
        -w*r*log(c): by -r/2*log(c) for a euclidean lattice (the twist by
        lambda = -1/2*log c) and by -r*log(c) for a hermitian one."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError(self._RESCALE)
        n = c.numerator
        s, den = [[x * n for x in row] for row in self._s], c.denominator * self._den
        out = self._new(self._field, s, den, det=c**self.rank * self._det)
        return out._by_law((1, self), base=c, power=self.rank)

    def exterior_power(self, p: int):
        """Gram matrix of the p-th alternating power: entries det(G[S][T]),
        the minors of D*G over D^p.

        Law: the Gram matrix is the p-th compound of G, and by the
        Sylvester-Franke theorem det C_p(G) = det(G)^C(r - 1, p - 1), so
        deg(Lambda^p L) = C(r - 1, p - 1) * deg L.  C_p(G) is positive
        definite: write G = B B* with B invertible; Cauchy-Binet gives
        C_p(G) = C_p(B) C_p(B)*, and C_p(B) is invertible, of determinant
        det(B)^C(r - 1, p - 1).

        C_p(G) is hermitian like G: the minor on rows T and columns U is the
        conjugate of the one on rows U and columns T (G[T][U] = G[U][T]*), so
        only those on and above the diagonal are eliminated, and the rest are
        read off the adjoint."""
        r = self.rank
        if not 1 <= p <= r:
            raise ValueError(f"exterior power degree {p} out of range 1..{r}")
        s = self._s
        subsets = list(combinations(range(r), p))
        upper = [[linalg.det_int([[s[i][j] for j in t] for i in u]) for t in subsets[a:]] for a, u in enumerate(subsets)]
        # row a of `upper` holds columns a.. of C_p; the adjoint of its
        # symmetric completion has the conjugates below the diagonal
        full = [[upper[min(a, b)][abs(b - a)] for b in range(len(subsets))] for a in range(len(subsets))]
        minors = [list(adj[:a]) + upper[a] for a, adj in enumerate(self._adjoint(full))]
        e = math.comb(r - 1, p - 1)
        return self._new(self._field, minors, self._den**p, det=self._det**e)._by_law((e, self))

    def is_integral(self) -> bool:
        return self._den == 1

    def is_unimodular(self) -> bool:
        return self._den == 1 and self._det == 1

    def __hash__(self):
        # The memos of enumeration look lattices up many times, and most other
        # lattices are never hashed: hash the pair once, on first use.  The
        # field is left out, since hash(None) varies between processes;
        # `__eq__` still tells the kinds apart.
        if self._hash is None:
            _set(self, "_hash", hash((self._den, self._s)))
        return self._hash


class EuclideanLattice(_GramPair):
    """Free Z-module of finite rank with a positive definite rational Gram matrix."""

    __slots__ = ()

    _content = chain.from_iterable
    _adjoint = staticmethod(linalg.transpose)
    _real = int
    _entry = Fraction
    _SYMMETRIC = "Gram matrix must be symmetric"
    _RESCALE = "scale factor must be positive"
    _WEIGHT = Fraction(1, 2)

    def __init__(self, gram: Sequence[Sequence[Rat]]):
        if all(type(x) is int for row in gram for x in row):
            # an int Gram is its own pair (G, 1); its Fraction view waits for use
            self._init_pair(None, gram, 1)
            return
        g = linalg.mat(gram)
        self._init_pair(None, *linalg.clear_denominators(g))
        _set(self, "_gram", g)

    @staticmethod
    def _from_scaled(gi: Sequence[Sequence[int]], scale: int) -> "EuclideanLattice":
        """The lattice of Gram matrix gi / scale, for a square integer gi and
        an integer scale >= 1."""
        return EuclideanLattice._new(None, gi, scale)

    scale = _GramPair._rescale
    degree = _GramPair.degree  # in this class's dict, where perfbench/tracing.py wraps it

    def inner(self, v: Sequence[Rat], w: Sequence[Rat]) -> Fraction:
        gram = self.gram
        return sum(
            Fraction(v[i]) * gram[i][j] * Fraction(w[j])
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def norm_sq(self, v: Sequence[Rat]) -> Fraction:
        return self.inner(v, v)

    def full_sublattice(self) -> "Sublattice":
        return Sublattice(self, linalg.identity(self.rank))

    # -- identifications

    def __repr__(self):
        return f"EuclideanLattice(rank={self.rank}, det={self._det})"

    # -- JSON wire format

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "gram": [[fmt_rat(x) for x in row] for row in self.gram],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "EuclideanLattice":
        if not isinstance(data, dict):
            raise ValueError("lattice JSON must be an object")
        rows = data.get("gram")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError('lattice JSON needs a "gram" field holding a list of rows')
        gram = [[parse_rat(x) for x in row] for row in rows]
        if "rank" in data and parse_rat(data["rank"]) != len(gram):
            raise ValueError("rank field disagrees with Gram size")
        lat = EuclideanLattice(gram)
        if "scale" in data and data["scale"] is not None:
            lat = lat.scale(parse_rat(data["scale"]))
        return lat


def unit_lattice(rank: int) -> EuclideanLattice:
    return EuclideanLattice(linalg.identity(rank))


A2_GRAM = ((2, 1), (1, 2))

# Standard Gram matrix of the E8 root lattice in a simple-root basis
# (chain 1-3-4-5-6-7-8 with node 2 attached to 4); det = 1, minimum 2,
# both re-derived by the enumeration tests.
E8_GRAM = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def a2_lattice() -> EuclideanLattice:
    return EuclideanLattice(A2_GRAM)


def e8_lattice() -> EuclideanLattice:
    return EuclideanLattice(E8_GRAM)


class Sublattice(_Value):
    """Finite-rank sublattice of an ambient lattice.  `basis` is stored in
    Hermite normal form, whatever basis it was given, so two sublattices are
    equal iff their bases are."""

    __slots__ = ("ambient", "basis", "_det")

    def __init__(self, ambient: EuclideanLattice, basis: Sequence[Sequence[int]]):
        rows = linalg.int_mat(basis)
        if not rows:
            raise ValueError("sublattice must be nonzero")
        if any(len(r) != ambient.rank for r in rows):
            raise ValueError("basis width must equal ambient rank")
        h = linalg.hnf(rows)
        if len(h) != len(rows):  # the HNF has one row per rank
            raise ValueError("basis rows must be linearly independent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", h)
        object.__setattr__(self, "_det", None)

    def __reduce__(self):
        return Sublattice, (self.ambient, self.basis)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def det(self) -> Fraction:
        """det(B G B^T) for the basis B, built once from the induced Gram
        matrix unless `_proved_det` handed it over."""
        if self._det is None:
            gi, scale = self.ambient.scaled_gram()
            b = self.basis
            m = linalg.matmul(linalg.matmul(b, gi), linalg.transpose(b))
            object.__setattr__(self, "_det", Fraction(linalg.det_int(m), scale ** len(b)))
        return self._det

    def _proved_det(self, det: Fraction) -> "Sublattice":
        """Self, with `det` as the memo of `det()`: for a caller that has
        proved this determinant.  Returns self."""
        object.__setattr__(self, "_det", det)
        return self

    def degree(self) -> LogRational:
        return -half_log(self.det())

    def slope(self) -> LogRational:
        return self.degree() / self.rank

    def hnf_basis(self) -> linalg.IntMatrix:
        return self.basis

    def saturation(self) -> "Sublattice":
        return Sublattice(self.ambient, linalg.saturate(self.basis)[1])

    def contains(self, other: "Sublattice") -> bool:
        """Integer containment of other's row lattice in self's: adding other's
        rows leaves the HNF unchanged."""
        return linalg.hnf(self.basis + other.basis) == self.basis

    def __repr__(self):
        return f"Sublattice(rank={self.rank}, ambient_rank={self.ambient.rank})"


class LatticeMorphism(_Value):
    """Linear map between lattices in coordinates: y = matrix @ x."""

    __slots__ = ("source", "target", "matrix", "is_integral")

    def __init__(self, source: EuclideanLattice, target: EuclideanLattice, matrix):
        m = linalg.mat(matrix)
        if len(m) != target.rank or any(len(row) != source.rank for row in m):
            raise ValueError("morphism matrix shape must be target_rank x source_rank")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(
            self, "is_integral", all(x.denominator == 1 for row in m for x in row)
        )

    def __reduce__(self):
        return LatticeMorphism, (self.source, self.target, self.matrix)

    def norm_le_one(self) -> bool:
        """Operator norm <= 1, decided exactly."""
        return self.norm_sq_le(1)

    def norm_sq_le(self, bound: Rat) -> bool:
        """Operator norm squared <= bound, decided exactly."""
        mt = linalg.transpose(self.matrix)
        pulled = linalg.matmul(linalg.matmul(mt, self.target.gram), self.matrix)
        scaled = linalg.scalar_mul(Fraction(bound), self.source.gram)
        return linalg.is_positive_semidefinite(linalg.sub(scaled, pulled))

    def hilbert_schmidt_sq(self) -> Fraction:
        prod = linalg.matmul(
            linalg.matmul(self.source.dual().gram, linalg.transpose(self.matrix)),
            linalg.matmul(self.target.gram, self.matrix),
        )
        return sum(prod[i][i] for i in range(len(prod)))

    def compose(self, first: "LatticeMorphism") -> "LatticeMorphism":
        """self ∘ first."""
        if first.target is not self.source and first.target != self.source:
            raise ValueError("composition mismatch")
        return LatticeMorphism(first.source, self.target, linalg.matmul(self.matrix, first.matrix))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)


def tensor_vector_to_hom(
    l1: EuclideanLattice, l2: EuclideanLattice, coeffs: Sequence[Rat]
) -> LatticeMorphism:
    """Vector w in L1⊗L2 (basis e_i⊗f_j at index i*r2+j) as a map dual(L2) -> L1.

    The operator norm of the result is at most the Hilbert-Schmidt norm,
    which equals the length of w in the tensor lattice.
    """
    r1, r2 = l1.rank, l2.rank
    w = [Fraction(x) for x in coeffs]
    if len(w) != r1 * r2:
        raise ValueError("tensor vector has wrong length")
    if all(x == 0 for x in w):
        raise ValueError("tensor vector must be nonzero")
    matrix = [[w[i * r2 + j] for j in range(r2)] for i in range(r1)]
    return LatticeMorphism(l2.dual(), l1, matrix)


def evaluation_vector(l: EuclideanLattice) -> tuple[Fraction, ...]:
    """Coordinates of sum_i e_i ⊗ e_i^∨ in L ⊗ dual(L)."""
    r = l.rank
    w = [Fraction(0)] * (r * r)
    for i in range(r):
        w[i * r + i] = Fraction(1)
    return tuple(w)
