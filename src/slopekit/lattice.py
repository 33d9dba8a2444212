"""Euclidean lattices as exact rational Gram matrices.

A lattice is its integer pair (L*G, L): G its rational Gram matrix and L the
least common denominator of G's entries, so that two lattices are equal iff
their pairs are.  Tensor products, scalings, exterior powers and duals are
computed on the pair; the Fraction matrix G is a view, built on first use.
Degrees and slopes land in LogRational.  The degree is minus the log of the
covolume, i.e. -1/2*log(det Gram).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .exactval import LogRational, fmt_rat, half_log, parse_rat

Rat = int | Fraction

_set = object.__setattr__


class EuclideanLattice:
    """Free Z-module of finite rank with a positive definite rational Gram matrix."""

    __slots__ = ("_gi", "_L", "_det", "_gram", "_hash", "_dual", "_degree")

    def __init__(self, gram: Sequence[Sequence[Rat]]):
        g = linalg.mat(gram)
        if not g or any(len(row) != len(g) for row in g):
            raise ValueError("Gram matrix must be square and nonempty")
        self._init_pair(*linalg.clear_denominators(g))
        _set(self, "_gram", g)

    @staticmethod
    def _from_scaled(gi: Sequence[Sequence[int]], scale: int) -> "EuclideanLattice":
        """The lattice of Gram matrix gi / scale, for a square integer gi and
        an integer scale >= 1."""
        out = object.__new__(EuclideanLattice)
        out._init_pair(gi, scale)
        return out

    def _init_pair(self, gi: Sequence[Sequence[int]], scale: int) -> None:
        """Check gi / scale and store it as its pair, scale made least by
        dividing both by gcd(scale, content(gi))."""
        if not linalg.is_symmetric(gi):
            raise ValueError("Gram matrix must be symmetric")
        if scale > 1:
            g = math.gcd(scale, *(x for row in gi for x in row))
            if g > 1:
                scale //= g
                gi = [[x // g for x in row] for row in gi]
        gi = tuple(map(tuple, gi))
        m, swaps = linalg.bareiss(gi)
        # Sylvester: every leading minor > 0.  A run without swaps has them on
        # its diagonal; a swap follows a zero one.
        if swaps or any(m[k][k] <= 0 for k in range(len(m))):
            raise ValueError("Gram matrix must be positive definite")
        _set(self, "_gi", gi)
        _set(self, "_L", scale)
        _set(self, "_det", Fraction(m[-1][-1], scale ** len(gi)))
        for name in ("_gram", "_hash", "_dual", "_degree"):
            _set(self, name, None)

    def __setattr__(self, name, value):
        raise AttributeError("EuclideanLattice is immutable")

    @property
    def gram(self) -> linalg.Matrix:
        """The Gram matrix, as Fractions."""
        if self._gram is None:
            scale = self._L
            _set(self, "_gram", tuple(tuple(Fraction(x, scale) for x in row) for row in self._gi))
        return self._gram

    @property
    def rank(self) -> int:
        return len(self._gi)

    def det(self) -> Fraction:
        return self._det

    def scaled_gram(self) -> tuple[linalg.IntMatrix, int]:
        """(L * gram, L) with L the least common denominator of the Gram entries."""
        return self._gi, self._L

    def degree(self) -> LogRational:
        if self._degree is None:
            _set(self, "_degree", -half_log(self._det))
        return self._degree

    def slope(self) -> LogRational:
        return self.degree() / self.rank

    def inner(self, v: Sequence[Rat], w: Sequence[Rat]) -> Fraction:
        gram = self.gram
        return sum(
            Fraction(v[i]) * gram[i][j] * Fraction(w[j])
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def norm_sq(self, v: Sequence[Rat]) -> Fraction:
        return self.inner(v, v)

    def dual(self) -> "EuclideanLattice":
        """The dual lattice, Gram matrix G^-1 = L * M^-1 for M = L*G; built
        once, and its own dual is self.  The integer RREF of [M | I] (see
        `linalg.rref`) has rows (p_i e_i | p_i * row i of M^-1), p_i > 0 its
        pivots, so over P = lcm(p_i) the pair of G^-1 is
        (L * (P / p_i) * right half of row i, P), all on ints."""
        if self._dual is None:
            n = self.rank
            rows, _ = linalg.rref(tuple(row + e for row, e in zip(self._gi, linalg.identity(n))))
            den = math.lcm(*(row[i] for i, row in enumerate(rows)))
            inv = [[self._L * (den // row[i]) * x for x in row[n:]] for i, row in enumerate(rows)]
            dual = EuclideanLattice._from_scaled(inv, den)
            _set(self, "_dual", dual)
            _set(dual, "_dual", self)
        return self._dual

    def tensor(self, other: "EuclideanLattice") -> "EuclideanLattice":
        return EuclideanLattice._from_scaled(linalg.kron(self._gi, other._gi), self._L * other._L)

    def orthogonal_sum(self, other: "EuclideanLattice") -> "EuclideanLattice":
        scale = math.lcm(self._L, other._L)
        ma, mb = scale // self._L, scale // other._L
        za, zb = (0,) * other.rank, (0,) * self.rank
        return EuclideanLattice._from_scaled(
            [tuple(ma * x for x in row) + za for row in self._gi]
            + [zb + tuple(mb * x for x in row) for row in other._gi],
            scale,
        )

    def scale(self, c: Rat) -> "EuclideanLattice":
        """Multiply the Gram matrix by c > 0 (the twist by lambda = -1/2*log c)."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        a = c.numerator
        return EuclideanLattice._from_scaled([[a * x for x in row] for row in self._gi], c.denominator * self._L)

    def exterior_power(self, p: int) -> "EuclideanLattice":
        """Gram matrix of the p-th alternating power: entries det(G[S][T]),
        the minors of L*G over L^p."""
        if not 1 <= p <= self.rank:
            raise ValueError(f"exterior power degree {p} out of range 1..{self.rank}")
        gi = self._gi
        subsets = list(combinations(range(self.rank), p))
        minors = [[linalg.det_int([[gi[i][j] for j in t] for i in s]) for t in subsets] for s in subsets]
        return EuclideanLattice._from_scaled(minors, self._L**p)

    def is_integral(self) -> bool:
        return self._L == 1

    def is_unimodular(self) -> bool:
        return self._L == 1 and self._det == 1

    def full_sublattice(self) -> "Sublattice":
        return Sublattice(self, linalg.identity(self.rank))

    # -- identifications

    def __eq__(self, other):
        return isinstance(other, EuclideanLattice) and self._L == other._L and self._gi == other._gi

    def __hash__(self):
        # The memos of enumeration look lattices up many times, and most other
        # lattices are never hashed: hash the Gram matrix once, on first use.
        # A tuple's hash depends only on its items' hashes, and
        # hash(Fraction(n)) == hash(n), so an integral Gram hashes as L*G.
        if self._hash is None:
            _set(self, "_hash", hash(self._gi if self._L == 1 else self.gram))
        return self._hash

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

    @staticmethod
    def load(path: str) -> "EuclideanLattice":
        with open(path) as fh:
            return EuclideanLattice.from_json_dict(json.load(fh))


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


class Sublattice:
    """Finite-rank sublattice of an ambient lattice.  `basis` is stored in
    Hermite normal form, whatever basis it was given, so two sublattices are
    equal iff their bases are."""

    __slots__ = ("ambient", "basis")

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

    def __setattr__(self, name, value):
        raise AttributeError("Sublattice is immutable")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def det(self) -> Fraction:
        gi, scale = self.ambient.scaled_gram()
        b = self.basis
        m = linalg.matmul(linalg.matmul(b, gi), linalg.transpose(b))
        return Fraction(linalg.det_int(m), scale ** len(b))

    def degree(self) -> LogRational:
        return -half_log(self.det())

    def slope(self) -> LogRational:
        return self.degree() / self.rank

    def hnf_basis(self) -> linalg.IntMatrix:
        return self.basis

    def saturation(self) -> "Sublattice":
        return Sublattice(self.ambient, linalg.saturate(self.basis)[1])

    def is_saturated(self) -> bool:
        return linalg.saturate(self.basis)[0] == 1

    def same_sublattice(self, other: "Sublattice") -> bool:
        return self.ambient == other.ambient and self.basis == other.basis

    def contains(self, other: "Sublattice") -> bool:
        """Integer containment of other's row lattice in self's: adding other's
        rows leaves the HNF unchanged."""
        return linalg.hnf(self.basis + other.basis) == self.basis

    def __repr__(self):
        return f"Sublattice(rank={self.rank}, ambient_rank={self.ambient.rank})"


class LatticeMorphism:
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

    def __setattr__(self, name, value):
        raise AttributeError("LatticeMorphism is immutable")

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
            linalg.matmul(linalg.inverse(self.source.gram), linalg.transpose(self.matrix)),
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
