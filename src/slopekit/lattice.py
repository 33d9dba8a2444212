"""Euclidean lattices as exact rational Gram matrices.

A lattice is its Gram matrix; degrees and slopes land in LogRational.  The
degree is minus the log of the covolume, i.e. -1/2*log(det Gram).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from . import linalg
from .exactval import LogRational, half_log

Rat = int | Fraction


class EuclideanLattice:
    """Free Z-module of finite rank with a positive definite rational Gram matrix."""

    __slots__ = ("gram", "_det", "_scaled")

    def __init__(self, gram: Sequence[Sequence[Rat]]):
        g = linalg.mat(gram)
        if not g or any(len(row) != len(g) for row in g):
            raise ValueError("Gram matrix must be square and nonempty")
        if not linalg.is_symmetric(g):
            raise ValueError("Gram matrix must be symmetric")
        minors = linalg.leading_principal_minors(g)
        if any(d <= 0 for d in minors):
            raise ValueError("Gram matrix must be positive definite")
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_det", minors[-1])
        object.__setattr__(self, "_scaled", None)

    def __setattr__(self, name, value):
        raise AttributeError("EuclideanLattice is immutable")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> Fraction:
        return self._det

    def scaled_gram(self) -> tuple[linalg.IntMatrix, int]:
        """(L * gram, L) with L the least common denominator of the Gram entries."""
        if self._scaled is None:
            gi, scale = linalg.clear_denominators(self.gram)
            object.__setattr__(self, "_scaled", (tuple(map(tuple, gi)), scale))
        return self._scaled

    def degree(self) -> LogRational:
        return -half_log(self._det)

    def slope(self) -> LogRational:
        return self.degree() / self.rank

    def inner(self, v: Sequence[Rat], w: Sequence[Rat]) -> Fraction:
        return sum(
            Fraction(v[i]) * self.gram[i][j] * Fraction(w[j])
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def norm_sq(self, v: Sequence[Rat]) -> Fraction:
        return self.inner(v, v)

    def dual(self) -> "EuclideanLattice":
        return EuclideanLattice(linalg.inverse(self.gram))

    def tensor(self, other: "EuclideanLattice") -> "EuclideanLattice":
        return EuclideanLattice(linalg.kron(self.gram, other.gram))

    def orthogonal_sum(self, other: "EuclideanLattice") -> "EuclideanLattice":
        return EuclideanLattice(linalg.block_diag(self.gram, other.gram))

    def scale(self, c: Rat) -> "EuclideanLattice":
        """Multiply the Gram matrix by c > 0 (the twist by lambda = -1/2*log c)."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return EuclideanLattice(linalg.scalar_mul(c, self.gram))

    def exterior_power(self, p: int) -> "EuclideanLattice":
        if not 1 <= p <= self.rank:
            raise ValueError(f"exterior power degree {p} out of range 1..{self.rank}")
        return EuclideanLattice(linalg.exterior_gram(self.gram, p))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.gram for x in row)

    def is_unimodular(self) -> bool:
        return self.is_integral() and self._det == 1

    def full_sublattice(self) -> "Sublattice":
        return Sublattice(self, linalg.identity(self.rank))

    # -- identifications

    def __eq__(self, other):
        return isinstance(other, EuclideanLattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"EuclideanLattice(rank={self.rank}, det={self._det})"

    # -- JSON wire format

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "gram": [[_fmt(x) for x in row] for row in self.gram],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "EuclideanLattice":
        if not isinstance(data, dict):
            raise ValueError("lattice JSON must be an object")
        rows = data.get("gram")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError('lattice JSON needs a "gram" field holding a list of rows')
        gram = [[Fraction(str(x)) for x in row] for row in rows]
        if "rank" in data and Fraction(str(data["rank"])) != len(gram):
            raise ValueError("rank field disagrees with Gram size")
        lat = EuclideanLattice(gram)
        if "scale" in data and data["scale"] is not None:
            lat = lat.scale(Fraction(str(data["scale"])))
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


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Sublattice:
    """Finite-rank sublattice of an ambient lattice, given by integer basis rows."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: EuclideanLattice, basis: Sequence[Sequence[int]]):
        rows = linalg.int_mat(basis)
        if not rows:
            raise ValueError("sublattice must be nonzero")
        if any(len(r) != ambient.rank for r in rows):
            raise ValueError("basis width must equal ambient rank")
        if linalg.rank(linalg.mat(rows)) != len(rows):
            raise ValueError("basis rows must be linearly independent")
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Sublattice is immutable")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def induced_gram(self) -> linalg.Matrix:
        b = linalg.mat(self.basis)
        return linalg.matmul(linalg.matmul(b, self.ambient.gram), linalg.transpose(b))

    def as_lattice(self) -> EuclideanLattice:
        return EuclideanLattice(self.induced_gram())

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
        return linalg.hnf(self.basis)

    def saturation(self) -> "Sublattice":
        return Sublattice(self.ambient, linalg.saturation_basis(self.basis, self.ambient.rank))

    def is_saturated(self) -> bool:
        return self.hnf_basis() == self.saturation().hnf_basis()

    def same_sublattice(self, other: "Sublattice") -> bool:
        return self.ambient == other.ambient and self.hnf_basis() == other.hnf_basis()

    def contains(self, other: "Sublattice") -> bool:
        """Integer containment of other's row lattice in self's."""
        mine = linalg.mat(self.hnf_basis())
        for row in other.basis:
            coeffs = _solve_coords(mine, row)
            if coeffs is None or any(c.denominator != 1 for c in coeffs):
                return False
        return True

    def __repr__(self):
        return f"Sublattice(rank={self.rank}, ambient_rank={self.ambient.rank})"


def _solve_coords(rows: linalg.Matrix, v: Sequence[Rat]):
    """Coefficients c with c @ rows = v, or None if v is outside the row span."""
    n = len(rows)
    # augmented system rows^T c = v^T
    mm = [list(col) + [Fraction(v[i])] for i, col in enumerate(linalg.transpose(rows))]
    piv_cols: list[int] = []
    row_i = 0
    for c in range(n):
        piv = next((i for i in range(row_i, len(mm)) if mm[i][c] != 0), None)
        if piv is None:
            continue
        mm[row_i], mm[piv] = mm[piv], mm[row_i]
        d = mm[row_i][c]
        mm[row_i] = [x / d for x in mm[row_i]]
        for i in range(len(mm)):
            if i != row_i and mm[i][c] != 0:
                f = mm[i][c]
                mm[i] = [x - f * y for x, y in zip(mm[i], mm[row_i])]
        piv_cols.append(c)
        row_i += 1
    if any(mm[i][n] != 0 for i in range(row_i, len(mm))):
        return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = mm[i][n]
    return sol


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
        mt = linalg.transpose(self.matrix)
        pulled = linalg.matmul(linalg.matmul(mt, self.target.gram), self.matrix)
        return linalg.is_positive_semidefinite(linalg.sub(self.source.gram, pulled))

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
