"""Exact linear algebra over the rationals and the integers.

Matrices are tuples of tuples of Fractions or ints; everything here is pure
and allocation-happy, sized for ranks <= ~10.

This is the only module that eliminates, with one kernel per job.
`rref` is the one Gauss-Jordan loop over Q: it takes ints and Fractions,
and returns the integer RREF, each RREF row scaled to primitive integers
with a positive pivot, which is unique for each row space and so serves as
its key.  `unit_rref` divides the rows by their pivots, for `kernel`,
whose results are Fractions.  Every rational elimination (`rank`,
`kernel`, `intersect_and_sum`, `intersect_row_spaces`, `sum_row_spaces`,
`in_row_space`, `is_positive_semidefinite`) calls it by its module name,
the name the benchmark's work budget meters.
`intersect_and_sum` gives a meet and a sum of two row spaces from one rref.
`bareiss` is the one ring kernel, the fraction-free elimination that keeps
its multipliers; it runs on ints and on `QElt`, whose `//` is exact
division, on a square matrix or on [S | I].  `det_int` (ints and `QElt`)
and `det_bareiss` (rational, on integers after clearing denominators) read
the determinant from a square run, and `lattice` and
`is_positive_semidefinite` read leading minors from it for positivity (a
lattice keeps its integral Gram-Schmidt data for LLL and Fincke-Pohst);
`lattice` reads a dual's Gram matrix, adj(S) over det S, off a run on
[S | I], which is fraction-free Gauss-Jordan.
The other integer routines (`hnf`, `saturate`, `int_kernel_saturated`) take
ints: `hnf` is the one row echelon over the integers (bases, containment,
independence, integer kernels); `saturate` is the one column echelon, which
gives a saturation and the index in it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scalar_mul(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def clear_denominators(a: Matrix) -> tuple[list[list[int]], int]:
    """Return (integer matrix, multiplier L) with int = L * a entrywise, L the
    lcm of the denominators."""
    lcm = 1
    for row in a:
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    return [[x.numerator * (lcm // x.denominator) for x in row] for row in a], lcm


def bareiss(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free Gaussian elimination that keeps its multipliers
    (Bareiss 1968), of a square matrix or of an n x 2n matrix [S | I]:
    returns the eliminated matrix m and the number of row swaps.  Entries
    are ints, or `QElt`s of one field, whose `//` is exact division; every
    division here is exact (Sylvester's identity).  This is the one ring
    kernel: the only elimination that runs on ints and on `QElt`.

    For j <= i, m[i][j] is the minor of the (swapped) input on rows
    0..j-1, i and columns 0..j.  A row is swapped in only past a zero
    pivot; elimination stops at the first column without a pivot, whose
    diagonal entry stays 0.  So a Gram matrix run without swaps has the
    leading minors d_1, d_2, ... on the diagonal and the integral
    Gram-Schmidt coefficients lambda_ij = d_(j+1) * mu_ij below it (Cohen,
    A Course in Computational Algebraic Number Theory, 2.6.7).

    On an input wider than it is tall, [S | I] for S invertible, the run is
    fraction-free Gauss-Jordan: each pivot also clears the rows above it,
    right of its column, with the same exact division by the previous
    pivot, and the last column of S gets a pivot too.  Its row operations
    E take S to d I, d the last pivot m[n-1][n-1] (the cleared entries are
    left in place, as below the diagonal), so the right half is E = d S^-1:
    with no swap, d = det S and the right half is adj(S).  A square run
    leaves its upper triangle alone, since nobody reads it."""
    m = [list(row) for row in a]
    n = len(m)
    jordan = n and len(m[0]) > n
    swaps = 0
    prev = 1
    for k in range(n if jordan else n - 1):
        if not m[k][k]:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                break
            m[k], m[piv] = m[piv], m[k]
            swaps += 1
        rk = m[k]
        p = rk[k]
        cols, below = range(k + 1, len(rk)), range(k + 1, n)
        for i in itertools.chain(range(k), below) if jordan else below:
            ri = m[i]
            f = ri[k]
            for j in cols:
                ri[j] = (ri[j] * p - f * rk[j]) // prev
        prev = p
    return m, swaps


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square matrix of ints or of `QElt`s of one
    field: the signed last pivot of `bareiss`, or, if it stopped early, the
    zero pivot it stopped at."""
    if not a:
        return 1
    m, swaps = bareiss(a)
    for k in range(len(m) - 1):
        if not m[k][k]:
            return m[k][k]
    return -m[-1][-1] if swaps % 2 else m[-1][-1]


def det_bareiss(a: Matrix) -> Fraction:
    """Exact determinant of a rational matrix: det_int of L * a, over L^n."""
    m, scale = clear_denominators(a)
    return Fraction(det_int(m), scale ** len(a))


def is_positive_semidefinite(a: Matrix) -> bool:
    """Exact PSD test for a rational matrix.  A symmetric a is PSD iff it is
    positive definite on its row space (its kernel is the orthogonal of the
    row space), that is, iff b a b^T has positive leading minors for b the
    rref rows of a (Sylvester): the diagonal of a swap-free `bareiss` run,
    which swaps only past a zero minor.  Scaling the rows of b by positive
    numbers d_i multiplies the k-th leading minor by (d_1 ... d_k)^2, so the
    integer RREF rows serve as well as the RREF."""
    if not is_symmetric(a):
        return False
    b = rref(a)[0]
    g, _ = clear_denominators(matmul(matmul(b, a), transpose(b)))
    m, swaps = bareiss(g)
    return not swaps and all(m[k][k] > 0 for k in range(len(m)))


def primitive(row: Sequence[int]) -> Sequence[int]:
    """The integer row divided by the gcd of its entries (a list), or the row
    itself if that gcd is 1 or 0."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_rows(a: Matrix) -> list[list[int]]:
    """Each row of a rational matrix times the lcm of its denominators, made
    primitive."""
    m = []
    for row in a:
        nd = [x.as_integer_ratio() for x in row]
        den = math.lcm(*[d for _, d in nd])
        m.append(primitive([n * (den // d) for n, d in nd]))
    return m


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """The integer RREF of a rational matrix (entries ints and Fractions)
    and its pivot columns; zero rows dropped.

    Rows of ints enter as they are, a row holding a Fraction is first
    scaled by the lcm of its denominators, and each row is made primitive
    (divided by the gcd of its entries) on entry and after each update.
    One fraction-free Gauss-Jordan loop, which never divides but by those
    gcds: row_i <- p*row_i - f*row_r clears column c of row i against the
    pivot p = row_r[c].  Row scalings keep the row space, the loop clears
    every pivot column outside its pivot row, and the RREF of a row space
    is unique, so each output row, an int tuple with positive pivot, is the
    primitive integer multiple of an RREF row: unique for each row space.
    `unit_rref` divides the pivots out."""
    if Fraction in set(map(type, itertools.chain.from_iterable(a))):
        m = _integer_rows(a)
    else:
        m = [primitive(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        for piv in range(r, rows):
            if m[piv][c]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        p = pr[c]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                m[i] = primitive([p * x - f * y for x, y in zip(m[i], pr)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    out = []
    for row, c in zip(m, pivots):
        out.append(tuple(row) if row[c] > 0 else tuple([-x for x in row]))
    return tuple(out), pivots


def unit_rref(rows: Matrix) -> Matrix:
    """The RREF from rows that `rref` returns: each row divided by its pivot
    (its first nonzero entry), as Fractions."""
    out = []
    for row in rows:
        p = next(x for x in row if x)
        out.append(tuple([Fraction(x, p) for x in row]))
    return tuple(out)


def rank(a: Matrix) -> int:
    return len(rref(a)[0])


def kernel(a: Matrix) -> Matrix:
    """Basis (as rows) of {x : a @ x = 0}."""
    cols = len(a[0]) if a else 0
    r, pivots = rref(a)
    r = unit_rref(r)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def intersect_and_sum(a: Matrix, b: Matrix, ambient_dim: int) -> tuple[Matrix, Matrix]:
    """(meet, sum) of two rational row spaces, each as integer RREF rows,
    from one rref of [[a, a], [b, 0]] (Zassenhaus), whose rows span the
    (x + y, x) with x in rowspace(a) and y in rowspace(b).  The RREF rows
    with a pivot in the left half have left halves forming the RREF of the
    sum; the others have left half 0, so y = -x, and right halves forming
    the RREF of the meet.  A primitive row with left half 0 has a primitive
    right half, but a left half may have a common factor, which is divided
    out."""
    n = ambient_dim
    zero = (0,) * n
    r, pivots = rref(tuple(tuple(row) * 2 for row in a) + tuple(tuple(row) + zero for row in b))
    k = sum(1 for c in pivots if c < n)
    return tuple(row[n:] for row in r[k:]), tuple(tuple(primitive(row[:n])) for row in r[:k])


def intersect_row_spaces(a: Matrix, b: Matrix, ambient_dim: int) -> Matrix:
    """Basis (rref rows) of rowspace(a) ∩ rowspace(b)."""
    return intersect_and_sum(a, b, ambient_dim)[0]


def sum_row_spaces(a: Matrix, b: Matrix) -> Matrix:
    return rref(a + b)[0]


def in_row_space(v: Sequence, a: Matrix) -> bool:
    """Whether the rational vector v lies in the row space of a: iff adding
    it keeps the rank."""
    return rank(tuple(a) + (tuple(v),)) == rank(a)


def kron(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ra in a:
        for rb in b:
            out.append(tuple(x * y for x in ra for y in rb))
    return tuple(out)


# ---------------------------------------------------------------------------
# Integer lattice routines.

IntMatrix = tuple[tuple[int, ...], ...]


def int_mat(rows: Sequence[Sequence[int]]) -> IntMatrix:
    out = []
    for row in rows:
        r = []
        for x in row:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError("expected integer entries")
                x = x.numerator
            r.append(int(x))
        out.append(tuple(r))
    return tuple(out)


def hnf(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form (positive pivots, reduced above), zero rows dropped."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        # gcd sweep on column c below row r
        while True:
            nz = [i for i in range(r, rows) if m[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[piv] = m[piv], m[r]
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            done = True
            for i in range(r + 1, rows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if any(m[i][c] != 0 for i in range(r, rows)):
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
            r += 1
            if r == rows:
                break
    out = [tuple(row) for row in m[:r] if any(row)]
    return tuple(out)


def saturate(a: IntMatrix) -> tuple[int, IntMatrix]:
    """(index, basis) for independent integer rows a (k x n): a basis of the
    saturation V ∩ Z^n of their row lattice, V the rational span, and the
    index of a's lattice in it.  Column operations only: for t = 0..k-1 gcd
    steps swap the least nonzero entry of row t into column t and subtract
    multiples of column t until the row is zero right of column t.  They
    leave the rows above alone, so a @ C = [T | 0], T lower triangular and C
    unimodular.  Each step's inverse goes to C^-1, from the identity (a column
    swap swaps rows; col_j -= q * col_t is row_t += q * row_j), so
    a = T @ C^-1[:k].  The rows of C^-1 are a basis of Z^n, so its first k
    span a saturated lattice with the rational span of a, since T is
    invertible: the saturation, in which a's lattice has index |det T|."""
    m = [list(row) for row in a]
    k, n = len(m), len(m[0])
    cinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(k):
        row, below = m[t], m[t:]
        while any(row[t + 1:]):
            p = min((j for j in range(t, n) if row[j]), key=lambda j: abs(row[j]))
            for r in below:
                r[t], r[p] = r[p], r[t]
            cinv[t], cinv[p] = cinv[p], cinv[t]
            for j in range(t + 1, n):
                if q := row[j] // row[t]:
                    for r in below:
                        r[j] -= q * r[t]
                    cinv[t] = [x + q * y for x, y in zip(cinv[t], cinv[j])]
    return abs(math.prod(m[t][t] for t in range(k))), tuple(map(tuple, cinv[:k]))


def int_kernel_saturated(a: IntMatrix, ambient_dim: int) -> IntMatrix:
    """HNF basis of the integer kernel {x in Z^n : a @ x^T = 0}, which is
    saturated: the right halves of the rows of hnf([a^T | I]) that vanish on
    a^T (Cohen, A Course in Computational Algebraic Number Theory, 2.4)."""
    k = len(a)
    aug = tuple(
        tuple(row[i] for row in a) + tuple(int(i == j) for j in range(ambient_dim))
        for i in range(ambient_dim)
    )
    return tuple(row[k:] for row in hnf(aug) if not any(row[:k]))
