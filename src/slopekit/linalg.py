"""Exact linear algebra over the rationals and the integers.

Matrices are tuples of tuples of Fractions (or ints for integer routines);
everything here is pure and allocation-happy, sized for ranks <= ~10.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def matvec(a: Matrix, v: Sequence) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_bareiss(a: Matrix) -> Fraction:
    """Exact determinant of a rational matrix: det_int of L * a, over L^n."""
    m, scale = clear_denominators(a)
    return Fraction(det_int(m), scale ** len(a))


def leading_principal_minors(a: Matrix) -> list[Fraction]:
    return [det_bareiss(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(len(a))]


def is_positive_definite(a: Matrix) -> bool:
    """Sylvester criterion for a symmetric matrix."""
    return is_symmetric(a) and all(d > 0 for d in leading_principal_minors(a))


def is_positive_semidefinite(a: Matrix) -> bool:
    """Exact PSD test for a symmetric rational matrix (pivoted elimination)."""
    if not is_symmetric(a):
        return False
    m = [list(row) for row in a]
    n = len(m)
    active = list(range(n))
    while active:
        piv = None
        for i in active:
            if m[i][i] > 0:
                piv = i
                break
            if m[i][i] < 0:
                return False
        if piv is None:
            # all active diagonal entries are zero: rows must vanish
            return all(m[i][j] == 0 for i in active for j in active)
        active.remove(piv)
        d = m[piv][piv]
        for i in active:
            f = m[i][piv] / d
            if f == 0:
                continue
            for j in active:
                m[i][j] -= f * m[piv][j]
    return True


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [x / d for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns; zero rows dropped."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        m[r] = [x / d for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in m[:r]), pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[0])


def row_space(a: Matrix) -> Matrix:
    return rref(a)[0]


def kernel(a: Matrix) -> Matrix:
    """Basis (as rows) of {x : a @ x = 0}."""
    cols = len(a[0]) if a else 0
    r, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def annihilator(rows: Matrix, ambient_dim: int) -> Matrix:
    """Basis of {y : row . y = 0 for all rows}; full space if rows empty."""
    if not rows:
        return identity(ambient_dim)
    return kernel(rows)


def intersect_row_spaces(a: Matrix, b: Matrix, ambient_dim: int) -> Matrix:
    """Basis (rref rows) of rowspace(a) ∩ rowspace(b)."""
    anns = annihilator(a, ambient_dim) + annihilator(b, ambient_dim)
    if not anns:
        return identity(ambient_dim)
    ker = kernel(anns)
    return rref(ker)[0] if ker else ()


def sum_row_spaces(a: Matrix, b: Matrix) -> Matrix:
    return rref(a + b)[0]


def in_row_space(v: Sequence, a: Matrix) -> bool:
    if all(x == 0 for x in v):
        return True
    if not a:
        return False
    r, pivots = rref(a)
    w = [Fraction(x) for x in v]
    for i, p in enumerate(pivots):
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, r[i])]
    return all(x == 0 for x in w)


def kron(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ra in a:
        for rb in b:
            out.append(tuple(x * y for x in ra for y in rb))
    return tuple(out)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    za, zb = (Fraction(0),) * nb, (Fraction(0),) * na
    return tuple(row + za for row in a) + tuple(zb + row for row in b)


def minor_det(a: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    return det_bareiss(tuple(tuple(a[i][j] for j in cols) for i in rows))


def exterior_gram(g: Matrix, p: int) -> Matrix:
    """Gram matrix of the p-th alternating power: entries det(g[S][T])."""
    n = len(g)
    subsets = list(combinations(range(n), p))
    return tuple(
        tuple(minor_det(g, s, t) for t in subsets) for s in subsets
    )


def alternating_map_matrix(n: int, p: int) -> Matrix:
    """Matrix of the natural map from the p-th tensor power to the p-th
    alternating power; rows indexed by p-subsets, columns by p-tuples in the
    Kronecker index order."""
    from itertools import product

    subsets = list(combinations(range(n), p))
    row_of = {s: i for i, s in enumerate(subsets)}
    cols = n**p
    out = [[Fraction(0)] * cols for _ in subsets]
    for tup in product(range(n), repeat=p):
        if len(set(tup)) != p:
            continue
        col = 0
        for t in tup:
            col = col * n + t
        key = tuple(sorted(tup))
        # sign of the permutation sorting the tuple
        perm = sorted(range(p), key=lambda i: tup[i])
        sign = 1
        seen = [False] * p
        for i in range(p):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        out[row_of[key]][col] = Fraction(sign)
    return tuple(tuple(row) for row in out)


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


def diagonalize_int(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return (D, Cinv) with D = R @ a @ C diagonal and R, C unimodular.

    No divisibility chain is enforced (plain diagonal form suffices here).
    The rational row space of `a` is the span of the first rank(D) rows of
    Cinv, whose integer span is the saturation of the row lattice.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    cinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_op_sub(j: int, i: int, q: int):
        # col_j -= q*col_i on m  <=>  row_i += q*row_j on cinv
        for row in m:
            row[j] -= q * row[i]
        cinv[i] = [x + q * y for x, y in zip(cinv[i], cinv[j])]

    def col_swap(i: int, j: int):
        for row in m:
            row[i], row[j] = row[j], row[i]
        cinv[i], cinv[j] = cinv[j], cinv[i]

    def col_neg(i: int):
        for row in m:
            row[i] = -row[i]
        cinv[i] = [-x for x in cinv[i]]

    t = 0
    while t < min(rows, cols):
        piv = next(
            ((i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j] != 0),
            None,
        )
        if piv is None:
            break
        m[t], m[piv[0]] = m[piv[0]], m[t]
        if piv[1] != t:
            col_swap(t, piv[1])
        while True:
            col_done = True
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        col_done = False
            if not col_done:
                continue
            row_done = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    col_op_sub(j, t, q)
                    if m[t][j] != 0:
                        col_swap(t, j)
                        row_done = False
            if row_done and all(m[i][t] == 0 for i in range(t + 1, rows)):
                break
        if m[t][t] < 0:
            col_neg(t)
        t += 1
    return tuple(tuple(row) for row in m), tuple(tuple(row) for row in cinv)


def saturation_basis(a: IntMatrix, ambient_dim: int) -> IntMatrix:
    """HNF basis of the saturation of the row lattice of `a` in Z^ambient_dim."""
    if not a:
        return ()
    d, cinv = diagonalize_int(a)
    k = sum(1 for i in range(min(len(d), ambient_dim)) if d[i][i] != 0)
    return hnf(tuple(tuple(cinv[i]) for i in range(k)))


def int_kernel_saturated(a: IntMatrix, ambient_dim: int) -> IntMatrix:
    """HNF basis of the saturated integer kernel {x in Z^n : a @ x^T = 0}."""
    frac_rows = mat(a) if a else ()
    if not frac_rows:
        return hnf(tuple(tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim)))
    ker = kernel(frac_rows)
    if not ker:
        return ()
    # scale rational kernel basis to integers, then saturate
    int_rows = []
    for row in ker:
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        int_rows.append(tuple(int(x * lcm) for x in row))
    return saturation_basis(tuple(int_rows), ambient_dim)


def sqrt_frac_upper(q: Fraction) -> Fraction:
    """A rational upper bound for sqrt(q), q >= 0; tight to ~1e-9 relative."""
    if q < 0:
        raise ValueError("negative argument")
    if q == 0:
        return Fraction(0)
    scale = 1 << 30
    n = q.numerator * q.denominator
    root = math.isqrt(n * scale * scale) + 1
    return Fraction(root, q.denominator * scale)


def sqrt_frac_lower(q: Fraction) -> Fraction:
    if q < 0:
        raise ValueError("negative argument")
    if q == 0:
        return Fraction(0)
    scale = 1 << 30
    n = q.numerator * q.denominator
    root = math.isqrt(n * scale * scale)
    return Fraction(root, q.denominator * scale)
