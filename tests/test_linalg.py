"""`linalg` against test-local copies of the loops it replaced: for the field
routines the old `Fraction` Gauss-Jordan loop of `linalg.rref`, and the old
`linalg.inverse`, `linalg.solve` (`lattice._solve_coords`) and
`hermitian._field_inverse` / `_field_det`, which `test_lattice`,
`test_multifilt`, `test_quadratic` and `test_hermitian` import as their
references for duals and coordinates; for the fraction-free kernel
`bareiss` the old `det_int`, `enumeration._gso`,
`linalg.leading_principal_minors`, the `linalg.minor_det` exterior Gram and
the cycle-counting sign of a permutation (against `det_int` of its matrix,
as the deleted `alternating_map_matrix` read it), and the pivoted loop
of `is_positive_semidefinite`; for `saturate` the old Smith-style
`diagonalize_int`, the gcd of the maximal minors and the double integer
kernel.
`test_enumeration` imports `_gso` and `_reference_diagonalize_int` from
here."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from slopekit import linalg
from slopekit.hermitian import ImagQuadField
from slopekit.lattice import EuclideanLattice

F = Fraction


def _reference_rref(a):
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        m[r] = [x / d for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return tuple(tuple(row) for row in m[:r]), pivots


def _reference_inverse(a):
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


def _reference_solve_coords(rows, v):
    n = len(rows)
    mm = [list(col) + [Fraction(v[i])] for i, col in enumerate(linalg.transpose(rows))]
    piv_cols = []
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


def _reference_field_det(rows):
    n = len(rows)
    field = rows[0][0].field
    m = [list(r) for r in rows]
    det = field.one
    for c in range(n):
        piv = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if piv is None:
            return field.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        m[c] = [x * inv for x in m[c]]
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _reference_field_inverse(rows):
    n = len(rows)
    field = rows[0][0].field
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if not aug[i][c].is_zero()), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _outcome(fn, *args):
    """The value, or the exception type it raised."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _rand_frac(rng):
    return F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def _frac_rows(rng, k, n, rank):
    """k rows of width n spanning at most `rank` dimensions; rows past `rank`
    are random combinations of the first ones."""
    rows = [[_rand_frac(rng) for _ in range(n)] for _ in range(rank)]
    for _ in range(k - rank):
        cs = [rng.randint(-2, 2) for _ in range(rank)]
        rows.append([sum((c * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(n)])
    rng.shuffle(rows)
    return linalg.mat(rows)


def _qelt_rows(rng, field, n, singular):
    def elt():
        return field.elt(_rand_frac(rng), rng.choice((0, rng.randint(-3, 3))))

    rows = [[elt() for _ in range(n)] for _ in range(n - 1 if singular else n)]
    if singular:
        cs = [elt() for _ in rows]
        rows.append([sum((c * r[j] for c, r in zip(cs, rows)), field.zero) for j in range(n)])
        rng.shuffle(rows)
    return tuple(tuple(row) for row in rows)


def _rational_entry(rng):
    """0 half the time, else a small int or Fraction."""
    k = rng.random()
    if k < 0.5:
        return rng.choice((0, F(0)))
    return rng.randint(-6, 6) if k < 0.7 else F(rng.randint(-9, 9), rng.randint(1, 8))


def test_rref_matches_reference_over_q():
    rng = random.Random(300)
    cases = [(), ((),), ((0, 0),), ((F(0),), (F(0),))]
    for _ in range(2400):
        k, n = rng.randint(0, 10), rng.randint(1, 10)
        rows = [[_rational_entry(rng) for _ in range(n)] for _ in range(k)]
        for i in range(2, k, 3):  # a dependent row
            rows[i] = [rng.randint(-2, 2) * x - y for x, y in zip(rows[i - 1], rows[i - 2])]
        cases.append(tuple(tuple(row) for row in rows))
    deficient = 0
    for a in cases:
        expect = _reference_rref(tuple(tuple(F(x) for x in row) for row in a))
        got, pivots = linalg.rref(a)
        assert (linalg.unit_rref(got), pivots) == expect, a
        assert all(type(x) is int for row in got for x in row)
        deficient += len(got) < len(a)
    assert deficient >= 1000


def _another_basis(rng, rows):
    """A spanning set of rowspace(rows), independent rows of Fractions: an
    invertible integer combination of them, each row then scaled by a
    nonzero rational, with a dependent row added and all shuffled."""
    k = len(rows)
    while True:
        u = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        if len(_reference_rref(linalg.mat(u))[0]) == k:
            break
    out = []
    for cs in u:
        scale = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
        out.append([scale * sum(c * r[j] for c, r in zip(cs, rows)) for j in range(len(rows[0]))])
    out.append([x - 2 * y for x, y in zip(out[0], out[-1])])
    rng.shuffle(out)
    return tuple(map(tuple, out))


def test_rref_is_the_integer_rref_of_the_row_space():
    """On rational input `rref` gives each RREF row scaled to primitive
    integers with a positive pivot: its rows divided by their pivots are the
    reference RREF, and two bases of one row space give the same tuples."""
    rng = random.Random(330)
    spaces = 0
    for _ in range(500):
        k, n = rng.randint(1, 6), rng.randint(1, 7)
        a = tuple(tuple(_rational_entry(rng) for _ in range(n)) for _ in range(k))
        got, pivots = linalg.rref(a)
        ref, ref_pivots = _reference_rref(linalg.mat(a))
        assert pivots == ref_pivots
        for row, c, unit in zip(got, pivots, ref):
            assert type(row) is tuple and all(type(x) is int for x in row)
            assert math.gcd(*row) == 1 and row[c] > 0
            assert tuple(F(x, row[c]) for x in row) == unit
        if got:
            assert linalg.rref(_another_basis(rng, a if len(got) == k else ref)) == (got, pivots)
            spaces += 1
    assert spaces >= 400


def test_rref_of_int_rows_is_ints_and_kernel_is_fractions():
    """rref keeps integer rows on ints (made primitive, pivots positive,
    Fraction rows scaled to integers); kernel divides by the pivots and
    returns Fractions."""
    r, pivots = linalg.rref(((2, 1), (4, 4)))
    assert (r, pivots) == (((1, 0), (0, 1)), [0, 1])
    assert linalg.rref(((-2, -4, 6), (3, 6, 1))) == (((1, 2, 0), (0, 0, 1)), [0, 2])
    assert linalg.rref(((F(1, 2), F(-1, 3)), (F(1), F(-2, 3)))) == (((3, -2),), [0])
    ker = linalg.kernel(((1, 2),))
    assert ker == ((-2, 1),)
    assert all(type(x) is int for row in r for x in row)
    assert all(type(x) is F for row in ker for x in row)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_field_inverse_and_det_match_reference(d):
    """`det_int` over Q(sqrt(-d)) against the old field determinant; the
    inverse it was checked with here is now the hermitian dual's
    (`test_hermitian.test_dual_matches_field_inverse_route`)."""
    field = ImagQuadField(d)
    rng = random.Random(303 + d)
    singular = 0
    for t in range(50):
        n = 1 + t % 4
        a = _qelt_rows(rng, field, n, singular=n > 1 and t % 3 == 0)
        det = linalg.det_int(a)
        assert det == _reference_field_det(a)
        singular += det.is_zero()
    assert singular >= 10


# ---------------------------------------------------------------------------
# The fraction-free kernel.


def _reference_det_int(a):
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


def _gso(g):
    """Gram-Schmidt data from a Gram matrix: (mu lower-triangular, B norms)."""
    n = len(g)
    mu = [[F(0)] * n for _ in range(n)]
    b = [F(0)] * n
    c = [[F(0)] * n for _ in range(n)]  # c[i][j] = <b_i, b*_j>
    for i in range(n):
        for j in range(i + 1):
            c[i][j] = g[i][j] - sum(mu[j][k] * c[i][k] for k in range(j))
            if j < i:
                mu[i][j] = c[i][j] / b[j]
        b[i] = c[i][i]
    return mu, b


def _leading_principal_minors(a):
    return [linalg.det_bareiss(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(len(a))]


def _reference_exterior_gram(g, p):
    def minor_det(a, rows, cols):
        return linalg.det_bareiss(tuple(tuple(a[i][j] for j in cols) for i in rows))

    subsets = list(combinations(range(len(g)), p))
    return tuple(tuple(minor_det(g, s, t) for t in subsets) for s in subsets)


def _gram(rows):
    return linalg.mat([[sum(F(x) * y for x, y in zip(r1, r2)) for r2 in rows] for r1 in rows])


def _pd_gram(rng, n):
    """B B^T for a random invertible integer B, times a random positive rational."""
    while True:
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if linalg.det_int(b):
            return linalg.scalar_mul(F(rng.randint(1, 5), rng.choice((1, 1, 2, 3, 7))), _gram(b))


def _grams(rng, count):
    """Positive definite (integer and rational), singular PSD, indefinite and
    zero-leading Grams, each kind in turn, ranks 1..6."""
    out = [linalg.mat(g) for g in (((0, 1), (1, 0)), ((0, 0), (0, 1)), ((1, 1), (1, 1)))]
    for t in range(count):
        n = 1 + t % 6
        kind = t % 4
        if kind == 0:
            g = _pd_gram(rng, n)
        elif kind == 1:  # n vectors in a space of dimension < n: singular PSD
            r = rng.randint(0, n - 1)
            g = _gram([[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)])
        elif kind == 2:  # random symmetric
            a = [[_rand_frac(rng) for _ in range(n)] for _ in range(n)]
            g = tuple(tuple(a[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
        else:  # a zero first diagonal entry: Sylvester fails, elimination swaps
            g = [list(r) for r in _pd_gram(rng, n)]
            g[0][0] = F(0)
            g = linalg.mat(g)
        out.append(linalg.mat(g))
    return out


def test_det_int_matches_reference():
    rng = random.Random(311)
    singular = swapped = 0
    for t in range(80):
        n = 1 + t % 6
        a = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        if t % 5 == 0 and n > 1:
            a[-1] = [x + y for x, y in zip(a[0], a[1 % n])]
        d = _reference_det_int(a)
        singular += d == 0
        swapped += linalg.bareiss(a)[1] > 0
        assert linalg.det_int(a) == d
    assert singular >= 10 and swapped >= 10


def _reference_is_psd(a):
    """The earlier `is_positive_semidefinite`: symmetric, then pivoted
    elimination on positive diagonal entries."""
    if not linalg.is_symmetric(a):
        return False
    m = [list(row) for row in a]
    active = list(range(len(m)))
    while active:
        piv = None
        for i in active:
            if m[i][i] > 0:
                piv = i
                break
            if m[i][i] < 0:
                return False
        if piv is None:
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


def test_is_positive_semidefinite_matches_reference():
    rng = random.Random(29)
    mats = _grams(rng, 240)
    # non-symmetric: one off-diagonal entry moved
    for g in _grams(rng, 80):
        if len(g) > 1:
            g = [list(r) for r in g]
            g[0][-1] += rng.choice((-1, 1))
            mats.append(linalg.mat(g))
    got = [linalg.is_positive_semidefinite(a) for a in mats]
    assert got == [_reference_is_psd(a) for a in mats]
    assert sum(got) >= 100 and len(got) - sum(got) >= 100
    assert linalg.is_positive_semidefinite(()) and _reference_is_psd(())


def test_bareiss_keeps_minors_below_the_diagonal():
    rng = random.Random(312)
    checked = 0
    for t in range(80):
        n = 1 + t % 6
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m, swaps = linalg.bareiss(a)
        if swaps:
            continue
        checked += 1
        for i in range(n):
            for j in range(i + 1):
                rows = list(range(j)) + [i]
                assert m[i][j] == _reference_det_int([[a[r][c] for c in range(j + 1)] for r in rows])
    assert checked >= 50


@pytest.mark.parametrize("d", [None, 1, 2, 3, 7])
def test_bareiss_of_s_and_identity_leaves_adjugate_and_det(d):
    """On [S | I] `bareiss` runs as fraction-free Gauss-Jordan: it leaves
    adj(S) in its right half and det S as its last pivot, both times -1 if
    it swapped an odd number of rows, against the cofactors from `det_int`,
    on ints (d None) and on `QElt`s of Q(sqrt(-d)), at ranks 1-5."""
    field = d and ImagQuadField(d)
    zero, one = (0, 1) if field is None else (field.zero, field.one)
    rng = random.Random(316 + (d or 0))

    def entry():
        a = rng.choice((0, rng.randint(-5, 5), rng.randint(-5, 5)))
        return a if field is None else field.elt(a, rng.choice((0, 0, rng.randint(-3, 3))))

    def cofactor(s, i, j):
        minor = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(s) if r != i]
        c = linalg.det_int(minor) if minor else one
        return -c if (i + j) % 2 else c

    checked = swapped = 0
    for t in range(120):
        n = 1 + t % 5
        s = [[entry() for _ in range(n)] for _ in range(n)]
        det = linalg.det_int(s)
        if not det:
            continue
        m, swaps = linalg.bareiss([row + [one if i == j else zero for j in range(n)] for i, row in enumerate(s)])
        sign = -1 if swaps % 2 else 1
        assert m[-1][n - 1] == det * sign
        assert [row[n:] for row in m] == [[cofactor(s, j, i) * sign for j in range(n)] for i in range(n)]
        checked += 1
        swapped += swaps > 0
    assert checked >= 80 and swapped >= 20


def test_construction_matches_leading_principal_minors():
    rng = random.Random(313)
    accepted = rejected = 0
    for g in _grams(rng, 80):
        minors = _leading_principal_minors(g)
        got = _outcome(EuclideanLattice, g)
        if all(d > 0 for d in minors):
            accepted += 1
            assert got.det() == minors[-1]
            gi, scale = got.scaled_gram()
            assert gi == tuple(tuple(x * scale for x in row) for row in g)
        else:
            rejected += 1
            assert got is ValueError
    assert accepted >= 20 and rejected >= 50


def test_bareiss_gram_schmidt_matches_gso():
    rng = random.Random(314)
    for t in range(60):
        g = _pd_gram(rng, 1 + t % 6)
        n = len(g)
        gi, scale = linalg.clear_denominators(g)
        m, swaps = linalg.bareiss(gi)
        assert swaps == 0
        d = [1] + [m[i][i] for i in range(n)]
        mu, b = _gso([list(r) for r in g])
        assert [F(d[i + 1], d[i] * scale) for i in range(n)] == b
        assert [[F(m[i][j], d[j + 1]) for j in range(i)] for i in range(n)] == [mu[i][:i] for i in range(n)]


def test_exterior_gram_matches_minor_det():
    rng = random.Random(315)
    for t in range(60):
        g = _pd_gram(rng, 1 + t % 6)
        p = 1 + t % len(g)
        assert EuclideanLattice(g).exterior_power(p).gram == _reference_exterior_gram(g, p)


def _reference_alternating_map_matrix(n, p):
    from itertools import product

    subsets = list(combinations(range(n), p))
    row_of = {s: i for i, s in enumerate(subsets)}
    out = [[F(0)] * n**p for _ in subsets]
    for tup in product(range(n), repeat=p):
        if len(set(tup)) != p:
            continue
        col = 0
        for t in tup:
            col = col * n + t
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
        out[row_of[tuple(sorted(tup))]][col] = F(sign)
    return tuple(tuple(row) for row in out)


def _alternating_map_matrix(n, p):
    """The matrix of the natural map from the p-th tensor power to the p-th
    alternating power, each sign read as `det_int` of a permutation matrix
    (the construction of the deleted `linalg.alternating_map_matrix`)."""
    from itertools import product

    row_of = {s: i for i, s in enumerate(combinations(range(n), p))}
    out = [[F(0)] * n**p for _ in row_of]
    for col, tup in enumerate(product(range(n), repeat=p)):
        if len(set(tup)) == p:
            order = sorted(range(p), key=lambda i: tup[i])
            sign = linalg.det_int([[int(order[i] == j) for j in range(p)] for i in range(p)])
            out[row_of[tuple(sorted(tup))]][col] = F(sign)
    return tuple(tuple(row) for row in out)


@pytest.mark.parametrize("n,p", [(n, p) for n in range(1, 6) for p in range(1, min(n, 4) + 1)])
def test_alternating_map_matrix_matches_cycle_signs(n, p):
    assert _alternating_map_matrix(n, p) == _reference_alternating_map_matrix(n, p)


def _reference_kernel(a, cols):
    r, pivots = _reference_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def _reference_meet(a, b, n):
    """The earlier `intersect_row_spaces`: the kernel of the stacked
    annihilators, each annihilator itself a kernel."""
    ident = linalg.identity(n)
    anns = (_reference_kernel(a, n) if a else ident) + (_reference_kernel(b, n) if b else ident)
    if not anns:
        return ident
    ker = _reference_kernel(anns, n)
    return _reference_rref(ker)[0] if ker else ()


def test_intersect_and_sum_matches_annihilator_meet_and_stacked_rref():
    """One Zassenhaus rref gives the meet of the annihilator route and the
    rref of the stacked rows, on random, empty, zero-meet, full and nested
    pairs."""
    rng = random.Random(520)
    kinds = {"random": 0, "empty": 0, "zero-meet": 0, "full": 0, "nested": 0}
    for t in range(600):
        n = rng.randint(1, 6)
        kind = list(kinds)[t % len(kinds)]
        ka = rng.randint(0, n + 1)
        a = _frac_rows(rng, ka, n, rng.randint(0, min(ka, n)))
        if kind == "random":
            kb = rng.randint(1, n + 1)
            b = _frac_rows(rng, kb, n, rng.randint(1, min(kb, n)))
        elif kind == "empty":
            a, b = rng.choice([(a, ()), ((), a), ((), ())])
        elif kind == "zero-meet":
            basis = _frac_rows(rng, n, n, n)
            while len(_reference_rref(basis)[0]) < n:
                basis = _frac_rows(rng, n, n, n)
            cut = rng.randint(0, n)
            a, b = basis[:cut], basis[cut:]
        elif kind == "full":
            b = _frac_rows(rng, n + 1, n, n)
        else:
            b = tuple(
                tuple(sum((rng.randint(-2, 2) * r[j] for r in a), F(0)) for j in range(n))
                for _ in range(rng.randint(1, 3))
            ) if a else ()
            a, b = rng.choice([(a, b), (b, a)])
        meet, total = linalg.intersect_and_sum(a, b, n)
        assert linalg.unit_rref(meet) == _reference_meet(a, b, n), (a, b)
        assert linalg.unit_rref(total) == _reference_rref(a + b)[0], (a, b)
        assert all(math.gcd(*row) == 1 for row in meet + total), (a, b)
        assert linalg.intersect_row_spaces(a, b, n) == meet
        assert len(meet) + len(total) == len(_reference_rref(a)[0]) + len(_reference_rref(b)[0])
        if kind == "zero-meet":
            assert meet == () and len(total) == len(_reference_rref(a + b)[0])
        kinds[kind] += 1
    assert min(kinds.values()) >= 100


def _reference_diagonalize_int(a):
    """The earlier `linalg.diagonalize_int`: (D, Cinv) with D = R @ a @ C
    diagonal and R, C unimodular, by row and column gcd sweeps.  The first
    rank(D) rows of Cinv span the saturation of the row lattice of a, in
    which a's lattice has index the product of the nonzero diagonal of D."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    cinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_op_sub(j, i, q):
        # col_j -= q*col_i on m  <=>  row_i += q*row_j on cinv
        for row in m:
            row[j] -= q * row[i]
        cinv[i] = [x + q * y for x, y in zip(cinv[i], cinv[j])]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        cinv[i], cinv[j] = cinv[j], cinv[i]

    def col_neg(i):
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


def _reference_saturation(a):
    """HNF of the saturation of the row lattice of a, by the earlier
    `diagonalize_int`."""
    diag, cinv = _reference_diagonalize_int(a)
    rank = sum(1 for i in range(min(len(diag), len(cinv))) if diag[i][i])
    return linalg.hnf(cinv[:rank])


def _reference_int_kernel_saturated(a, n):
    """The earlier `int_kernel_saturated`: the Fraction kernel, each row
    scaled to integers, then saturated."""
    if not a:
        return linalg.hnf(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    ker = _reference_kernel(linalg.mat(a), n)
    if not ker:
        return ()
    int_rows = tuple(tuple(linalg.clear_denominators((row,))[0][0]) for row in ker)
    return _reference_saturation(int_rows)


def test_int_kernel_saturated_matches_fraction_kernel():
    """The HNF of [a^T | I] gives the earlier saturated kernel, also for no
    rows, dependent rows and full rank; every result is saturated and killed
    by a."""
    rng = random.Random(301)
    empty = full = 0
    for t in range(360):
        n = rng.randint(1, 6)
        k = 0 if t % 12 == 0 else rng.randint(1, n + 1)
        rank = min(k, n) if t % 4 == 1 else rng.randint(0, min(k, n))
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rank)]
        for _ in range(k - rank):
            cs = [rng.randint(-2, 2) for _ in range(rank)]
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)])
        rng.shuffle(rows)
        a = tuple(map(tuple, rows))
        got = linalg.int_kernel_saturated(a, n)
        assert got == _reference_int_kernel_saturated(a, n), a
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a for v in got)
        if got:
            assert linalg.saturate(got)[0] == 1
        empty += k == 0
        full += not got
    assert empty >= 25 and full >= 50


def _independent_int_rows(rng, k, n):
    while True:
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        if len(linalg.hnf(a)) == k:
            return a


def test_saturate_matches_minors_and_double_kernel():
    """On 600 seeded independent k x n integer matrices (n <= 8), half of them
    T @ b for independent rows b and det T > 1: the index is the gcd of the
    maximal minors, and the saturation's HNF is the double integer kernel's
    and the earlier `diagonalize_int`'s, and holds the rows of a."""
    rng = random.Random(613)
    unsaturated = 0
    for t in range(600):
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        a = _independent_int_rows(rng, k, n)
        if t % 2:
            # lower triangular T with a diagonal entry >= 2: det T > 1
            diag = [rng.randint(1, 3) for _ in range(k)]
            diag[rng.randrange(k)] = rng.randint(2, 4)
            tri = [[diag[i] if i == j else rng.randint(-3, 3) * (j < i) for j in range(k)] for i in range(k)]
            a = [[sum(tri[i][j] * a[j][c] for j in range(k)) for c in range(n)] for i in range(k)]
        a = tuple(map(tuple, a))
        index, rows = linalg.saturate(a)
        minors = [linalg.det_int([[row[c] for c in cols] for row in a]) for cols in combinations(range(n), k)]
        assert index == math.gcd(*minors), a
        sat = linalg.hnf(rows)
        assert len(rows) == len(sat) == k
        assert sat == linalg.int_kernel_saturated(linalg.int_kernel_saturated(a, n), n), a
        assert sat == _reference_saturation(a), a
        assert linalg.hnf(sat + a) == sat
        unsaturated += index > 1
    assert unsaturated >= 300
