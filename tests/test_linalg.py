"""The field routines of `linalg` against test-local copies of the loops they
replaced: the old `linalg.inverse`, `lattice._solve_coords`, and
`hermitian._field_inverse` / `_field_det`."""

import random
from fractions import Fraction

import pytest

from slopekit import linalg
from slopekit.hermitian import ImagQuadField

F = Fraction


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


def test_inverse_matches_reference_over_q():
    rng = random.Random(301)
    singular = 0
    for t in range(50):
        n = 1 + t % 5
        a = _frac_rows(rng, n, n, n - (t % 3 == 0))
        expect = _outcome(_reference_inverse, a)
        singular += expect is ValueError
        assert _outcome(linalg.inverse, a) == expect
    assert singular >= 10


def test_solve_matches_reference_over_q():
    rng = random.Random(302)
    outside = 0
    for t in range(50):
        n = 1 + t % 4
        k = rng.randint(1, 5)
        rows = _frac_rows(rng, k, n, min(k, rng.randint(0, n)))
        if t % 2:
            v = tuple(_rand_frac(rng) for _ in range(n))
        else:
            cs = [_rand_frac(rng) for _ in rows]
            v = tuple(sum((c * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(n))
        expect = _reference_solve_coords(rows, v)
        got = linalg.solve(rows, v)
        if expect is None:
            outside += 1
            assert got is None
        else:
            assert got == tuple(expect)
            assert tuple(sum((c * r[j] for c, r in zip(got, rows)), F(0)) for j in range(n)) == v
    assert outside >= 5


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_field_inverse_and_det_match_reference(d):
    field = ImagQuadField(d)
    rng = random.Random(303 + d)
    singular = 0
    for t in range(50):
        n = 1 + t % 4
        a = _qelt_rows(rng, field, n, singular=n > 1 and t % 3 == 0)
        det = linalg.det_field(a)
        assert det == _reference_field_det(a)
        expect = _outcome(_reference_field_inverse, a)
        got = _outcome(linalg.inverse, a)
        if expect is ValueError:
            singular += 1
            assert got is ValueError and det.is_zero()
            continue
        assert got == tuple(tuple(row) for row in expect)
        prod = tuple(
            tuple(sum((x * y for x, y in zip(row, col)), field.zero) for col in zip(*got)) for row in a
        )
        assert prod == tuple(tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n))
    assert singular >= 10


def test_solve_over_imaginary_quadratic_field():
    field = ImagQuadField(7)
    rng = random.Random(304)
    for t in range(20):
        a = _qelt_rows(rng, field, 3, singular=t % 2 == 0)
        cs = [field.elt(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in a]
        v = tuple(sum((c * r[j] for c, r in zip(cs, a)), field.zero) for j in range(3))
        got = linalg.solve(a, v)
        assert tuple(sum((c * r[j] for c, r in zip(got, a)), field.zero) for j in range(3)) == v
