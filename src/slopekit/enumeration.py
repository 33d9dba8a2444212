"""Short-vector and dense-sublattice search: certified mu_max, semistability,
and the canonical slope filtration at desk scale.

Certification rests on classical reduction theory.  Let M be a saturated
rank-k sublattice of determinant <= D, and min_sq the minimum of the ambient
lattice.  The dense-sublattice search enumerates a pool of vectors of squared
length at most a radius B and branches over k-subsets of it:

- k <= 8: B = gamma_k^k * D / min_sq^(k-1).  By Minkowski's second theorem
  the successive minima of M, each >= min_sq, have product
  <= gamma_k^k * det M, so vectors attaining them lie within B.  For k <= 4
  they form a basis of M; for 5 <= k <= 8 they need not, so there a
  candidate is judged by the determinant of its saturation, which is M.
- k > 8, where gamma_k is not tabulated: B = 2^(k(k-1)/2) * D / min_sq^(k-1),
  which bounds every vector of an LLL-reduced basis of M.

So the branch-and-bound is complete.  Past a resource cap a rank keeps only
the integrality bound (see `_lattice_canopy`), never a silent wrong answer.

`mu_max` reads only the first edge of the slope polygon, so it searches
bound-first.  Minkowski floors every rank-k determinant twice, by
min_sq(L)^k / gamma_k^k and, through the dual, by
det L * min_sq(L*)^(r-k) / gamma_(r-k)^(r-k).  Let (k0, d0) be the exact rank
of greatest slope found so far, starting from (r, det L).  A rank whose floor
exceeds d0^(k/k0) is not searched (skip), and any other rank is searched
only up to a rational C_k >= d0^(k/k0) (cap).  Both are complete: a skipped
or capped rank has every determinant above d0^(k/k0), so every rank-k degree
lies strictly below k times the best slope so far, hence below the final
first edge; a rank-k sublattice of equal slope has determinant
d0^(k/k0) <= C_k, so a capped search still finds every tie and the largest
rank of maximal slope is kept.

`upper_hull` turns what a slope category knows at each rank into its slope
polygon; mu_max, the slope filtration and their multifiltered twins are read
off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Any, NamedTuple, Optional, Sequence

from . import linalg
from .exactval import LogRational, _iroot, half_log
from .lattice import EuclideanLattice, Sublattice

F = Fraction

DEFAULT_NODE_CAP = 2_000_000


class EnumerationCapExceeded(Exception):
    """Resource cap hit; distinct from any mathematical failure."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration node cap {cap} exceeded")
        self.cap = cap


@dataclass(frozen=True)
class ShortVectorReport:
    bound: Fraction
    vectors: tuple[tuple[tuple[int, ...], Fraction], ...]  # (coords, squared length)

    def count_up_to_sign(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class CertifiedMuMax:
    value: LogRational
    witness: Sublattice
    certified: bool


@dataclass(frozen=True)
class SlopePolygon:
    """A polygon read off a canopy (see `upper_hull`); degrees are LogRationals
    for lattices and Fractions for multifiltered spaces."""

    points: tuple[tuple[int, Any], ...]  # (rank, greatest degree found at that rank)
    hull: tuple[tuple[int, Any], ...]  # upper-hull vertices incl. (0, 0)
    filtration: tuple[Any, ...]  # the witnesses at the vertices after (0, 0)
    certified: bool

    def quotient_slopes(self) -> tuple[LogRational, ...]:
        out = []
        for (k0, d0), (k1, d1) in zip(self.hull, self.hull[1:]):
            out.append((d1 - d0) / (k1 - k0))
        return tuple(out)


# ---------------------------------------------------------------------------
# The slope polygon of any category, from what it knows at each rank.

class RankBound(NamedTuple):
    """What a slope category knows at one rank k: the greatest degree it found
    among rank-k subobjects, with that subobject as witness (both None if it
    found none), and an upper bound on every rank-k degree.  A list of these
    for k = 1..r is a canopy; its last entry, the whole object, has a lower
    degree."""

    lower: Any
    witness: Any
    upper: Any


def upper_hull(canopy: Sequence[RankBound], edges: Optional[int] = None) -> SlopePolygon:
    """The upper convex hull of the origin and the points (k, lower_k), and
    whether it is the Harder-Narasimhan polygon: the concave envelope of the
    maximal degree at each rank (Stuhler 1976, Grayson 1984).

    From each vertex the next is the point of greatest slope, the largest rank
    among ties, so points on an edge are not vertices.  `edges` stops after
    that many edges; the first edge is (rank, degree) of the largest object of
    maximal slope.

    Let h be the hull, continued past its last vertex along its last edge.
    Every true maximal degree lies between lower_k and upper_k, and every
    lower point lies on or below h.  So if every upper_k <= h(k), the maximal
    degrees are the lower points at the vertices and lie on or below h
    elsewhere: h is the polygon, and its vertex witnesses are its canonical
    subobjects.  With one edge that reads upper_k <= k * mu for every k, so no
    subobject has slope above mu.  An exact rank (upper_k == lower_k) passes
    without a comparison."""
    pts = [(k, b.lower, b.witness) for k, b in enumerate(canopy, 1) if b.lower is not None]
    vertices, witnesses = [(0, pts[-1][1] * 0)], []
    i = 0
    while i < len(pts) and (edges is None or len(witnesses) < edges):
        (v, yv), best = vertices[-1], i
        for j in range(i + 1, len(pts)):
            (kj, yj, _), (kb, yb, _) = pts[j], pts[best]
            if (yj - yv) * (kb - v) >= (yb - yv) * (kj - v):
                best = j
        k, y, wit = pts[best]
        vertices.append((k, y))
        witnesses.append(wit)
        i = best + 1

    def above_hull(k, u) -> bool:
        j = next((j for j, (kv, _) in enumerate(vertices) if kv >= k), len(vertices) - 1)
        (ka, ya), (kb, yb) = vertices[j - 1], vertices[j]
        return (u - ya) * (kb - ka) > (yb - ya) * (k - ka)

    certified = True
    for k, b in enumerate(canopy, 1):
        if b.upper != b.lower:
            if b.lower is not None and b.upper < b.lower:
                raise AssertionError(f"rank-{k} upper bound fell below an exact degree")
            certified = certified and not above_hull(k, b.upper)
    points = tuple((k, y) for k, y, _ in pts)
    return SlopePolygon(points, tuple(vertices), tuple(witnesses), certified)


# ---------------------------------------------------------------------------
# LLL reduction on exact Gram matrices.

# Entries in the memos of lll_reduce and minimum_sq.  A search reduces the
# same few lattices (a tensor's factors, duals, sublattices) many times; the
# lattice-tensor benchmark meets about four new ones per op, so 1024 keeps
# every repeat of a run and bounds what a long session retains.
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def lll_reduce(lat: EuclideanLattice):
    """LLL-reduce (delta = 3/4); returns (reduced lattice, unimodular U) with
    G' = U G U^T.  Runs on the integer Gram matrix L * G: once per outer
    iteration a `linalg.bareiss` pass over its leading (k+1) x (k+1) block
    gives the leading minors d_j and lambda_kj = d_(j+1) * mu_kj.

    Memoized: lattices hash and compare by their Gram matrix."""
    n = lat.rank
    gi, scale = lat.scaled_gram()
    g = [list(row) for row in gi]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # b_i -= q b_j
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        g[i] = [x - q * y for x, y in zip(g[i], g[j])]
        for row in g:
            row[i] -= q * row[j]

    def swap(i, j):
        u[i], u[j] = u[j], u[i]
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    k = 1
    while k < n:
        m, _ = linalg.bareiss([row[: k + 1] for row in g[: k + 1]])
        d = [1] + [m[j][j] for j in range(k + 1)]  # d[j]: leading j x j minor
        lam = m[k]
        for j in reversed(range(k)):
            # round(mu_kj), ties to even
            q = round(F(lam[j], d[j + 1]))
            if q != 0:
                row_op(k, j, q)
                # b_k -= q b_j keeps every b*_i and d_i, so only lambda_k moves
                for i in range(j):
                    lam[i] -= q * m[j][i]
                lam[j] -= q * d[j + 1]
        # Lovasz, B_k >= (3/4 - mu_k,k-1^2) B_(k-1), times 4 d_k d_(k-1) > 0
        if 4 * (d[k + 1] * d[k - 1] + lam[k - 1] ** 2) >= 3 * d[k] ** 2:
            k += 1
        else:
            swap(k, k - 1)
            k = max(k - 1, 1)
    return EuclideanLattice._from_scaled(g, scale), tuple(map(tuple, u))


# ---------------------------------------------------------------------------
# Fincke-Pohst traversal on scaled integers.

def _isqrt_range(s: int, d: int, t: int) -> tuple[int, int]:
    """Integers x with (d*x + s)^2 <= t, for d > 0: inclusive [lo, hi], empty
    if lo > hi.  With T = isqrt(t) that is -T <= d*x + s <= T, so
    lo = ceil((-T - s) / d) and hi = floor((T - s) / d)."""
    if t < 0:
        return 0, -1
    root = math.isqrt(t)
    return -((root + s) // d), (root - s) // d


def enumerate_short_vectors(
    lat: EuclideanLattice, bound, node_cap: int = DEFAULT_NODE_CAP
) -> ShortVectorReport:
    """All nonzero vectors of squared length <= bound, complete up to sign.

    Fincke-Pohst over the LLL-reduced basis, on integers only.  With L * G the
    reduced integer Gram matrix, `linalg.bareiss` gives its leading minors d_l
    and lambda_jl = d_(l+1) * mu_jl, and x has squared length
    sum_l (d_(l+1) x_l + s_l)^2 / (L d_l d_(l+1)), s_l = sum_(j>l) lambda_jl x_j.
    Times N = lcm_l L d_l d_(l+1) the term of level l is the integer
    w_l (d_(l+1) x_l + s_l)^2, w_l = N / (L d_l d_(l+1)), so the length is at
    most bound iff the sum is at most R = floor(bound * N).  At level l with
    budget R_l left, x_l is admissible iff (d_(l+1) x_l + s_l)^2 <= R_l // w_l
    (the square is an integer), which `_isqrt_range` solves exactly.  The
    top nonzero x_l is kept positive, so each +-pair is visited once."""
    bound = F(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    reduced, u = lll_reduce(lat)
    n = lat.rank
    gi, scale = reduced.scaled_gram()
    lam, _ = linalg.bareiss(gi)
    d = [1] + [lam[i][i] for i in range(n)]
    dens = [scale * d[l] * d[l + 1] for l in range(n)]
    big_n = math.lcm(*dens)
    w = [big_n // den for den in dens]
    r0 = bound.numerator * big_n // bound.denominator
    found: list[tuple[list[int], int]] = []  # (coords, N * squared length)
    x = [0] * n
    nodes = 0

    def recurse(level: int, rem: int, top_zero: bool, v: list[int]):
        # v = sum_(j>level) x_j u_j, the coordinates chosen so far
        nonlocal nodes
        s = sum(lam[j][level] * x[j] for j in range(level + 1, n))
        dl, wl = d[level + 1], w[level]
        lo, hi = _isqrt_range(s, dl, rem // wl)
        if top_zero:
            lo = max(lo, 0)
        if lo > hi:
            return
        nodes += hi - lo + 1
        if nodes > node_cap:
            raise EnumerationCapExceeded(node_cap)
        ul = u[level]
        if level:
            for xi in range(lo, hi + 1):
                x[level] = xi
                t = dl * xi + s
                child = [a + xi * b for a, b in zip(v, ul)] if xi else v
                recurse(level - 1, rem - wl * t * t, top_zero and not xi, child)
            x[level] = 0
            return
        for xi in range(lo, hi + 1):
            if top_zero and not xi:
                continue  # the zero vector
            t = dl * xi + s
            coords = [a + xi * b for a, b in zip(v, ul)]
            for c in coords:
                if c:
                    if c < 0:
                        coords = [-a for a in coords]
                    break
            found.append((coords, r0 - rem + wl * t * t))

    recurse(n - 1, r0, True, [0] * n)
    found.sort(key=lambda t: (t[1], t[0]))
    vectors = tuple((tuple(c), F(sq, big_n)) for c, sq in found)
    return ShortVectorReport(bound=bound, vectors=vectors)


def minimum_sq(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> Fraction:
    """Squared length of a shortest nonzero vector."""
    return _minimum_sq(lat, node_cap)


@lru_cache(maxsize=_MEMO_SIZE)
def _minimum_sq(lat: EuclideanLattice, node_cap: int) -> Fraction:
    # passing the cap positionally gives `minimum_sq(lat)` and
    # `minimum_sq(lat, DEFAULT_NODE_CAP)` one memo entry
    reduced, _ = lll_reduce(lat)
    gi, scale = reduced.scaled_gram()
    bound = Fraction(min(gi[i][i] for i in range(lat.rank)), scale)
    return enumerate_short_vectors(lat, bound, node_cap).vectors[0][1]


_HERMITE_POW = {
    1: F(1),
    2: F(4, 3),
    3: F(2),
    4: F(4),
    5: F(8),
    6: F(64, 3),
    7: F(64),
    8: F(256),
}


def hermite_constant_pow(r: int) -> Fraction:
    """gamma_r^r as an exact rational, known for r <= 8."""
    if r not in _HERMITE_POW:
        raise ValueError(f"Hermite constant is only tabulated for rank 1..8, got {r}")
    return _HERMITE_POW[r]


# ---------------------------------------------------------------------------
# Dense sublattice search.

def _first_independent_subset(pool: Sequence[tuple[int, ...]], k: int):
    rows: list[tuple[int, ...]] = []
    for v in pool:
        cand = rows + [v]
        if len(linalg.hnf(cand)) == len(cand):
            rows.append(v)
            if len(rows) == k:
                return rows
    return None


def densest_sublattice(
    lat: EuclideanLattice,
    k: int,
    det_budget,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[Sublattice]:
    """A saturated rank-k sublattice of minimal determinant within the search
    region defined by det_budget; None if the region is empty.

    The region is spanned by the vectors of squared length at most
    B = gamma_k^k * det_budget / min_sq^(k-1) for k <= 8, and
    B = 2^(k(k-1)/2) * det_budget / min_sq^(k-1) for k > 8, where gamma_k is
    not tabulated (see the module docstring for why each is complete).

    When det_budget is the determinant of any known rank-k sublattice, the
    region covers every rank-k sublattice of determinant <= det_budget, so the
    result is the global rank-k determinant minimum; among tied minima it is
    the one with the least HNF basis.
    """
    det_budget = F(det_budget)
    r = lat.rank
    if not 1 <= k <= r:
        raise ValueError(f"rank {k} out of range 1..{r}")
    if k == r:
        return lat.full_sublattice()
    min_sq = minimum_sq(lat, node_cap)
    gamma_pow = _HERMITE_POW.get(k)
    # Let M be an optimal saturated rank-k sublattice, so det M <= det_budget.
    # Its successive minima are each >= min_sq, and by Minkowski's second
    # theorem their product is <= gamma_k^k * det M, so every vector attaining
    # one has squared length <= b_sq below: all of them are in the pool.  The
    # same product bound, taken over the vectors chosen so far in increasing
    # norm, is the level pruning of the DFS.  For k <= 4 some basis of M
    # attains the successive minima (van der Waerden 1956; Nguyen-Stehle,
    # "Low-dimensional lattice basis reduction revisited", 2009), so the DFS
    # reaches that basis and its span determinant, det M, passes the leaf
    # test; so it does for every tied optimum, and the least-HNF tie is found
    # whatever the radius.  From k = 5 the minima need not span M
    # (Z^5 + 1/2(1,...,1) has minima e_1..e_5 of index 2), but any k
    # independent vectors of M saturate to M, so there the leaf is judged by
    # its saturation.  For k > 8 the pool holds an LLL-reduced basis of M,
    # whose squared norms have product <= 2^(k(k-1)/2) * det M.
    if gamma_pow is None:
        b_sq = F(2) ** (k * (k - 1) // 2) * det_budget / min_sq ** (k - 1)
    else:
        b_sq = gamma_pow * det_budget / min_sq ** (k - 1)
    span_is_basis = k <= 4 or gamma_pow is None
    if b_sq < min_sq:
        return None
    pool = [v for v, _ in enumerate_short_vectors(lat, b_sq, node_cap).vectors]
    if k == 1:
        return Sublattice(lat, [pool[0]])  # a shortest vector is primitive

    rows_indep = _first_independent_subset(pool, k)
    if rows_indep is None:
        return None
    incumbent = Sublattice(lat, rows_indep).saturation()
    # Everything below is scaled by L, the Gram denominator: inner products
    # L <v, w> are integers, and a rank-j Gram determinant is an integer over
    # L^j.  inc is the incumbent determinant times L^k.
    gi, scale = lat.scaled_gram()
    inc = (incumbent.det() * scale**k).numerator
    # HNF bases of the saturated sublattices found with determinant inc / L^k
    ties = {incumbent.basis}

    gv = [[sum(map(mul, row, v)) for row in gi] for v in pool]
    lnorm = [sum(map(mul, v, g)) for v, g in zip(pool, gv)]
    b_lim = math.floor(b_sq * scale)
    # With m vectors chosen, of scaled norm product prod, the Minkowski bound on
    # the next norm is gamma_k^k * det / (prod / L^m * min_sq^(k-m-1)); times L
    # that is coef[m] * inc / prod.
    coef = None if gamma_pow is None else [
        gamma_pow * F(scale) ** (m + 1 - k) / min_sq ** (k - m - 1) for m in range(k)
    ]

    def level_limit(m: int, prod: int) -> int:
        # A pool vector (sorted by norm) is a candidate iff L * norm, an
        # integer, is at most the floor of L * min(Minkowski bound, b_sq).
        if coef is None:
            return b_lim
        c = coef[m]
        return min(c.numerator * inc // (c.denominator * prod), b_lim)

    # The path of chosen pool indices carries its integral Gram-Schmidt data
    # (Cohen, A Course in Computational Algebraic Number Theory, 2.6.7):
    # ds[j] is the scaled Gram determinant of the first j chosen vectors and
    # lams[j][i] = ds[i + 1] * mu_ji.  A candidate's row against the path then
    # gives its determinant with the path in O(m^2), all divisions exact.
    path: list[int] = []
    lams: list[list[int]] = []
    ds = [1]
    m_pool = len(pool)
    nodes = 0

    def dfs(start: int, prod: int):
        nonlocal inc, ties, nodes
        m = len(path)
        limit = level_limit(m, prod)
        for idx in range(start, m_pool):
            nodes += 1
            if nodes > node_cap:
                raise EnumerationCapExceeded(node_cap)
            if lnorm[idx] > limit:
                break  # pool sorted by norm
            g = gv[idx]
            row: list[int] = []
            for j in range(m + 1):
                if j < m:
                    t, lam_j = sum(map(mul, pool[path[j]], g)), lams[j]
                else:  # the last entry is the Gram determinant with the path
                    t, lam_j = lnorm[idx], row
                for i in range(j):
                    t = (ds[i + 1] * t - row[i] * lam_j[i]) // ds[i]
                row.append(t)
            dm = row.pop()
            if dm == 0:
                continue
            if m + 1 < k:
                path.append(idx)
                lams.append(row)
                ds.append(dm)
                dfs(idx + 1, prod * lnorm[idx])
                path.pop()
                lams.pop()
                ds.pop()
                continue
            if span_is_basis and dm > inc:
                continue
            # the saturation's det is the span's over [saturation : span]^2
            index, rows = linalg.saturate([pool[i] for i in path] + [pool[idx]])
            index_sq = index**2
            if dm > inc * index_sq:
                continue
            sat = linalg.hnf(rows)
            if dm < inc * index_sq:
                inc, ties = dm // index_sq, {sat}
                limit = level_limit(m, prod)
            else:
                ties.add(sat)

    dfs(0, 1)
    return Sublattice(lat, min(ties))


# ---------------------------------------------------------------------------
# mu_max / slope filtration.

def _greedy_rank_k_det(lat: EuclideanLattice, k: int) -> tuple[Fraction, Sublattice]:
    """Cheap incumbent: best k-subset of an LLL-reduced basis.  A subset of a
    basis is saturated, so it needs no saturation, and its determinant is a
    principal minor of the reduced Gram matrix, so only the winner becomes a
    Sublattice."""
    from itertools import combinations

    reduced, u = lll_reduce(lat)
    gi, scale = reduced.scaled_gram()
    best = None
    for subset in combinations(range(lat.rank), k):
        d = linalg.det_int([[gi[i][j] for j in subset] for i in subset])
        if best is None or d < best[0]:
            best = (d, subset)
    d, subset = best
    return F(d, scale**k), Sublattice(lat, [u[i] for i in subset])


def _min_det_rank_k(
    lat: EuclideanLattice, k: int, node_cap: int, cap: Optional[Fraction] = None
) -> tuple[Fraction, Sublattice]:
    """Global minimal determinant over rank-k sublattices, with witness.

    With a cap the search covers only determinants <= cap: if none is that
    small, the greedy incumbent comes back with its determinant, above cap,
    and every rank-k determinant exceeds cap."""
    r = lat.rank
    if k == r:
        return lat.det(), lat.full_sublattice()
    if k > r - k:
        # Rankin duality: d_k(L) = det(L) * d_{r-k}(dual L)
        dual_cap = None if cap is None else cap / lat.det()
        ddet, dwit = _min_det_rank_k(lat.dual(), r - k, node_cap, dual_cap)
        ann = linalg.int_kernel_saturated(dwit.basis, r)
        wit = Sublattice(lat, ann)
        det_k = wit.det()
        expected = lat.det() * ddet
        if det_k != expected:
            raise AssertionError("Rankin duality mismatch: annihilator witness is not optimal")
        return det_k, wit
    greedy = _greedy_rank_k_det(lat, k)
    budget = greedy[0] if cap is None else min(greedy[0], cap)
    sub = densest_sublattice(lat, k, budget, node_cap)
    if sub is None or (det_k := sub.det()) > budget:
        return greedy
    return det_k, sub


def _root_ceil(q: Fraction, n: int) -> Fraction:
    """c / b >= q^(1/n) for q = a / b in lowest terms, with c the least
    integer such that c^n >= a * b^(n-1): then (c / b)^n >= a / b."""
    if n == 1:
        return q
    a, b = q.numerator, q.denominator
    t = a * b ** (n - 1)
    c = _iroot(t, n)
    return F(c + (c**n < t), b)


def _minkowski_floors(lat: EuclideanLattice, node_cap: int) -> list[Optional[Fraction]]:
    """floors[k] <= d_k(L), the least rank-k determinant, for 0 < k < r; None
    where no floor is known.  A saturated rank-k M has minimum >= min_sq(L)
    and min(M)^k <= gamma_k^k * det M (Hermite), so
    d_k >= min_sq(L)^k / gamma_k^k.  Its annihilator in the dual L* has rank
    r - k, minimum >= min_sq(L*) and determinant det M / det L, so likewise
    d_k >= det L * min_sq(L*)^(r-k) / gamma_(r-k)^(r-k).  The larger floor is
    kept; each is exact where its gamma is gamma_1 = 1, at k = 1 and k = r - 1.
    The dual floor is taken from r = 3 on: at r = 2 the first is already exact
    at the one proper rank.  A node cap hit in either minimum drops only the
    floors that need it."""
    r = lat.rank
    floors: list[Optional[Fraction]] = [None] * r
    try:
        m = minimum_sq(lat, node_cap)
        for k in range(1, min(r, 9)):
            floors[k] = m**k / _HERMITE_POW[k]
    except EnumerationCapExceeded:
        pass
    if r < 3:
        return floors
    det = lat.det()
    try:
        m = minimum_sq(lat.dual(), node_cap)
    except EnumerationCapExceeded:
        return floors
    for k in range(max(1, r - 8), r):
        f = det * m ** (r - k) / _HERMITE_POW[r - k]
        if floors[k] is None or f > floors[k]:
            floors[k] = f
    return floors


def _lattice_canopy(
    lat: EuclideanLattice, node_cap: int, edges: Optional[int] = None
) -> list[RankBound]:
    """The exact maximal degree -1/2 log d_k(L) of each rank k, which is its
    own upper bound; the full rank needs no search.  Ranks from the first
    whose search exceeds the node cap have no degree and the integrality
    bound k/2 log L, L the Gram denominator: L * G is integral, so a rank-k
    Gram has det >= L^-k (0 for an integral lattice).  If det(L * G) = 1 no
    rank is searched: det G = L^-r puts every rank's bound on the line from
    the origin to the rank-r point, so the lattice is semistable.  That covers
    the unimodular lattices (L = 1) and their rational rescalings.

    With edges=1 (`mu_max`, which reads only the first edge) the search is
    bound-first.  (k0, d0) is the exact rank of greatest slope so far, mu0 its
    slope, starting from (r, det L); it moves to an exact rank k whenever
    d_k^k0 < d0^k.  F_k is the larger Minkowski floor of `_minkowski_floors`.
    Every comparison is between Fractions.

    - Skip: if F_k^k0 > d0^k, rank k is not searched.  Every rank-k
      determinant is >= F_k > d0^(k/k0), so every rank-k degree is below
      k * mu0, its recorded upper bound, and mu0 never exceeds the final
      first edge's slope.
    - Cap: otherwise rank k is searched only for determinants
      <= C_k = `_root_ceil`(d0^k, k0) >= d0^(k/k0).  If the search finds
      none, every rank-k determinant exceeds C_k, so every rank-k degree is
      again below k * mu0; the greedy incumbent is kept as a lower point,
      strictly below that line.  A rank-k sublattice of slope mu0 has
      determinant d0^(k/k0) <= C_k, so ties with the best slope are still
      found, and the first edge still ends at the largest rank of maximal
      slope.

    So a skipped or capped rank never holds a point on or above the first
    edge, and its upper bound never lies above it: wherever the full search
    certifies, the first edge, its witness and the flag are unchanged.
    Ranks skipped after a node cap take the same upper bound."""
    r = lat.rank
    scale = lat.scaled_gram()[1]
    # no rank is searched once one hits the node cap, nor any if det(L * G) = 1
    capped = lat.det() * scale**r == 1
    bound_first = edges == 1 and not capped
    floors = _minkowski_floors(lat, node_cap) if bound_first else [None] * r
    deg_r, half_log_scale = lat.degree(), half_log(scale)
    k0, d0, mu0 = r, lat.det(), deg_r / r
    canopy: list[RankBound] = []
    for k in range(1, r):
        d0k = d0**k
        if floors[k] is not None and floors[k] ** k0 > d0k:
            canopy.append(RankBound(None, None, k * mu0))
            continue
        if not capped:
            cap = _root_ceil(d0k, k0) if bound_first else None
            try:
                det_k, wit = _min_det_rank_k(lat, k, node_cap, cap)
            except EnumerationCapExceeded:
                capped = True
        if capped:
            canopy.append(RankBound(None, None, k * half_log_scale))
            continue
        deg = -half_log(det_k)
        if cap is not None and det_k > cap:
            canopy.append(RankBound(deg, wit, k * mu0))
            continue
        canopy.append(RankBound(deg, wit, deg))
        if det_k**k0 < d0k:
            k0, d0, mu0 = k, det_k, deg / k
    canopy.append(RankBound(deg_r, lat.full_sublattice(), deg_r))
    return canopy


def mu_max(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> CertifiedMuMax:
    """Certified supremum of slopes over nonzero sublattices: the first edge
    of the slope polygon, whose witness is the largest sublattice of maximal
    slope.  Searched bound-first (see `_lattice_canopy`)."""
    poly = upper_hull(_lattice_canopy(lat, node_cap, edges=1), edges=1)
    (_, (k, deg)) = poly.hull
    value = deg / k
    if poly.certified and lat.is_integral() and value.sign() > 0:
        raise AssertionError("integral lattice reported positive mu_max")
    return CertifiedMuMax(value=value, witness=poly.filtration[0], certified=poly.certified)


def mu_min(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> LogRational:
    """mu_min(L) = -mu_max(dual L)."""
    res = mu_max(lat.dual(), node_cap)
    if not res.certified:
        raise EnumerationCapExceeded(node_cap)
    return -res.value


def is_semistable(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    res = mu_max(lat, node_cap)
    if not res.certified:
        raise EnumerationCapExceeded(node_cap)
    return res.value == lat.slope()


def slope_filtration(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> SlopePolygon:
    """The maximal degree at each rank, their upper convex hull, and the
    canonical chain of saturated witnesses at the hull vertices.  Uncertified
    when a search exceeds the node cap, unless the integrality bound of the
    capped ranks lies on or below the hull; the rank-r point is always there."""
    poly = upper_hull(_lattice_canopy(lat, node_cap))
    chain = poly.filtration
    if poly.certified and not all(b.contains(a) for a, b in zip(chain, chain[1:])):
        raise AssertionError("hull witnesses failed to form a chain")
    return poly


def minkowski_check(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """For lattices of minimum >= 1: exact check vol >= r^(-r/2), i.e.
    det * r^r >= 1 (the hypercube weakening of Minkowski's bound)."""
    if minimum_sq(lat, node_cap) < 1:
        raise ValueError("minkowski_check requires minimum_sq >= 1")
    r = lat.rank
    return lat.det() * F(r) ** r >= 1

