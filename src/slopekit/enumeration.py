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

So the branch-and-bound is complete.  Exceeding a resource cap yields an
uncertified result, never a silent wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .exactval import LogRational, half_log
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
    search_bound: Fraction
    certified: bool


@dataclass(frozen=True)
class SlopePolygon:
    points: tuple[tuple[int, LogRational], ...]  # (rank, max degree at that rank)
    hull: tuple[tuple[int, LogRational], ...]  # upper-hull vertices incl. (0, 0)
    filtration: tuple[Sublattice, ...]
    certified: bool

    def quotient_slopes(self) -> tuple[LogRational, ...]:
        out = []
        for (k0, d0), (k1, d1) in zip(self.hull, self.hull[1:]):
            out.append((d1 - d0) / (k1 - k0))
        return tuple(out)


# ---------------------------------------------------------------------------
# LLL reduction on exact Gram matrices.

_lll_cache: dict = {}


def _gso(g: list[list[Fraction]]):
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


def lll_reduce(lat: EuclideanLattice, delta: Fraction = F(3, 4)):
    """LLL-reduce; returns (reduced lattice, unimodular U) with G' = U G U^T."""
    key = (lat.gram, delta)
    if key in _lll_cache:
        return _lll_cache[key]
    n = lat.rank
    g = [list(row) for row in lat.gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # b_i -= q b_j
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        for t in range(n):
            g[i][t] -= q * g[j][t]
        for t in range(n):
            g[t][i] -= q * g[t][j]

    def swap(i, j):
        u[i], u[j] = u[j], u[i]
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    k = 1
    while k < n:
        mu, b = _gso(g)
        for j in reversed(range(k)):
            q = round(mu[k][j])
            if q != 0:
                row_op(k, j, q)
                # b_k -= q b_j keeps every b*_i, so only mu[k][0..j] moves
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            k += 1
        else:
            swap(k, k - 1)
            k = max(k - 1, 1)
    result = (
        EuclideanLattice(g),
        tuple(tuple(row) for row in u),
    )
    _lll_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# Fincke-Pohst traversal.

def _int_range_bounds(c: Fraction, q: Fraction) -> tuple[int, int]:
    """Integers x with (x + c)^2 <= q (q >= 0): inclusive [lo, hi], empty if lo > hi."""
    if q < 0:
        return 0, -1
    s = linalg.sqrt_frac_upper(q)
    lo = math.ceil(-c - s)
    hi = math.floor(-c + s)
    while lo <= hi and (lo + c) ** 2 > q:
        lo += 1
    while hi >= lo and (hi + c) ** 2 > q:
        hi -= 1
    return lo, hi


def enumerate_short_vectors(
    lat: EuclideanLattice, bound, node_cap: int = DEFAULT_NODE_CAP
) -> ShortVectorReport:
    """All nonzero vectors of squared length <= bound, complete up to sign."""
    bound = F(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    reduced, u = lll_reduce(lat)
    n = lat.rank
    g = [list(row) for row in reduced.gram]
    mu, b = _gso(g)
    found: dict[tuple[int, ...], Fraction] = {}
    x = [0] * n
    nodes = 0

    def recurse(level: int, remaining: Fraction, top_zero: bool):
        nonlocal nodes
        if level < 0:
            if any(x):
                coords = tuple(
                    sum(x[i] * u[i][j] for i in range(n)) for j in range(n)
                )
                for c in coords:
                    if c != 0:
                        if c < 0:
                            coords = tuple(-t for t in coords)
                        break
                found[coords] = bound - remaining
            return
        c = sum(mu[j][level] * x[j] for j in range(level + 1, n))
        lo, hi = _int_range_bounds(c, remaining / b[level])
        if top_zero:
            lo = max(lo, 0)
        for xi in range(lo, hi + 1):
            nodes += 1
            if nodes > node_cap:
                raise EnumerationCapExceeded(node_cap)
            x[level] = xi
            used = b[level] * (xi + c) ** 2
            recurse(level - 1, remaining - used, top_zero and xi == 0)
        x[level] = 0

    recurse(n - 1, bound, True)
    vectors = sorted(found.items(), key=lambda t: (t[1], t[0]))
    return ShortVectorReport(bound=bound, vectors=tuple(vectors))


_minsq_cache: dict = {}


def minimum_sq(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> Fraction:
    """Squared length of a shortest nonzero vector."""
    if lat.gram in _minsq_cache:
        return _minsq_cache[lat.gram]
    reduced, _ = lll_reduce(lat)
    bound = min(reduced.gram[i][i] for i in range(lat.rank))
    report = enumerate_short_vectors(lat, bound, node_cap)
    out = report.vectors[0][1]
    _minsq_cache[lat.gram] = out
    return out


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
        if linalg.rank(linalg.mat(cand)) == len(cand):
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
    pool_report = enumerate_short_vectors(lat, b_sq, node_cap)
    pool = [v for v, _ in pool_report.vectors]
    norms = [sq for _, sq in pool_report.vectors]
    if k == 1:
        best = Sublattice(lat, [pool[0]]).saturation()
        return best

    rows_indep = _first_independent_subset(pool, k)
    if rows_indep is None:
        return None
    incumbent = Sublattice(lat, rows_indep).saturation()
    incumbent_det = incumbent.det()
    # HNF bases of the saturated sublattices found with determinant incumbent_det
    ties = {incumbent.basis}

    # integer-scaled inner products for speed
    gi, scale = lat.scaled_gram()
    dots: dict[tuple[int, int], int] = {}

    def sdot(i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        key = (i, j)
        if key not in dots:
            vi, vj = pool[i], pool[j]
            giv = [sum(gi[a][b] * vj[b] for b in range(r)) for a in range(r)]
            dots[key] = sum(vi[a] * giv[a] for a in range(r))
        return dots[key]

    m_pool = len(pool)
    nodes = 0

    def norm_level_bound(prod_so_far: Fraction, chosen: int) -> Fraction:
        # Minkowski: prod of all k successive minima squared <= gamma_k^k * det
        if gamma_pow is None:
            return b_sq
        d = incumbent_det
        bound = gamma_pow * d / (prod_so_far * min_sq ** (k - chosen - 1))
        return min(bound, b_sq)

    def dfs(start: int, chosen: list[int], prod_so_far: Fraction):
        nonlocal incumbent_det, ties, nodes
        level_bound = norm_level_bound(prod_so_far, len(chosen))
        for idx in range(start, m_pool):
            nodes += 1
            if nodes > node_cap:
                raise EnumerationCapExceeded(node_cap)
            if norms[idx] > level_bound:
                break  # pool sorted by norm
            cand = chosen + [idx]
            d = linalg.det_int([[sdot(i, j) for j in cand] for i in cand])
            if d == 0:
                continue
            if len(cand) < k:
                dfs(idx + 1, cand, prod_so_far * norms[idx])
                continue
            if span_is_basis and F(d, scale**k) > incumbent_det:
                continue
            # saturate as linalg.saturation_basis does; the saturation's det is
            # the span's over [saturation : span]^2, and that index is the
            # product of the elementary divisors
            diag, cinv = linalg.diagonalize_int([pool[i] for i in cand])
            sdet = F(d, scale**k * math.prod(diag[i][i] for i in range(k)) ** 2)
            if sdet > incumbent_det:
                continue
            sat = linalg.hnf(cinv[:k])
            if sdet < incumbent_det:
                incumbent_det, ties = sdet, {sat}
                level_bound = norm_level_bound(prod_so_far, len(chosen))
            else:
                ties.add(sat)

    dfs(0, [], F(1))
    return Sublattice(lat, min(ties))


# ---------------------------------------------------------------------------
# mu_max / slope filtration.

def _greedy_rank_k_det(lat: EuclideanLattice, k: int) -> tuple[Fraction, Sublattice]:
    """Cheap incumbent: best k-subset of an LLL-reduced basis.  A subset of a
    basis is saturated, and its determinant is a principal minor of the
    reduced Gram matrix, so only the winner becomes a Sublattice."""
    from itertools import combinations

    reduced, u = lll_reduce(lat)
    gi, scale = reduced.scaled_gram()
    best = None
    for subset in combinations(range(lat.rank), k):
        d = linalg.det_int([[gi[i][j] for j in subset] for i in subset])
        if best is None or d < best[0]:
            best = (d, subset)
    d, subset = best
    return F(d, scale**k), Sublattice(lat, [u[i] for i in subset]).saturation()


def _min_det_rank_k(lat: EuclideanLattice, k: int, node_cap: int) -> tuple[Fraction, Sublattice]:
    """Global minimal determinant over rank-k sublattices, with witness."""
    r = lat.rank
    if k == r:
        return lat.det(), lat.full_sublattice()
    if k > r - k:
        # Rankin duality: d_k(L) = det(L) * d_{r-k}(dual L)
        ddet, dwit = _min_det_rank_k(lat.dual(), r - k, node_cap)
        ann = linalg.int_kernel_saturated(dwit.basis, r)
        wit = Sublattice(lat, ann)
        det_k = wit.det()
        expected = lat.det() * ddet
        if det_k != expected:
            raise AssertionError("Rankin duality mismatch: annihilator witness is not optimal")
        return det_k, wit
    budget, seed = _greedy_rank_k_det(lat, k)
    sub = densest_sublattice(lat, k, budget, node_cap)
    if sub is None or (det_k := sub.det()) > budget:
        return budget, seed
    return det_k, sub


def mu_max(
    lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP, fast_path: bool = True
) -> CertifiedMuMax:
    """Certified supremum of slopes over nonzero sublattices."""
    r = lat.rank
    if fast_path and lat.is_unimodular():
        return CertifiedMuMax(
            value=LogRational(0),
            witness=lat.full_sublattice(),
            search_bound=F(0),
            certified=True,
        )
    best_slope = lat.slope()
    best_witness = lat.full_sublattice()
    certified = True
    max_bound = F(0)
    integral = lat.is_integral()
    try:
        for k in range(1, r):
            det_k, wit = _min_det_rank_k(lat, k, node_cap)
            slope_k = -half_log(det_k) / k
            max_bound = max(max_bound, det_k)
            cmp = (slope_k - best_slope).sign()
            if cmp > 0 or (cmp == 0 and wit.rank > best_witness.rank):
                best_slope, best_witness = slope_k, wit
    except EnumerationCapExceeded:
        certified = False
    if integral and certified and best_slope.sign() > 0:
        raise AssertionError("integral lattice reported positive mu_max")
    return CertifiedMuMax(
        value=best_slope, witness=best_witness, search_bound=max_bound, certified=certified
    )


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
    """Max-degree points per rank, their upper convex hull, and the canonical
    chain of saturated witnesses realizing the hull vertices."""
    r = lat.rank
    points: list[tuple[int, LogRational]] = []
    witnesses: dict[int, Sublattice] = {}
    certified = True
    try:
        for k in range(1, r + 1):
            det_k, wit = _min_det_rank_k(lat, k, node_cap)
            points.append((k, -half_log(det_k)))
            witnesses[k] = wit
    except EnumerationCapExceeded:
        certified = False
    hull: list[tuple[int, LogRational]] = [(0, LogRational(0))]
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            x2, y2 = pt
            # pop unless slope strictly decreases at the middle point
            lhs = (y1 - y0) * (x2 - x1)
            rhs = (y2 - y1) * (x1 - x0)
            if (lhs - rhs).sign() <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    chain = [witnesses[k] for k, _ in hull[1:] if k in witnesses]
    for a, b in zip(chain, chain[1:]):
        if not b.contains(a):
            raise AssertionError("hull witnesses failed to form a chain")
    return SlopePolygon(
        points=tuple(points), hull=tuple(hull), filtration=tuple(chain), certified=certified
    )


def minkowski_check(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """For lattices of minimum >= 1: exact check vol >= r^(-r/2), i.e.
    det * r^r >= 1 (the hypercube weakening of Minkowski's bound)."""
    if minimum_sq(lat, node_cap) < 1:
        raise ValueError("minkowski_check requires minimum_sq >= 1")
    r = lat.rank
    return lat.det() * F(r) ** r >= 1

