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
rank of maximal slope is kept.  Ranks 1 and r - 1, where a floor is exact
(gamma_1 = 1), are read off the shortest vectors of L and L* with no search,
in `mu_max` and `slope_filtration` alike (see `_min_det_rank_k`).

Both slope categories read mu_max off what they know at each rank through
`first_edge`, as one `CertifiedMuMax`, and build the canonical filtration
as first edges of quotients in `quotient_polygon`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
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
    """The first edge of a slope polygon (see `first_edge`), for lattices
    (LogRational slopes, a Sublattice witness) and multifiltered spaces
    (Fraction slopes, RREF rows): every slope is at most `upper`, which is
    `value` when certified.  Certified proves `value` and `upper`, and the
    witness's slope, not always that it is the largest (see `first_edge`);
    for a multifiltered space of dimension at most 3, whose canopy is
    exact, and for one whose certificate passed (`multifilt._mf_canopy`),
    it is the largest."""

    value: Any
    witness: Any
    upper: Any
    certified: bool


@dataclass(frozen=True)
class SlopePolygon:
    """A slope polygon by its vertices (see `quotient_polygon`); degrees are
    LogRationals for lattices and Fractions for multifiltered spaces."""

    hull: tuple[tuple[int, Any], ...]  # vertices (rank, degree) from (0, 0)
    filtration: tuple[Any, ...]  # witnesses at the certified vertices after (0, 0)
    certified: bool

    def quotient_slopes(self) -> tuple[LogRational, ...]:
        return tuple((d1 - d0) / (k1 - k0) for (k0, d0), (k1, d1) in zip(self.hull, self.hull[1:]))


# ---------------------------------------------------------------------------
# The slope polygon of any category: first edges of quotients.

class RankBound(NamedTuple):
    """What a slope category knows at one rank k: the greatest degree it found
    among rank-k subobjects, with that subobject as witness (both None if it
    found none), and an upper bound on every rank-k degree.  A list of these
    for k = 1..r is a canopy; its last entry, the whole object, has a lower
    degree."""

    lower: Any
    witness: Any
    upper: Any


def first_edge(canopy: Sequence[RankBound]) -> CertifiedMuMax:
    """mu_max of any slope category, read off its canopy: the first edge of
    the upper convex hull of the origin and the points (k, lower_k), ending
    at the point (k1, y1) of greatest slope, the largest rank among ties,
    with that rank's witness.  Every rank-k degree lies in [lower_k,
    upper_k], so every slope is at most `upper`, the largest upper_k / k.
    Certified iff upper_k * k1 <= y1 * k for every k: no slope then exceeds
    mu = y1 / k1, which the witness attains, and `upper` is mu.  An exact
    rank (upper_k == lower_k) passes without a comparison.  The witness is
    the largest subobject of slope mu unless a rank above k1 kept only a
    bound on the edge's line, under which a subobject of slope mu may lie;
    an exact canopy keeps no such rank."""
    pts = [(k, b) for k, b in enumerate(canopy, 1) if b.lower is not None]
    k1, edge = pts[0]
    for k, b in pts[1:]:
        if b.lower * k1 >= edge.lower * k:
            k1, edge = k, b
    certified = True
    for k, b in enumerate(canopy, 1):
        if b.upper != b.lower:
            if b.lower is not None and b.upper < b.lower:
                raise AssertionError(f"rank-{k} upper bound fell below an exact degree")
            certified = certified and not b.upper * k1 > edge.lower * k
    value = edge.lower / k1
    upper = value if certified else max(b.upper / k for k, b in enumerate(canopy, 1))
    return CertifiedMuMax(value, edge.witness, upper, certified)


def quotient_polygon(obj, top, stage, quotient, rank_of) -> SlopePolygon:
    """The canonical filtration of obj, of (rank, degree) `top`, and its
    polygon, as first edges of quotients (Stuhler 1976, Grayson 1984).
    stage(q) is the `CertifiedMuMax` of q, obj first; quotient(W) is
    (obj/W, lift), lift taking a subobject of obj/W to its preimage in obj.

    A stage of value mu and witness X on obj/W, W at the vertex (k, d), adds
    the vertex (k + rk X, d + rk X * mu) of the lift of X, the degree being
    additive.  Merge rule: if the stage before had value mu' and witness W/V
    on obj/V, any U in obj/W lifts to one of obj/V of degree
    deg(W/V) + deg U <= mu' (rk(W/V) + rk U), so mu <= mu'.  At mu = mu', W
    was not the largest of slope mu' and the new vertex replaces its one; so
    the chain over V grows up to the sum of the subobjects of obj/V of slope
    mu' (one of them, deg being supermodular), and the next slope is lower.
    A witness thus need only have maximal slope (see `first_edge`).  The
    loop stops at the first uncertified stage, with the certified vertices
    and the rank-r point."""
    hull, chain, last = [(0, top[1] * 0)], [], None
    q, lift = obj, None
    while True:
        res = stage(q)
        if not res.certified:
            return SlopePolygon(tuple(hull) + (top,), tuple(chain), False)
        (k, deg), k1 = hull[-1], rank_of(res.witness)
        if res.value == last:
            del hull[-1], chain[-1]
        hull.append((k + k1, deg + res.value * k1))
        chain.append(lift(res.witness) if lift else res.witness)
        if k + k1 == top[0]:
            return SlopePolygon(tuple(hull), tuple(chain), True)
        q, lift = quotient(chain[-1])
        last = res.value


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
    G' = U G U^T.  Integral LLL (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7) on the integer Gram matrix L * G: the leading
    minors d_j and lambda_kj = d_(j+1) * mu_kj start as the lattice's own
    record of them (`_GramPair._gso`) and are kept current for every row by
    size reduction and by exact divisions on a swap.  Each mu_kj,
    j = k-1 .. 0, is rounded with ties to even before the Lovasz test.  The
    final d and lambda are the reduced lattice's record, handed over, and
    the reduced lattice is law-built: G' = U G U^T with U unimodular is
    positive definite (congruent to G) with det G' = det G, so no
    elimination runs.

    Memoized: lattices hash and compare by their Gram matrix."""
    n = lat.rank
    gi, scale = lat.scaled_gram()
    g = [list(row) for row in gi]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # d[j]: the leading j x j minor; lam[i][j] = d[j+1] * mu_ij for j < i
    d = [1] + [row[-1] for row in lat._gso]
    lam = [list(row[:-1]) for row in lat._gso]

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

    # Every row of d and lam is that of the current basis.  Size reduction of
    # b_k keeps every b*_i and d_i, so it moves row k of lambda alone; a swap
    # at k moves d_k, rows k-1 and k, and columns k-1 and k of every row
    # below, by the exact formulas below.  So each row equals the one computed
    # afresh from the current Gram when k first reaches it, and every mu,
    # swap, U and reduced Gram is that of the reduction computing it then.
    k = 1
    while k < n:
        lk = lam[k]
        for j in reversed(range(k)):
            # round(mu_kj) = round(lk[j] / d[j+1]), ties to even
            dj = d[j + 1]
            q, rem = divmod(lk[j], dj)
            if 2 * rem > dj or (2 * rem == dj and q & 1):
                q += 1
            if q:
                row_op(k, j, q)
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
                lk[j] -= q * dj
        # Lovasz, B_k >= (3/4 - mu_k,k-1^2) B_(k-1), times 4 d_k d_(k-1) > 0
        lkk = lk[k - 1]
        if 4 * (d[k + 1] * d[k - 1] + lkk * lkk) >= 3 * d[k] ** 2:
            k += 1
            continue
        swap(k, k - 1)
        # lambda_k,k-1 is unchanged; the columns below k-1 trade rows
        lam[k - 1], lam[k] = lk[: k - 1], lam[k - 1] + [lkk]
        b = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (b * t + lkk * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    # G' = U G U^T with det U = +-1, so det G' = det G and the degrees agree;
    # the content of g is that of L * G, so the pair (g, L) is least as given
    gso = tuple(tuple(lam[i]) + (d[i + 1],) for i in range(n))
    reduced = EuclideanLattice._new(None, g, scale, det=lat.det(), gso=gso)
    return reduced._by_law((1, lat)), tuple(map(tuple, u))


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
    reduced integer Gram matrix, the record `lll_reduce` handed to the
    reduced lattice (its `_gso`) gives its leading minors d_l and
    lambda_jl = d_(l+1) * mu_jl, with no elimination, and x has squared length
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
    _, scale = reduced.scaled_gram()
    lam = reduced._gso
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
    return _minimum_sq(lat, node_cap)[1]


@lru_cache(maxsize=_MEMO_SIZE)
def _minimum_sq(lat: EuclideanLattice, node_cap: int) -> tuple[tuple[int, ...], Fraction]:
    """(coords, squared length) of the first vector of the enumeration up to
    the least diagonal entry of the LLL-reduced Gram: a shortest vector, the
    least coordinate tuple among them (with its first nonzero positive).  Any
    enumeration with a bound >= min_sq starts with this same vector.

    Passing the cap positionally gives `minimum_sq(lat)` and
    `minimum_sq(lat, DEFAULT_NODE_CAP)` one memo entry."""
    reduced, _ = lll_reduce(lat)
    gi, scale = reduced.scaled_gram()
    bound = Fraction(min(gi[i][i] for i in range(lat.rank)), scale)
    return enumerate_short_vectors(lat, bound, node_cap).vectors[0]


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

def densest_sublattice(
    lat: EuclideanLattice,
    k: int,
    det_budget,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[Sublattice]:
    """Among the saturated rank-k sublattices of determinant <= det_budget,
    the one of least determinant, and among tied minima the one with the
    least HNF basis; None if no rank-k determinant is <= det_budget.

    The DFS branches over the vectors of squared length at most
    B = gamma_k^k * det_budget / min_sq^(k-1) for k <= 8, and
    B = 2^(k(k-1)/2) * det_budget / min_sq^(k-1) for k > 8, where gamma_k is
    not tabulated (see the module docstring for why each is complete), and
    prunes by det_budget until it finds a determinant below it.
    """
    det_budget = F(det_budget)
    r = lat.rank
    if not 1 <= k <= r:
        raise ValueError(f"rank {k} out of range 1..{r}")
    if k == r:
        return lat.full_sublattice() if lat.det() <= det_budget else None
    min_sq = minimum_sq(lat, node_cap)
    gamma_pow = _HERMITE_POW.get(k)
    # Let M be a saturated rank-k sublattice with det M <= det_budget.  Its
    # successive minima are each >= min_sq, and by Minkowski's second
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

    # Everything below is scaled by L, the Gram denominator: inner products
    # L <v, w> are integers, and a rank-j Gram determinant is an integer over
    # L^j.  inc bounds the determinant times L^k: first the budget's floor,
    # then the least found.  A saturated M with det M <= det_budget has
    # det M * L^k <= inc, since that product is an integer, so the level
    # pruning and the leaf tests keep M and every tie with it.
    gi, scale = lat.scaled_gram()
    inc = math.floor(det_budget * scale**k)
    # HNF bases of the saturated sublattices found with determinant inc / L^k
    ties = set()

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
    # every tie's saturation has the least determinant, inc / L^k
    return Sublattice(lat, min(ties))._proved_det(F(inc, scale**k)) if ties else None


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
    and every rank-k determinant exceeds cap.  At k = 1 nothing is searched
    and the cap is not read: d_1 = min_sq comes back with a shortest vector
    as witness, above the cap if min_sq is.  At k = r - 1 the Rankin branch
    below reaches k = 1 on the dual, so there too d_(r-1) is exact whatever
    the cap."""
    r = lat.rank
    if k == r:
        return lat.det(), lat.full_sublattice()
    if k == 1:
        # The search returned pool[0], the first vector of the enumeration
        # sorted by (length, coords) up to the budget; every such enumeration
        # with a bound >= min_sq starts with the memo's vector.  So the result
        # differs only when a cap below min_sq empties the pool: the search
        # then returned the greedy vector, here the exact minimum comes back,
        # above the cap all the same.  `_lattice_canopy` never meets that
        # case: the exact floor at k = 1 skips the rank first.  A node cap
        # raises from this same minimum as it did from the search.
        coords, min_sq = _minimum_sq(lat, node_cap)
        return min_sq, Sublattice(lat, [coords])  # a shortest vector is primitive
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
    if sub is None:
        return greedy
    return sub.det(), sub


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
    There `_min_det_rank_k` reads d_k off the same memoized minima and their
    shortest vectors, so those ranks are never searched.  The dual floor is
    taken from r = 3 on: at r = 2 the first is already exact at the one
    proper rank.  A node cap hit in either minimum drops only the floors that
    need it."""
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


def _lattice_canopy(lat: EuclideanLattice, node_cap: int) -> list[RankBound]:
    """The exact maximal degree -1/2 log d_k(L) of each rank k, which is its
    own upper bound; the full rank needs no search.  Ranks from the first
    whose search exceeds the node cap have no degree and the integrality
    bound k/2 log L, L the Gram denominator: L * G is integral, so a rank-k
    Gram has det >= L^-k (0 for an integral lattice).  If det(L * G) = 1 no
    rank is searched: det G = L^-r puts every rank's bound on the line from
    the origin to the rank-r point, so the lattice is semistable.  That covers
    the unimodular lattices (L = 1) and their rational rescalings.

    The search is bound-first, for `mu_max`, which reads only the first edge.
    (k0, d0) is the exact rank of greatest slope so far, mu0 its slope,
    starting from (r, det L); it moves to an exact rank k whenever
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
    edge, and its upper bound never lies above it: wherever a full search
    certifies, the first edge, its witness and the flag are the same.  Ranks
    skipped after a node cap take the integrality bound (see `first_edge`)."""
    r = lat.rank
    scale = lat.scaled_gram()[1]
    # no rank is searched once one hits the node cap, nor any if det(L * G) = 1
    capped = lat.det() * scale**r == 1
    floors = [None] * r if capped else _minkowski_floors(lat, node_cap)
    deg_r, half_log_scale = lat.degree(), half_log(scale)
    k0, d0, mu0 = r, lat.det(), deg_r / r
    canopy: list[RankBound] = []
    for k in range(1, r):
        d0k = d0**k
        if floors[k] is not None and floors[k] ** k0 > d0k:
            canopy.append(RankBound(None, None, k * mu0))
            continue
        if not capped:
            cap = _root_ceil(d0k, k0)
            try:
                det_k, wit = _min_det_rank_k(lat, k, node_cap, cap)
            except EnumerationCapExceeded:
                capped = True
        if capped:
            canopy.append(RankBound(None, None, k * half_log_scale))
            continue
        deg = -half_log(det_k)
        if det_k > cap:
            canopy.append(RankBound(deg, wit, k * mu0))
            continue
        canopy.append(RankBound(deg, wit, deg))
        if det_k**k0 < d0k:
            k0, d0, mu0 = k, det_k, deg / k
    canopy.append(RankBound(deg_r, lat.full_sublattice(), deg_r))
    return canopy


def mu_max(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> CertifiedMuMax:
    """Certified supremum of slopes over nonzero sublattices: the first edge
    of the slope polygon, searched bound-first (see `_lattice_canopy`); see
    `first_edge` for what its flag proves of the witness."""
    res = first_edge(_lattice_canopy(lat, node_cap))
    if res.certified and lat.is_integral() and res.value.sign() > 0:
        raise AssertionError("integral lattice reported positive mu_max")
    return res


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


def _lattice_quotient(lat: EuclideanLattice, w: Sublattice):
    """L/W for a saturated W, and the lift of its saturated sublattices to L.
    L/W is the dual of W's annihilator A in L*, with the metric of L*: for a
    basis a_i of A (`linalg.int_kernel_saturated`), v -> (a_i(v))_i maps L
    onto Z^(r-k) with kernel W, giving L/W's coordinates in the basis dual to
    the a_i; its Gram is (A G^-1 A^T)^-1.  A saturated X of L/W, with Psi a
    basis of its annihilator, lifts to {v : Psi A v = 0}; L/W lifts to L."""
    r = lat.rank
    gi, scale = lat.dual().scaled_gram()
    ann = linalg.int_kernel_saturated(w.basis, r)
    q = EuclideanLattice._from_scaled(linalg.matmul(linalg.matmul(ann, gi), linalg.transpose(ann)), scale)

    def lift(x: Sublattice) -> Sublattice:
        psi = linalg.int_kernel_saturated(x.basis, len(ann))
        return Sublattice(lat, linalg.int_kernel_saturated(linalg.matmul(psi, ann), r))

    return q.dual(), lift


def slope_filtration(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> SlopePolygon:
    """The canonical filtration of saturated sublattices and its polygon:
    `quotient_polygon` over `mu_max` of each L/W (`_lattice_quotient`),
    uncertified from the first stage whose search exceeds the node cap."""
    poly = quotient_polygon(
        lat, (lat.rank, lat.degree()), lambda q: mu_max(q, node_cap), partial(_lattice_quotient, lat), lambda x: x.rank
    )
    chain = poly.filtration
    if not all(b.contains(a) for a, b in zip(chain, chain[1:])):
        raise AssertionError("quotient witnesses failed to form a chain")
    return poly


def minkowski_check(lat: EuclideanLattice, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """For lattices of minimum >= 1: exact check vol >= r^(-r/2), i.e.
    det * r^r >= 1 (the hypercube weakening of Minkowski's bound)."""
    if minimum_sq(lat, node_cap) < 1:
        raise ValueError("minkowski_check requires minimum_sq >= 1")
    r = lat.rank
    return lat.det() * F(r) ** r >= 1

