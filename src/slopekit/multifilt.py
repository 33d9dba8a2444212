"""Finite-dimensional rational vector spaces with several decreasing
exhaustive separated filtrations: slopes, multigraded dimensions, witness
lines, certified mu_max and canonical filtration (read off
`enumeration.upper_hull`), tensor products, and the slope-inequality suite
shared with euclidean lattices.

A filtration is stored as its value at each break: pairs (lambda, subspace)
with strictly increasing labels and strictly decreasing subspaces, the lowest
space being the whole ambient space V (left-continuity pins the value at a
break to the space before the drop).

By Abel summation a filtration with breaks lam_0 < lam_1 < ... adds
lam_0 dim W + sum_(i>=1) (lam_i - lam_(i-1)) dim(W ∩ F_i) to deg W, so
slopes and the profile relaxation never meet V = F_0.  No constraint is
lost: with d_0 = k the pair constraint d_0 + e - k <= dim(V ∩ G_j) reads
e <= dim G_j, which the profile's own bound imposes; a triple constraint
with one index at V is the pair constraint of the other two, with two it
reads d <= dim F_i, with three k <= n.  So the feasible profiles, and every
bound, are the same as with V.

Subspaces are stored as integer RREF rows (`linalg.rref`): each RREF row
scaled to primitive integers with a positive pivot, one form for each
subspace, so the closure deduplicates and the canopy caches on int tuples,
and no step of it builds a Fraction.  They are reduced once when made,
never again; rows already in RREF up to row scaling are only scaled.  Code
that shows a subspace (`to_json_dict`, the CLI) divides by the pivots, so
what it prints is the RREF.  Where only a dimension is read it comes from
one rank, dim(W ∩ S) = dim W + dim S - rank(W + S), and a vector of a
stored span has its coordinates at the span's pivot columns; intersection
bases are built only where a basis is used (the candidate closure,
`subobject`, `nu_witness` and the profile bound's triple intersections).
All elimination runs through `linalg.rref`."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .enumeration import DEFAULT_NODE_CAP, RankBound, minimum_sq, mu_max, upper_hull
from .exactval import fmt_rat, half_log, parse_rat
from .report import Report, ReproFailure

F = Fraction

Matrix = linalg.Matrix


def _check_width(rows, n: int) -> None:
    """ValueError unless every row has n entries."""
    if any(len(row) != n for row in rows):
        raise ValueError(f"rows must have {n} entries, the ambient dimension")


def _rref_rows(rows, n: int) -> Matrix:
    """The integer RREF (`linalg.rref`) of rows of n entries each; ValueError
    for any other width.  Rows already in RREF up to row scaling (see
    `_scaled_rref`) are only scaled, with no elimination."""
    _check_width(rows, n)
    if not rows:
        return ()
    red = _scaled_rref(rows)
    if red is not None:
        return red
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, Fraction}:
        rows = linalg.mat(rows)
    return linalg.rref(rows)[0]


def _scaled_rref(rows) -> Optional[Matrix]:
    """The integer RREF of rows that are a tuple of tuples in RREF up to
    positive row scaling, or None: each row's first nonzero entry lies right
    of the row above's, and the rows above are 0 in its column (the rows
    below are, since their pivots lie further right).  A row of ints with a
    positive pivot is divided by the gcd of its entries; a row of Fractions
    with pivot 1 is multiplied by the lcm of its denominators, which leaves
    it primitive (a prime power dividing that lcm divides some denominator
    exactly, and so not the entry over it).  Rows of any other kind are
    None."""
    if type(rows) is not tuple:
        return None
    out = []
    pivots: list[int] = []
    for row in rows:
        if type(row) is not tuple:
            return None
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None or (pivots and c <= pivots[-1]) or any(r[c] for r in rows[: len(pivots)]):
            return None
        kinds = set(map(type, row))
        if kinds == {int} and row[c] > 0:
            out.append(tuple(linalg.primitive(row)))
        elif kinds == {Fraction} and row[c] == 1:
            den = math.lcm(*(x.denominator for x in row))
            out.append(tuple([x.numerator * (den // x.denominator) for x in row]))
        else:
            return None
        pivots.append(c)
    return tuple(out)


class Filtration:
    """Decreasing exhaustive separated filtration with rational breaks."""

    __slots__ = ("ambient_dim", "steps")

    def __init__(self, ambient_dim: int, steps: Sequence[tuple]):
        cleaned: list[tuple[Fraction, Matrix]] = []
        for lam, rows in steps:
            cleaned.append((F(lam), _rref_rows(rows, ambient_dim)))
        cleaned.sort(key=lambda t: t[0])
        merged: list[tuple[Fraction, Matrix]] = []
        for lam, space in cleaned:
            if merged and merged[-1][0] == lam:
                raise ValueError(f"duplicate break {lam}")
            if merged and merged[-1][1] == space:
                merged.pop()  # earlier break has empty graded piece
            merged.append((lam, space))
        while merged and not merged[-1][1]:
            merged.pop()
        if not merged:
            raise ValueError("filtration must have at least one nonzero step")
        if len(merged[0][1]) != ambient_dim:
            raise ValueError("the lowest step must span the ambient space")
        # Containment is all there is to check: consecutive merged steps have
        # distinct RREFs, so a contained step of equal dimension would equal
        # its predecessor; strict decrease follows.  The lowest, V, holds every step.
        for (_, s0), (_, s1) in zip(merged[1:], merged[2:]):
            if linalg.rank(s0 + s1) != len(s0):
                raise ValueError("filtration subspaces must be decreasing")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "steps", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("Filtration is immutable")

    def breaks(self) -> tuple[Fraction, ...]:
        return tuple(lam for lam, _ in self.steps)

    def space_at(self, lam: Fraction) -> Matrix:
        """F^{>=lam}: the first stored space whose break is >= lam; zero above."""
        for mu, space in self.steps:
            if mu >= lam:
                return space
        return ()

    def space_above(self, lam: Fraction) -> Matrix:
        """F^{>lam}."""
        for mu, space in self.steps:
            if mu > lam:
                return space
        return ()

    def weight(self, v) -> Fraction:
        """The largest break whose step holds the nonzero vector v; every
        vector of V lies in the lowest step."""
        _check_width([v], self.ambient_dim)
        if not any(v):
            raise ValueError("zero vector has no weight")
        w = self.steps[0][0]
        for lam, space in self.steps[1:]:
            if not linalg.in_row_space(v, space):
                break
            w = lam
        return w

    def graded_dims(self) -> tuple[tuple[Fraction, int], ...]:
        out = []
        for i, (lam, space) in enumerate(self.steps):
            nxt = self.steps[i + 1][1] if i + 1 < len(self.steps) else ()
            out.append((lam, len(space) - len(nxt)))
        return tuple(out)

    def shift(self, c: Fraction) -> "Filtration":
        return Filtration(self.ambient_dim, [(lam + c, space) for lam, space in self.steps])

    def __eq__(self, other):
        return (
            isinstance(other, Filtration)
            and self.ambient_dim == other.ambient_dim
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.steps))


class MultifilteredSpace:
    __slots__ = ("dim", "filtrations")

    def __init__(self, dim: int, filtrations: Sequence[Filtration]):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        filts = tuple(filtrations)
        if any(f.ambient_dim != dim for f in filts):
            raise ValueError("all filtrations must live on the ambient space")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "filtrations", filts)

    def __setattr__(self, name, value):
        raise AttributeError("MultifilteredSpace is immutable")

    @property
    def n_filtrations(self) -> int:
        return len(self.filtrations)

    def permuted(self, order: Sequence[int]) -> "MultifilteredSpace":
        return MultifilteredSpace(self.dim, [self.filtrations[i] for i in order])

    def __eq__(self, other):
        return (
            isinstance(other, MultifilteredSpace)
            and self.dim == other.dim
            and self.filtrations == other.filtrations
        )

    def __hash__(self):
        return hash((self.dim, self.filtrations))

    # -- JSON wire format

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "filtrations": [
                {
                    "steps": [
                        {
                            "lambda": fmt_rat(lam),
                            "basis": [[fmt_rat(x) for x in row] for row in linalg.unit_rref(space)],
                        }
                        for lam, space in f.steps
                    ]
                }
                for f in self.filtrations
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "MultifilteredSpace":
        if not isinstance(data, dict):
            raise ValueError("multifiltered JSON must be an object")
        dim = data.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError('multifiltered JSON needs an integer "dim" field')
        fds = data.get("filtrations")
        if not isinstance(fds, list) or not all(
            isinstance(fd, dict) and isinstance(fd.get("steps"), list) for fd in fds
        ):
            raise ValueError('"filtrations" must be a list of objects with a "steps" list')
        filts = []
        for fd in fds:
            steps = []
            for sd in fd["steps"]:
                if not isinstance(sd, dict) or "lambda" not in sd:
                    raise ValueError('each step needs a "lambda" field')
                rows = sd.get("basis")
                if not isinstance(rows, list) or not all(
                    isinstance(row, list) and len(row) == dim for row in rows
                ):
                    raise ValueError(f'each step needs a "basis" list of rows of length {dim}')
                steps.append((parse_rat(sd["lambda"]), [[parse_rat(x) for x in row] for row in rows]))
            filts.append(Filtration(dim, steps))
        return MultifilteredSpace(dim, filts)

    @staticmethod
    def load(path: str) -> "MultifilteredSpace":
        with open(path) as fh:
            return MultifilteredSpace.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Slope and graded data.

def slope_faltings(m: MultifilteredSpace) -> Fraction:
    """Break-weighted graded dimensions divided by the dimension."""
    total = F(0)
    for f in m.filtrations:
        for lam, d in f.graded_dims():
            total += lam * d
    return total / m.dim


def _meet_dim(a: Matrix, b: Matrix) -> int:
    """dim(rowspace(a) ∩ rowspace(b)) for independent rows a and b:
    dim a + dim b - rank(a + b)."""
    return len(a) + len(b) - linalg.rank(a + b)


def slope_of_subspace(m: MultifilteredSpace, rows: Matrix) -> Fraction:
    """Slope of a nonzero subspace with the induced filtrations, in the Abel
    form (module docstring): it meets only the proper steps.  The whole space
    has the Faltings slope, read off the graded dimensions."""
    rows = _rref_rows(rows, m.dim)
    k = len(rows)
    if k == 0:
        raise ValueError("zero subspace has no slope")
    if k == m.dim:
        return slope_faltings(m)
    total = F(0)
    for f in m.filtrations:
        total += f.steps[0][0] * k
        for (low, _), (lam, space) in itertools.pairwise(f.steps):
            total += (lam - low) * _meet_dim(rows, space)
    return total / k


def _pivot(row) -> int:
    """The column of the first nonzero entry."""
    return next(c for c, x in enumerate(row) if x)


def _coords_in_rows(rows: Matrix, v) -> tuple[int, ...]:
    """Coordinates of a vector of the span of integer RREF rows, in the basis
    of those rows divided by their pivots: its entries at their pivot
    columns."""
    return tuple(v[_pivot(r)] for r in rows)


def subobject(m: MultifilteredSpace, rows) -> MultifilteredSpace:
    """The subspace W with induced filtrations, in the coordinates of its RREF
    basis.  Meets with V are known, so none is computed: W ∩ V = W has the
    identity for coordinates, and for W = V, whose RREF basis is the
    identity, the subobject is m itself."""
    rows = _rref_rows(rows, m.dim)
    k = len(rows)
    if k == 0:
        raise ValueError("zero subspace")
    if k == m.dim:
        return m
    filts = []
    for f in m.filtrations:
        steps = [(f.steps[0][0], linalg.identity(k))]
        for lam, space in f.steps[1:]:
            inter = linalg.intersect_row_spaces(rows, space, m.dim)
            coords = tuple(_coords_in_rows(rows, r) for r in inter)
            steps.append((lam, coords))
        filts.append(Filtration(k, steps))
    return MultifilteredSpace(k, filts)


def quotient_object(m: MultifilteredSpace, rows) -> tuple[MultifilteredSpace, Matrix]:
    """The quotient by a proper subspace, with image filtrations; also returns
    the completion rows identifying quotient coordinates with ambient lifts.

    The completion is the unit vectors e_i, i increasing, that are not in the
    span of the subspace and the e_j before them: exactly the i that are not
    the last nonzero column of a vector of the subspace, that is, not a pivot
    of the echelon form of the column-reversed rows.  With R those echelon
    rows (columns restored), r_p the one whose last nonzero column is p and
    q_p = r_p[p] > 0, the quotient coordinates of v are
    v_i - sum_p v_p * r_p[i] / q_p over the completion's i.  The projector
    returns them times Q, the lcm of the q_p: an integer row for an integer
    v, spanning the same line, and the image steps are reduced anyway."""
    n = m.dim
    rev = _rref_rows([r[::-1] for r in rows], n)
    q_dim = n - len(rev)
    if q_dim == 0:
        raise ValueError("quotient by the whole space")
    last = [n - 1 - _pivot(r) for r in rev]
    red = [r[::-1] for r in rev]
    free = [i for i in range(n) if i not in last]
    completion = tuple(tuple(int(j == i) for j in range(n)) for i in free)
    big_q = math.lcm(*(r[p] for p, r in zip(last, red)))
    lifts = [(p, big_q // r[p], r) for p, r in zip(last, red)]

    def project(v) -> tuple[int, ...]:
        return tuple(big_q * v[i] - sum(v[p] * s * r[i] for p, s, r in lifts) for i in free)

    filts = []
    for f in m.filtrations:
        steps = []
        for lam, space in f.steps:
            steps.append((lam, [img for img in map(project, space) if any(img)]))
        # image of the lowest step is the whole quotient
        filts.append(Filtration(q_dim, steps))
    return MultifilteredSpace(q_dim, filts), completion


def multigraded_dims(m: MultifilteredSpace) -> dict[tuple, int]:
    """Iterated graded pieces: grade by the last filtration first, then the
    earlier ones on each piece.  Keys are break tuples (lambda_1..lambda_n)."""
    out = _multigraded(m)
    total = sum(out.values())
    if total != m.dim:
        raise ReproFailure("multigraded_dimension", f"graded dimensions sum to {total}, not {m.dim}")
    target = slope_faltings(m) * m.dim
    agg = sum((sum(key) * d for key, d in out.items()), F(0))
    if agg != target:
        raise ReproFailure("multigraded_aggregate", f"aggregate {agg} != slope*dim {target}")
    return out


def _multigraded(m: MultifilteredSpace) -> dict[tuple, int]:
    """Each graded piece F^lam / F^(next) of the last filtration, with the
    earlier filtrations induced, is the quotient of the subobject F^lam by
    F^(next) in F^lam's coordinates."""
    if m.n_filtrations == 0:
        return {(): m.dim}
    f = m.filtrations[-1]
    rest = MultifilteredSpace(m.dim, m.filtrations[:-1])
    out: dict[tuple, int] = {}
    for i, (lam, space) in enumerate(f.steps):
        nxt = f.steps[i + 1][1] if i + 1 < len(f.steps) else ()
        piece, _ = quotient_object(
            subobject(rest, space), [_coords_in_rows(space, r) for r in nxt]
        )
        for key, d in _multigraded(piece).items():
            out[key + (lam,)] = out.get(key + (lam,), 0) + d
    return out


# ---------------------------------------------------------------------------
# nu and mu_max.

def nu_witness(m: MultifilteredSpace) -> tuple[Fraction, tuple[int, ...]]:
    """Largest break-sum of a line (rank-one subobject slope), with a witness
    vector of exactly those weights.  It can lie below both the slope and the
    maximal break-sum over nonzero multigraded pieces: three weight-1 lines
    in Q^2 have slope 3/2 and a piece of break-sum 2, but every line has
    value at most 1.

    The witness is a vector of I, the meet of the steps F_f^{>=t_f} for the
    first break tuple t, in order of decreasing sum, with I nonzero.  A
    nonzero v of I in some F_f^{>t_f} would make nonzero the meet of the
    tuple that raises t_f to the next break, whose sum is larger, against the
    choice of t; so every nonzero vector of I has weights exactly t.  An
    entry at its filtration's lowest break selects V, so only the other
    entries' steps are met; with none, I = V and the witness is e_1.  The
    witness is the first integer RREF row of I: primitive, pivot positive."""
    tuples = sorted(
        itertools.product(*(f.breaks() for f in m.filtrations)), key=lambda t: sum(t), reverse=True
    )
    for tup in tuples:
        proper = [f.space_at(lam) for f, lam in zip(m.filtrations, tup) if lam != f.steps[0][0]]
        inter = proper[0] if proper else linalg.identity(m.dim)
        for space in proper[1:]:
            inter = linalg.intersect_row_spaces(inter, space, m.dim)
            if not inter:
                break
        else:
            return sum(tup, F(0)), inter[0]
    raise AssertionError("no witness line found")


@dataclass(frozen=True)
class MfMuMax:
    value: Fraction
    witness: Matrix
    upper: Fraction
    certified: bool


# The closure can be infinite (three or more flags), so it stops at this size.
_FAMILY_CAP = 400


def _candidate_family(m: MultifilteredSpace, extra):
    """Yields the whole space and the filtration steps, closed under pairwise
    intersection and sum up to _FAMILY_CAP members, then the extra
    candidates, each member once, as it is made.  mu_max_mf certifies only by
    a candidate meeting the profile bound, never by this family being
    complete.  Random subspaces would add nothing: a generic k-dimensional one
    meets each step in the least dimension, so it takes the k smallest weights
    of each filtration and its slope is at most slope(V), and V is a member.

    Members are integer RREF rows, deduplicated by value.  Stored steps are
    integer RREF and never reduced again, nor are the meets and sums, which
    come as integer RREF from `linalg.intersect_and_sum`; only the extra
    candidates are reduced.  A consumer that stops early skips the closure's
    remaining eliminations."""
    seen: dict[Matrix, None] = {}

    def fresh(rows) -> bool:
        if rows and rows not in seen:
            seen[rows] = None
            return True
        return False

    steps = (space for f in m.filtrations for _, space in f.steps)
    yield from filter(fresh, itertools.chain((linalg.identity(m.dim),), steps))
    # each round pairs the members new in the last round, current[start:],
    # with every member; a pair of two new members is closed once, (a, b) with
    # b after a, in the order an ordered-pair sweep would first reach it.
    # Member 0 is V, whose pairs give S and V, both members: it is never
    # paired, and since such a pair adds no member, the cap cuts the family
    # at the same place
    start = 1
    while start < len(seen) < _FAMILY_CAP:
        current = list(seen)
        new = enumerate(current[start:], start)
        for a, b in ((a, b) for i, a in new for b in current[1:start] + current[i + 1:]):
            yield from filter(fresh, linalg.intersect_and_sum(a, b, m.dim))
            if len(seen) >= _FAMILY_CAP:
                break
        start = len(current)
    yield from filter(fresh, (_rref_rows(e, m.dim) for e in extra))


def _profile_upper_bound(m: MultifilteredSpace) -> list[Fraction]:
    """For each k = 1..dim, the max over dimension-profile relaxations of the
    induced slope of a k-dimensional subspace W: per filtration the profile
    d_i = dim(W ∩ F_i) over the proper steps F_1 > F_2 > ... is a bounded
    monotone sequence, coupled across filtrations by the exact meet
    dimensions of the proper steps (V drops out: module docstring).  Every
    constraint below holds for the true profiles, so the best feasible score
    bounds deg W.  A profile scores sum_i g_i d_i, with integers
    g_i = (lam_i - lam_(i-1)) D for D the lcm of the break denominators, and
    bound_k = sum_f lam_(f,0) + best / (D k): the scaling, and the lam_0 k
    every profile of a filtration shares, keep the profile order and the
    pruning."""
    n = m.n_filtrations
    steps = [f.steps[1:] for f in m.filtrations]
    den = math.lcm(*(lam.denominator for f in m.filtrations for lam in f.breaks()))
    gaps = [[int((hi - lo) * den) for lo, hi in itertools.pairwise(f.breaks())] for f in m.filtrations]
    dims = [[m.dim] + [len(s) for _, s in st] for st in steps]
    pair_dim: dict[tuple, int] = {}
    for v, w in itertools.combinations(range(n), 2):
        for i, (_, si) in enumerate(steps[v]):
            for j, (_, sj) in enumerate(steps[w]):
                pair_dim[(v, i, w, j)] = _meet_dim(si, sj)
    triple_dim: dict[tuple, int] = {}
    for v, w, x in itertools.combinations(range(n), 3):
        for i, (_, si) in enumerate(steps[v]):
            for j, (_, sj) in enumerate(steps[w]):
                sij = linalg.intersect_row_spaces(si, sj, m.dim)
                for l, (_, sl) in enumerate(steps[x]):
                    triple_dim[(v, i, w, j, x, l)] = _meet_dim(sij, sl)
    lam_0 = sum((f.steps[0][0] for f in m.filtrations), F(0))

    bounds: list[Fraction] = []
    for k in range(1, m.dim + 1):
        per_v: list[list[tuple[int, tuple[int, ...]]]] = []
        for g, a in zip(gaps, dims):
            profs: list[tuple[int, tuple[int, ...]]] = []

            def rec(i, prev, acc, score):
                if i == len(g):
                    profs.append((score, acc))
                    return
                # a[i] = dim F_i: W ∩ F_(i+1) lies in W ∩ F_i (W for i = 0) and
                # in F_(i+1), and (W ∩ F_i) / (W ∩ F_(i+1)) embeds in F_i / F_(i+1)
                for d in range(min(prev, a[i + 1]), max(0, prev - (a[i] - a[i + 1])) - 1, -1):
                    rec(i + 1, d, acc + (d,), score + g[i] * d)

            rec(0, k, (), 0)
            profs.sort(key=lambda t: t[0], reverse=True)
            per_v.append(profs)

        best: Optional[int] = None
        suffix_max = [0] * (n + 1)
        for v in range(n - 1, -1, -1):
            suffix_max[v] = suffix_max[v + 1] + per_v[v][0][0]

        def feasible(chosen, v, prof):
            # subspaces of W of dims d, e meet in dim >= d + e - k, so
            # d + e - k <= dim(F ∩ G) for W ∩ F and W ∩ G; meeting that with
            # W ∩ H gives d + e + h - 2k <= dim(F ∩ G ∩ H)
            for w in range(v):
                for i, d in enumerate(prof):
                    for j, e in enumerate(chosen[w]):
                        if d + e - k > pair_dim[(w, j, v, i)]:
                            return False
            for w, x in itertools.combinations(range(v), 2):
                for i, d in enumerate(prof):
                    for j, e in enumerate(chosen[w]):
                        for l, h in enumerate(chosen[x]):
                            if d + e + h - 2 * k > triple_dim[(w, j, x, l, v, i)]:
                                return False
            return True

        def dfs(v, chosen, total):
            nonlocal best
            if v == n:
                if best is None or total > best:
                    best = total
                return
            for score, prof in per_v[v]:
                # profiles come by decreasing score and suffix_max bounds
                # the later filtrations' share: no later profile beats best
                if best is not None and total + score + suffix_max[v + 1] <= best:
                    break
                if feasible(chosen, v, prof):
                    dfs(v + 1, chosen + [prof], total + score)

        dfs(0, [], 0)
        # every k-dimensional subspace has a feasible profile
        bounds.append(lam_0 + F(best, den * k))
    return bounds


def _quotient_bounds(m: MultifilteredSpace, rows) -> list[Fraction]:
    """The relaxation's per-k slope bounds of the quotient m/W by a proper
    subspace W: entry i bounds the slope of every (i + 1)-dimensional
    subspace of m/W, such as (W + U)/W for U with dim(W + U) = dim W + i + 1."""
    return _profile_upper_bound(quotient_object(m, rows)[0])


def _mf_canopy(m: MultifilteredSpace, extra, edges: Optional[int] = None) -> list[RankBound]:
    """For each dimension k, the best degree over the candidates of dimension
    k (the first in family order among ties), and k times the relaxation's
    slope bound.

    `edges` is how much of the polygon the caller reads, as in `upper_hull`.
    With edges=1 the extra candidates are all reduced, then probed before
    the closure, and the search stops at the first candidate that passes
    `certifies`: a candidate W of slope mu_b such that every larger rank j
    has its bound strictly below mu_b or, where that bound ties mu_b, m/W
    has its rank-(j - dim W) bound strictly below mu_b.  The canopy then
    holds that candidate and the closure members scored before it, and its
    first edge is the one the whole closure gives.  Otherwise, or when no
    candidate passes, the whole closure is read."""
    bounds = _profile_upper_bound(m)
    mu_b = max(bounds)
    degrees: dict[Matrix, Fraction] = {}
    verdicts: dict[Matrix, bool] = {}

    def degree(rows) -> Fraction:
        if rows not in degrees:
            degrees[rows] = slope_of_subspace(m, rows) * len(rows)
        return degrees[rows]

    def certifies(rows) -> bool:
        # W passes when its slope is mu_b and, for every rank j > dim W = k,
        # the rank-j bound is strictly below mu_b or the rank-(j - k) bound
        # of m/W is.  Such a W is the largest subspace of maximal slope.
        # mu_b bounds every slope, so W is a maximizer.  For any maximizer
        # W', supermodularity of the degree gives
        #   deg(W + W') >= deg W + deg W' - deg(W ∩ W')
        #              >= mu_b (dim W + dim W' - dim(W ∩ W')) = mu_b dim(W + W'),
        # since deg(W ∩ W') <= mu_b dim(W ∩ W') (also when W ∩ W' = 0).  So
        # W + W' is a maximizer, of dimension j say.  If j > k, the rank-j
        # bound is at least its slope mu_b, so it ties mu_b, and U = (W + W')/W
        # is a (j - k)-dimensional subspace of m/W.  The image of a step F
        # meets U in ((F + W) ∩ (W + W'))/W = ((F ∩ (W + W')) + W)/W
        # (modular law, W ⊂ W + W'), of dimension
        # dim(F ∩ (W + W')) - dim(F ∩ W); in the Abel form that makes
        # deg U = deg(W + W') - deg W = (j - k) mu_b, so the quotient's
        # rank-(j - k) bound is at least mu_b, against the test.  Hence
        # W + W' = W: W holds every maximizer and is the only one of its
        # dimension.  The whole closure holds W, so its canopy reaches
        # dim W * mu_b at dim W with W alone, and stays below the line of
        # slope mu_b at every larger rank: its first edge ends at W, its upper
        # is mu_b and it is certified (bounds on that line do not lie above
        # the hull), as this canopy's.  At most one candidate passes, so the
        # probe order cannot pick another; and a probed extra that does not
        # pass enters `best` only at its place in the family, so without a
        # stop every tie-break is the whole closure's.  The quotient is made
        # only when the strict test fails, once per candidate.
        if rows not in verdicts:
            k = len(rows)
            tied = [j for j, b in enumerate(bounds[k:], k + 1) if not b < mu_b]
            passes = degree(rows) == k * mu_b
            if passes and tied:
                quot = _quotient_bounds(m, rows)
                passes = all(quot[j - k - 1] < mu_b for j in tied)
            verdicts[rows] = passes
        return verdicts[rows]

    best: dict[int, tuple[Fraction, Matrix]] = {}

    def canopy() -> list[RankBound]:
        return [RankBound(*best.get(k, (None, None)), k * bounds[k - 1]) for k in range(1, m.dim + 1)]

    if edges == 1:
        for rows in filter(None, [_rref_rows(e, m.dim) for e in extra]):
            if certifies(rows):
                best[len(rows)] = (degree(rows), rows)
                return canopy()
    for rows in _candidate_family(m, extra):
        k, deg = len(rows), degree(rows)
        if k not in best or deg > best[k][0]:
            best[k] = (deg, rows)
        if edges == 1 and certifies(rows):
            break
    return canopy()


def mu_max_mf(m: MultifilteredSpace, extra_candidates: Sequence = ()) -> MfMuMax:
    """Certified-when-bounds-meet supremum of subspace slopes: the first edge
    of the slope polygon (see `_mf_canopy`).

    Upper bound: the dimension-profile relaxation, the max mu_b of its per-k
    bounds, computed first.  Lower bound: exact slopes of the extra candidates
    (row lists in ambient coordinates), then of the capped intersection/sum
    closure of the filtration steps, scored as they are made.  The search
    stops at the first candidate W of slope mu_b such that every larger
    dimension j has its bound strictly below mu_b or, where it ties mu_b,
    the quotient m/W has its dimension-(j - dim W) bound strictly below
    mu_b: a larger maximizer W' would make (W + W')/W a subspace of m/W of
    slope mu_b (supermodularity and the modular law, see `_mf_canopy`), so
    W is the largest subspace of maximal slope, and the result is the one
    the whole closure gives.  certified = bounds meet.  The witness is the
    largest candidate of maximal slope; when the closure is complete it is
    the sum of all of them, because deg is supermodular
    (deg(A + B) + deg(A ∩ B) >= deg A + deg B).
    """
    canopy = _mf_canopy(m, extra_candidates, edges=1)
    poly = upper_hull(canopy, edges=1)
    (_, (k, deg)) = poly.hull
    upper = max(b.upper / j for j, b in enumerate(canopy, 1))
    return MfMuMax(value=deg / k, witness=poly.filtration[0], upper=upper, certified=poly.certified)


def is_semistable_mf(m: MultifilteredSpace) -> bool:
    res = mu_max_mf(m)
    if not res.certified:
        raise ValueError("mu_max not certified; cannot decide semistability")
    return res.value == slope_faltings(m)


# ---------------------------------------------------------------------------
# Tensor product and dual.

def tensor_mf(m1: MultifilteredSpace, m2: MultifilteredSpace) -> MultifilteredSpace:
    """Filtration of the tensor product by convolution of the factors:
    F^{>=s} = sum over lambda1+lambda2 >= s of F^{>=l1} ⊗ F^{>=l2}."""
    if m1.n_filtrations != m2.n_filtrations:
        raise ValueError("factors must have the same number of filtrations")
    dim = m1.dim * m2.dim
    filts = []
    for f1, f2 in zip(m1.filtrations, m2.filtrations):
        sums = sorted(
            {l1 + l2 for l1 in f1.breaks() for l2 in f2.breaks()}
        )
        steps = []
        for s in sums:
            rows: list[tuple[int, ...]] = []
            # F2^{>=s-l1} holds every F2^{l2} with l1 + l2 >= s; once it is
            # V2, the later, smaller F1^{l1} add nothing
            for l1, s1 in f1.steps:
                s2 = f2.space_at(s - l1)
                rows += (tuple(x * y for x in r1 for y in r2) for r1 in s1 for r2 in s2)
                if len(s2) == m2.dim:
                    break
            steps.append((s, rows))
        filts.append(Filtration(dim, steps))
    return MultifilteredSpace(dim, filts)


def dual_mf(m: MultifilteredSpace) -> MultifilteredSpace:
    """Breaks negate: F^{>=lam}(dual) = annihilator of F^{>-lam}."""
    filts = []
    for f in m.filtrations:
        aboves = [space for _, space in f.steps[1:]] + [()]
        steps = [
            (-lam, linalg.kernel(above) if above else linalg.identity(m.dim))
            for (lam, _), above in zip(f.steps, aboves)
        ]
        filts.append(Filtration(m.dim, steps))
    return MultifilteredSpace(m.dim, filts)


# ---------------------------------------------------------------------------
# Canonical filtration.

def slope_filtration_mf(m: MultifilteredSpace) -> tuple[Matrix, ...]:
    """The canonical filtration: the candidates at the vertices of the slope
    polygon, whose quotient slopes strictly decrease.  Raises ValueError
    unless every dimension's bound lies on or below the polygon.

    Past the first vertex the relaxation of m alone is often loose, so each
    vertex witness S (dimension v) tightens the bounds above it.  For W of
    dimension k, with j = dim(W ∩ S), supermodularity of deg gives
    deg W <= deg(W ∩ S) + deg(W + S) - deg S, where the first term is at
    most the rank-j bound and the last two are the degree of (W + S)/S, a
    (k - j)-dimensional subspace of m/S, at most its relaxation bound.  Taken
    in order, the vertices certify at least every polygon that the quotients
    by its vertices certify stage by stage: for k up to the next vertex, such
    a bound is at most hull(j) + (k - j) * (the next edge's slope) <= hull(k),
    since the hull's slopes up to rank k are at least that edge's."""
    canopy = _mf_canopy(m, ())
    n = m.dim
    for s in upper_hull(canopy).filtration[:-1]:
        v = len(s)
        quot = _quotient_bounds(m, s)
        for k in range(v + 1, n + 1):
            via_s = max(
                (canopy[j - 1].upper if j else 0) + (k - j) * quot[k - j - 1]
                for j in range(max(0, k + v - n), v + 1)
            )
            canopy[k - 1] = canopy[k - 1]._replace(upper=min(canopy[k - 1].upper, via_s))
    poly = upper_hull(canopy)
    if not poly.certified:
        raise ValueError("uncertified slope polygon; filtration aborted")
    chain = poly.filtration
    if not all(_meet_dim(a, b) == len(a) for a, b in zip(chain, chain[1:])):
        raise AssertionError("hull witnesses failed to form a chain")
    return chain


# ---------------------------------------------------------------------------
# Abstract inequality suite (lattices: correction 1/2*log rank; here: 0).

def inequality_suite(instance, node_cap: int = DEFAULT_NODE_CAP) -> Report:
    """The slope inequalities for instance = (kind, a, b), kind "lattice" or
    "multifilt"; raises ReproFailure at the first that fails.  node_cap
    bounds each lattice search.  Each kind supplies the three mu_max results,
    the best line value nu of the tensor (computed once the inputs are
    certified) and the corrections rho.

    tensor_line_bound, nu(t) <= mu1 + mu2.  Multifiltered: nu(t) is the
    slope of a rank-one subobject (the witness line of `nu_witness`), so it
    is at most mu_max(t) = mu1 + mu2, the tensor product theorem.  Lattices:
    a shortest vector v of a spans a rank-one sublattice of degree -log|v|,
    so nu(a) <= mu1, and likewise nu(b) <= mu2; and min(a⊗b) = min(a)min(b)
    when a factor has rank at most 43 (Kitaoka, Arithmetic of Quadratic
    Forms, 1993, §7.1), so nu(t) = nu(a) + nu(b).  Past rank 43 the bound is
    only observed.

    line_plus_correction_bound, lattices only: mu_max(t) <= nu(t) + 1/2*log
    rk t.  Let M of rank k attain mu_max(t).  Hermite's constant gives
    det M >= lambda_1(M)^(2k) / gamma_k^k, and lambda_1(M) >= lambda_1(t), so
    mu_max(t) = -log(det M)/(2k) <= nu(t) + 1/2*log gamma_k; and gamma_k <= k
    <= rk t (Minkowski's theorem with the cube of side 2/sqrt(k) inside the
    unit ball).  No such line bound holds for multifiltered spaces: three
    weight-1 lines in Q^2 have mu_max = 3/2 and nu = 1."""
    kind, a, b = instance
    if kind == "lattice":
        t = a.tensor(b)
        r1, r2, rt = (mu_max(lat, node_cap) for lat in (a, b, t))
        nu = lambda: -half_log(minimum_sq(t, node_cap))
        rho1, rho2 = half_log(a.rank), half_log(b.rank)
    elif kind == "multifilt":
        t = tensor_mf(a, b)
        r1, r2 = mu_max_mf(a), mu_max_mf(b)
        w = [tuple(x * y for x in wa for y in wb) for wa in r1.witness for wb in r2.witness]
        rt = mu_max_mf(t, extra_candidates=[w])
        nu = lambda: nu_witness(t)[0]
        rho1 = rho2 = F(0)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    rep = Report(name=f"slope-inequalities-{kind}")
    rep.require(
        "inputs_certified",
        r1.certified and r2.certified and rt.certified,
        "all three mu_max searches certified",
    )
    nu_t = nu()
    mu1, mu2, mu_t = r1.value, r2.value, rt.value
    upper = mu1 + rho1 + mu2 + rho2
    rep.require("tensor_line_bound", nu_t <= mu1 + mu2, f"nu(tensor) = {nu_t} <= {mu1 + mu2}")
    if kind == "lattice":
        rho_t = half_log(t.rank)
        rep.require(
            "line_plus_correction_bound",
            mu_t <= nu_t + rho_t,
            f"mu_max(tensor) = {mu_t} <= nu + rho = {nu_t + rho_t}",
        )
    rep.require(
        "tensor_mu_max_upper",
        mu_t <= upper,
        f"mu_max(tensor) = {mu_t} <= sum of mu_max + corrections = {upper}",
    )
    rep.require("tensor_mu_max_lower", mu_t >= mu1 + mu2, f"mu_max(tensor) = {mu_t} >= {mu1 + mu2}")
    return rep
