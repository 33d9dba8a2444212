"""Finite-dimensional rational vector spaces with several decreasing
exhaustive separated filtrations: slopes, multigraded dimensions, witness
lines, certified mu_max and canonical filtration (through
`enumeration.first_edge` and `quotient_polygon`), tensor products, and the
slope-inequality suite shared with euclidean lattices.

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
All elimination runs through `linalg.rref`.

mu_max is the first edge of a canopy (`enumeration.first_edge`).  In
dimension n <= 3 every rank is 1, n - 1 or n, and the canopy is exact: the
best line is `nu_witness`'s and the best hyperplane is scored off the sums
of steps it can hold (`_best_hyperplane`), with no relaxation and no
closure.  Larger spaces bound each rank by the dimension-profile relaxation
and score a capped intersection/sum closure of the steps, which can be
infinite from three flags on (Gelfand-Ponomarev).  One certificate proves a
subspace S the largest of maximal slope (`_mf_canopy`): per-rank degree
bounds on or below the line of slope mu_S, and, at each rank above dim S
where they touch it, the relaxation of m/S strictly below mu_S.  A
caller's candidate S (for a tensor, the product of its factors' witnesses)
is tested before the closure, on the relaxation's bounds and then on the
bounds through S and m/S, deg U <= deg(U ∩ S) + deg((U + S)/S), whose
pieces of dimension <= 3 are exact; each closure member is tested on the
relaxation's bounds; and where the closure leaves the first edge
uncertified, the bounds through its witness replace the relaxation's."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .enumeration import DEFAULT_NODE_CAP, CertifiedMuMax, RankBound, first_edge, minimum_sq, mu_max, quotient_polygon
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

    def __reduce__(self):
        return Filtration, (self.ambient_dim, self.steps)

    def breaks(self) -> tuple[Fraction, ...]:
        return tuple(lam for lam, _ in self.steps)

    def space_at(self, lam: Fraction) -> Matrix:
        """F^{>=lam}: the first stored space whose break is >= lam; zero above."""
        for mu, space in self.steps:
            if mu >= lam:
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

    def __eq__(self, other):
        return (
            isinstance(other, Filtration)
            and self.ambient_dim == other.ambient_dim
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.steps))


class MultifilteredSpace:
    __slots__ = ("dim", "filtrations", "_gaps")

    def __init__(self, dim: int, filtrations: Sequence[Filtration]):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        filts = tuple(filtrations)
        if any(f.ambient_dim != dim for f in filts):
            raise ValueError("all filtrations must live on the ambient space")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "filtrations", filts)
        object.__setattr__(self, "_gaps", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultifilteredSpace is immutable")

    def __reduce__(self):
        return MultifilteredSpace, (self.dim, self.filtrations)

    @property
    def n_filtrations(self) -> int:
        return len(self.filtrations)

    def integer_gaps(self) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
        """(D, D * sum_f lam_(f,0), gaps), made once: D the lcm of the break
        denominators and, per filtration, the integer gaps
        (lam_i - lam_(i-1)) * D of its proper steps (the Abel form, module
        docstring)."""
        if self._gaps is None:
            den = math.lcm(*(lam.denominator for f in self.filtrations for lam in f.breaks()))
            scaled = [[lam.numerator * (den // lam.denominator) for lam in f.breaks()] for f in self.filtrations]
            gaps = tuple(tuple(hi - lo for lo, hi in itertools.pairwise(b)) for b in scaled)
            object.__setattr__(self, "_gaps", (den, sum(b[0] for b in scaled), gaps))
        return self._gaps

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
    form (module docstring): it meets only the proper steps, scored in
    integers over D (`integer_gaps`) and divided once.  The whole space has
    the Faltings slope, read off the graded dimensions."""
    rows = _rref_rows(rows, m.dim)
    k = len(rows)
    if k == 0:
        raise ValueError("zero subspace has no slope")
    if k == m.dim:
        return slope_faltings(m)
    den, lam_0, gaps = m.integer_gaps()
    total = lam_0 * k
    for f, g in zip(m.filtrations, gaps):
        for gap, (_, space) in zip(g, f.steps[1:]):
            total += gap * _meet_dim(rows, space)
    return F(total, den * k)


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
        if not proper:  # I = V, whose first RREF row is e_1
            return sum(tup, F(0)), tuple(int(j == 0) for j in range(m.dim))
        inter = proper[0]
        for space in proper[1:]:
            inter = linalg.intersect_row_spaces(inter, space, m.dim)
            if not inter:
                break
        else:
            return sum(tup, F(0)), inter[0]
    raise AssertionError("no witness line found")


def _best_hyperplane(m: MultifilteredSpace) -> tuple[Fraction, Matrix]:
    """The greatest degree of a hyperplane of m (dimension n >= 2), with a
    hyperplane of that degree as integer RREF rows.

    A hyperplane H meets a step F in dim F if F ⊂ H, and in dim F - 1
    otherwise (then H + F = V).  So in the Abel form (module docstring)
    deg H is a constant, the degree H would have if it held no proper step,
    plus the gaps of the proper steps it holds; the steps decrease, so
    those are, in each filtration, the steps from some index on, or none.
    A choice of one such index per filtration (or none) scores the sum of
    the chosen suffixes of gaps.  The choice of H itself scores deg H minus
    the constant; and a choice is held by some H iff the sum S of its
    chosen steps is proper, when every hyperplane holding S scores at least
    as much.  So the first choice with S proper, in order of decreasing
    score, scores the greatest degree, and any hyperplane holding its S
    attains it (`_hyperplane_holding`).  Deciding a choice takes one `rref`
    of its steps, none for a single step, and the whole space never enters.

    Duality gives the same degree: a hyperplane H of V is the annihilator
    of a line l of V*, and V/H is dual to l with the filtrations of
    `dual_mf` (the image of F^lam in V/H is nonzero iff F^lam ⊄ H iff l is
    not in the annihilator of F^lam), so deg H = deg V - deg(V/H) =
    deg V + deg l, and the best hyperplane has degree deg V + nu(m*).
    Building m* costs a kernel per step, more than this search."""
    n = m.dim
    den, lam_0, gaps = m.integer_gaps()
    base = lam_0 * (n - 1)
    options = []
    for f, g in zip(m.filtrations, gaps):
        steps = [space for _, space in f.steps[1:]]
        base += sum(gap * (len(space) - 1) for gap, space in zip(g, steps))
        options.append([(0, ())] + [(sum(g[i:]), space) for i, space in enumerate(steps)])
    choices = [(sum(s for s, _ in c), [space for _, space in c if space]) for c in itertools.product(*options)]
    choices.sort(key=lambda t: t[0], reverse=True)
    for score, spaces in choices:
        rows = tuple(itertools.chain(*spaces))
        span = linalg.rref(rows)[0] if len(spaces) > 1 else rows
        if len(span) < n:
            return F(base + score, den), _hyperplane_holding(span, n)
    raise AssertionError("no proper sum of steps")


def _hyperplane_holding(span: Matrix, n: int) -> Matrix:
    """A hyperplane holding the proper subspace of integer RREF rows `span`,
    as integer RREF rows, with no elimination: H = {x : a.x = 0} for the
    kernel vector a of span's last free column f (a_f = 1, a_c = -r[f]/r[c]
    at the pivot c of each row r, 0 elsewhere).  Each row r has r[f] = 0
    when its pivot c lies right of f (every column there is a pivot, so
    r is a multiple of e_c), so a is 0 right of f, and H's RREF holds, for
    j != f, the row r[c] e_c + r[f] e_f of the pivot c = j, made primitive,
    or e_j at a free column j.  Each row r of span is the sum of the row of
    its pivot and of its entries at free columns other than f, so H holds
    it."""
    by_pivot = {_pivot(r): r for r in span}
    f = max(c for c in range(n) if c not in by_pivot)
    rows = []
    for j in (j for j in range(n) if j != f):
        row = [0] * n
        if j in by_pivot:
            row[j], row[f] = by_pivot[j][j], by_pivot[j][f]
        else:
            row[j] = 1
        rows.append(tuple(linalg.primitive(row)))
    return tuple(rows)


def _exact_canopy(m: MultifilteredSpace) -> list[RankBound]:
    """The exact canopy of a space of dimension n <= 3, whose every rank is
    1, n - 1 or n: the best line (`nu_witness`), the best hyperplane
    (`_best_hyperplane`) and V, each degree its own upper bound.  Its first
    edge is certified, and its witness is the largest subspace of maximal
    slope: that subspace, the sum of all maximizers (deg is supermodular),
    is the only maximizer of its rank, which is the largest rank of maximal
    slope, the one `first_edge` takes."""
    n = m.dim
    exact = {n: (slope_faltings(m) * n, linalg.identity(n))}
    if n > 1:
        deg, line = nu_witness(m)
        exact[1] = (deg, (line,))
    if n > 2:
        exact[n - 1] = _best_hyperplane(m)
    return [RankBound(deg, rows, deg) for deg, rows in (exact[k] for k in range(1, n + 1))]


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
    g_i = (lam_i - lam_(i-1)) D (`integer_gaps`), and
    bound_k = sum_f lam_(f,0) + best / (D k): the scaling, and the lam_0 k
    every profile of a filtration shares, keep the profile order and the
    pruning."""
    n = m.n_filtrations
    steps = [f.steps[1:] for f in m.filtrations]
    den, lam_0, gaps = m.integer_gaps()
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
        bounds.append(F(lam_0 * k + best, den * k))
    return bounds


def _degree_bounds(m: MultifilteredSpace) -> list[Fraction]:
    """Entry t - 1 bounds the degree of every t-dimensional subspace of m:
    the exact degree in dimension at most 3 (`_exact_canopy`), t times the
    relaxation's rank-t bound above."""
    if m.dim <= 3:
        return [b.upper for b in _exact_canopy(m)]
    return [t * b for t, b in enumerate(_profile_upper_bound(m), 1)]


def _split_uppers(sub: Sequence, quot: Sequence) -> list:
    """Per-rank degree bounds of m from a proper nonzero subspace S, given
    sub[i - 1], a bound on the degree of every i-dimensional subspace of S,
    and quot[t - 1], one on every t-dimensional subspace of m/S.  Entry
    j - 1 bounds every j-dimensional U of m by the largest
    sub[i - 1] + quot[j - i - 1] (a missing term is 0) over the i that
    dim(U ∩ S) can take, max(0, j - dim m/S) .. min(j, dim S).

    deg is supermodular, deg U + deg S <= deg(U ∩ S) + deg(U + S), and
    additive over S: for X ⊃ S the image (F + S)/S of a step meets X/S in
    ((F + S) ∩ X)/S = ((F ∩ X) + S)/S (modular law), of dimension
    dim(F ∩ X) - dim(F ∩ S), so in the Abel form deg_{m/S}(X/S) =
    deg X - deg S.  With X = U + S, deg U <= deg(U ∩ S) + deg_{m/S}((U + S)/S),
    and U ∩ S has in S the degree it has in m (the subobject's steps are
    the F ∩ S)."""
    k, q = len(sub), len(quot)
    return [
        max((sub[i - 1] if i else 0) + (quot[j - i - 1] if j > i else 0) for i in range(max(0, j - q), min(j, k) + 1))
        for j in range(1, k + q + 1)
    ]


def _mf_canopy(m: MultifilteredSpace, extra) -> list[RankBound]:
    """The canopy of m.  The extra candidates are all reduced first, so rows
    of the wrong width raise whatever the dimension.  A space of dimension
    at most 3 has the exact canopy of `_exact_canopy`.

    Otherwise, for each dimension k, the best degree over the candidates of
    dimension k (the first in family order among ties), and a bound on
    every k-dimensional degree: the relaxation's (`plain`), or the bounds
    through a subspace S (`through`), which read only S and m/S, each an
    exact canopy in dimension <= 3 or one relaxation.  One certificate
    (`passes`) proves S the largest subspace of maximal slope.  Each probe
    (extra candidate) is tested on `plain`, then through itself, and one
    that passes is the canopy alone; then each closure member on `plain`,
    as it is made, and one that passes stops the closure.  A closure read
    to the end whose first edge is uncertified takes the bounds through
    that edge's witness: they only tighten, and the edge, read off the
    degrees found, keeps its value and witness.  The closure is capped at
    _FAMILY_CAP members; the benchmark's work budget meters all of this
    elimination, which runs through `linalg.rref`.  Each subspace's degree,
    quotient, quotient relaxation and bounds through it are made once."""
    probes = [rows for rows in (_rref_rows(e, m.dim) for e in extra) if rows]
    if m.dim <= 3:
        return _exact_canopy(m)
    bounds = _profile_upper_bound(m)
    mu_b = max(bounds)
    plain = [k * b for k, b in enumerate(bounds, 1)]
    memo: dict = {}

    def once(key, make):
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def degree(rows) -> Fraction:
        return once(("degree", rows), lambda: slope_of_subspace(m, rows) * len(rows))

    def quotient(rows) -> MultifilteredSpace:
        return once(("quotient", rows), lambda: quotient_object(m, rows)[0])

    def relaxation(rows) -> list[Fraction]:
        return once(("relaxation", rows), lambda: _profile_upper_bound(quotient(rows)))

    def through(rows) -> list[Fraction]:
        # a subspace of S is one of m, so both bounds on it hold, and
        # `_split_uppers` proves the bounds through S and m/S
        def make():
            sub = list(map(min, plain, _degree_bounds(subobject(m, rows))))
            q = quotient(rows)
            quot = _degree_bounds(q) if q.dim <= 3 else [t * b for t, b in enumerate(relaxation(rows), 1)]
            return list(map(min, plain, _split_uppers(sub, quot)))

        return once(("through", rows), make)

    def passes(rows, uppers=None) -> bool:
        # The one certificate.  S = rows, of dimension k and slope mu, passes
        # on bounds u_j on every j-dimensional degree (`plain` when uppers
        # is None) when (i) u_j <= j mu at every rank and (ii) at each tight
        # rank j > k, u_j = j mu, the rank-(j - k) relaxation bound of m/S is
        # below mu.  Then S holds every subspace of maximal slope.  By (i)
        # no slope exceeds mu, which S attains.  For any maximizer W,
        # supermodularity of the degree gives
        #   deg(S + W) >= deg S + deg W - deg(S ∩ W)
        #              >= mu (dim S + dim W - dim(S ∩ W)) = mu dim(S + W),
        # since deg(S ∩ W) <= mu dim(S ∩ W) (also when S ∩ W = 0).  So S + W
        # is a maximizer, of dimension j say.  If j > k, u_j >= j mu makes j
        # tight, and (S + W)/S is a (j - k)-dimensional subspace of m/S of
        # degree deg(S + W) - deg S = (j - k) mu (deg is additive over S,
        # `_split_uppers`), against (ii).  So S + W = S.  A canopy with these
        # bounds and S at rank k thus has its first edge at S, certified:
        # every candidate on the line of slope mu lies in S, the only one
        # of rank k, and no bound lies above the line.  The whole closure
        # holds S, so its first edge is the same, and no other candidate
        # can pass.  On `plain`, whose slopes are at most mu_b, (i) is
        # deg S = k mu_b and a rank is tight when its bound is mu_b.
        k, deg = len(rows), degree(rows)
        if uppers is None:
            if deg != k * mu_b:
                return False
            tight = [j for j, b in enumerate(bounds[k:], k + 1) if b == mu_b]
        elif any(u * k > deg * j for j, u in enumerate(uppers, 1)):
            return False
        else:
            tight = [j for j, u in enumerate(uppers[k:], k + 1) if u * k == deg * j]
        return all(relaxation(rows)[j - k - 1] * k < deg for j in tight)

    def canopy(found, uppers=plain) -> list[RankBound]:
        return [RankBound(*found.get(k, (None, None)), u) for k, u in enumerate(uppers, 1)]

    for rows in probes:
        if passes(rows):
            return canopy({len(rows): (degree(rows), rows)})
    for rows in probes:
        if len(rows) < m.dim and passes(rows, through(rows)):
            return canopy({len(rows): (degree(rows), rows)}, through(rows))
    # a probe that did not pass enters `best` only at its place in the
    # family, so without a stop every tie-break is the whole closure's
    best: dict[int, tuple[Fraction, Matrix]] = {}
    for rows in _candidate_family(m, extra):
        k, deg = len(rows), degree(rows)
        if k not in best or deg > best[k][0]:
            best[k] = (deg, rows)
        if passes(rows):
            return canopy(best)
    edge = first_edge(canopy(best))
    if edge.certified or len(edge.witness) == m.dim:
        return canopy(best)
    return canopy(best, through(edge.witness))


def mu_max_mf(m: MultifilteredSpace, extra_candidates: Sequence = ()) -> CertifiedMuMax:
    """Supremum of subspace slopes: the first edge
    (`enumeration.first_edge`) of `_mf_canopy`.  A space of dimension at
    most 3 has an exact canopy: the result is certified, and its witness is
    the largest subspace of maximal slope.  A larger one is bounded above by
    the dimension-profile relaxation, and through subspaces, and below by
    the exact slopes of the extra candidates (row lists in ambient
    coordinates), then of the capped intersection/sum closure of the
    filtration steps, and is certified where the bounds meet.  The witness
    is the largest candidate of maximal slope; when the one certificate
    passed, or the closure is complete, it is the largest subspace of
    maximal slope, deg being supermodular."""
    return first_edge(_mf_canopy(m, extra_candidates))


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
    """The canonical filtration: `enumeration.quotient_polygon` over
    `mu_max_mf` of each m/W, `quotient_object`, whose i-th unit vector is the
    image of the i-th completion row, so X lifts to W + X * completion.
    Raises ValueError at the first uncertified stage."""

    def quotient(w: Matrix):
        q, completion = quotient_object(m, w)
        return q, lambda x: _rref_rows(w + linalg.matmul(x, completion), m.dim)

    poly = quotient_polygon(m, (m.dim, m.dim * slope_faltings(m)), mu_max_mf, quotient, len)
    if not poly.certified:
        raise ValueError("uncertified slope polygon; filtration aborted")
    chain = poly.filtration
    if not all(_meet_dim(a, b) == len(a) for a, b in zip(chain, chain[1:])):
        raise AssertionError("quotient witnesses failed to form a chain")
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
