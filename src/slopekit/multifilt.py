"""Finite-dimensional rational vector spaces with several decreasing
exhaustive separated filtrations: slopes, multigraded dimensions, witness
lines, certified mu_max, tensor products, and the abstract slope-inequality
driver shared with euclidean lattices.

A filtration is stored as its value at each break: pairs (lambda, subspace)
with strictly increasing labels and strictly decreasing subspaces, the lowest
space being the whole ambient space (left-continuity pins the value at a
break to the space before the drop)."""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .exactval import fmt_rat, half_log
from .report import Report

F = Fraction

Matrix = linalg.Matrix


def _rref_rows(rows) -> Matrix:
    if not rows:
        return ()
    return linalg.rref(linalg.mat(rows))[0]


class Filtration:
    """Decreasing exhaustive separated filtration with rational breaks."""

    __slots__ = ("ambient_dim", "steps")

    def __init__(self, ambient_dim: int, steps: Sequence[tuple]):
        cleaned: list[tuple[Fraction, Matrix]] = []
        for lam, rows in steps:
            cleaned.append((F(lam), _rref_rows(rows)))
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
        for (l0, s0), (l1, s1) in zip(merged, merged[1:]):
            if not all(linalg.in_row_space(r, s0) for r in s1):
                raise ValueError("filtration subspaces must be decreasing")
            if len(s1) >= len(s0):
                raise ValueError("filtration subspaces must strictly decrease")
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
        w = None
        for lam, space in self.steps:
            if linalg.in_row_space(v, space):
                w = lam
            else:
                break
        if w is None:
            raise ValueError("zero vector has no weight")
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
                        {"lambda": fmt_rat(lam), "basis": [[fmt_rat(x) for x in row] for row in space]}
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
                steps.append((F(str(sd["lambda"])), [[F(str(x)) for x in row] for row in rows]))
            filts.append(Filtration(dim, steps))
        return MultifilteredSpace(dim, filts)

    @staticmethod
    def load(path: str) -> "MultifilteredSpace":
        with open(path) as fh:
            return MultifilteredSpace.from_json_dict(json.load(fh))


def unit_object(n_filtrations: int, breaks: Sequence[Fraction] | None = None) -> MultifilteredSpace:
    """One-dimensional space; break c_v in filtration v (default all 0)."""
    if breaks is None:
        breaks = [F(0)] * n_filtrations
    line = ((F(1),),)
    return MultifilteredSpace(
        1, [Filtration(1, [(c, line)]) for c in breaks]
    )


# ---------------------------------------------------------------------------
# Slope and graded data.

def slope_faltings(m: MultifilteredSpace) -> Fraction:
    """Break-weighted graded dimensions divided by the dimension."""
    total = F(0)
    for f in m.filtrations:
        for lam, d in f.graded_dims():
            total += lam * d
    return total / m.dim


def slope_of_subspace(m: MultifilteredSpace, rows: Matrix) -> Fraction:
    """Slope of a nonzero subspace with the induced filtrations."""
    rows = _rref_rows(rows)
    k = len(rows)
    if k == 0:
        raise ValueError("zero subspace has no slope")
    total = F(0)
    for f in m.filtrations:
        dims = []
        for lam, space in f.steps:
            inter = linalg.intersect_row_spaces(rows, space, m.dim)
            dims.append((lam, len(inter)))
        for i, (lam, d) in enumerate(dims):
            nxt = dims[i + 1][1] if i + 1 < len(dims) else 0
            total += lam * (d - nxt)
    return total / k


def _quotient_data(m_dim: int, sub_rows: Matrix):
    """Completion rows lifting a basis of ambient/sub, plus a projector."""
    sub_rows = _rref_rows(sub_rows)
    completion = []
    current = sub_rows
    for i in range(m_dim):
        e = tuple(F(1 if j == i else 0) for j in range(m_dim))
        if current and linalg.in_row_space(e, current):
            continue
        completion.append(e)
        current = _rref_rows(current + (e,)) if current else _rref_rows((e,))
    full = sub_rows + tuple(completion)

    def project(v) -> tuple[Fraction, ...]:
        coeffs = _coords_in_rows(full, v)
        return tuple(coeffs[len(sub_rows):])

    return tuple(completion), project


def _coords_in_rows(rows: Matrix, v) -> tuple[Fraction, ...]:
    sol = linalg.solve(rows, v)
    if sol is None:
        raise ValueError("vector outside the span")
    return sol


def subobject(m: MultifilteredSpace, rows) -> MultifilteredSpace:
    """The subspace with induced filtrations, in its own coordinates."""
    rows = _rref_rows(rows)
    k = len(rows)
    if k == 0:
        raise ValueError("zero subspace")
    filts = []
    for f in m.filtrations:
        steps = []
        for lam, space in f.steps:
            inter = linalg.intersect_row_spaces(rows, space, m.dim)
            coords = tuple(_coords_in_rows(rows, r) for r in inter)
            steps.append((lam, coords))
        filts.append(Filtration(k, steps))
    return MultifilteredSpace(k, filts)


def quotient_object(m: MultifilteredSpace, rows) -> tuple[MultifilteredSpace, Matrix]:
    """The quotient by a proper subspace, with image filtrations; also returns
    the completion rows identifying quotient coordinates with ambient lifts."""
    rows = _rref_rows(rows)
    q_dim = m.dim - len(rows)
    if q_dim == 0:
        raise ValueError("quotient by the whole space")
    completion, project = _quotient_data(m.dim, rows)
    filts = []
    for f in m.filtrations:
        steps = []
        for lam, space in f.steps:
            imgs = [project(r) for r in space]
            steps.append((lam, _rref_rows([r for r in imgs if any(r)])))
        # image of the lowest step is the whole quotient
        filts.append(Filtration(q_dim, steps))
    return MultifilteredSpace(q_dim, filts), completion


def multigraded_dims(m: MultifilteredSpace) -> dict[tuple, int]:
    """Iterated graded pieces: grade by the last filtration first, then the
    earlier ones on each piece.  Keys are break tuples (lambda_1..lambda_n)."""
    out = _multigraded(m)
    total = sum(out.values())
    if total != m.dim:
        raise AssertionError("graded dimensions do not sum to the dimension")
    mu = slope_faltings(m)
    agg = sum((sum(key) * d for key, d in out.items()), F(0))
    if agg != mu * m.dim:
        raise AssertionError("multigraded aggregate disagrees with the slope")
    return out


def _multigraded(m: MultifilteredSpace) -> dict[tuple, int]:
    if m.n_filtrations == 0:
        return {(): m.dim}
    f = m.filtrations[-1]
    rest = m.filtrations[:-1]
    out: dict[tuple, int] = {}
    for i, (lam, space) in enumerate(f.steps):
        nxt = f.steps[i + 1][1] if i + 1 < len(f.steps) else ()
        if len(space) == len(nxt):
            continue
        piece_dims = _graded_piece(m, rest, space, nxt)
        for key, d in piece_dims.items():
            if d:
                out[key + (lam,)] = out.get(key + (lam,), 0) + d
    return out


def _graded_piece(m, rest, space, nxt) -> dict[tuple, int]:
    """Dims of the iterated graded of (space/nxt) under the induced filtrations."""
    piece_dim = len(space) - len(nxt)
    if not rest:
        return {(): piece_dim}
    # coordinates on the quotient space/nxt
    ambient = m.dim
    completion, project = _quotient_data(ambient, nxt)
    # basis of space/nxt: projections of space rows, rref
    basis = _rref_rows([p for p in (project(r) for r in space) if any(p)])
    filts = []
    for f in rest:
        steps = []
        for lam, fspace in f.steps:
            inter = linalg.intersect_row_spaces(fspace, space, ambient)
            imgs = [project(r) for r in inter]
            img_rows = _rref_rows([r for r in imgs if any(r)])
            steps.append((lam, img_rows))
        filts.append((f, steps))
    # re-coordinate inside the piece (basis rows of the image of `space`)
    piece_filts = []
    for f, steps in filts:
        new_steps = []
        for lam, img_rows in steps:
            coords = tuple(_coords_in_rows(basis, r) for r in img_rows)
            new_steps.append((lam, coords))
        piece_filts.append(Filtration(piece_dim, new_steps))
    piece = MultifilteredSpace(piece_dim, piece_filts)
    return _multigraded(piece)


# ---------------------------------------------------------------------------
# nu and mu_max.

def nu_witness(m: MultifilteredSpace) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Largest break-sum of a line (rank-one subobject slope), with a witness
    vector of exactly those weights.  Agrees with the maximal break-sum over
    nonzero multigraded pieces."""
    if not m.filtrations:
        # every line has break-sum 0, which is the slope
        return F(0), tuple(F(int(i == 0)) for i in range(m.dim))
    break_lists = [f.breaks() for f in m.filtrations]
    tuples = sorted(
        itertools.product(*break_lists), key=lambda t: sum(t), reverse=True
    )
    for tup in tuples:
        inter = None
        for f, lam in zip(m.filtrations, tup):
            space = f.space_at(lam)
            if inter is None:
                inter = space
            else:
                inter = linalg.intersect_row_spaces(inter, space, m.dim)
            if not inter:
                break
        if not inter:
            continue
        bads = []
        degenerate = False
        for f, lam in zip(m.filtrations, tup):
            above = f.space_above(lam)
            bad = linalg.intersect_row_spaces(inter, above, m.dim) if above else ()
            if len(bad) == len(inter):
                degenerate = True
                break
            bads.append(bad)
        if degenerate:
            continue  # every vector here has a higher weight; a larger tuple covers it
        v = _avoid_subspaces(inter, bads)
        value = sum(tup, F(0))
        mu = slope_faltings(m)
        if value < mu:
            raise AssertionError("witness value below the slope")
        return value, v
    raise AssertionError("no witness line found")


def _avoid_subspaces(span_rows: Matrix, bads: Sequence[Matrix]) -> tuple[Fraction, ...]:
    """A vector in the span avoiding finitely many proper subspaces."""
    v = span_rows[0]
    handled: list[Matrix] = []
    for bad in bads:
        if bad and linalg.in_row_space(v, bad):
            b = next(r for r in span_rows if not linalg.in_row_space(r, bad))
            t = 1
            while True:
                cand = tuple(x + t * y for x, y in zip(v, b))
                if not any(
                    w and linalg.in_row_space(cand, w) for w in handled + [bad]
                ):
                    v = cand
                    break
                t += 1
        handled.append(bad)
    return v


@dataclass(frozen=True)
class MfMuMax:
    value: Fraction
    witness: Matrix
    upper: Fraction
    certified: bool


def _candidate_family(m: MultifilteredSpace, extra, seed: int, rand_count: int, cap: int):
    seen: dict[Matrix, None] = {}

    def add(rows):
        rows = _rref_rows(rows)
        if rows and rows not in seen:
            seen[rows] = None
            return rows
        return None

    add(linalg.identity(m.dim))
    for f in m.filtrations:
        for _, space in f.steps:
            add(space)
    frontier = list(seen)
    while frontier and len(seen) < cap:
        new = []
        current = list(seen)
        for a in frontier:
            for b in current:
                if a == b:
                    continue
                i = linalg.intersect_row_spaces(a, b, m.dim)
                s = linalg.sum_row_spaces(a, b)
                for rows in (i, s):
                    got = add(rows)
                    if got is not None:
                        new.append(got)
                if len(seen) >= cap:
                    break
            if len(seen) >= cap:
                break
        frontier = new
    for rows in extra:
        add(rows)
    rng = random.Random(seed)
    for _ in range(rand_count):
        k = rng.randint(1, m.dim)
        rows = [
            tuple(F(rng.randint(-2, 2)) for _ in range(m.dim)) for _ in range(k)
        ]
        add(rows)
    return list(seen)


def _profile_upper_bound(m: MultifilteredSpace) -> Fraction:
    """Max over dimension-profile relaxations of the induced slope: per
    filtration the intersection dimensions are bounded monotone sequences,
    coupled across filtrations by exact ambient intersection dimensions."""
    n = m.n_filtrations
    steps = [f.steps for f in m.filtrations]
    # pairwise (and for n >= 3, triple) ambient intersection dims
    pair_dim: dict[tuple, int] = {}
    for v in range(n):
        for w in range(v + 1, n):
            for i, (_, si) in enumerate(steps[v]):
                for j, (_, sj) in enumerate(steps[w]):
                    pair_dim[(v, i, w, j)] = len(
                        linalg.intersect_row_spaces(si, sj, m.dim)
                    )
    triple_dim: dict[tuple, int] = {}
    if n >= 3:
        for v, w, x in itertools.combinations(range(n), 3):
            for i in range(len(steps[v])):
                for j in range(len(steps[w])):
                    si = linalg.intersect_row_spaces(
                        steps[v][i][1], steps[w][j][1], m.dim
                    )
                    for l in range(len(steps[x])):
                        triple_dim[(v, i, w, j, x, l)] = len(
                            linalg.intersect_row_spaces(si, steps[x][l][1], m.dim)
                        )

    best_overall: Optional[Fraction] = None
    for k in range(1, m.dim + 1):
        per_v: list[list[tuple[Fraction, tuple[int, ...]]]] = []
        for v in range(n):
            brks = [lam for lam, _ in steps[v]]
            adims = [len(s) for _, s in steps[v]]
            profs: list[tuple[Fraction, tuple[int, ...]]] = []

            def rec(i, prev, acc):
                if i == len(brks):
                    contrib = F(0)
                    for t in range(len(acc)):
                        nxt = acc[t + 1] if t + 1 < len(acc) else 0
                        contrib += brks[t] * (acc[t] - nxt)
                    profs.append((contrib, tuple(acc)))
                    return
                lo = max(0, prev - (adims[i - 1] - adims[i])) if i > 0 else k
                hi = min(prev, adims[i], k) if i > 0 else k
                for d in range(hi, lo - 1, -1):
                    acc.append(d)
                    rec(i + 1, d, acc)
                    acc.pop()

            rec(0, k, [])
            profs.sort(key=lambda t: t[0], reverse=True)
            per_v.append(profs)

        best_k: Optional[Fraction] = None
        suffix_max = [F(0)] * (n + 1)
        for v in range(n - 1, -1, -1):
            suffix_max[v] = suffix_max[v + 1] + per_v[v][0][0]

        def feasible(chosen, v, prof):
            for w in range(v):
                other = chosen[w]
                for i, d in enumerate(prof):
                    for j, e in enumerate(other):
                        if d + e - k > pair_dim[(w, j, v, i)]:
                            return False
            if n >= 3:
                for w, x in itertools.combinations(range(v), 2):
                    pw, px = chosen[w], chosen[x]
                    for i, d in enumerate(prof):
                        for j, e in enumerate(pw):
                            for l, g in enumerate(px):
                                key = (w, j, x, l, v, i)
                                if d + e + g - 2 * k > triple_dim[key]:
                                    return False
            return True

        def dfs(v, chosen, total):
            nonlocal best_k
            if v == n:
                if best_k is None or total > best_k * k:
                    best_k = total / k
                return
            for contrib, prof in per_v[v]:
                if best_k is not None and total + contrib + suffix_max[v + 1] <= best_k * k:
                    break
                if feasible(chosen, v, prof):
                    chosen.append(prof)
                    dfs(v + 1, chosen, total + contrib)
                    chosen.pop()

        dfs(0, [], F(0))
        if best_k is not None and (best_overall is None or best_k > best_overall):
            best_overall = best_k
    assert best_overall is not None
    return best_overall


def mu_max_mf(
    m: MultifilteredSpace,
    extra_candidates: Sequence = (),
    seed: int = 0,
    rand_count: int = 8,
    family_cap: int = 400,
) -> MfMuMax:
    """Certified-when-bounds-meet supremum of subspace slopes.

    Lower bound: exact slopes over the intersection/sum closure of the
    filtration steps, user-supplied candidates, and seeded random subspaces.
    Upper bound: the dimension-profile relaxation.  certified = bounds meet.
    """
    cands = _candidate_family(m, extra_candidates, seed, rand_count, family_cap)
    best: Optional[Fraction] = None
    maximizers: list[Matrix] = []
    for rows in cands:
        s = slope_of_subspace(m, rows)
        if best is None or s > best:
            best = s
            maximizers = [rows]
        elif s == best:
            maximizers.append(rows)
    # the canonical destabilizer is the largest subspace of maximal slope;
    # the span of all maximizers can only improve or tie the slope
    span = maximizers[0]
    for rows in maximizers[1:]:
        span = linalg.sum_row_spaces(span, rows)
    s_span = slope_of_subspace(m, span)
    if s_span >= best:
        best = s_span
        witness = span
    else:
        witness = max(maximizers, key=len)
    upper = _profile_upper_bound(m)
    if upper < best:
        raise AssertionError("relaxation bound fell below an exact subspace slope")
    return MfMuMax(value=best, witness=witness, upper=upper, certified=upper == best)


def is_semistable_mf(m: MultifilteredSpace, **kw) -> bool:
    res = mu_max_mf(m, **kw)
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
            rows: list[tuple[Fraction, ...]] = []
            for l1, s1 in f1.steps:
                for l2, s2 in f2.steps:
                    if l1 + l2 >= s:
                        for r1 in s1:
                            for r2 in s2:
                                rows.append(tuple(x * y for x in r1 for y in r2))
            steps.append((s, _rref_rows(rows)))
        filts.append(Filtration(dim, steps))
    return MultifilteredSpace(dim, filts)


def dual_mf(m: MultifilteredSpace) -> MultifilteredSpace:
    """Breaks negate: F^{>=lam}(dual) = annihilator of F^{>-lam}."""
    filts = []
    for f in m.filtrations:
        steps = []
        s = len(f.steps)
        for i in range(s - 1, -1, -1):
            lam = f.steps[i][0]
            above = f.steps[i + 1][1] if i + 1 < s else ()
            ann = linalg.annihilator(above, m.dim) if above else linalg.identity(m.dim)
            steps.append((-lam, ann))
        filts.append(Filtration(m.dim, steps))
    return MultifilteredSpace(m.dim, filts)


# ---------------------------------------------------------------------------
# Canonical filtration.

def slope_filtration_mf(m: MultifilteredSpace, **kw) -> tuple[Matrix, ...]:
    """Chain of subspaces by iterated maximal destabilizer (max slope, then
    max dimension); quotient slopes strictly decrease.  Every stage must
    certify."""
    chain: list[Matrix] = []
    prev_rows: Matrix = ()
    prev_slope: Optional[Fraction] = None
    current = m
    lift_rows = linalg.identity(m.dim)
    while True:
        res = mu_max_mf(current, **kw)
        if not res.certified:
            raise ValueError("uncertified mu_max stage; filtration aborted")
        # witness in ambient coordinates
        wit_ambient = _rref_rows(
            [linalg.matvec(linalg.transpose(lift_rows), r) for r in res.witness]
        )
        step_rows = linalg.sum_row_spaces(prev_rows, wit_ambient) if prev_rows else wit_ambient
        piece_slope = res.value
        if prev_slope is not None and piece_slope >= prev_slope:
            raise AssertionError("quotient slopes must strictly decrease")
        chain.append(step_rows)
        prev_slope = piece_slope
        prev_rows = step_rows
        if len(step_rows) == m.dim:
            return tuple(chain)
        current, completion = quotient_object(m, step_rows)
        lift_rows = completion


# ---------------------------------------------------------------------------
# Abstract inequality suite (lattices: correction 1/2*log rank; here: 0).

def inequality_suite(instance) -> Report:
    kind = instance[0]
    rep = Report(name=f"slope-inequalities-{kind}")
    if kind == "lattice":
        from .enumeration import minimum_sq, mu_max

        _, l1, l2 = instance
        t = l1.tensor(l2)
        m1, m2, mt = mu_max(l1), mu_max(l2), mu_max(t)
        rep.require(
            "inputs_certified",
            m1.certified and m2.certified and mt.certified,
            "all three mu_max searches certified",
        )
        nu_t = -half_log(minimum_sq(t))
        rho1, rho2 = half_log(l1.rank), half_log(l2.rank)
        rho_t = half_log(t.rank)
        mu_t = mt.value
        rep.require(
            "tensor_line_bound",
            nu_t <= m1.value + m2.value,
            f"nu(tensor) = {nu_t} <= {m1.value + m2.value}",
        )
        rep.require(
            "line_plus_correction_bound",
            mu_t <= nu_t + rho_t,
            f"mu_max(tensor) = {mu_t} <= nu + rho = {nu_t + rho_t}",
        )
        rep.require(
            "tensor_mu_max_upper",
            mu_t <= m1.value + rho1 + m2.value + rho2,
            f"mu_max(tensor) = {mu_t} <= sum of mu_max + corrections",
        )
        rep.require(
            "tensor_mu_max_lower",
            mu_t >= m1.value + m2.value,
            f"mu_max(tensor) = {mu_t} >= {m1.value + m2.value}",
        )
    elif kind == "multifilt":
        _, x1, x2 = instance
        t = tensor_mf(x1, x2)
        r1 = mu_max_mf(x1)
        r2 = mu_max_mf(x2)
        w = [
            tuple(a * b for a in wa for b in wb)
            for wa in r1.witness
            for wb in r2.witness
        ]
        rt = mu_max_mf(t, extra_candidates=[w])
        rep.require(
            "inputs_certified",
            r1.certified and r2.certified and rt.certified,
            "all three mu_max computations certified",
        )
        nu_t, _ = nu_witness(t)
        rep.require(
            "tensor_line_bound",
            nu_t <= r1.value + r2.value,
            f"nu(tensor) = {nu_t} <= {r1.value + r2.value}",
        )
        rep.require(
            "line_plus_correction_bound",
            rt.value <= nu_t,
            f"mu_max(tensor) = {rt.value} <= nu = {nu_t} (zero correction)",
        )
        rep.require(
            "tensor_mu_max_upper",
            rt.value <= r1.value + r2.value,
            f"mu_max(tensor) = {rt.value} <= {r1.value + r2.value}",
        )
        rep.require(
            "tensor_mu_max_lower",
            rt.value >= r1.value + r2.value,
            f"mu_max(tensor) = {rt.value} >= {r1.value + r2.value}",
        )
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    return rep
