"""The benchmark's workloads: seeded input generators, one op per instance of
the paper's check, and the invariants every op must satisfy.

Inputs are drawn here, not by ``slopekit.harness``, so that a library change
cannot alter a workload.  Op ``i`` draws its instance from a generator seeded
with ``"<workload>:<i>"`` and then applies a random signed permutation of
coordinates drawn from ``"<workload>:<seed>:<i>"``.  The seed therefore
changes every Gram matrix and every filtration basis, but not the instance up
to isometry, so runs with different seeds do the same work (common random
numbers).  Without this, the cost of op ``i`` spans three decades on
``mf-tensor`` and the seed-to-seed spread of a run of a few hundred ops is
10-60 % on every timing metric.  The list for a seed is fixed, and each
prefix of it is the same whatever the list length.

Each op returns ``(outcome, summary)``: ``outcome`` is ``"ok"``,
``"uncertified"`` or ``"wrong"``; ``summary`` holds the exact outputs that are
compared with the stored reference of the default seed.  The exact helpers
below (determinant, RREF, HNF) are the benchmark's own, so a defect in
``slopekit.linalg`` cannot hide itself from the checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

# gamma_n^n, n = 1..6: Hermite constants of the tensor ranks drawn below.
HERMITE_POW = {1: F(1), 2: F(4, 3), 3: F(2), 4: F(4), 5: F(8), 6: F(64, 3)}


# ---------------------------------------------------------------------------
# Exact helpers.

def det(m) -> F:
    """Determinant of a square rational matrix: denominators cleared, then
    fraction-free (Bareiss) elimination on integers."""
    lcm = 1
    for row in m:
        for x in row:
            d = F(x).denominator
            lcm = lcm * d // math.gcd(lcm, d)
    a = [[int(F(x) * lcm) for x in row] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for c in range(n - 1):
        if a[c][c] == 0:
            piv = next((i for i in range(c + 1, n) if a[i][c] != 0), None)
            if piv is None:
                return F(0)
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[c][c] - a[i][c] * a[c][j]) // prev
        prev = a[c][c]
    return F(sign * a[n - 1][n - 1], lcm**n)


def rref(rows) -> tuple:
    """Reduced row echelon form with zero rows dropped: a canonical key of the
    row space."""
    m = [[F(x) for x in row] for row in rows]
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return tuple(tuple(row) for row in m[:r])


def hnf(rows) -> tuple:
    """Row Hermite normal form of an integer matrix of full row rank: positive
    pivots, entries above each pivot reduced into [0, pivot)."""
    a = [[int(x) for x in row] for row in rows]
    k, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        if r == k:
            break
        for i in range(r + 1, k):
            while a[i][c] != 0:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                a[r], a[i] = a[i], a[r]
        if a[r][c] == 0:
            continue
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return tuple(tuple(row) for row in a[:r])


def gram(b) -> list:
    """B * B^T."""
    return [[sum(x * y for x, y in zip(r1, r2)) for r2 in b] for r1 in b]


def induced_gram(basis, g) -> list:
    """basis * G * basis^T."""
    gb = [[sum(row[i] * g[i][j] for i in range(len(g))) for j in range(len(g))] for row in basis]
    return [[sum(x * y for x, y in zip(u, v)) for v in basis] for u in gb]


def random_invertible(rng: random.Random, n: int, bound: int) -> list:
    while True:
        b = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if det(b) != 0:
            return b


def rngs(name: str, seed: int, i: int) -> tuple[random.Random, random.Random]:
    """Op i's instance generator, shared by all seeds, and its seeded
    coordinate generator."""
    return random.Random(f"{name}:{i}"), random.Random(f"{name}:{seed}:{i}")


def signed_permutation(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(p, rng.choice((1, -1))) for p in perm]


def permute_rows(rng: random.Random, b) -> list:
    """P*B for a random signed permutation P: a new basis of the same
    lattice, so B*B^T changes by an isometry."""
    return [[s * x for x in b[p]] for p, s in signed_permutation(rng, len(b))]


# ---------------------------------------------------------------------------
# Exact values in the reference files.  A LogRational is stored as its
# constant and its (base, coefficient) terms and rebuilt by the public
# constructor, so values are compared by value, whatever internal form a
# later version keeps.

def encode_log(v) -> list:
    return [str(v.constant), [[int(b), str(c)] for b, c in v.terms]]


def decode_log(sk, data):
    constant, terms = data
    return sk.exactval.LogRational(F(constant), {b: F(c) for b, c in terms})


# ---------------------------------------------------------------------------
# lattice-tensor: criterion 4 restricted to tensor rank 4..6.  Enumeration
# (LLL, Fincke-Pohst, the dense-sublattice DFS) does most of the work and
# multifilt none; rank <= 3 tensors take about 1 ms and would only dilute the
# percentiles.

LATTICE_SHAPES = ((2, 2), (2, 3), (3, 2))


def lattice_tensor_input(seed: int, i: int):
    inst, coords = rngs("lattice-tensor", seed, i)
    r1, r2 = LATTICE_SHAPES[i % len(LATTICE_SHAPES)]
    b1, b2 = random_invertible(inst, r1, 2), random_invertible(inst, r2, 2)
    return permute_rows(coords, b1), permute_rows(coords, b2)


def lattice_tensor_op(sk, inp):
    ev = sk.exactval
    b1, b2 = inp
    l1 = sk.lattice.EuclideanLattice(gram(b1))
    l2 = sk.lattice.EuclideanLattice(gram(b2))
    t = l1.tensor(l2)
    lats = (l1, l2, t)
    results = [sk.enumeration.mu_max(lat) for lat in lats]
    ok = True
    for lat, res in zip(lats, results):
        basis = res.witness.basis
        w_slope = -ev.half_log(det(induced_gram(basis, lat.gram))) / len(basis)
        ok = ok and res.value == w_slope and res.value >= lat.slope()
    certified = all(res.certified for res in results)
    if certified:
        m1, m2, mt = (res.value for res in results)
        r1, r2 = l1.rank, l2.rank
        ok = (
            ok
            and mt >= m1 + m2
            and mt <= m1 + m2 + ev.half_log(r1) + ev.half_log(r2)
            and mt <= m1 + m2 + ev.log_of_rational(HERMITE_POW[r1 * r2]) / (2 * r1 * r2)
        )
    summary = [(res.value, hnf(res.witness.basis), res.certified) for res in results]
    return outcome(ok, certified), summary


def lattice_tensor_json(summary):
    return [{"value": encode_log(v), "hnf": [list(r) for r in h], "certified": c} for v, h, c in summary]


def lattice_tensor_matches(sk, summary, ref) -> bool:
    for (value, h, certified), want in zip(summary, ref):
        if certified and want["certified"]:
            if value != decode_log(sk, want["value"]) or h != tuple(map(tuple, want["hnf"])):
                return False
    return True


# ---------------------------------------------------------------------------
# mf-tensor: the criterion-7 shape (dim <= 3, at most 3 filtrations).  The
# candidate closure, the profile bound and Fraction elimination do the work;
# enumeration and exactval do none.  About one pair in 20 (mostly both factors
# 3-dimensional) blows up the closure and overspends its work budget.

MF_SHAPES = tuple((d1, d2, nf) for d1 in (1, 2, 3) for d2 in (1, 2, 3) for nf in (1, 2, 3))


def random_filtration(rng: random.Random, dim: int) -> list:
    """Steps (break, basis rows) of a random filtration, the distribution of
    ``repro_thm07``: breaks in [-3, 3], at most 3 steps."""
    b = random_invertible(rng, dim, 2)
    n_steps = rng.randint(1, dim)
    breaks = sorted(rng.sample(range(-3, 4), n_steps))
    sizes = [dim] + sorted(rng.sample(range(1, dim), n_steps - 1), reverse=True)
    return [(lam, b[:size]) for lam, size in zip(breaks, sizes)]


# Three distinct weight-1 lines in Q^2, tensored with the unit: the slope is
# 3/2 but the best line has value 1, so nu_witness's assertion "witness value
# below the slope" fails.  The random pairs hit this defect about once in 600
# ops, later than a run reaches, so the list starts with it.
NU_WITNESS_COUNTEREXAMPLE = (
    (2, [[(0, [[1, 0], [0, 1]]), (1, [line])] for line in ([1, 0], [0, 1], [1, 1])]),
    (1, [[(0, [[1]])] for _ in range(3)]),
)


def mf_tensor_input(seed: int, i: int):
    """Two factors, each with its filtration bases in coordinates changed by
    one signed permutation (an isomorphism of multifiltered spaces)."""
    inst, coords = rngs("mf-tensor", seed, i)
    d1, d2, nf = MF_SHAPES[i % len(MF_SHAPES)]
    factors = [(d, [random_filtration(inst, d) for _ in range(nf)]) for d in (d1, d2)]
    if i == 0:
        factors = NU_WITNESS_COUNTEREXAMPLE
    out = []
    for d, filts in factors:
        q = signed_permutation(coords, d)
        out.append((d, [
            [(lam, [[s * row[p] for p, s in q] for row in rows]) for lam, rows in steps]
            for steps in filts
        ]))
    return tuple(out)


def subspace_slope(m, rows) -> F:
    """Slope of a subspace under the induced filtrations, from the stored
    filtration steps: dim(W cap S) = dim W + dim S - dim(W + S)."""
    w = rref(rows)
    k = len(w)
    total = F(0)
    for f in m.filtrations:
        dims = [k + len(s) - len(rref(w + tuple(s))) for _, s in f.steps]
        dims.append(0)
        total += sum(lam * (dims[j] - dims[j + 1]) for j, (lam, _) in enumerate(f.steps))
    return total / k


def mf_tensor_op(sk, inp):
    mf = sk.multifilt
    spaces = [
        mf.MultifilteredSpace(d, [mf.Filtration(d, steps) for steps in filts])
        for d, filts in inp
    ]
    m1, m2 = spaces
    r1 = mf.mu_max_mf(m1)
    r2 = mf.mu_max_mf(m2)
    t = mf.tensor_mf(m1, m2)
    products = [tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness]
    rt = mf.mu_max_mf(t, extra_candidates=[products])
    nu, _ = mf.nu_witness(t)
    ok = True
    for m, res in ((m1, r1), (m2, r2), (t, rt)):
        ok = (
            ok
            and res.value <= res.upper
            and res.certified == (res.value == res.upper)
            and subspace_slope(m, res.witness) == res.value
        )
    ok = ok and nu <= (rt.value if rt.certified else rt.upper)
    certified = r1.certified and r2.certified and rt.certified
    if certified:
        ok = ok and rt.value == r1.value + r2.value
    summary = [(res.value, rref(res.witness), res.certified) for res in (r1, r2, rt)]
    return outcome(ok, certified), summary


def mf_tensor_json(summary):
    return [
        {"value": str(v), "witness": [[str(x) for x in row] for row in w], "certified": c}
        for v, w, c in summary
    ]


def mf_tensor_matches(sk, summary, ref) -> bool:
    for (value, w, certified), want in zip(summary, ref):
        if certified and want["certified"]:
            want_w = tuple(tuple(F(x) for x in row) for row in want["witness"])
            if value != F(want["value"]) or w != want_w:
                return False
    return True


# ---------------------------------------------------------------------------
# exact-degrees: criterion-5 degree laws on rank 1..4, entries in [-100, 100],
# with one hermitian manifest op in every MANIFEST_EVERY ops.  Factoring the
# same large determinants again and again dominates; it is the workload of
# exactval and hermitian.

MANIFESTS = ("a2", "q7", "qp5", "qp13", "qp37")
MANIFEST_EVERY = 20


def degree_lattice(seed: int, j: int):
    inst, coords = rngs("exact-degrees:lattice", seed, j)
    b = random_invertible(inst, 1 + j % 4, 100)
    return permute_rows(coords, b), F(inst.randint(1, 9), inst.randint(1, 9))


def exact_degrees_input(seed: int, i: int):
    if i % MANIFEST_EVERY == MANIFEST_EVERY - 1:
        return MANIFESTS[(i // MANIFEST_EVERY) % len(MANIFESTS)]
    j = i - i // MANIFEST_EVERY  # index among the degree ops
    b, c = degree_lattice(seed, j)
    neighbour, _ = degree_lattice(seed, j + 1)
    return b, neighbour, c


def run_manifest(sk, name: str):
    h = sk.hermitian
    if name == "a2":
        return h.a2_twist_checks()
    if name == "q7":
        return h.q7_checks()
    return h.qp_checks(int(name[2:]))


def exact_degrees_op(sk, inp):
    if isinstance(inp, str):
        return outcome(run_manifest(sk, inp).passed, True), None
    ev = sk.exactval
    b, b_next, c = inp
    g = gram(b)
    lat = sk.lattice.EuclideanLattice(g)
    other = sk.lattice.EuclideanLattice(gram(b_next))
    t = lat.tensor(other)
    deg = lat.degree()
    ok = (
        deg == -ev.half_log(det(g))
        and t.slope() == lat.slope() + other.slope()
        and t.degree() == other.rank * deg + lat.rank * other.degree()
        and lat.dual().degree() == -deg
        and lat.scale(c).degree() == deg - lat.rank * ev.half_log(c)
        and lat.exterior_power(lat.rank).degree() == deg
    )
    return outcome(ok, True), (deg, t.degree())


def exact_degrees_json(summary):
    return None if summary is None else [encode_log(v) for v in summary]


def exact_degrees_matches(sk, summary, ref) -> bool:
    if summary is None or ref is None:
        return summary is None and ref is None
    return all(v == decode_log(sk, want) for v, want in zip(summary, ref))


# ---------------------------------------------------------------------------

def outcome(ok: bool, certified: bool) -> str:
    if not ok:
        return "wrong"
    return "ok" if certified else "uncertified"


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable  # (seed, op index) -> op input
    op: Callable  # (slopekit namespace, op input) -> (outcome, summary)
    to_json: Callable  # summary -> reference record
    matches: Callable  # (slopekit namespace, summary, reference record) -> bool
    period: int  # the op list repeats its mix of shapes every `period` ops
    period_s: float  # nominal seconds one period took when the benchmark was tuned
    list_len: int  # length of the generated op list
    prefix_ops: int  # ops in the traced run and before the memory reading
    deadline_s: float  # per-op deadline in nominal seconds; an op past it is a timeout
    work_budget: int | None = None  # per-op elimination work, the deadline where set

    def run_length(self, seconds: float) -> int:
        """Ops in a run that should take `seconds`: whole periods, at least
        one, and a function of `seconds` alone, so that every run of the
        same code does the same work."""
        return self.period * max(1, round(seconds / self.period_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice-tensor",
            lattice_tensor_input,
            lattice_tensor_op,
            lattice_tensor_json,
            lattice_tensor_matches,
            period=len(LATTICE_SHAPES),
            period_s=0.38,
            list_len=800,
            prefix_ops=72,
            deadline_s=20.0,
        ),
        Workload(
            "mf-tensor",
            mf_tensor_input,
            mf_tensor_op,
            mf_tensor_json,
            mf_tensor_matches,
            period=len(MF_SHAPES),
            period_s=3.5,
            list_len=600,
            prefix_ops=54,
            deadline_s=20.0,
            work_budget=1_300_000,
        ),
        Workload(
            "exact-degrees",
            exact_degrees_input,
            exact_degrees_op,
            exact_degrees_json,
            exact_degrees_matches,
            period=MANIFEST_EVERY,
            period_s=0.61,
            list_len=2000,
            prefix_ops=200,
            deadline_s=20.0,
        ),
    )
}


def make_ops(workload: Workload, seed: int, count: int) -> list:
    return [workload.make_input(seed, i) for i in range(count)]
