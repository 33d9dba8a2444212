"""Randomized experiments, reproduction dispatch, and report emission.

Everything here is a deterministic function of the configuration: fixed seeds
drive all randomness, records are merged in instance order, and every numeric
in a report carries its exact form next to a float rendering.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .enumeration import (
    SlopePolygon,
    hermite_constant_pow,
    mu_max,
)
from .exactval import LogRational, half_log, log_of_rational
from .lattice import EuclideanLattice
from .multifilt import (
    Filtration,
    MultifilteredSpace,
    mu_max_mf,
    multigraded_dims,
    slope_faltings,
    tensor_mf,
)
from .report import Report, SCOPE_NOTE

F = Fraction


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    count: int = 50
    max_rank: int = 3
    entry_bound: int = 2
    node_cap: int = 2_000_000
    max_tensor_rank: int = 6

    def __post_init__(self):
        for name in ExperimentConfig.__dataclass_fields__:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        # max_tensor_rank >= 1 lets the rank draw (1, 1) end the redraw loop
        for name in ("count", "max_rank", "entry_bound", "node_cap", "max_tensor_rank"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_tensor_rank > 8:  # the last rank hermite_constant_pow tabulates
            raise ValueError(f"max_tensor_rank must be at most 8 (Hermite table), got {self.max_tensor_rank}")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        allowed = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**data)

    @staticmethod
    def from_toml(path: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(read_flat_toml(path))


def read_flat_toml(path: str) -> dict:
    """Minimal flat TOML subset: `key = value` lines with integer values, and
    # comments.  Enough to mirror ExperimentConfig, whose fields are all
    integers."""
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                raise ValueError(f"{path}:{lineno}: sections are not supported")
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                out[key] = int(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unsupported value {value!r}") from exc
    return out


# ---------------------------------------------------------------------------
# Random instance generators (deterministic in the rng state).

def random_lattice(rng: random.Random, rank: int, entry_bound: int = 2) -> EuclideanLattice:
    """Gram = B*B^T for a random invertible integer matrix B (1000 draws)."""
    for _ in range(1000):
        b = [[rng.randint(-entry_bound, entry_bound) for _ in range(rank)] for _ in range(rank)]
        if linalg.det_bareiss(linalg.mat(b)) != 0:
            gram = [[sum(x * y for x, y in zip(r1, r2)) for r2 in b] for r1 in b]
            return EuclideanLattice(gram)
    raise RuntimeError("failed to draw an invertible matrix")


def random_unimodular_lattice(rng: random.Random, rank: int) -> EuclideanLattice:
    """Gram = U*U^T for a random unimodular U built from 8 elementary row ops."""
    u = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for _ in range(8):
        i, j = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    gram = [[sum(x * y for x, y in zip(r1, r2)) for r2 in u] for r1 in u]
    return EuclideanLattice(gram)


def random_multifiltered(rng: random.Random, dim: int, n_filts: int) -> MultifilteredSpace:
    filts = []
    for _ in range(n_filts):
        while True:
            b = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
            if linalg.rank(linalg.mat(b)) == dim:
                break
        n_steps = rng.randint(1, min(3, dim))
        breaks = sorted(rng.sample(range(-3, 4), n_steps))
        sizes = [dim]
        if n_steps > 1:
            sizes += sorted(rng.sample(range(1, dim), n_steps - 1), reverse=True)
        steps = [(F(lam), b[:size]) for lam, size in zip(breaks, sizes)]
        filts.append(Filtration(dim, steps))
    return MultifilteredSpace(dim, filts)


# ---------------------------------------------------------------------------
# Tensor-bound experiment.

@dataclass(frozen=True)
class GapRecord:
    index: int
    ranks: tuple[int, int]
    mu1: LogRational
    mu2: LogRational
    mu_tensor: LogRational
    bound_sqrt_rank: LogRational
    bound_hermite: LogRational
    certified: bool

    @property
    def gap(self) -> LogRational:
        return self.bound_sqrt_rank - self.mu_tensor

    @property
    def residual(self) -> LogRational:
        return self.mu_tensor - (self.mu1 + self.mu2)

    def to_dict(self) -> dict:
        def num(v: LogRational) -> dict:
            return {"exact": v.render(), "float": v.float_approx()}

        return {
            "index": self.index,
            "ranks": list(self.ranks),
            "mu1": num(self.mu1),
            "mu2": num(self.mu2),
            "mu_tensor": num(self.mu_tensor),
            "bound_sqrt_rank": num(self.bound_sqrt_rank),
            "bound_hermite": num(self.bound_hermite),
            "gap": num(self.gap),
            "residual": num(self.residual),
            "certified": self.certified,
        }


def half_log_hermite(rank: int) -> LogRational:
    """(1/2)*log(gamma_rank) from the exact gamma^rank table."""
    return log_of_rational(hermite_constant_pow(rank)) / (2 * rank)


def bost_experiment(cfg: ExperimentConfig, unimodular: bool = False) -> tuple[list[GapRecord], dict]:
    """Seeded random lattice pairs: exact tensor slope-maximum against both
    the sqrt-rank and the Hermite-constant upper bounds, plus the
    superadditivity residual.  Violations are never dropped."""
    rng = random.Random(cfg.seed)
    records: list[GapRecord] = []
    violations = []
    uncertified = []
    for idx in range(cfg.count):
        while True:
            r1 = rng.randint(1, cfg.max_rank)
            r2 = rng.randint(1, cfg.max_rank)
            if r1 * r2 <= cfg.max_tensor_rank:
                break
        if unimodular:
            l1 = random_unimodular_lattice(rng, r1)
            l2 = random_unimodular_lattice(rng, r2)
        else:
            l1 = random_lattice(rng, r1, cfg.entry_bound)
            l2 = random_lattice(rng, r2, cfg.entry_bound)
        m1 = mu_max(l1, cfg.node_cap)
        m2 = mu_max(l2, cfg.node_cap)
        mt = mu_max(l1.tensor(l2), cfg.node_cap)
        certified = m1.certified and m2.certified and mt.certified
        bound1 = m1.value + m2.value + half_log(r1) + half_log(r2)
        bound2 = m1.value + m2.value + half_log_hermite(r1 * r2)
        rec = GapRecord(
            index=idx,
            ranks=(r1, r2),
            mu1=m1.value,
            mu2=m2.value,
            mu_tensor=mt.value,
            bound_sqrt_rank=bound1,
            bound_hermite=bound2,
            certified=certified,
        )
        records.append(rec)
        if not certified:
            uncertified.append(idx)
        elif rec.gap < LogRational(0) or rec.residual < LogRational(0) or mt.value > bound2:
            violations.append(idx)
    gaps = [r.gap for r in records if r.certified]
    summary = {
        "count": cfg.count,
        "unimodular": unimodular,
        "certified": cfg.count - len(uncertified),
        "uncertified_indices": uncertified,
        "violations": violations,
        "max_gap": max(gaps).render() if gaps else None,
        "min_gap": min(gaps).render() if gaps else None,
        "all_residuals_zero": all(
            r.residual == LogRational(0) for r in records if r.certified
        ),
    }
    return records, summary


# ---------------------------------------------------------------------------
# Reproduction dispatch.

# Bounds on the dimension and the number of filtrations of the random
# multifiltered spaces each reproduction draws.
MF_LEMMA_MAX_DIM = 5
MF_LEMMA_MAX_FILTS = 3
THM07_MAX_DIM = 3
THM07_MAX_FILTS = 3


def repro_mf_lemma(seed: int = 0, count: int = 50) -> Report:
    """Random multifiltered spaces: the multigraded aggregate equals the slope
    for every permutation of the filtration order."""
    import itertools

    if count < 1:
        raise ValueError("count must be positive")
    rep = Report(name="mf-lemma")
    rng = random.Random(seed)
    for _ in range(count):
        m = random_multifiltered(
            rng, rng.randint(1, MF_LEMMA_MAX_DIM), rng.randint(1, MF_LEMMA_MAX_FILTS)
        )
        for order in itertools.permutations(range(m.n_filtrations)):
            # raises ReproFailure unless the aggregate equals slope*dim
            multigraded_dims(m.permuted(order))
    rep.require(
        "multigraded_aggregate",
        True,
        f"{count}/{count} instances: aggregate equals slope*dim for every "
        f"filtration order (dim <= {MF_LEMMA_MAX_DIM}, filtrations <= {MF_LEMMA_MAX_FILTS})",
    )
    rep.note(SCOPE_NOTE)
    return rep


def repro_thm07(seed: int = 0, count: int = 50) -> Report:
    """Certified random pairs: slope-maximum additivity under tensor product,
    with the line-value bounds checked on every instance."""
    from .multifilt import nu_witness

    if count < 1:
        raise ValueError("count must be positive")
    rep = Report(name="thm07")
    rng = random.Random(seed)
    done = 0
    redraws = 0
    while done < count:
        m1 = random_multifiltered(
            rng, rng.randint(1, THM07_MAX_DIM), rng.randint(1, THM07_MAX_FILTS)
        )
        m2 = random_multifiltered(rng, rng.randint(1, THM07_MAX_DIM), m1.n_filtrations)
        r1 = mu_max_mf(m1)
        r2 = mu_max_mf(m2)
        if not (r1.certified and r2.certified):
            redraws += 1
            continue
        t = tensor_mf(m1, m2)
        seed_cand = [
            tuple(a * b for a in wa for b in wb) for wa in r1.witness for wb in r2.witness
        ]
        rt = mu_max_mf(t, extra_candidates=[seed_cand])
        if not rt.certified:
            redraws += 1
            continue
        if rt.value != r1.value + r2.value:
            rep.require(
                "tensor_mu_max_additive",
                False,
                f"instance {done}: {rt.value} != {r1.value} + {r2.value}",
            )
        nu_t, _ = nu_witness(t)
        mu_t = slope_faltings(t)
        if not (mu_t <= nu_t <= rt.value):
            rep.require(
                "line_value_between_slope_and_max",
                False,
                f"instance {done}: mu = {mu_t}, nu = {nu_t}, mu_max = {rt.value}",
            )
        done += 1
    rep.require(
        "tensor_mu_max_additive",
        True,
        f"{count}/{count} certified pairs (uncertified draws redrawn: {redraws}): "
        "mu_max(tensor) = mu_max + mu_max exactly",
    )
    rep.require(
        "line_value_between_slope_and_max",
        True,
        f"{count}/{count}: slope <= line value <= mu_max on the tensor",
    )
    rep.note(SCOPE_NOTE)
    return rep


def repro(target: str, **kw) -> Report:
    from .hermitian import a2_twist_checks, q7_checks, qp_checks

    if target == "a2":
        return a2_twist_checks(**kw)
    if target == "q7":
        return q7_checks(**kw)
    if target == "qp":
        p = kw.pop("p", 5)
        return qp_checks(p, **kw)
    if target == "mf-lemma":
        return repro_mf_lemma(**kw)
    if target == "thm07":
        return repro_thm07(**kw)
    raise ValueError(f"unknown repro target {target!r}")


# ---------------------------------------------------------------------------
# Emission.

def emit_report(rep: Report, fmt: str = "text") -> str:
    if fmt == "text":
        return rep.render_text()
    if fmt == "json":
        return json.dumps(rep.to_dict(), indent=2)
    raise ValueError(f"unsupported report format {fmt!r}")


def emit_records(records: Sequence[GapRecord], summary: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(
            {"records": [r.to_dict() for r in records], "summary": summary}, indent=2
        )
    if fmt == "csv":
        lines = [
            "index,rank1,rank2,mu_tensor_exact,mu_tensor_float,"
            "bound_sqrt_rank_exact,gap_exact,residual_exact,certified"
        ]
        for r in records:
            lines.append(
                f"{r.index},{r.ranks[0]},{r.ranks[1]},"
                f"\"{r.mu_tensor.render()}\",{r.mu_tensor.float_approx()!r},"
                f"\"{r.bound_sqrt_rank.render()}\",\"{r.gap.render()}\","
                f"\"{r.residual.render()}\",{r.certified}"
            )
        return "\n".join(lines)
    if fmt == "text":
        lines = []
        for r in records:
            lines.append(
                f"#{r.index} ranks {r.ranks[0]}x{r.ranks[1]}: "
                f"mu_max(tensor) = {r.mu_tensor.render()} "
                f"(~{r.mu_tensor.float_approx():.6f}), gap = {r.gap.render()}, "
                f"residual = {r.residual.render()}, certified = {r.certified}"
            )
        lines.append(f"summary: {json.dumps(summary)}")
        return "\n".join(lines)
    raise ValueError(f"unsupported records format {fmt!r}")


def polygon_csv(poly: SlopePolygon) -> str:
    lines = ["rank,max_degree_exact,max_degree_float"]
    for k, deg in poly.points:
        lines.append(f"{k},\"{deg.render()}\",{deg.float_approx()!r}")
    return "\n".join(lines)


def polygon_svg(poly: SlopePolygon) -> str:
    """Rank vs degree plot of the polygon points with the hull highlighted."""
    width, height = 480, 360
    pts = [(0, 0.0)] + [(k, d.float_approx()) for k, d in poly.points]
    hull = [(k, d.float_approx()) for k, d in poly.hull]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 30.0

    def sx(x):
        return pad + (x - x0) / max(x1 - x0, 1) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    hull_path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in hull)
    parts.append(
        f'<polyline points="{hull_path}" fill="none" stroke="#c03030" stroke-width="2"/>'
    )
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#3050c0"/>')
    for x, y in hull:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#c03030"/>')
    parts.append(
        f'<text x="{pad}" y="{height - 8}" font-size="11">rank (hull highlighted; '
        f"y = max degree)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)
