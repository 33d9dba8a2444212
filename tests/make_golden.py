"""Writes tests/data/golden.json, the outputs a refactor of the tensor step
must keep, from public functions only:

- the tensor step, mu_max of both factors and of their tensor, on 100 seeded
  pairs of each kind (value, witness HNF or RREF, upper, certified), the
  multifiltered tensor probed by the product of its factors' witnesses.
  Draw 72 of the multifiltered pairs is a 9-dimensional tensor that does
  not certify;
- `inequality_suite(...).to_dict()` on the first 40 pairs of each kind, or
  the failure it raises;
- `slope_filtration_mf` (hull, chain rows, certified) on 30 seeded
  `random_multifiltered` spaces of dimension 4-6 with 3-4 filtrations and
  on the tensors of the 100 multifiltered pairs; spaces 0, 8, 11, 23 and
  28 and tensor 72 come back uncertified, space 23 after two certified
  stages;
- thm07 and mf-lemma at seeds 0 and 7;
- the JSON records of the tensor-bound experiment at the default config and
  at seed 77, unimodular;
- `mu_max` at node caps 20, 200 and the default (value, witness HNF, upper,
  certified), and `slope_filtration` at cap 200 (hull, chain HNFs,
  certified), on 120 seeded `random_lattice`s of rank 2-8; 34 of the
  `mu_max` results at cap 20 and 16 at cap 200 are uncertified; on the same
  lattices, `mu_max` at node cap 2 and `minimum_sq` with the first vector
  of the enumeration up to it, a shortest vector;
- `lll_reduce` (the reduced `scaled_gram()` and U) on each lattice of the
  criterion-4 corpus, the pairs `bost_experiment(ExperimentConfig())` draws
  and their tensors, and on its dual;
- `mu_max` at node caps 20, 200 and 2,000 on 30 seeded tensors of rank 9-12
  (shapes 2x5, 5x2, 3x4, 4x3, 2x6 and 3x3), the ranks whose Minkowski
  floors read a Hermite bound past the table; 15 of the 90 results certify;
- stdout, stderr and exit code of `cli.main`, run in process, on seeded
  files written to a temporary directory: `lattice info`, `mu-max` and
  `filtration` (the last two at the default cap and at `--cap 20`, which
  leaves the rank-7 lattice uncertified), `lattice tensor-check` in text
  and JSON, `mf slope`, `mu-max` and `tensor-check`; `lattice tensor-check`
  of E8 and Z^1 at `--cap 1`, whose unimodular inputs certify with no
  search but whose nu needs `minimum_sq`, so it exits 1 with stdout empty;
  two exit-2 errors, malformed JSON and `--csv` on `lattice mu-max`; and
  `lattice info` and `mf slope` on files that hold the JSON decimals 0.1
  and 1.5 and the text "2/3", which the JSON reader takes exactly (0.1 is
  1/10, so the Gram's det is 99/100), while the library itself refuses a
  Python float;
- `pair_forms`: the pair (D, D*G), `det()`, and `inner` and `norm_sq` on
  seeded vectors with int and with Fraction coordinates, on 24 seeded
  euclidean lattices with D > 1 (duals, rescalings by p/q, tensors with a
  dual) and on 30 seeded hermitian lattices over Q(sqrt(-d)), d in 1, 2, 3,
  7, 11 (twists, duals, tensors), whose coordinates are field elements
  with int and with Fraction coordinates.

Run from the repository root: `PYTHONPATH=src python tests/make_golden.py`.
`test_harness.test_golden_outputs_are_kept` compares every entry."""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from slopekit import (
    ReproFailure,
    enumerate_short_vectors,
    harness,
    inequality_suite,
    lll_reduce,
    minimum_sq,
    mu_max,
    mu_max_mf,
    slope_filtration,
    slope_filtration_mf,
    tensor_mf,
)
from slopekit.cli import main
from slopekit.hermitian import HermitianLattice, ImagQuadField
from slopekit.lattice import e8_lattice, unit_lattice

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
PAIRS = 100
SUITE_PAIRS = 40
LATTICES = 120
TENSOR_SHAPES = ((2, 5), (5, 2), (3, 4), (4, 3), (2, 6), (3, 3))
TENSORS = 30
MF_SPACES = 30


def lattice_pairs(seed=36, count=PAIRS):
    """Pairs of `random_lattice`s of ranks r1, r2 with r1 * r2 <= 6, drawn
    as the tensor-bound experiment draws them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        while True:
            r1, r2 = rng.randint(1, 3), rng.randint(1, 3)
            if r1 * r2 <= 6:
                break
        out.append((harness.random_lattice(rng, r1), harness.random_lattice(rng, r2)))
    return out


def mf_pairs():
    """Pairs of `random_multifiltered` spaces of dimension 1..3 with 1..3
    filtrations, the same number in both."""
    rng = random.Random(36)
    out = []
    for _ in range(PAIRS):
        n = rng.randint(1, 3)
        out.append((harness.random_multifiltered(rng, rng.randint(1, 3), n), harness.random_multifiltered(rng, rng.randint(1, 3), n)))
    return out


def mf_spaces():
    """`random_multifiltered` spaces of dimension 4..6 with 3..4
    filtrations."""
    rng = random.Random(41)
    return [harness.random_multifiltered(rng, rng.randint(4, 6), rng.randint(3, 4)) for _ in range(MF_SPACES)]


def lattices():
    """`random_lattice`s of rank 2..8."""
    rng = random.Random(31)
    return [harness.random_lattice(rng, rng.randint(2, 8)) for _ in range(LATTICES)]


def tensors():
    """Tensors of two `random_lattice`s with entries up to 2, cycling through
    `TENSOR_SHAPES`, tensor i drawn from `Random(5000 + i)`."""
    out = []
    for i in range(TENSORS):
        r1, r2 = TENSOR_SHAPES[i % len(TENSOR_SHAPES)]
        rng = random.Random(5000 + i)
        out.append(harness.random_lattice(rng, r1, 2).tensor(harness.random_lattice(rng, r2, 2)))
    return out


def lattice_mu_max(r):
    return {"value": r.value.render(), "witness": [list(row) for row in r.witness.basis], "upper": r.upper.render(), "certified": r.certified}


def lattice_step(a, b):
    return [lattice_mu_max(mu_max(lat)) for lat in (a, b, a.tensor(b))]


def shortest(x):
    vector, length = enumerate_short_vectors(x, minimum_sq(x)).vectors[0]
    return {"min_sq": str(length), "vector": list(vector)}


def reduction(x):
    reduced, u = lll_reduce(x)
    gi, scale = reduced.scaled_gram()
    return {"gram": [list(row) for row in gi], "scale": scale, "u": [list(row) for row in u]}


def criterion_4_corpus():
    """The lattices of `bost_experiment(ExperimentConfig())`: each drawn
    pair and its tensor."""
    cfg = harness.ExperimentConfig()
    return [x for a, b in lattice_pairs(cfg.seed, cfg.count) for x in (a, b, a.tensor(b))]


def filtration(poly):
    return {
        "hull": [[k, deg.render()] for k, deg in poly.hull],
        "chain": [[list(row) for row in w.basis] for w in poly.filtration],
        "certified": poly.certified,
    }


def mf_filtration(m):
    poly = slope_filtration_mf(m)
    return {
        "hull": [[k, str(deg)] for k, deg in poly.hull],
        "chain": [[list(row) for row in w] for w in poly.filtration],
        "certified": poly.certified,
    }


def mf_step(a, b):
    r1, r2 = mu_max_mf(a), mu_max_mf(b)
    probe = [tuple(x * y for x in wa for y in wb) for wa in r1.witness for wb in r2.witness]
    results = [r1, r2, mu_max_mf(tensor_mf(a, b), [probe])]
    return [
        {"value": str(r.value), "witness": [list(row) for row in r.witness], "upper": str(r.upper), "certified": r.certified}
        for r in results
    ]


def suite(a, b):
    try:
        return inequality_suite((a, b)).to_dict()
    except ReproFailure as exc:
        return {"failure": str(exc)}


def cli_files() -> dict:
    """The JSON files the CLI runs read, by name: a rank-3 dual (rational
    Gram), a rank-2 and a rank-7 `random_lattice`, E8, Z^1, two
    `random_multifiltered` spaces, and a truncated file."""
    rng = random.Random(40)
    objects = {
        "a.json": harness.random_lattice(rng, 3).dual(),
        "b.json": harness.random_lattice(rng, 2),
        "c.json": harness.random_lattice(rng, 7),
        "e8.json": e8_lattice(),
        "z1.json": unit_lattice(1),
        "m.json": harness.random_multifiltered(rng, 3, 2),
        "n.json": harness.random_multifiltered(rng, 2, 2),
    }
    files = {name: json.dumps(x.to_json_dict()) for name, x in objects.items()}
    files["bad.json"] = '{"gram": [[1]'
    files.update(DECIMAL_FILES)
    return files


# Files whose numbers are JSON decimals and text: `parse_rat` reads 1.5 as
# 3/2 and 0.1 as exactly 1/10, never as the binary fraction of a float.
DECIMAL_FILES = {
    "decimal.json": json.dumps({"gram": [[1.5, 0.1], [0.1, "2/3"]]}),
    "mf-decimal.json": json.dumps({"dim": 2, "filtrations": [
        {"steps": [{"lambda": 0.1, "basis": [[1, 0], [0, 1]]}, {"lambda": "2/3", "basis": [[1.5, 1]]}]},
        {"steps": [{"lambda": 1.5, "basis": [[1, 0], [0, 1]]}, {"lambda": 2, "basis": [[0.1, 1]]}]},
    ]}),
}


CLI_RUNS = (
    *(
        cmd
        for f in ("a.json", "c.json")
        for cmd in (
            ["lattice", "info", f],
            ["lattice", "mu-max", f],
            ["lattice", "mu-max", f, "--cap", "20"],
            ["lattice", "filtration", f],
            ["lattice", "filtration", f, "--cap", "20"],
        )
    ),
    ["lattice", "tensor-check", "a.json", "b.json"],
    ["lattice", "tensor-check", "a.json", "b.json", "--format", "json"],
    ["lattice", "tensor-check", "e8.json", "z1.json", "--cap", "1"],
    ["mf", "slope", "m.json"],
    ["mf", "mu-max", "m.json"],
    ["mf", "tensor-check", "m.json", "n.json"],
    ["lattice", "info", "bad.json"],
    ["lattice", "mu-max", "a.json", "--csv", "out.csv"],
    ["lattice", "info", "decimal.json"],
    ["mf", "slope", "mf-decimal.json"],
)


def cli_runs() -> dict:
    """Each of `CLI_RUNS`, keyed by its command line, with every file name
    taken inside a temporary directory that holds `cli_files()`."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in cli_files().items():
            (Path(tmp) / name).write_text(text)
        for argv in CLI_RUNS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([str(Path(tmp) / x) if x.endswith((".json", ".csv")) else x for x in argv])
            run = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
            assert tmp not in run["stdout"] + run["stderr"], argv
            out[" ".join(argv)] = run
    return out


def hermitian_lattice(rng, field, r):
    """A hermitian lattice of rank r over field, its Gram drawn again until
    it is positive definite."""
    while True:
        g = [[None] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = field.elt(Fraction(rng.randint(2, 12), rng.randint(1, 3)))
            for j in range(i + 1, r):
                g[i][j] = field.elt(Fraction(rng.randint(-2, 2), rng.randint(1, 2)), rng.randint(-1, 1))
                g[j][i] = g[i][j].conj()
        try:
            return HermitianLattice(field, g)
        except ValueError:
            continue


def pair_form_lattices():
    """Euclidean lattices with D > 1 (duals, rescalings by p/q and tensors
    with a dual of `random_lattice`s of rank 1..3), then hermitian ones over
    Q(sqrt(-d)) (twists by p/q, duals and tensors of seeded Grams of rank
    1..3), each with a `coordinate` that draws a vector coordinate with an
    int or, when `frac`, a Fraction value."""
    rng = random.Random(42)
    out = []
    while len(out) < 24:
        a, b = harness.random_lattice(rng, rng.randint(1, 3)), harness.random_lattice(rng, rng.randint(1, 3))
        c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        out += [x for x in (a.dual(), a.scale(c), a.tensor(b.dual())) if x.scaled_gram()[1] > 1]
    out = out[:24]

    def rational(frac):
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if frac else rng.randint(-3, 3)

    lats = [(lat, rational) for lat in out]
    for d in (1, 2, 3, 7, 11):
        field = ImagQuadField(d)
        a, b = hermitian_lattice(rng, field, rng.randint(1, 3)), hermitian_lattice(rng, field, rng.randint(1, 3))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for lat in (a, b, a.twist(c), a.dual(), a.tensor(b), a.tensor(b.dual())):
            lats.append((lat, lambda frac, field=field: field.elt(rational(frac), rational(frac))))
    return lats


def pair_forms() -> list:
    def text(x):
        return [str(x.a), str(x.b)] if hasattr(x, "field") else str(x)

    out = []
    for lat, coordinate in pair_form_lattices():
        s, den = lat.scaled_gram()
        forms = []
        for frac in (False, True):
            v, w = ([coordinate(frac) for _ in range(lat.rank)] for _ in range(2))
            forms.append({
                "v": [text(x) for x in v], "w": [text(x) for x in w],
                "inner": text(lat.inner(v, w)), "norm_sq": text(lat.norm_sq(v)),
            })
        out.append({"den": den, "scaled": [[text(x) for x in row] for row in s], "det": text(lat.det()), "forms": forms})
    return out


def golden() -> dict:
    lat, mf, single, big = lattice_pairs(), mf_pairs(), lattices(), tensors()
    cfgs = {"default": (harness.ExperimentConfig(), False), "seed-77-unimodular": (harness.ExperimentConfig(seed=77), True)}
    return {
        "tensor_step": {
            "lattice": [lattice_step(a, b) for a, b in lat],
            "multifilt": [mf_step(a, b) for a, b in mf],
        },
        "inequality_suite": {
            "lattice": [suite(a, b) for a, b in lat[:SUITE_PAIRS]],
            "multifilt": [suite(a, b) for a, b in mf[:SUITE_PAIRS]],
        },
        "mf_filtration": {
            "spaces": [mf_filtration(m) for m in mf_spaces()],
            "tensors": [mf_filtration(tensor_mf(a, b)) for a, b in mf],
        },
        "thm07": {str(seed): harness.repro_thm07(seed=seed).to_dict() for seed in (0, 7)},
        "mf_lemma": {str(seed): harness.repro_mf_lemma(seed=seed).to_dict() for seed in (0, 7)},
        "bost_experiment": {
            name: json.loads(harness.emit_records(*harness.bost_experiment(cfg, unimodular), "json"))
            for name, (cfg, unimodular) in cfgs.items()
        },
        "lattice_caps": {
            "mu_max-20": [lattice_mu_max(mu_max(x, 20)) for x in single],
            "mu_max-200": [lattice_mu_max(mu_max(x, 200)) for x in single],
            "mu_max-default": [lattice_mu_max(mu_max(x)) for x in single],
            "slope_filtration-200": [filtration(slope_filtration(x, 200)) for x in single],
            "mu_max-2": [lattice_mu_max(mu_max(x, 2)) for x in single],
        },
        "tensor_caps": {f"mu_max-{cap}": [lattice_mu_max(mu_max(x, cap)) for x in big] for cap in (20, 200, 2000)},
        "lattice_memos": {
            "minimum_sq": [shortest(x) for x in single],
            "lll_reduce-criterion-4": [{"lattice": reduction(x), "dual": reduction(x.dual())} for x in criterion_4_corpus()],
        },
        "cli": cli_runs(),
        "pair_forms": {"lattices": pair_forms()},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden(), indent=1) + "\n")
