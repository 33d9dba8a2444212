"""Command-line interface: exact slope invariants from JSON lattice files,
reproduction manifests, and the randomized tensor-bound experiment.

Exit status is nonzero whenever any assertion or verdict fails.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, linalg
from .enumeration import DEFAULT_NODE_CAP, EnumerationCapExceeded, mu_max, slope_filtration
from .exactval import FactoringCapExceeded, LogRational, parse_rat
from .lattice import EuclideanLattice
from .multifilt import (
    MultifilteredSpace,
    mu_max_mf,
    nu_witness,
    slope_faltings,
)
from .report import ReproFailure


def _fmt(v: LogRational) -> str:
    return f"{v.render()} (~{v.float_approx():.9f})"


def _refuse_unread(args) -> None:
    """An option or file the action does not read is an error, not ignored:
    only tensor-check emits a report and reads a second file, only lattice
    filtration writes --csv and --svg, and lattice info searches nothing, so
    takes no --cap."""
    if args.action != "tensor-check":
        if args.format != "text":
            raise ValueError(f"--format {args.format} is supported only by {args.command} tensor-check")
        if args.file2 is not None:
            raise ValueError(f"a second file is supported only by {args.command} tensor-check")
    for opt in ("csv", "svg"):
        if getattr(args, opt, None) is not None and args.action != "filtration":
            raise ValueError(f"--{opt} is supported only by lattice filtration")
    if getattr(args, "cap", None) is not None and args.action == "info":
        raise ValueError("--cap is supported only by lattice mu-max, filtration and tensor-check")


def _tensor_check(args, a, load, files: str, *cap) -> int:
    """The slope-inequality report of a and the object in args.file2."""
    if not args.file2:
        raise ValueError(f"tensor-check needs two {files}")
    rep = harness.inequality_suite((a, load(args.file2)), *cap)
    print(harness.emit_report(rep, args.format))
    return 0 if rep.passed else 1


def _cmd_lattice(args) -> int:
    _refuse_unread(args)
    cap = DEFAULT_NODE_CAP if args.cap is None else args.cap
    if cap < 1:
        raise ValueError(f"--cap must be a positive integer, got {cap}")
    lat = EuclideanLattice.load(args.file)
    if args.action == "info":
        # every value before any output, so an error leaves stdout empty
        lines = [
            f"rank: {lat.rank}",
            f"det: {lat.det()}",
            f"degree: {_fmt(lat.degree())}",
            f"slope: {_fmt(lat.slope())}",
            f"integral: {lat.is_integral()}  unimodular: {lat.is_unimodular()}",
        ]
        print("\n".join(lines))
        return 0
    if args.action == "mu-max":
        res = mu_max(lat, cap)
        print(f"mu_max: {_fmt(res.value)}")
        print(f"witness rank: {res.witness.rank}")
        print(f"witness basis (HNF): {[list(r) for r in res.witness.hnf_basis()]}")
        print(f"certified: {res.certified}")
        if res.certified:
            print(f"semistable: {res.value == lat.slope()}")
        else:
            print("semistable: unknown (uncertified)")
        return 0 if res.certified else 1
    if args.action == "filtration":
        poly = slope_filtration(lat, cap)
        for k, d in poly.hull[1:]:
            print(f"rank {k}: max degree {_fmt(d)}")
        print("hull:", [(k, d.render()) for k, d in poly.hull])
        print("quotient slopes:", [s.render() for s in poly.quotient_slopes()])
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(harness.polygon_csv(poly))
            print(f"csv written to {args.csv}")
        if args.svg:
            with open(args.svg, "w") as fh:
                fh.write(harness.polygon_svg(poly))
            print(f"svg written to {args.svg}")
        if not poly.certified:
            print(f"uncertified: {EnumerationCapExceeded(cap)}", file=sys.stderr)
        return 0 if poly.certified else 1
    if args.action == "tensor-check":
        return _tensor_check(args, lat, EuclideanLattice.load, "lattice files", cap)
    raise AssertionError(args.action)


def _cmd_mf(args) -> int:
    _refuse_unread(args)
    m = MultifilteredSpace.load(args.file)
    if args.action == "slope":
        print(f"dim: {m.dim}")
        print(f"slope: {slope_faltings(m)}")
        val, line = nu_witness(m)
        (line,) = linalg.unit_rref((line,))
        print(f"best line value: {val}  witness: {[str(x) for x in line]}")
        return 0
    if args.action == "mu-max":
        res = mu_max_mf(m)
        print(f"mu_max: {res.value}")
        print(f"upper bound: {res.upper}")
        print(f"witness dim: {len(res.witness)}")
        print(f"certified: {res.certified}")
        return 0 if res.certified else 1
    if args.action == "tensor-check":
        return _tensor_check(args, m, MultifilteredSpace.load, "input files")
    raise AssertionError(args.action)


# The options each repro target takes: argparse name -> manifest keyword.
_REPRO_OPTIONS = {
    "a2": {"twist": "gram_multiplier"},
    "q7": {},
    "qp": {"p": "p"},
    "mf-lemma": {"seed": "seed", "count": "count"},
    "thm07": {"seed": "seed", "count": "count"},
}


def _cmd_repro(args) -> int:
    """An option the target does not take is an error; an omitted one keeps
    the manifest's default."""
    takes = _REPRO_OPTIONS[args.target]
    kw = {}
    for opt in ("p", "seed", "count", "twist"):
        value = getattr(args, opt)
        if value is None:
            continue
        if opt not in takes:
            raise ValueError(f"--{opt} does not apply to repro {args.target}")
        kw[takes[opt]] = parse_rat(value) if opt == "twist" else value
    rep = harness.repro(args.target, **kw)
    print(harness.emit_report(rep, args.format))
    return 0 if rep.passed else 1


def _cmd_bost(args) -> int:
    """The config file sets seed and count, so --seed and --count are errors
    with --config; an omitted one keeps the ExperimentConfig default."""
    opts = {opt: getattr(args, opt) for opt in ("seed", "count") if getattr(args, opt) is not None}
    if args.config:
        if opts:
            raise ValueError(f"--{next(iter(opts))} does not apply with --config")
        cfg = harness.ExperimentConfig.from_toml(args.config)
    else:
        cfg = harness.ExperimentConfig(**opts)
    records, summary = harness.bost_experiment(cfg, unimodular=args.unimodular)
    print(harness.emit_records(records, summary, args.format))
    ok = not summary["violations"] and summary["certified"] == summary["count"]
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slopekit",
        description="Exact degrees, slopes, and canonical filtrations of lattices "
        "and multifiltered spaces.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="euclidean lattice invariants from a JSON file")
    lat.add_argument("action", choices=["info", "mu-max", "filtration", "tensor-check"])
    lat.add_argument("file")
    lat.add_argument("file2", nargs="?", help="second lattice (tensor-check)")
    lat.add_argument("--cap", type=int, help="enumeration node cap")
    lat.add_argument("--svg", help="write the polygon plot to this SVG file")
    lat.add_argument("--csv", help="write the polygon table to this CSV file")
    lat.add_argument("--format", choices=["text", "json"], default="text")
    lat.set_defaults(func=_cmd_lattice)

    mf = sub.add_parser("mf", help="multifiltered space invariants from a JSON file")
    mf.add_argument("action", choices=["slope", "mu-max", "tensor-check"])
    mf.add_argument("file")
    mf.add_argument("file2", nargs="?")
    mf.add_argument("--format", choices=["text", "json"], default="text")
    mf.set_defaults(func=_cmd_mf)

    rep = sub.add_parser("repro", help="run a reproduction manifest")
    rep.add_argument("target", choices=["a2", "q7", "qp", "mf-lemma", "thm07"])
    rep.add_argument("--p", type=int, choices=[5, 13, 37], help="qp only (default 5)")
    rep.add_argument("--seed", type=int, help="mf-lemma and thm07 only (default 0)")
    rep.add_argument("--count", type=int, help="mf-lemma and thm07 only (default 50)")
    rep.add_argument("--twist", help="rational Gram multiplier, a2 only (default 2/3)")
    rep.add_argument("--format", choices=["text", "json"], default="text")
    rep.set_defaults(func=_cmd_repro)

    bost = sub.add_parser(
        "bost-experiment", help="randomized tensor slope-maximum bound experiment"
    )
    bost.add_argument("--seed", type=int, help="default 0; not with --config")
    bost.add_argument("--count", type=int, help="default 50; not with --config")
    bost.add_argument("--config", help="flat TOML config mirroring ExperimentConfig")
    bost.add_argument("--unimodular", action="store_true")
    bost.add_argument("--format", choices=["text", "json", "csv"], default="text")
    bost.set_defaults(func=_cmd_bost)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return 1
    except ReproFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, FactoringCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
