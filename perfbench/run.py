"""slopekit benchmark: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload lattice-tensor --seed 1 --seconds 16 --trace 0
    for w in lattice-tensor mf-tensor exact-degrees; do python3 perfbench/run.py --workload $w; done

Run from the root of a slopekit source tree; the library is imported from
``src/``.  The run draws the workload's op list from ``--seed`` and runs the
ops in list order, one at a time (a closed loop with one client).  A run is
a fixed number of whole periods of the op list, as many as take
``--seconds`` of nominal machine time (see ``MachineSpeed``) with the code the
benchmark was tuned on, so that every run of the same code does the same ops
and fails the same ones.  Every op's outputs are checked; for the default
seed they are also compared with the stored reference in
``perfbench/reference``.  An op that raises, returns an uncertified verdict,
returns a wrong output or passes its deadline counts as failed; nothing is
redrawn.  Where a workload has a work budget (see ``WorkBudget``), that is
its deadline, so that which ops time out does not depend on machine load.

With ``--trace 0`` the run prints the end-to-end metrics.  ``setup_s`` is the
median over fresh interpreters of the time from process start to the first
op (import, input generation, reference loading), each measured against a
baseline interpreter (see ``NOMINAL_BASELINE_S``).  ``peak_rss_mb`` is the
peak resident memory after the first ``prefix_ops`` ops, a fixed amount of
work.  With ``--trace 1`` the run instead traces the first ``prefix_ops`` ops,
prints the per-layer metrics, writes the spans to ``.perfbench-out/`` and
times the same ops untraced in a fresh interpreter for
``trace_overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = ROOT / ".perfbench-out"

DEFAULT_SEED = 1
SETUP_SAMPLES = 7
# Set-up of a fresh interpreter is timed against a baseline interpreter started
# right after it, which runs BASELINE_KERNELS calls of speed_kernel instead of
# the set-up.  Under a changing load both slow alike: their ratio varied 3x
# less between batches than set-up time over the speed kernel did.
# NOMINAL_BASELINE_S, the baseline's nominal wall time (see MachineSpeed) on
# the machine the benchmark was tuned on, fixes only the unit of setup_s.
BASELINE_KERNELS = 150
NOMINAL_BASELINE_S = 0.14
CHILD_TIMEOUT_S = 150
# Time of speed_kernel on an unloaded core of the machine the benchmark was
# tuned on (x86-64 VM, Python 3.11).  It only fixes the unit of the reported
# times; both sides of a comparison use the same value.
NOMINAL_KERNEL_S = 0.65e-3
# CPU seconds between speed samples inside an op (about 1 % overhead, which is
# subtracted from the op's time).
IN_OP_SAMPLE_S = 0.05
# On a machine far slower than nominal a run stops early, after this many
# times --seconds of wall time, so that it ends within its time limit.
WALL_CAP = 6

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised inside an op at its deadline.  A BaseException, so that no
    ``except Exception`` in the library can swallow it."""


class Deadline:
    """Per-op wall-clock deadline from SIGALRM."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout

    def call(self, seconds: float, fn, *args):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn(*args)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


class WorkBudget:
    """Per-op budget of elimination work, a deadline that does not depend on
    machine load.

    ``install`` wraps ``slopekit.linalg.rref`` where it is looked up.  While
    an op is armed, each call is charged rows x columns x min(rows, columns),
    the entry updates of a dense elimination of its input, before it runs; the
    call that would overspend raises ``OpTimeout`` instead.  The multifiltered
    candidate closure spends almost all of its time in ``rref``, so the budget
    bounds its blow-ups, and the same ops time out in every run.
    """

    def __init__(self, units: int):
        self.units = units
        self.left = None  # units left in the armed op; None when not armed

    def install(self, sk) -> None:
        orig = sk.linalg.rref

        @functools.wraps(orig)
        def rref(a):
            if self.left is not None:
                rows = len(a)
                cols = len(a[0]) if rows else 0
                self.left -= rows * cols * min(rows, cols)
                if self.left < 0:
                    self.left = None
                    raise OpTimeout
            return orig(a)

        for name, module in list(sys.modules.items()):
            if name == "slopekit" or name.startswith("slopekit."):
                for attr, val in list(vars(module).items()):
                    if val is orig:
                        setattr(module, attr, rref)

    def call(self, fn, *args):
        self.left = self.units
        try:
            return fn(*args)
        finally:
            self.left = None


def budgeted_op(sk, workload):
    """The workload's op, under its work budget if it has one."""
    if workload.work_budget is None:
        return workload.op
    budget = WorkBudget(workload.work_budget)
    budget.install(sk)
    return functools.partial(budget.call, workload.op)


def speed_kernel() -> None:
    """Fixed pure-Python rational arithmetic, the kind of work slopekit does."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i % 31 + 1)


class MachineSpeed:
    """How much slower than nominal the machine runs.

    On a shared host, other tenants' load slows this process by up to 2x, in
    phases that last from a second to minutes, so raw times of one program
    differ by 40 % between runs.  The run therefore times ``speed_kernel``
    before every op and after the last, and, in an untraced run, also inside
    the op every ``IN_OP_SAMPLE_S`` of CPU time, from a SIGPROF handler.  It
    divides each op's time, less the kernel time inside it, by its slowdown:
    the mean of the kernel times before, inside and after the op over
    ``NOMINAL_KERNEL_S``.  Without the samples inside, a long op's time moved
    by up to 30 % between runs with load phases that began or ended within
    it.  The kernel does not call slopekit, so any change of slopekit's own
    speed passes through in full.  The wall-clock deadline is nominal time
    too.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent in the kernel
        self.in_op: list[float] | None = None  # samples inside the current op
        signal.signal(signal.SIGPROF, self._sample_in_op)

    def _sample_in_op(self, signum, frame):
        if self.in_op is not None:
            self.in_op.append(self.sample())

    def start_op(self) -> None:
        self.in_op = []
        signal.setitimer(signal.ITIMER_PROF, IN_OP_SAMPLE_S, IN_OP_SAMPLE_S)

    def end_op(self) -> list[float]:
        """Stop sampling; the samples taken inside the op."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        samples, self.in_op = self.in_op, None
        return samples

    def sample(self) -> float:
        t0 = time.perf_counter()
        speed_kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took
        return took

    def slowdown(self, samples=None) -> float:
        return statistics.fmean(samples or self.samples) / NOMINAL_KERNEL_S


def import_slopekit():
    """The slopekit modules the ops call, imported from the source tree."""
    sys.path.insert(0, str(SRC))
    from slopekit import enumeration, exactval, hermitian, lattice, linalg, multifilt

    return types.SimpleNamespace(
        enumeration=enumeration,
        exactval=exactval,
        hermitian=hermitian,
        lattice=lattice,
        linalg=linalg,
        multifilt=multifilt,
    )


def setup(workload, seed: int):
    """Import slopekit, draw the op list and load the reference."""
    sk = import_slopekit()
    ops = workloads.make_ops(workload, seed, workload.list_len)
    reference = None
    if seed == DEFAULT_SEED:
        with open(REFERENCE / f"{workload.name}.json") as fh:
            reference = json.load(fh)["ops"]
    return sk, ops, reference


def run_ops(sk, workload, ops, reference, speed, count, wall_cap_s=None, tracer=None):
    """Run the first `count` ops in list order, or fewer if `wall_cap_s` of
    wall time pass first.  Returns per-op (nominal latency s, outcome), the
    loop's wall time without speed samples, and the peak RSS in MB after the
    first `workload.prefix_ops` ops (or after the last op, if fewer ran)."""
    from slopekit.report import ReproFailure

    if len(ops) < count:
        raise RuntimeError(f"op list shorter than {count}")
    deadline = Deadline()
    op = budgeted_op(sk, workload)
    results = []
    kernel_s = []  # speed samples: before each op, and after the last
    in_op = []  # speed samples inside the last op
    peak_rss_mb = math.nan
    start = time.perf_counter()

    def sample_after_op():
        kernel_s.append(speed.sample())
        if results:
            t, result = results[-1]
            results[-1] = (t / speed.slowdown(kernel_s[-2:] + in_op), result)

    for i, inp in enumerate(ops[:count]):
        if i == workload.prefix_ops:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sample_after_op()
        if wall_cap_s is not None and time.perf_counter() - start - speed.spent >= wall_cap_s:
            print(f"wall-clock cap reached after {i} of {count} ops", file=sys.stderr)
            break
        if tracer is not None:
            tracer.begin_op(i)
        summary = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                speed.start_op()
            result, summary = deadline.call(
                workload.deadline_s * speed.slowdown(kernel_s[-1:]), op, sk, inp
            )
        except OpTimeout:
            result = "timeout"
        except ReproFailure:
            result = "wrong"
        except Exception as exc:  # a failed op is counted, and the run goes on
            result = "error"
            print(f"op {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            in_op = speed.end_op() or []
        t1 = time.perf_counter() - sum(in_op)
        if tracer is not None:
            tracer.end_op()
        if (
            reference is not None
            and i < len(reference)
            and result in ("ok", "uncertified")
            and reference[i] is not None
            and not workload.matches(sk, summary, reference[i])
        ):
            result = "wrong"
        results.append((t1 - t0, result))
    if math.isnan(peak_rss_mb):
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = time.perf_counter() - start - speed.spent
    if len(kernel_s) == len(results):
        sample_after_op()
    return results, wall, peak_rss_mb


def quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics, each weighted by the chance that the p-quantile falls in its
    slot, with the Beta(p(n+1), (1-p)(n+1)) weights approximated by a normal
    of the same mean and variance.  Where latencies are sparse, as around
    p90 here, it varies between runs about a third less than one order
    statistic does."""
    xs = sorted(xs)
    n = len(xs)
    sd = math.sqrt(p * (1 - p) / (n + 2))
    cdf = [0.5 * (1 + math.erf((i / n - p) / (sd * math.sqrt(2)))) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / (cdf[n] - cdf[0])


def count_outcomes(results) -> dict[str, int]:
    counts = {k: 0 for k in ("ok", "errors", "wrong", "uncertified", "timeouts")}
    names = {"ok": "ok", "error": "errors", "wrong": "wrong", "uncertified": "uncertified",
             "timeout": "timeouts"}
    for _, result in results:
        counts[names[result]] += 1
    return counts


def spawn_self(args: list[str]) -> tuple[float, str]:
    """Run this script in a fresh interpreter; return (seconds until its first
    output line, its whole output)."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve())] + args,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.communicate(timeout=CHILD_TIMEOUT_S)[0]
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"child {args} failed with exit code {proc.returncode}")
    return elapsed, (line + rest).strip()


def emit(correct: bool, counts: dict, metrics: dict[str, tuple[float, str]]) -> None:
    attempted = sum(counts.values())
    failed = attempted - counts["ok"]
    print(f"attempted {attempted}  failed {failed}  ok {counts['ok']}  errors {counts['errors']}"
          f"  wrong {counts['wrong']}  uncertified {counts['uncertified']}"
          f"  timeouts {counts['timeouts']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def child_args(args, role: str) -> list[str]:
    return ["--workload", args.workload, "--seed", str(args.seed), "--role", role]


def main_run(args, workload) -> int:
    sk, ops, reference = setup(workload, args.seed)
    speed = MachineSpeed()
    results, wall, peak_rss_mb = run_ops(
        sk, workload, ops, reference, speed, workload.run_length(args.seconds),
        wall_cap_s=WALL_CAP * args.seconds,
    )
    slowdown = speed.slowdown()
    setups = []  # (set-up wall s, baseline wall s)
    for _ in range(SETUP_SAMPLES):
        took = spawn_self(child_args(args, "setup"))[0]
        setups.append((took, spawn_self(child_args(args, "baseline"))[0]))
    counts = count_outcomes(results)
    attempted = len(results)
    lat_ms = [t * 1e3 for t, _ in results]
    p50 = quantile(lat_ms, 0.5)
    p90 = quantile(lat_ms, 0.9)
    print(f"workload {workload.name}  seed {args.seed}  wall {wall:.3f} s  slowdown {slowdown:.4f}"
          f"  nominal {sum(t for t, _ in results):.3f} s"
          f"  samples {attempted}  beyond p90 {sum(1 for t in lat_ms if t > p90)}")
    print(f"wall clock: ops_per_s {counts['ok'] / wall:.6g}"
          f"  setup_s {statistics.median(t for t, _ in setups):.6g}"
          f"  baseline_s {statistics.median(b for _, b in setups):.6g}")
    print(f"fail_ratio {(attempted - counts['ok']) / attempted:.6g} ratio")
    metrics = {
        "ops_per_s": counts["ok"] / sum(t for t, _ in results),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "ok_ratio": counts["ok"] / attempted,
        "setup_s": statistics.median(took / base for took, base in setups) * NOMINAL_BASELINE_S,
        "peak_rss_mb": peak_rss_mb,
    }
    emit(counts["wrong"] == 0, counts, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})
    return 0


def main_trace(args, workload) -> int:
    sk, ops, reference = setup(workload, args.seed)
    tracer = tracing.Tracer()
    tracer.install(sk)
    speed = MachineSpeed()
    results, _, _ = run_ops(
        sk, workload, ops, reference, speed, workload.prefix_ops, tracer=tracer
    )
    counts = count_outcomes(results)
    done = [i for i, (_, result) in enumerate(results) if result != "timeout"]
    traced_s = sum(results[i][0] for i in done)
    untraced = json.loads(spawn_self(child_args(args, "untraced"))[1])
    untraced_s = sum(untraced[i] for i in done)
    metrics = tracer.metrics(done)
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.bin")
    units = dict(tracing.per_layer_metrics())
    print(f"workload {workload.name}  seed {args.seed}  traced ops {len(results)}"
          f"  spans {len(tracer.name)}")
    emit(counts["wrong"] == 0, counts, {k: (metrics[k], units[k]) for k in units})
    return 0


def main_child(args, workload) -> int:
    if args.role == "baseline":
        for _ in range(BASELINE_KERNELS):
            speed_kernel()
        print("baseline done", flush=True)
        return 0
    sk, ops, reference = setup(workload, args.seed)
    if args.role == "setup":
        print("setup done", flush=True)
        return 0
    speed = MachineSpeed()
    results, _, _ = run_ops(sk, workload, ops, reference, speed, workload.prefix_ops)
    print(json.dumps([t for t, _ in results]))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "baseline", "untraced"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "slopekit" / "__init__.py").is_file():
        print(f"error: no slopekit sources under {SRC}; run from a slopekit checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.role:
        return main_child(args, workload)
    return main_trace(args, workload) if args.trace else main_run(args, workload)


if __name__ == "__main__":
    sys.exit(main())
