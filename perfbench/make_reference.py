"""Write the stored reference outputs of the default seed.

    python3 perfbench/make_reference.py [workload ...]

For each workload, runs the first ``REFERENCE_OPS`` ops of the default seed
with the current library and stores each op's exact outputs (values, witness
normal forms, certified flags) in ``perfbench/reference/<workload>.json``.
An op that fails is stored as null and is not compared later.  Regenerate
only when the workload definition changes, never to absorb a changed
output of the library.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

REFERENCE_OPS = {"lattice-tensor": 400, "mf-tensor": 600, "exact-degrees": 1500}


def make(workload) -> None:
    n = REFERENCE_OPS[workload.name]
    sk = run.import_slopekit()
    ops = workloads.make_ops(workload, run.DEFAULT_SEED, n)
    deadline = run.Deadline()
    op = run.budgeted_op(sk, workload)
    records = []
    failed = 0
    for i, inp in enumerate(ops):
        try:
            # a generous wall-clock deadline, so that the reference also
            # covers ops that finish close to a run's deadline; a work
            # budget is the same as in a run
            result, summary = deadline.call(3 * workload.deadline_s, op, sk, inp)
        except (run.OpTimeout, Exception) as exc:
            result, summary = type(exc).__name__, None
        if result == "wrong":
            print(f"{workload.name} op {i}: wrong output", file=sys.stderr)
        ok = result in ("ok", "uncertified")
        failed += not ok
        records.append(workload.to_json(summary) if ok else None)
    path = run.REFERENCE / f"{workload.name}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": run.DEFAULT_SEED, "ops": records}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"{path}: {len(records)} ops, {failed} failed")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        make(workloads.WORKLOADS[name])
