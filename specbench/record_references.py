"""Record the reference outputs the benchmark compares against.

Runs the first cycle of every workload at the default seed, checks each
output, and writes its summary to ``specbench/references/<workload>.json``.
Run from the root of a checkout::

    python3 specbench/record_references.py [workload ...]

Re-record only when a change is meant to alter the program's outputs, and
say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main(names: list[str]) -> int:
    run.limit_blas_threads()
    run.import_specgraph()
    import workloads

    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        ops = workload.cycle(workloads.DEFAULT_SEED, 0)
        workload.stage(ops, run.OUT / "work" / f"record-{os.getpid()}")
        summaries = []
        try:
            for op in ops:
                output = workload.run(op)
                problems = workload.check(op, output)
                if problems:
                    sys.stderr.write(f"{name} {op.kind}: {problems}\n")
                    return 1
                summaries.append(workload.summary(op, output))
        finally:
            workload.unstage(ops)
        path = workloads.reference_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summaries, separators=(",", ":")) + "\n")
        print(f"{path}: {len(summaries)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
