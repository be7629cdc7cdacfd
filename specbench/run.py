"""specgraph benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout)::

    python3 specbench/run.py --workload {sweep,exact,certify} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
wrappers installed.  With ``--trace 1`` every operation runs twice, untraced
and traced (alternating which goes first), and the run reports the
per-layer metrics derived from the traced spans.  Every operation's output
is checked; at the default seed the first cycle is also compared with the
references recorded in ``specbench/references``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it carry the run
record (interpreter, numpy, BLAS, cores, CPU, commit, seed) and a detail
record.  Spans and the full result are also written under ``.specbench/``.
The run exits with code 2, printing no result, when ``src/specgraph`` is not
present in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".specbench"

# Fresh interpreters timed for setup_s; the reported value is their median.
SETUP_PROBES = 7
# Whole cycles run until this much wall time has passed, whatever --seconds.
WALL_LIMIT_S = 120.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Keep BLAS threads at or below the cores this process may use.

    Must run before numpy is imported; child interpreters inherit it.
    """
    cores = nproc()
    for var in BLAS_THREAD_VARS:
        raw = os.environ.get(var, "")
        if not raw.isdigit() or not 1 <= int(raw) <= cores:
            os.environ[var] = str(cores)


def import_specgraph():
    """Import the checkout's own ``specgraph``; exit 2 when it is missing."""
    package = SOURCE / "specgraph" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"specbench: no specgraph sources under {SOURCE}\n")
        sys.exit(2)
    sys.path.insert(0, str(SOURCE))
    import specgraph

    if Path(specgraph.__file__).resolve() != package.resolve():
        sys.stderr.write(f"specbench: imported specgraph from {specgraph.__file__}\n")
        sys.exit(2)
    return specgraph


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of sorted values."""
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# --------------------------------------------------------------- setup probe


def probe_setup(workload_name: str, seed: int) -> None:
    """In a fresh interpreter: ``import specgraph`` plus one warm-up
    operation of each kind.  Input generation is not timed.  Prints seconds."""
    start = time.perf_counter()
    import_specgraph()
    elapsed = time.perf_counter() - start
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    ops = workload.warmup(seed)
    workload.stage(ops, OUT / "work" / f"probe-{os.getpid()}")
    try:
        for op in ops:
            t0 = time.perf_counter()
            workload.run(op)
            elapsed += time.perf_counter() - t0
    finally:
        workload.unstage(ops)
    print(repr(elapsed))


def measure_setup(workload_name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# -------------------------------------------------------------------- loops


class Tally:
    """Latencies, units and failures of the measured operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Units and busy seconds of each whole cycle, for the cycle rates.
        self.cycles: list[tuple[int, float]] = []

    def add(self, op, seconds: float, problems: list[str]) -> None:
        self.latencies.append(seconds)
        self.busy += seconds
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.kind}: {'; '.join(problems)[:300]}")
        else:
            self.units += op.units

    def end_cycle(self) -> None:
        units = self.units - sum(u for u, _ in self.cycles)
        busy = self.busy - sum(b for _, b in self.cycles)
        self.cycles.append((units, busy))

    def cycle_rates(self) -> list[float]:
        return [units / busy for units, busy in self.cycles]


def timed(workload, op):
    t0 = time.perf_counter()
    try:
        output = workload.run(op)
    except Exception as exc:  # a raising operation is a failed operation
        return None, time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
    return output, time.perf_counter() - t0, []


def check_output(workload, op, output, references, index: int, position: int) -> list[str]:
    import workloads

    problems = workload.check(op, output)
    if references is not None and index == 0 and not problems:
        got = workload.summary(op, output)
        problems = workloads.compare(references[position], got, f"reference[{position}]")[:3]
    return problems


def run_untraced(workload, seed: int, seconds: float, references) -> Tally:
    tally = Tally()
    wall = time.perf_counter()
    index = 0
    while index == 0 or (tally.busy < seconds and time.perf_counter() - wall < WALL_LIMIT_S):
        ops = workload.cycle(seed, index)
        workload.stage(ops, OUT / "work" / f"run-{os.getpid()}")
        try:
            for position, op in enumerate(ops):
                output, dt, problems = timed(workload, op)
                if not problems:
                    problems = check_output(workload, op, output, references, index, position)
                tally.add(op, dt, problems)
                del output
        finally:
            workload.unstage(ops)
        tally.end_cycle()
        index += 1
    return tally


def run_traced(workload, seed: int, seconds: float, references, tracer):
    """Each operation untraced and traced, in alternating order; the traced
    output is checked and must equal the untraced one."""
    plain, traced = Tally(), Tally()
    same = 0
    stdout_bytes = 0
    wall = time.perf_counter()
    index = 0
    while index == 0 or (plain.busy + traced.busy < seconds
                         and time.perf_counter() - wall < WALL_LIMIT_S):
        ops = workload.cycle(seed, index)
        workload.stage(ops, OUT / "work" / f"run-{os.getpid()}")
        try:
            for position, op in enumerate(ops):
                runs = {}
                for traced_now in ((False, True) if position % 2 == 0 else (True, False)):
                    if traced_now:
                        with tracer.active(op.kind, op.units, "op"):
                            runs[True] = timed(workload, op)
                    else:
                        runs[False] = timed(workload, op)
                out_plain, dt_plain, err_plain = runs[False]
                out_traced, dt_traced, problems = runs[True]
                if not problems:
                    with tracer.active(op.kind, 0, "check"):
                        problems = check_output(workload, op, out_traced, references,
                                                index, position)
                identical = not err_plain and out_traced is not None and (
                    workload.comparable(op, out_plain) == workload.comparable(op, out_traced))
                same += identical
                if not identical:
                    problems = problems + ["traced output differs from untraced output"]
                stdout_bytes += workload.stdout_bytes(out_traced)
                plain.add(op, dt_plain, err_plain)
                traced.add(op, dt_traced, problems)
                del out_plain, out_traced, runs
        finally:
            workload.unstage(ops)
        index += 1
    return plain, traced, same, stdout_bytes


# --------------------------------------------------------------- run record


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 "threads": blas_threads(np)},
        "nproc": nproc(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loop": "closed",
        "clients": 1,
    }


def blas_threads(np) -> int | str:
    """Thread count reported by the bundled OpenBLAS, else the setting."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return f"{BLAS_THREAD_VARS[0]}={os.environ.get(BLAS_THREAD_VARS[0])}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SOURCE / "specgraph").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------- main


def end_to_end(workload, tally: Tally, setup: list[float]) -> tuple[dict, dict]:
    import resource

    ordered = sorted(tally.latencies)
    q = workload.tail_percentile
    tail = percentile(ordered, q)
    beyond = sum(1 for x in ordered if x > tail)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "work_per_s": {"value": tally.units / tally.busy, "unit": "1/s"},
        "latency_p50_ms": {"value": percentile(ordered, 50.0) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    detail = {
        "unit_of_work": workload.unit,
        "units": tally.units,
        "busy_s": tally.busy,
        "cycle_rates": tally.cycle_rates(),
        "fail_frac": tally.failed / tally.attempted,
        "latency_tail": {"percentile": q, "samples": len(ordered), "beyond": beyond},
        "setup_probes_s": setup,
    }
    return metrics, detail


# Per-layer counts derived from input sizes rather than counted while the
# program runs.
COMPUTED = {
    "invariants.subsets": "2^n per h or hbar call, 2^(n-1) per kappa call",
    "graph.edges_built": "edges of each built graph",
    "graph.json_bytes_in": "length of each JSON text parsed",
}


def unit_of(name: str) -> str:
    metric = name.partition(".")[2]
    if metric.endswith("_ns_per_subset"):
        return "ns"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s/unit"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    if metric.endswith("bytes") or metric == "json_bytes_in":
        return "bytes/unit"
    return "count/unit"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "exact", "certify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    limit_blas_threads()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    import_specgraph()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    references = None
    if args.seed == workloads.DEFAULT_SEED:
        references = json.loads(workloads.reference_path(workload.name).read_text())
    record = run_record(workload.name, args.seed, args.seconds, args.trace)

    setup = measure_setup(workload.name, args.seed) if args.trace == 0 else []
    warm = workload.warmup(args.seed)
    workload.stage(warm, OUT / "work" / f"warm-{os.getpid()}")
    try:
        for op in warm:
            workload.run(op)
    finally:
        workload.unstage(warm)

    if args.trace == 0:
        tally = run_untraced(workload, args.seed, args.seconds, references)
        metrics, detail = end_to_end(workload, tally, setup)
    else:
        tracer = tracing.Tracer()
        plain, tally, same, stdout_bytes = run_traced(
            workload, args.seed, args.seconds, references, tracer)
        overhead = 1.0 - plain.busy / tally.busy
        values, detail = tracing.layer_metrics(
            tracer, stdout_bytes, same / tally.attempted, overhead)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in values.items()}
        spans_path = OUT / "out" / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.write(spans_path)
        detail.update({
            "unit_of_work": workload.unit,
            "fail_frac": tally.failed / tally.attempted,
            "untraced_busy_s": plain.busy,
            "traced_busy_s": tally.busy,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "computed_not_measured": COMPUTED,
        })
    detail["problems"] = tally.problems
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (OUT / "out").mkdir(parents=True, exist_ok=True)
    (OUT / "out" / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"run_record": record, "detail": detail, "result": result}, indent=1))
    for problem in tally.problems:
        sys.stderr.write(f"specbench: check failed: {problem}\n")
    print(json.dumps({"run_record": record}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
