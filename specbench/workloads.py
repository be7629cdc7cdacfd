"""The three benchmark workloads: inputs from a seed, one call, one check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned, the way library and CLI callers wait for
each answer.  A workload is a fixed *cycle* of operations; the runner repeats
whole cycles, each with fresh inputs drawn from ``(seed, cycle index)``, so
the mix of operation kinds in a run does not depend on how many cycles fit.

The program receives only generated graphs (as JSON text or files), suite
configurations and probability sequences.  Calls into ``specgraph`` look the
function up on its module at call time, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import specgraph.cli
import specgraph.graph
import specgraph.harness
import specgraph.invariants

from specgraph.harness import CHECK_MANIFEST

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Relative tolerance for re-evaluated witnesses, and the partition route.
WITNESS_RTOL = 1e-12
PARTITION_ATOL = 1e-12
# Reference comparison: floats may differ in their last bits between BLAS
# kernels; structure, counts and strings may not differ at all.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12


@dataclass
class Op:
    """One operation: its kind, the units of work it completes, its inputs."""

    kind: str
    units: int
    args: dict = field(default_factory=dict)


# Cycle index reserved for warm-up inputs; measured cycles count up from 0.
WARMUP = 2**32 - 1


def _rng(seed: int, index: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, index, tag])


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def compare(ref, got, where: str = "") -> list[str]:
    """Differences between a recorded reference and a fresh output summary."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{where}: keys {sorted(set(ref) ^ set(got))} differ"]
        return [p for k in ref for p in compare(ref[k], got[k], f"{where}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [p for i, (a, b) in enumerate(zip(ref, got)) for p in compare(a, b, f"{where}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)) \
                and not isinstance(ref, bool) and not isinstance(got, bool):
            if math.isinf(ref) or math.isinf(got):
                return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]
            if _close(float(ref), float(got), REFERENCE_RTOL, REFERENCE_ATOL):
                return []
        return [f"{where}: {got!r} != {ref!r}"]
    return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]


def _jsonable(obj):
    return json.loads(json.dumps(obj))


class Workload:
    """Defaults shared by the workloads; each overrides what it needs.

    ``cycle`` and ``warmup`` make the inputs, ``stage`` writes any input
    files before a cycle (untimed), ``run`` is the timed call, ``check``
    returns the problems found in one output, ``summary`` is the part of an
    output compared with the recorded references, and ``comparable`` the
    part that must not change under tracing.
    """

    def stage(self, ops: list[Op], workdir: Path) -> None:
        pass

    def unstage(self, ops: list[Op]) -> None:
        pass

    def comparable(self, op: Op, output):
        return output

    def stdout_bytes(self, output) -> int:
        return 0


# ====================================================================== sweep


class Sweep(Workload):
    """``run_suite`` on blocks of seeded random graphs, plus the families.

    The unit is one graph verified.  Each cycle makes four calls on random
    blocks (every size n = 4..12 once, edge probability 0.5) and one call on
    the fixed family instances alone.
    """

    name = "sweep"
    unit = "graph"
    # (1 - 0.93) x 5 calls per cycle = 0.35 calls: the tail lies in the
    # slowest call of a cycle (the families); about 50 cycles fit in a run.
    tail_percentile = 93.0
    BLOCK = 9
    BLOCKS_PER_CYCLE = 4
    FAMILY_INSTANCES = 10
    # Checks that graph_checks repeats on the extra random mean-free function
    # it draws for every random (seeded) graph.
    PER_RANDOM_FUNCTION = frozenset({
        "split_half_measure", "split_disjoint_support", "split_norm_domination",
        "split_energy_domination", "coarea_level_measure", "coarea_level_boundary",
        "auxiliary_norm", "auxiliary_energy",
    })

    def _block(self, base: int) -> Op:
        return Op("random_block", self.BLOCK, {
            "seeds": self.BLOCK, "n_min": 4, "n_max": 12, "edge_probability": 0.5,
            "base_seed": int(base), "include_families": False,
        })

    def _families(self) -> Op:
        return Op("families", self.FAMILY_INSTANCES, {"seeds": 0, "include_families": True})

    def cycle(self, seed: int, index: int) -> list[Op]:
        bases = _rng(seed, index, 1).integers(0, 2**31, size=self.BLOCKS_PER_CYCLE)
        return [self._block(base) for base in bases] + [self._families()]

    def warmup(self, seed: int) -> list[Op]:
        return [self._block(_rng(seed, WARMUP, 1).integers(0, 2**31)), self._families()]

    def run(self, op: Op):
        harness = specgraph.harness
        return harness.run_suite(harness.SuiteConfig(**op.args))

    def check(self, op: Op, summary: dict) -> list[str]:
        problems = []
        if summary.get("ok") is not True:
            problems.append("summary is not ok")
        if summary.get("failures"):
            problems.append(f"{len(summary['failures'])} failing reports")
        if summary.get("uncovered_checks"):
            problems.append(f"uncovered checks {summary['uncovered_checks']}")
        if summary.get("instances") != op.units:
            problems.append(f"{summary.get('instances')} instances, expected {op.units}")
        checks = summary.get("checks", {})
        if set(checks) != set(CHECK_MANIFEST):
            problems.append("check ids differ from the manifest")
        random = op.units if not op.args["include_families"] else op.units - self.FAMILY_INSTANCES
        families = op.units - random
        for check_id, entry in checks.items():
            per_random = 2 if check_id in self.PER_RANDOM_FUNCTION else 1
            expected = families + per_random * random
            if entry.get("count") != expected:
                problems.append(f"{check_id}: {entry.get('count')} reports, expected {expected}")
            if entry.get("failures") != 0:
                problems.append(f"{check_id}: {entry.get('failures')} failures")
        return problems

    def summary(self, op: Op, summary: dict):
        return _jsonable({
            "ok": summary["ok"],
            "instances": summary["instances"],
            "observed_kappa_max": summary["observed_kappa_max"],
            "checks": {
                key: {k: entry[k] for k in ("count", "failures", "min_slack")}
                for key, entry in summary["checks"].items()
            },
        })


# ====================================================================== exact


def random_graph_edges(rng: np.random.Generator, n: int, density: float) -> list:
    """Connected graph with exactly ``round(density * n(n-1)/2)`` edges.

    A fixed edge count per (n, density), instead of independent edge draws,
    keeps the per-edge cost of the enumerations equal across seeds.  Weights
    are log-uniform in [1e-3, 1], like the harness's random graphs.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = round(density * len(pairs))
    while True:
        chosen = sorted(rng.choice(len(pairs), size=m, replace=False).tolist())
        edges = [pairs[i] for i in chosen]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        if len({find(x) for x in range(n)}) == 1:
            weights = 10.0 ** rng.uniform(-3.0, 0.0, size=m)
            return [[u, v, float(w)] for (u, v), w in zip(edges, weights)]


class Exact(Workload):
    """Exact-invariant queries near the enumeration caps.

    The unit is one query: parse a graph from its JSON text and compute one
    invariant with its witness.  Each cycle asks every (invariant, n, density)
    once: h at n = 20..22, hbar at n = 15..17 (cap raised to 17, as
    ``--max-n`` does), kappa at n = 18..20, each on a sparse (0.25) and a
    dense (0.75) graph.
    """

    name = "exact"
    unit = "query"
    # 18 queries per cycle: (1 - 0.80) x 18 = 3.6 kinds lie beyond the tail,
    # which puts it inside the fourth-slowest kind with 3 or more cycles.
    tail_percentile = 80.0
    QUERIES = (
        [("cheeger_constant_exact", n, None) for n in (20, 21, 22)]
        + [("dual_cheeger_exact", n, 17) for n in (15, 16, 17)]
        + [("kappa_exact", n, None) for n in (18, 19, 20)]
    )
    DENSITIES = (0.25, 0.75)

    def _op(self, rng, fn: str, n: int, cap: int | None, density: float) -> Op:
        text = json.dumps({"edges": random_graph_edges(rng, n, density)})
        return Op(f"{fn}/n{n}/p{density}", 1, {"fn": fn, "max_n": cap, "text": text})

    def cycle(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, index, 2)
        return [self._op(rng, fn, n, cap, d)
                for fn, n, cap in self.QUERIES for d in self.DENSITIES]

    def warmup(self, seed: int) -> list[Op]:
        rng = _rng(seed, WARMUP, 2)
        return [self._op(rng, fn, n, cap, self.DENSITIES[0])
                for fn, n, cap in (self.QUERIES[0], self.QUERIES[3], self.QUERIES[6])]

    def run(self, op: Op):
        graph = specgraph.graph.graph_from_json(op.args["text"])
        query = getattr(specgraph.invariants, op.args["fn"])
        return graph, query(graph, max_n=op.args["max_n"])

    def comparable(self, op: Op, output):
        _, report = output
        return report.invariant, report.value, report.witness

    def check(self, op: Op, output) -> list[str]:
        graph, report = output
        value = report.value
        if not math.isfinite(value):
            return [f"value {value!r} is not finite"]
        full = (1 << graph.n) - 1
        fn = op.args["fn"]
        # Looked up at call time like the operations, so the traced run also
        # times the checks (the partition route is exact's only h_via_r call).
        inv = specgraph.invariants
        if fn == "cheeger_constant_exact":
            mask = report.witness
            if not (isinstance(mask, int) and 0 < mask < full):
                return [f"witness {mask!r} is not a proper nonempty set"]
            again = inv.cheeger_ratio(graph, mask)
            problems = []
            if not _close(again, value, WITNESS_RTOL):
                problems.append(f"witness ratio {again!r} != h {value!r}")
            route = inv.h_via_r(graph, op.args["max_n"])
            if abs(route - value) > PARTITION_ATOL:
                problems.append(f"partition route {route!r} != h {value!r}")
            return problems
        mask_a, mask_b = report.witness
        if mask_a == 0 or mask_b == 0 or mask_a & mask_b or (mask_a | mask_b) & ~full:
            return [f"witness {report.witness!r} is not a disjoint nonempty pair"]
        if fn == "dual_cheeger_exact":
            again = inv.dual_cheeger_ratio(graph, mask_a, mask_b)
        else:
            if mask_a | mask_b != full:
                return [f"witness {report.witness!r} is not a partition"]
            again = inv.kappa_pair(graph, mask_a, mask_b)
        if not _close(again, value, WITNESS_RTOL):
            return [f"witness value {again!r} != {report.invariant} {value!r}"]
        return []

    def summary(self, op: Op, output):
        _, report = output
        return _jsonable({"value": report.value, "witness": report.witness})


# ==================================================================== certify


def product_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Decreasing probability-like weights ``p_i`` for a product-weight graph.

    A jittered geometric sequence with ratio near 1 keeps every product
    ``p_i p_j`` far from underflow at 800 vertices.
    """
    ratio = rng.uniform(0.990, 0.996)
    p = (1.0 - ratio) * ratio ** np.arange(n) * (1.0 + 0.1 * rng.random(n))
    return np.sort(p)[::-1].copy()


def product_graph_json(p: np.ndarray) -> str:
    """Wire format of the complete graph with edge weights ``p_i p_j``."""
    n = len(p)
    pl = p.tolist()
    edges = [[i, j, pl[i] * pl[j]] for i in range(n) for j in range(i + 1, n)]
    return json.dumps({"labels": list(range(1, n + 1)), "edges": edges})


def probability_sequence(rng: np.random.Generator, ratio: float) -> list[float]:
    """Strictly decreasing head for a geometric tail ``ratio``, summing to 1.

    Tail ratios in [0.6, 0.8] keep the high roots' pole intervals resolvable
    in float64 and the truncations short.
    """
    length = int(rng.integers(3, 9))
    x = [1.0]
    for _ in range(length - 1):
        x.append(x[-1] * float(rng.uniform(0.35, 0.85)))
    total = math.fsum(x) + x[-1] * ratio / (1.0 - ratio)
    return [v / total for v in x]


class Certify(Workload):
    """In-process ``specgraph`` CLI requests with stdout captured.

    The unit is one request.  Each cycle sends seven ``spectrum`` requests on
    JSON files of dense product-weight graphs (two with ``--eigenvectors``)
    and 56 ``kgraph`` requests on seeded sequences with 10-40 roots, every
    other one with ``--asymmetry``; the ``kgraph`` requests carry about a
    third of the time.
    """

    name = "certify"
    unit = "request"
    SPECTRA = ((200, False), (400, False), (400, False), (400, False), (800, False),
               (300, True), (600, True))
    KGRAPH_PER_CYCLE = 56
    # 63 requests per cycle: (1 - 0.94444) x 63 = 3.5 requests lie beyond the
    # tail.  The two slowest (800 plain, 600 with eigenvectors) are followed
    # by four of about equal cost (three 400 plain, 300 with eigenvectors),
    # so the tail lies inside that block, not on the edge between two kinds.
    tail_percentile = 94.444
    TOL = 1e-9

    def _spectrum(self, rng, n: int, vectors: bool) -> Op:
        p = product_weights(rng, n)
        kind = f"spectrum/n{n}" + ("/eigenvectors" if vectors else "")
        return Op(kind, 1, {"p": p, "vectors": vectors, "text": product_graph_json(p)})

    def _kgraph(self, rng, roots: int, ratio: float, asymmetry: bool) -> Op:
        head = probability_sequence(rng, ratio)
        argv = ["kgraph", "--head", ",".join(repr(x) for x in head),
                "--tail-ratio", repr(ratio), "--roots", str(roots)]
        if asymmetry:
            argv.append("--asymmetry")
        return Op("kgraph/asymmetry" if asymmetry else "kgraph", 1,
                  {"argv": argv, "roots": roots, "asymmetry": asymmetry})

    def cycle(self, seed: int, index: int) -> list[Op]:
        rng = _rng(seed, index, 3)
        spectra = [self._spectrum(rng, n, v) for n, v in self.SPECTRA]
        kgraphs = [self._kgraph(rng, *plan) for plan in self._kgraph_plan(rng)]
        ops = []
        bounds = [len(kgraphs) * i // len(spectra) for i in range(len(spectra) + 1)]
        for i, spec in enumerate(spectra):
            ops.append(spec)
            ops.extend(kgraphs[bounds[i]:bounds[i + 1]])
        return ops

    def _kgraph_plan(self, rng) -> list[tuple[int, float, bool]]:
        """Roots, tail ratio and asymmetry flag of each request in a cycle.

        Roots and ratios are stratified over their ranges, so every cycle
        holds the same spread of request costs; only the draws inside each
        stratum and the sequence heads change with the seed.
        """
        count = self.KGRAPH_PER_CYCLE
        roots = [10 + (30 * i) // (count - 1) for i in range(count)]
        ratios = [0.6 + 0.2 * (i + rng.random()) / count for i in range(count)]
        # A fixed stride pairs roots with ratios without correlating them.
        return [(roots[i], ratios[(i * 23) % count], i % 2 == 1) for i in range(count)]

    def warmup(self, seed: int) -> list[Op]:
        rng = _rng(seed, WARMUP, 3)
        return [self._spectrum(rng, 200, False), self._spectrum(rng, 200, True),
                self._kgraph(rng, 10, 0.7, False), self._kgraph(rng, 10, 0.7, True)]

    def stage(self, ops: list[Op], workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(ops):
            if "text" in op.args:
                path = workdir / f"graph-{i}.json"
                path.write_text(op.args["text"])
                op.args["argv"] = ["spectrum", str(path)] + (
                    ["--eigenvectors"] if op.args["vectors"] else [])

    def unstage(self, ops: list[Op]) -> None:
        files = [Path(op.args["argv"][1]) for op in ops if "text" in op.args]
        for path in files:
            path.unlink(missing_ok=True)
        for folder in {path.parent for path in files}:
            folder.rmdir()

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = specgraph.cli.main(list(op.args["argv"]))
        return code, out.getvalue(), err.getvalue()

    def stdout_bytes(self, output) -> int:
        return len(output[1])

    def check(self, op: Op, output) -> list[str]:
        code, out, err = output
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        try:
            payload = json.loads(out)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        if "text" in op.args:
            return self._check_spectrum(op, payload)
        return self._check_kgraph(op, payload)

    def _check_spectrum(self, op: Op, payload) -> list[str]:
        p = op.args["p"]
        n = len(p)
        values = np.asarray(payload["values"] if op.args["vectors"] else payload, dtype=float)
        problems = []
        if values.shape != (n,):
            return [f"{values.shape} eigenvalues for {n} vertices"]
        if np.any(np.diff(values) < 0.0):
            problems.append("eigenvalues are not sorted")
        if values.min() < 0.0 or values.max() > 2.0:
            problems.append(f"eigenvalues leave [0, 2]: [{values.min()}, {values.max()}]")
        if abs(math.fsum(values) - n) > 1e-9 * n:
            problems.append(f"eigenvalues sum to {math.fsum(values)!r}, not {n}")
        if op.args["vectors"]:
            if not payload["max_residual"] <= 1e-9:
                problems.append(f"max_residual {payload['max_residual']!r} above 1e-9")
            vectors = payload["eigenvectors"]
            if len(vectors) != n:
                problems.append(f"{len(vectors)} eigenvectors for {n} vertices")
            else:
                # Independent residual of three eigenpairs: for product
                # weights, W f = p (p . f) - p^2 f and m = p (sum p - p).
                m = p * (p.sum() - p)
                for k in (0, n // 2, n - 1):
                    f = np.asarray(vectors[k], dtype=float)
                    lap_f = f - (p * (p @ f) - p * p * f) / m
                    err = lap_f - values[k] * f
                    rel = math.sqrt(float(m @ (err * err)) / float(m @ (f * f)))
                    if not rel <= 1e-8:
                        problems.append(f"eigenpair {k} residual {rel!r}")
        return problems

    def _check_kgraph(self, op: Op, payload) -> list[str]:
        roots = payload.get("roots", [])
        problems = []
        if len(roots) != op.args["roots"]:
            problems.append(f"{len(roots)} roots, asked for {op.args['roots']}")
        for i, root in enumerate(roots, start=1):
            lo, hi = root["bracket"]
            if root["index"] != i or not lo < root["value"] < hi:
                problems.append(f"root {i} value {root['value']!r} outside ({lo}, {hi})")
            if not root["residual"] + root["tail_bound"] <= self.TOL:
                problems.append(f"root {i} residual + tail above {self.TOL}")
        if not payload.get("hilbert_schmidt", {}).get("passed"):
            problems.append("Hilbert-Schmidt bound not passed")
        if op.args["asymmetry"]:
            lo, hi = payload.get("asymmetry", (math.nan, math.nan))
            if not 0.0 <= lo <= hi:
                problems.append(f"asymmetry enclosure [{lo}, {hi}] is not ordered")
        return problems

    def summary(self, op: Op, output):
        payload = json.loads(output[1])
        if "text" in op.args:
            values = payload["values"] if op.args["vectors"] else payload
            return _jsonable({"values": values})
        return _jsonable({
            "roots": [root["value"] for root in payload["roots"]],
            "top_interval": payload["top_interval"],
            "kappa": payload["kappa"]["value"],
            "asymmetry": payload.get("asymmetry"),
        })


WORKLOADS = {w.name: w for w in (Sweep(), Exact(), Certify())}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"
