"""Self-tests of the benchmark: inputs, output checks and tracing.

Run from the root of a checkout::

    python3 -m pytest specbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.limit_blas_threads()
specgraph = run.import_specgraph()

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _inputs(ops: list[Op]) -> list:
    def plain(value):
        return value.tolist() if isinstance(value, np.ndarray) else value

    return [(op.kind, op.units, {k: plain(v) for k, v in op.args.items()}) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_reproduces_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = _inputs(workload.cycle(11, 2))
    assert first == _inputs(workload.cycle(11, 2))
    assert first != _inputs(workload.cycle(12, 2))
    assert first != _inputs(workload.cycle(11, 3))
    assert _inputs(workload.warmup(11)) == _inputs(workload.warmup(11))


# ----------------------------------------------------------- small operations


def _graph_text(n: int, seed: int) -> str:
    edges = workloads.random_graph_edges(np.random.default_rng(seed), n, 0.5)
    return json.dumps({"edges": edges})


def _exact_op(fn: str) -> Op:
    return Op(f"{fn}/n10", 1, {"fn": fn, "max_n": None, "text": _graph_text(10, 5)})


def _spectrum_op(n: int, vectors: bool) -> Op:
    p = workloads.product_weights(np.random.default_rng(n), n)
    return Op("spectrum", 1, {"p": p, "vectors": vectors, "text": workloads.product_graph_json(p)})


def _kgraph_op() -> Op:
    return workloads.Certify()._kgraph(np.random.default_rng(3), 12, 0.7, True)


def _run_checked(workload, op, tmp_path):
    workload.stage([op], tmp_path)
    output = workload.run(op)
    assert workload.check(op, output) == []
    return output


# -------------------------------------------------------------- output checks


def test_sweep_check_flags_corrupted_summary():
    workload = workloads.WORKLOADS["sweep"]
    op = workload.cycle(1, 0)[0]
    summary = workload.run(op)
    assert workload.check(op, summary) == []
    corruptions = [
        lambda s: s.update(ok=False),
        lambda s: s.update(instances=s["instances"] + 1),
        lambda s: s["failures"].append({"check": "trace_dimension"}),
        lambda s: s["uncovered_checks"].append("trace_dimension"),
        lambda s: s["checks"]["coarea_level_measure"].update(count=op.units),
        lambda s: s["checks"]["trace_dimension"].update(failures=1),
    ]
    for corrupt in corruptions:
        bad = copy.deepcopy(summary)
        corrupt(bad)
        assert workload.check(op, bad), corrupt


@pytest.mark.parametrize(
    "fn", ["cheeger_constant_exact", "dual_cheeger_exact", "kappa_exact"])
def test_exact_check_flags_corrupted_report(fn, tmp_path):
    workload = workloads.WORKLOADS["exact"]
    op = _exact_op(fn)
    graph, report = _run_checked(workload, op, tmp_path)
    off_value = dataclasses.replace(report, value=report.value * (1 + 1e-9) + 1e-12)
    assert workload.check(op, (graph, off_value))
    witness = report.witness
    if isinstance(witness, int):
        other = witness ^ 1 if witness ^ 1 else witness ^ 2
    else:
        a, b = witness
        low = b & -b  # move one vertex of B into A
        other = (a | low, b & ~low) if b & ~low else (a & ~(a & -a), b | (a & -a))
    assert workload.check(op, (graph, dataclasses.replace(report, witness=other)))


def test_certify_check_flags_corrupted_spectrum(tmp_path):
    workload = workloads.WORKLOADS["certify"]
    op = _spectrum_op(30, False)
    code, out, err = _run_checked(workload, op, tmp_path)
    values = json.loads(out)
    swapped = values[:]
    swapped[3], swapped[4] = values[4], values[3] + 1e-3
    scaled = [v * 1.001 for v in values]
    for bad in (swapped, scaled):
        assert workload.check(op, (code, json.dumps(bad), err))
    assert workload.check(op, (1, out, err))


def test_certify_check_flags_corrupted_eigenvector(tmp_path):
    workload = workloads.WORKLOADS["certify"]
    op = _spectrum_op(30, True)
    code, out, err = _run_checked(workload, op, tmp_path)
    payload = json.loads(out)
    payload["eigenvectors"][15][0] += 1e-3
    assert workload.check(op, (code, json.dumps(payload), err))
    payload = json.loads(out)
    payload["max_residual"] = 1e-6
    assert workload.check(op, (code, json.dumps(payload), err))


def test_certify_check_flags_corrupted_root(tmp_path):
    workload = workloads.WORKLOADS["certify"]
    op = _kgraph_op()
    code, out, err = _run_checked(workload, op, tmp_path)
    for field_name, value in (("value", 3.0), ("residual", 1e-6)):
        payload = json.loads(out)
        payload["roots"][1][field_name] = value
        assert workload.check(op, (code, json.dumps(payload), err)), field_name
    payload = json.loads(out)
    payload["roots"].pop()
    assert workload.check(op, (code, json.dumps(payload), err))


def test_reference_comparison_flags_changed_output():
    ref = {"values": [0.0, 1.25, 2.0], "witness": [3, 4], "ok": True}
    assert workloads.compare(ref, copy.deepcopy(ref)) == []
    assert workloads.compare(ref, {**ref, "values": [0.0, 1.25 * (1 + 1e-12), 2.0]}) == []
    assert workloads.compare(ref, {**ref, "values": [0.0, 1.2500001, 2.0]})
    assert workloads.compare(ref, {**ref, "witness": [3, 5]})
    assert workloads.compare(ref, {**ref, "ok": False})


# -------------------------------------------------------------------- tracing


def _bindings() -> dict:
    return {(mod.__name__, attr): value
            for mod in tracing.specgraph_modules() for attr, value in vars(mod).items()}


def test_traced_operation_returns_untraced_output(tmp_path):
    before = _bindings()
    init = specgraph.graph.WeightedGraph.__init__
    cases = [
        (workloads.WORKLOADS["sweep"], workloads.WORKLOADS["sweep"].cycle(2, 0)[0]),
        (workloads.WORKLOADS["exact"], _exact_op("dual_cheeger_exact")),
        (workloads.WORKLOADS["certify"], _spectrum_op(40, True)),
        (workloads.WORKLOADS["certify"], _kgraph_op()),
    ]
    for workload, op in cases:
        workload.stage([op], tmp_path)
        untraced = workload.comparable(op, workload.run(op))
        tracer = tracing.Tracer()
        with tracer.active(op.kind, op.units, "op"):
            assert specgraph.harness.spectrum is not before[("specgraph.spectral", "spectrum")]
            traced = workload.comparable(op, workload.run(op))
        assert traced == untraced, op.kind
        assert len(tracer.start) > 0
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert specgraph.graph.WeightedGraph.__init__ is init


def test_traced_sweep_counts_calls_per_graph():
    workload = workloads.WORKLOADS["sweep"]
    op = workload.cycle(4, 0)[0]
    tracer = tracing.Tracer()
    with tracer.active(op.kind, op.units, "op"):
        workload.run(op)
    metrics, _ = tracing.layer_metrics(tracer, 0, 1.0, 0.0)
    assert metrics["invariants.kappa_calls"] == 4
    assert metrics["invariants.dual_calls"] == 3
    assert metrics["invariants.cheeger_calls"] == 3
    assert metrics["spectral.spectrum_calls"] == 5
    assert metrics["spectral.eigvec_calls"] == 1
    # Random graphs run the split, co-area and companion checks twice.
    assert metrics["reports.fingerprint_calls"] == 11
    assert metrics["harness.per_graph_ms"] > 0.0


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
