"""Record the golden corpus: CLI stdout digests that a refactor must not move.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/record.py

writes the input graphs to ``tests/golden/inputs/`` and the command list
with each command's stdout sha256 and exit code, plus the digest of the
``run_suite(SuiteConfig())`` JSON, to ``tests/golden/corpus.json``.
``tests/test_golden.py`` replays the stored commands against those digests.

Record only on purpose: a change meant to keep every printed number must pass
against the digests recorded before it.  Eigenvalue output depends on LAPACK,
BLAS and the thread count, so the environment is stored with the digests and
commands marked ``lapack`` are compared only in the same environment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from specgraph import cli
from specgraph.graph import WeightedGraph, graph_to_json
from specgraph.harness import RandomGraphSpec, SuiteConfig, run_suite, sample_graph

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
CORPUS = HERE / "corpus.json"

# One small graph per family, as ``gen`` arguments.
FAMILY_INPUTS = {
    "complete_unit": ["--family", "complete_unit", "--n", "6"],
    "cycle": ["--family", "cycle", "--n", "7"],
    "path": ["--family", "path", "--n", "6"],
    "halfline_m3": ["--family", "halfline_m3", "--n", "6"],
    "halfline_m4": ["--family", "halfline_m4", "--n", "6", "--r", "0.5"],
    "ladder_L": ["--family", "ladder_L", "--n", "4", "--r", "0.5", "--rho", "0.3"],
    "K_m1": ["--family", "K_m1", "--n", "10", "--p-head", "0.5,0.25", "--p-ratio", "0.5"],
    "K_m2": ["--family", "K_m2", "--n", "9"],
}
GRAPH_COMMANDS = {
    "spectrum": (["spectrum", "-"], True),
    "spectrum-vectors": (["spectrum", "-", "--eigenvectors"], True),
    "cheeger": (["cheeger", "-"], False),
    "cheeger-connected": (["cheeger", "-", "--connected-only"], False),
    "dual-cheeger": (["dual-cheeger", "-"], False),
    "kappa": (["kappa", "-"], False),
}


def _labelled_graph() -> WeightedGraph:
    edges = [(0, 1, 0.75), (1, 2, 2.5), (2, 3, 0.125), (3, 0, 1.0), (0, 4, 3.0),
             (1, 4, 0.5), (2, 5, 1e-3), (3, 5, 7.0)]
    return WeightedGraph(edges, labels=["a", "b", "c", "d", "roof", "cellar"])


def command_list() -> list[dict]:
    """Every golden command: ``id``, ``argv``, where stdin comes from, and
    whether its stdout carries eigensolver output (``lapack``)."""
    commands = []

    def add(cmd_id, argv, lapack=False, stdin_file=None, stdin_from=None):
        commands.append({
            "id": cmd_id, "argv": argv, "lapack": lapack,
            "stdin_file": stdin_file, "stdin_from": stdin_from,
        })

    for family, args in FAMILY_INPUTS.items():
        add(f"gen/{family}", ["gen", *args])
    add("gen/K_m1-renormalize", ["gen", *FAMILY_INPUTS["K_m1"], "--renormalize"])
    add("gen/K_m1-200", ["gen", "--family", "K_m1", "--n", "200",
                         "--p-head", "0.3", "--p-ratio", "0.7"])
    add("spectrum/K_m1-200", ["spectrum", "-"], lapack=True, stdin_from="gen/K_m1-200")

    for name in [*FAMILY_INPUTS, "random", "labelled"]:
        for what, (argv, lapack) in GRAPH_COMMANDS.items():
            add(f"{what}/{name}", argv, lapack=lapack, stdin_file=f"{name}.json")
    add("kappa/ladder_L-over-cap", ["kappa", "-", "--max-n", "4"],
        stdin_file="ladder_L.json")

    seq = ["--head", "0.5,0.25", "--tail-ratio", "0.5"]
    add("kgraph/dyadic", ["kgraph", *seq, "--roots", "5"])
    add("kgraph/dyadic-asymmetry", ["kgraph", *seq, "--roots", "5", "--asymmetry"])
    add("kgraph/decimal-asymmetry",
        ["kgraph", "--head", "0.9", "--tail-ratio", "0.1", "--roots", "2", "--asymmetry"])
    add("kgraph/geometric-40",
        ["kgraph", "--head", "0.3", "--tail-ratio", "0.7", "--roots", "40"])
    add("trace/walk", ["trace", *seq, "--from", "-1.5", "--to", "0.5", "--points", "60"])
    add("trace/laplacian", ["trace", *seq, "--variable", "laplacian",
                            "--from", "1.2", "--to", "1.9", "--points", "50"])
    add("verify/seeds-20", ["verify", "--seeds", "20"], lapack=True)
    return commands


def environment() -> dict:
    """What eigensolver output depends on: numpy, its BLAS, threads, CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS") or str(os.cpu_count()))
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        if models:
            cpu = models[0]
    return {"numpy": np.__version__, "blas": blas_id, "threads": threads, "cpu": cpu}


def run_cli(argv: list[str], stdin_text: str | None) -> tuple[str, int]:
    """``specgraph <argv>`` in process: its stdout and exit code."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return out.getvalue(), code


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_commands(commands: list[dict], select=lambda cmd: True) -> dict:
    """``id -> {"sha256", "exit"}`` for the selected commands.  A command
    whose stdin is another command's stdout runs that one first."""
    by_id = {cmd["id"]: cmd for cmd in commands}
    outputs: dict[str, tuple[str, int]] = {}

    def run(cmd_id: str) -> tuple[str, int]:
        if cmd_id not in outputs:
            cmd = by_id[cmd_id]
            if cmd["stdin_from"] is not None:
                stdin = run(cmd["stdin_from"])[0]
            elif cmd["stdin_file"] is not None:
                stdin = (INPUTS / cmd["stdin_file"]).read_text()
            else:
                stdin = None
            outputs[cmd_id] = run_cli(cmd["argv"], stdin)
        return outputs[cmd_id]

    results = {}
    for cmd in commands:
        if select(cmd):
            text, code = run(cmd["id"])
            results[cmd["id"]] = {"sha256": sha256(text), "exit": code}
    return results


def suite_digest() -> str:
    """sha256 of the default ``run_suite`` summary as sorted-key JSON."""
    return sha256(json.dumps(run_suite(SuiteConfig()), sort_keys=True))


def write_inputs() -> None:
    INPUTS.mkdir(exist_ok=True)
    for family, args in FAMILY_INPUTS.items():
        text, code = run_cli(["gen", *args], None)
        if code != 0:
            raise RuntimeError(f"gen {family} exited {code}")
        (INPUTS / f"{family}.json").write_text(text)
    random_graph = sample_graph(RandomGraphSpec(n=10, seed=7))
    (INPUTS / "random.json").write_text(graph_to_json(random_graph) + "\n")
    (INPUTS / "labelled.json").write_text(graph_to_json(_labelled_graph()) + "\n")


def main() -> None:
    write_inputs()
    commands = command_list()
    digests = run_commands(commands)
    for cmd in commands:
        cmd.update(digests[cmd["id"]])
    head = {"environment": environment(), "run_suite_sha256": suite_digest()}
    # One command per line keeps a changed digest readable in a diff.
    lines = ",\n  ".join(json.dumps(cmd) for cmd in commands)
    CORPUS.write_text(json.dumps(head, indent=1)[:-2] + f',\n "commands": [\n  {lines}\n ]\n}}\n')


if __name__ == "__main__":
    main()
