"""Golden corpus: CLI stdout bytes and exit codes recorded before a refactor.

``tests/golden/record.py`` recorded each command's stdout sha256 and exit
code, and the digest of the default ``run_suite`` summary.  Commands whose
output carries eigensolver results are compared only in the environment
(numpy, BLAS, threads, CPU) they were recorded in.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

CORPUS = json.loads((GOLDEN / "corpus.json").read_text())


def _mismatches(select) -> list[str]:
    commands = CORPUS["commands"]
    got = record.run_commands(commands, select)
    return [
        f"{cmd['id']}: exit {got[cmd['id']]['exit']} (recorded {cmd['exit']}), "
        f"sha256 {got[cmd['id']]['sha256'][:12]} (recorded {cmd['sha256'][:12]})"
        for cmd in commands
        if cmd["id"] in got
        and got[cmd["id"]] != {"sha256": cmd["sha256"], "exit": cmd["exit"]}
    ]


def _require_recording_environment() -> None:
    here = record.environment()
    differs = {
        key: (value, here.get(key))
        for key, value in CORPUS["environment"].items()
        if here.get(key) != value
    }
    if differs:
        pytest.skip(f"eigensolver digests were recorded elsewhere: {differs}")


def test_corpus_covers_every_family_and_command():
    ids = {cmd["id"] for cmd in CORPUS["commands"]}
    assert {f"gen/{family}" for family in record.FAMILY_INPUTS} <= ids
    for name in [*record.FAMILY_INPUTS, "random", "labelled"]:
        assert {f"{what}/{name}" for what in record.GRAPH_COMMANDS} <= ids
    assert ids == {cmd["id"] for cmd in record.command_list()}


def test_environment_independent_stdout_is_unchanged():
    assert _mismatches(lambda cmd: not cmd["lapack"]) == []


def test_eigensolver_stdout_is_unchanged():
    _require_recording_environment()
    assert _mismatches(lambda cmd: cmd["lapack"]) == []


def test_run_suite_summary_is_unchanged():
    _require_recording_environment()
    assert record.suite_digest() == CORPUS["run_suite_sha256"]
