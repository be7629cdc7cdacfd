"""End-to-end command-line coverage, run in process through ``main``."""

import io
import json
import sys

import pytest

from specgraph.cli import main

K4_JSON = json.dumps(
    {"edges": [[u, v, 1.0] for u in range(4) for v in range(u + 1, 4)]}
)


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ graphs


def test_generate_triangle(capsys):
    code, out, err = run(capsys, ["gen", "--family", "cycle", "--n", "3"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}


def test_generate_ladder_with_labels(capsys):
    code, out, _ = run(
        capsys,
        ["gen", "--family", "ladder_L", "--n", "3", "--r", "0.5", "--rho", "0.3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["v0", "v1", "v2", "v3", "w1", "w2", "w3"]
    assert [0, 4, 1] in payload["edges"]


def test_pipeline_through_files(capsys, tmp_path):
    graph_file = str(tmp_path / "halfline.json")
    code, out, _ = run(
        capsys,
        ["gen", "--family", "halfline_m4", "--n", "6", "--r", "0.5",
         "--out", graph_file],
    )
    assert code == 0 and out == ""
    report_file = str(tmp_path / "report.json")
    code, out, _ = run(capsys, ["cheeger", graph_file, "--out", report_file])
    assert code == 0 and out == ""
    with open(report_file) as fh:
        report = json.load(fh)
    assert report["invariant"] == "h"
    # deepest tail set within half measure is {2..6}: ratio 1/4 over 23/32
    assert report["value"] == pytest.approx(8.0 / 23.0, abs=1e-12)


def test_reading_from_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, ["cheeger", "-"], K4_JSON, monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report["witness"] == [0, 1]


def test_spectrum_of_complete_graph(capsys, monkeypatch):
    gen_code, gen_out, _ = run(capsys, ["gen", "--family", "complete_unit", "--n", "10"])
    assert gen_code == 0
    code, out, _ = run(capsys, ["spectrum", "-"], gen_out, monkeypatch)
    assert code == 0
    values = json.loads(out)
    assert len(values) == 10
    assert values[0] == pytest.approx(0.0, abs=1e-9)
    assert values[1] == pytest.approx(10.0 / 9.0, abs=1e-9)


def test_spectrum_with_eigenvectors(capsys, monkeypatch):
    _, gen_out, _ = run(capsys, ["gen", "--family", "cycle", "--n", "4"])
    code, out, _ = run(
        capsys, ["spectrum", "-", "--eigenvectors"], gen_out, monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"values", "eigenvectors", "max_residual"}
    assert len(payload["eigenvectors"]) == 4
    assert payload["max_residual"] <= 1e-9


def test_floats_survive_a_json_round_trip(capsys, monkeypatch):
    _, out, _ = run(capsys, ["cheeger", "-"], K4_JSON, monkeypatch)
    value = json.loads(out)["value"]
    # 17 significant digits means parsing and reformatting is lossless
    assert format(value, ".17g") in out


# ---------------------------------------------------------------- sequences


def test_sequence_report(capsys):
    code, out, _ = run(
        capsys,
        ["kgraph", "--head", "0.9", "--tail-ratio", "0.1", "--asymmetry"],
    )
    assert code == 0
    payload = json.loads(out)
    top = payload["roots"][0]
    assert top["kind"] == "laplacian" and top["index"] == 1
    assert 1.94 <= top["value"] <= 2.0
    assert top["residual"] + top["tail_bound"] <= 1e-9
    assert payload["kappa"] == {
        "value": 1.0 - 0.9,
        "certified": True,
        "split_index": 1,
    }
    lo, hi = payload["top_interval"]
    assert lo <= top["value"] <= hi
    assert payload["hilbert_schmidt"]["passed"] is True
    asym_lo, asym_hi = payload["asymmetry"]
    assert 0.0 <= asym_lo <= asym_hi <= 2.0 * payload["kappa"]["value"]


def test_walk_trace_skips_poles(capsys):
    code, out, _ = run(
        capsys,
        ["trace", "--head", "0.5,0.25", "--tail-ratio", "0.5",
         "--from", "-1", "--to", "0", "--points", "3"],
    )
    assert code == 0
    lines = out.splitlines()
    # -1 and 0 sit on poles of the dyadic sequence and are dropped
    assert lines[0] == "lambda,F,tail_bound"
    assert len(lines) == 2
    assert lines[1].startswith("-0.5,")


def test_laplacian_trace_samples_everything(capsys):
    code, out, _ = run(
        capsys,
        ["trace", "--head", "0.5,0.25", "--tail-ratio", "0.5",
         "--variable", "laplacian", "--from", "1.2", "--to", "1.9", "--points", "4"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,G,tail_bound"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "1.2"


def test_trace_rejects_empty_interval(capsys):
    code, _, err = run(
        capsys,
        ["trace", "--head", "0.5,0.25", "--tail-ratio", "0.5",
         "--from", "0.5", "--to", "0.5", "--points", "4"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadParameter"


# ------------------------------------------------------------------- verify


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, ["verify", "--seeds", "2", "--n-min", "4", "--n-max", "5"])
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] is True
    assert summary["instances"] == 12
    assert summary["uncovered_checks"] == []


# ------------------------------------------------------------ error handling


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["cheeger", "--bogus-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_input_file(capsys, tmp_path):
    code, out, err = run(capsys, ["cheeger", str(tmp_path / "absent.json")])
    assert code == 1 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "FileNotFoundError"
    assert diagnostic["message"]


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"edges": [[0, 1.5, 1.0], [0, 1, 1.0]]}', "MalformedGraph"),
        ('{"edges": [[0, -1, 1.0]]}', "MalformedGraph"),
        ('{"edges": 5}', "MalformedGraph"),
        ("[[0, 1, 1.0]]", "MalformedGraph"),
        ('{"edges": [[0, 1, 1.0]], "labels": "ab"}', "MalformedGraph"),
        ('{"edges": [[0, 1000000000000000000, 1.0]]}', "IsolatedVertex"),
    ],
)
def test_malformed_graph_gets_a_typed_diagnostic(capsys, monkeypatch, text, error):
    code, out, err = run(capsys, ["spectrum", "-"], text, monkeypatch)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


def test_environment_cap_applies(capsys, monkeypatch):
    monkeypatch.setenv("SPECGRAPH_MAX_N", "3")
    code, _, err = run(capsys, ["cheeger", "-"], K4_JSON, monkeypatch)
    assert code == 1
    assert json.loads(err)["error"] == "TooLarge"


def test_explicit_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("SPECGRAPH_MAX_N", "3")
    code, out, _ = run(capsys, ["cheeger", "-", "--max-n", "4"], K4_JSON, monkeypatch)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_garbage_environment_cap(capsys, monkeypatch):
    monkeypatch.setenv("SPECGRAPH_MAX_N", "soon")
    code, _, err = run(capsys, ["cheeger", "-"], K4_JSON, monkeypatch)
    assert code == 1
    assert json.loads(err)["error"] == "BadParameter"


def test_product_family_needs_its_sequence(capsys):
    code, _, err = run(capsys, ["gen", "--family", "K_m1", "--n", "6"])
    assert code == 1
    assert json.loads(err)["error"] == "BadParameter"
    code, _, err = run(
        capsys, ["gen", "--family", "K_m1", "--n", "6", "--p-head", "0.5,0.25"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadParameter"


def test_renormalize_is_product_family_only(capsys):
    code, _, err = run(
        capsys, ["gen", "--family", "cycle", "--n", "5", "--renormalize"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadParameter"
