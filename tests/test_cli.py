"""End-to-end command-line coverage, run in process through ``main``."""

import contextlib
import io
import json
import math
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraph import cli, errors
from specgraph.cli import main
from specgraph.families import FAMILIES
from specgraph.graph import graph_to_json
from specgraph.invariants import cheeger_constant_exact
from specgraph.kgraph import RESIDUAL_BUDGET
from test_harness import wrong_on_the_single_edge
from test_invariants import _DISCONNECTED_FIRST, _tie_heavy_graph, refuse_to_enumerate

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



def test_root_over_budget_after_newton_is_bisected_further(capsys):
    # Newton leaves root 19 of this sequence over the residual budget, so it
    # is finished by the bisection that follows.
    head = ("0.2765634789345257,0.2189565592165609,0.12948919770288178,"
            "0.1051749873119179,0.08709230186312227")
    code, out, err = run(
        capsys,
        ["kgraph", "--head", head, "--tail-ratio", "0.6772156806950997",
         "--roots", "27"],
    )
    assert code == 0 and err == ""
    roots = json.loads(out)["roots"]
    assert len(roots) == 27
    root = roots[18]
    lo, hi = root["bracket"]
    assert root["index"] == 19 and lo < root["value"] < hi
    assert root["residual"] + root["tail_bound"] <= 1e-9
    assert root["residual"] <= RESIDUAL_BUDGET + root["tail_bound"]


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


@pytest.mark.parametrize(
    "ends", [["--from", "-1.5", "--to", "inf"], ["--from=-inf", "--to", "0.5"]]
)
def test_trace_rejects_an_infinite_end(capsys, ends):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys,
            ["trace", "--head", "0.5,0.25", "--tail-ratio", "0.5", *ends,
             "--points", "3"],
        )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BadParameter"


def test_trace_beyond_the_size_limit_is_too_large(capsys):
    code, out, err = run(
        capsys,
        ["trace", "--head", "0.5,0.25", "--tail-ratio", "0.5",
         "--from", "0", "--to", "1", "--points", "100000000000"],
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "TooLarge"


# ------------------------------------------------------------------- verify


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, ["verify", "--seeds", "2", "--n-min", "4", "--n-max", "5"])
    assert code == 0
    summary = json.loads(out)
    assert summary["ok"] is True
    assert summary["instances"] == 12
    assert summary["uncovered_checks"] == []


def test_verify_options_fill_the_suite_config(capsys):
    """Flags left off keep the ``SuiteConfig`` defaults; ``--no-families``
    clears ``include_families``."""
    _, out, _ = run(capsys, ["verify", "--seeds", "0"])
    assert json.loads(out)["config"] == {
        "seeds": 0, "n_min": 4, "n_max": 12, "edge_probability": 0.5,
        "base_seed": 0, "max_n": None, "include_families": True,
    }
    argv = ["verify", "--seeds", "1", "--n-min", "5", "--n-max", "5",
            "--edge-probability", "0.75", "--base-seed", "3", "--max-n", "9",
            "--no-families"]
    code, out, _ = run(capsys, argv)
    summary = json.loads(out)
    assert code == 0 and summary["instances"] == 1
    assert summary["config"] == {
        "seeds": 1, "n_min": 5, "n_max": 5, "edge_probability": 0.75,
        "base_seed": 3, "max_n": 9, "include_families": False,
    }


def test_verify_gives_up_on_graphs_that_never_connect(capsys):
    argv = ["verify", "--seeds", "1", "--edge-probability", "1e-9", "--no-families"]
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    [diagnostic] = json.loads(out)["failures"]
    assert diagnostic["error"] == "BadParameter"
    assert "n=4, p=1e-09, seed=0" in diagnostic["message"]


def test_a_failed_draw_is_a_failure_row_and_the_sweep_goes_on(capsys):
    argv = ["verify", "--seeds", "2", "--n-min", "12", "--n-max", "12",
            "--edge-probability", "0.01", "--no-families"]
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    summary = json.loads(out)
    assert summary["instances"] == 2 and not summary["ok"]
    assert summary["failures"] == [
        {
            "instance": "random/12",
            "error": "BadParameter",
            "message": f"no connected graph in 1000 draws with n=12, p=0.01, seed={seed}",
            "fingerprint": None,
        }
        for seed in (0, 1)
    ]


def test_a_failing_check_prints_its_summary(capsys, monkeypatch):
    wrong_on_the_single_edge(monkeypatch)
    argv = ["verify", "--seeds", "1", "--no-families", "--n-min", "4", "--n-max", "4"]
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    [row] = json.loads(out)["failures"]
    assert row["check"] == "witness_single_edge" and row["passed"] is False


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


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_utf8_is_a_malformed_graph(capsys, monkeypatch, tmp_path, source):
    data = b'{"edges": [\xff]}'
    path = tmp_path / "graph.json"
    path.write_bytes(data)
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, out, err = run(capsys, ["spectrum", "-" if source == "stdin" else str(path)])
    assert code == 1 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "MalformedGraph"
    assert diagnostic["message"].startswith("not UTF-8 text: ")


@pytest.mark.parametrize(
    "text, error",
    [
        ('{"edges": [[0, 1.5, 1.0], [0, 1, 1.0]]}', "MalformedGraph"),
        ('{"edges": [[0, -1, 1.0]]}', "MalformedGraph"),
        ('{"edges": 5}', "MalformedGraph"),
        ("[[0, 1, 1.0]]", "MalformedGraph"),
        ('{"edges": [[0, 1, 1.0]], "labels": "ab"}', "MalformedGraph"),
        ('{"edges": [[0, 1000000000000000000, 1.0]]}', "IsolatedVertex"),
        ('{"edges": [[0, 1, 1e308], [1, 2, 1e308]]}', "MalformedGraph"),
        ('{"edges": [', "MalformedGraph"),
    ],
)
def test_malformed_graph_gets_a_typed_diagnostic(capsys, monkeypatch, text, error):
    code, out, err = run(capsys, ["spectrum", "-"], text, monkeypatch)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "command, error",
    [
        ("dual-cheeger", "EmptySet"),
        ("kappa", "EmptySet"),
        ("cheeger", "DisconnectedGraph"),
        ("spectrum", "EmptySpectrum"),
    ],
)
def test_graph_without_vertices_gets_a_typed_diagnostic(capsys, monkeypatch, command, error):
    code, out, err = run(capsys, [command, "-"], '{"edges": []}', monkeypatch)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


def test_eigenpair_residual_that_overflows_fails_closed(capsys, monkeypatch):
    """Subnormal weights make the eigenfunction norms overflow; the residual
    certificate must not read 0."""
    text = '{"edges": [[0,1,1e-310],[1,2,1e-310]]}'
    code, out, err = run(capsys, ["spectrum", "--eigenvectors", "-"], text, monkeypatch)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NumericalFailure"


def test_dual_cheeger_near_the_float_maximum_writes_no_warning(capsys, monkeypatch):
    text = '{"edges": [[0,1,4e307],[1,2,4e307]]}'
    code, out, err = run(capsys, ["dual-cheeger", "-"], text, monkeypatch)
    assert code == 0 and err == ""
    assert json.loads(out) == {"invariant": "hbar", "value": 1, "witness": [[1], [0, 2]]}


def test_cap_flag_applies(capsys, monkeypatch):
    code, _, err = run(capsys, ["cheeger", "-", "--max-n", "3"], K4_JSON, monkeypatch)
    assert code == 1
    assert json.loads(err)["error"] == "TooLarge"


def test_cap_flag_admits_the_graph(capsys, monkeypatch):
    code, out, _ = run(capsys, ["cheeger", "-", "--max-n", "4"], K4_JSON, monkeypatch)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0 / 3.0, abs=1e-12)


PATH40_JSON = json.dumps({"edges": [[v, v + 1, 1.0] for v in range(39)]})


@pytest.mark.parametrize("extra", [[], ["--connected-only"]])
def test_cheeger_beyond_physical_memory_is_too_large(capsys, monkeypatch, extra):
    """A 40-vertex path under ``--max-n 40`` would need 2^40 table entries;
    the command stops before allocating them."""
    argv = ["cheeger", "-", "--max-n", "40", *extra]
    code, out, err = run(capsys, argv, PATH40_JSON, monkeypatch)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "TooLarge"


@pytest.mark.parametrize("command", ["dual-cheeger", "kappa"])
def test_streamed_search_beyond_physical_memory_is_too_large(capsys, monkeypatch, command):
    refuse_to_enumerate(monkeypatch)
    code, out, err = run(capsys, [command, "-", "--max-n", "40"], PATH40_JSON, monkeypatch)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "TooLarge"


@pytest.mark.parametrize(
    "extra",
    [["--family", "cycle"],
     ["--family", "K_m1", "--p-head", "0.5", "--p-ratio", "0.5", "--renormalize"]],
)
def test_gen_beyond_the_edge_bound_is_too_large(capsys, extra):
    code, out, err = run(capsys, ["gen", "--n", "100000000000", *extra])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "TooLarge"


def test_product_family_needs_its_sequence(capsys):
    code, _, err = run(capsys, ["gen", "--family", "K_m1", "--n", "6"])
    assert code == 1
    assert json.loads(err)["error"] == "BadParameter"
    code, _, err = run(
        capsys, ["gen", "--family", "K_m1", "--n", "6", "--p-head", "0.5,0.25"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadParameter"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_kgraph_tolerance_that_certifies_nothing_is_rejected(capsys, tol):
    code, out, err = run(
        capsys,
        ["kgraph", "--head", "0.5,0.25", "--tail-ratio", "0.5", "--roots", "3",
         f"--tol={tol}"],
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BadParameter"


def test_renormalize_is_product_family_only(capsys):
    code, _, err = run(
        capsys, ["gen", "--family", "cycle", "--n", "5", "--renormalize"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadParameter"


# ----------------------------------------------------------- parser reuse


def test_two_calls_build_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    for _ in range(2):
        code, _, _ = run(capsys, ["gen", "--family", "cycle", "--n", "3"])
        assert code == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("seed", _DISCONNECTED_FIRST)
def test_connected_only_does_not_stick_to_the_next_call(capsys, tmp_path, seed):
    """On these graphs the least witness is disconnected, so a leaked
    ``--connected-only`` would change the plain call's witness."""
    graph = _tie_heavy_graph(seed)
    path = tmp_path / "graph.json"
    path.write_text(graph_to_json(graph))
    outs = []
    for connected_only in (True, False):
        argv = ["cheeger", str(path), *(["--connected-only"] if connected_only else [])]
        code, out, err = run(capsys, argv)
        report = cheeger_constant_exact(graph, connected_only=connected_only)
        assert code == 0 and err == ""
        assert out == cli._to_json(report.to_payload()) + "\n"
        outs.append(out)
    assert outs[0] != outs[1]


def test_out_does_not_stick_to_the_next_call(capsys, monkeypatch, tmp_path):
    report_file = tmp_path / "report.json"
    code, out, _ = run(capsys, ["kappa", "-", "--out", str(report_file)], K4_JSON, monkeypatch)
    assert code == 0 and out == ""
    code, out, _ = run(capsys, ["kappa", "-"], K4_JSON, monkeypatch)
    assert code == 0 and out == report_file.read_text()


@pytest.mark.parametrize("command", ["dual-cheeger", "kappa"])
def test_connected_only_belongs_to_cheeger_alone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-", "--connected-only"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------- fuzzing

_ODD_NUMBERS = st.sampled_from(
    [0, -1, 1.5, -0.0, 5e-324, 1e-310, 4e307, 1e308, 10**20, math.inf, -math.inf, math.nan]
)
_ID = st.one_of(st.integers(0, 6), _ODD_NUMBERS, st.text(max_size=2), st.none(), st.booleans())
_WEIGHT = st.one_of(
    st.floats(0.05, 20.0), _ODD_NUMBERS, st.floats(), st.text(max_size=2), st.none()
)
_EDGE = st.one_of(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.floats(0.05, 20.0)).map(list),
    st.tuples(_ID, _ID, _WEIGHT).map(list),
    st.lists(st.one_of(_ID, _WEIGHT), max_size=4),
    _WEIGHT,
)
_LABELS = st.one_of(
    st.lists(st.one_of(st.integers(), st.text(max_size=2), st.none()), max_size=8),
    st.text(max_size=3),
    st.integers(),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_DOCUMENT = st.one_of(
    st.fixed_dictionaries({"edges": st.lists(_EDGE, max_size=8)}, optional={"labels": _LABELS}),
    st.fixed_dictionaries({"edges": _WEIGHT}),
    st.lists(_EDGE, max_size=4),
    _WEIGHT,
)
_COMMANDS = [
    ["spectrum"],
    ["spectrum", "--eigenvectors"],
    ["cheeger"],
    ["cheeger", "--connected-only"],
    ["dual-cheeger"],
    ["kappa"],
]


def _run_strict(argv, stdin_text=""):
    """``main(argv)`` with warnings raised as errors: ``(code, stdout,
    stderr)``."""
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin_text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _is_typed(name):
    return issubclass(getattr(errors, name, type(None)), errors.SpecgraphError)


def _assert_one_typed_diagnostic(out, err, context):
    assert out == "", context
    lines = err.splitlines()
    assert len(lines) == 1, context
    assert _is_typed(json.loads(lines[0])["error"]), context


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(_COMMANDS),
    document=_DOCUMENT,
    cut=st.one_of(st.none(), st.integers(0, 40)),
)
def test_malformed_payloads_end_in_an_answer_or_one_typed_diagnostic(command, document, cut):
    """Whatever the payload, the CLI answers (exit 0) or writes exactly one
    JSON line naming a ``SpecgraphError`` (exit 1): never a traceback, a
    warning, or a builtin error type."""
    text = json.dumps(document)[:cut]
    code, out, err = _run_strict([*command, "-"], text)
    assert code in (0, 1), text
    if code == 0:
        assert err == "", text
        json.loads(out)
    else:
        _assert_one_typed_diagnostic(out, err, text)


_ODD_INTS = ("-1", "0", str(10**20))
_ODD_REALS = ("nan", "inf", "-1", "0", "1e308")


def _scalar(valid, odd):
    """A flag value: one of ``valid``, or one of ``odd``."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(odd))


_SEQUENCE = {
    "--head": _scalar(["0.5,0.25", "0.9"], _ODD_REALS),
    "--tail-ratio": _scalar(["0.5", "0.1"], _ODD_REALS),
}
_CAP = {"--max-n": _scalar(["4", "10"], _ODD_INTS)}
# Sizes stay small: a valid run takes milliseconds, and an odd value that
# would mean a long run (10^20 seeds or roots) is left out.
_SCALAR_FLAGS = {
    "gen": st.fixed_dictionaries(
        {
            "--family": st.sampled_from(FAMILIES),
            "--n": _scalar([str(n) for n in range(1, 7)], _ODD_INTS),
        },
        optional={
            "--r": _scalar(["0.5", "0.9"], _ODD_REALS),
            "--rho": _scalar(["0.3", "0.5"], _ODD_REALS),
            "--p-head": _scalar(["0.5,0.25"], _ODD_REALS),
            "--p-ratio": _scalar(["0.5"], _ODD_REALS),
        },
    ),
    "kgraph": st.fixed_dictionaries(
        {
            **_SEQUENCE,
            "--roots": _scalar([str(n) for n in range(1, 6)], _ODD_INTS[:2]),
            "--tol": _scalar(["1e-9", "1e-6"], _ODD_REALS),
        }
    ),
    "trace": st.fixed_dictionaries(
        {
            **_SEQUENCE,
            "--from": _scalar(["-0.5", "0.1", "1.2"], _ODD_REALS),
            "--to": _scalar(["0.9", "1.9"], _ODD_REALS),
            "--points": _scalar([str(n) for n in (2, 7, 50)], _ODD_INTS),
            "--variable": st.sampled_from(["walk", "laplacian"]),
        }
    ),
    "cheeger": st.fixed_dictionaries(_CAP),
    "dual-cheeger": st.fixed_dictionaries(_CAP),
    "kappa": st.fixed_dictionaries(_CAP),
    "verify": st.fixed_dictionaries(
        {
            "--seeds": _scalar(["1", "2"], _ODD_INTS[:2]),
            "--base-seed": _scalar(["0", "5"], _ODD_INTS),
            "--edge-probability": _scalar(["0.5", "1"], _ODD_REALS),
            "--n-min": _scalar(["2", "4"], _ODD_INTS[:2]),
            "--n-max": _scalar(["5", "6"], _ODD_INTS),
        }
    ),
}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_SCALAR_FLAGS)), data=st.data())
def test_scalar_flags_end_in_an_answer_or_one_typed_diagnostic(command, data):
    """Whatever the numbers on the command line, the CLI answers (exit 0) or
    writes exactly one JSON line naming a ``SpecgraphError`` (exit 1); a
    ``verify`` sweep with failing instances prints its summary and exits 1."""
    flags = data.draw(_SCALAR_FLAGS[command], label="flags")
    argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
    if command == "verify":
        argv.append("--no-families")
    code, out, err = _run_strict(argv, K4_JSON)
    assert code in (0, 1), argv
    if code == 0:
        assert err == "" and out, argv
    elif command == "verify" and out:
        summary = json.loads(out)
        assert err == "" and not summary["ok"], argv
        assert all(_is_typed(row["error"]) for row in summary["failures"] if "error" in row)
    else:
        _assert_one_typed_diagnostic(out, err, argv)


def test_verify_refuses_a_negative_base_seed(capsys):
    code, out, err = run(capsys, ["verify", "--seeds", "1", "--base-seed=-1"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "BadParameter"
