"""Randomized verification sweep: single checks, full sweeps, bookkeeping."""

import json
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import complete, cycle, path, triangle
import specgraph.harness
import specgraph.spectral
from specgraph.errors import BadParameter, NotOrthogonal, NumericalFailure, ZeroFunction
from specgraph.harness import (
    CHECK_MANIFEST,
    RandomGraphSpec,
    SuiteConfig,
    analyze,
    check_asymmetry_bound,
    check_auxiliary,
    check_cheeger_inequalities,
    check_global_invariants,
    check_operator_partition,
    check_plus_minus_split,
    check_witness_functions,
    graph_checks,
    run_suite,
    sample_graph,
    tau_split,
)
from specgraph.graph import WeightedGraph
from specgraph.invariants import kappa_exact
from specgraph.reports import CheckReport, graph_fingerprint
from specgraph.spectral import Spectrum, spectrum

CLASSICS = [triangle(), complete(4), complete(5), cycle(4), cycle(5), cycle(6), path(4)]


# ------------------------------------------------------------ random graphs


def test_sampling_is_deterministic_in_the_seed():
    spec = RandomGraphSpec(n=7, seed=123)
    assert sample_graph(spec) == sample_graph(spec)
    assert sample_graph(spec) != sample_graph(RandomGraphSpec(n=7, seed=124))


def test_samples_are_connected_with_bounded_weights():
    for seed in range(12):
        g = sample_graph(RandomGraphSpec(n=6, seed=seed))
        assert g.is_connected()
        for _, _, w in g.edges:
            assert 1e-3 <= w <= 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 1},
        {"n": 5, "edge_probability": 0.0},
        {"n": 5, "edge_probability": 1.5},
    ],
)
def test_bad_sampling_specs_rejected(kwargs):
    with pytest.raises(BadParameter):
        RandomGraphSpec(**kwargs)


# ---------------------------------------------------------- threshold split


def test_split_on_antisymmetric_pair():
    g = complete(2)
    tau, plus, minus = tau_split(g, np.array([1.0, -1.0]))
    assert tau == -1.0
    assert np.array_equal(plus, [2.0, 0.0])
    assert np.array_equal(minus, [0.0, 0.0])


def test_split_on_three_levels():
    tau, plus, minus = tau_split(triangle(), np.array([2.0, -2.0, 0.0]))
    assert tau == 0.0
    assert np.array_equal(plus, [2.0, 0.0, 0.0])
    assert np.array_equal(minus, [0.0, 2.0, 0.0])


def test_split_norm_can_be_tight():
    # on a three-vertex path the split of (1, 0, -1) loses nothing
    g = path(3)
    reports = check_plus_minus_split(analyze(g), np.array([1.0, 0.0, -1.0]))
    by_id = {r.check_id: r for r in reports}
    assert by_id["split_norm_domination"].lhs == 2.0
    assert by_id["split_norm_domination"].rhs == 2.0
    assert all(r.passed for r in reports)


def test_split_input_guards():
    a = analyze(triangle())
    with pytest.raises(ZeroFunction):
        check_plus_minus_split(a, np.zeros(3))
    with pytest.raises(NotOrthogonal):
        check_plus_minus_split(a, np.ones(3))


def test_split_of_gap_eigenfunctions_passes():
    for seed in range(6):
        g = sample_graph(RandomGraphSpec(n=8, seed=seed))
        eig = spectrum(g, eigenvectors=True)
        reports = check_plus_minus_split(analyze(g, seed=seed), eig.eigenvectors[:, 1])
        assert len(reports) == 4
        assert all(r.passed for r in reports)


# ------------------------------------------------------------ single checks


def test_all_checks_pass_on_classics():
    for g in CLASSICS:
        a = analyze(g)
        assert all(r.passed for r in check_cheeger_inequalities(a))
        assert check_asymmetry_bound(a).passed
        assert all(r.passed for r in check_witness_functions(a))
        assert all(r.passed for r in check_global_invariants(a))
        partition = kappa_exact(g).witness
        assert all(r.passed for r in check_operator_partition(a, partition[0]))


def test_auxiliary_check_on_top_eigenfunction():
    for g in CLASSICS[:4]:
        eig = spectrum(g, eigenvectors=True)
        reports = check_auxiliary(analyze(g), eig.eigenvectors[:, -1])
        assert [r.check_id for r in reports] == ["auxiliary_norm", "auxiliary_energy"]
        assert all(r.passed for r in reports)


def test_checks_near_the_float_maximum_end_in_a_typed_error():
    g = WeightedGraph([(0, 1, 4e307), (1, 2, 4e307)])
    with pytest.raises(NumericalFailure, match="edge energy"):
        graph_checks(analyze(g))


def test_full_check_list_for_one_graph():
    g = sample_graph(RandomGraphSpec(n=7, seed=42))
    plain = graph_checks(analyze(g, seed=42))
    assert len(plain) == 28
    assert all(r.passed for r in plain)
    with_rng = graph_checks(analyze(g, seed=42), rng=np.random.default_rng(7))
    assert len(with_rng) == 36
    assert all(r.passed for r in with_rng)


def test_every_summary_row_of_a_seeded_graph_carries_the_seed(monkeypatch):
    """The fingerprint lives on the ``Analysis``; ``run_suite`` writes it into
    every worst row and, as the last key, into every failure row."""
    g = sample_graph(RandomGraphSpec(n=6, seed=9))
    fingerprint = analyze(g, seed=9).fingerprint
    assert fingerprint == graph_fingerprint(g, 9) and fingerprint.endswith(":9")

    def pessimist(analysis):
        return CheckReport.inequality("asymmetry_kappa_bound", 5.0, 0.0, 0.0)

    monkeypatch.setattr("specgraph.harness.check_asymmetry_bound", pessimist)
    config = SuiteConfig(seeds=1, n_min=6, n_max=6, base_seed=9, include_families=False)
    summary = run_suite(config)
    [failure] = summary["failures"]
    assert list(failure)[-1] == "fingerprint"
    rows = [entry["worst"] for entry in summary["checks"].values()] + [failure]
    assert {row["fingerprint"] for row in rows} == {fingerprint}


def test_manifest_is_complete_and_documented():
    assert len(CHECK_MANIFEST) == 28
    for check_id, description in CHECK_MANIFEST.items():
        assert check_id and isinstance(description, str) and description
    g = sample_graph(RandomGraphSpec(n=6, seed=3))
    produced = {r.check_id for r in graph_checks(analyze(g, seed=3))}
    assert produced == set(CHECK_MANIFEST)


def test_shifted_spectrum_is_caught(monkeypatch):
    real = spectrum

    def shifted(graph, eigenvectors=False):
        s = real(graph, eigenvectors=eigenvectors)
        return Spectrum(s.values + 0.2, s.eigenvectors)

    monkeypatch.setattr("specgraph.harness.spectrum", shifted)
    reports = check_global_invariants(analyze(triangle()))
    failed = {r.check_id for r in reports if not r.passed}
    assert "trace_dimension" in failed
    assert "zero_multiplicity" in failed


# -------------------------------------------------------------- full sweeps


def test_suite_smoke_run_is_clean():
    summary = run_suite(SuiteConfig(seeds=2, n_min=4, n_max=5))
    assert summary["instances"] == 12
    assert summary["ok"]
    assert summary["failures"] == []
    assert summary["uncovered_checks"] == []
    assert set(summary["checks"]) == set(CHECK_MANIFEST)
    for entry in summary["checks"].values():
        assert entry["count"] > 0 and entry["failures"] == 0
        assert entry["worst"] is not None


def test_suite_is_a_pure_function_of_the_config():
    config = SuiteConfig(seeds=4, n_min=4, n_max=7, include_families=False)
    assert run_suite(config) == run_suite(config)


def test_observed_kappa_stays_in_range():
    summary = run_suite(SuiteConfig(seeds=3, n_min=4, n_max=5, include_families=False))
    assert 0.0 <= summary["observed_kappa_max"] <= 1.0


def test_unknown_check_id_is_a_hard_error(monkeypatch):
    def rogue(graph, max_n=None, seed=None):
        return CheckReport.inequality("made_up_check", 0.0, 1.0, 0.0)

    monkeypatch.setattr("specgraph.harness.check_asymmetry_bound", rogue)
    with pytest.raises(KeyError):
        run_suite(SuiteConfig(seeds=1, n_min=4, n_max=4, include_families=False))


def test_failing_reports_are_collected_not_swallowed(monkeypatch):
    def pessimist(graph, max_n=None, seed=None):
        return CheckReport.inequality("asymmetry_kappa_bound", 5.0, 0.0, 0.0)

    monkeypatch.setattr("specgraph.harness.check_asymmetry_bound", pessimist)
    summary = run_suite(SuiteConfig(seeds=1, n_min=4, n_max=4, include_families=False))
    assert not summary["ok"]
    assert summary["checks"]["asymmetry_kappa_bound"]["failures"] == 1
    assert summary["failures"][0]["check"] == "asymmetry_kappa_bound"
    assert summary["failures"][0]["instance"] == "random/4"


def test_an_erroring_instance_becomes_a_failure_row(monkeypatch):
    real = check_asymmetry_bound

    def fragile(analysis):
        if analysis.graph.n == 5:
            raise NumericalFailure("simulated breakdown")
        return real(analysis)

    monkeypatch.setattr("specgraph.harness.check_asymmetry_bound", fragile)
    summary = run_suite(SuiteConfig(seeds=3, n_min=4, n_max=6, include_families=False))
    assert not summary["ok"]
    assert summary["instances"] == 3
    broken = sample_graph(RandomGraphSpec(n=5, seed=1))
    assert summary["failures"] == [
        {
            "instance": "random/5",
            "error": "NumericalFailure",
            "message": "simulated breakdown",
            "fingerprint": graph_fingerprint(broken, 1),
        }
    ]
    assert summary["uncovered_checks"] == []
    assert summary["checks"]["asymmetry_kappa_bound"]["count"] == 2
    assert summary["checks"]["coarea_level_measure"]["count"] == 4


def test_each_result_is_computed_once_per_graph(monkeypatch):
    calls: dict[str, Counter] = {}
    seen = []  # the sweep drops each graph when done; held here, ids stay unique

    def counted(name, func):
        def wrapper(graph, *args, **kwargs):
            seen.append(graph)
            calls.setdefault(name, Counter())[id(graph)] += 1
            return func(graph, *args, **kwargs)

        return wrapper

    for name in (
        "cheeger_constant_exact",
        "dual_cheeger_exact",
        "kappa_exact",
        "h_via_r",
        "graph_fingerprint",
    ):
        wrapper = counted(name, getattr(specgraph.harness, name))
        monkeypatch.setattr(specgraph.harness, name, wrapper)
    wrapper = counted("spectrum", specgraph.spectral.spectrum)
    monkeypatch.setattr(specgraph.harness, "spectrum", wrapper)
    monkeypatch.setattr(specgraph.spectral, "spectrum", wrapper)

    summary = run_suite(SuiteConfig(seeds=3, n_min=4, n_max=6))
    assert summary["ok"]
    expected = {
        "cheeger_constant_exact": 1,
        "dual_cheeger_exact": 1,
        "kappa_exact": 1,
        "h_via_r": 1,
        "graph_fingerprint": 1,
        "spectrum": 2,
    }
    assert set(calls) == set(expected)
    for name, per_graph in expected.items():
        assert len(calls[name]) == summary["instances"], name
        assert set(calls[name].values()) == {per_graph}, name


def test_no_check_runs_an_exact_search(monkeypatch):
    """The checks read every invariant, the partition route to ``h``
    included, from the ``Analysis``."""
    analysis = analyze(sample_graph(RandomGraphSpec(n=7, seed=4)), seed=4)

    def refuse(*args, **kwargs):
        raise AssertionError("a check ran an exact search")

    for name in ("cheeger_constant_exact", "dual_cheeger_exact", "kappa_exact", "h_via_r"):
        monkeypatch.setattr(specgraph.harness, name, refuse)
    reports = graph_checks(analysis, rng=np.random.default_rng(2))
    assert all(r.passed for r in reports)


def test_each_graph_builds_one_dense_weight_matrix(monkeypatch):
    """Every reader of the dense view (walk matrix, Laplacian, symmetric
    conjugate, the exact searches) gets the one matrix of its graph."""
    matrices: dict[int, set] = {}
    held = []  # graphs and matrices stay alive here, so their ids stay unique

    def counted(func):
        def wrapper(graph):
            matrix = func(graph)
            held.append((graph, matrix))
            matrices.setdefault(id(graph), set()).add(id(matrix))
            return matrix

        return wrapper

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("specgraph") and hasattr(module, "weight_matrix"):
            monkeypatch.setattr(module, "weight_matrix", counted(module.weight_matrix))

    summary = run_suite(SuiteConfig(seeds=3, n_min=4, n_max=6))
    assert summary["ok"]
    assert len(matrices) == summary["instances"]
    assert {len(built) for built in matrices.values()} == {1}


def wrong_on_the_single_edge(monkeypatch):
    """Make ``harness.rayleigh`` off by 1 on the single-edge witness function
    (opposite masses on the ends of the first edge) and right elsewhere."""
    real = specgraph.harness.rayleigh

    def rayleigh(graph, f):
        a, b = graph.u[0], graph.v[0]
        edge = np.zeros(graph.n)
        edge[a], edge[b] = graph.vertex_measure[b], -graph.vertex_measure[a]
        return real(graph, f) + (1.0 if np.array_equal(f, edge) else 0.0)

    monkeypatch.setattr(specgraph.harness, "rayleigh", rayleigh)


def test_a_failing_check_still_prints_as_json(monkeypatch):
    """The single-edge report is built from numpy scalars; it stores Python
    floats and a Python bool, so its failure row serialises."""
    wrong_on_the_single_edge(monkeypatch)
    summary = run_suite(SuiteConfig(seeds=1, n_min=4, n_max=4, include_families=False))
    assert json.loads(json.dumps(summary)) == summary
    [row] = summary["failures"]
    assert row["check"] == "witness_single_edge" and row["passed"] is False
    for key in ("lhs", "rhs", "slack", "tolerance"):
        assert type(row[key]) is float, key


def test_never_produced_manifest_entries_fail_the_suite(monkeypatch):
    monkeypatch.setitem(CHECK_MANIFEST, "hypothetical_future_check", "placeholder")
    summary = run_suite(SuiteConfig(seeds=1, n_min=4, n_max=4, include_families=False))
    assert not summary["ok"]
    assert "hypothetical_future_check" in summary["uncovered_checks"]


def test_bad_suite_configs_rejected():
    with pytest.raises(BadParameter):
        SuiteConfig(seeds=-1)
    with pytest.raises(BadParameter):
        SuiteConfig(n_min=9, n_max=4)
