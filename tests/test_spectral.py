"""Spectral engine: eigensolves, Rayleigh quotients, asymmetry, operators."""

import math

import numpy as np
import pytest

from conftest import complete, cycle, path, triangle
from specgraph.errors import EmptySet, EmptySpectrum, ZeroFunction
from specgraph.graph import (
    WeightedGraph,
    build_graph,
    dirichlet_form,
    inner_product,
    q_form,
)
from specgraph.harness import RandomGraphSpec, analyze, coarea_check, sample_graph
from specgraph.invariants import is_bipartite, kappa_exact, kappa_pair
from specgraph.spectral import (
    Spectrum,
    auxiliary_graph,
    hausdorff_asymmetry,
    laplacian_matrix,
    lambda_top,
    p_psi_norm,
    random_walk_matrix,
    rayleigh,
    signed_conjugation,
    spectral_gap,
    spectrum,
    symmetric_conjugate,
    weight_matrix,
)

EIG_ATOL = 1e-9
ATOL = 1e-12


# ----------------------------------------------------------------- matrices


def test_matrix_builders_agree():
    g = triangle(1.0, 2.0, 4.0)
    w = weight_matrix(g)
    assert np.allclose(w, w.T) and np.all(np.diag(w) == 0.0)
    p = random_walk_matrix(g)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(laplacian_matrix(g), np.eye(3) - p)
    # the symmetric conjugate has the same spectrum as the walk matrix
    sym = symmetric_conjugate(g)
    assert np.allclose(
        np.sort(np.linalg.eigvals(p).real), np.sort(np.linalg.eigvalsh(sym))
    )


# --------------------------------------------------------------- eigensolve


def test_path_spectrum():
    assert np.allclose(spectrum(path(3)).values, [0.0, 1.0, 2.0], atol=EIG_ATOL)


def test_even_cycle_spectrum():
    assert np.allclose(spectrum(cycle(4)).values, [0.0, 1.0, 1.0, 2.0], atol=EIG_ATOL)


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_complete_graph_gap_and_top(n):
    g = complete(n)
    target = n / (n - 1)
    assert spectral_gap(g) == pytest.approx(target, abs=EIG_ATOL)
    assert lambda_top(g) == pytest.approx(target, abs=EIG_ATOL)


def test_values_stay_in_range():
    for seed in range(6):
        g = sample_graph(RandomGraphSpec(n=9, seed=seed))
        values = spectrum(g).values
        assert values[0] >= 0.0 and values[-1] <= 2.0
        assert np.all(np.diff(values) >= 0.0)


def test_disconnected_graph_zero_multiplicity():
    g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
    s = spectrum(g)
    assert s.component_count == 2
    assert np.allclose(s.values, [0.0, 0.0, 2.0, 2.0], atol=EIG_ATOL)
    assert s.gap == pytest.approx(2.0, abs=EIG_ATOL)


def test_eigenvectors_have_certified_residuals():
    for g in (triangle(0.2, 1.0, 3.0), cycle(5), sample_graph(RandomGraphSpec(8, seed=3))):
        s = spectrum(g, eigenvectors=True)
        assert s.max_residual is not None and s.max_residual <= EIG_ATOL
        lap = laplacian_matrix(g)
        for k in range(g.n):
            f = s.eigenvectors[:, k]
            assert np.allclose(lap @ f, s.values[k] * f, atol=1e-7)
        # the zero eigenfunction is constant
        zero_vec = s.eigenvectors[:, 0]
        assert np.allclose(zero_vec, zero_vec[0])


def test_empty_graph_has_no_spectrum():
    with pytest.raises(EmptySpectrum):
        spectrum(WeightedGraph([], labels=[]))


def test_gap_of_a_zero_only_spectrum_raises():
    s = Spectrum(np.array([0.0]), 1e-9, 1)
    with pytest.raises(EmptySpectrum):
        s.gap


# ----------------------------------------------------------------- Rayleigh


def test_rayleigh_extremes_on_k2():
    k2 = build_graph([(0, 1, 1.0)])
    assert rayleigh(k2, [1.0, -1.0]) == pytest.approx(2.0, abs=ATOL)
    assert rayleigh(k2, [1.0, 1.0]) == 0.0
    with pytest.raises(ZeroFunction):
        rayleigh(k2, [0.0, 0.0])


def test_rayleigh_bounded_by_spectrum():
    rng = np.random.default_rng(7)
    for seed in range(5):
        g = sample_graph(RandomGraphSpec(n=7, seed=seed))
        s = spectrum(g)
        f = rng.standard_normal(g.n)
        value = rayleigh(g, f)
        assert -EIG_ATOL <= value <= s.top + EIG_ATOL


# ---------------------------------------------------------------- asymmetry


def test_hausdorff_hand_values():
    assert hausdorff_asymmetry([0.0, 1.0]) == pytest.approx(1.0, abs=ATOL)
    assert hausdorff_asymmetry([0.0, 1.0, 2.0]) == 0.0
    assert hausdorff_asymmetry([0.0, 2.0]) == 0.0
    assert hausdorff_asymmetry([1.0]) == 0.0


def test_hausdorff_rejects_empty():
    with pytest.raises(EmptySpectrum):
        hausdorff_asymmetry([])


def test_bipartite_spectrum_is_reflection_symmetric():
    for g in (cycle(4), cycle(6), path(5)):
        assert hausdorff_asymmetry(spectrum(g).values) <= 1e-9


def test_asymmetry_bounded_by_twice_kappa():
    for seed in range(6):
        g = sample_graph(RandomGraphSpec(n=8, seed=seed))
        distance = hausdorff_asymmetry(spectrum(g).values)
        assert distance <= 2.0 * kappa_exact(g).value + 1e-9


# --------------------------------------------------------- signed conjugation


def test_signed_conjugation_on_triangle():
    op = signed_conjugation(triangle(), 0b001)
    assert op.mask_a == 0b001 and op.mask_b == 0b110
    assert list(op.signs) == [1.0, -1.0, -1.0]
    assert op.identity_residual <= 1e-12
    assert np.abs(op.values - spectrum(triangle()).values).max() <= 1e-9
    # blocked operator keeps only same-side transitions
    walk = random_walk_matrix(triangle())
    assert op.p_psi[0, 1] == 0.0 and op.p_psi[1, 2] == walk[1, 2]


def test_signed_conjugation_rejects_trivial_partition():
    with pytest.raises(EmptySet):
        signed_conjugation(triangle(), 0)
    with pytest.raises(EmptySet):
        signed_conjugation(triangle(), 0b111)


def test_blocked_norm_vanishes_on_bipartition():
    g = cycle(6)
    _, masks = is_bipartite(g)
    assert p_psi_norm(g, masks[0]) == 0.0


def test_blocked_norm_below_kappa_pair():
    for seed in range(6):
        g = sample_graph(RandomGraphSpec(n=7, seed=seed))
        mask_a, mask_b = kappa_exact(g).witness
        assert p_psi_norm(g, mask_a) <= kappa_pair(g, mask_a, mask_b) + 1e-9


# ------------------------------------------------------------------- co-area


def test_coarea_identities_hold():
    rng = np.random.default_rng(11)
    for g in (triangle(), cycle(5), sample_graph(RandomGraphSpec(8, seed=2))):
        f = rng.standard_normal(g.n)
        for report in coarea_check(analyze(g), f):
            assert report.passed, report


def test_coarea_on_indicator():
    g = path(4)
    measure, boundary = coarea_check(analyze(g), [1.0, 1.0, 0.0, 0.0])
    # integral of a 0/1 step collapses to the single level t in (0, 1)
    assert measure.lhs == pytest.approx(3.0, abs=ATOL)
    assert boundary.lhs == pytest.approx(1.0, abs=ATOL)


# ------------------------------------------------------------ companion graph


def test_auxiliary_graph_without_same_sign_edges_is_identity():
    g = cycle(4)
    aux = auxiliary_graph(g, [1.0, -1.0, 1.0, -1.0])
    assert aux.graph.n == 4
    assert aux.mirror == {}
    assert aux.graph.edges == g.edges


def test_auxiliary_graph_mirrors_same_sign_edges():
    g = triangle()
    f = np.array([1.0, 1.0, -1.0])
    aux = auxiliary_graph(g, f)
    # the same-sign edge 01 forces mirrors of both endpoints
    assert set(aux.mirror) == {0, 1}
    assert aux.graph.n == 5
    assert inner_product(aux.graph, aux.values, aux.values) == pytest.approx(
        inner_product(g, f, f), abs=1e-10
    )
    assert dirichlet_form(aux.graph, aux.values) <= q_form(g, f) + 1e-10


def test_auxiliary_graph_on_top_eigenfunction():
    for seed in range(4):
        g = sample_graph(RandomGraphSpec(n=7, seed=seed))
        s = spectrum(g, eigenvectors=True)
        f = s.eigenvectors[:, -1]
        aux = auxiliary_graph(g, f)
        energy = dirichlet_form(aux.graph, aux.values)
        assert energy <= q_form(g, f) + 1e-9
