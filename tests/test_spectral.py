"""Spectral engine: eigensolves, Rayleigh quotients, asymmetry, operators."""

import math

import numpy as np
import pytest

from conftest import complete, cycle, path, triangle
from specgraph.errors import BadParameter, EmptySet, EmptySpectrum, ZeroFunction
from specgraph.graph import (
    WeightedGraph,
    _indicator,
    dirichlet_form,
    inner_product,
    q_form,
    weight_matrix,
)
from specgraph.harness import RandomGraphSpec, analyze, coarea_check, sample_graph
from specgraph.invariants import is_bipartite, kappa_exact, kappa_pair
from specgraph.spectral import (
    Spectrum,
    auxiliary_graph,
    hausdorff_asymmetry,
    laplacian_matrix,
    random_walk_matrix,
    rayleigh,
    signed_conjugation,
    spectrum,
    symmetric_conjugate,
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
    assert spectrum(g).gap == pytest.approx(target, abs=EIG_ATOL)
    assert spectrum(g).top == pytest.approx(target, abs=EIG_ATOL)


def test_values_stay_in_range():
    for seed in range(6):
        g = sample_graph(RandomGraphSpec(n=9, seed=seed))
        values = spectrum(g).values
        assert values[0] >= 0.0 and values[-1] <= 2.0
        assert np.all(np.diff(values) >= 0.0)


def test_disconnected_graph_zero_multiplicity():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)])
    s = spectrum(g)
    assert g.component_count == 2
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


def test_residual_near_the_float_maximum_is_that_of_a_scaled_copy():
    """Weights near the float64 maximum make the eigenfunctions about 1e-154;
    the residual must not underflow to 0, and a power-of-two rescaling of the
    weights must leave its bits alone."""
    g = WeightedGraph(
        [(0, 1, 3e307), (1, 2, 2e307), (2, 3, 1.5e307), (0, 3, 7e306), (1, 3, 5e306)]
    )
    scaled = WeightedGraph(np.column_stack([g.u, g.v, g.w * 2.0**-1000]))
    residual = spectrum(g, eigenvectors=True).max_residual
    assert 0.0 < residual <= EIG_ATOL
    assert residual.hex() == spectrum(scaled, eigenvectors=True).max_residual.hex()


def test_empty_graph_has_no_spectrum():
    with pytest.raises(EmptySpectrum):
        spectrum(WeightedGraph([], labels=[]))


def test_gap_of_a_zero_only_spectrum_raises():
    s = Spectrum(np.array([0.0]), 1e-9, 1)
    with pytest.raises(EmptySpectrum):
        s.gap


# ----------------------------------------------------------------- Rayleigh


def test_rayleigh_extremes_on_k2():
    k2 = WeightedGraph([(0, 1, 1.0)])
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


@pytest.mark.parametrize("values", [[math.nan, 1.0], [0.0, math.inf]])
def test_hausdorff_rejects_values_that_are_not_finite(values):
    with pytest.raises(BadParameter):
        hausdorff_asymmetry(values)


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
    assert op.identity_residual <= 1e-12
    assert np.abs(op.values - spectrum(triangle()).values).max() <= 1e-9
    # the blocked operator keeps only the transitions 1 -> 2 and 2 -> 1,
    # each of probability 1/2, so its norm is 1/2
    assert op.blocked_norm == pytest.approx(0.5, abs=ATOL)


def test_signed_conjugation_rejects_trivial_partition():
    with pytest.raises(EmptySet):
        signed_conjugation(triangle(), 0)
    with pytest.raises(EmptySet):
        signed_conjugation(triangle(), 0b111)


def test_blocked_norm_vanishes_on_bipartition():
    g = cycle(6)
    _, masks = is_bipartite(g)
    assert signed_conjugation(g, masks[0]).blocked_norm == 0.0


def test_blocked_norm_below_kappa_pair():
    for seed in range(6):
        g = sample_graph(RandomGraphSpec(n=7, seed=seed))
        mask_a, mask_b = kappa_exact(g).witness
        norm = signed_conjugation(g, mask_a).blocked_norm
        assert norm <= kappa_pair(g, mask_a, mask_b) + 1e-9


def _blocked_norm_loop(graph, mask_a):
    """Reference for ``blocked_norm``: the norm of ``N = D^{-1/2} W D^{-1/2}``
    with its cross-class entries zeroed one by one."""
    sym = symmetric_conjugate(graph)
    side = _indicator(graph.n, mask_a)
    for a in range(graph.n):
        for b in range(graph.n):
            if side[a] != side[b]:
                sym[a, b] = 0.0
    return float(np.abs(np.linalg.eigvalsh(sym)).max())


def test_blocked_norm_matches_the_separate_route():
    graphs = [triangle(1.0, 2.0, 4.0), cycle(6), complete(5)]
    graphs += [sample_graph(RandomGraphSpec(n=n, seed=n)) for n in range(4, 9)]
    for g in graphs:
        for mask_a in range(1, (1 << g.n) - 1, 3):
            got = signed_conjugation(g, mask_a).blocked_norm
            assert got == _blocked_norm_loop(g, mask_a), (g.n, mask_a)


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
    assert aux.graph.edges == g.edges


def test_auxiliary_graph_mirrors_same_sign_edges():
    g = triangle()
    f = np.array([1.0, 1.0, -1.0])
    aux = auxiliary_graph(g, f)
    # the same-sign edge 01 forces mirrors of both endpoints: 0' = 3 and
    # 1' = 4, and 01 becomes the pair 0 1' and 0' 1
    assert aux.graph.n == 5
    assert aux.graph.edges == ((0, 2, 1.0), (0, 4, 1.0), (1, 2, 1.0), (1, 3, 1.0))
    assert aux.values.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
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
