"""Exact isoperimetric invariants against hand values and brute enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_cheeger,
    brute_dual,
    brute_kappa,
    complete,
    cycle,
    path,
    triangle,
)
from specgraph.errors import DisconnectedGraph, EmptySet, NotDisjoint, TooLarge
from specgraph.graph import WeightedGraph, mask_of, vertices_of
from specgraph.harness import RandomGraphSpec, sample_graph
from specgraph.invariants import (
    cheeger_constant_exact,
    cheeger_ratio,
    dual_cheeger_exact,
    dual_cheeger_ratio,
    h_via_r,
    is_bipartite,
    kappa_exact,
    kappa_pair,
    r_quantity,
)
from specgraph.spectral import spectrum

ATOL = 1e-12

WEIGHT = st.floats(min_value=0.05, max_value=20.0)


# --------------------------------------------------------------- hand values


def test_cheeger_hand_values():
    assert cheeger_constant_exact(complete(4)).value == pytest.approx(2 / 3, abs=ATOL)
    assert cheeger_constant_exact(path(3)).value == 1.0
    assert cheeger_constant_exact(cycle(4)).value == 0.5
    assert cheeger_constant_exact(cycle(5)).value == 0.5


def test_cheeger_witness_is_smallest_minimizing_mask():
    rep = cheeger_constant_exact(complete(4))
    assert rep.witness == 0b0011
    assert rep.witness_vertices() == [0, 1]
    assert cheeger_constant_exact(path(3)).witness == 0b001


def test_cheeger_witness_attains_value():
    for g in (complete(5), cycle(6), triangle(0.3, 1.0, 2.0)):
        rep = cheeger_constant_exact(g)
        assert cheeger_ratio(g, rep.witness) == pytest.approx(rep.value, abs=ATOL)


def test_dual_cheeger_hand_values():
    assert dual_cheeger_exact(triangle()).value == pytest.approx(2 / 3, abs=ATOL)
    # bipartite graphs achieve the maximum 1 with a bipartition
    assert dual_cheeger_exact(cycle(4)).value == pytest.approx(1.0, abs=ATOL)
    assert dual_cheeger_exact(path(4)).value == pytest.approx(1.0, abs=ATOL)


def test_dual_cheeger_witness_attains_value():
    for g in (triangle(), complete(5), cycle(5)):
        rep = dual_cheeger_exact(g)
        mask_a, mask_b = rep.witness
        assert dual_cheeger_ratio(g, mask_a, mask_b) == pytest.approx(
            rep.value, abs=ATOL
        )


def test_kappa_hand_values():
    assert kappa_exact(triangle()).value == 0.5
    assert kappa_exact(cycle(5)).value == 0.5
    assert kappa_exact(cycle(6)).value == 0.0
    assert kappa_exact(complete(4)).value == pytest.approx(1 / 3, abs=ATOL)
    assert kappa_exact(complete(5)).value == 0.5


def test_kappa_witness_is_a_partition_attaining_value():
    g = complete(4)
    rep = kappa_exact(g)
    mask_a, mask_b = rep.witness
    assert mask_a | mask_b == 0b1111 and mask_a & mask_b == 0
    assert kappa_pair(g, mask_a, mask_b) == pytest.approx(rep.value, abs=ATOL)


def test_report_payload():
    rep = kappa_exact(cycle(4))
    payload = rep.to_payload()
    assert payload["invariant"] == "kappa"
    assert payload["value"] == 0.0
    assert sorted(payload["witness"][0] + payload["witness"][1]) == [0, 1, 2, 3]


# ------------------------------------------------------------- ratio queries


def test_r_quantity_complements_cheeger_ratio():
    g = triangle()
    mask = 0b011
    assert r_quantity(g, mask) == 0.5
    assert cheeger_ratio(g, mask) + r_quantity(g, mask) == 1.0


def test_pair_queries_validate_inputs():
    g = triangle()
    with pytest.raises(EmptySet):
        dual_cheeger_ratio(g, 0, 0b001)
    with pytest.raises(NotDisjoint):
        dual_cheeger_ratio(g, 0b011, 0b110)
    with pytest.raises(EmptySet):
        kappa_pair(g, 0b001, 0)
    with pytest.raises(NotDisjoint):
        kappa_pair(g, 0b011, 0b010)


# ------------------------------------------------- agreement with brute force


@pytest.mark.parametrize("seed", range(8))
def test_cheeger_matches_brute_force(seed):
    g = sample_graph(RandomGraphSpec(n=4 + seed % 4, seed=seed))
    assert cheeger_constant_exact(g).value == pytest.approx(
        brute_cheeger(g), abs=ATOL
    )


@pytest.mark.parametrize("seed", range(8))
def test_dual_cheeger_matches_brute_force(seed):
    g = sample_graph(RandomGraphSpec(n=4 + seed % 3, seed=seed))
    assert dual_cheeger_exact(g).value == pytest.approx(brute_dual(g), abs=ATOL)


@pytest.mark.parametrize("seed", range(8))
def test_kappa_matches_brute_force(seed):
    g = sample_graph(RandomGraphSpec(n=4 + seed % 4, seed=seed))
    assert kappa_exact(g).value == pytest.approx(brute_kappa(g), abs=ATOL)


@settings(max_examples=40, deadline=None)
@given(w=st.tuples(WEIGHT, WEIGHT, WEIGHT))
def test_weighted_triangle_matches_brute_force(w):
    g = triangle(*w)
    assert cheeger_constant_exact(g).value == pytest.approx(
        brute_cheeger(g), abs=ATOL
    )
    assert dual_cheeger_exact(g).value == pytest.approx(brute_dual(g), abs=ATOL)
    assert kappa_exact(g).value == pytest.approx(brute_kappa(g), abs=ATOL)


# ------------------------------------------------------------- search modes


@pytest.mark.parametrize("seed", range(6))
def test_connected_restriction_does_not_change_value(seed):
    g = sample_graph(RandomGraphSpec(n=6, seed=seed))
    free = cheeger_constant_exact(g)
    restricted = cheeger_constant_exact(g, connected_only=True)
    assert restricted.value == pytest.approx(free.value, abs=ATOL)


@pytest.mark.parametrize("seed", range(6))
def test_partition_route_reproduces_cheeger(seed):
    g = sample_graph(RandomGraphSpec(n=7, seed=seed))
    assert h_via_r(g) == pytest.approx(cheeger_constant_exact(g).value, abs=ATOL)


# ---------------------------------------------------------------- guard rails


def test_size_caps_enforced():
    g = complete(5)
    with pytest.raises(TooLarge):
        cheeger_constant_exact(g, max_n=4)
    with pytest.raises(TooLarge):
        dual_cheeger_exact(g, max_n=4)
    with pytest.raises(TooLarge):
        kappa_exact(g, max_n=4)
    with pytest.raises(TooLarge):
        h_via_r(g, max_n=4)
    # explicit override loosens the cap as well
    assert cheeger_constant_exact(g, max_n=5).value == pytest.approx(
        0.75, abs=ATOL
    )


def test_cheeger_needs_connected_graph():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(DisconnectedGraph):
        cheeger_constant_exact(g)
    with pytest.raises(DisconnectedGraph):
        h_via_r(g)


def test_minimum_vertex_counts():
    k2 = WeightedGraph([(0, 1, 1.0)])
    assert cheeger_constant_exact(k2).value == 1.0
    assert dual_cheeger_exact(k2).value == 1.0
    assert kappa_exact(k2).value == 0.0


# ----------------------------------------------------------------- bipartite


def test_bipartition_masks_cover_and_separate():
    g = cycle(6)
    flag, masks = is_bipartite(g)
    assert flag
    mask_a, mask_b = masks
    assert mask_a | mask_b == (1 << 6) - 1
    for u, v, _ in g.edges:
        assert ((mask_a >> u) & 1) != ((mask_a >> v) & 1)


def test_odd_cycle_is_not_bipartite():
    assert is_bipartite(cycle(5)) == (False, None)
    assert is_bipartite(triangle())[0] is False


def test_bipartite_iff_kappa_zero_small_cases():
    for g in (cycle(4), cycle(6), path(5), complete(4), cycle(5), triangle()):
        flag, _ = is_bipartite(g)
        assert (kappa_exact(g).value == 0.0) == flag


def test_bipartite_dual_cheeger_is_one():
    for g in (cycle(4), cycle(6), path(5)):
        rep = dual_cheeger_exact(g)
        assert rep.value == pytest.approx(1.0, abs=ATOL)
        mask_a, mask_b = rep.witness
        assert mask_a | mask_b == (1 << g.n) - 1


# ---------------------------------------------------------------- relabelling


@st.composite
def relabelled_graphs(draw):
    """A connected graph on n <= 9 vertices and a permutation of its vertices."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # spanning tree
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = [(a, b, draw(WEIGHT)) for a, b in sorted(pairs)]
    return edges, draw(st.permutations(range(n)))


def _close(x, y):
    return math.isclose(x, y, rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(relabelled_graphs())
def test_values_and_witnesses_survive_relabelling(case):
    edges, perm = case
    g = WeightedGraph(edges)
    h = WeightedGraph([(perm[b], perm[a], w) for a, b, w in reversed(edges)])

    def moved(mask):
        return mask_of(perm[v] for v in vertices_of(mask))

    assert np.allclose(spectrum(h).values, spectrum(g).values, rtol=1e-12, atol=1e-12)
    cheeger = cheeger_constant_exact(g)
    assert _close(cheeger_constant_exact(h).value, cheeger.value)
    assert _close(cheeger_ratio(h, moved(cheeger.witness)), cheeger.value)
    for exact, ratio in ((dual_cheeger_exact, dual_cheeger_ratio), (kappa_exact, kappa_pair)):
        report = exact(g)
        assert _close(exact(h).value, report.value)
        mask_a, mask_b = report.witness
        assert _close(ratio(h, moved(mask_a), moved(mask_b)), report.value)
