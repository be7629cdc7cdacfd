"""Graph container, measures, quadratic forms, and wire-format round trips."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specgraph.graph as graph_module
from conftest import apply_laplacian, cycle, path, transition_probability, triangle
from specgraph.errors import (
    BadParameter,
    DuplicateEdge,
    EmptySet,
    IsolatedVertex,
    MalformedGraph,
    NonpositiveWeight,
    NumericalFailure,
    SelfLoop,
)
from specgraph.graph import (
    WeightedGraph,
    _indicator,
    dirichlet_form,
    graph_from_json,
    graph_to_json,
    inner_product,
    mask_of,
    q_form,
    set_measures,
    vertices_of,
    weight_matrix,
)
from specgraph.harness import RandomGraphSpec, _family_instances, sample_graph
from specgraph.invariants import is_bipartite
from specgraph.spectral import spectrum

ATOL = 1e-12

WEIGHTS = st.floats(min_value=0.01, max_value=100.0)


# ----------------------------------------------------------- construction


def test_triangle_measures():
    g = triangle()
    assert np.allclose(g.vertex_measure, [2.0, 2.0, 2.0])
    assert g.total_measure == 6.0
    assert g.w.sum() == 3.0


def test_path_measures_and_neighbors():
    g = path(3)
    assert np.allclose(g.vertex_measure, [1.0, 2.0, 1.0])
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def test_edges_are_canonicalized():
    g = WeightedGraph([(2, 0, 1.5), (1, 0, 0.5)])
    assert g.edges == ((0, 1, 0.5), (0, 2, 1.5))


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        WeightedGraph([(0, 0, 1.0)])


def test_duplicate_edge_rejected_in_either_orientation():
    with pytest.raises(DuplicateEdge):
        WeightedGraph([(0, 1, 1.0), (1, 0, 2.0)])


@pytest.mark.parametrize("w", [0.0, -1.0, math.nan, math.inf])
def test_bad_weight_rejected(w):
    with pytest.raises(NonpositiveWeight):
        WeightedGraph([(0, 1, w)])


def test_isolated_vertex_rejected():
    with pytest.raises(IsolatedVertex):
        WeightedGraph([(0, 2, 1.0)])  # vertex 1 has no edge
    with pytest.raises(IsolatedVertex):
        WeightedGraph([(0, 1, 1.0)], labels=["a", "b", "c"])


def test_endpoint_beyond_labels_rejected():
    with pytest.raises(IsolatedVertex):
        WeightedGraph([(0, 5, 1.0)], labels=["a", "b"])


def test_first_offending_edge_in_input_order_is_reported():
    # At one edge: self-loop before weight before repeat.
    with pytest.raises(SelfLoop, match=r"edge \(1, 1\)"):
        WeightedGraph([(0, 1, 1.0), (1, 1, -1.0)])
    with pytest.raises(NonpositiveWeight, match=r"edge \(1, 0\) has weight -2.0"):
        WeightedGraph([(0, 1, 1.0), (1, 0, -2.0), (2, 2, 1.0)])
    with pytest.raises(DuplicateEdge, match=r"edge \(0, 2\) appears"):
        WeightedGraph([(2, 0, 1.0), (0, 1, 1.0), (0, 2, 2.0), (1, 0, 1.0)])
    with pytest.raises(IsolatedVertex, match="vertex 2 has"):
        WeightedGraph([(0, 1, 1.0), (4, 3, 1.0), (1, 3, 1.0)])


def test_huge_vertex_id_is_isolated_without_allocating_it():
    with pytest.raises(IsolatedVertex, match="vertex 1 has no incident edge"):
        WeightedGraph([(0, 10**18, 1.0)])


def test_array_input_builds_the_same_graph():
    edges = [(2, 0, 1.5), (1, 0, 0.5), (2, 1, 0.25)]
    g = WeightedGraph(np.array(edges))
    assert g == WeightedGraph(edges)
    assert g.u.dtype == np.int64 and g.u.tolist() == [0, 0, 1]
    assert g.v.tolist() == [1, 2, 2] and g.w.tolist() == [0.5, 1.5, 0.25]
    with pytest.raises(ValueError):
        g.w[0] = 2.0  # the stored arrays are read-only


@pytest.mark.parametrize(
    "text",
    [
        '{"nodes": []}',
        "[[0, 1, 1.0]]",
        '{"edges": 5}',
        '{"edges": [[0, 1]]}',
        '{"edges": [[0, 1, 1.0], [1, 2]]}',
        '{"edges": [[0, 1, "1.0"]]}',
        '{"edges": [[0, 1.5, 1.0]]}',
        '{"edges": [[0, -1, 1.0]]}',
        '{"edges": [[0, NaN, 1.0]]}',
        '{"edges": [[0, 1, 1.0]], "labels": "ab"}',
        '{"edges": [[0, 1, 1e308], [1, 2, 1e308]]}',
        '{"edges": [',
    ],
)
def test_malformed_input_is_typed(text):
    with pytest.raises(MalformedGraph):
        graph_from_json(text)


def test_equality_and_hash():
    assert triangle() == triangle()
    assert hash(triangle()) == hash(triangle())
    assert triangle() != triangle(w12=2.0)
    labelled = WeightedGraph([(0, 1, 1.0)], labels=["x", "y"])
    assert labelled != WeightedGraph([(0, 1, 1.0)])


# ----------------------------------------------------------- connectivity


def test_components_of_disconnected_graph():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)])
    assert g._search()[0] == (0, 0, 2, 2)
    assert g.component_count == 2
    assert not g.is_connected()
    assert cycle(5).is_connected()


def test_component_search_runs_once_per_graph(monkeypatch):
    runs = []
    union_find = graph_module._union_find
    monkeypatch.setattr(
        graph_module, "_union_find", lambda *args: runs.append(1) or union_find(*args)
    )
    edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (3, 4, 1.0)]
    g = WeightedGraph(edges)
    for _ in range(2):
        assert not g.is_connected()
        assert g._search()[0] == (0, 0, 0, 3, 3)
        assert g.component_count == 2
        assert is_bipartite(g) == (False, None)
    assert len(runs) == 1
    # A spectrum holds eigen-data only: it never searches the graph.
    fresh = WeightedGraph(edges)
    spectrum(fresh)
    spectrum(fresh, eigenvectors=True)
    assert len(runs) == 1


def _search_reference(g):
    """Independent route to ``WeightedGraph._search``: a CSR neighbour index
    and a depth-first search give, per vertex, the least vertex of its
    component and the parity of its depth in a tree grown from that vertex."""
    src = np.concatenate([g.v, g.u])
    order = np.argsort(src, kind="stable")
    starts = np.searchsorted(src[order], np.arange(g.n + 1)).tolist()
    nbr = np.concatenate([g.u, g.v])[order].tolist()
    root, parity = [-1] * g.n, [0] * g.n
    for start in range(g.n):
        if root[start] != -1:
            continue
        root[start] = start
        stack = [start]
        while stack:
            x = stack.pop()
            for y in nbr[starts[x]:starts[x + 1]]:
                if root[y] == -1:
                    root[y] = start
                    parity[y] = 1 - parity[x]
                    stack.append(y)
    return tuple(root), tuple(parity)


def _assert_search_matches_reference(g):
    root, parity = _search_reference(g)
    new_root, new_parity = g._search()
    assert new_root == root
    assert g.component_count == len(set(root))
    assert g.is_connected() == (len(set(root)) == 1)
    # On a two-colourable component the colouring from its least vertex is
    # unique, so the parities agree there vertex for vertex.
    odd = {root[a] for a, b in zip(g.u, g.v) if parity[a] == parity[b]}
    for v in range(g.n):
        if root[v] not in odd:
            assert new_parity[v] == parity[v]
    side = np.array(parity, dtype=bool)
    if odd:
        expected = (False, None)
    else:
        mask_b = mask_of(np.flatnonzero(side).tolist())
        expected = (True, (((1 << g.n) - 1) ^ mask_b, mask_b))
    assert is_bipartite(g) == expected


def test_dense_weight_matrix_is_built_once_and_read_only():
    g = triangle(1.0, 2.0, 4.0)
    w = weight_matrix(g)
    assert weight_matrix(g) is w and not w.flags.writeable
    expected = np.zeros((3, 3))
    for a, b, weight in g.edges:
        expected[a, b] = expected[b, a] = weight
    assert np.array_equal(w, expected)
    assert g.total_measure == float(g.vertex_measure.sum()) == 14.0


def test_search_matches_reference_on_every_small_graph():
    checked = 0
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for picks in itertools.product((0, 1), repeat=len(pairs)):
            edges = [(a, b, 1.0) for (a, b), pick in zip(pairs, picks) if pick]
            if len({x for a, b, _ in edges for x in (a, b)}) < n:
                continue
            _assert_search_matches_reference(WeightedGraph(edges))
            checked += 1
    assert checked == 1 + 4 + 41 + 768


def _scattered_components(seed):
    """2-4 components on shuffled vertex ids, some two-colourable and some
    not, with the edges listed in random order and orientation."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n = int(rng.integers(2 * k, 31))
    ids = rng.permutation(n).tolist()
    cuts = sorted(rng.choice(np.arange(2, n - 1), k - 1, replace=False).tolist())
    groups = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    if any(len(group) < 2 for group in groups):
        return _scattered_components(seed + 1000)
    pairs = set()
    for group in groups:
        two_colour = rng.random() < 0.6
        depth = {group[0]: 0}
        for i, x in enumerate(group[1:], 1):
            y = group[int(rng.integers(0, i))]
            depth[x] = depth[y] + 1
            pairs.add((min(x, y), max(x, y)))
        for _ in range(int(rng.integers(0, len(group)))):
            x, y = rng.choice(group, 2, replace=False).tolist()
            if not two_colour or (depth[x] - depth[y]) % 2:
                pairs.add((min(x, y), max(x, y)))
    edges = [
        (b, a, w) if rng.random() < 0.5 else (a, b, w)
        for (a, b), w in zip(sorted(pairs), rng.uniform(0.1, 2.0, len(pairs)))
    ]
    order = rng.permutation(len(edges)).tolist()
    return WeightedGraph([edges[i] for i in order], labels=[f"v{i}" for i in range(n)])


@pytest.mark.parametrize("seed", range(60))
def test_search_matches_reference_on_scattered_components(seed):
    g = _scattered_components(seed)
    assert 2 <= g.component_count <= 4
    _assert_search_matches_reference(g)


def test_search_matches_reference_on_harness_graphs():
    graphs = [g for _, g in _family_instances()]
    graphs += [sample_graph(RandomGraphSpec(n=9, seed=seed)) for seed in range(10)]
    for g in graphs:
        _assert_search_matches_reference(g)


# -------------------------------------------------------------- set helpers


def test_mask_round_trip():
    assert mask_of([2, 0]) == 5
    assert vertices_of(5) == [0, 2]
    assert vertices_of(mask_of(range(7))) == list(range(7))
    assert mask_of([]) == 0 and vertices_of(0) == []


def test_indicator_of_masks_wider_than_64_bits():
    members = [0, 5, 63, 64, 99]
    inside = _indicator(100, mask_of(members))
    assert inside.dtype == bool and inside.shape == (100,)
    assert np.flatnonzero(inside).tolist() == members
    assert not _indicator(9, 0).any()


def test_set_measures_on_triangle():
    g = triangle()
    assert set_measures(g, 0b001) == (2.0, 2.0, 0.0)
    m_s, boundary, interior = set_measures(g, 0b011)
    assert (m_s, boundary, interior) == (4.0, 2.0, 1.0)
    # m(S) = m(boundary S) + 2 m(interior S)
    assert m_s == boundary + 2.0 * interior


def test_set_measures_rejects_empty_set():
    with pytest.raises(EmptySet):
        set_measures(triangle(), 0)


def test_transition_probability():
    g = triangle()
    assert transition_probability(g, 0, 0b010) == 0.5
    assert transition_probability(g, 0, 0b110) == 1.0


# ---------------------------------------------------------- quadratic forms


def test_laplacian_on_hand_examples():
    k2 = WeightedGraph([(0, 1, 1.0)])
    assert np.allclose(apply_laplacian(k2, [1.0, -1.0]), [2.0, -2.0])
    g = triangle()
    assert np.allclose(apply_laplacian(g, [1.0, 0.0, 0.0]), [1.0, -0.5, -0.5])
    # constants are harmonic
    assert np.allclose(apply_laplacian(g, np.ones(3)), np.zeros(3))


def test_forms_on_k2():
    k2 = WeightedGraph([(0, 1, 1.0)])
    f = [1.0, -1.0]
    assert dirichlet_form(k2, f) == 4.0
    assert q_form(k2, f) == 0.0
    assert inner_product(k2, f, f) == 2.0


def test_shape_mismatch_rejected():
    with pytest.raises(BadParameter):
        dirichlet_form(triangle(), [1.0, 2.0])


def test_forms_whose_sum_overflows_are_numerical_failures():
    """Every term is finite, but the exactly rounded sum exceeds float64."""
    g = graph_from_json('{"edges": [[0,1,4e307],[1,2,4e307]]}')
    with pytest.raises(NumericalFailure):
        dirichlet_form(g, [1.0, -1.0, 1.0])
    with pytest.raises(NumericalFailure):
        q_form(g, [1.0, 1.0, 1.0])
    with pytest.raises(NumericalFailure):
        inner_product(g, [1.1, 1.1, 1.1], [1.1, 1.1, 1.1])
    assert inner_product(g, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 4 * 4e307


@settings(max_examples=50, deadline=None)
@given(
    f=st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4),
    w=st.lists(WEIGHTS, min_size=4, max_size=4),
)
def test_dirichlet_matches_laplacian_pairing(f, w):
    g = WeightedGraph([(0, 1, w[0]), (1, 2, w[1]), (2, 3, w[2]), (3, 0, w[3])])
    lhs = inner_product(g, apply_laplacian(g, f), f)
    assert lhs == pytest.approx(dirichlet_form(g, f), abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    f=st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
    w=st.lists(WEIGHTS, min_size=3, max_size=3),
)
def test_q_form_matches_reflected_pairing(f, w):
    g = triangle(*w)
    arr = np.asarray(f)
    reflected = 2.0 * arr - apply_laplacian(g, arr)
    assert inner_product(g, reflected, arr) == pytest.approx(
        q_form(g, arr), abs=1e-9
    )


# --------------------------------------------------------------- wire format


def test_json_round_trip_plain():
    g = triangle(1.0, 0.25, 2.5)
    assert graph_from_json(graph_to_json(g)) == g


def test_json_round_trip_labelled():
    g = WeightedGraph([(0, 1, 0.1), (1, 2, 0.2)], labels=["a", "b", "c"])
    again = graph_from_json(graph_to_json(g))
    assert again == g
    assert again.labels == ("a", "b", "c")


def test_json_shape():
    payload = json.loads(graph_to_json(path(3)))
    assert payload == {"edges": [[0, 1, 1.0], [1, 2, 1.0]]}
    assert "labels" not in payload


def test_weights_survive_json_bit_exactly():
    w = 0.1 + 0.2  # not exactly representable as a decimal literal
    g = WeightedGraph([(0, 1, w)])
    assert graph_from_json(graph_to_json(g)).edges[0][2] == w


def test_from_json_rejects_garbage():
    with pytest.raises(MalformedGraph):
        graph_from_json("not json at all")
    with pytest.raises(MalformedGraph):
        graph_from_json('{"nodes": []}')


def test_from_json_validates_edges():
    with pytest.raises(NonpositiveWeight):
        graph_from_json('{"edges": [[0, 1, -3.0]]}')
