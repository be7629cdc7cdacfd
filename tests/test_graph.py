"""Graph container, measures, quadratic forms, and wire-format round trips."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete, cycle, path, triangle
from specgraph.errors import (
    DuplicateEdge,
    EmptySet,
    IsolatedVertex,
    MalformedGraph,
    NonpositiveWeight,
    SelfLoop,
)
from specgraph.graph import (
    WeightedGraph,
    _indicator,
    apply_laplacian,
    dirichlet_form,
    dump_graph,
    graph_from_json,
    graph_to_json,
    inner_product,
    load_graph,
    mask_of,
    q_form,
    set_measures,
    transition_probability,
    vertices_of,
)

ATOL = 1e-12

WEIGHTS = st.floats(min_value=0.01, max_value=100.0)


# ----------------------------------------------------------- construction


def test_triangle_measures():
    g = triangle()
    assert np.allclose(g.vertex_measure, [2.0, 2.0, 2.0])
    assert g.total_measure == 6.0
    assert g.total_edge_weight == 3.0


def test_path_measures_and_neighbors():
    g = path(3)
    assert np.allclose(g.vertex_measure, [1.0, 2.0, 1.0])
    assert g.neighbors(1) == ((0, 1.0), (2, 1.0))
    assert g.neighbors(0) == ((1, 1.0),)


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
    assert g.component_masks() == [0b0011, 0b1100]
    assert g.component_count == 2
    assert not g.is_connected()
    assert cycle(5).is_connected()


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
    with pytest.raises(ValueError):
        dirichlet_form(triangle(), [1.0, 2.0])


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


def test_stream_round_trip():
    g = cycle(4)
    buf = io.StringIO()
    dump_graph(g, buf)
    buf.seek(0)
    assert load_graph(buf) == g


def test_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        graph_from_json("not json at all")
    with pytest.raises(MalformedGraph):
        graph_from_json('{"nodes": []}')


def test_from_json_validates_edges():
    with pytest.raises(NonpositiveWeight):
        graph_from_json('{"edges": [[0, 1, -3.0]]}')
