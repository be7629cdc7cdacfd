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
from specgraph import invariants
from specgraph.errors import DisconnectedGraph, EmptySet, NotDisjoint, TooLarge
from specgraph.families import FamilySpec, generate
from specgraph.graph import (
    WeightedGraph,
    _indicator,
    _sequential_sum,
    _weight_into,
    graph_from_json,
    mask_of,
    set_measures,
    vertices_of,
)
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


def test_subset_sums_add_in_neighbour_order(monkeypatch):
    """Each enumerated ``m_S(x)`` and ``m(S)`` equals the per-vertex sum in
    neighbour order bit for bit, across block seams too."""
    monkeypatch.setattr(invariants, "_CHUNK_BITS", 3)
    g = sample_graph(RandomGraphSpec(n=7, seed=3))
    full = (1 << g.n) - 1
    measures = invariants._subset_sums(g.vertex_measure, g.n)
    for masks, _, sums, sums_c in invariants._chunks(g):
        for mask, row, row_c in zip(masks.tolist(), sums, sums_c):
            for subset, got in ((mask, row), (full ^ mask, row_c)):
                inside = _indicator(g.n, subset)
                m_set = _sequential_sum(g.vertex_measure[inside])
                assert got.tolist() == [*_weight_into(g, inside).tolist(), m_set]
                assert measures[subset] == m_set


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_block_size_changes_no_value_or_witness(monkeypatch, bits):
    """The dual and kappa searches read masks in blocks of ``2^_CHUNK_BITS``;
    small blocks put many block seams inside graphs of 4 to 10 vertices."""
    graphs = [sample_graph(RandomGraphSpec(n=n, seed=n)) for n in range(4, 11)]
    graphs += [cycle(10), complete(8), generate(FamilySpec("ladder_L", 4, r=0.5))]

    def results():
        return [
            (report.value, report.witness)
            for g in graphs
            for report in (dual_cheeger_exact(g), kappa_exact(g))
        ]

    default = results()
    monkeypatch.setattr(invariants, "_CHUNK_BITS", bits)
    assert results() == default


# ------------------------------------------------------------- search modes


@pytest.mark.parametrize("seed", range(6))
def test_connected_restriction_does_not_change_value(seed):
    g = sample_graph(RandomGraphSpec(n=6, seed=seed))
    free = cheeger_constant_exact(g)
    restricted = cheeger_constant_exact(g, connected_only=True)
    assert restricted.value == pytest.approx(free.value, abs=ATOL)


def _tie_heavy_graph(seed: int) -> WeightedGraph:
    """A random spanning tree, plus sparse extra edges for every third seed,
    with weights from a short menu, so that many sets share a ratio."""
    rng = np.random.default_rng(seed)
    n = 4 + seed % 7
    extra = 0.0 if seed % 3 else 0.2
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    pairs |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < extra}
    menu = ([0.3], [0.7], [0.1, 0.2, 0.3], [0.5, 1.0, 2.0])[seed % 4]
    return WeightedGraph([(u, v, float(rng.choice(menu))) for u, v in sorted(pairs)])


# The seeds below 400 whose first minimizer over all sets is disconnected:
# rounding puts a union of tied sets at or below every connected set.
_DISCONNECTED_FIRST = (230, 332, 341, 353, 361)


def _first_connected_minimizer(graph: WeightedGraph) -> tuple[float, int]:
    """The first connected admissible set in (ratio, mask) order, by a plain
    loop over all masks."""
    total = graph.total_measure
    adjacent = {v: set() for v in range(graph.n)}
    for u, v, _ in graph.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    best, witness = math.inf, 0
    for mask in range(1, 1 << graph.n):
        members = set(vertices_of(mask))
        m_set, boundary, _ = set_measures(graph, mask)
        if m_set > (total - m_set) + invariants.HALF_TIE_RTOL * total:
            continue
        reached, frontier = set(), [min(members)]
        while frontier:
            x = frontier.pop()
            reached.add(x)
            frontier += (adjacent[x] & members) - reached
        if boundary / m_set < best and reached == members:
            best, witness = boundary / m_set, mask
    return best, witness


@pytest.mark.parametrize("seed", [*range(16), *_DISCONNECTED_FIRST])
def test_connected_search_matches_a_plain_loop(seed):
    g = _tie_heavy_graph(seed)
    report = cheeger_constant_exact(g, connected_only=True)
    assert (report.value, report.witness) == _first_connected_minimizer(g)
    if seed in _DISCONNECTED_FIRST:
        assert cheeger_constant_exact(g).witness != report.witness


@pytest.mark.parametrize("seed", range(6))
def test_partition_route_reproduces_cheeger(seed):
    g = sample_graph(RandomGraphSpec(n=7, seed=seed))
    assert h_via_r(g) == pytest.approx(cheeger_constant_exact(g).value, abs=ATOL)


# ------------------------------------------------- edge-order cut reference


def _cut_table(graph: WeightedGraph) -> np.ndarray:
    """``m(boundary S)`` for every subset mask, one strided pass over all
    masks per edge in edge order: the table the Cheeger search read before
    its fast filter."""
    table = np.zeros(1 << graph.n)
    for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()):
        view = table.reshape(-1, 2, 1 << (v - u - 1), 2, 1 << u)
        view[:, 1, :, 0, :] += w
        view[:, 0, :, 1, :] += w
    return table


def _bitmask_connected(neighbour_masks: list[int], mask: int) -> bool:
    """Whether ``mask`` induces a connected subgraph, by a breadth-first
    search over bits: the search ``cheeger_constant_exact`` ran before it
    used the graph's union-find."""
    seen = frontier = mask & -mask
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        new = neighbour_masks[bit.bit_length() - 1] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def _neighbour_masks(graph: WeightedGraph) -> list[int]:
    masks = [0] * graph.n
    for a, b, _ in graph.edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


@pytest.mark.parametrize("seed", [*range(8), *_DISCONNECTED_FIRST])
def test_induced_connectivity_matches_the_bitmask_search(seed):
    for g in (_tie_heavy_graph(seed), sample_graph(RandomGraphSpec(n=4 + seed % 7, seed=seed))):
        neighbour_masks = _neighbour_masks(g)
        for mask in range(1, 1 << g.n):
            assert invariants._induced_connected(g, mask) == _bitmask_connected(
                neighbour_masks, mask
            ), (seed, mask)


def _reference_cheeger(graph: WeightedGraph):
    """``(h hex, witness)`` without and with ``connected_only``, and the hex
    of ``h_via_r``, by ``argmin`` over the full cut table."""
    n = graph.n
    m_table = invariants._subset_sums(graph.vertex_measure, n)
    cut = _cut_table(graph)
    total = graph.total_measure
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = cut / m_table
    admissible = m_table <= (total - m_table) + invariants.HALF_TIE_RTOL * total
    admissible[0] = False
    ratio = np.where(admissible, ratio, np.inf)
    witness = int(np.argmin(ratio))
    free = (float(ratio[witness]).hex(), witness)
    neighbour_masks = _neighbour_masks(graph)
    while not _bitmask_connected(neighbour_masks, witness):
        ratio[witness] = np.inf
        witness = int(np.argmin(ratio))
    connected = (float(ratio[witness]).hex(), witness)

    masks = (np.arange(1 << (n - 1), dtype=np.int64) << 1) | 1
    masks = masks[masks != (1 << n) - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        r_a = 1.0 - cut[masks] / m_table[masks]
        r_b = 1.0 - cut[masks] / (total - m_table[masks])
    return free, connected, float(1.0 - np.minimum(r_a, r_b).max()).hex()


def _cheeger_results(graph: WeightedGraph):
    free = cheeger_constant_exact(graph)
    connected = cheeger_constant_exact(graph, connected_only=True)
    return (
        (free.value.hex(), free.witness),
        (connected.value.hex(), connected.witness),
        h_via_r(graph).hex(),
    )


def _scaled(graph: WeightedGraph, k: int) -> WeightedGraph:
    return WeightedGraph(np.column_stack([graph.u, graph.v, graph.w * 2.0**k]))


def _unit_random(n: int, p: float, seed: int) -> WeightedGraph:
    g = sample_graph(RandomGraphSpec(n=n, edge_probability=p, seed=seed))
    return WeightedGraph(np.column_stack([g.u, g.v, np.ones(len(g.w))]))


_REFERENCE_GRAPHS = {
    **{f"random{n}": (lambda n=n: sample_graph(RandomGraphSpec(n=n, seed=n))) for n in range(2, 15)},
    **{f"sparse{n}": (lambda n=n: sample_graph(RandomGraphSpec(n=n, edge_probability=0.3, seed=n)))
       for n in (15, 17, 19)},
    **{f"ties{seed}": (lambda seed=seed: _tie_heavy_graph(seed)) for seed in (*range(12), 230, 332)},
    **{f"unit{n}": (lambda n=n: _unit_random(n, 0.4, n)) for n in (5, 9, 12, 16)},
    **{f"cycle{n}": (lambda n=n: cycle(n)) for n in (3, 8, 13)},
    **{f"complete{n}": (lambda n=n: complete(n)) for n in (2, 5, 9, 12)},
    "ladder7": lambda: generate(FamilySpec("ladder_L", 3, r=0.5, rho=0.3)),
    "ladder13": lambda: generate(FamilySpec("ladder_L", 6, r=0.5)),
    "halfline10": lambda: generate(FamilySpec("halfline_m3", 9)),
    "halfline13": lambda: generate(FamilySpec("halfline_m4", 12, r=0.5)),
    # every weight subnormal, or near the float64 maximum in total
    "subnormal9": lambda: _scaled(sample_graph(RandomGraphSpec(n=9, seed=9)), -1060),
    "subnormal3": lambda: graph_from_json('{"edges": [[0,1,1e-310],[1,2,1e-310]]}'),
    "huge3": lambda: graph_from_json('{"edges": [[0,1,4e307],[1,2,4e307]]}'),
    "huge9": lambda: _scaled(sample_graph(RandomGraphSpec(n=9, seed=9)), 1016),
    # n >= 20: a tie-heavy cycle, the acceptance-6 ladder, a sparse random graph
    "cycle20": lambda: cycle(20),
    "ladder21": lambda: generate(FamilySpec("ladder_L", 10, r=0.5)),
    "sparse22": lambda: sample_graph(RandomGraphSpec(n=22, edge_probability=0.12, seed=5)),
}


@pytest.mark.parametrize("name", list(_REFERENCE_GRAPHS))
def test_cheeger_search_matches_the_cut_table_reference(name):
    g = _REFERENCE_GRAPHS[name]()
    assert _cheeger_results(g) == _reference_cheeger(g)


@pytest.mark.parametrize("seed", range(6))
def test_fast_table_noise_inside_the_margin_changes_no_bit(monkeypatch, seed):
    """Relative noise of up to half the filter margin ``delta = 4 eta`` on
    every fast cut (far above the rounding the margin is derived for) still
    keeps every minimizer, so values and witnesses stay the reference's."""
    graphs = [_tie_heavy_graph(seed), _tie_heavy_graph(seed + 6),
              sample_graph(RandomGraphSpec(n=8 + seed, seed=seed)), _unit_random(10, 0.5, seed)]
    expected = [_reference_cheeger(g) for g in graphs]
    rng = np.random.default_rng(seed)
    fast = invariants._fast_cut_table

    def noisy(graph):
        delta = 4.0 * invariants._gamma(graph.n + len(graph.w) + 6)
        table = fast(graph)
        return table * (1.0 + rng.uniform(-delta / 2, delta / 2, len(table)))

    monkeypatch.setattr(invariants, "_fast_cut_table", noisy)
    assert [_cheeger_results(g) for g in graphs] == expected


@pytest.mark.parametrize("seed", [*range(16), *_DISCONNECTED_FIRST])
def test_a_wide_filter_changes_no_bit(monkeypatch, seed):
    """A margin of about 4e-3 keeps many sets that are not minimizers, so
    the exact finish and its tie rule alone choose the value and witness."""
    graphs = [_tie_heavy_graph(seed), sample_graph(RandomGraphSpec(n=4 + seed % 7, seed=seed))]
    expected = [_reference_cheeger(g) for g in graphs]
    monkeypatch.setattr(invariants, "_gamma", lambda k: 1e-3)
    assert [_cheeger_results(g) for g in graphs] == expected


def test_dual_cheeger_near_the_float_maximum_matches_the_scaled_graph():
    """Prefix sums over A's own members overflow here; they are discarded,
    and no RuntimeWarning (an error under this suite's settings) escapes."""
    big = graph_from_json('{"edges": [[0,1,4e307],[1,2,4e307]]}')
    small = WeightedGraph(np.column_stack([big.u, big.v, big.w * 2.0**-1000]))
    got, expected = dual_cheeger_exact(big), dual_cheeger_exact(small)
    assert (got.value, got.witness) == (expected.value, expected.witness)


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


def test_cheeger_tables_beyond_physical_memory_are_too_large():
    """Forty vertices need 2^40 table entries: ``TooLarge`` before any
    table is allocated."""
    g = path(40)
    with pytest.raises(TooLarge, match="physical memory"):
        cheeger_constant_exact(g, max_n=40)
    with pytest.raises(TooLarge, match="physical memory"):
        cheeger_constant_exact(g, max_n=40, connected_only=True)
    with pytest.raises(TooLarge, match="physical memory"):
        h_via_r(g, max_n=40)


def refuse_to_enumerate(monkeypatch):
    """Replace the block walk of the dual and ``kappa`` searches by a stub
    that fails when called, so a search that starts fails at once."""

    def stub(*args, **kwargs):
        raise AssertionError("the search started enumerating")

    monkeypatch.setattr(invariants, "_chunks", stub)


@pytest.mark.parametrize("search", [dual_cheeger_exact, kappa_exact])
def test_streamed_searches_beyond_physical_memory_are_too_large(monkeypatch, search):
    """The dual and ``kappa`` searches share the Cheeger search's size rule,
    so a 40-vertex path under ``max_n=40`` is refused before any block."""
    refuse_to_enumerate(monkeypatch)
    with pytest.raises(TooLarge, match="physical memory"):
        search(path(40), max_n=40)


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


@settings(max_examples=30, deadline=None)
@given(relabelled_graphs(), st.integers(min_value=-60, max_value=60))
def test_power_of_two_scaling_changes_no_bit(case, k):
    """Scaling every weight by ``2^k`` scales every sum exactly, so the
    search must return the same bits."""
    g = WeightedGraph(case[0])
    assert _cheeger_results(_scaled(g, k)) == _cheeger_results(g)
