"""Exact isoperimetric invariants against hand values and brute enumeration."""

import math
import os
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bridged_cliques,
    brute_cheeger,
    brute_dual,
    brute_kappa,
    complete,
    cycle,
    path,
    pendant,
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
    weight_matrix,
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
    """Each ``m_S(x)`` with ``x`` outside ``S`` and each ``m(S)`` of the
    dual's blocks, and each ``m_S(x)`` and ``m_{S^c}(x)`` as ``kappa`` adds
    them (column ``L`` of the low table, or of ``low[:, ::-1]`` for the
    complement, plus the high rows of that side), equals the per-vertex sum
    in neighbour order bit for bit, across block seams too; the dual's
    blocks hold ``-inf`` at the members of ``S``."""
    monkeypatch.setattr(invariants, "_BLOCK_BITS", 3)
    g = sample_graph(RandomGraphSpec(n=7, seed=3))
    n, k = g.n, 3
    full, top = (1 << n) - 1, (1 << (n - k)) - 1
    weights = weight_matrix(g)
    measures = invariants._subset_sums(g.vertex_measure, n)
    low = invariants._subset_sums(weights, k)

    def plus_high(table, high):
        return invariants._plus_high(weights, table, k, high, np.empty(table.shape))[:, 0]

    for masks, sums in invariants._chunks(g):
        for mask, column in zip(masks.tolist(), sums.T):
            high, part = divmod(mask, 1 << k)
            inside = _indicator(n, mask)
            own = plus_high(low[:, [part]], high)
            other = plus_high(low[:, ::-1][:, [part]], top ^ high)
            into = np.where(inside, -math.inf, _weight_into(g, inside))
            assert column[:n].tolist() == into.tolist()
            for subset, got in ((mask, own), (full ^ mask, other)):
                assert got.tolist() == _weight_into(g, _indicator(n, subset)).tolist()
            m_set = _sequential_sum(g.vertex_measure[inside])
            assert column[n] == measures[mask] == m_set


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_block_size_changes_no_value_or_witness(monkeypatch, bits):
    """The dual and kappa searches read masks in blocks of ``2^_BLOCK_BITS``;
    small blocks put many block seams inside graphs of 2 to 10 vertices, and
    leave most vertices high, where the ``kappa`` bound takes the smaller of
    the two prefixes and each dual block starts from the best value of the
    blocks before it.  Both must match the full enumerations."""
    graphs = [sample_graph(RandomGraphSpec(n=n, seed=n)) for n in range(2, 11)]
    graphs += [cycle(10), complete(8), generate(FamilySpec("ladder_L", 4, r=0.5))]
    graphs += [_tie_heavy_graph(seed) for seed in range(4)] + [_extreme_weights(8, bits)]
    duals, kappas = [_reference_dual(g) for g in graphs], [_reference_kappa(g) for g in graphs]
    monkeypatch.setattr(invariants, "_BLOCK_BITS", bits)
    assert [_dual_result(g) for g in graphs] == duals
    assert [_kappa_result(g) for g in graphs] == kappas


def _exact_query_graph(n: int, density: float, seed: int) -> WeightedGraph:
    """A connected graph on ``n`` vertices with exactly ``round(density n (n -
    1) / 2)`` edges of weights log-uniform in ``[1e-3, 1]``, drawn as the
    exact queries of ``specbench`` draw theirs."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    count = round(density * len(pairs))
    while True:
        chosen = sorted(rng.choice(len(pairs), size=count, replace=False).tolist())
        edges = [(*pairs[i], w) for i, w in zip(chosen, 10.0 ** rng.uniform(-3.0, 0.0, count))]
        if {x for u, v, _ in edges for x in (u, v)} == set(range(n)):
            if (g := WeightedGraph(edges)).is_connected():
                return g


def test_default_block_size_matches_16_bits_at_the_caps(monkeypatch):
    """The default block size leaves more high vertices at the caps than
    blocks of ``2^16`` do; value hex and witness of every search equal those
    at 16 bits on sparse and dense graphs near the caps, as every sum adds
    its rows in ascending vertex order whatever the split.  At seed 1 the
    values of both dense ``kappa`` graphs move in their last bits when the
    high rows are added in descending order."""
    queries = [(n, p, search) for p in (0.25, 0.75) for n, search in (
        (21, cheeger_constant_exact), (22, cheeger_constant_exact), (21, h_via_r), (22, h_via_r),
        (16, dual_cheeger_exact), (17, dual_cheeger_exact), (19, kappa_exact), (20, kappa_exact))]
    graphs = {(n, p): _exact_query_graph(n, p, 1) for n, p, _ in queries}

    def results():
        found = [search(graphs[n, p], max_n=n) for n, p, search in queries]
        return [x.hex() if isinstance(x, float) else (x.value.hex(), x.witness) for x in found]

    got = results()
    monkeypatch.setattr(invariants, "_BLOCK_BITS", 16)
    assert got == results()


# ------------------------------------------- table helpers of the references


def _reference_subset_sums(rows: np.ndarray, k: int, start=0.0) -> np.ndarray:
    """``start`` plus ``sum(rows[v] for v in S)`` for every mask ``S`` of the
    first ``k`` rows, by doubling, mask by vertex: row ``S`` holds the sums
    of ``S``, each adding its rows in ascending vertex order.  The table
    builder the searches used before their tables were laid out vertex by
    mask, kept here so that the references do not change with it."""
    table = np.empty((1 << k, *(np.shape(start) or rows.shape[1:])))
    table[0] = start
    for v in range(k):
        np.add(table[: 1 << v], rows[v], out=table[1 << v : 2 << v])
    return table


def _reference_members(masks: np.ndarray, n: int) -> np.ndarray:
    """Membership matrix, vertex by mask: ``[x, i]`` says whether vertex
    ``x < n`` is in ``masks[i]``."""
    return ((masks >> np.arange(n)[:, None]) & 1).astype(bool)


# ------------------------------------------------- kappa search reference


def _reference_kappa(graph: WeightedGraph) -> tuple[str, tuple[int, int]]:
    """``(kappa hex, witness)`` by the search ``kappa_exact`` ran before its
    prefix bound: every partition with vertex 0 in ``A``, in blocks of
    ``2^16`` masks, each side's sums read from one low table plus the high
    rows of that side, added in ascending order."""
    n = graph.n
    rows = weight_matrix(graph)
    k = min(n, 16)
    low = _reference_subset_sums(rows, k)
    low_s, low_c = low[1::2], low[::-1][1::2]  # row i of low[::-1]: complement of i
    offsets = np.arange(1 << k, dtype=np.int64)[1::2]
    m = graph.vertex_measure
    full, top = (1 << n) - 1, (1 << (n - k)) - 1

    def plus_high(table, high):
        return reduce(np.add, [rows[k + j] for j in range(n - k) if high >> j & 1], table)

    best, best_a = math.inf, 0
    for high in range(top + 1):
        masks = (high << k) | offsets
        in_a = _reference_members(masks, n).T
        worst = (np.where(in_a, plus_high(low_s, high), plus_high(low_c, top ^ high)) / m).max(axis=1)
        worst[masks == full] = math.inf  # complement empty
        i = int(np.argmin(worst))
        if worst[i] < best:
            best, best_a = float(worst[i]), int(masks[i])
    return best.hex(), (best_a, full ^ best_a)


def _kappa_result(graph: WeightedGraph, max_n: int | None = None):
    report = kappa_exact(graph, max_n=max_n)
    return report.value.hex(), report.witness


def _with_weights(graph: WeightedGraph, weights) -> WeightedGraph:
    weights = np.broadcast_to(weights, graph.w.shape)
    return WeightedGraph(np.column_stack([graph.u, graph.v, weights]))


def _extreme_weights(n: int, seed: int) -> WeightedGraph:
    """Weights 1e304 and 5e-324 drawn at random on one graph: a heavy edge
    swallows every light one added after it."""
    g = sample_graph(RandomGraphSpec(n=n, seed=seed))
    return _with_weights(g, np.random.default_rng(seed).choice([1e304, 5e-324], len(g.w)))


_KAPPA_GRAPHS = {
    # log-uniform weights on n = 2..20, across the block seam at 16/17
    **{f"random{n}": (lambda n=n: sample_graph(RandomGraphSpec(n=n, seed=n))) for n in range(2, 21)},
    **{f"complete{n}": (lambda n=n: complete(n)) for n in (16, 17)},
    **{f"cycle{n}": (lambda n=n: cycle(n)) for n in (17, 20)},
    "huge17": lambda: _with_weights(_unit_random(17, 0.4, 17), 1e304),
    "subnormal17": lambda: _with_weights(_unit_random(17, 0.4, 17), 5e-324),
    "extreme9": lambda: _extreme_weights(9, 9),
    **{f"ties{seed}": (lambda seed=seed: _tie_heavy_graph(seed)) for seed in (*range(12), 230, 332)},
}


@pytest.mark.parametrize("name", list(_KAPPA_GRAPHS))
def test_kappa_search_matches_the_full_enumeration(name):
    g = _KAPPA_GRAPHS[name]()
    assert _kappa_result(g) == _reference_kappa(g)


def test_kappa_on_the_acceptance_ladder_matches_the_full_enumeration():
    g = generate(FamilySpec("ladder_L", 10, r=0.5))
    assert g.n == 21
    assert _kappa_result(g, max_n=21) == _reference_kappa(g)


# -------------------------------------------------- dual search reference


def _reference_dual(graph: WeightedGraph) -> tuple[str, tuple[int, int]]:
    """``(hbar hex, witness)`` by the search ``dual_cheeger_exact`` ran before
    its Dinkelbach filter: every row ``A`` in blocks of ``2^16`` masks, read
    from one low table plus the high rows added in ascending order, its
    complement sorted by ``m_A(b)/m(b)`` and every prefix evaluated."""
    n = graph.n
    m = graph.vertex_measure
    rows = np.column_stack([weight_matrix(graph), m])
    k = min(n, 16)
    low = _reference_subset_sums(rows, k)
    offsets = np.arange(1 << k, dtype=np.int64)
    full = (1 << n) - 1
    best, witness = -math.inf, (0, 0)
    for high in range(1 << (n - k)):
        masks = (high << k) | offsets
        sums = reduce(np.add, [rows[k + j] for j in range(n - k) if high >> j & 1], low)
        into = sums[:, :n]
        ratio = into / m
        ratio[_reference_members(masks, n).T] = -1.0  # members of A sort last
        order = np.argsort(-ratio, axis=1, kind="stable")
        with np.errstate(over="ignore", invalid="ignore"):
            values = (
                2.0 * np.cumsum(np.take_along_axis(into, order, 1), axis=1)
                / (sums[:, n:] + np.cumsum(m[order], axis=1))
            )
        values[np.take_along_axis(ratio, order, 1) < 0.0] = -math.inf
        values[(masks == 0) | (masks == full)] = -math.inf  # A or complement empty
        row, j = divmod(int(np.argmax(values)), n)  # smallest A, shortest prefix
        if values[row, j] > best:
            best = float(values[row, j])
            witness = (int(masks[row]), mask_of(order[row, : j + 1].tolist()))
    return best.hex(), witness


def _dual_result(graph: WeightedGraph, max_n: int | None = None):
    report = dual_cheeger_exact(graph, max_n=max_n)
    return report.value.hex(), report.witness


_DUAL_GRAPHS = {
    # log-uniform weights on n = 2..21, across the block seam at 16/17
    **{f"random{n}": (lambda n=n: sample_graph(RandomGraphSpec(n=n, seed=n))) for n in range(2, 22)},
    **{f"complete{n}": (lambda n=n: complete(n)) for n in (16, 17)},
    "cycle17": lambda: cycle(17),
    "huge17": lambda: _with_weights(_unit_random(17, 0.4, 17), 1e304),
    "subnormal17": lambda: _with_weights(_unit_random(17, 0.4, 17), 5e-324),
    "tiny17": lambda: _with_weights(_unit_random(17, 0.4, 17), 1e-310),
    "subnormal12": lambda: _scaled(sample_graph(RandomGraphSpec(n=12, seed=12)), -1060),
    "extreme17": lambda: _extreme_weights(17, 17),
    **{f"ties{seed}": (lambda seed=seed: _tie_heavy_graph(seed)) for seed in (*range(12), 230, 332)},
}


@pytest.mark.parametrize("name", list(_DUAL_GRAPHS))
def test_dual_search_matches_the_full_enumeration(name):
    g = _DUAL_GRAPHS[name]()
    assert _dual_result(g, max_n=g.n) == _reference_dual(g)


def test_dual_on_the_acceptance_ladder_matches_the_full_enumeration():
    g = generate(FamilySpec("ladder_L", 10, r=0.5))
    assert g.n == 21
    assert _dual_result(g, max_n=21) == _reference_dual(g)


@pytest.mark.parametrize(
    "make",
    [lambda: generate(FamilySpec("ladder_L", 10, r=0.5)),
     lambda: sample_graph(RandomGraphSpec(n=17, edge_probability=0.9, seed=17))],
    ids=["ladder21", "dense17"],
)
def test_dual_filter_sends_few_rows_to_the_sort(monkeypatch, make):
    """The Dinkelbach filter leaves under 1% of the ``2^n`` rows to the
    sorting finish (probes included), so a filter that keeps every row fails
    here and not only in the benchmark."""
    g, sorted_rows = make(), []
    finish = invariants._best_prefix

    def counted(masks, sums, m, rows):
        sorted_rows.append(len(rows))
        return finish(masks, sums, m, rows)

    monkeypatch.setattr(invariants, "_best_prefix", counted)
    dual_cheeger_exact(g, max_n=g.n)
    assert 0 < sum(sorted_rows) < 0.01 * 2**g.n


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
# With 341 and 361 above, the seeds below 2,000 whose first three sets in
# (value, mask) order are all disconnected: the finish refuses three least
# sets before a connected one.
_THREE_REFUSED = (592, 661, 760)


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


@pytest.mark.parametrize("seed", [*range(16), *_DISCONNECTED_FIRST, *_THREE_REFUSED])
def test_connected_search_matches_a_plain_loop(seed):
    g = _tie_heavy_graph(seed)
    report = cheeger_constant_exact(g, connected_only=True)
    assert (report.value, report.witness) == _first_connected_minimizer(g)
    if seed in _DISCONNECTED_FIRST + _THREE_REFUSED:
        assert cheeger_constant_exact(g).witness != report.witness


_PARTITION_GRAPHS = {
    **{f"{seed}": (lambda seed=seed: sample_graph(RandomGraphSpec(n=7, seed=seed)))
       for seed in range(6)},
    # the side without vertex 0, or with it, as light as the pendant alone
    **{f"pendant_{'first' if first else 'last'}{n}_{seed}":
       (lambda n=n, seed=seed, first=first: pendant(n, seed, first))
       for n in (6, 8, 10) for first in (True, False) for seed in range(40)},
}


@pytest.mark.parametrize("name", list(_PARTITION_GRAPHS))
def test_partition_route_reproduces_cheeger(name):
    g = _PARTITION_GRAPHS[name]()
    expected = cheeger_constant_exact(g).value
    assert h_via_r(g) == pytest.approx(expected, rel=invariants.HALF_TIE_RTOL, abs=0.0)


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


def _reference_ratios(graph: WeightedGraph):
    """The cut table, the measure table and ``m(boundary S)/m(S)`` for every
    mask, ``inf`` for the empty set and for each set over half the
    measure."""
    m_table = _reference_subset_sums(graph.vertex_measure, graph.n)
    cut = _cut_table(graph)
    total = graph.total_measure
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = cut / m_table
    admissible = m_table <= (total - m_table) + invariants.HALF_TIE_RTOL * total
    admissible[0] = False
    return cut, m_table, np.where(admissible, ratio, np.inf)


def _reference_cheeger(graph: WeightedGraph):
    """``(h hex, witness)`` without and with ``connected_only``, and the hex
    of ``h_via_r``, by ``argmin`` over the full cut table."""
    n = graph.n
    cut, m_table, ratio = _reference_ratios(graph)
    witness = int(np.argmin(ratio))
    free = (float(ratio[witness]).hex(), witness)
    neighbour_masks = _neighbour_masks(graph)
    while not _bitmask_connected(neighbour_masks, witness):
        ratio[witness] = np.inf
        witness = int(np.argmin(ratio))
    connected = (float(ratio[witness]).hex(), witness)

    full = (1 << n) - 1
    masks = (np.arange(1 << (n - 1), dtype=np.int64) << 1) | 1
    masks = masks[masks != full]
    r_a = 1.0 - cut[masks] / m_table[masks]
    r_b = 1.0 - cut[masks] / m_table[full ^ masks]
    return free, connected, float(1.0 - np.minimum(r_a, r_b).max()).hex()


def _cheeger_results(graph: WeightedGraph):
    """``(h hex, witness)`` without and with ``connected_only``, and the hex
    of ``h_via_r``.  Each search must stream the blocks exactly once."""
    blocks = invariants._cut_blocks

    def once(search, **options):
        streams = 0

        def counted(g):
            nonlocal streams
            streams += 1
            return blocks(g)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(invariants, "_cut_blocks", counted)
            result = search(graph, **options)
        assert streams == 1, f"{streams} streams over the blocks of {graph.n} vertices"
        return result

    free = once(cheeger_constant_exact)
    connected = once(cheeger_constant_exact, connected_only=True)
    return (
        (free.value.hex(), free.witness),
        (connected.value.hex(), connected.witness),
        once(h_via_r).hex(),
    )


def _scaled(graph: WeightedGraph, k: int) -> WeightedGraph:
    return WeightedGraph(np.column_stack([graph.u, graph.v, graph.w * 2.0**k]))


def _unit_random(n: int, p: float, seed: int) -> WeightedGraph:
    g = sample_graph(RandomGraphSpec(n=n, edge_probability=p, seed=seed))
    return WeightedGraph(np.column_stack([g.u, g.v, np.ones(len(g.w))]))


def _top_side(seed: int) -> WeightedGraph:
    """Two cliques on vertices 0-5 and 6-9 joined by one light edge: the
    lighter clique, which holds the top vertex 9, is the only minimizer, and
    the Cheeger search names each pair by its member without vertex 9."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for side in (range(6), range(6, 10)) for u in side for v in side if u < v]
    return WeightedGraph([(u, v, rng.uniform(0.5, 1.0)) for u, v in pairs] + [(5, 6, 0.01)])


def _near_half_ties(graph: WeightedGraph, seed: int) -> WeightedGraph:
    """``graph`` with each weight moved by a relative 1e-14 to 1e-12, so
    that complementary halves differ in measure by less than
    ``HALF_TIE_RTOL`` of the total: both members of such a pair are
    searched, and the heavier, of the smaller value, can be the only
    minimizer while its pair scores the value of the lighter."""
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-1.0, 1.0, len(graph.w)) * 10.0 ** rng.uniform(-14, -12)
    return _with_weights(graph, graph.w * (1.0 + noise))


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
    # the pair stream: a minimizer with the top vertex, a tiny pendant first
    # or last, pairs whose members tie in value, near half ties, and (ties332
    # above, and below) connected answers whose complement is the refused
    # disconnected set
    "top10": lambda: _top_side(10),
    "pendant_first10": lambda: pendant(10, 3, first=True),
    "pendant_last10": lambda: pendant(10, 3, first=False),
    "cycle10": lambda: cycle(10),
    "complete10": lambda: complete(10),
    **{f"near_half_{name}": (lambda make=make, seed=seed: _near_half_ties(make(), seed))
       for name, make, seed in (("c4", lambda: cycle(4), 38), ("k4", lambda: complete(4), 4),
                                ("c8", lambda: cycle(8), 0))},
    **{f"ties{seed}": (lambda seed=seed: _tie_heavy_graph(seed)) for seed in (353, 689)},
    # h = 1e-320 / 20 underflows: the filter's slack is absolute there
    "subnormal_bridge10": lambda: bridged_cliques(1e-320),
}


@pytest.mark.parametrize("name", list(_REFERENCE_GRAPHS))
def test_cheeger_search_matches_the_cut_table_reference(name):
    g = _REFERENCE_GRAPHS[name]()
    assert _cheeger_results(g) == _reference_cheeger(g)


@pytest.mark.parametrize("bits", ["1", "2", "k+1"])
def test_block_seams_change_no_bit(monkeypatch, bits):
    """Blocks of one or two rows ``H`` put many block seams inside graphs of
    2 to 14 vertices: the running minimum falls across them, and each block
    is filtered before the final minimum is known.  Each runs with finish
    chunks of one pair, of two and of the default size; the small ones put
    the disconnected least sets that ``connected_only`` refuses in other
    chunks than the connected set that follows them.  Values and witnesses
    must stay the reference's."""
    graphs = [g for g in (make() for make in _REFERENCE_GRAPHS.values()) if g.n <= 14]
    graphs += [_tie_heavy_graph(seed) for seed in
               (*range(12, 16), *_DISCONNECTED_FIRST, *_THREE_REFUSED)]
    expected = [_reference_cheeger(g) for g in graphs]
    for finish in (1, 2, invariants._FINISH_CHUNK):
        monkeypatch.setattr(invariants, "_FINISH_CHUNK", finish)
        got = []
        for g in graphs:
            block_bits = (g.n + 1) // 2 + 1 if bits == "k+1" else int(bits)
            monkeypatch.setattr(invariants, "_BLOCK_BITS", block_bits)
            got.append(_cheeger_results(g))
        assert got == expected, finish


def test_cheeger_searches_hold_no_full_table():
    """Under ``tracemalloc`` each Cheeger search on 22 vertices peaks at
    8 MiB or less, where one float64 table over all ``2^22`` masks takes
    32 MiB: the blocks are filtered and dropped one at a time."""
    g = _REFERENCE_GRAPHS["sparse22"]()
    searches = {
        "h": cheeger_constant_exact,
        "h connected": lambda g: cheeger_constant_exact(g, connected_only=True),
        "h_via_r": h_via_r,
    }
    peaks = {}
    for name, search in searches.items():
        tracemalloc.start()
        try:
            search(g)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert all(peak <= 8 << 20 for peak in peaks.values()), peaks


def test_cheeger_finish_on_ties_holds_no_full_table():
    """On the unit-weight complete graph on 18 vertices every 9-set ties, so
    about a sixth of each block goes to the exact finish; under
    ``tracemalloc`` the search still peaks at 8 MiB or less, as the finish
    runs a bounded number of sets at a time."""
    g = complete(18)
    weight_matrix(g)
    tracemalloc.start()
    try:
        report = cheeger_constant_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.value, report.witness) == (81 / 153, (1 << 9) - 1)
    assert peak <= 8 << 20, peak


def _traced_peak(search, graph: WeightedGraph) -> int:
    """The ``tracemalloc`` peak of one search at its cap, the weight matrix
    built beforehand."""
    weight_matrix(graph)
    tracemalloc.start()
    try:
        search(graph, max_n=graph.n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dual_search_holds_one_block_buffer():
    """Under ``tracemalloc`` the dual search on a dense 17-vertex graph peaks
    at 11 MiB or less: one low table and one buffer that each block adds
    its high rows into, each 4.5 MiB at blocks of ``2^15`` sets.  Blocks of
    ``2^16`` read 21.0 MiB (12.0 MiB when the last block added into the low
    table), and fresh sums per block with a mask-by-vertex maximum over each
    block 29.5 MiB."""
    g = sample_graph(RandomGraphSpec(n=17, edge_probability=0.75, seed=17))
    assert (peak := _traced_peak(dual_cheeger_exact, g)) <= 11 << 20, peak


def test_kappa_search_holds_one_block_buffer():
    """Under ``tracemalloc`` the ``kappa`` search on a dense 20-vertex graph
    peaks at 8 MiB or less: a low table over ``2^15`` masks, 5 MiB, and one
    buffer per side for the kept low parts.  A low table over ``2^16``
    masks read 14.8 MiB."""
    g = sample_graph(RandomGraphSpec(n=20, edge_probability=0.75, seed=20))
    assert (peak := _traced_peak(kappa_exact, g)) <= 8 << 20, peak


@pytest.mark.parametrize("seed", range(6))
def test_fast_table_noise_inside_the_margin_changes_no_bit(monkeypatch, seed):
    """Relative noise of up to half the rounding margin ``delta = 4 eta`` on
    the fast cut and on both fast measures of every pair of every block (far
    above the rounding the margin is derived for) still keeps every
    minimizer, so values and witnesses stay the reference's.  On the
    pendant graphs a side lighter than the rounding of the total measure
    is kept by the relative margin alone."""
    graphs = [_tie_heavy_graph(seed), _tie_heavy_graph(seed + 6),
              sample_graph(RandomGraphSpec(n=8 + seed, seed=seed)), _unit_random(10, 0.5, seed),
              _REFERENCE_GRAPHS["pendant_first10"](), _REFERENCE_GRAPHS["pendant_last10"]()]
    expected = [_reference_cheeger(g) for g in graphs]
    rng = np.random.default_rng(seed)
    blocks = invariants._cut_blocks

    def noisy(graph):
        delta = 4.0 * invariants._gamma(3 * graph.n + len(graph.w) + 6)
        for start, *fast in blocks(graph):
            yield start, *(x * (1.0 + rng.uniform(-delta / 2, delta / 2, len(x))) for x in fast)

    monkeypatch.setattr(invariants, "_cut_blocks", noisy)
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


CEILING = f"beyond the ceiling of {invariants.N_MAX} vertices"


def test_cheeger_beyond_the_ceiling_is_too_large():
    """Forty vertices are past ``N_MAX``: ``TooLarge`` under ``max_n=40``
    before any block is scored."""
    g = path(40)
    with pytest.raises(TooLarge, match=CEILING):
        cheeger_constant_exact(g, max_n=40)
    with pytest.raises(TooLarge, match=CEILING):
        cheeger_constant_exact(g, max_n=40, connected_only=True)
    with pytest.raises(TooLarge, match=CEILING):
        h_via_r(g, max_n=40)


@pytest.mark.parametrize("max_n", [invariants.N_MAX, 10**6])
def test_the_ceiling_holds_whatever_the_cap(max_n):
    """``N_MAX`` vertices pass and one more is refused, whether the cap is
    the ceiling or far above it."""
    ceiling, default = invariants.N_MAX, invariants.DEFAULT_MAX_KAPPA
    invariants._check_cap(ceiling, max_n, default, "kappa")
    with pytest.raises(TooLarge, match=f"{ceiling} vertices, got {ceiling + 1}"):
        invariants._check_cap(ceiling + 1, max_n, default, "kappa")


@pytest.mark.parametrize(
    "default, what",
    [(invariants.DEFAULT_MAX_CHEEGER, "cheeger"), (invariants.DEFAULT_MAX_DUAL, "dual-cheeger"),
     (invariants.DEFAULT_MAX_KAPPA, "kappa")],
)
def test_default_caps_come_before_the_ceiling(default, what):
    for n in (default + 1, invariants.N_MAX + 1):
        with pytest.raises(TooLarge) as raised:
            invariants._check_cap(n, None, default, what)
        assert str(raised.value) == f"{what} enumeration capped at {default} vertices, got {n}"


def test_the_size_rule_reads_nothing_of_the_host(monkeypatch):
    """With the host reporting one page of one byte, every search still
    answers on ``K5`` with the values and witnesses it gives otherwise."""
    g = complete(5)

    def answers():
        reports = [f(g) for f in (cheeger_constant_exact, dual_cheeger_exact, kappa_exact)]
        return [(r.value.hex(), r.witness) for r in reports], h_via_r(g).hex()

    expected = answers()
    monkeypatch.setattr(os, "sysconf", lambda name: 1)
    assert answers() == expected


def refuse_to_enumerate(monkeypatch):
    """Replace the first table build of the dual and ``kappa`` searches (the
    dual's block walk and the low table ``kappa`` bounds from) by a stub that
    fails when called, so a search that starts fails at once."""

    def stub(*args, **kwargs):
        raise AssertionError("the search started enumerating")

    for name in ("_chunks", "_subset_sums"):
        monkeypatch.setattr(invariants, name, stub)


@pytest.mark.parametrize("search", [dual_cheeger_exact, kappa_exact])
def test_streamed_searches_beyond_the_ceiling_are_too_large(monkeypatch, search):
    """The dual and ``kappa`` searches share the Cheeger search's size rule,
    so a 40-vertex path under ``max_n=40`` is refused before any block."""
    refuse_to_enumerate(monkeypatch)
    with pytest.raises(TooLarge, match=CEILING):
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
