"""Exact enumeration of isoperimetric invariants on small graphs.

Three quantities are computed by exhaustive search with deterministic
witnesses:

* the Cheeger constant ``h`` — infimum of ``m(boundary S)/m(S)`` over
  nonempty sets with at most half the total measure;
* the dual Cheeger constant ``hbar`` — supremum of
  ``2 m(A,B) / (m(A) + m(B))`` over disjoint nonempty pairs;
* the bipartiteness defect ``kappa`` — infimum over partitions ``V = A + B``
  of the worst same-side return probability.

All three respect vertex-count caps (``TooLarge`` beyond) because the search
spaces grow exponentially.  The enumerations read mask-indexed numpy tables:
``m(S)`` and ``m_S(x)`` are subset sums built by doubling, split into a low
table and per-block high rows for the dual and ``kappa`` sweeps, and the cut
``m(boundary S)`` is accumulated edge by edge.  At the default caps one query
takes from a fraction of a second to about two seconds (the Cheeger search
on a dense 22-vertex graph is the slowest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DisconnectedGraph, EmptySet, NotDisjoint, TooLarge
from .graph import (
    WeightedGraph,
    _indicator,
    _sequential_sum,
    _weight_into,
    mask_of,
    set_measures,
    vertices_of,
)

__all__ = [
    "DEFAULT_MAX_CHEEGER",
    "DEFAULT_MAX_DUAL",
    "DEFAULT_MAX_KAPPA",
    "HALF_TIE_RTOL",
    "InvariantReport",
    "cheeger_ratio",
    "cheeger_constant_exact",
    "dual_cheeger_ratio",
    "dual_cheeger_exact",
    "kappa_pair",
    "kappa_exact",
    "is_bipartite",
    "r_quantity",
    "h_via_r",
]

DEFAULT_MAX_CHEEGER = 22
DEFAULT_MAX_DUAL = 14
DEFAULT_MAX_KAPPA = 20

# Sets with m(S) <= m(complement) + HALF_TIE_RTOL * M are admitted, so exact
# half-half splits survive rounding of the two measure sums.
HALF_TIE_RTOL = 1e-12

_CHUNK_BITS = 16


@dataclass(frozen=True)
class InvariantReport:
    """Value plus minimizing/maximizing witness of one invariant.

    ``witness`` is a vertex bitmask for ``h`` and a pair of bitmasks for
    ``hbar`` and ``kappa``.
    """

    invariant: str
    value: float
    witness: int | tuple[int, int]

    def witness_vertices(self) -> list[int] | list[list[int]]:
        if isinstance(self.witness, tuple):
            return [vertices_of(self.witness[0]), vertices_of(self.witness[1])]
        return vertices_of(self.witness)

    def to_payload(self) -> dict:
        return {
            "invariant": self.invariant,
            "value": self.value,
            "witness": self.witness_vertices(),
        }


# ------------------------------------------------------------- ratio queries


def cheeger_ratio(graph: WeightedGraph, mask: int) -> float:
    """``m(boundary S) / m(S)`` for one nonempty vertex set."""
    m_set, boundary, _ = set_measures(graph, mask)
    return boundary / m_set


def dual_cheeger_ratio(graph: WeightedGraph, mask_a: int, mask_b: int) -> float:
    """``2 m(A,B) / (m(A) + m(B))`` for one disjoint nonempty pair."""
    if mask_a == 0 or mask_b == 0:
        raise EmptySet("dual_cheeger_ratio needs two nonempty sets")
    if mask_a & mask_b:
        raise NotDisjoint(f"sets share vertices {vertices_of(mask_a & mask_b)}")
    in_a = _indicator(graph.n, mask_a)
    in_b = _indicator(graph.n, mask_b)
    u, v = graph.u, graph.v
    cross = _sequential_sum(graph.w[(in_a[u] & in_b[v]) | (in_b[u] & in_a[v])])
    denom = _sequential_sum(graph.vertex_measure[in_a | in_b])
    return float(2.0 * cross / denom)


def kappa_pair(graph: WeightedGraph, mask_a: int, mask_b: int) -> float:
    """Worst same-side return probability of a disjoint pair ``(A, B)``."""
    if mask_a == 0 or mask_b == 0:
        raise EmptySet("kappa_pair needs two nonempty sets")
    if mask_a & mask_b:
        raise NotDisjoint(f"sets share vertices {vertices_of(mask_a & mask_b)}")
    sides = [_indicator(graph.n, mask) for mask in (mask_a, mask_b)]
    ratios = [(_weight_into(graph, s) / graph.vertex_measure)[s].max() for s in sides]
    return float(max(0.0, *ratios))


def r_quantity(graph: WeightedGraph, mask: int) -> float:
    """Internal-weight fraction ``2 m(A,A) / m(A)``; equals ``1 - h(A)``."""
    m_set, _, interior = set_measures(graph, mask)
    return 2.0 * interior / m_set


# ------------------------------------------------------- mask-indexed tables


def _subset_sums(rows: np.ndarray, k: int) -> np.ndarray:
    """``sum(rows[v] for v in S)`` for every mask ``S`` of the first ``k``
    rows, built by doubling.  Each sum adds its rows in ascending vertex
    order, the order a loop over sorted edges adds in."""
    table = np.zeros((1 << k, *rows.shape[1:]))
    for v in range(k):
        np.add(table[: 1 << v], rows[v], out=table[1 << v : 2 << v])
    return table


def _cut_table(graph: WeightedGraph) -> np.ndarray:
    """``m(boundary S)`` for every subset mask."""
    n = graph.n
    table = np.zeros(1 << n)
    for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()):
        view = table.reshape(-1, 2, 1 << (v - u - 1), 2, 1 << u)
        view[:, 1, :, 0, :] += w
        view[:, 0, :, 1, :] += w
    return table


def _chunks(graph: WeightedGraph, pick: slice = slice(None)):
    """Every mask ``S`` in ascending blocks of ``2^_CHUNK_BITS``, thinned by
    ``pick`` inside each block, as ``(masks, in_a, sums, sums_c)``: ``in_a``
    marks the members, row ``i`` of ``sums`` is ``m_S(x)`` for each vertex
    ``x`` followed by ``m(S)`` for ``S = masks[i]``, and ``sums_c`` is the
    same for the complement.  One table covers the low vertices (a
    meet-in-the-middle split, Horowitz-Sahni 1974) and each block adds its
    high rows in ascending order, so every sum is the one ``_subset_sums``
    gives."""
    n = graph.n
    rows = np.zeros((n, n + 1))
    rows[graph.u, graph.v] = graph.w
    rows[graph.v, graph.u] = graph.w
    rows[:, n] = graph.vertex_measure
    k = min(n, _CHUNK_BITS)
    low = _subset_sums(rows, k)
    low_s, low_c = low[pick], low[::-1][pick]  # row i of low[::-1]: complement of i
    offsets = np.arange(1 << k, dtype=np.int64)[pick]
    top = (1 << (n - k)) - 1

    def plus_high(table: np.ndarray, high: int) -> np.ndarray:
        return reduce(np.add, [rows[k + j] for j in range(n - k) if high >> j & 1], table)

    for high in range(top + 1):
        masks = (high << k) | offsets
        in_a = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        yield masks, in_a, plus_high(low_s, high), plus_high(low_c, top ^ high)


def _check_cap(n: int, max_n: int | None, default: int, what: str) -> None:
    cap = default if max_n is None else max_n
    if n > cap:
        raise TooLarge(f"{what} enumeration capped at {cap} vertices, got {n}")


# ------------------------------------------------------------------- Cheeger


def _induced_connected(neighbour_masks: list[int], mask: int) -> bool:
    """Whether ``mask`` induces a connected subgraph, by a search over bits."""
    seen = frontier = mask & -mask
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        new = neighbour_masks[bit.bit_length() - 1] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def cheeger_constant_exact(
    graph: WeightedGraph,
    max_n: int | None = None,
    connected_only: bool = False,
) -> InvariantReport:
    """Exact Cheeger constant by full subset enumeration.

    Minimizes ``m(boundary S)/m(S)`` over nonempty ``S`` with
    ``m(S) <= m(complement)`` (ties admitted within ``HALF_TIE_RTOL`` of the
    total measure).  Ties on the value go to the smallest witness bitmask.
    With ``connected_only`` the search is restricted to sets inducing a
    connected subgraph; the minimum value is unchanged by that restriction.
    """
    n = graph.n
    _check_cap(n, max_n, DEFAULT_MAX_CHEEGER, "cheeger")
    if not graph.is_connected():
        raise DisconnectedGraph("cheeger constant needs a connected graph")

    m_table = _subset_sums(graph.vertex_measure, graph.n)
    cut = _cut_table(graph)
    total = graph.total_measure
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = cut / m_table
    admissible = m_table <= (total - m_table) + HALF_TIE_RTOL * total
    admissible[0] = False
    ratio = np.where(admissible, ratio, np.inf)

    witness = int(np.argmin(ratio))  # first minimum = smallest bitmask
    if connected_only:
        neighbour_masks = [0] * n
        for a, b in zip(graph.u.tolist(), graph.v.tolist()):
            neighbour_masks[a] |= 1 << b
            neighbour_masks[b] |= 1 << a
        while not _induced_connected(neighbour_masks, witness):
            ratio[witness] = np.inf
            witness = int(np.argmin(ratio))
    return InvariantReport("h", float(ratio[witness]), witness)


# -------------------------------------------------------------- dual Cheeger


def dual_cheeger_exact(
    graph: WeightedGraph, max_n: int | None = None
) -> InvariantReport:
    """Exact dual Cheeger constant over all disjoint nonempty pairs.

    For a fixed ``A`` the best ``B`` is a prefix of the complement vertices
    sorted by ``m_A(b)/m(b)`` descending (exchange argument: a vertex improves
    the ratio exactly when its own ratio beats the current value), so the sup
    over all pairs reduces to a sweep over the ``2^n`` choices of ``A``.
    Equal values go to the smallest ``A`` mask, then the shortest prefix
    (ratio ties to the smaller vertex).
    """
    n = graph.n
    _check_cap(n, max_n, DEFAULT_MAX_DUAL, "dual-cheeger")
    if n < 2:
        raise EmptySet("dual Cheeger needs at least two vertices")

    m = graph.vertex_measure
    full = (1 << n) - 1
    best, witness = -math.inf, (0, 0)
    for masks, in_a, sums, _ in _chunks(graph):
        into = sums[:, :n]
        ratio = into / m
        ratio[in_a] = -1.0  # members of A cannot join B; sorted last
        order = np.argsort(-ratio, axis=1, kind="stable")
        # Only the columns of A's own members can overflow (weights near the
        # float64 maximum), and those are set to -inf just below.
        with np.errstate(over="ignore", invalid="ignore"):
            values = (
                2.0 * np.cumsum(np.take_along_axis(into, order, 1), axis=1)
                / (sums[:, n:] + np.cumsum(m[order], axis=1))
            )
        values[np.take_along_axis(ratio, order, 1) < 0.0] = -math.inf
        values[(masks == 0) | (masks == full)] = -math.inf  # A or complement empty
        row, k = divmod(int(np.argmax(values)), n)  # smallest A, shortest prefix
        if values[row, k] > best:
            best = float(values[row, k])
            witness = (int(masks[row]), mask_of(order[row, : k + 1].tolist()))
    return InvariantReport("hbar", best, witness)


# --------------------------------------------------------------------- kappa


def kappa_exact(graph: WeightedGraph, max_n: int | None = None) -> InvariantReport:
    """Exact bipartiteness defect over all two-part partitions.

    Enumerates the ``2^(n-1) - 1`` partitions with vertex 0 in ``A``; the
    value is 0 exactly when the graph is bipartite (a bipartition has no
    same-side edge, so every return probability is an empty sum).
    """
    n = graph.n
    _check_cap(n, max_n, DEFAULT_MAX_KAPPA, "kappa")
    if n < 2:
        raise EmptySet("kappa needs at least two vertices")

    m = graph.vertex_measure
    full = (1 << n) - 1
    best, best_a = math.inf, 0
    for masks, in_a, sums, sums_c in _chunks(graph, pick=slice(1, None, 2)):  # 0 in A
        same_side = np.where(in_a, sums[:, :n], sums_c[:, :n])
        worst = (same_side / m).max(axis=1)
        worst[masks == full] = math.inf  # complement empty
        top = int(np.argmin(worst))
        if worst[top] < best:
            best, best_a = float(worst[top]), int(masks[top])
    return InvariantReport("kappa", best, (best_a, full ^ best_a))


def is_bipartite(graph: WeightedGraph) -> tuple[bool, tuple[int, int] | None]:
    """Two-colorability plus a bipartition ``(A, B)`` when one exists.

    Components are colored independently by their union-find parity relative
    to their least vertex, which gets color A.  Returns ``(False, None)`` when
    some edge joins two vertices of one color (an odd cycle obstructs).
    """
    side = np.array(graph._search()[1], dtype=bool)
    if np.any(side[graph.u] == side[graph.v]):
        return False, None
    mask_b = mask_of(np.flatnonzero(side).tolist())
    return True, (((1 << graph.n) - 1) ^ mask_b, mask_b)


# ----------------------------------------------- partition route to h


def h_via_r(graph: WeightedGraph, max_n: int | None = None) -> float:
    """Cheeger constant recomputed as ``1 - sup over partitions of
    min(R_A, R_B)`` — the smaller-measure side of any partition always has the
    larger boundary ratio, so this sup reproduces the half-condition infimum.
    """
    n = graph.n
    _check_cap(n, max_n, DEFAULT_MAX_CHEEGER, "cheeger")
    if not graph.is_connected():
        raise DisconnectedGraph("cheeger constant needs a connected graph")
    m_table = _subset_sums(graph.vertex_measure, graph.n)
    cut = _cut_table(graph)
    total = graph.total_measure

    half = np.arange(1 << (n - 1), dtype=np.int64)
    masks = (half << 1) | 1
    masks = masks[masks != (1 << n) - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        r_a = 1.0 - cut[masks] / m_table[masks]
        r_b = 1.0 - cut[masks] / (total - m_table[masks])
    return float(1.0 - np.minimum(r_a, r_b).max())
