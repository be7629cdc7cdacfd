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
spaces grow exponentially.  Mask-indexed numpy tables keep the enumerations
fast enough that the default caps complete in well under a second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _measure_table(graph: WeightedGraph) -> np.ndarray:
    """``m(S)`` for every subset mask, by bitwise subset-sum accumulation."""
    table = np.zeros(1 << graph.n)
    for v in range(graph.n):
        table.reshape(-1, 2, 1 << v)[:, 1, :] += graph.vertex_measure[v]
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
    if n < 2:
        raise EmptySet("cheeger constant needs at least two vertices")

    m_table = _measure_table(graph)
    cut = _cut_table(graph)
    total = graph.total_measure
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = cut / m_table
    admissible = m_table <= (total - m_table) + HALF_TIE_RTOL * total
    admissible[0] = False
    ratio = np.where(admissible, ratio, np.inf)

    if connected_only:
        neighbour_masks = [mask_of(w for w, _ in graph.neighbors(v)) for v in range(n)]
        best = math.inf
        witness = 0
        for mask in range(1, 1 << n):
            r = ratio[mask]
            if r < best and _induced_connected(neighbour_masks, mask):
                best = float(r)
                witness = mask
        return InvariantReport("h", best, witness)

    witness = int(np.argmin(ratio))  # first minimum = smallest bitmask
    return InvariantReport("h", float(ratio[witness]), witness)


# -------------------------------------------------------------- dual Cheeger


def _best_partner(
    graph: WeightedGraph, mask_a: int
) -> tuple[float, int]:
    """Best ``B`` for a fixed ``A``: a prefix of complement vertices sorted by
    ``m_A(b)/m(b)`` descending (exchange argument: a vertex improves the ratio
    exactly when its own ratio beats the current value)."""
    m = graph.vertex_measure
    in_a = _indicator(graph.n, mask_a)
    into = _weight_into(graph, in_a)
    cand = np.flatnonzero(~in_a)
    if cand.size == 0:
        return -math.inf, 0
    # Ratio descending, ties to the smaller vertex; prefix values as running sums.
    order = cand[np.argsort(-into[cand] / m[cand], kind="stable")]
    m_pair = _sequential_sum(m[in_a]) + np.cumsum(m[order])
    values = 2.0 * np.cumsum(into[order]) / m_pair
    k = int(np.argmax(values))  # first maximum = shortest prefix
    return float(values[k]), mask_of(order[: k + 1].tolist())


def dual_cheeger_exact(
    graph: WeightedGraph, max_n: int | None = None
) -> InvariantReport:
    """Exact dual Cheeger constant over all disjoint nonempty pairs.

    For each candidate ``A`` the optimal partner is a ratio-sorted prefix of
    the complement (see :func:`_best_partner`), so the sup over all pairs
    reduces to a sweep over the ``2^n`` choices of ``A``.  Equal values go to
    the lexicographically smallest ``(A, B)`` bitmask pair.
    """
    n = graph.n
    _check_cap(n, max_n, DEFAULT_MAX_DUAL, "dual-cheeger")
    if n < 2:
        raise EmptySet("dual Cheeger needs at least two vertices")

    m = graph.vertex_measure
    m_table = _measure_table(graph)
    vertex_ids = np.arange(n)
    best = -math.inf
    best_a = 0

    full = (1 << n) - 1
    step = 1 << _CHUNK_BITS
    for lo in range(0, 1 << n, step):
        masks = np.arange(lo, min(lo + step, 1 << n), dtype=np.int64)
        in_a = ((masks[:, None] >> vertex_ids[None, :]) & 1).astype(bool)
        weight_into = np.zeros((len(masks), n))
        for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()):
            weight_into[:, v] += w * in_a[:, u]
            weight_into[:, u] += w * in_a[:, v]
        ratio = weight_into / m[None, :]
        ratio[in_a] = -1.0  # members of A cannot join B; sorted last
        order = np.argsort(-ratio, axis=1, kind="stable")
        c_sorted = np.take_along_axis(weight_into, order, 1)
        d_sorted = m[order]
        values = (
            2.0 * np.cumsum(c_sorted, axis=1)
            / (m_table[masks][:, None] + np.cumsum(d_sorted, axis=1))
        )
        values[np.take_along_axis(ratio, order, 1) < 0.0] = -math.inf
        if lo == 0:
            values[0, :] = -math.inf  # empty A
        if masks[-1] == full:
            values[-1, :] = -math.inf  # empty complement
        per_a = values.max(axis=1)
        top = int(np.argmax(per_a))  # first = smallest A mask
        if per_a[top] > best:
            best = float(per_a[top])
            best_a = int(masks[top])

    value, mask_b = _best_partner(graph, best_a)
    return InvariantReport("hbar", value, (best_a, mask_b))


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
    best = math.inf
    best_a = 0
    step = 1 << _CHUNK_BITS
    count = 1 << (n - 1)
    for lo in range(0, count, step):
        half = np.arange(lo, min(lo + step, count), dtype=np.int64)
        masks = (half << 1) | 1  # vertex 0 always in A
        in_a = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
        same_side = np.zeros((len(masks), n))
        for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()):
            agree_u = np.where(in_a[:, u] == in_a[:, v], w, 0.0)
            same_side[:, u] += agree_u
            same_side[:, v] += agree_u
        worst = (same_side / m[None, :]).max(axis=1)
        if masks[-1] == (1 << n) - 1:
            worst[-1] = math.inf  # complement empty
        top = int(np.argmin(worst))
        if worst[top] < best:
            best = float(worst[top])
            best_a = int(masks[top])

    full = (1 << n) - 1
    return InvariantReport("kappa", best, (best_a, full ^ best_a))


def is_bipartite(graph: WeightedGraph) -> tuple[bool, tuple[int, int] | None]:
    """Two-colorability plus a bipartition ``(A, B)`` when one exists.

    Components are colored independently by search-tree depth parity, the
    least vertex of each getting color A.  Returns ``(False, None)`` when
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
    if n < 2:
        raise EmptySet("partition route needs at least two vertices")
    m_table = _measure_table(graph)
    cut = _cut_table(graph)
    total = graph.total_measure

    half = np.arange(1 << (n - 1), dtype=np.int64)
    masks = (half << 1) | 1
    masks = masks[masks != (1 << n) - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        r_a = 1.0 - cut[masks] / m_table[masks]
        r_b = 1.0 - cut[masks] / (total - m_table[masks])
    return float(1.0 - np.minimum(r_a, r_b).max())
