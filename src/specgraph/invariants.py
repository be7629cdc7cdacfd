"""Exact enumeration of isoperimetric invariants on small graphs.

Three quantities are computed by exhaustive search with deterministic
witnesses:

* the Cheeger constant ``h`` — infimum of ``m(boundary S)/m(S)`` over
  nonempty sets with at most half the total measure;
* the dual Cheeger constant ``hbar`` — supremum of
  ``2 m(A,B) / (m(A) + m(B))`` over disjoint nonempty pairs;
* the bipartiteness defect ``kappa`` — infimum over partitions ``V = A + B``
  of the worst same-side return probability.

All three respect vertex-count caps because the search spaces grow
exponentially: every search, ``h_via_r`` included, raises ``TooLarge`` beyond
its cap or when 25 bytes per vertex subset would not fit in physical memory.
The enumerations read mask-indexed numpy tables over the graph's one dense
weight matrix: ``m(S)`` and ``m_S(x)`` are subset sums built by doubling,
split into a low table and per-block high rows for the dual and ``kappa``
sweeps.  The Cheeger search (and ``h_via_r``) takes one certified minimum: it
reads a fast cut table ``m(boundary S)`` built by one matrix product over a
low/high split of the vertices, keeps the sets within a rounding margin of
its minimum, and recomputes only those edge by edge, so value and witness are
the ones an edge-by-edge table gives.  ``connected_only`` excludes each
disconnected witness and asks again.
At the default caps one query takes from a few hundredths of a second (the
dual search on 14 vertices) to about half a second (``kappa`` on 20
vertices, the slowest); the Cheeger search on 22 vertices takes about a tenth.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DisconnectedGraph, EmptySet, NotDisjoint, TooLarge
from .graph import (
    WeightedGraph,
    _as_set,
    _indicator,
    _integer,
    _sequential_sum,
    _union_find,
    _weight_into,
    mask_of,
    set_measures,
    vertices_of,
    weight_matrix,
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
# Bytes per mask the Cheeger search holds at its peak: three float64 tables
# (the measure table, the fast table and one temporary) and a boolean one.
_BYTES_PER_MASK = 3 * 8 + 1


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


def _check_pair(
    graph: WeightedGraph, mask_a: int, mask_b: int
) -> tuple[np.ndarray, np.ndarray]:
    """The indicators of a disjoint pair of vertex sets; ``NotDisjoint`` when
    they overlap."""
    in_a, in_b = _as_set(graph, mask_a), _as_set(graph, mask_b)
    if (shared := in_a & in_b).any():
        raise NotDisjoint(f"sets share vertices {np.flatnonzero(shared).tolist()}")
    return in_a, in_b


def dual_cheeger_ratio(graph: WeightedGraph, mask_a: int, mask_b: int) -> float:
    """``2 m(A,B) / (m(A) + m(B))`` for one disjoint nonempty pair."""
    in_a, in_b = _check_pair(graph, mask_a, mask_b)
    u, v = graph.u, graph.v
    cross = _sequential_sum(graph.w[(in_a[u] & in_b[v]) | (in_b[u] & in_a[v])])
    denom = _sequential_sum(graph.vertex_measure[in_a | in_b])
    return float(2.0 * cross / denom)


def kappa_pair(graph: WeightedGraph, mask_a: int, mask_b: int) -> float:
    """Worst same-side return probability of a disjoint pair ``(A, B)``."""
    sides = _check_pair(graph, mask_a, mask_b)
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


def _members(masks: np.ndarray, n: int) -> np.ndarray:
    """Membership matrix, vertex by mask: entry ``[x, i]`` says whether
    vertex ``x < n`` is in ``masks[i]``."""
    return ((masks >> np.arange(n)[:, None]) & 1).astype(bool)


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
    rows = np.column_stack([weight_matrix(graph), graph.vertex_measure])
    k = min(n, _CHUNK_BITS)
    low = _subset_sums(rows, k)
    low_s, low_c = low[pick], low[::-1][pick]  # row i of low[::-1]: complement of i
    offsets = np.arange(1 << k, dtype=np.int64)[pick]
    top = (1 << (n - k)) - 1

    def plus_high(table: np.ndarray, high: int) -> np.ndarray:
        return reduce(np.add, [rows[k + j] for j in range(n - k) if high >> j & 1], table)

    for high in range(top + 1):
        masks = (high << k) | offsets
        in_a = _members(masks, n).T
        yield masks, in_a, plus_high(low_s, high), plus_high(low_c, top ^ high)


def _check_cap(n: int, max_n: int | None, default: int, what: str) -> None:
    """The one size rule of every exact search: ``TooLarge`` beyond the cap,
    or when ``_BYTES_PER_MASK`` bytes for each of the ``2^n`` masks would not
    fit in physical memory (the Cheeger tables need that much, and the
    streamed searches would not finish in any useful time)."""
    cap = default if max_n is None else _integer(max_n, "max_n")
    if n > cap:
        raise TooLarge(f"{what} enumeration capped at {cap} vertices, got {n}")
    need = _BYTES_PER_MASK << n
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise TooLarge(
            f"{what} enumeration over {n} vertices needs {need} bytes of tables,"
            f" more than the {memory} bytes of physical memory"
        )


# ------------------------------------------------------------------- Cheeger

# Unit roundoff of float64, and Higham's gamma_k = k u / (1 - k u): a sum of
# nonnegative terms rounded k times along each path is off by at most gamma_k
# relative (Accuracy and Stability of Numerical Algorithms, 2002, ch. 3-4).
_UNIT_ROUNDOFF = 2.0**-53
# Absolute slack of the candidate filter: it covers the divisions whose
# quotient underflows, the only place the relative bounds fail.
_TINY = 2.0**-1000
# Candidates per block of the exact finish.
_FINISH_CHUNK = 256


def _gamma(k: int) -> float:
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _fast_cut_table(graph: WeightedGraph) -> np.ndarray:
    """``m(boundary S)`` for every mask, in any-order arithmetic.

    With ``S = L + H`` split over the ``k = ceil(n/2)`` low and ``n - k``
    high vertices, ``cut(S) = C_low[L] + C_high[H] + A[L].1_{H^c} +
    A[L^c].1_H`` (a meet-in-the-middle split, Horowitz-Sahni 1974).
    ``A[L]`` holds the weights from ``L`` into each high vertex, and
    ``C_low``, ``C_high`` are the cuts inside the two halves, each the
    weights from the set into the vertices of its half outside it.  All four
    terms come out of one matrix product whose row ``H`` is ``(1_{H^c},
    1_H, 1, C_high[H])`` and column ``L`` is ``(A[L], A[L^c], C_low[L],
    1)``.  Every term is a nonnegative partial sum of the crossing weights
    and each weight enters once.  A path from a weight to the result meets
    at most ``|L| - 1`` additions in ``A`` (or ``k - 2`` in ``C_low``) and
    ``n - k + 1`` in the product, where products with 0 add exact zeros: at
    most ``n`` roundings, whatever order the BLAS adds in.
    """
    n = graph.n
    k = (n + 1) // 2
    weights = weight_matrix(graph)
    low = _subset_sums(weights[:k], k)  # row L: weights from L into each vertex
    high = _subset_sums(weights[k:, k:], n - k)
    in_low = _members(np.arange(1 << k), k).T.astype(float)  # bits of L
    in_high = in_low[: len(high), : n - k]
    c_low = np.einsum("ij,ij->i", low[:, :k], 1.0 - in_low)
    c_high = np.einsum("ij,ij->i", high, 1.0 - in_high)
    cross = low[:, k:]
    rows = np.column_stack([1.0 - in_high, in_high, np.ones(len(high)), c_high])
    columns = np.column_stack([cross, cross[::-1], c_low, np.ones(len(low))])
    return (rows @ columns.T).reshape(-1)  # row H, column L: mask L + (H << k)


def _edge_order_cuts(graph: WeightedGraph, masks: np.ndarray) -> np.ndarray:
    """``m(boundary S)`` of each mask, added edge by edge in edge order as
    ``set_measures`` adds it: a running sum down the edges, with 0.0 in place
    of each weight whose edge does not cross (``x + 0.0 == x``)."""
    cuts = np.empty(len(masks))
    for start in range(0, len(masks), _FINISH_CHUNK):
        block = slice(start, start + _FINISH_CHUNK)
        inside = _members(masks[block], graph.n)
        crosses = inside[graph.u] != inside[graph.v]  # edge x mask
        cuts[block] = np.cumsum(crosses * graph.w[:, None], axis=0)[-1]
    return cuts


def _search_tables(graph: WeightedGraph, max_n: int | None) -> np.ndarray:
    """The checks every Cheeger search makes, then its ``m(S)`` table."""
    _check_cap(graph.n, max_n, DEFAULT_MAX_CHEEGER, "cheeger")
    if not graph.is_connected():
        raise DisconnectedGraph("cheeger constant needs a connected graph")
    return _subset_sums(graph.vertex_measure, graph.n)


def _least(graph: WeightedGraph, fast: np.ndarray, score) -> tuple[float, int]:
    """The least ``(value, mask)`` over the searched masks, the value bit
    for bit the one an edge-order cut table gives.  ``fast`` holds the fast
    value of each searched mask and ``inf`` at the others; ``score(cut,
    masks)`` maps the cuts of the index array ``masks`` to their values, as
    it mapped the fast cuts, and may overwrite ``cut``.  It must divide each
    cut by numbers that do not depend on it.

    Filter.  Let ``c`` be a true cut, ``c~`` the fast one (``n`` roundings,
    see ``_fast_cut_table``) and ``c^`` the edge-order one (fewer than
    ``E`` roundings): ``c~ = c (1 + theta_n)`` and ``c^ = c (1 +
    theta_E)`` with ``|theta_k| <= gamma_k``.  Both are divided by the same
    numbers, so the fast value ``r~`` and the exact one ``r^`` satisfy ``r~
    = r^ (1 + theta)`` and ``r^ = r~ (1 + theta')`` with ``|theta|,
    |theta'| <= gamma_{n+E+3} <= eta = gamma_{n+E+6}`` (one more rounding
    per division; ``1 / (1 - gamma_j) <= 1 + gamma_{j+1}``; Higham's Lemma
    3.3 for the products), up to an absolute ``2^-1074`` per underflowing
    quotient.  Let ``lo`` be the least fast value and ``S*`` an exact
    minimizer: ``r~(S*) <= (1 + eta) r^(S*) <= (1 + eta) r^(argmin r~) <=
    (1 + eta)^2 lo``.  So every mask with ``r~ <= lo (1 + delta) + _TINY``,
    ``delta = 4 eta``, is kept, and the kept set holds every exact minimizer
    whatever the BLAS: the least kept ``(value, mask)`` after the exact
    finish is the least searched one.
    """
    eta = _gamma(graph.n + len(graph.w) + 6)
    keep = np.flatnonzero(fast <= fast.min() * (1.0 + 4.0 * eta) + _TINY)
    exact = score(_edge_order_cuts(graph, keep), keep)
    i = np.lexsort((keep, exact))[0]
    return float(exact[i]), int(keep[i])


def _induced_connected(graph: WeightedGraph, mask: int) -> bool:
    """Whether the nonempty ``mask`` induces a connected subgraph: the graph's
    union-find over the edges with both ends in ``mask``."""
    inside = _indicator(graph.n, mask)
    both = inside[graph.u] & inside[graph.v]
    parent, _ = _union_find(graph.n, graph.u[both].tolist(), graph.v[both].tolist())
    roots = np.array(parent)[inside]
    return bool(np.all(roots == roots[0]))


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
    ``TooLarge`` beyond the cap, or when the tables would not fit in
    physical memory.
    """
    m_table = _search_tables(graph, max_n)
    total = graph.total_measure

    def ratio(cut, masks):
        with np.errstate(invalid="ignore"):  # 0/0 at the empty set
            return np.divide(cut, m_table[masks], out=cut)

    heavy = m_table > (total - m_table) + HALF_TIE_RTOL * total
    fast = ratio(_fast_cut_table(graph), slice(None))
    fast[heavy] = fast[0] = math.inf  # over half the measure, or empty
    value, witness = _least(graph, fast, ratio)
    if connected_only:
        # Call k returns the k-th set in (value, mask) order; a singleton ends it.
        while not _induced_connected(graph, witness):
            fast[witness] = math.inf
            value, witness = _least(graph, fast, ratio)
    return InvariantReport("h", value, witness)


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

    ``R_A = 1 - c/m(A)`` with ``A`` the side holding vertex 0.  ``fl(1 - x)``
    is monotone, so the sup is ``1 - (1 - q)`` with ``q`` the least
    ``max(c/m(A), c/m(B))``, which the shared Cheeger search finds.
    """
    m_table = _search_tables(graph, max_n)
    total = graph.total_measure

    def larger_ratio(cut, masks):
        m_a = m_table[masks]
        with np.errstate(invalid="ignore", divide="ignore"):
            other = np.subtract(total, m_a)
            np.divide(cut, other, out=other)
            np.divide(cut, m_a, out=cut)
        return np.maximum(cut, other, out=cut)

    fast = larger_ratio(_fast_cut_table(graph), slice(None))
    fast[::2] = fast[-1] = math.inf  # vertex 0 in A, B nonempty
    value, _ = _least(graph, fast, larger_ratio)
    return float(1.0 - (1.0 - value))
