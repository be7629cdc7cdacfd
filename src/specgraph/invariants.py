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
its cap, and beyond ``N_MAX`` vertices whatever the cap, before it enumerates.
The enumerations read mask-indexed numpy tables over the graph's one dense
weight matrix: ``m(S)`` and ``m_S(x)`` are subset sums built by doubling,
split into a low table and per-block high rows for the dual and ``kappa``
sweeps.  Every table is laid out vertex by mask, one contiguous row of masks
per vertex, so each pass over a vertex's sums has unit stride, and each
search adds its blocks' high rows in place into one buffer.  The ``kappa``
search first bounds every partition from the low table alone (each sum is
at least its low prefix, bit for bit) and finishes only the partitions
whose bound does not exceed a value already reached.
The dual search drops each set ``A`` whose Dinkelbach function, less a
derived rounding margin, shows that no pair ``(A, B)`` reaches a value
already reached, and sorts only the sets left.
The Cheeger search (and ``h_via_r``) takes one certified minimum over
complementary pairs: ``boundary S = boundary (V - S)``, so each pair
``{S, V - S}`` shares one cut.  It streams the pairs of a low/high split of
the vertices one block of about ``2^15`` at a time (``_BLOCK_BITS``, see
``_chunks``), each block one matrix product for the fast cuts and one for
the fast measures of both members, scores each pair by its cut over the
smaller measure, keeps the pairs within a derived margin of the running
least score, finishes both members of those edge by edge and drops the
block, so value and witness are the
ones an edge-by-edge table gives and no table over all ``2^n`` masks is
held.  With ``connected_only`` the finish refuses each chunk's least set
while it is disconnected, in the same one pass: the ratio of a disconnected
set is a mediant of the ratios of its components.
At the default caps one query on a random graph takes a few hundredths of
a second at most (seed 2, edge probability 0.5: ``kappa`` on 20 vertices
3.5-6 ms, the dual search on 17 7-8.5 ms; edge probability 0.25 and 0.75,
the Cheeger search 3.3-5 ms on 20 vertices and 12-16 ms on 22).  The
unit-weight complete graph, whose ties leave the bound and the filters few
sets to rule out, is the worst case: ``kappa`` takes 0.11-0.16 s on 20
vertices, the dual search 44-46 ms on 17 and the Cheeger search 0.66-0.83 s
on 22 (``h_via_r`` the same).  One vertex above the caps they took 0.36 s,
77 ms and 3.3 s.  At ``N_MAX``, measured with blocks of ``2^16``, they took
115 s, 160 s and 116 s (the Cheeger search before it searched pairs).
(Three fresh processes per size at the caps, each the best of 3 calls, and
one call above them; 2 cores, numpy 2.4.6, OpenBLAS 0.3.31 with 2 threads;
peak RSS 56 MB.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "N_MAX",
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
DEFAULT_MAX_DUAL = 17
DEFAULT_MAX_KAPPA = 20
# The ceiling no cap override passes: each search's tie-heavy worst case
# (the unit-weight complete graph) on this many vertices takes minutes.
N_MAX = 28

# Sets with m(S) <= m(complement) + HALF_TIE_RTOL * M are admitted, so exact
# half-half splits survive rounding of the two measure sums.
HALF_TIE_RTOL = 1e-12

# Every exact search reads about 2^_BLOCK_BITS masks or pairs at a time; the
# size was chosen by measurement (see _chunks).
_BLOCK_BITS = 15


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


def _subset_sums(rows: np.ndarray, k: int, start=0.0, out=None) -> np.ndarray:
    """``start`` plus ``sum(rows[v] for v in S)`` for every mask ``S`` of the
    first ``k`` rows, built by doubling and laid out vertex by mask:
    ``table[..., S]`` holds the sums of ``S``, so the sums of each entry of a
    row (of each vertex ``x``, for rows of weights into ``x``) over the masks
    are one contiguous row.  Each sum adds its rows in ascending vertex
    order, the order a loop over sorted edges adds in.  An array ``start``
    has the shape of one row; ``out``, if given, is the table to fill."""
    table = np.empty((*rows.shape[1:], 1 << k)) if out is None else out
    table[..., 0] = start
    columns = rows[..., None] if rows.ndim > 1 else rows  # rows[v] against every mask
    for v in range(k):
        c = 1 << v
        np.add(table[..., :c], columns[v], out=table[..., c : 2 * c])
    return table


def _members(masks: np.ndarray, n: int) -> np.ndarray:
    """Membership matrix, vertex by mask: entry ``[x, i]`` says whether
    vertex ``x < n`` is in ``masks[i]``."""
    return ((masks >> np.arange(n)[:, None]) & 1).astype(bool)


def _plus_high(
    rows: np.ndarray, table: np.ndarray, k: int, high: int, out: np.ndarray
) -> np.ndarray:
    """``table`` plus ``rows[k + j]`` for each bit ``j`` of ``high``, added in
    ascending ``j`` into ``out``: with ``table`` the columns ``L`` of
    ``_subset_sums(rows, k)``, the sums ``_subset_sums`` gives for the masks
    ``(high << k) | L``.  The first addition reads ``table`` and the others
    add in place, so ``out`` is the one buffer a search needs; with ``high
    = 0`` the result is ``table`` itself."""
    for j in range(len(rows) - k):
        if high >> j & 1:
            table = np.add(table, rows[k + j][..., None], out=out)
    return table


def _chunks(graph: WeightedGraph):
    """Every mask ``S`` in ascending blocks of ``2^_BLOCK_BITS``, as ``(masks,
    sums)``: column ``i`` of ``sums`` holds ``m_S(x)`` for each vertex ``x``
    outside ``S`` and ``-inf`` for each member, followed by ``m(S)``, for
    ``S = masks[i]``.  Each vertex's own weight row holds ``-inf`` at that
    vertex, so a member's entry is ``-inf`` and every other sum is the one
    ``_subset_sums`` gives over the weight matrix.  One table covers the low
    vertices (a meet-in-the-middle split, Horowitz-Sahni 1974) and each block
    adds its high rows in ascending order into one buffer, which the next
    block overwrites.  The low table and the buffer are one allocation:
    freed as two, at blocks of ``2^15`` they made glibc's heap trim return
    their pages to the system after every dual search on 17 vertices, which
    then took about 1,400 minor page faults and 11-14 ms a call, against
    none and 6-8 ms from one allocation.

    Blocks of ``2^15`` masks were chosen by measurement over 13 to 16 bits,
    on random graphs near the caps: a block's table, ``(n + 1) 2^15`` float64
    values (4.7 MB at 17 vertices), is half the one at 16 bits, and the dual
    and ``kappa`` searches took 11-17% and about 40% less time.  Smaller
    blocks come nearer one core's 2 MiB L2 on the measuring host, but leave
    ``kappa`` more high vertices, whose bound then keeps so many low parts
    that its dense queries on 18-20 vertices took 2.8 times as long at 14
    bits.  The Cheeger search, whose blocks of pairs read the same constant,
    took 3-7% more time than at 16 bits.  (Best of 5 interleaved runs over
    12 graphs per search; 2 cores, numpy 2.4.6, OpenBLAS 0.3.31.)"""
    n = graph.n
    rows = np.column_stack([weight_matrix(graph), graph.vertex_measure])
    np.fill_diagonal(rows, -math.inf)
    k = min(n, _BLOCK_BITS)
    low, sums = np.empty((2, n + 1, 1 << k))
    _subset_sums(rows, k, out=low)
    offsets = np.arange(1 << k, dtype=np.int64)
    for high in range(1 << (n - k)):
        yield (high << k) | offsets, _plus_high(rows, low, k, high, sums)


def _check_cap(n: int, max_n: int | None, default: int, what: str) -> None:
    """The one size rule of every exact search: ``TooLarge`` beyond the cap,
    then beyond the ceiling ``N_MAX`` whatever the cap.  The searches stream
    their blocks, so time, not memory, sets the ceiling."""
    cap = default if max_n is None else _integer(max_n, "max_n")
    if n > cap:
        raise TooLarge(f"{what} enumeration capped at {cap} vertices, got {n}")
    if n > N_MAX:
        raise TooLarge(f"{what} enumeration beyond the ceiling of {N_MAX} vertices, got {n}")


# ------------------------------------------------------------------- Cheeger

# Unit roundoff of float64, and Higham's gamma_k = k u / (1 - k u): a sum of
# nonnegative terms rounded k times along each path is off by at most gamma_k
# relative (Accuracy and Stability of Numerical Algorithms, 2002, ch. 3-4).
_UNIT_ROUNDOFF = 2.0**-53
# The least positive float64: a result in the subnormal range is off by at
# most half of it, whatever its size.
_MIN_SUBNORMAL = 2.0**-1074
# Pairs per block of the exact finish.
_FINISH_CHUNK = 256


def _gamma(k: int) -> float:
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _cut_blocks(graph: WeightedGraph):
    """Every complementary pair ``{S, V - S}``, named by its member ``S <
    2^(n-1)`` without the top vertex ``n - 1``, in ascending blocks of about
    ``2^_BLOCK_BITS`` pairs, as ``(start, cut, m_s, m_c)``: for ``S = start +
    i``, ``cut[i]`` holds ``m(boundary S)``, the cut both members share, and
    ``m_s[i]``, ``m_c[i]`` hold ``m(S)`` and ``m(V - S)``, all in any-order
    arithmetic.

    With ``S = L + H`` split over the ``k = ceil(n/2)`` low and ``n - k``
    high vertices, ``cut(S) = C_low[L] + C_high[H] + A[L].1_{H^c} +
    A[L^c].1_H`` (a meet-in-the-middle split, Horowitz-Sahni 1974).
    ``A[L]`` holds the weights from ``L`` into each high vertex, and
    ``C_low``, ``C_high`` are the cuts inside the two halves, each the
    weights from the set into the vertices of its half outside it.  All four
    terms come out of a matrix product whose row ``H`` is ``(1_{H^c}, 1_H,
    1, C_high[H])`` and column ``L`` is ``(A[L], A[L^c], C_low[L], 1)``; a
    block is the product of ``2^b`` consecutive rows ``H < 2^(n-k-1)`` with
    every column.  The measures are ``m(S) = m_high[H] + m_low[L]`` and
    ``m(V - S) = m_high[H^c] + m_low[L^c]``, one more product per block, of
    the rows ``(1, m_high[H])`` and ``(1, m_high[H^c])`` with the columns
    ``(m_low[L], 1)`` and ``(m_low[L^c], 1)``.  One doubling over the low
    vertices, started from 1 in the rows that need it, builds, vertex by
    mask, the weights from ``L`` into every vertex, the bits of ``L`` and 1
    minus them, ``m_low``, a row of ones and, in the first ``2^(n-k)``
    columns of its rows for the high vertices, the weights from ``H`` into
    them and ``m_high``; the factors stack slices of that table.

    Every term is a nonnegative partial sum and each weight or measure
    enters once.  A path from a weight to the cut meets at most ``|L| - 1``
    additions in ``A`` (or ``k - 2`` in ``C_low``) and ``n - k + 1`` in the
    product, and a path from a measure at most ``k - 1`` in a doubling and
    one in the product, where products with 0 and 1 are exact and add exact
    zeros: at most ``n`` roundings, whatever order the BLAS adds in.  The
    three arrays are buffers that the next block overwrites.
    """
    n, m, weights = graph.n, graph.vertex_measure, weight_matrix(graph)
    k, j = (n + 1) // 2, n // 2  # the low and the high vertices, n - 1 the last
    b = min(j - 1, max(0, _BLOCK_BITS - k))
    # Columns: weights into every vertex, bits, 1 - bits, high weights, m_low, 1, m_high.
    per_bit, ones = np.zeros((k, n + 2 * k + j + 3)), np.zeros(n + 2 * k + j + 3)
    per_bit[:, :n], per_bit[:, -3], ones[n + k : n + 2 * k], ones[-2] = weights[:k], m[:k], 1, 1
    per_bit[:j, n + 2 * k : -3], per_bit[:j, -1] = weights[k:, k:], m[k:]
    flat, step = per_bit.reshape(-1), per_bit.shape[1] + 1
    flat[n::step], flat[n + k :: step] = 1.0, -1.0  # the entries (v, n + v), (v, n + k + v)
    table = _subset_sums(per_bit, k, ones)
    low, in_high, out_low = table[:n], table[n : n + j, : 1 << j], table[n + k : n + 2 * k]
    c_low = np.einsum("ij,ij->j", low[:k], out_low)
    c_high = np.einsum("ij,ij->j", table[n + 2 * k : -3, : 1 << j], out_low[:j, : 1 << j])
    rows = np.concatenate([out_low[:j, : 1 << j], in_high, table[-2:-1, : 1 << j], c_high[None]])
    columns = np.concatenate([low[k:], low[k:, ::-1], c_low[None], table[-2:-1]])
    m_rows, m_columns = table[-2:, : 1 << j].T, table[-3:-1]  # (1, m_high[H]), (m_low[L], 1)
    cut, measures = np.empty((1 << b, 1 << k)), np.empty((2, 1 << b, 1 << k))
    for block in range(1 << (j - 1 - b)):  # row H, column L: pair L + (H << k)
        h = slice(block << b, (block + 1) << b)
        np.matmul(rows[:, h].T, columns, out=cut)
        np.matmul(m_rows[h], m_columns, out=measures[0])
        np.matmul(m_rows[::-1][h], m_columns[:, ::-1], out=measures[1])  # of H^c and L^c
        yield block << (k + b), cut.reshape(-1), *measures.reshape(2, -1)


def _finish(graph: WeightedGraph, pairs: np.ndarray, value) -> tuple[float, int]:
    """The least ``(value, mask)`` over both members of the pairs ``pairs``,
    as ``_least`` finishes them, ``_FINISH_CHUNK`` pairs at a time through
    one buffer of edge-by-pair terms and one of vertex-by-member terms.  The
    cut is added edge by edge in edge order as ``set_measures`` adds it: a
    running sum down the edges, with 0.0 in place of each weight whose edge
    does not cross (``x + 0.0 == x``).  Each measure is the running sum of
    its members' measures in ascending vertex order, with 0.0 in place of the
    others: the additions ``_subset_sums`` makes.  The members of a chunk
    are laid out in ascending mask order, the pairs' ``S`` and then the
    complements reversed, so the first least value has the least mask and
    the measures reversed are those of the complements.  ``value`` reads
    each chunk's cuts, measures and masks."""
    n, full, width = graph.n, (1 << graph.n) - 1, min(len(pairs), _FINISH_CHUNK)
    terms, sums, best = np.empty((len(graph.w), width)), np.empty((n, 2 * width)), (math.inf, 0)
    for start in range(0, len(pairs), _FINISH_CHUNK):
        chunk = pairs[start : start + _FINISH_CHUNK]
        size, masks = len(chunk), np.concatenate([chunk, full ^ chunk[::-1]])
        inside, out = _members(masks, n), terms[:, : len(chunk)]
        np.multiply(inside[graph.u, :size] != inside[graph.v, :size], graph.w[:, None], out=out)
        cut = np.add.accumulate(out, out=out)[-1]
        measure = np.multiply(inside, graph.vertex_measure[:, None], out=sums[:, : 2 * size])
        measure = np.add.accumulate(measure, out=measure)[-1]
        values = value(np.concatenate([cut, cut[::-1]]), measure, masks)
        best = min(best, (float(values.min()), int(masks[values.argmin()])))
    return best


def _least(graph: WeightedGraph, max_n, value):
    """The least ``(value, mask)`` over the searched sets, the value bit for
    bit the one an edge-order cut table gives, after the checks every
    Cheeger search makes, in one pass over the blocks.  ``value(cut, m_set,
    masks)`` maps the exact cuts and measures of the sets ``masks`` that
    ``_finish`` lays out to their values, ``inf`` for a set not searched.
    Each pair of ``_cut_blocks`` is scored ``r~ = c~ / min(m~(S), m~(V -
    S))`` from its fast cut and measures, the pairs with ``r~ <= lo (1 + 4
    eta + 8 HALF_TIE_RTOL) + 3 t`` are kept, ``lo`` the least score so far
    and ``t = _MIN_SUBNORMAL``, and ``_finish`` gives both members of each
    kept pair their exact values.  The empty set and ``V`` are not
    searched: their pair scores ``inf``.

    Fast against exact.  The fast cut, the fast measures, the edge-order
    cut and the exact measures are sums of nonnegative terms with at most
    ``n``, ``n``, ``E`` and ``n`` roundings along each path (``_cut_blocks``;
    an addition rounds relatively even in the subnormal range), so each is
    the true sum times ``1 + theta_j``, ``|theta_j| <= gamma_j``.  With one
    rounding per division, the fast quotient ``c~/m~(X)`` and the exact one
    ``c^/m^(X)`` of a set ``X`` are the true ratio, and each other, times
    ``1 + theta``, ``|theta| <= eta = gamma_{3n+E+6}`` (``1 / (1 - gamma_j)
    <= 1 + gamma_{j+1}``; Higham's Lemma 3.3 for the products), up to an
    absolute ``t/2`` per quotient that is subnormal.  Below, ``X'`` is the
    member with the smaller fast measure and ``X`` the other, ``M`` the
    true total and ``T`` the graph's ``total_measure``, ``M (1 + theta_n)``.

    Filter.  It needs two facts: (i) a searched set, a member of the pair
    scoring ``lo``, has an exact value of at most ``(1 + eta) lo + t``, and
    (ii) every searched member of a pair scoring ``r~`` has an exact value
    of at least ``r~ / ((1 + eta)(1 + s)) - t``.  Then an exact minimizer's
    pair scores at most ``(1 + eta)(1 + s)((1 + eta) lo + 2 t)``, below the
    bound when ``s <= 5 HALF_TIE_RTOL``: the relative margin covers the
    rounding of ``lo (1 + ...)`` where it is normal, and ``3 t`` the
    absolute part, one ``t/2`` for each quotient on the chain (the fast and
    the exact one of (i) and of (ii)) and for the product where it is
    subnormal, as sums of subnormals are exact.  So every exact minimizer
    is finished whatever the BLAS, and the least ``(value, mask)`` finished
    is the least searched one.  A wider filter changes no bit.

    ``h``: ``value`` is ``c^/m^(X)``, or ``inf`` when ``m^(X) > (T -
    m^(X)) + HALF_TIE_RTOL T`` in float64 arithmetic, the test of the
    reference table.  (i) ``X'`` holds at most ``M/2 (1 + 3 gamma_n)``, so
    ``m^(X')`` exceeds ``T - m^(X')`` by at most about ``6 gamma_n M``, far
    below the ``HALF_TIE_RTOL M`` that the test admits for ``n <= N_MAX``
    (in the subnormal range, where ``HALF_TIE_RTOL T`` loses its relative
    accuracy, every sum is exact): ``X'`` is searched and its value is
    ``r~`` within ``eta``, so the least score is always a realised value.
    (ii) A searched ``X`` holds at most ``m(X') + 2 HALF_TIE_RTOL T + 6
    gamma_n M``, as the test admits, so ``m(X) / m(X') <= 1 + 5
    HALF_TIE_RTOL``, and its value is below ``r~`` by at most that factor:
    ``s = 5 HALF_TIE_RTOL``.  ``h_via_r``: the value of both members is
    ``c^ / min(m^(S), m^(V - S))``, the score's exact counterpart, so (i)
    and (ii) hold with ``s = 0``, both measures exact.

    Connected sets.  With ``connected_only``, ``value`` refuses a chunk's
    least set while it induces a disconnected subgraph.  Say ``S`` induces
    components ``S_i``.  No edge joins two components, so ``m(boundary S)
    = sum m(boundary S_i)`` and ``m(S) = sum m(S_i)``, and some ``S_i``
    therefore has a ratio no larger than that of ``S`` (Chung, Spectral
    Graph Theory, 1997, ch. 2).  Each ``S_i`` passes the half test: its
    computed measure is at most that of ``S``, because both are sums of
    nonnegative terms in ascending vertex order.  The bound of (i) goes
    through the true ratio, so (i) still holds if it reads "a connected
    searched set", a component of that member, and the filter keeps its
    margin: the answer is the least ``(value, mask)`` over the connected
    searched sets.

    Running minimum.  The blocks come one at a time and are dropped once
    filtered: ``lo`` is the least score of the blocks so far, and each
    block finishes its pairs within the bound of ``lo`` at once.  ``lo``
    only falls, so the pairs finished hold every pair the final ``lo``
    keeps, and with it every exact minimizer; the others give values no
    smaller than the minimum and change no bit.  They are few: on random
    graphs of 18 to 22 vertices one to nine pairs are finished in all.
    """
    _check_cap(graph.n, max_n, DEFAULT_MAX_CHEEGER, "cheeger")
    if not graph.is_connected():
        raise DisconnectedGraph("cheeger constant needs a connected graph")
    grow = 1.0 + 4.0 * _gamma(3 * graph.n + len(graph.w) + 6) + 8 * HALF_TIE_RTOL
    lo, best = math.inf, (math.inf, 0)
    for start, cut, m_s, m_c in _cut_blocks(graph):
        cut[: start == 0] = math.inf  # the empty set and V, in the first block
        fast = np.divide(cut, np.minimum(m_s, m_c, out=m_s), out=cut)
        lo = min(lo, least := fast.min())
        bound = lo * grow + 3 * _MIN_SUBNORMAL
        if least <= bound < math.inf:
            best = min(best, _finish(graph, (fast <= bound).nonzero()[0] + start, value))
    return best


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
    The finish then refuses each chunk's least set while it is disconnected,
    in the one pass over the blocks (see ``_least``).
    ``TooLarge`` beyond the cap or beyond ``N_MAX`` (the size rule every
    exact search shares).
    """
    total = graph.total_measure

    def ratio(cut, m_set, masks):  # inf over half the measure
        values = np.divide(cut, m_set)
        values[m_set > (total - m_set) + HALF_TIE_RTOL * total] = math.inf
        while connected_only and values[i := int(values.argmin())] < math.inf:
            if _induced_connected(graph, int(masks[i])):
                break
            values[i] = math.inf
        return values

    return InvariantReport("h", *_least(graph, max_n, ratio))


# -------------------------------------------------------------- dual Cheeger


def _best_prefix(
    masks: np.ndarray, sums: np.ndarray, m: np.ndarray, rows
) -> tuple[float, int, int]:
    """``(value, A, B)`` of the best prefix pair over the sets ``rows`` of one
    ``_chunks`` block, their columns gathered in the order given: the first
    set, then the shortest prefix, among equal values.  The members of ``A``
    hold ``-inf``, so they sort after every other vertex, and the prefixes
    that reach them are set to ``-inf``."""
    n = len(m)
    block = sums.take(rows, axis=1).T
    order = (-(block[:, :n] / m)).argsort(axis=1, kind="stable")  # A's -inf last
    into = block[np.arange(len(order))[:, None], order]
    # Only the columns of A's own members can overflow (weights near the
    # float64 maximum), and those are set to -inf just below.
    with np.errstate(over="ignore", invalid="ignore"):
        values = 2.0 * into.cumsum(axis=1) / (block[:, n:] + m[order].cumsum(axis=1))
    values[into < 0.0] = -math.inf  # B meets A
    masks = masks[rows]
    values[masks == 0] = -math.inf  # A empty
    row, k = divmod(int(values.argmax()), n)
    return float(values[row, k]), int(masks[row]), mask_of(order[row, : k + 1].tolist())


def dual_cheeger_exact(
    graph: WeightedGraph, max_n: int | None = None
) -> InvariantReport:
    """Exact dual Cheeger constant over all disjoint nonempty pairs.

    For a fixed ``A`` the best ``B`` is a prefix of the complement vertices
    sorted by ``m_A(b)/m(b)`` descending (exchange argument: a vertex improves
    the ratio exactly when its own ratio beats the current value), so the sup
    over all pairs reduces to a sweep over the ``2^n`` choices of ``A``.
    Equal values go to the smallest ``A`` mask, then the shortest prefix
    (ratio ties to the smaller vertex).  The finish, ``_best_prefix``, sorts
    each row and evaluates every prefix ``B`` as ``v = fl(2 C / D)``, with
    ``C`` the running sum of ``m_A(b)`` in sorted order and ``D`` the sum of
    ``m(A)`` and the running sum of ``m(b)``.  A filter first drops the rows
    that cannot reach a value ``lam`` already reached, so only a few rows
    are sorted.

    Filter.  Fix a row ``A`` (a column of a ``_chunks`` block) with ``a_b =
    m_A(b)`` and ``mu = m(A)`` as the table holds them, and let ``M = sum_v
    m(v)``.  Dinkelbach's function (Management Science 1967) ``G(lam) = sum
    over b outside A of max(0, 2 a_b - lam m(b)), minus lam mu``, is at
    least ``2 sum_B a_b - lam (mu + m(B))`` for every ``B`` outside ``A``.
    Say the finish gives a prefix ``B`` of ``j <= n`` vertices a value ``v
    >= lam``.  With ``u = 2^-53`` and ``gamma_k`` as in ``_least``: ``C <=
    (1 + gamma_j) sum_B a_b``, ``D >= (1 - gamma_j)(mu + m(B))`` and ``2C /
    D >= lam / (1 + u)``, so ``G(lam) >= -gamma_{2n} lam (mu + M)``.  The
    filter adds ``r = sum over all b of max(a'_b, (lam/2) m(b))``, where
    ``a'_b`` is ``a_b`` outside ``A`` and ``-inf`` on it (as ``_chunks``
    gives them): exactly, ``r = (G(lam) + lam (mu + M)) / 2``, so ``r >=
    (lam/2)(mu + M)(1 - gamma_{2n})``.  Computed, each product rounds once
    and the sum of ``n`` nonnegative terms ``n - 1`` times in any order, so
    ``r~ >= (lam/2)(mu + M)(1 - gamma_{3n})``.  The threshold ``t = h (lam
    (1 - delta) - 4 s) - (n + 2) s``, with ``h = (M~ + mu)/2``, ``M~`` the
    graph's total measure (``<= (1 + gamma_n) M``), ``delta = 2
    gamma_{4n+5}`` and ``s = _MIN_SUBNORMAL``, is below that bound after its
    own roundings.  A subnormal result is off by at most ``s/2`` instead:
    ``4 s`` covers the halving of a subnormal ``lam``, the rounding of a
    subnormal ``lam (1 - delta)`` and a subnormal quotient ``2C / D``, each
    off by at most ``s/2`` times a measure below ``2h``, and ``(n + 2) s``
    the ``n`` products in ``r~`` and the halvings and the product in ``t``.
    So a row is dropped only when ``r~ < t``, and then none of its prefixes
    reaches ``lam``; a row whose ``r~ - t`` is ``nan`` is kept.

    Search.  Each block starts at ``lam``, the best value of the blocks
    before it or 0, and raises it by Dinkelbach's steps: the row with the
    largest ``r~ - t`` is finished alone, and while its value beats ``lam``
    it becomes ``lam`` and the filter runs again (a row that gave ``lam``
    ends the steps when it comes up again).  Every ``lam`` is 0 or a value
    the finish gives, so it never exceeds the largest value, and every row
    that reaches the largest value is kept (the skip is strict).  The kept
    rows go through the finish in ascending mask order, and a block's best
    replaces the running best only when it is larger, so value and witness
    are those a finish of every row gives.
    """
    n = graph.n
    _check_cap(n, max_n, DEFAULT_MAX_DUAL, "dual-cheeger")
    if n < 2:
        raise EmptySet("dual Cheeger needs at least two vertices")

    m, total = graph.vertex_measure, graph.total_measure
    shrink, floor = 1.0 - 2.0 * _gamma(4 * n + 5), (n + 2) * _MIN_SUBNORMAL
    best = (-math.inf, 0, 0)
    reach, term, half = np.empty((3, 1 << min(n, _BLOCK_BITS)))
    for masks, sums in _chunks(graph):
        np.add(0.5 * total, np.multiply(0.5, sums[n], out=half), out=half)
        lam, probed = max(best[0], 0.0), None
        while True:
            # A running sum over the vertices, each term one contiguous row;
            # any order is within the bound.
            bar = 0.5 * lam * m
            np.maximum(sums[0], bar[0], out=reach)
            for x in range(1, n):
                reach += np.maximum(sums[x], bar[x], out=term)
            np.multiply(half, lam * shrink - 4.0 * _MIN_SUBNORMAL, out=term)
            slack = np.subtract(reach, np.subtract(term, floor, out=term), out=reach)
            row = int(np.argmax(slack))
            if row == probed:  # its value is lam
                break
            probed, value = row, _best_prefix(masks, sums, m, [row])[0]
            if not value > lam:
                break
            lam = value
        rows = np.flatnonzero(~(slack < 0.0))
        if rows.size:
            found = _best_prefix(masks, sums, m, rows)
            if found[0] > best[0]:
                best = found
    value, mask_a, mask_b = best
    return InvariantReport("hbar", value, (mask_a, mask_b))


# --------------------------------------------------------------------- kappa


def kappa_exact(graph: WeightedGraph, max_n: int | None = None) -> InvariantReport:
    """Exact bipartiteness defect over all two-part partitions.

    Enumerates the ``2^(n-1) - 1`` partitions with vertex 0 in ``A``; the
    value is 0 exactly when the graph is bipartite (a bipartition has no
    same-side edge, so every return probability is an empty sum).  Equal
    values go to the smallest ``A`` mask.

    Each partition is ``A = L + H``: ``L`` holds vertex 0 and the other low
    vertices of ``A``, the first ``k = min(n, _BLOCK_BITS)``, and ``H`` the
    high ones.  Its value is the max over ``x`` of ``fl(m_S(x) / m(x))``,
    with ``S`` the side of ``x``.  ``m_A(x)`` is ``m_L(x)``, read from the
    low table, plus the weight from each vertex of ``H`` into ``x``, added
    in ascending vertex order; ``m_{A^c}(x)`` is ``m_{L^c}(x)`` plus the
    high vertices outside ``H`` in the same way (``L^c`` is the complement
    among the low vertices).

    Bound.  Every added weight is nonnegative and rounding to nearest is
    monotone, so ``fl(a + b) >= a`` for ``b >= 0``: each sum ends at or
    above its low prefix, ``m_A(x) >= m_L(x)`` and ``m_{A^c}(x) >=
    m_{L^c}(x)`` as computed.  ``L`` fixes the side of each low vertex; a
    high vertex may sit on either side, so its sum is at least the smaller
    of its two prefixes.  ``fl(a / m(x))`` and ``max`` are monotone as
    well, so the bound of ``L`` (the max over ``x`` of the prefix of its
    side, or the smaller prefix for a high ``x``, over ``m(x)``) is at most
    the computed value of every partition ``L + H``, bit for bit and with no
    margin.

    Filter and finish.  ``ub``, the least value among the partitions of the
    ``L`` with the least bound, is at least the minimum.  Every ``L`` whose
    bound exceeds ``ub`` is skipped, as none of its partitions can reach the
    minimum; the skip is strict, so every ``L`` of a tied minimizer stays.
    The kept ``L`` go through the full sums one high part at a time in
    ascending mask order, so value and witness are those a search of every
    partition gives; their columns and low members are gathered once, and
    each pass adds its high rows into one buffer per side.  With ``n <=
    _BLOCK_BITS`` there is no high vertex: the bound is the value and one
    pass over every ``L`` is the search.  Each high vertex weakens the
    bound, as it takes the smaller of its two prefixes: at 20 vertices the
    low table over 15 vertices, 5.2 MB, leaves five, and tables over 14 and
    13 left six and seven, which kept so many ``L`` that dense queries on
    18-20 vertices took 2.8 and 5 times as long (see ``_chunks``).
    """
    n = graph.n
    _check_cap(n, max_n, DEFAULT_MAX_KAPPA, "kappa")
    if n < 2:
        raise EmptySet("kappa needs at least two vertices")

    weights, m = weight_matrix(graph), graph.vertex_measure
    k = min(n, _BLOCK_BITS)
    full, top = (1 << n) - 1, (1 << (n - k)) - 1
    # Column i: the low part L = 2i + 1 (vertex 0 in A), and its complement
    # among the low vertices.
    parts, low = np.arange(1, 1 << k, 2), _subset_sums(weights, k)
    own, other = low[:, 1::2], low[:, -2::-2]

    def values(masks, in_a: np.ndarray, sums: np.ndarray, sums_c: np.ndarray) -> np.ndarray:
        """The value of each partition ``masks``, from ``m_A(x)`` and
        ``m_{A^c}(x)`` in the rows of ``sums`` and ``sums_c``; ``in_a`` is
        the membership matrix of ``masks``."""
        same_side = np.where(in_a, sums, sums_c)
        result = np.divide(same_side, m[:, None], out=same_side).max(axis=0)
        result[masks == full] = math.inf  # complement empty
        return result

    rows = slice(None)
    if top:
        in_low, bound = _members(parts, k), np.zeros(len(parts))
        for x in range(n):  # a high vertex x >= k may sit on either side
            prefix = (
                np.where(in_low[x], own[x], other[x]) if x < k else np.minimum(own[x], other[x])
            )
            np.maximum(bound, prefix / m[x], out=bound)
        # The least-bound L with every high part H: column H of each table is
        # the sum _plus_high gives, as _subset_sums adds in the same order.
        i = int(np.argmin(bound))
        masks = (np.arange(top + 1) << k) | parts[i]
        ub = values(
            masks,
            _members(masks, n),
            _subset_sums(weights[k:], n - k, own[:, i]),
            _subset_sums(weights[k:], n - k, other[:, i])[:, ::-1],
        ).min()
        rows = np.flatnonzero(bound <= ub)

    # The kept columns, gathered once; their low members hold in every pass.
    own, other, in_a = own[:, rows], other[:, rows], _members(parts[rows], n)
    own_high, other_high = np.empty_like(own), np.empty_like(other)
    best, best_a = math.inf, 0
    for high in range(top + 1):
        masks = (high << k) | parts[rows]
        if high:  # rows k.. of in_a start False, as every part is below 2^k
            in_a[k:] = _members(high, n - k)
        result = values(
            masks,
            in_a,
            _plus_high(weights, own, k, high, own_high),
            _plus_high(weights, other, k, top ^ high, other_high),
        )
        i = int(np.argmin(result))
        if result[i] < best:
            best, best_a = float(result[i]), int(masks[i])
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

    ``R_A = 1 - c/m(A)`` and ``R_B = 1 - c/m(B)`` for a partition ``V = A +
    B`` with cut ``c``.  ``fl(1 - x)`` is monotone, so the sup is ``1 - (1 -
    q)`` with ``q`` the least ``c / min(m(A), m(B))`` over the partitions,
    both measures exact, which the shared Cheeger search finds over the
    pairs ``{A, B}`` (see ``_least``).
    """

    def smaller_side_ratio(cut, m_set, _masks):  # the same value for both members
        return np.divide(cut, np.minimum(m_set, m_set[::-1]))

    value, _ = _least(graph, max_n, smaller_side_ratio)
    return float(1.0 - (1.0 - value))
