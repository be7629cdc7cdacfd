"""Shared graph builders and brute-force reference implementations.

The ``brute_*`` functions recompute each invariant by raw enumeration with
plain Python loops, sharing no code with the optimized search routines, so
the two routes check each other.
"""

import itertools
import math

from specgraph.graph import WeightedGraph

# Brute-force half-condition tie tolerance, mirroring the documented behavior
# of the exact search (relative to the total measure).
TIE_RTOL = 1e-12


def triangle(w01=1.0, w02=1.0, w12=1.0):
    return WeightedGraph([(0, 1, w01), (0, 2, w02), (1, 2, w12)])


def complete(n, weight=1.0):
    return WeightedGraph([(i, j, weight) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return WeightedGraph([(i, (i + 1) % n, 1.0) for i in range(n)])


def path(n):
    return WeightedGraph([(i, i + 1, 1.0) for i in range(n - 1)])


def _measures(graph: WeightedGraph):
    m = [0.0] * graph.n
    for u, v, w in graph.edges:
        m[u] += w
        m[v] += w
    return m


def brute_cheeger(graph: WeightedGraph) -> float:
    """min of m(boundary S)/m(S) over nonempty S with m(S) <= m(complement)."""
    m = _measures(graph)
    total = math.fsum(m)
    best = math.inf
    for mask in range(1, 1 << graph.n):
        m_s = math.fsum(m[v] for v in range(graph.n) if (mask >> v) & 1)
        if m_s > total - m_s + TIE_RTOL * total:
            continue
        boundary = math.fsum(
            w for u, v, w in graph.edges if ((mask >> u) & 1) != ((mask >> v) & 1)
        )
        best = min(best, boundary / m_s)
    return best


def brute_dual(graph: WeightedGraph) -> float:
    """max of 2 m(A,B)/(m(A)+m(B)) over disjoint nonempty pairs, by scanning
    all ternary assignments (out, A, B) of the vertices."""
    m = _measures(graph)
    best = 0.0
    for assign in itertools.product((0, 1, 2), repeat=graph.n):
        if 1 not in assign or 2 not in assign:
            continue
        cross = math.fsum(
            w for u, v, w in graph.edges if {assign[u], assign[v]} == {1, 2}
        )
        denom = math.fsum(m[v] for v in range(graph.n) if assign[v])
        best = max(best, 2.0 * cross / denom)
    return best


def brute_kappa(graph: WeightedGraph) -> float:
    """min over all bipartitions of the worst same-side return probability."""
    m = _measures(graph)
    best = math.inf
    for mask in range(1, (1 << graph.n) - 1):
        same = [0.0] * graph.n
        for u, v, w in graph.edges:
            if ((mask >> u) & 1) == ((mask >> v) & 1):
                same[u] += w
                same[v] += w
        best = min(best, max(same[v] / m[v] for v in range(graph.n)))
    return best
