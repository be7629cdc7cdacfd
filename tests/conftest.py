"""Shared graph builders and brute-force reference implementations.

The ``brute_*`` functions recompute each invariant by raw enumeration with
plain Python loops, sharing no code with the optimized search routines, so
the two routes check each other.  ``apply_laplacian`` and
``transition_probability`` are plain-loop reference routes over the edges.
``ref_evaluate`` is the secular evaluation as it was before it settled its
truncation in one pass: it decides coverage, pole distance and tail again at
every doubling, with the same errors and messages.
"""

import itertools
import math

import numpy as np
from hypothesis import Phase, settings

from specgraph import kgraph
from specgraph.errors import BadParameter, NumericalFailure, PoleProximity
from specgraph.graph import WeightedGraph
from specgraph.harness import RandomGraphSpec, sample_graph

# A failing fuzz reports its example as generated: without the shrink phase
# (and the explain phase, which needs it) a failure ends in seconds, where
# shrinking examples that each analyse a fresh graph took minutes.  Example
# counts and strategies are those each test sets; every other setting is the
# profile already loaded (hypothesis loads its "ci" profile on CI machines).
settings.register_profile(
    "no-shrink",
    settings(),
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
settings.load_profile("no-shrink")

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


def pendant(n: int, seed: int, first: bool) -> WeightedGraph:
    """A random graph on ``n - 1`` vertices plus a pendant vertex, 0 or
    ``n - 1``, whose one edge weighs ``2^-60`` of the rest: the side of a
    partition that holds only the pendant is lighter than the rounding error
    of the total measure, so ``total - m(other side)`` is all rounding."""
    g = sample_graph(RandomGraphSpec(n=n - 1, seed=seed))
    u, v, shift = g.u + first, g.v + first, seed % (n - 1) + first
    tail = (0, shift) if first else (shift, n - 1)
    weight = 2.0**-60 * float(g.w.sum())
    return WeightedGraph(np.column_stack([np.append(u, tail[0]), np.append(v, tail[1]),
                                          np.append(g.w, weight)]))


def _measures(graph: WeightedGraph):
    m = [0.0] * graph.n
    for u, v, w in graph.edges:
        m[u] += w
        m[v] += w
    return m


def apply_laplacian(graph: WeightedGraph, f) -> np.ndarray:
    """``(Delta f)(v) = f(v) - sum_{w ~ v} m(vw)/m(v) f(w)``."""
    values = [float(x) for x in f]
    assert len(values) == graph.n
    m = _measures(graph)
    acc = [0.0] * graph.n
    for u, v, w in graph.edges:
        acc[u] += w * values[v]
        acc[v] += w * values[u]
    return np.array([values[x] - acc[x] / m[x] for x in range(graph.n)])


def transition_probability(graph: WeightedGraph, v: int, mask: int) -> float:
    """Fraction ``m_S(v) / m(v)`` of the weight at ``v`` that points into S."""
    into = 0.0
    for a, b, w in graph.edges:
        for x, y in ((a, b), (b, a)):
            if x == v and (mask >> y) & 1:
                into += w
    return into / _measures(graph)[v]


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


def ref_remainder(self, j):
    if j < 0:
        raise BadParameter("remainder index must be nonnegative")
    n = len(self.head)
    if j >= n:
        return self.head[-1] * self.ratio ** (j + 1 - n) / (1.0 - self.ratio)
    return math.fsum(self.head[j:]) + self.tail_sum


def ref_evaluate(p, lam):
    if not math.isfinite(lam):
        raise BadParameter(f"evaluation point {lam} is not finite")
    terms = max(2 * len(p.head) + 16, 32)
    while True:
        _, alphas = kgraph._tables(p, terms)
        if lam < 0.0 and alphas[-1] < lam:
            if terms >= kgraph._MAX_TERMS:
                raise NumericalFailure(f"cannot cover {lam} with {terms} pole terms")
            terms = min(kgraph._MAX_TERMS, terms * 2)
            continue
        delta = min(float(np.abs(lam - alphas).min()), abs(lam))
        if delta < kgraph.POLE_TOL:
            raise PoleProximity(f"evaluation point {lam} within {delta} of a pole")
        tail = ref_remainder(p, terms) / ((1.0 - p.head[0]) * delta)
        if tail <= kgraph._TAIL_TARGET or terms >= kgraph._MAX_TERMS:
            break
        terms = min(kgraph._MAX_TERMS, terms * 2)
    if tail > kgraph._TAIL_TARGET:
        raise NumericalFailure(
            f"tail bound {tail} above target {kgraph._TAIL_TARGET} at {terms} terms"
        )
    value = math.fsum((alphas / (alphas - lam)).tolist())
    return value, tail, terms, alphas
