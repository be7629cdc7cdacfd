"""Finite weighted graphs with positive summable edge weights.

The central object is :class:`WeightedGraph`: a simple undirected graph on
vertices ``0..n-1`` whose edges carry positive weights.  Every vertex inherits
the measure ``m(v) = sum of incident edge weights``, and the normalized
Laplacian acts on functions by

    (Delta f)(v) = f(v) - sum_{w ~ v} m(vw)/m(v) * f(w).

Vertex sets are plain Python integers used as bitmasks (bit ``i`` set means
vertex ``i`` is in the set); vertex functions are numpy arrays of length ``n``.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    EmptySet,
    IsolatedVertex,
    NonpositiveWeight,
    SelfLoop,
)

Edge = tuple[int, int, float]

__all__ = [
    "WeightedGraph",
    "build_graph",
    "set_measures",
    "apply_laplacian",
    "dirichlet_form",
    "q_form",
    "inner_product",
    "transition_probability",
    "mask_of",
    "vertices_of",
    "graph_to_json",
    "graph_from_json",
    "load_graph",
    "dump_graph",
]


class WeightedGraph:
    """Simple undirected graph with positive edge weights.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v, w)`` triples with ``u != v`` and ``w > 0``.
        Each unordered pair may appear once.
    labels:
        Optional vertex names.  When given, the vertex count is
        ``len(labels)``; otherwise it is ``max vertex index + 1``.

    Raises
    ------
    SelfLoop, DuplicateEdge, NonpositiveWeight, IsolatedVertex
        When the edge list violates the corresponding constraint.
    """

    __slots__ = ("n", "edges", "labels", "_m", "_adjacency")

    def __init__(self, edges: Iterable[Edge], labels: Sequence[str] | None = None):
        canon: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        top = -1
        for u, v, w in edges:
            u, v = int(u), int(v)
            w = float(w)
            if u == v:
                raise SelfLoop(f"edge ({u}, {v}) is a self-loop")
            if not (math.isfinite(w) and w > 0.0):
                raise NonpositiveWeight(f"edge ({u}, {v}) has weight {w!r}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdge(f"edge {key} appears more than once")
            seen.add(key)
            canon.append((key[0], key[1], w))
            top = max(top, key[1])
        n = len(labels) if labels is not None else top + 1
        if top >= n:
            raise IsolatedVertex(
                f"edge endpoint {top} out of range for {n} labelled vertices"
            )
        covered = [False] * n
        for u, v, _ in canon:
            covered[u] = covered[v] = True
        for v, ok in enumerate(covered):
            if not ok:
                raise IsolatedVertex(f"vertex {v} has no incident edge")

        self.n = n
        self.edges = tuple(sorted(canon))
        self.labels = tuple(labels) if labels is not None else None
        m = np.zeros(n)
        adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in self.edges:
            m[u] += w
            m[v] += w
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        self._m = m
        self._adjacency = [tuple(a) for a in adjacency]

    # ------------------------------------------------------------- measures

    @property
    def vertex_measure(self) -> np.ndarray:
        """``m(v)`` for every vertex, as an array of length ``n``."""
        return self._m

    @property
    def total_measure(self) -> float:
        """``M = sum_v m(v)``; equals twice the total edge weight."""
        return float(self._m.sum())

    @property
    def total_edge_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        """Pairs ``(w, m(vw))`` for the neighbors of ``v``."""
        return self._adjacency[v]

    # --------------------------------------------------------- connectivity

    def component_masks(self) -> list[int]:
        """Bitmasks of the connected components, ordered by least vertex."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            mask = 0
            stack = [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                mask |= 1 << u
                for w, _ in self._adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(mask)
        return comps

    @property
    def component_count(self) -> int:
        return len(self.component_masks())

    def is_connected(self) -> bool:
        return self.n > 0 and self.component_count == 1

    # -------------------------------------------------------------- dunders

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.n}, edges={len(self.edges)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.edges == other.edges and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.edges, self.labels))


def build_graph(edges: Iterable[Edge], labels: Sequence[str] | None = None) -> WeightedGraph:
    """Validate an edge list and construct a :class:`WeightedGraph`."""
    return WeightedGraph(edges, labels)


# ------------------------------------------------------------------ set ops


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of vertex indices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask: int) -> list[int]:
    """Sorted vertex indices of a bitmask."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def _indicator(n: int, mask: int) -> np.ndarray:
    """Boolean vertex array of ``mask``; masks of any width go through bytes."""
    raw = np.frombuffer(int(mask).to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def set_measures(graph: WeightedGraph, mask: int) -> tuple[float, float, float]:
    """Measure data ``(m(S), m(boundary S), m(interior S))`` of a vertex set.

    ``m(S)`` sums vertex measures over ``S``; the boundary collects edges with
    exactly one endpoint in ``S``, the interior those with both.  The identity
    ``m(S) = m(boundary S) + 2 m(interior S)`` holds exactly in exact
    arithmetic and to rounding here.
    """
    if mask == 0:
        raise EmptySet("set_measures of the empty set")
    m_set = float(sum(graph.vertex_measure[v] for v in vertices_of(mask)))
    boundary = 0.0
    interior = 0.0
    for u, v, w in graph.edges:
        inside = ((mask >> u) & 1) + ((mask >> v) & 1)
        if inside == 1:
            boundary += w
        elif inside == 2:
            interior += w
    return m_set, boundary, interior


def transition_probability(graph: WeightedGraph, v: int, mask: int) -> float:
    """Fraction ``m_S(v) / m(v)`` of the weight at ``v`` that points into S."""
    into = sum(w for u, w in graph.neighbors(v) if (mask >> u) & 1)
    return float(into / graph.vertex_measure[v])


# ----------------------------------------------------------- quadratic forms


def _as_function(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.shape != (graph.n,):
        raise ValueError(f"function has shape {arr.shape}, expected ({graph.n},)")
    return arr


def apply_laplacian(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> np.ndarray:
    """Apply the normalized Laplacian to a vertex function."""
    arr = _as_function(graph, f)
    out = arr.copy()
    for v in range(graph.n):
        acc = 0.0
        for u, w in graph.neighbors(v):
            acc += w * arr[u]
        out[v] -= acc / graph.vertex_measure[v]
    return out


def dirichlet_form(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Edge sum ``sum_e m(e) (f(u) - f(v))^2``; equals ``<Delta f, f>``."""
    arr = _as_function(graph, f)
    return float(
        math.fsum(w * (arr[u] - arr[v]) ** 2 for u, v, w in graph.edges)
    )


def q_form(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Edge sum ``sum_e m(e) (f(u) + f(v))^2``; equals ``<(2I - Delta) f, f>``."""
    arr = _as_function(graph, f)
    return float(
        math.fsum(w * (arr[u] + arr[v]) ** 2 for u, v, w in graph.edges)
    )


def inner_product(
    graph: WeightedGraph,
    f: Sequence[float] | np.ndarray,
    g: Sequence[float] | np.ndarray,
) -> float:
    """Weighted inner product ``sum_v m(v) f(v) g(v)``."""
    fa = _as_function(graph, f)
    ga = _as_function(graph, g)
    return float(math.fsum(graph.vertex_measure * fa * ga))


# -------------------------------------------------------------- JSON wire IO


def _graph_payload(graph: WeightedGraph) -> dict:
    """The wire-format dict that :func:`graph_to_json` and ``gen`` print."""
    payload: dict = {}
    if graph.labels is not None:
        payload["labels"] = list(graph.labels)
    payload["edges"] = [[u, v, w] for u, v, w in graph.edges]
    return payload


def graph_to_json(graph: WeightedGraph) -> str:
    """Serialize to the wire format ``{"labels": [...], "edges": [[u,v,w]..]}``.

    The ``labels`` key is present only when the graph carries labels.  Weights
    round-trip bit-exactly through the shortest-repr float encoding.
    """
    return json.dumps(_graph_payload(graph))


def graph_from_json(text: str) -> WeightedGraph:
    """Parse the wire format produced by :func:`graph_to_json`."""
    payload = json.loads(text)
    edges = [(int(u), int(v), float(w)) for u, v, w in payload["edges"]]
    labels = payload.get("labels")
    return build_graph(edges, labels)


def load_graph(fp: IO[str]) -> WeightedGraph:
    return graph_from_json(fp.read())


def dump_graph(graph: WeightedGraph, fp: IO[str]) -> None:
    fp.write(graph_to_json(graph))
    fp.write("\n")
