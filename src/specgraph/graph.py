"""Finite weighted graphs with positive summable edge weights.

The central object is :class:`WeightedGraph`: a simple undirected graph on
vertices ``0..n-1`` whose edges carry positive weights.  Every vertex inherits
the measure ``m(v) = sum of incident edge weights``, and the normalized
Laplacian acts on functions by

    (Delta f)(v) = f(v) - sum_{w ~ v} m(vw)/m(v) * f(w).

A graph is stored once, as sorted edge arrays ``u < v`` and weights ``w``, with
a lazily built CSR neighbour index; ``edges`` is a view derived on demand.
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
    MalformedGraph,
    NonpositiveWeight,
    SelfLoop,
)

Edge = tuple[int, int, float]

__all__ = [
    "WeightedGraph",
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

    Stored once, as arrays ``u < v`` (int64, sorted by ``(u, v)``), ``w`` and
    ``vertex_measure``; a CSR neighbour index is built on first use, and
    ``edges`` derives the ``(u, v, w)`` triples on demand.

    Parameters
    ----------
    edges:
        ``(u, v, w)`` triples (a list or an ``(E, 3)`` array) with nonnegative
        integer ids, ``u != v`` and ``w > 0``; each unordered pair at most once.
    labels:
        Optional list of vertex names.  When given, the vertex count is
        ``len(labels)``; otherwise it is ``max vertex index + 1``.

    Raises
    ------
    MalformedGraph
        When the input has the wrong shape or types.
    SelfLoop, NonpositiveWeight, DuplicateEdge, IsolatedVertex
        For the first offending edge in input order, checked in this order
        at one edge, then for the least vertex without an edge.
    """

    __slots__ = ("n", "u", "v", "w", "labels", "vertex_measure", "_csr")

    def __init__(self, edges: Sequence[Edge], labels: Sequence | None = None):
        if labels is not None and not isinstance(labels, (list, tuple)):
            raise MalformedGraph(f"labels must be a list, got {type(labels).__name__}")
        try:
            raw = np.asarray(edges)
        except (ValueError, TypeError, OverflowError) as exc:
            raise MalformedGraph(f"edges are not [u, v, w] triples: {exc}") from None
        if raw.size == 0:
            raw = raw.reshape(0, 3)
        if raw.ndim != 2 or raw.shape[1] != 3 or raw.dtype.kind not in "biuf":
            raise MalformedGraph("edges must be [u, v, w] triples of numbers")
        arr = raw.astype(float)
        ends, w = arr[:, :2], arr[:, 2]
        bad_id = ~((np.floor(ends) == ends) & (ends >= 0) & (ends < np.inf))
        if bad_id.any():
            i, j = np.argwhere(bad_id)[0]
            raise MalformedGraph(
                f"edge {i}: vertex id {raw[i, j].item()!r} is not a nonnegative integer"
            )
        pairs = np.sort(ends, axis=1)  # rows (lo, hi)
        order = np.lexsort(pairs.T[::-1])  # stable: a repeat follows its first
        canon = pairs[order]
        repeat = np.zeros(len(w), dtype=bool)
        repeat[order[1:]] = (canon[1:] == canon[:-1]).all(axis=1)
        loop = pairs[:, 0] == pairs[:, 1]
        bad_weight = ~((w > 0.0) & (w < np.inf))
        offending = loop | bad_weight | repeat
        if offending.any():
            i = offending.argmax()
            a, b = int(ends[i, 0]), int(ends[i, 1])
            if loop[i]:
                raise SelfLoop(f"edge ({a}, {b}) is a self-loop")
            if bad_weight[i]:
                raise NonpositiveWeight(f"edge ({a}, {b}) has weight {float(w[i])!r}")
            raise DuplicateEdge(f"edge {(min(a, b), max(a, b))} appears more than once")

        # Sorted endpoints behind a sentinel -1: a step above 1 skips a vertex.
        covered = np.sort(np.concatenate(([-1.0], ends.ravel())))
        top = int(covered[-1])
        n = len(labels) if labels is not None else top + 1
        if top >= n:
            raise IsolatedVertex(
                f"edge endpoint {top} out of range for {n} labelled vertices"
            )
        gap = covered[1:] - covered[:-1] > 1.0
        if gap.any() or top + 1 < n:
            missing = int(covered[gap.argmax()]) + 1 if gap.any() else top + 1
            raise IsolatedVertex(f"vertex {missing} has no incident edge")

        self.n = n
        self.labels = tuple(labels) if labels is not None else None
        self.u, self.v = np.ascontiguousarray(canon.T, dtype=np.int64)
        self.w = w[order]
        # Each weight is added at u, then at v, in edge order (as _weight_into).
        both = np.ravel([self.u, self.v], order="F")
        self.vertex_measure = np.bincount(both, np.repeat(self.w, 2), minlength=n)
        for array in (self.u, self.v, self.w, self.vertex_measure):
            array.setflags(write=False)
        self._csr = None

    # ------------------------------------------------------------- measures

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The sorted ``(u, v, w)`` triples, derived from the arrays."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def total_measure(self) -> float:
        """``M = sum_v m(v)``; equals twice the total edge weight."""
        return float(self.vertex_measure.sum())

    @property
    def total_edge_weight(self) -> float:
        return float(_sequential_sum(self.w))

    def _neighbour_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, neighbour, weight)``, neighbours ascending per vertex
        (lower neighbours first, each half ascending, then a stable sort)."""
        if self._csr is None:
            src = np.concatenate([self.v, self.u])
            order = np.argsort(src, kind="stable")
            indptr = np.searchsorted(src[order], np.arange(self.n + 1))
            nbr = np.concatenate([self.u, self.v])[order]
            self._csr = (indptr, nbr, np.concatenate([self.w, self.w])[order])
        return self._csr

    def neighbors(self, v: int) -> tuple[tuple[int, float], ...]:
        """Pairs ``(w, m(vw))`` for the neighbors of ``v``, ascending in ``w``."""
        indptr, nbr, weight = self._neighbour_index()
        lo, hi = indptr[v], indptr[v + 1]
        return tuple(zip(nbr[lo:hi].tolist(), weight[lo:hi].tolist()))

    # --------------------------------------------------------- connectivity

    def _search(self) -> tuple[list[int], list[int]]:
        """Per vertex: the least vertex of its component, and the parity of
        its depth in a search tree grown from that vertex."""
        indptr, nbr, _ = self._neighbour_index()
        starts, nbr = indptr.tolist(), nbr.tolist()
        root, parity = [-1] * self.n, [0] * self.n
        for start in range(self.n):
            if root[start] != -1:
                continue
            root[start] = start
            stack = [start]
            while stack:
                x = stack.pop()
                for y in nbr[starts[x]:starts[x + 1]]:
                    if root[y] == -1:
                        root[y] = start
                        parity[y] = 1 - parity[x]
                        stack.append(y)
        return root, parity

    def component_masks(self) -> list[int]:
        """Bitmasks of the connected components, ordered by least vertex."""
        masks: dict[int, int] = {}
        for v, r in enumerate(self._search()[0]):
            masks[r] = masks.get(r, 0) | 1 << v
        return list(masks.values())

    @property
    def component_count(self) -> int:
        return len(self.component_masks())

    def is_connected(self) -> bool:
        return self.n > 0 and self.component_count == 1

    # -------------------------------------------------------------- dunders

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.n}, edges={len(self.w)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.labels == other.labels and all(
            map(np.array_equal, (self.u, self.v, self.w), (other.u, other.v, other.w))
        )

    def __hash__(self) -> int:
        return hash((self.u.tobytes(), self.v.tobytes(), self.w.tobytes(), self.labels))


# ------------------------------------------------------------------ set ops


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of vertex indices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask: int) -> list[int]:
    """Sorted vertex indices of a bitmask."""
    return np.flatnonzero(_indicator(int(mask).bit_length(), mask)).tolist()


def _indicator(n: int, mask: int) -> np.ndarray:
    """Boolean vertex array of ``mask``; masks of any width go through bytes."""
    raw = np.frombuffer(int(mask).to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def _sequential_sum(x: np.ndarray):
    """Left-to-right sum along the last axis, the order a Python loop adds in
    (``np.sum`` adds pairwise, which can differ in the last bit)."""
    return np.cumsum(x, axis=-1)[..., -1] if x.shape[-1] else np.zeros(x.shape[:-1])[()]


def set_measures(graph: WeightedGraph, mask: int) -> tuple[float, float, float]:
    """Measure data ``(m(S), m(boundary S), m(interior S))`` of a vertex set.

    ``m(S)`` sums vertex measures over ``S``; the boundary collects edges with
    exactly one endpoint in ``S``, the interior those with both.  The identity
    ``m(S) = m(boundary S) + 2 m(interior S)`` holds exactly in exact
    arithmetic and to rounding here.
    """
    if mask == 0:
        raise EmptySet("set_measures of the empty set")
    inside = _indicator(graph.n, mask)
    ends_inside = inside[graph.u].astype(int) + inside[graph.v]
    return (
        float(_sequential_sum(graph.vertex_measure[inside])),
        float(_sequential_sum(graph.w[ends_inside == 1])),
        float(_sequential_sum(graph.w[ends_inside == 2])),
    )


def _weight_into(graph: WeightedGraph, inside: np.ndarray) -> np.ndarray:
    """``m_S(v)`` for every vertex ``v``, added in ascending neighbour order:
    each edge adds at ``u``, then at ``v``, in edge order (0 if outside S)."""
    u, v, w = graph.u, graph.v, graph.w
    weights = np.ravel([w * inside[v], w * inside[u]], order="F")
    return np.bincount(np.ravel([u, v], order="F"), weights, minlength=graph.n)


def transition_probability(graph: WeightedGraph, v: int, mask: int) -> float:
    """Fraction ``m_S(v) / m(v)`` of the weight at ``v`` that points into S."""
    into = _weight_into(graph, _indicator(graph.n, mask))[v]
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


def _edge_energy(graph: WeightedGraph, f, sign: float) -> float:
    """``sum_e m(e) (f(u) + sign f(v))^2``, exactly rounded."""
    arr = _as_function(graph, f)
    terms = arr[graph.u] + sign * arr[graph.v]
    # Scalar ``** 2`` is C ``pow``; the array square can differ in the last bit.
    return float(math.fsum(w * t ** 2 for w, t in zip(graph.w, terms)))


def dirichlet_form(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Edge sum ``sum_e m(e) (f(u) - f(v))^2``; equals ``<Delta f, f>``."""
    return _edge_energy(graph, f, -1.0)


def q_form(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Edge sum ``sum_e m(e) (f(u) + f(v))^2``; equals ``<(2I - Delta) f, f>``."""
    return _edge_energy(graph, f, 1.0)


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
    u, v, w = graph.u.tolist(), graph.v.tolist(), graph.w.tolist()
    payload["edges"] = list(map(list, zip(u, v, w)))
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
    if not isinstance(payload, dict) or "edges" not in payload:
        raise MalformedGraph('a graph is a JSON object with an "edges" list')
    return WeightedGraph(payload["edges"], payload.get("labels"))


def load_graph(fp: IO[str]) -> WeightedGraph:
    return graph_from_json(fp.read())


def dump_graph(graph: WeightedGraph, fp: IO[str]) -> None:
    fp.write(graph_to_json(graph))
    fp.write("\n")
