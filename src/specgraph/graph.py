"""Finite weighted graphs with positive summable edge weights.

The central object is :class:`WeightedGraph`: a simple undirected graph on
vertices ``0..n-1`` whose edges carry positive weights.  Every vertex inherits
the measure ``m(v) = sum of incident edge weights``, and the normalized
Laplacian acts on functions by

    (Delta f)(v) = f(v) - sum_{w ~ v} m(vw)/m(v) * f(w).

A graph is stored once, as sorted edge arrays ``u < v`` and weights ``w``;
``edges`` is a view derived on demand, and the dense weight matrix
(``weight_matrix``) is built on first use and kept.
Vertex sets are plain Python integers used as bitmasks (bit ``i`` set means
vertex ``i`` is in the set); vertex functions are numpy arrays of length ``n``.

Every public query reads its vertex arguments through one of two readers, so
the rule lives here alone.  A vertex set is anything ``operator.index``
accepts: a float or a string raises ``BadParameter``, 0 raises ``EmptySet``,
and a negative mask or one with a bit at or above ``n`` raises
``BadParameter``.  A vertex function is a one-axis array (or sequence) of ``n``
finite real numbers: numpy booleans, integers and floats, or an object array
whose every entry is a ``numbers.Real``, read as float64.  Strings (numeric
ones included), complex entries, other shapes and entries that are not finite
raise ``BadParameter``.  Each public call reads each argument once, at its
entry; the library's own callers hand on the array they already read to the
private array forms (``_inner``, ``_edge_energy``), which read nothing.
``mask_of`` and ``vertices_of`` refuse negative or non-integer ids the same
way.  The enumeration searches build their own masks and skip the readers.

Scalar parameters follow two more readers kept here.  An integer (a count,
size, sequence index, seed or enumeration cap) is anything
``operator.index`` accepts, bools and numpy integers included; a float such
as ``5.5`` or a string such as ``"5"`` raises ``BadParameter``.  A real (a
weight, ratio, probability, tolerance or evaluation point) is any finite
``numbers.Real``, bools and numpy scalars included, read as a Python
``float``; a string, ``None``, a complex number, an array or a value that is
not finite raises ``BadParameter``.  Range checks, such as a ratio in
``(0, 1)`` or a seed that must be nonnegative, stay with the object whose
domain they describe.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadParameter,
    DuplicateEdge,
    EmptySet,
    IsolatedVertex,
    MalformedGraph,
    NonpositiveWeight,
    NumericalFailure,
    SelfLoop,
)

Edge = tuple[int, int, float]

__all__ = [
    "WeightedGraph",
    "weight_matrix",
    "set_measures",
    "dirichlet_form",
    "q_form",
    "inner_product",
    "mask_of",
    "vertices_of",
    "graph_to_json",
    "graph_from_json",
]


class WeightedGraph:
    """Simple undirected graph with positive edge weights.

    Stored once, as arrays ``u < v`` (int64, sorted by ``(u, v)``), ``w`` and
    ``vertex_measure``, the float ``total_measure`` (``M = sum_v m(v)``,
    twice the total edge weight), plus the component search and the dense
    weight matrix once they are first asked for; ``edges`` derives the
    ``(u, v, w)`` triples on demand.

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

    __slots__ = (
        "n", "u", "v", "w", "labels", "vertex_measure", "total_measure", "_tree", "_dense"
    )

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
        with np.errstate(over="ignore"):
            total = self.vertex_measure.sum()
        if not np.isfinite(total):
            raise MalformedGraph("weights too large: the total measure overflows float64")
        self.total_measure = float(total)
        for array in (self.u, self.v, self.w, self.vertex_measure):
            array.setflags(write=False)
        self._tree = self._dense = None

    # ------------------------------------------------------------- measures

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The sorted ``(u, v, w)`` triples, derived from the arrays."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    # --------------------------------------------------------- connectivity

    def _search(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per vertex: the least vertex of its component, and its parity
        relative to that vertex.  The graph is immutable, so the search runs
        once and its result is kept."""
        if self._tree is None:
            self._tree = _union_find(self.n, self.u.tolist(), self.v.tolist())
        return self._tree

    @property
    def component_count(self) -> int:
        return len(set(self._search()[0]))

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


def weight_matrix(graph: WeightedGraph) -> np.ndarray:
    """The dense symmetric ``n x n`` matrix of edge weights, 0 off the edges.
    The graph is immutable, so the matrix is built on first use and kept,
    read-only; the walk matrix, the Laplacian, the symmetric conjugate and
    the exact searches all read this one."""
    if graph._dense is None:
        w = np.zeros((graph.n, graph.n))
        w[graph.u, graph.v] = graph.w
        w[graph.v, graph.u] = graph.w
        w.setflags(write=False)
        graph._dense = w
    return graph._dense


def _union_find(
    n: int, u: list[int], v: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Union-find with a parity bit over the edges in stored order (Tarjan,
    JACM 1975).  A larger root always hangs under a smaller one, so every
    vertex's parent is below it and each root is its component's least
    vertex; ``parity[x]`` is relative to ``parent[x]``, halved paths included.
    """
    parent, parity = list(range(n)), [0] * n
    for a, b in zip(u, v):
        pa = pb = 0  # parity of a and b relative to their roots
        while (up := parent[a]) != a:  # path halving: a skips to its grandparent
            parity[a] ^= parity[up]
            pa ^= parity[a]
            parent[a] = a = parent[up]
        while (up := parent[b]) != b:
            parity[b] ^= parity[up]
            pb ^= parity[b]
            parent[b] = b = parent[up]
        if a < b:
            parent[b], parity[b] = a, pa ^ pb ^ 1
        elif b < a:
            parent[a], parity[a] = b, pa ^ pb ^ 1
    # Parents precede their children, so one ascending pass resolves all.
    for x in range(n):
        parity[x] ^= parity[parent[x]]  # a root keeps 0
        parent[x] = parent[parent[x]]
    return tuple(parent), tuple(parity)


# ------------------------------------------------------------------ set ops


def _integer(value, what: str) -> int:
    """``value`` as a Python int, read with ``operator.index``: a float, a
    string or any other non-integer raises ``BadParameter``."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParameter(f"{what} must be an integer, got {value!r}") from None


def _real(value, what: str) -> float:
    """``value`` as a finite Python float: any ``numbers.Real`` is read, and
    anything else, or a value that is not finite, raises ``BadParameter``."""
    # float and int first: the numbers.Real check alone costs about 1 us.
    if not isinstance(value, (float, int, numbers.Real)):
        raise BadParameter(f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise BadParameter(f"{what} must be finite, got {value!r}")
    return x


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of nonnegative integer vertex ids."""
    mask = 0
    for v in vertices:
        v = _integer(v, "a vertex id")
        if v < 0:
            raise BadParameter("a vertex id must be nonnegative")
        mask |= 1 << v
    return mask


def vertices_of(mask: int) -> list[int]:
    """Sorted vertex indices of a nonnegative bitmask."""
    mask = _integer(mask, "a vertex set")
    if mask < 0:
        raise BadParameter("a vertex set must be nonnegative")
    return np.flatnonzero(_indicator(mask.bit_length(), mask)).tolist()


def _as_set(graph: WeightedGraph, mask: int) -> np.ndarray:
    """Boolean vertex array of the nonempty vertex set ``mask`` of ``graph``;
    ``EmptySet`` for 0, ``BadParameter`` for a non-integer, a negative mask or
    one with a vertex outside the graph."""
    mask = _integer(mask, "a vertex set")
    if mask == 0:
        raise EmptySet("the vertex set is empty")
    if mask < 0:
        raise BadParameter("a vertex set must be nonnegative")
    if mask >> graph.n:
        raise BadParameter(
            f"vertex set holds vertex {mask.bit_length() - 1}, outside 0..{graph.n - 1}"
        )
    return _indicator(graph.n, mask)


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
    inside = _as_set(graph, mask)
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


# ----------------------------------------------------------- quadratic forms


def _as_values(values, what: str) -> np.ndarray:
    """``values`` as a one-axis float64 array with finite entries, read from
    booleans, integers, floats or ``numbers.Real`` objects; ``BadParameter``
    otherwise (strings and complex entries included, as ``_real`` refuses
    them)."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "O" and all(isinstance(x, numbers.Real) for x in arr.flat):
            arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"{what} is not an array of numbers: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise BadParameter(f"{what} holds entries that are not real numbers")
    arr = arr.astype(float, copy=False)
    if arr.ndim != 1:
        raise BadParameter(f"{what} has shape {arr.shape}, expected one axis")
    if not np.isfinite(arr).all():
        raise BadParameter(f"{what} has an entry that is not finite")
    return arr


def _as_function(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> np.ndarray:
    """``f`` as a float64 array of shape ``(n,)`` with finite entries;
    ``BadParameter`` otherwise."""
    arr = _as_values(f, "function")
    if arr.shape != (graph.n,):
        raise BadParameter(f"function has shape {arr.shape}, expected ({graph.n},)")
    return arr


def _finite_fsum(terms, what: str) -> float:
    """``math.fsum`` of ``terms``, which must round to a finite float."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a term or a sum overflows, or inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise NumericalFailure(f"{what} is not finite in float64")
    return total


def _edge_energy(graph: WeightedGraph, arr: np.ndarray, sign: float) -> float:
    """``sum_e m(e) (f(u) + sign f(v))^2`` of an array already read, exactly
    rounded, in Python floats, which never warn."""
    terms = zip(graph.w.tolist(), arr[graph.u].tolist(), arr[graph.v].tolist())
    # Scalar ``** 2`` is C ``pow``; the array square can differ in the last bit.
    return _finite_fsum((w * (a + sign * b) ** 2 for w, a, b in terms), "edge energy")


def _inner(graph: WeightedGraph, fa: np.ndarray, ga: np.ndarray) -> float:
    """``sum_v m(v) f(v) g(v)`` of two arrays already read, exactly rounded,
    in Python floats."""
    terms = zip(graph.vertex_measure.tolist(), fa.tolist(), ga.tolist())
    return _finite_fsum((m * f * g for m, f, g in terms), "inner product")


def dirichlet_form(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Edge sum ``sum_e m(e) (f(u) - f(v))^2``; equals ``<Delta f, f>``."""
    return _edge_energy(graph, _as_function(graph, f), -1.0)


def q_form(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Edge sum ``sum_e m(e) (f(u) + f(v))^2``; equals ``<(2I - Delta) f, f>``."""
    return _edge_energy(graph, _as_function(graph, f), 1.0)


def inner_product(
    graph: WeightedGraph,
    f: Sequence[float] | np.ndarray,
    g: Sequence[float] | np.ndarray,
) -> float:
    """Weighted inner product ``sum_v m(v) f(v) g(v)``."""
    return _inner(graph, _as_function(graph, f), _as_function(graph, g))


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
    """Parse the wire format produced by :func:`graph_to_json`.

    The parse and the build run with the cyclic collector paused: the parse
    makes one list per edge, and a collection started among them rescans
    every young list.  Neither step makes a reference cycle, so the pause
    leaves nothing for a later collection to free, and the payload is
    dropped before the collector runs again.  The pause is process-global;
    the collector is turned back on only if it was on at entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedGraph(f"not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or "edges" not in payload:
            raise MalformedGraph('a graph is a JSON object with an "edges" list')
        graph = WeightedGraph(payload["edges"], payload.get("labels"))
        del payload
        return graph
    finally:
        if enabled:
            gc.enable()

