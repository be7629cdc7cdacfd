"""Dense spectral computations for the normalized Laplacian.

The Laplacian is conjugate to the symmetric matrix
``N = D^{-1/2} W D^{-1/2}`` (``D`` the diagonal of vertex measures, ``W``
the graph's one dense weight matrix, ``graph.weight_matrix``), so all
eigensolves go through a symmetric eigensolver and are transformed back.  The
spectrum always lies in ``[0, 2]``; tiny excursions from rounding are clamped,
anything larger is a hard error.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySet, EmptySpectrum, NumericalFailure, ZeroFunction
from .graph import (
    WeightedGraph,
    _as_function,
    _as_set,
    _as_values,
    _edge_energy,
    _inner,
    weight_matrix,
)

__all__ = [
    "ZERO_THRESHOLD",
    "CLAMP_TOL",
    "Spectrum",
    "SignedBlockOperator",
    "AuxiliaryGraph",
    "random_walk_matrix",
    "laplacian_matrix",
    "symmetric_conjugate",
    "spectrum",
    "rayleigh",
    "hausdorff_asymmetry",
    "signed_conjugation",
    "auxiliary_graph",
]

# Eigenvalues below this are treated as the bottom of the spectrum.
ZERO_THRESHOLD = 1e-9
# Width of the clamp window around the exact range [0, 2].
CLAMP_TOL = 1e-9
# The two Hausdorff-asymmetry routes must agree this tightly.
_ROUTE_TOL = 1e-12


def random_walk_matrix(graph: WeightedGraph) -> np.ndarray:
    """Row-stochastic matrix ``P[v, u] = m(vu) / m(v)``."""
    return weight_matrix(graph) / graph.vertex_measure[:, None]


def laplacian_matrix(graph: WeightedGraph) -> np.ndarray:
    return np.eye(graph.n) - random_walk_matrix(graph)


def symmetric_conjugate(graph: WeightedGraph) -> np.ndarray:
    """``D^{-1/2} W D^{-1/2}``, symmetric and similar to the walk matrix."""
    scale = 1.0 / np.sqrt(graph.vertex_measure)
    return weight_matrix(graph) * scale[:, None] * scale[None, :]


@dataclass
class Spectrum:
    """Laplacian eigenvalues, ascending and clamped into ``[0, 2]``, plus the
    eigenfunctions and their worst residual when solved with vectors."""

    values: np.ndarray
    eigenvectors: np.ndarray | None = None
    max_residual: float | None = None

    @property
    def gap(self) -> float:
        """Smallest eigenvalue above ``ZERO_THRESHOLD``."""
        above = self.values[self.values > ZERO_THRESHOLD]
        if len(above) == 0:
            raise EmptySpectrum("no eigenvalue above the zero threshold")
        return float(above[0])

    @property
    def top(self) -> float:
        return float(self.values[-1])


def _clamp(values: np.ndarray) -> np.ndarray:
    low = values.min(initial=0.0)
    high = values.max(initial=0.0)
    if low < -CLAMP_TOL or high > 2.0 + CLAMP_TOL:
        raise NumericalFailure(
            f"eigenvalue outside [{-CLAMP_TOL}, {2 + CLAMP_TOL}]: range "
            f"[{low}, {high}]"
        )
    out = values.copy()
    out[out < 0.0] = 0.0
    out[out > 2.0] = 2.0
    return out


def spectrum(graph: WeightedGraph, eigenvectors: bool = False) -> Spectrum:
    """Full Laplacian spectrum via the symmetric conjugate.

    Without ``eigenvectors`` only the values are solved for.  With it the
    basis consists of Laplacian eigenfunctions (columns, aligned with
    ``values``), obtained from the symmetric eigenbasis by the ``D^{-1/2}``
    transform.  One matrix product gives the residual of every eigenpair; the
    worst relative residual in ``L^2(m)`` must be finite and within the zero
    threshold, else ``NumericalFailure`` names the first eigenpair that
    overflows or the worst residual.
    """
    if graph.n == 0:
        raise EmptySpectrum("graph has no vertices")
    if not eigenvectors:
        return Spectrum(_clamp(1.0 - np.linalg.eigvalsh(symmetric_conjugate(graph))[::-1]))
    nu, basis = np.linalg.eigh(symmetric_conjugate(graph))
    values = _clamp(1.0 - nu[::-1])
    m = graph.vertex_measure
    funcs = (basis / np.sqrt(m)[:, None])[:, ::-1]
    # Weights near the float64 maximum make the columns tiny and err * err
    # underflow.  A power-of-two scale up is exact, so a residual that did
    # not underflow keeps its bits.
    _, exponent = np.frexp(np.abs(funcs).max(axis=0))
    scaled = np.ldexp(funcs, -np.minimum(exponent, 0))
    with np.errstate(all="ignore"):  # judged just below
        err = laplacian_matrix(graph) @ scaled - scaled * values
        norm = m @ (scaled * scaled)
        rel = np.sqrt(m @ (err * err)) / np.sqrt(norm)
    bad = ~(np.isfinite(rel) & np.isfinite(norm))
    if bad.any():
        raise NumericalFailure(
            f"eigenpair {int(np.argmax(bad))}: residual or norm overflows"
        )
    worst = float(rel.max())
    if worst > ZERO_THRESHOLD:
        raise NumericalFailure(f"eigenpair residual {worst} above threshold")
    return Spectrum(values, funcs, worst)


def rayleigh(graph: WeightedGraph, f: Sequence[float] | np.ndarray) -> float:
    """Rayleigh quotient ``<Delta f, f> / <f, f>`` via the edge-sum form."""
    arr = _as_function(graph, f)
    norm = _inner(graph, arr, arr)
    if norm == 0.0:
        raise ZeroFunction("Rayleigh quotient of the zero function")
    return _edge_energy(graph, arr, -1.0) / norm


# ------------------------------------------------------- Hausdorff asymmetry


def _sup_distance(points: np.ndarray, target: np.ndarray) -> float:
    """sup over ``points`` of the distance to the finite set ``target``."""
    idx = np.searchsorted(target, points)
    left = np.where(idx > 0, np.abs(points - target[np.maximum(idx - 1, 0)]), np.inf)
    right = np.where(
        idx < len(target),
        np.abs(target[np.minimum(idx, len(target) - 1)] - points),
        np.inf,
    )
    return float(np.minimum(left, right).max())


def hausdorff_asymmetry(values: Sequence[float] | np.ndarray) -> float:
    """Hausdorff distance between the spectrum and its reflection ``2 - x``.

    Computed twice — as the full two-sided Hausdorff distance, and as the
    one-sided sup over reflected points (sufficient because the reflection is
    an isometric involution) — and the routes must agree to 1e-12.  Values
    that are not a one-axis array of finite numbers raise ``BadParameter``.
    """
    sigma = np.sort(_as_values(values, "spectrum"))
    if len(sigma) == 0:
        raise EmptySpectrum("asymmetry of an empty spectrum")
    reflected = np.sort(2.0 - sigma)
    one_sided = _sup_distance(reflected, sigma)
    full = max(_sup_distance(sigma, reflected), one_sided)
    if abs(full - one_sided) > _ROUTE_TOL:
        raise NumericalFailure(
            f"asymmetry routes disagree: {full} vs {one_sided}"
        )
    return full


# ------------------------------------------------------- signed conjugation


@dataclass
class SignedBlockOperator:
    """Outcome of conjugating the Laplacian by a partition sign function.

    The sign function ``T`` is +1 on the first class and -1 on the second;
    ``P_psi`` is the blocked walk operator (within-class transitions only).
    ``identity_residual`` measures the conjugation identity
    ``T^{-1} Delta T = 2I - Delta - 2 P_psi`` entrywise, and ``values`` are
    the conjugated operator's eigenvalues (ascending, clamped), which must
    reproduce the graph's spectrum.  ``blocked_norm`` is the operator norm of
    ``P_psi`` on ``L^2(m)``.  The harness judges all three.
    """

    mask_a: int
    mask_b: int
    identity_residual: float
    values: np.ndarray
    blocked_norm: float


def _blocked(matrix: np.ndarray, side: np.ndarray) -> np.ndarray:
    """Zero out all entries that cross between the two classes."""
    same = side[:, None] == side[None, :]
    return np.where(same, matrix, 0.0)


def signed_conjugation(graph: WeightedGraph, mask_a: int) -> SignedBlockOperator:
    """Conjugate by the partition ``(A, complement of A)``; ``EmptySet`` when
    ``A`` is empty or the whole vertex set."""
    side = _as_set(graph, mask_a)
    if side.all():
        raise EmptySet("partition classes must both be nonempty")
    mask_a = operator.index(mask_a)
    mask_b = ((1 << graph.n) - 1) ^ mask_a
    signs = np.where(side, 1.0, -1.0)

    walk = random_walk_matrix(graph)
    lap = np.eye(graph.n) - walk
    p_psi = _blocked(walk, side)
    conjugated = lap * signs[None, :] / signs[:, None]
    target = 2.0 * np.eye(graph.n) - lap - 2.0 * p_psi
    identity_residual = float(np.abs(conjugated - target).max())

    # Independent spectral route: the conjugated operator symmetrizes to
    # T (I - N) T, whose eigenvalues must reproduce the Laplacian spectrum.
    n_sym = symmetric_conjugate(graph)
    sym_conj = (np.eye(graph.n) - n_sym) * signs[:, None] * signs[None, :]
    values = _clamp(np.sort(np.linalg.eigvalsh(sym_conj)))
    # P_psi is similar to the blocked N, so its L^2(m) norm is that one's.
    blocked_norm = float(np.abs(np.linalg.eigvalsh(_blocked(n_sym, side))).max())
    return SignedBlockOperator(mask_a, mask_b, identity_residual, values, blocked_norm)


# ----------------------------------------------------------- auxiliary graph


@dataclass
class AuxiliaryGraph:
    """Sign-splitting companion graph of ``(G, f)``.

    Every vertex that shares an edge with a same-sign neighbor gains a mirror
    vertex; each same-sign edge ``uv`` is replaced by the pair ``u v'`` and
    ``u' v``.  Mirrors take the indices ``n, n+1, ...`` in the order of the
    vertices they mirror.  The companion function takes ``|f|`` on original
    vertices and 0 on mirrors.  It should preserve the norm while the
    Dirichlet energy drops below the original's ``(2I - Delta)``-energy; the
    harness measures and judges both relations.
    """

    graph: WeightedGraph
    values: np.ndarray


def auxiliary_graph(
    graph: WeightedGraph, f: Sequence[float] | np.ndarray
) -> AuxiliaryGraph:
    arr = _as_function(graph, f)
    u, v, w = graph.u, graph.v, graph.w
    # Signs, not the product, which underflows or overflows at extreme scales.
    same = np.sign(arr[u]) * np.sign(arr[v]) > 0.0
    needs_mirror = np.unique(np.concatenate([u[same], v[same]]))
    image = np.zeros(graph.n, dtype=np.int64)
    image[needs_mirror] = graph.n + np.arange(len(needs_mirror))
    aux = WeightedGraph(np.concatenate([
        np.column_stack([u[~same], v[~same], w[~same]]),
        np.column_stack([u[same], image[v[same]], w[same]]),
        np.column_stack([image[u[same]], v[same], w[same]]),
    ]))
    values = np.concatenate([np.abs(arr), np.zeros(len(needs_mirror))])
    return AuxiliaryGraph(aux, values)
