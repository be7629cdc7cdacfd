"""Generators for the worked example families, with their known invariants.

Each family is a finite truncation of a (mostly infinite) weighted graph with
analytically understood behavior: half-lines with polynomial or geometric
edge weights, a pendant ladder, complete graphs with product or
factorial-type weights, and the unit-weight classics.  Alongside the
generators live the closed-form invariant targets and the per-tail witness
ratios used to cross-check the exact finite-graph algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import BadParameter, NoClosedForm, NoTailStructure, TooLarge
from .graph import WeightedGraph, _integer, _real
from .kgraph import SIZE_LIMIT, PSequence, truncate_K

__all__ = ["FAMILIES", "FamilySpec", "ClosedForm", "generate", "closed_form",
           "tail_ratio_trace"]

FAMILIES = (
    "complete_unit",
    "cycle",
    "path",
    "halfline_m3",
    "halfline_m4",
    "ladder_L",
    "K_m1",
    "K_m2",
)

# Convergence modes for closed-form targets.
EXACT = "exact-at-truncation"
LIMIT = "limit-as-N-grows"
LOWER_BOUND = "lower-bound"


@dataclass(frozen=True)
class FamilySpec:
    """A family name, truncation size, and whichever parameters it takes.

    ``size`` counts edges for the half-lines, rungs for the ladder, and
    vertices elsewhere.  ``r`` is the geometric ratio (half-line m4, ladder
    rungs), ``rho`` the ladder rail ratio (0 < rho <= r), and ``p`` the
    probability sequence for the product-weight complete graph.  Given
    ratios are stored as Python floats, checked against their ranges when a
    family uses them.
    """

    family: str
    size: int
    r: float | None = None
    rho: float | None = None
    p: PSequence | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise BadParameter(f"unknown family {self.family!r}")
        object.__setattr__(self, "size", _integer(self.size, "size"))
        for name in ("r", "rho"):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, _real(value, name))
        if self.p is not None and not isinstance(self.p, PSequence):
            raise BadParameter(f"p must be a PSequence, got {self.p!r}")


def _need_ratio(spec: FamilySpec) -> float:
    if spec.r is None or not 0.0 < spec.r < 1.0:
        raise BadParameter(f"{spec.family} needs a ratio r in (0, 1)")
    return spec.r


def _ladder_ratios(spec: FamilySpec) -> tuple[float, float]:
    r = _need_ratio(spec)
    rho = r if spec.rho is None else spec.rho
    if not 0.0 < rho <= r:
        raise BadParameter(f"ladder rail ratio {rho} outside (0, r]")
    return r, rho


def _check_size(spec: FamilySpec, minimum: int):
    if spec.size < minimum:
        raise BadParameter(
            f"{spec.family} needs size >= {minimum}, got {spec.size}"
        )


def _check_edges(spec: FamilySpec):
    """``TooLarge`` when the truncation would have more than ``SIZE_LIMIT``
    edges (an upper bound; the complete families may drop underflowed
    weights)."""
    n = max(spec.size, 0)
    complete = spec.family in ("complete_unit", "K_m1", "K_m2")
    edges = n * (n - 1) // 2 if complete else 2 * n + 1
    if edges > SIZE_LIMIT:
        raise TooLarge(
            f"{spec.family} of size {n} has up to {edges} edges,"
            f" more than the {SIZE_LIMIT} a generated graph may have"
        )


def generate(spec: FamilySpec) -> WeightedGraph:
    """Build the finite truncation described by ``spec``; ``TooLarge`` beyond
    ``SIZE_LIMIT`` edges."""
    _check_edges(spec)
    n = spec.size
    if spec.family == "complete_unit":
        _check_size(spec, 2)
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        return WeightedGraph(edges)
    if spec.family == "cycle":
        _check_size(spec, 3)
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        return WeightedGraph(edges)
    if spec.family == "path":
        _check_size(spec, 2)
        return WeightedGraph([(i, i + 1, 1.0) for i in range(n - 1)])
    if spec.family == "halfline_m3":
        _check_size(spec, 1)
        return WeightedGraph([(i - 1, i, 1.0 / (i * i)) for i in range(1, n + 1)])
    if spec.family == "halfline_m4":
        _check_size(spec, 1)
        r = _need_ratio(spec)
        return WeightedGraph([(i - 1, i, r**i) for i in range(1, n + 1)])
    if spec.family == "ladder_L":
        _check_size(spec, 1)
        r, rho = _ladder_ratios(spec)
        # Rail vertices 0..n at indices 0..n, pendant vertices 1..n at
        # indices n+1..2n; the extra unit edge ties the rail start to the
        # first pendant.
        edges = [(i, i + 1, rho**i) for i in range(n)]
        edges += [(i, n + i, r**i) for i in range(1, n + 1)]
        edges.append((0, n + 1, 1.0))
        labels = [f"v{i}" for i in range(n + 1)] + [f"w{i}" for i in range(1, n + 1)]
        return WeightedGraph(edges, labels=labels)
    if spec.family == "K_m1":
        if spec.p is None:
            raise BadParameter("K_m1 needs a probability sequence")
        return truncate_K(spec.p, n)
    if spec.family == "K_m2":
        _check_size(spec, 2)
        edges = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if j - i == 1:
                    w = 1.0 / (j * j)
                else:
                    # 171! overflows float64; those weights are below the
                    # subnormal range anyway, i.e. zero.
                    w = 1.0 / math.factorial(j) if j <= 170 else 0.0
                if w > 0.0:
                    edges.append((i - 1, j - 1, w))
        return WeightedGraph(edges, labels=list(range(1, n + 1)))
    raise BadParameter(f"unknown family {spec.family!r}")


@dataclass(frozen=True)
class ClosedForm:
    invariant: str
    value: float
    mode: str


def closed_form(spec: FamilySpec) -> list[ClosedForm]:
    """Known invariant targets for the family, tagged with how the finite
    truncations relate to them (exact, limiting, or one-sided)."""
    n = spec.size
    if spec.family == "complete_unit":
        _check_size(spec, 2)
        value = n / (n - 1)
        return [
            ClosedForm("spectral_gap", value, EXACT),
            ClosedForm("lambda_top", value, EXACT),
        ]
    if spec.family == "cycle":
        _check_size(spec, 3)
        if n % 2 == 0:
            return [
                ClosedForm("kappa", 0.0, EXACT),
                ClosedForm("dual_cheeger", 1.0, EXACT),
            ]
        return [ClosedForm("kappa", 0.5, EXACT)]
    if spec.family == "path":
        _check_size(spec, 2)
        return [
            ClosedForm("kappa", 0.0, EXACT),
            ClosedForm("dual_cheeger", 1.0, EXACT),
        ]
    if spec.family == "halfline_m3":
        return [ClosedForm("cheeger", 0.0, LIMIT)]
    if spec.family == "halfline_m4":
        r = _need_ratio(spec)
        return [ClosedForm("cheeger", (1.0 - r) / (1.0 + r), LIMIT)]
    if spec.family == "ladder_L":
        r, rho = _ladder_ratios(spec)
        if rho < r:
            return [ClosedForm("dual_cheeger", 1.0, LIMIT)]
        # With equal ratios the alternating-partition value is only a lower
        # bound: finite truncations reach strictly higher ratios.
        return [ClosedForm("dual_cheeger", 4.0 * r / (3.0 * r + 1.0), LOWER_BOUND)]
    if spec.family == "K_m1":
        if spec.p is None:
            raise BadParameter("K_m1 needs a probability sequence")
        return [ClosedForm("cheeger", (1.0 - spec.p.sum_squares()) / 2.0, LOWER_BOUND)]
    if spec.family == "K_m2":
        return [ClosedForm("cheeger", 0.0, LIMIT)]
    raise NoClosedForm(f"no closed form recorded for {spec.family!r}")


def _inv_square_tail(n: int) -> float:
    """``sum_{i > n} i^{-2}`` via explicit terms plus an asymptotic tail."""
    m = max(n, 40)
    head = math.fsum(1.0 / (i * i) for i in range(n + 1, m + 1))
    x = float(m)
    tail = 1.0 / x - 1.0 / (2 * x**2) + 1.0 / (6 * x**3) - 1.0 / (30 * x**5) + 1.0 / (
        42 * x**7
    )
    return head + tail


def tail_ratio_trace(spec: FamilySpec, n_range: Iterable[int]) -> list[float]:
    """Analytic witness ratios along the family's tail sets.

    For the half-lines these are the isoperimetric ratios of the tails
    ``T_n = {n, n+1, ...}``; for the ladder they are the two-sided mass
    ratios of the standard split partitions starting at index ``n``.
    """
    ns = [_integer(n, "tail index") for n in n_range]
    if spec.family == "halfline_m4":
        r = _need_ratio(spec)
        value = (1.0 - r) / (1.0 + r)
        for n in ns:
            if n < 1:
                raise BadParameter("tail sets start at index 1")
        return [value for _ in ns]
    if spec.family == "halfline_m3":
        out = []
        for n in ns:
            if n < 1:
                raise BadParameter("tail sets start at index 1")
            boundary = 1.0 / (n * n)
            interior = _inv_square_tail(n)
            out.append(boundary / (boundary + 2.0 * interior))
        return out
    if spec.family == "ladder_L":
        r, rho = _ladder_ratios(spec)
        out = []
        for n in ns:
            if n < 0:
                raise BadParameter("ladder partitions start at index 0")
            if rho < r:
                if n < 1:
                    raise BadParameter(
                        "distinct-ratio ladder partitions start at index 1"
                    )
                # the first pendant also carries the unit tie edge
                tie = 1.0 if n == 1 else 0.0
                out.append(
                    2.0 * r**n / (2.0 * r**n + rho ** (n - 1) + rho**n + tie)
                )
            elif n == 0:
                # Start-at-the-root variant: the extra unit edges dominate.
                out.append((1.0 + r) / 2.0)
            elif n == 1:
                out.append(2.0 * r / (1.0 + r))
            else:
                out.append(4.0 * r / (3.0 * r + 1.0))
        return out
    raise NoTailStructure(f"{spec.family!r} has no tail-set witness family")
