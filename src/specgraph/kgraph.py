"""Analytic eigenvalue solver for the summable complete graph on the integers.

Vertices 1, 2, 3, ... carry a strictly decreasing probability sequence
``p_1 > p_2 > ...`` summing to 1, and every pair ``i != j`` is joined by an
edge of weight ``p_i p_j``.  Writing ``q_i = 1 - p_i``, ``alpha_i = -p_i/q_i``
and ``r_i = 1/q_i``, the walk-operator eigenvalues are exactly the solutions
``lambda`` of the secular equation

    F(lambda) = sum_j alpha_j / (alpha_j - lambda) = 1,

one root per pole interval ``(alpha_i, alpha_{i+1})``, plus the trivial root
``lambda = 1`` (constants).  The Laplacian eigenvalues are ``mu = 1 - lambda``
and interlace the reciprocals: ``r_{i+1} < mu_i < r_i``, decreasing to 1.

Everything here is evaluated with certified truncation: the sequence tail is
geometric, so the dropped part of every sum has a closed-form bound which is
carried through to the reported residuals.  Indices into the sequence are
1-based throughout, matching the subscripts above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import (
    BadParameter,
    BracketCollapse,
    DegenerateQuadratic,
    InsufficientRoots,
    NumericalFailure,
    PoleProximity,
    TooLarge,
)
from .graph import WeightedGraph, _integer, _real
from .reports import CheckReport

__all__ = [
    "PSequence",
    "SecularRoot",
    "KappaEstimate",
    "secular_F",
    "p_eigenvalue",
    "delta_eigenvalue",
    "trivial_root",
    "eigenfunction",
    "mu_top_refined",
    "kappa_K",
    "asymmetry_K",
    "hilbert_schmidt_sum",
    "truncate_K",
]

# Evaluating F closer to a pole than this is refused.
POLE_TOL = 1e-13
# Pole intervals narrower than this are not resolvable in float64.
BRACKET_MIN = 1e-15
# Allowed root residual beyond the certified truncation tail.
RESIDUAL_BUDGET = 1e-12
# Truncation-tail target used while root-finding and evaluating F.
_TAIL_TARGET = 1e-13
# Certified truncation error of the Hilbert-Schmidt sum.
_HS_TAIL_TARGET = 1e-12
_MAX_TERMS = 1_000_000
# Threshold partitions scanned for the uncertified kappa estimate.
_KAPPA_SCAN = 200
# Roots ``asymmetry_K`` computes before it gives up certifying.
_MAX_ROOTS = 400
# Most evaluations ``_enclose`` spends on one root.
_ENCLOSE_STEPS = 12
# Most edges ``truncate_K`` and ``families.generate`` build, most values
# ``eigenfunction`` returns, and most points ``specgraph trace`` samples: each
# is held as Python objects or dense arrays first, so a size of 10^11 would
# exhaust memory before any later check ran.
SIZE_LIMIT = 1 << 22


@dataclass(frozen=True)
class PSequence:
    """Strictly decreasing probability weights with a geometric tail.

    The first ``len(head)`` values are explicit; beyond the head the sequence
    continues as ``p_{N+k} = head[-1] * ratio**k``.  The total sum must be 1
    (to 1e-14), which keeps every tail sum in closed form.
    """

    head: tuple[float, ...]
    ratio: float

    def __post_init__(self):
        if not isinstance(self.head, Iterable):
            raise BadParameter(f"sequence head must be a sequence, got {self.head!r}")
        head = tuple(_real(x, "a sequence weight") for x in self.head)
        ratio = _real(self.ratio, "the tail ratio")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "ratio", ratio)
        if len(head) == 0:
            raise BadParameter("sequence head is empty")
        if not 0.0 < self.ratio < 1.0:
            raise BadParameter(f"tail ratio {self.ratio} outside (0, 1)")
        for x in head:
            if not 0.0 < x < 1.0:
                raise BadParameter(f"weight {x} outside (0, 1)")
        for a, b in zip(head, head[1:]):
            if not a > b:
                raise BadParameter("head weights must strictly decrease")
        total = math.fsum(head) + self.tail_sum
        if abs(total - 1.0) > 1e-14:
            raise BadParameter(f"weights sum to {total!r}, not 1")

    @property
    def tail_sum(self) -> float:
        """Sum of all terms beyond the explicit head."""
        return self.head[-1] * self.ratio / (1.0 - self.ratio)

    def p(self, i: int) -> float:
        i = _integer(i, "sequence index")
        if i < 1:
            raise BadParameter("sequence indices start at 1")
        n = len(self.head)
        if i <= n:
            return self.head[i - 1]
        return self.head[-1] * self.ratio ** (i - n)

    def alpha(self, i: int) -> float:
        p = self.p(i)
        return -p / (1.0 - p)

    def r(self, i: int) -> float:
        return 1.0 / (1.0 - self.p(i))

    def sum_squares(self) -> float:
        """Closed-form ``sum_i p_i^2`` (head explicitly, tail geometrically)."""
        tail = self.head[-1] ** 2 * self.ratio**2 / (1.0 - self.ratio**2)
        return math.fsum(x * x for x in self.head) + tail

    def remainder(self, j: int) -> float:
        """Closed-form ``sum_{i > j} p_i`` (``j = 0`` gives the full sum)."""
        j = _integer(j, "remainder index")
        if j < 0:
            raise BadParameter("remainder index must be nonnegative")
        n = len(self.head)
        if j >= n:
            return self.head[-1] * self.ratio ** (j + 1 - n) / (1.0 - self.ratio)
        return math.fsum(self.head[j:]) + self.tail_sum

    def to_payload(self) -> dict:
        return {"head": list(self.head), "tail": {"ratio": self.ratio}}


@lru_cache(maxsize=128)
def _tables(p: PSequence, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``terms`` weights ``p_i`` and poles ``alpha_i``, as cached
    read-only float64 arrays.  ``np.cumprod`` builds the tail left to right,
    ``p_{N+k} = p_{N+k-1} * ratio``, which can differ in the last bit from the
    ``head[-1] * ratio**k`` of ``PSequence.p``.  Sums over the table go through
    ``math.fsum``, so they are exactly rounded whatever numpy's order."""
    n = len(p.head)
    tail = np.cumprod([p.head[-1]] + [p.ratio] * (terms - n))[1:]
    ps = np.concatenate([p.head[:terms], tail])
    alphas = -ps / (1.0 - ps)
    ps.flags.writeable = False
    alphas.flags.writeable = False
    return ps, alphas


def _weights(p: PSequence, count: int) -> np.ndarray:
    """First ``count`` weights in the ``head[-1] * ratio**k`` form of
    ``PSequence.p``, as a fresh array."""
    return np.array([p.p(i) for i in range(1, count + 1)])


def _first_terms(p: PSequence) -> int:
    """Where ``_evaluate`` and ``hilbert_schmidt_sum`` start the truncation that
    each doubles, up to ``_MAX_TERMS``, until its tail meets its target."""
    return max(2 * len(p.head) + 16, 32)


def _evaluate(p: PSequence, lam: float):
    """Truncated ``F(lam)`` with a certified bound on the dropped tail.

    Returns ``(value, tail_bound, terms, alphas)``.  The truncation doubles
    until the unseen poles all lie between the last computed pole and 0, on
    the far side of ``lam``.  That table gives ``delta``, the distance from
    ``lam`` to the poles and 0, once: later poles lie beyond ``lam``, so
    ``delta`` is fixed once ``lam`` is covered.  The truncation then doubles
    on ``p.remainder`` alone until the tail bound ``remainder(J) / ((1 - p_1)
    delta)`` meets ``_TAIL_TARGET``; the table of that count gives the sum.
    The first doubling stops at ``_MAX_TERMS``, or when a doubling leaves
    the last pole where it was: the subnormal weights have stopped
    shrinking (``p * ratio`` rounds back to ``p``), so no later table covers
    more.  A point still beyond the poles then lies within ``POLE_TOL`` of
    the accumulation point 0 and is refused as near a pole, or else is
    ``NumericalFailure``.  ``lam`` is a Python float that the caller has
    already read.
    """
    terms, last = _first_terms(p), None
    _, alphas = _tables(p, terms)
    # lam beyond the computed poles: no tail bound holds yet.
    while lam < 0.0 and alphas[-1] < lam and terms < _MAX_TERMS and alphas[-1] != last:
        terms, last = min(_MAX_TERMS, terms * 2), alphas[-1]
        _, alphas = _tables(p, terms)
    if lam < 0.0 and alphas[-1] < lam and not abs(lam) < POLE_TOL:
        raise NumericalFailure(f"cannot cover {lam} with {_MAX_TERMS} pole terms")
    delta = min(float(np.abs(lam - alphas).min()), abs(lam))
    if delta < POLE_TOL:
        raise PoleProximity(f"evaluation point {lam} within {delta} of a pole")
    scale = (1.0 - p.head[0]) * delta
    tail = p.remainder(terms) / scale
    while tail > _TAIL_TARGET and terms < _MAX_TERMS:
        terms = min(_MAX_TERMS, terms * 2)
        tail = p.remainder(terms) / scale
    if tail > _TAIL_TARGET:
        raise NumericalFailure(f"tail bound {tail} above target {_TAIL_TARGET} "
                               f"at {terms} terms")
    _, alphas = _tables(p, terms)
    value = math.fsum((alphas / (alphas - lam)).tolist())
    return value, tail, terms, alphas


def secular_F(p: PSequence, lam: float) -> tuple[float, float]:
    """``F(lam)`` with a certified truncation-error bound ``<= 1e-13``.
    ``BadParameter`` when ``lam`` is not a finite real number."""
    value, tail, _, _ = _evaluate(p, _real(lam, "evaluation point"))
    return value, tail


@dataclass(frozen=True)
class SecularRoot:
    """One certified root of the secular equation.

    ``kind`` is ``"walk"`` (root of ``F`` in a pole interval) or
    ``"laplacian"`` (the same root mapped through ``mu = 1 - lambda`` into
    its reciprocal bracket).  ``residual`` is ``|F - 1|`` at the root,
    ``tail_bound`` the certified truncation error of that evaluation, and
    ``uncertainty`` a half-width enclosing the exact root.
    """

    index: int
    kind: str
    bracket: tuple[float, float]
    value: float
    residual: float
    truncation_terms: int
    tail_bound: float
    uncertainty: float
    membership_sum: float


def _derivative(lam: float, alphas) -> float:
    """Truncated ``F'(lam) = sum alpha_j/(alpha_j - lam)^2`` (negative)."""
    gap = alphas - lam
    return math.fsum((alphas / (gap * gap)).tolist())


def _membership(p: PSequence, lam: float, terms: int) -> float:
    """``sum_j p_j (lam - alpha_j)^{-2}`` — square-summability of the root's
    eigenfunction — truncated plus its certified tail."""
    ps, alphas = _tables(p, terms)
    delta = min(float(np.abs(lam - alphas).min()), abs(lam))
    gap = lam - alphas
    partial = math.fsum((ps / (gap * gap)).tolist())
    return partial + p.remainder(terms) / (delta * delta)


def _side(val: float, terms: np.ndarray) -> tuple[int, float]:
    """Which side of the root an evaluation ``val = F^(x)`` from the float
    terms ``alpha_j / (alpha_j - x)`` certifies, and its margin.

    The side is 1 when ``val - 1`` exceeds the margin
    ``2 _TAIL_TARGET + 2^-46 sum |terms|``, -1 when ``1 - val`` does, and 0
    otherwise; ``p_eigenvalue`` proves what the first two mean.
    """
    margin = 2.0 * _TAIL_TARGET + 2.0**-46 * float(np.abs(terms).sum())
    if val - 1.0 > margin:
        return 1, margin
    if 1.0 - val > margin:
        return -1, margin
    return 0, margin


def _two_pole_step(w: float, d1: float, d2: float, s1: float, s2: float):
    """Zero ``eta`` in ``(d1, d2)`` of the two-pole model of ``F - 1``.

    At a point ``x`` with ``w = F(x) - 1``, pole offsets ``d1 < 0 < d2`` and
    slopes ``s1, s2 < 0`` of the sums over the poles left and right of ``x``,
    each sum is replaced by a constant plus one term at its nearest pole,
    matched in value and slope (R.-C. Li's middle way, as in LAPACK
    ``dlaed4``): ``c + s1 d1^2/(d1 - eta) + s2 d2^2/(d2 - eta)`` with
    ``c = w - d1 s1 - d2 s2``.  It falls from +inf to -inf on the interval,
    and clearing denominators leaves ``c eta^2 - a eta + b = 0``.  ``None``
    when rounding puts no quadratic root inside.
    """
    a = (d1 + d2) * w - d1 * d2 * (s1 + s2)
    b = d1 * d2 * w
    c = w - d1 * s1 - d2 * s2
    if c == 0.0:
        roots = [b / a] if a != 0.0 else []
    else:
        q = 0.5 * (a + math.copysign(math.sqrt(max(a * a - 4.0 * b * c, 0.0)), a))
        roots = [q / c, b / q] if q != 0.0 else []
    inside = [eta for eta in roots if d1 < eta < d2]
    return inside[0] if inside else None


def _enclose(p: PSequence, i: int, a_lo: float, a_hi: float):
    """Certified points ``x_l < x_r`` around root ``i`` and the table poles
    ``alpha_i``, ``alpha_{i+1}`` of its interval, as ``(x_l, x_r, pole_l,
    pole_r)``.

    Starts at the midpoint of ``(a_lo, a_hi)`` and takes two-pole steps,
    kept inside the sign bracket of the points evaluated so far.  Once a step
    is shorter than ``sqrt(h * width)`` the model root ``y`` is off by about
    ``h`` or less (the steps converge quadratically), so it probes
    ``y -+ h`` instead, where ``h`` is twice the margin over ``|F'|`` (four
    times wider after each probe that certifies nothing).  Every evaluation
    that certifies a side tightens that side.  Done when both sides lie
    within ``2h`` of ``y``, or within 1e-11 of the width (a tenth of where
    the bisection stops); otherwise the best points after
    ``_ENCLOSE_STEPS`` evaluations, with ``-inf`` or ``inf`` for a side never
    certified.  An evaluation that raises, or a point outside the table
    interval, gives ``(-inf, inf)``.
    """
    x_l, x_r = -math.inf, math.inf
    lo, hi = a_lo, a_hi
    width = a_hi - a_lo
    scale, probing = 2.0, False
    x = 0.5 * (a_lo + a_hi)
    try:
        for _ in range(_ENCLOSE_STEPS):
            val, _, _, alphas = _evaluate(p, x)
            if alphas.size <= i or not alphas[i - 1] < x < alphas[i]:
                return -math.inf, math.inf, a_lo, a_hi
            pole_l, pole_r = float(alphas[i - 1]), float(alphas[i])
            gap = alphas - x
            terms = alphas / gap
            side, margin = _side(val, terms)
            if side > 0:
                x_l = max(x_l, x)
            elif side < 0:
                x_r = min(x_r, x)
            if val > 1.0:
                lo = max(lo, x)
            else:
                hi = min(hi, x)
            if probing and side == 0:
                scale *= 4.0
            slopes = terms / gap
            s1, s2 = float(slopes[:i].sum()), float(slopes[i:].sum())
            eta = _two_pole_step(val - 1.0, pole_l - x, pole_r - x, s1, s2)
            y = x + eta if eta is not None else 0.5 * (lo + hi)
            h = scale * max(margin / -(s1 + s2), math.ulp(y))
            reach = max(1e-11 * width, 2.0 * h)
            if x_l >= y - reach and x_r <= y + reach:
                break
            probing = abs(y - x) <= max(reach, math.sqrt(h * width))
            if not probing:
                x = y if lo < y < hi else 0.5 * (lo + hi)
            else:
                x = y - h if x_l < y - reach else y + h
                if not pole_l < x < pole_r:
                    break
    except (PoleProximity, NumericalFailure):
        return -math.inf, math.inf, a_lo, a_hi
    return x_l, x_r, pole_l, pole_r


def p_eigenvalue(p: PSequence, i: int, tol: float = 1e-9) -> SecularRoot:
    """Unique root of ``F = 1`` in ``(alpha_i, alpha_{i+1})``.

    Bisection (valid because F decreases from +inf to -inf across the
    interval) down to 1e-10 of the bracket width, then at most five Newton
    steps safeguarded by the bracket, then more bisection only while the best
    residual is over budget.  The result carries its residual,
    certified tail bound, and an enclosure half-width; their combination must
    stay within ``tol``, which must be positive and finite.

    The bisection is replayed from an enclosure.  ``_enclose`` first finds
    points ``x_l < x_r`` in the interval between the table poles
    ``alpha_i < alpha_{i+1}`` whose evaluations clear the margin of
    ``_side``.  The bisection then takes every midpoint at or left of
    ``x_l`` as ``F^ > 1`` and every one at or right of ``x_r`` as
    ``F^ <= 1`` without evaluating it, provided the evaluation it skips is
    sure to return.  It evaluates the midpoints in between.  So ``lo``,
    ``hi`` and everything after them are bit for bit those of evaluating
    every midpoint, and each ``PoleProximity`` or ``NumericalFailure`` is
    raised at the same point with the same message.

    *Returning.* ``_evaluate`` grows its truncation over a fixed doubling
    sequence from ``_first_terms(p)`` up to ``T = max(_MAX_TERMS,
    _first_terms(p))``.  At a point ``x`` strictly between the table poles
    every truncation of at least ``i + 1`` terms covers ``x``, and its
    distance to the poles is ``d = min(x - alpha_i, alpha_{i+1} - x)``,
    rounded as the evaluation rounds it.  An enclosure evaluation has
    returned with ``i + 1`` terms or more, so the growth reaches coverage by
    ``T``, and no stall stops it first (a stall would make the two poles
    equal).  So the evaluation at ``x`` returns when ``d >= POLE_TOL`` and
    ``remainder(T) / ((1 - p_1) d) <= _TAIL_TARGET``: it stops at the first
    truncation whose tail meets the target, and ``T`` meets it at the
    latest.  The skip test computes exactly that.

    *Sign.* Let ``F`` be the secular sum over the table poles, ``P(x)`` the
    sum of its terms ``t_j = alpha_j / (alpha_j - x)`` for ``j <= i``
    (positive) and ``N(x)`` the sum of ``|t_j|`` for ``j > i``.  Between
    the poles ``P`` falls and ``N`` rises with ``x``.  An evaluation that
    returns has ``|F^ - F| <= tail + 4u (P + N)`` with ``u = 2^-53`` and
    ``tail <= _TAIL_TARGET``, since each term takes two correctly rounded
    operations and ``fsum`` rounds once.  (Terms that underflow add at most
    ``2^-1074`` each.)  So for ``x <= x_l``,

        F^(x) - 1 >= (1 - 4u) P(x) - (1 + 4u) N(x) - 1 - tail(x)
                  >= (1 - 4u) P(x_l) - (1 + 4u) N(x_l) - 1 - tail(x)
                  >= F^(x_l) - 1 - tail(x_l) - tail(x) - 8u (P + N)(x_l),

    and ``(P + N)(x_l)`` is at most ``tail(x_l)`` plus the sum ``S`` of the
    float ``|t_j|`` at ``x_l`` (numpy's pairwise sum: relative error below
    ``40u`` up to ``_MAX_TERMS`` terms) times ``1 + 43u``.  The margin
    ``2 _TAIL_TARGET + 128u S`` exceeds that bound with a slack near
    ``120u S``, and ``S >= 1`` (each term with ``j <= i`` is at least 1),
    which covers the rounding of the margin and of ``F^ - 1``.  So
    ``F^(x) > 1``, and the mirror argument gives ``F^(x) < 1`` for
    ``x >= x_r``.
    """
    i = _integer(i, "root index")
    if i < 1:
        raise BadParameter("root indices start at 1")
    tol = _real(tol, "tolerance")
    if not tol > 0.0:
        raise BadParameter(f"tolerance must be positive, got {tol!r}")
    a_lo, a_hi = p.alpha(i), p.alpha(i + 1)
    width = a_hi - a_lo
    if width < BRACKET_MIN:
        raise BracketCollapse(
            f"pole interval {i} has width {width}; spectrum beyond lies in "
            f"(1, {p.r(i)}) in Laplacian coordinates"
        )
    x_l, x_r, pole_l, pole_r = _enclose(p, i, a_lo, a_hi)
    rest = p.remainder(max(_MAX_TERMS, _first_terms(p)))
    lo, hi = a_lo, a_hi
    for _ in range(200):
        if hi - lo <= 1e-10 * width:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        d = min(mid - pole_l, pole_r - mid)
        if (x_l < mid < x_r or d < POLE_TOL
                or rest / ((1.0 - p.head[0]) * d) > _TAIL_TARGET):
            above = _evaluate(p, mid)[0] > 1.0
        else:
            above = mid <= x_l
        if above:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    if not lo < lam < hi:
        lam = lo if lo > a_lo else hi

    val, tail, terms, alphas = _evaluate(p, lam)
    best = (abs(val - 1.0), lam, tail, terms, alphas)
    for _ in range(5):
        if val > 1.0:
            lo = max(lo, lam)
        else:
            hi = min(hi, lam)
        deriv = _derivative(lam, alphas)
        if deriv >= 0.0:
            break
        cand = lam - (val - 1.0) / deriv
        if cand == lam:
            # Correction below one ulp: converged.
            break
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
            if cand == lam:
                break
        lam = cand
        val, tail, terms, alphas = _evaluate(p, lam)
        if abs(val - 1.0) < best[0]:
            best = (abs(val - 1.0), lam, tail, terms, alphas)
    if val > 1.0:
        lo = max(lo, lam)
    else:
        hi = min(hi, lam)

    residual, lam, tail, terms, alphas = best
    # Still over budget: halve the bracket, keeping the best point, until the
    # residual fits or the bracket is down to adjacent floats.
    while residual > RESIDUAL_BUDGET + tail:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise NumericalFailure(
                f"root {i} residual {residual} beyond budget {RESIDUAL_BUDGET + tail}"
            )
        val, *rest = _evaluate(p, mid)
        if val > 1.0:
            lo = mid
        else:
            hi = mid
        if abs(val - 1.0) < residual:
            residual, lam, (tail, terms, alphas) = abs(val - 1.0), mid, rest
    deriv = _derivative(lam, alphas)
    if residual + tail > tol:
        raise NumericalFailure(
            f"root {i}: residual + tail {residual + tail} above tolerance {tol}"
        )
    uncertainty = (hi - lo) + (residual + tail) / max(abs(deriv), 1e-300)
    membership = _membership(p, lam, terms)
    return SecularRoot(
        i, "walk", (a_lo, a_hi), lam, residual, terms, tail, uncertainty, membership
    )


def delta_eigenvalue(p: PSequence, i: int, tol: float = 1e-9) -> SecularRoot:
    """Laplacian eigenvalue ``mu_i = 1 - lambda_i`` with its reciprocal
    bracket certificate ``r_{i+1} < mu_i < r_i``."""
    walk = p_eigenvalue(p, i, tol)
    mu = 1.0 - walk.value
    lo, hi = p.r(i + 1), p.r(i)
    if not lo < mu < hi:
        raise NumericalFailure(
            f"transformed root {mu} escapes its bracket ({lo}, {hi})"
        )
    return replace(walk, kind="laplacian", bracket=(lo, hi), value=mu)


def trivial_root(p: PSequence) -> SecularRoot:
    """The root ``lambda = 1`` (constant functions; Laplacian eigenvalue 0).

    ``F(1) = 1`` holds term by term since ``alpha_j/(alpha_j - 1) = p_j``;
    the returned residual is the evaluated defect, index 0 marks the root as
    sitting outside the pole intervals.
    """
    val, tail, terms, _ = _evaluate(p, 1.0)
    membership = _membership(p, 1.0, terms)
    return SecularRoot(
        0, "walk", (0.0, math.inf), 1.0, abs(val - 1.0), terms, tail,
        abs(val - 1.0) + tail, membership,
    )


def eigenfunction(p: PSequence, root: SecularRoot, k: int) -> np.ndarray:
    """First ``k`` values of the eigenfunction ``f(i) = (lambda - alpha_i)^{-1}``.

    Verifies the defining relation ``sum_j (p_j/q_j) f(j) = (p_i/q_i +
    lambda) f(i)`` for every returned index, to within the root's residual
    plus truncation bounds (and, for a Laplacian root, ``|F'|`` times the
    rounding of ``lambda = 1 - mu``).  ``TooLarge`` beyond ``SIZE_LIMIT``
    values.
    """
    k = _integer(k, "value count")
    if k < 1:
        raise BadParameter("need at least one eigenfunction value")
    if k > SIZE_LIMIT:
        raise TooLarge(f"{k} eigenfunction values, more than the {SIZE_LIMIT} it builds")
    lam = root.value if root.kind == "walk" else 1.0 - root.value
    ws = _weights(p, k)
    # lambda - alpha_i and p_i/q_i + lambda are this one sum, bit for bit.
    gap = ws / (1.0 - ws) + lam
    values = 1.0 / gap
    lhs, tail, _, alphas = _evaluate(p, lam)
    budget = root.residual + root.tail_bound + tail + RESIDUAL_BUDGET
    if root.kind == "laplacian":
        # Rounding in lam = 1 - mu moves lam off the root, and F with it.
        shift = 2.0**-53 * (abs(root.value) + abs(lam))
        budget += 2.0 * abs(_derivative(lam, alphas)) * shift
    rhs = gap * values
    failing = np.flatnonzero(np.abs(lhs - rhs) > budget)
    if failing.size:
        i = int(failing[0])
        raise NumericalFailure(
            f"eigenfunction relation fails at index {i + 1}: "
            f"|{lhs} - {float(rhs[i])}| > {budget}"
        )
    return values


def _two_pole_solution(r1: float, r2: float, c: float) -> float:
    """Solve ``(r1-1)/(r1-mu) + (r2-1)/(r2-mu) = c`` for ``mu`` in ``(r2, r1)``.

    Clearing denominators gives ``A mu^2 + B mu + C = 0`` with ``A = c``,
    ``B = (r1+r2-2) - c(r1+r2)``, ``C = c r1 r2 - 2 r1 r2 + r1 + r2``; the
    two-pole function increases from -inf to +inf on the interval, so exactly
    one quadratic root lies inside it.
    """
    a = c
    b = (r1 + r2 - 2.0) - c * (r1 + r2)
    cc = c * r1 * r2 - 2.0 * r1 * r2 + r1 + r2
    if a == 0.0:
        raise DegenerateQuadratic("remainder guess 1 linearizes the equation")
    disc = b * b - 4.0 * a * cc
    if disc < 0.0:
        raise DegenerateQuadratic(f"negative discriminant {disc}")
    s = math.sqrt(disc)
    # Numerically stable pair: avoid cancellation in the small root.
    qq = -0.5 * (b + math.copysign(s, b)) if b != 0.0 else 0.5 * s
    if qq != 0.0:
        roots = [qq / a, cc / qq]
    else:
        roots = [s / (2.0 * a), -s / (2.0 * a)]
    inside = [x for x in roots if r2 < x < r1]
    if len(inside) != 1:
        raise DegenerateQuadratic(
            f"expected one root in ({r2}, {r1}), got {sorted(roots)}"
        )
    return inside[0]


def mu_top_refined(p: PSequence) -> tuple[float, float]:
    """Two-pole refinement bracketing the top Laplacian eigenvalue.

    The secular equation with the first two poles kept exactly and the rest
    replaced by a constant remainder ``x`` has a unique solution ``mu(x)`` in
    ``(r_2, r_1)``, decreasing in ``x``.  The true remainder lies between
    ``x_- = (1-p_1-p_2) r_3/(r_3 - r_2)`` and ``x_+ = (1-p_1-p_2)/(1-r_1)``,
    so ``(mu(x_+), mu(x_-))`` brackets ``mu_1`` (upper end clipped to 2).
    """
    r1, r2, r3 = p.r(1), p.r(2), p.r(3)
    rest = 1.0 - p.p(1) - p.p(2)
    x_plus = rest / (1.0 - r1)
    x_minus = rest * r3 / (r3 - r2)
    mu_plus = _two_pole_solution(r1, r2, 1.0 - x_plus)
    mu_minus = _two_pole_solution(r1, r2, 1.0 - x_minus)
    if mu_plus > mu_minus + 1e-12:
        raise NumericalFailure(
            f"refinement not monotone: mu(x+) = {mu_plus} > mu(x-) = {mu_minus}"
        )
    return mu_plus, min(2.0, mu_minus)


@dataclass(frozen=True)
class KappaEstimate:
    """Return-probability constant, exact when ``p_1 >= 1/2``.

    Below that threshold no closed form is available; the value is then the
    best of the threshold partitions ``A = {1..k}`` and is an upper bound
    only, flagged by ``certified = False``.
    """

    value: float
    certified: bool
    split_index: int


def kappa_K(p: PSequence) -> KappaEstimate:
    if p.p(1) >= 0.5:
        return KappaEstimate(1.0 - p.p(1), True, 1)
    ps = _weights(p, _KAPPA_SCAN)
    partial = np.cumsum(ps)
    # Worst same-side return probability over the split {1..k} | rest:
    # attained at index k on the head side and in the limit on the tail.
    candidates = np.maximum((partial - ps) / (1.0 - ps), 1.0 - partial)
    k = int(np.argmin(candidates))
    return KappaEstimate(float(candidates[k]), False, k + 1)


def asymmetry_K(p: PSequence, tol: float = 1e-9) -> tuple[float, float]:
    """Certified enclosure of the spectral reflection asymmetry.

    If the top eigenvalue is at most 3/2 the distance is ``2 - mu_1``;
    otherwise it is ``1/2 - inf_i |mu_i - 3/2|``.  Roots are computed until
    every remaining bracket is certifiably farther from 3/2 than the running
    minimum, at which point the infimum is pinned down.
    """
    best_lo = math.inf
    best_hi = math.inf
    first = None
    certified = False
    i = 0
    while i < _MAX_ROOTS:
        i += 1
        try:
            root = delta_eigenvalue(p, i, tol)
        except (BracketCollapse, PoleProximity) as exc:
            raise InsufficientRoots(
                f"root {i} is not resolvable in float64 and the reflection "
                f"minimum is not yet certified"
            ) from exc
        lo_v = max(root.bracket[0], root.value - root.uncertainty)
        hi_v = min(root.bracket[1], root.value + root.uncertainty)
        if first is None:
            first = (lo_v, hi_v)
        if lo_v <= 1.5 <= hi_v:
            d_lo = 0.0
        else:
            d_lo = min(abs(lo_v - 1.5), abs(hi_v - 1.5))
        d_hi = max(abs(lo_v - 1.5), abs(hi_v - 1.5))
        best_lo = min(best_lo, d_lo)
        best_hi = min(best_hi, d_hi)
        barrier = p.r(i + 1)
        if barrier <= 1.5 and 1.5 - barrier >= best_hi:
            certified = True
            break
    if not certified:
        raise InsufficientRoots(
            f"{_MAX_ROOTS} roots do not certify the reflection minimum"
        )
    lo1, hi1 = first
    tall = (2.0 - hi1, 2.0 - lo1)
    near = (0.5 - best_hi, 0.5 - best_lo)
    if hi1 <= 1.5:
        out = tall
    elif lo1 >= 1.5:
        out = near
    else:
        out = (min(tall[0], near[0]), max(tall[1], near[1]))
    return max(0.0, out[0]), out[1]


def hilbert_schmidt_sum(p: PSequence) -> tuple[float, CheckReport]:
    """Squared Hilbert–Schmidt mass of the walk operator, with its bound.

    The double sum ``sum_{i != j} (p_i p_j)^2 / (p_i q_i p_j q_j)``
    collapses to ``T1^2 - T2`` for ``T_k = sum (p_i/q_i)^k``; tails are
    certified via the geometric remainder, to ``_HS_TAIL_TARGET``.  The
    accompanying report checks the strict bound ``value < q_1^{-2}``.
    """
    terms = _first_terms(p)
    while True:
        # p_i / q_i = -alpha_i exactly.
        _, alphas = _tables(p, terms)
        t1 = -math.fsum(alphas.tolist())
        t2 = math.fsum((alphas * alphas).tolist())
        tail1 = p.remainder(terms) / (1.0 - p.head[0])
        err_up = 2.0 * (t1 + tail1) * tail1
        if err_up <= _HS_TAIL_TARGET or terms >= _MAX_TERMS:
            break
        terms = min(_MAX_TERMS, terms * 2)
    value = t1 * t1 - t2
    report = CheckReport.inequality("hilbert_schmidt_bound", value + err_up, p.r(1) ** 2, 0.0)
    return value, report


def truncate_K(p: PSequence, size: int, renormalize: bool = False):
    """Finite section: the complete graph on the first ``size`` indices.

    Edge weights are the pairwise products; with ``renormalize`` the kept
    weights are first rescaled to sum to 1 (the normalized Laplacian is
    unchanged by that global rescaling).  Products that underflow to zero in
    float64 are omitted — for steep sequences distant pairs carry weights
    below 1e-324, and a zero-weight edge is indistinguishable from no edge.
    ``TooLarge`` beyond ``SIZE_LIMIT`` edges.
    """
    size = _integer(size, "truncation size")
    if size < 2:
        raise BadParameter("truncation needs at least two vertices")
    edges = size * (size - 1) // 2
    if edges > SIZE_LIMIT:
        raise TooLarge(
            f"truncation to {size} vertices has up to {edges} edges,"
            f" more than the {SIZE_LIMIT} a generated graph may have"
        )
    ps = _weights(p, size)
    if renormalize:
        ps *= 1.0 / math.fsum(ps)
    i, j = np.triu_indices(size, 1)
    w = ps[i] * ps[j]
    edges = np.column_stack([i, j, w])[w > 0.0]
    return WeightedGraph(edges, labels=list(range(1, size + 1)))
