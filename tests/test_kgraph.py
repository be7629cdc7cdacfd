"""Secular-equation machinery for product-weight complete graphs.

Reference sequences: DYADIC has p_i = 2^-i (gentle decay, roots far from the
pole accumulation), STEEP decays by a decade per index (roots become
unresolvable in float64 around index 12).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_evaluate
from specgraph.errors import (
    BadParameter,
    BracketCollapse,
    InsufficientRoots,
    IsolatedVertex,
    NumericalFailure,
    PoleProximity,
    TooLarge,
)
from specgraph import kgraph
from specgraph.invariants import cheeger_constant_exact
from specgraph.kgraph import (
    BRACKET_MIN,
    RESIDUAL_BUDGET,
    PSequence,
    _TAIL_TARGET,
    _derivative,
    _evaluate,
    _first_terms,
    _membership,
    _tables,
    asymmetry_K,
    delta_eigenvalue,
    eigenfunction,
    hilbert_schmidt_sum,
    kappa_K,
    mu_top_refined,
    p_eigenvalue,
    secular_F,
    trivial_root,
    truncate_K,
)
from specgraph.spectral import hausdorff_asymmetry, spectrum

DYADIC = PSequence((0.5, 0.25), 0.5)
STEEP = PSequence((0.9,), 0.1)
SLOW = PSequence((0.1,), 0.9)



def _normalized(weights, ratio):
    """The sequence with head ``weights`` rescaled so that the total is 1."""
    total = math.fsum(weights) + weights[-1] * ratio / (1.0 - ratio)
    return PSequence(tuple(x / total for x in weights), ratio)


# Head lengths 1 to 8; every one of them has p_1 < 1/2.
HEADS = [
    _normalized([1.0 / (k + 2) for k in range(n)], ratio)
    for n, ratio in zip(range(1, 9), (0.9, 0.85, 0.75, 0.8, 0.6, 0.95, 0.7, 0.85))
]

ROOT_TOL = 1e-9
# dense 40-vertex sections reproduce the certified roots to ~1e-12
SECTION_ATOL = 1e-10


# ----------------------------------------------------------------- sequence


def test_dyadic_sequence_values():
    assert DYADIC.p(1) == 0.5
    assert DYADIC.p(3) == 0.125
    assert 1.0 - DYADIC.p(3) == 0.875
    assert DYADIC.r(1) == 2.0
    assert DYADIC.r(3) == pytest.approx(8.0 / 7.0, abs=1e-15)
    assert DYADIC.alpha(3) == pytest.approx(-1.0 / 7.0, abs=1e-15)
    assert DYADIC.tail_sum == 0.25
    assert DYADIC.remainder(0) == pytest.approx(1.0, abs=1e-15)
    assert DYADIC.remainder(3) == pytest.approx(0.125, abs=1e-15)
    assert DYADIC.sum_squares() == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize(
    "head,ratio",
    [
        ((), 0.5),  # empty head
        ((0.5, 0.25), 0.0),  # ratio at the boundary
        ((0.5, 0.25), 1.0),
        ((0.5, 0.6), 0.5),  # head not decreasing
        ((1.5,), 0.5),  # weight outside (0, 1)
        ((0.5,), 0.4),  # sums to 5/6, not 1
    ],
)
def test_bad_sequences_rejected(head, ratio):
    with pytest.raises(BadParameter):
        PSequence(head, ratio)


def test_sequence_payload_round_trip():
    payload = DYADIC.to_payload()
    assert payload == {"head": [0.5, 0.25], "tail": {"ratio": 0.5}}
    assert PSequence(payload["head"], payload["tail"]["ratio"]) == DYADIC


# ------------------------------------------------------------ secular values


def test_secular_sum_rule_at_one():
    for p in (DYADIC, STEEP, SLOW):
        value, tail = secular_F(p, 1.0)
        assert abs(value - 1.0) <= 1e-12 + tail
        assert tail <= 1e-13


def test_evaluation_near_poles_rejected():
    with pytest.raises(PoleProximity):
        secular_F(DYADIC, -1.0)  # first pole
    with pytest.raises(PoleProximity):
        secular_F(DYADIC, 0.0)  # pole accumulation point


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_evaluation_at_a_point_that_is_not_finite_rejected(lam):
    """Refused before any pole table is built."""
    p = PSequence((0.5, 0.125), 0.75)
    p_misses = _tables.cache_info().misses
    with pytest.raises(BadParameter):
        secular_F(p, lam)
    assert _tables.cache_info().misses == p_misses


# -------------------------------------------------------------------- roots


def test_trivial_root_is_constant_eigenfunction():
    root = trivial_root(DYADIC)
    assert root.value == 1.0 and root.index == 0
    assert root.residual <= 1e-12
    values = eigenfunction(DYADIC, root, 6)
    expected = [1.0 - DYADIC.p(i) for i in range(1, 7)]
    assert np.allclose(values, expected, atol=1e-12)


@pytest.mark.parametrize("p,count", [(DYADIC, 10), (STEEP, 10), (SLOW, 25)])
def test_roots_sit_in_brackets_and_decrease(p, count):
    previous = math.inf
    for i in range(1, count + 1):
        root = delta_eigenvalue(p, i, ROOT_TOL)
        lo, hi = root.bracket
        assert lo == p.r(i + 1) and hi == p.r(i)
        assert lo < root.value < hi
        assert root.residual + root.tail_bound <= ROOT_TOL
        assert root.value < previous
        previous = root.value
    # the bracket floors force convergence to 1 from above
    assert previous > 1.0


def test_walk_and_laplacian_roots_are_reflections():
    for i in (1, 2, 5):
        walk = p_eigenvalue(DYADIC, i)
        lap = delta_eigenvalue(DYADIC, i)
        assert lap.value == 1.0 - walk.value
        assert walk.kind == "walk" and lap.kind == "laplacian"
        assert walk.membership_sum == lap.membership_sum < math.inf


def test_dyadic_top_root_reference_value():
    # frozen anchor; any solver regression shows up here first
    root = delta_eigenvalue(DYADIC, 1)
    assert root.value == pytest.approx(1.6248100763789535, abs=1e-12)


def test_roots_match_dense_finite_section():
    dense = spectrum(truncate_K(DYADIC, 40)).values[::-1]
    for i in range(1, 6):
        certified = delta_eigenvalue(DYADIC, i).value
        assert dense[i - 1] == pytest.approx(certified, abs=SECTION_ATOL)


def test_gap_eigenfunction_signs():
    root = p_eigenvalue(DYADIC, 1)
    values = eigenfunction(DYADIC, root, 4)
    # inside (alpha_1, alpha_2) the first coordinate is positive, the rest negative
    assert values[0] > 0.0 and np.all(values[1:] < 0.0)


def test_unresolvable_roots_raise():
    with pytest.raises(PoleProximity, match="point -9.632812500014369e-13 within"):
        p_eigenvalue(STEEP, 12)
    with pytest.raises(BracketCollapse):
        p_eigenvalue(STEEP, 16)
    with pytest.raises(BadParameter):
        p_eigenvalue(DYADIC, 0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
def test_tolerance_that_certifies_nothing_is_rejected(tol):
    # `residual + tail > nan` is never true, so a NaN tolerance would pass
    # every root unchecked.
    with pytest.raises(BadParameter):
        p_eigenvalue(DYADIC, 1, tol)
    with pytest.raises(BadParameter):
        delta_eigenvalue(DYADIC, 1, tol)
    with pytest.raises(BadParameter):
        asymmetry_K(DYADIC, tol)


# ---------------------------------------------------------------- refinement


def test_two_pole_refinement_brackets_top_root():
    for p in (DYADIC, STEEP, SLOW):
        lo, hi = mu_top_refined(p)
        mu1 = delta_eigenvalue(p, 1).value
        assert lo <= mu1 <= hi
        assert hi <= 2.0


def test_refinement_interval_is_sharp_for_steep_decay():
    lo, hi = mu_top_refined(STEEP)
    assert hi - lo < 0.06


# -------------------------------------------------------- kappa and asymmetry


def test_kappa_certified_at_half():
    est = kappa_K(DYADIC)
    assert est.value == 0.5 and est.certified and est.split_index == 1
    est = kappa_K(STEEP)
    assert est.value == 1.0 - 0.9 and est.certified


def test_kappa_uncertified_below_half():
    est = kappa_K(SLOW)
    assert not est.certified
    assert 0.0 < est.value < 1.0


def test_asymmetry_encloses_reflection_distance():
    lo, hi = asymmetry_K(DYADIC)
    mu1 = delta_eigenvalue(DYADIC, 1).value
    assert mu1 > 1.5  # tall spectrum: the distance is 2 - mu_1
    assert lo <= 2.0 - mu1 <= hi
    assert hi - lo < 1e-8


def test_asymmetry_of_a_spectrum_below_three_halves():
    p = PSequence((0.3,), 0.7)
    lo, hi = asymmetry_K(p)
    mu1 = delta_eigenvalue(p, 1).value
    assert mu1 <= 1.5  # the distance is 2 - mu_1
    assert lo <= 2.0 - mu1 <= hi
    # A 400-vertex truncation lands inside the certified enclosure.
    assert lo <= hausdorff_asymmetry(spectrum(truncate_K(p, 400)).values) <= hi


def test_asymmetry_bounded_by_twice_kappa():
    for p in (DYADIC, STEEP):
        lo, hi = asymmetry_K(p)
        assert 0.0 <= lo <= hi <= 2.0 * kappa_K(p).value + 1e-12


def test_asymmetry_needs_enough_roots(monkeypatch):
    monkeypatch.setattr(kgraph, "_MAX_ROOTS", 1)
    with pytest.raises(InsufficientRoots):
        asymmetry_K(STEEP)


# ------------------------------------------------------------ Hilbert-Schmidt


def test_hilbert_schmidt_closed_form_matches_double_sum():
    value, report = hilbert_schmidt_sum(DYADIC)
    t = [DYADIC.p(i) / (1.0 - DYADIC.p(i)) for i in range(1, 60)]
    direct = math.fsum(t[i] * t[j] for i in range(59) for j in range(59) if i != j)
    assert value == pytest.approx(direct, abs=1e-12)
    assert report.rhs == DYADIC.r(1) ** 2 == 4.0
    assert report.passed


def test_hilbert_schmidt_bound_for_all_reference_sequences():
    for p in (DYADIC, STEEP, SLOW):
        value, report = hilbert_schmidt_sum(p)
        assert 0.0 < value < report.rhs
        assert report.passed


# ------------------------------------------------------------ finite sections


def test_truncation_shape_and_weights():
    g = truncate_K(DYADIC, 5)
    assert g.n == 5 and len(g.edges) == 10
    assert g.labels == (1, 2, 3, 4, 5)
    weights = {(u, v): w for u, v, w in g.edges}
    assert weights[(0, 1)] == 0.125  # p_1 p_2
    assert weights[(2, 3)] == DYADIC.p(3) * DYADIC.p(4)


def test_renormalized_truncation_has_equal_spectrum():
    raw = truncate_K(DYADIC, 8)
    scaled = truncate_K(DYADIC, 8, renormalize=True)
    # renormalizing rescales every product weight by the same factor > 1 ...
    ratios = [ws / wr for (_, _, wr), (_, _, ws) in zip(raw.edges, scaled.edges)]
    assert min(ratios) > 1.0
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)
    # ... which leaves the normalized spectrum untouched
    assert np.allclose(spectrum(raw).values, spectrum(scaled).values, atol=1e-9)


def test_truncation_guards():
    with pytest.raises(BadParameter):
        truncate_K(DYADIC, 1)
    # distant weights of a steep sequence underflow to zero, eventually
    # leaving a vertex with no representable edge at all
    with pytest.raises(IsolatedVertex):
        truncate_K(STEEP, 400)


@pytest.mark.parametrize("size", [2897, 10**6])
def test_truncation_beyond_the_size_limit_is_too_large(size):
    """2897 vertices have 4,194,856 pairs, just over 2^22; a million would
    need terabytes of index arrays.  Both stop before any weight is made."""
    with pytest.raises(TooLarge):
        truncate_K(DYADIC, size)


def test_eigenfunction_beyond_the_size_limit_is_too_large(monkeypatch):
    """The refusal comes before the ``k`` weights are built."""
    root = delta_eigenvalue(DYADIC, 1)
    monkeypatch.setattr(kgraph, "_weights", lambda p, count: pytest.fail("weights built"))
    with pytest.raises(TooLarge):
        eigenfunction(DYADIC, root, kgraph.SIZE_LIMIT + 1)


def test_truncation_cheeger_stays_above_infinite_bound():
    bound = (1.0 - DYADIC.sum_squares()) / 2.0
    for size in (6, 8, 10):
        h = cheeger_constant_exact(truncate_K(DYADIC, size)).value
        assert h >= bound - 1e-12


# --------------------------------------------------------------- pole table
#
# The loops below are the scalar forms the array code replaced; the arrays
# must reproduce them bit for bit.


def _tables_loop(p, terms):
    ps, value = [], p.head[-1]
    for i in range(1, terms + 1):
        value = p.head[i - 1] if i <= len(p.head) else value * p.ratio
        ps.append(value)
    return ps, [-x / (1.0 - x) for x in ps]


def _kappa_loop(p):
    best, best_k, partial = math.inf, 1, 0.0
    for k in range(1, 201):
        pk = p.p(k)
        partial += pk
        candidate = max((partial - pk) / (1.0 - pk), 1.0 - partial)
        if candidate < best:
            best, best_k = candidate, k
    return best, best_k


def _eigenfunction_loop(p, root, k):
    """The values, or the message of the first failing relation."""
    lam = root.value if root.kind == "walk" else 1.0 - root.value
    values = [1.0 / (lam - p.alpha(i)) for i in range(1, k + 1)]
    lhs, tail, terms, _ = _evaluate(p, lam)
    budget = root.residual + root.tail_bound + tail + RESIDUAL_BUDGET
    if root.kind == "laplacian":
        alphas = _tables_loop(p, terms)[1]
        deriv = math.fsum(a / ((a - lam) * (a - lam)) for a in alphas)
        budget += 2.0 * abs(deriv) * (2.0**-53 * (abs(root.value) + abs(lam)))
    for i in range(1, k + 1):
        rhs = (p.p(i) / (1.0 - p.p(i)) + lam) * values[i - 1]
        if abs(lhs - rhs) > budget:
            return f"eigenfunction relation fails at index {i}: |{lhs} - {rhs}| > {budget}"
    return values


@pytest.mark.parametrize("p", HEADS, ids=lambda p: f"head{len(p.head)}")
def test_tables_match_the_scalar_loop_across_the_head_boundary(p):
    n = len(p.head)
    for terms in sorted({1, max(1, n - 1), n, n + 1, n + 2, 2 * n + 16, 100}):
        ps, alphas = _tables(p, terms)
        assert ps.dtype == alphas.dtype == np.float64
        assert (ps.tolist(), alphas.tolist()) == _tables_loop(p, terms)


def test_cached_tables_refuse_writes():
    ps, alphas = _tables(DYADIC, 40)
    assert _tables(DYADIC, 40)[0] is ps
    for array in (ps, alphas):
        with pytest.raises(ValueError):
            array[0] = 0.5


def test_kappa_scan_matches_the_scalar_loop():
    below_half = [p for p in (*HEADS, SLOW) if p.p(1) < 0.5]
    assert len(below_half) == len(HEADS) + 1
    splits = set()
    for p in below_half:
        est = kappa_K(p)
        assert not est.certified
        assert (est.value, est.split_index) == _kappa_loop(p)
        splits.add(est.split_index > len(p.head))
    assert splits == {False, True}  # splits in the head and in the tail


@pytest.mark.parametrize("p", [DYADIC, STEEP, SLOW, HEADS[3], HEADS[7]])
def test_eigenfunction_matches_the_scalar_loop(p):
    roots = [trivial_root(p)]
    for i in range(1, 9):
        for solve in (p_eigenvalue, delta_eigenvalue):
            try:
                roots.append(solve(p, i))
            except (BracketCollapse, PoleProximity):
                pass
    for root in roots:
        expected = _eigenfunction_loop(p, root, 30)
        try:
            got = eigenfunction(p, root, 30).tolist()
        except NumericalFailure as exc:
            got = str(exc)
        assert got == expected, (root.kind, root.index)


@pytest.mark.parametrize("p", [DYADIC, STEEP, SLOW])
def test_eigenfunction_of_laplacian_roots_allows_the_rounding_of_one_minus_mu(p):
    # Recovering lambda = 1 - mu rounds; without |F'| times that shift in the
    # budget, roots 7-10, 4-10 and 6, 9, 10 of these sequences fail.
    for i in range(1, 11):
        root = delta_eigenvalue(p, i)
        lam = 1.0 - root.value
        expected = [1.0 / (lam - p.alpha(j)) for j in range(1, 31)]
        assert eigenfunction(p, root, 30).tolist() == expected


# ------------------------------------------------------ bisection replay
#
# ``_reference_p_eigenvalue`` is the solver before the enclosure: it
# evaluates every bisection midpoint.  The replay must give every field bit
# for bit, and raise the same error class with the same message.


def _reference_p_eigenvalue(p, i, tol=1e-9):
    a_lo, a_hi = p.alpha(i), p.alpha(i + 1)
    width = a_hi - a_lo
    if width < BRACKET_MIN:
        raise BracketCollapse(
            f"pole interval {i} has width {width}; spectrum beyond lies in "
            f"(1, {p.r(i)}) in Laplacian coordinates"
        )
    lo, hi = a_lo, a_hi
    for _ in range(200):
        if hi - lo <= 1e-10 * width:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        val, _, _, _ = _evaluate(p, mid)
        if val > 1.0:
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
    return kgraph.SecularRoot(
        i, "walk", (a_lo, a_hi), lam, residual, terms, tail, uncertainty, membership
    )


def _outcome(solve, p, i):
    """Every field of the root, floats as hex, or the error class and message."""
    try:
        root = solve(p, i)
    except (BracketCollapse, NumericalFailure, PoleProximity) as exc:
        return type(exc).__name__, str(exc)
    return tuple(
        x.hex() if isinstance(x, float) else x
        for x in (root.index, root.kind, *root.bracket, root.value, root.residual,
                  root.truncation_terms, root.tail_bound, root.uncertainty,
                  root.membership_sum)
    )


@pytest.mark.parametrize(
    "p,count",
    [(DYADIC, 40), (STEEP, 16), (SLOW, 40), *((p, 40) for p in HEADS)],
    ids=["dyadic", "steep", "slow", *(f"head{len(p.head)}" for p in HEADS)],
)
def test_replay_matches_the_full_bisection(p, count):
    outcomes = [_outcome(p_eigenvalue, p, i) for i in range(1, count + 1)]
    assert outcomes == [_outcome(_reference_p_eigenvalue, p, i) for i in range(1, count + 1)]
    if p is STEEP:
        # root 12 meets a pole, root 16 a collapsed interval
        assert outcomes[11][0] == "PoleProximity" and outcomes[15][0] == "BracketCollapse"


@settings(max_examples=15, deadline=None)
@given(
    ratios=st.lists(st.floats(0.3, 0.95), min_size=0, max_size=7),
    ratio=st.floats(0.05, 0.95),
    index=st.integers(1, 36),
)
def test_replay_matches_the_full_bisection_on_drawn_sequences(ratios, ratio, index):
    """Heads of 1-8 strictly decreasing weights, tail ratios 0.05-0.95; five
    consecutive roots from a drawn index."""
    weights = [1.0]
    for r in ratios:
        weights.append(weights[-1] * r)
    p = _normalized(weights, ratio)
    for i in range(index, index + 5):
        assert _outcome(p_eigenvalue, p, i) == _outcome(_reference_p_eigenvalue, p, i)


def _counting(monkeypatch):
    calls = []
    evaluate = kgraph._evaluate

    def counted(p, lam):
        calls.append(lam)
        return evaluate(p, lam)

    monkeypatch.setattr(kgraph, "_evaluate", counted)
    return calls


def test_replay_evaluates_a_fraction_of_the_midpoints(monkeypatch):
    """Evaluating every midpoint took about 36 evaluations a root."""
    calls = _counting(monkeypatch)
    roots = [p_eigenvalue(p, i) for p in HEADS for i in range(1, 26)]
    assert len(calls) / len(roots) <= 15


def test_replay_evaluates_every_midpoint_inside_the_enclosure(monkeypatch):
    """Widened by a thousandth of the interval, the enclosure is still
    certified but holds about 24 midpoints a root; each must be evaluated."""
    enclose = kgraph._enclose

    def widened(p, i, a_lo, a_hi):
        x_l, x_r, pole_l, pole_r = enclose(p, i, a_lo, a_hi)
        spread = 1e-3 * (a_hi - a_lo)
        return x_l - spread, x_r + spread, pole_l, pole_r

    monkeypatch.setattr(kgraph, "_enclose", widened)
    calls = _counting(monkeypatch)
    for p in (DYADIC, SLOW, HEADS[4]):
        for i in range(1, 11):
            start = len(calls)
            got = _outcome(p_eigenvalue, p, i)
            assert len(calls) - start >= 24
            assert got == _outcome(_reference_p_eigenvalue, p, i)


@pytest.mark.parametrize("side", [1, -1])
def test_an_endpoint_just_inside_the_margin_confirms_nothing(side):
    """The margin is ``2 _TAIL_TARGET + 2^-46 sum |t_j|``: a probe whose
    ``F^ - 1`` is three quarters of it, on either side, certifies nothing,
    and one at one and a half times it certifies its side."""
    p, i = HEADS[3], 5

    def probe(x):
        val, _, _, alphas = _evaluate(p, x)
        terms = alphas / (alphas - x)
        margin = 2.0 * _TAIL_TARGET + 2.0**-46 * math.fsum(np.abs(terms).tolist())
        return val, terms, margin, -_derivative(x, alphas)

    root = p_eigenvalue(p, i).value
    _, _, margin, slope = probe(root)
    for share, expected in ((0.75, 0), (1.5, side)):
        val, terms, margin, _ = probe(root - side * share * margin / slope)
        assert (share - 0.1) * margin < side * (val - 1.0) < (share + 0.1) * margin
        assert kgraph._side(val, terms) == (expected, pytest.approx(margin, rel=1e-12))


# ------------------------------------------------ one pass per evaluation
#
# ``ref_evaluate`` decides coverage, pole distance and tail again at every
# doubling; ``_evaluate`` settles each once and must agree bit for bit.

GEOMETRIC = PSequence((0.3,), 0.7)
FIVE_HEAD = PSequence(
    (0.41420118343195267, 0.2485207100591716, 0.1242603550295858,
     0.08284023668639054, 0.045562130177514794),
    0.65,
)
EVALUATED = [DYADIC, STEEP, SLOW, GEOMETRIC, FIVE_HEAD, *HEADS]


def _evaluation(evaluate, p, lam):
    """Value and tail as hex and the truncation, or the error and message."""
    try:
        value, tail, terms, alphas = evaluate(p, lam)
    except (NumericalFailure, PoleProximity) as exc:
        return type(exc).__name__, str(exc)
    assert alphas.size == terms
    return value.hex(), tail.hex(), terms


def _points(p):
    """The poles of a table four times the first truncation, exact, 1e-14
    and 1e-9 off each and the midpoints of their intervals; points in the
    accumulation zone beyond the first truncation; 0, 1 and tiny values of
    either sign."""
    first = _first_terms(p)
    alphas = _tables(p, 4 * first)[1].tolist()
    points = [0.0, -0.0, 1.0, 0.5, 2.0, -2.0, 5e-324, 1e-300, -1e-300, -1e-14]
    for a, b in zip(alphas, alphas[1:]):
        points += [a, a - 1e-14, a + 1e-14, a - 1e-9, a + 1e-9, 0.5 * (a + b)]
    edge = alphas[first - 1]
    points += [edge * s for s in (0.9, 0.5, 1e-3, 1e-9, 1e-40, 1e-200)]
    return points


def test_evaluation_matches_the_loop_that_regrew_every_fact():
    """About 10,000 points: returns and pole refusals, some returns ending at
    the first truncation and some beyond it.  At -5e-324 the subnormal
    weights of SLOW stop shrinking before they pass it: the loop doubled to
    10^6 terms and refused to cover it, and the evaluation stops at the
    stall and refuses it as within ``POLE_TOL`` of the pole 0."""
    cases = [(p, x) for p in EVALUATED for x in _points(p)]
    got = [_evaluation(_evaluate, p, x) for p, x in cases]
    assert got == [_evaluation(ref_evaluate, p, x) for p, x in cases]
    assert {out[0] for out in got if len(out) == 2} == {"PoleProximity"}
    grown = {out[2] > _first_terms(p) for (p, _), out in zip(cases, got) if len(out) == 3}
    assert grown == {False, True}
    assert _evaluation(_evaluate, SLOW, -5e-324) == (
        "PoleProximity", "evaluation point -5e-324 within 5e-324 of a pole"
    )


def test_an_evaluation_reads_the_pole_table_about_twice(monkeypatch):
    """One lookup decides coverage and distance, one reads the table for the
    sum, and coverage rarely needs another.  Deciding every fact again at
    each doubling took 4.06 lookups an evaluation on these roots."""
    lookups = []
    tables = kgraph._tables

    def counted(p, terms):
        lookups.append(terms)
        return tables(p, terms)

    monkeypatch.setattr(kgraph, "_tables", counted)
    calls = _counting(monkeypatch)
    for p in (*HEADS, FIVE_HEAD):
        for i in range(1, 26):
            p_eigenvalue(p, i)
    assert len(lookups) / len(calls) <= 2.5
