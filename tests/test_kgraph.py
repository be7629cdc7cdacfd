"""Secular-equation machinery for product-weight complete graphs.

Reference sequences: DYADIC has p_i = 2^-i (gentle decay, roots far from the
pole accumulation), STEEP decays by a decade per index (roots become
unresolvable in float64 around index 12).
"""

import math

import numpy as np
import pytest

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
    RESIDUAL_BUDGET,
    PSequence,
    _evaluate,
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
    with pytest.raises(PoleProximity):
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
