"""Family generators, closed-form targets, and tail-witness traces."""

import math

import pytest

from specgraph.errors import BadParameter, NoTailStructure, TooLarge
from specgraph.families import (
    EXACT,
    FAMILIES,
    LIMIT,
    LOWER_BOUND,
    ClosedForm,
    FamilySpec,
    _check_edges,
    closed_form,
    generate,
    tail_ratio_trace,
)
from specgraph.graph import set_measures
from specgraph.invariants import cheeger_constant_exact, dual_cheeger_ratio
from specgraph.kgraph import PSequence
from specgraph.spectral import spectrum

DYADIC = PSequence((0.5, 0.25), 0.5)
ATOL = 1e-12


# --------------------------------------------------------------- generators


def test_family_roster():
    assert len(FAMILIES) == 8
    assert "complete_unit" in FAMILIES and "K_m2" in FAMILIES


def test_inverse_square_halfline_weights():
    g = generate(FamilySpec("halfline_m3", 4))
    assert g.edges == (
        (0, 1, 1.0),
        (1, 2, 0.25),
        (2, 3, 1.0 / 9.0),
        (3, 4, 1.0 / 16.0),
    )


def test_geometric_halfline_weights():
    g = generate(FamilySpec("halfline_m4", 4, r=0.5))
    assert g.edges == ((0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.125), (3, 4, 0.0625))


def test_ladder_layout():
    g = generate(FamilySpec("ladder_L", 3, r=0.5, rho=0.3))
    assert g.labels == ("v0", "v1", "v2", "v3", "w1", "w2", "w3")
    assert g.edges == (
        (0, 1, 1.0),  # first rail edge, rho^0
        (0, 4, 1.0),  # tie from the rail start to the first pendant
        (1, 2, 0.3),
        (1, 4, 0.5),
        (2, 3, 0.09),
        (2, 5, 0.25),
        (3, 6, 0.125),
    )
    assert g.vertex_measure[0] == 2.0


def test_product_complete_graph_dispatch():
    g = generate(FamilySpec("K_m1", 5, p=DYADIC))
    assert g.n == 5 and len(g.edges) == 10
    assert dict(((u, v), w) for u, v, w in g.edges)[(0, 1)] == 0.125


def test_adjacent_plus_factorial_weights():
    g = generate(FamilySpec("K_m2", 4))
    assert g.labels == (1, 2, 3, 4)
    weights = {(u, v): w for u, v, w in g.edges}
    assert weights[(0, 1)] == 0.25
    assert weights[(1, 2)] == pytest.approx(1.0 / 9.0, abs=1e-16)
    assert weights[(2, 3)] == 0.0625
    assert weights[(0, 2)] == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert weights[(0, 3)] == weights[(1, 3)] == pytest.approx(1.0 / 24.0, abs=1e-16)


def test_large_factorial_truncation_is_finite_and_connected():
    # factorials overflow float64 beyond 170!; the generator must drop the
    # unrepresentable weights instead of dying, and the nearest-neighbor
    # chain keeps everything connected
    g = generate(FamilySpec("K_m2", 200))
    assert g.n == 200
    assert len(g.edges) == 14395
    assert g.component_count == 1


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("halfline_m4", 5),  # missing ratio
        FamilySpec("halfline_m4", 5, r=1.2),
        FamilySpec("ladder_L", 5, r=0.3, rho=0.5),  # rails decay slower than rungs
        FamilySpec("K_m1", 5),  # missing sequence
        FamilySpec("complete_unit", 1),
        FamilySpec("cycle", 2),
        FamilySpec("ladder_L", 0, r=0.5),
    ],
)
def test_generator_rejects_bad_specs(spec):
    with pytest.raises(BadParameter):
        generate(spec)


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("cycle", 10**11), FamilySpec("halfline_m3", 10**11),
     FamilySpec("complete_unit", 10**6), FamilySpec("K_m2", 3000),
     FamilySpec("K_m1", 10**11, p=DYADIC)],
)
def test_generator_rejects_sizes_beyond_the_edge_bound(spec):
    with pytest.raises(TooLarge):
        generate(spec)


def test_edge_bound_sits_between_complete_graphs_of_2896_and_2897_vertices():
    _check_edges(FamilySpec("complete_unit", 2896))  # 4,191,880 edges
    with pytest.raises(TooLarge):
        _check_edges(FamilySpec("complete_unit", 2897))  # 4,194,856 edges


def test_unknown_family_rejected_at_spec_construction():
    with pytest.raises(BadParameter):
        FamilySpec("moebius", 5)


# -------------------------------------------------------------- closed forms


def test_complete_unit_targets():
    forms = closed_form(FamilySpec("complete_unit", 10))
    assert forms == [
        ClosedForm("spectral_gap", 10.0 / 9.0, EXACT),
        ClosedForm("lambda_top", 10.0 / 9.0, EXACT),
    ]
    s = spectrum(generate(FamilySpec("complete_unit", 10)))
    assert s.gap == pytest.approx(10.0 / 9.0, abs=1e-9)
    assert s.top == pytest.approx(10.0 / 9.0, abs=1e-9)


@pytest.mark.parametrize(
    "size,expected",
    [
        (6, [ClosedForm("kappa", 0.0, EXACT), ClosedForm("dual_cheeger", 1.0, EXACT)]),
        (7, [ClosedForm("kappa", 0.5, EXACT)]),
    ],
)
def test_cycle_targets_split_by_parity(size, expected):
    assert closed_form(FamilySpec("cycle", size)) == expected


def test_halfline_targets():
    assert closed_form(FamilySpec("halfline_m3", 9)) == [
        ClosedForm("cheeger", 0.0, LIMIT)
    ]
    assert closed_form(FamilySpec("halfline_m4", 9, r=0.5)) == [
        ClosedForm("cheeger", 1.0 / 3.0, LIMIT)
    ]


def test_ladder_targets_depend_on_ratio_split():
    assert closed_form(FamilySpec("ladder_L", 6, r=0.5, rho=0.25)) == [
        ClosedForm("dual_cheeger", 1.0, LIMIT)
    ]
    assert closed_form(FamilySpec("ladder_L", 6, r=0.5)) == [
        ClosedForm("dual_cheeger", 0.8, LOWER_BOUND)
    ]


def test_product_graph_bound_holds_at_finite_sizes():
    spec = FamilySpec("K_m1", 8, p=DYADIC)
    (form,) = closed_form(spec)
    assert form.mode == LOWER_BOUND
    assert form.value == pytest.approx(1.0 / 3.0, abs=1e-15)
    h = cheeger_constant_exact(generate(spec)).value
    assert h >= form.value - ATOL


def test_factorial_graph_target_is_limiting_zero():
    (form,) = closed_form(FamilySpec("K_m2", 30))
    assert form == ClosedForm("cheeger", 0.0, LIMIT)


# ---------------------------------------------------------------- tail traces


def test_geometric_tails_are_flat():
    spec = FamilySpec("halfline_m4", 12, r=0.4)
    values = tail_ratio_trace(spec, range(1, 8))
    assert values == [pytest.approx(0.6 / 1.4, abs=1e-15)] * 7


def test_inverse_square_tails_match_independent_zeta_route():
    spec = FamilySpec("halfline_m3", 30)
    values = tail_ratio_trace(spec, range(1, 31))
    for n, got in zip(range(1, 31), values):
        interior = math.pi**2 / 6.0 - math.fsum(1.0 / (i * i) for i in range(1, n + 1))
        boundary = 1.0 / (n * n)
        assert got == pytest.approx(boundary / (boundary + 2.0 * interior), abs=1e-12)
    assert all(a > b for a, b in zip(values, values[1:]))


def _ladder_split_masks(n_rungs: int, k: int) -> tuple[int, int]:
    """Vertex masks of the alternating two-sided split starting at index k."""
    a = b = 0
    if k == 0:
        a = (1 << 0) | (1 << 1) | (1 << (n_rungs + 2))
        b = 1 << (n_rungs + 1)
        for i in range(2, n_rungs + 1):
            if i % 2 == 1:
                a |= 1 << i
            else:
                b |= 1 << i
        for j in range(3, n_rungs + 1):
            if j % 2 == 0:
                a |= 1 << (n_rungs + j)
            else:
                b |= 1 << (n_rungs + j)
        return a, b
    for i in range(k, n_rungs + 1):
        if i % 2 == k % 2:
            a |= 1 << i
        else:
            b |= 1 << i
    for j in range(k, n_rungs + 1):
        if j % 2 == k % 2:
            b |= 1 << (n_rungs + j)
        else:
            a |= 1 << (n_rungs + j)
    return a, b


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_equal_ratio_ladder_trace_values(r):
    spec = FamilySpec("ladder_L", 10, r=r)
    values = tail_ratio_trace(spec, range(0, 6))
    assert values[0] == pytest.approx((1.0 + r) / 2.0, abs=1e-15)
    assert values[1] == pytest.approx(2.0 * r / (1.0 + r), abs=1e-15)
    for v in values[2:]:
        assert v == pytest.approx(4.0 * r / (3.0 * r + 1.0), abs=1e-15)


def test_equal_ratio_ladder_trace_matches_concrete_partitions():
    # deep truncation: the clipped alternating splits reproduce the analytic
    # ratios up to a geometric tail defect around r^N
    n_rungs = 40
    spec = FamilySpec("ladder_L", n_rungs, r=0.5)
    g = generate(spec)
    values = tail_ratio_trace(spec, range(0, 4))
    for k, expected in zip(range(0, 4), values):
        mask_a, mask_b = _ladder_split_masks(n_rungs, k)
        got = dual_cheeger_ratio(g, mask_a, mask_b)
        assert got == pytest.approx(expected, abs=1e-9)


def test_distinct_ratio_ladder_trace_matches_single_rung_pairs():
    n_rungs = 10
    spec = FamilySpec("ladder_L", n_rungs, r=0.5, rho=0.3)
    g = generate(spec)
    values = tail_ratio_trace(spec, range(1, 6))
    for n, expected in zip(range(1, 6), values):
        got = dual_cheeger_ratio(g, 1 << n, 1 << (n_rungs + n))
        assert got == pytest.approx(expected, abs=ATOL)
    # rungs dominate rails, so the pair ratios climb toward 1
    assert all(a < b for a, b in zip(values, values[1:]))


def test_trace_index_guards():
    with pytest.raises(BadParameter):
        tail_ratio_trace(FamilySpec("halfline_m4", 5, r=0.5), [0])
    with pytest.raises(BadParameter):
        tail_ratio_trace(FamilySpec("halfline_m3", 5), [0])
    with pytest.raises(BadParameter):
        tail_ratio_trace(FamilySpec("ladder_L", 5, r=0.5), [-1])
    with pytest.raises(BadParameter):
        tail_ratio_trace(FamilySpec("ladder_L", 5, r=0.5, rho=0.3), [0])


def test_families_without_tail_structure():
    with pytest.raises(NoTailStructure):
        tail_ratio_trace(FamilySpec("cycle", 6), [1])


# ------------------------------------------------------- factorial graph tails


@pytest.mark.parametrize("n", [10, 30, 100])
def test_factorial_graph_tail_sets_shrink(n):
    g = generate(FamilySpec("K_m2", 200))
    mask = 0
    for v in range(n, 200):  # labels n+1..200
        mask |= 1 << v
    m_set, boundary, _ = set_measures(g, mask)
    assert boundary < 3.0 / (n * n)
    assert m_set > 1.0 / (2.0 * n)
    # isoperimetric ratio of the tail decays like 1/n
    assert boundary / m_set < 12.0 / n
