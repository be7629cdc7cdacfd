"""Vertex-argument readers: every public query that takes a vertex set or a
vertex function answers, or raises one ``SpecgraphError``, and an invalid
argument always raises.

The ``ref_*`` functions are the bodies these queries had before they read
their arguments through ``graph._as_set`` and ``graph._as_function``; on valid
arguments each query must return their result bit for bit (value hex, array
bytes).  The fuzz table ``FUZZ`` names every public function of ``graph``,
``invariants``, ``spectral`` and ``harness`` with a vertex argument, and a
guard test keeps it complete.
"""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraph import graph as graph_module
from specgraph import harness, invariants, spectral
from specgraph.errors import BadParameter, EmptySet, NotDisjoint, NotOrthogonal
from specgraph.errors import SpecgraphError, ZeroFunction
from specgraph.families import FamilySpec, generate
from specgraph.graph import (
    WeightedGraph,
    _finite_fsum,
    _indicator,
    _sequential_sum,
    _weight_into,
    dirichlet_form,
    inner_product,
    mask_of,
    q_form,
    set_measures,
    vertices_of,
)
from specgraph.harness import (
    INEQUALITY_TOL,
    IDENTITY_TOL,
    ORTHOGONALITY_TOL,
    RandomGraphSpec,
    SuiteConfig,
    analyze,
    check_auxiliary,
    check_operator_partition,
    check_plus_minus_split,
    coarea_check,
    run_suite,
    sample_graph,
    tau_split,
)
from specgraph.invariants import cheeger_ratio, dual_cheeger_ratio, kappa_pair, r_quantity
from specgraph.kgraph import (
    PSequence,
    delta_eigenvalue,
    eigenfunction,
    p_eigenvalue,
    truncate_K,
)
from specgraph.reports import CheckReport
from specgraph.spectral import (
    AuxiliaryGraph,
    SignedBlockOperator,
    _blocked,
    _clamp,
    auxiliary_graph,
    random_walk_matrix,
    rayleigh,
    signed_conjugation,
    symmetric_conjugate,
)

G4 = WeightedGraph([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (2, 3, 1.0)])
DYADIC = PSequence((0.5, 0.25), 0.5)


# ------------------------------------------------------ reference queries


def _ref_as_function(graph, f):
    arr = np.asarray(f, dtype=float)
    if arr.shape != (graph.n,):
        raise BadParameter(f"function has shape {arr.shape}, expected ({graph.n},)")
    return arr


def ref_mask_of(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def ref_vertices_of(mask):
    return np.flatnonzero(_indicator(int(mask).bit_length(), mask)).tolist()


def ref_set_measures(graph, mask):
    if mask == 0:
        raise EmptySet("set_measures of the empty set")
    inside = _indicator(graph.n, mask)
    ends_inside = inside[graph.u].astype(int) + inside[graph.v]
    return (
        float(_sequential_sum(graph.vertex_measure[inside])),
        float(_sequential_sum(graph.w[ends_inside == 1])),
        float(_sequential_sum(graph.w[ends_inside == 2])),
    )


def ref_cheeger_ratio(graph, mask):
    m_set, boundary, _ = ref_set_measures(graph, mask)
    return boundary / m_set


def ref_r_quantity(graph, mask):
    m_set, _, interior = ref_set_measures(graph, mask)
    return 2.0 * interior / m_set


def _ref_check_pair(mask_a, mask_b, what):
    if mask_a == 0 or mask_b == 0:
        raise EmptySet(f"{what} needs two nonempty sets")
    if mask_a & mask_b:
        raise NotDisjoint(f"sets share vertices {ref_vertices_of(mask_a & mask_b)}")


def ref_dual_cheeger_ratio(graph, mask_a, mask_b):
    _ref_check_pair(mask_a, mask_b, "dual_cheeger_ratio")
    in_a = _indicator(graph.n, mask_a)
    in_b = _indicator(graph.n, mask_b)
    u, v = graph.u, graph.v
    cross = _sequential_sum(graph.w[(in_a[u] & in_b[v]) | (in_b[u] & in_a[v])])
    denom = _sequential_sum(graph.vertex_measure[in_a | in_b])
    return float(2.0 * cross / denom)


def ref_kappa_pair(graph, mask_a, mask_b):
    _ref_check_pair(mask_a, mask_b, "kappa_pair")
    sides = [_indicator(graph.n, mask) for mask in (mask_a, mask_b)]
    ratios = [(_weight_into(graph, s) / graph.vertex_measure)[s].max() for s in sides]
    return float(max(0.0, *ratios))


def _ref_edge_energy(graph, f, sign):
    arr = _ref_as_function(graph, f)
    terms = arr[graph.u] + sign * arr[graph.v]
    return _finite_fsum((w * t ** 2 for w, t in zip(graph.w, terms)), "edge energy")


def ref_dirichlet_form(graph, f):
    return _ref_edge_energy(graph, f, -1.0)


def ref_q_form(graph, f):
    return _ref_edge_energy(graph, f, 1.0)


def ref_inner_product(graph, f, g):
    fa = _ref_as_function(graph, f)
    ga = _ref_as_function(graph, g)
    return _finite_fsum(graph.vertex_measure * fa * ga, "inner product")


def ref_rayleigh(graph, f):
    norm = ref_inner_product(graph, f, f)
    if norm == 0.0:
        raise ZeroFunction("Rayleigh quotient of the zero function")
    return ref_dirichlet_form(graph, f) / norm


def _ref_partition_masks(graph, mask_a):
    full = (1 << graph.n) - 1
    mask_a &= full
    mask_b = full ^ mask_a
    if mask_a == 0 or mask_b == 0:
        raise EmptySet("partition classes must both be nonempty")
    return mask_a, mask_b


def ref_signed_conjugation(graph, mask_a):
    mask_a, mask_b = _ref_partition_masks(graph, mask_a)
    side = _indicator(graph.n, mask_a)
    signs = np.where(side, 1.0, -1.0)

    walk = random_walk_matrix(graph)
    lap = np.eye(graph.n) - walk
    p_psi = _blocked(walk, side)
    conjugated = lap * signs[None, :] / signs[:, None]
    target = 2.0 * np.eye(graph.n) - lap - 2.0 * p_psi
    identity_residual = float(np.abs(conjugated - target).max())

    n_sym = symmetric_conjugate(graph)
    sym_conj = (np.eye(graph.n) - n_sym) * signs[:, None] * signs[None, :]
    values = _clamp(np.sort(np.linalg.eigvalsh(sym_conj)))
    blocked_norm = float(np.abs(np.linalg.eigvalsh(_blocked(n_sym, side))).max())
    return SignedBlockOperator(mask_a, mask_b, identity_residual, values, blocked_norm)


def ref_auxiliary_graph(graph, f):
    arr = np.asarray(f, dtype=float)
    u, v, w = graph.u, graph.v, graph.w
    same = arr[u] * arr[v] > 0.0
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


def ref_tau_split(graph, g):
    arr = np.asarray(g, dtype=float)
    order = np.argsort(arr, kind="stable")
    cum = np.cumsum(graph.vertex_measure[order])
    k = int(np.searchsorted(cum, graph.total_measure / 2.0))
    tau = float(arr[order[min(k, graph.n - 1)]])
    g_plus = np.maximum(arr - tau, 0.0)
    g_minus = np.maximum(tau - arr, 0.0)
    return tau, g_plus, g_minus


def ref_check_plus_minus_split(analysis, g):
    graph = analysis.graph
    arr = np.asarray(g, dtype=float)
    norm = ref_inner_product(graph, arr, arr)
    if norm == 0.0:
        raise ZeroFunction("split of the zero function")
    total = graph.total_measure
    mean = float(math.fsum(graph.vertex_measure * arr))
    if abs(mean) > ORTHOGONALITY_TOL * max(1.0, math.sqrt(norm * total)):
        raise NotOrthogonal(f"<g, 1> = {mean} is not negligible")

    tau, g_plus, g_minus = ref_tau_split(graph, arr)
    fp = analysis.fingerprint
    m = graph.vertex_measure
    below = float(m[arr < tau].sum())
    above = float(m[arr > tau].sum())
    overlap = float(np.max(g_plus * g_minus))
    norm_parts = ref_inner_product(graph, g_plus, g_plus) + ref_inner_product(
        graph, g_minus, g_minus
    )
    energy = ref_dirichlet_form(graph, arr)
    energy_parts = ref_dirichlet_form(graph, g_plus) + ref_dirichlet_form(graph, g_minus)
    return [
        CheckReport.inequality(
            "split_half_measure",
            max(below, above),
            total / 2.0,
            INEQUALITY_TOL * max(1.0, total),
            fp,
        ),
        CheckReport.identity("split_disjoint_support", overlap, 0.0, 0.0, fp),
        CheckReport.inequality(
            "split_norm_domination", norm, norm_parts, INEQUALITY_TOL * max(1.0, norm), fp
        ),
        CheckReport.inequality(
            "split_energy_domination",
            energy_parts,
            energy,
            INEQUALITY_TOL * max(1.0, energy),
            fp,
        ),
    ]


def ref_coarea_check(analysis, f):
    graph = analysis.graph
    fp = analysis.fingerprint
    arr = np.asarray(f, dtype=float)
    g = arr * arr
    levels = np.concatenate(([0.0], np.unique(g)))
    widths = np.diff(levels)
    above = g[None, :] > levels[:-1][widths > 0.0, None]
    widths = widths[widths > 0.0]
    m_above = _sequential_sum(np.where(above, graph.vertex_measure, 0.0))
    cut = _sequential_sum(np.where(above[:, graph.u] != above[:, graph.v], graph.w, 0.0))
    measure_integral = float(_sequential_sum(widths * m_above))
    boundary_integral = float(_sequential_sum(widths * cut))

    norm = ref_inner_product(graph, arr, arr)
    variation = math.fsum((graph.w * np.abs(g[graph.u] - g[graph.v])).tolist())
    tol_a = 1e-10 * max(1.0, abs(norm))
    tol_b = 1e-10 * max(1.0, abs(variation))
    return (
        CheckReport.identity("coarea_level_measure", measure_integral, norm, tol_a, fp),
        CheckReport.identity(
            "coarea_level_boundary", boundary_integral, variation, tol_b, fp
        ),
    )


def ref_check_operator_partition(analysis, mask_a):
    graph = analysis.graph
    fp = analysis.fingerprint
    op = ref_signed_conjugation(graph, mask_a)
    deviation = float(np.abs(op.values - analysis.spectrum.values).max())
    kappa = ref_kappa_pair(graph, op.mask_a, op.mask_b)
    r_a = ref_r_quantity(graph, op.mask_a)
    r_b = ref_r_quantity(graph, op.mask_b)
    pair_ratio = ref_dual_cheeger_ratio(graph, op.mask_a, op.mask_b)
    return [
        CheckReport.identity("conjugation_identity", op.identity_residual, 0.0, 1e-12, fp),
        CheckReport.identity("conjugation_spectrum", deviation, 0.0, 1e-9, fp),
        CheckReport.inequality("p_psi_kappa", op.blocked_norm, kappa, INEQUALITY_TOL, fp),
        CheckReport.inequality(
            "r_chain_lower", min(r_a, r_b), 1.0 - pair_ratio, INEQUALITY_TOL, fp
        ),
        CheckReport.inequality(
            "r_chain_upper", 1.0 - pair_ratio, max(r_a, r_b), INEQUALITY_TOL, fp
        ),
        CheckReport.inequality("r_chain_kappa", max(r_a, r_b), kappa, INEQUALITY_TOL, fp),
    ]


def ref_check_auxiliary(analysis, f):
    graph = analysis.graph
    fp = analysis.fingerprint
    arr = np.asarray(f, dtype=float)
    aux = ref_auxiliary_graph(graph, arr)
    norm = ref_inner_product(graph, arr, arr)
    norm_aux = ref_inner_product(aux.graph, aux.values, aux.values)
    energy = ref_q_form(graph, arr)
    energy_aux = ref_dirichlet_form(aux.graph, aux.values)
    return [
        CheckReport.identity(
            "auxiliary_norm", norm_aux, norm, IDENTITY_TOL * max(1.0, norm), fp
        ),
        CheckReport.inequality(
            "auxiliary_energy", energy_aux, energy, IDENTITY_TOL * max(1.0, energy), fp
        ),
    ]


# ---------------------------------------------------------------- the fuzz

# Query name -> (query, reference, kinds of its arguments in order).  "graph"
# and "analysis" are the drawn graph and its analysis; "mask" (a set of the
# graph), "bits" (any bitmask), "function" and "vertices" are drawn per
# argument.
FUZZ = {
    "set_measures": (set_measures, ref_set_measures, ("graph", "mask")),
    "cheeger_ratio": (cheeger_ratio, ref_cheeger_ratio, ("graph", "mask")),
    "r_quantity": (r_quantity, ref_r_quantity, ("graph", "mask")),
    "dual_cheeger_ratio": (
        dual_cheeger_ratio, ref_dual_cheeger_ratio, ("graph", "mask", "mask")
    ),
    "kappa_pair": (kappa_pair, ref_kappa_pair, ("graph", "mask", "mask")),
    "signed_conjugation": (signed_conjugation, ref_signed_conjugation, ("graph", "mask")),
    "check_operator_partition": (
        check_operator_partition, ref_check_operator_partition, ("analysis", "mask")
    ),
    "mask_of": (mask_of, ref_mask_of, ("vertices",)),
    "vertices_of": (vertices_of, ref_vertices_of, ("bits",)),
    "dirichlet_form": (dirichlet_form, ref_dirichlet_form, ("graph", "function")),
    "q_form": (q_form, ref_q_form, ("graph", "function")),
    "inner_product": (
        inner_product, ref_inner_product, ("graph", "function", "function")
    ),
    "rayleigh": (rayleigh, ref_rayleigh, ("graph", "function")),
    "auxiliary_graph": (auxiliary_graph, ref_auxiliary_graph, ("graph", "function")),
    "tau_split": (tau_split, ref_tau_split, ("graph", "function")),
    "check_plus_minus_split": (
        check_plus_minus_split, ref_check_plus_minus_split, ("analysis", "function")
    ),
    "coarea_check": (coarea_check, ref_coarea_check, ("analysis", "function")),
    "check_auxiliary": (check_auxiliary, ref_check_auxiliary, ("analysis", "function")),
}

# Parameter names that carry a vertex set, a vertex id list or a vertex function.
VERTEX_PARAMETERS = {"mask", "mask_a", "mask_b", "vertices", "f", "g"}

MASK_KINDS = ("valid", "zero", "minus_one", "one_above", "huge", "float", "string")
FUNCTION_KINDS = ("valid", "short", "long", "column", "strings", "nan", "inf")
VERTICES_KINDS = ("valid", "negative", "float", "string")


def _draw(data, kind, graph):
    """One argument of ``kind`` for a query on ``graph``, and whether it is
    valid."""
    n = graph.n
    if kind in ("mask", "bits"):
        which = data.draw(st.sampled_from(MASK_KINDS))
        if which == "valid":
            return data.draw(st.integers(1, (1 << n) - 1)), True
        bitmask = which in ("zero", "one_above", "huge")
        return {
            "zero": 0, "minus_one": -1, "one_above": 1 << n, "huge": 1 << 100,
            "float": 1.0, "string": "1",
        }[which], kind == "bits" and bitmask
    if kind == "vertices":
        which = data.draw(st.sampled_from(VERTICES_KINDS))
        if which == "valid":
            return data.draw(st.lists(st.integers(0, n - 1), max_size=n)), True
        return {"negative": [0, -1], "float": [1.5], "string": ["1"]}[which], False
    which = data.draw(st.sampled_from(FUNCTION_KINDS))
    values = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    f = np.array(values)
    if data.draw(st.booleans()):  # mean-free, as the split checks need
        f -= math.fsum(graph.vertex_measure * f) / graph.total_measure
    at = data.draw(st.integers(0, n - 1))
    if which == "valid":
        return f, True
    if which in ("short", "long"):
        return np.resize(f, n - 1 if which == "short" else n + 1), False
    if which == "column":
        return f[:, None], False
    if which == "strings":
        return ["x"] * n, False
    f[at] = math.nan if which == "nan" else data.draw(st.sampled_from([math.inf, -math.inf]))
    return f, False


def _bits(x):
    """A comparable form of a query result: float hex, array bytes, the
    fields of a dataclass and the arrays of a graph."""
    if isinstance(x, WeightedGraph):
        return ("graph", x.n, x.labels, *map(_bits, (x.u, x.v, x.w, x.vertex_measure)))
    if isinstance(x, (np.ndarray, np.generic)):
        return (type(x).__name__, x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return (type(x).__name__, float(x).hex())
    if isinstance(x, (bool, int, str)):
        return (type(x).__name__, x)
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, *map(_bits, x))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(_bits(getattr(x, f.name)) for f in dataclasses.fields(x)))
    raise TypeError(f"no comparable form for {type(x).__name__}")


def _outcome(query, args):
    """``("value", bits)`` or ``("raised", error type)``; anything but a
    ``SpecgraphError`` (a warning included) propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "value", _bits(query(*args))
        except SpecgraphError as exc:
            return "raised", type(exc)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    density=st.sampled_from([0.3, 0.6, 1.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_vertex_queries_answer_or_raise_one_typed_error(n, density, seed, data):
    graph = sample_graph(RandomGraphSpec(n=n, edge_probability=density, seed=seed))
    analysis = analyze(graph)
    for name, (query, reference, kinds) in FUZZ.items():
        args, valid = [], True
        for kind in kinds:
            if kind in ("graph", "analysis"):
                args.append(graph if kind == "graph" else analysis)
                continue
            arg, ok = _draw(data, kind, graph)
            args.append(arg)
            valid &= ok
        got = _outcome(query, args)
        if valid:
            assert got == _outcome(reference, args), (name, args)
        else:
            assert got[0] == "raised", (name, args)


def test_fuzz_table_covers_every_vertex_query():
    """A public function of these modules with a vertex parameter must be in
    ``FUZZ``, so that no query skips the readers untested."""
    for module in (graph_module, invariants, spectral, harness):
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isfunction(obj):
                continue
            if VERTEX_PARAMETERS & set(inspect.signature(obj).parameters):
                assert name in FUZZ, f"{module.__name__}.{name} is not fuzzed"
                assert FUZZ[name][0] is obj, name


# ------------------------------------------------------- refused arguments


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: set_measures(G4, 1 << 5), id="set_measures-outside"),
        pytest.param(lambda: cheeger_ratio(G4, 1 << 5), id="cheeger_ratio-outside"),
        pytest.param(lambda: r_quantity(G4, 1 << 5), id="r_quantity-outside"),
        pytest.param(lambda: dual_cheeger_ratio(G4, 1 << 6, 1), id="dual-outside"),
        pytest.param(lambda: kappa_pair(G4, 1 << 6, 1), id="kappa_pair-outside"),
        pytest.param(lambda: set_measures(G4, 1 << 100), id="set_measures-wide"),
        pytest.param(lambda: dual_cheeger_ratio(G4, 1 << 100, 1), id="dual-wide"),
        pytest.param(
            lambda: signed_conjugation(G4, (1 << 100) | 1), id="conjugation-wide"
        ),
    ],
)
def test_a_set_outside_the_graph_is_refused(call):
    with pytest.raises(BadParameter):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: set_measures(G4, -1), id="set_measures"),
        pytest.param(lambda: signed_conjugation(G4, -2), id="signed_conjugation"),
        pytest.param(lambda: vertices_of(-3), id="vertices_of"),
        pytest.param(lambda: mask_of([-1]), id="mask_of"),
    ],
)
def test_a_negative_set_or_id_is_refused(call):
    with pytest.raises(BadParameter):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: set_measures(G4, 1.0), id="set_measures-float"),
        pytest.param(lambda: set_measures(G4, "1"), id="set_measures-string"),
        pytest.param(lambda: mask_of([1.5]), id="mask_of-float"),
    ],
)
def test_a_set_or_id_that_is_not_an_integer_is_refused(call):
    with pytest.raises(BadParameter):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: tau_split(G4, [0.0, 1.0]), id="tau_split-short"),
        pytest.param(lambda: tau_split(G4, np.arange(6.0)), id="tau_split-long"),
        pytest.param(lambda: auxiliary_graph(G4, np.arange(6.0)), id="auxiliary-long"),
        pytest.param(lambda: auxiliary_graph(G4, np.arange(3.0)), id="auxiliary-short"),
        pytest.param(
            lambda: coarea_check(analyze(G4), np.arange(6.0)), id="coarea-long"
        ),
    ],
)
def test_a_function_of_the_wrong_length_is_refused(call):
    with pytest.raises(BadParameter):
        call()


def test_a_function_that_is_not_finite_is_refused():
    with pytest.raises(BadParameter):
        tau_split(G4, [math.nan] * 4)


def test_valid_arguments_keep_their_bits():
    """Integer types ``operator.index`` accepts read as the same set."""
    assert set_measures(G4, np.int64(0b0110)) == set_measures(G4, 0b0110)
    assert vertices_of(np.int64(5)) == [0, 2] and mask_of(np.arange(3)) == 7
    op = signed_conjugation(G4, np.int64(0b0011))
    assert (op.mask_a, op.mask_b) == (3, 12) and type(op.mask_a) is int


# ------------------------------------------------------- integer parameters


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: generate(FamilySpec("cycle", 5.5)), id="generate"),
        pytest.param(lambda: sample_graph(RandomGraphSpec(n=5.5)), id="sample_graph"),
        pytest.param(lambda: run_suite(SuiteConfig(seeds=1.5)), id="run_suite"),
        pytest.param(lambda: truncate_K(DYADIC, 5.5), id="truncate_K"),
        pytest.param(lambda: p_eigenvalue(DYADIC, 1.5), id="p_eigenvalue"),
        pytest.param(lambda: delta_eigenvalue(DYADIC, 1.5), id="delta_eigenvalue"),
        pytest.param(
            lambda: eigenfunction(DYADIC, delta_eigenvalue(DYADIC, 1), 2.5),
            id="eigenfunction",
        ),
        pytest.param(lambda: PSequence(("a",), 0.5), id="PSequence"),
    ],
)
def test_parameters_that_are_not_integers_or_numbers_are_refused(call):
    with pytest.raises(BadParameter):
        call()
