"""Argument readers: every public query that takes a vertex set, a vertex
function or a scalar parameter answers, or raises one ``SpecgraphError``, and
an argument that can never be usable always raises.

The ``ref_*`` functions are the bodies these queries had before they read
their arguments through ``graph._as_set`` and ``graph._as_function`` (vertex
arguments) or ``graph._real`` and ``graph._integer`` (scalars); on valid
arguments each query must return their result bit for bit (value hex, array
bytes).  The fuzz table ``FUZZ`` names every public function of ``graph``,
``invariants``, ``spectral`` and ``harness`` with a vertex argument, and
``SCALAR_FUZZ`` every public function, checked record and method of those
modules, ``kgraph`` and ``families`` with a parameter annotated ``int`` or
``float``; a guard test keeps each complete.
"""

import dataclasses
import hashlib
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraph import families, harness, invariants, kgraph, spectral
from specgraph import graph as graph_module
from specgraph.errors import BadParameter, EmptySet, EmptySpectrum, NotDisjoint
from specgraph.errors import NotOrthogonal, NumericalFailure, PoleProximity
from specgraph.errors import SpecgraphError, TooLarge, ZeroFunction
from specgraph.families import FAMILIES, FamilySpec, closed_form, generate, tail_ratio_trace
from specgraph.graph import (
    WeightedGraph,
    _finite_fsum,
    _indicator,
    _integer,
    _sequential_sum,
    _weight_into,
    dirichlet_form,
    graph_to_json,
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
from specgraph.invariants import (
    cheeger_constant_exact,
    cheeger_ratio,
    dual_cheeger_ratio,
    kappa_exact,
    kappa_pair,
    r_quantity,
)
from specgraph.kgraph import (
    PSequence,
    asymmetry_K,
    delta_eigenvalue,
    eigenfunction,
    p_eigenvalue,
    secular_F,
    truncate_K,
)
from specgraph.reports import CheckReport
from specgraph.spectral import (
    AuxiliaryGraph,
    SignedBlockOperator,
    _blocked,
    _clamp,
    auxiliary_graph,
    hausdorff_asymmetry,
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
        ),
        CheckReport.identity("split_disjoint_support", overlap, 0.0, 0.0),
        CheckReport.inequality(
            "split_norm_domination", norm, norm_parts, INEQUALITY_TOL * max(1.0, norm)
        ),
        CheckReport.inequality(
            "split_energy_domination",
            energy_parts,
            energy,
            INEQUALITY_TOL * max(1.0, energy),
        ),
    ]


def ref_coarea_check(analysis, f):
    graph = analysis.graph
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
        CheckReport.identity("coarea_level_measure", measure_integral, norm, tol_a),
        CheckReport.identity(
            "coarea_level_boundary", boundary_integral, variation, tol_b
        ),
    )


def ref_check_operator_partition(analysis, mask_a):
    graph = analysis.graph
    op = ref_signed_conjugation(graph, mask_a)
    deviation = float(np.abs(op.values - analysis.spectrum.values).max())
    kappa = ref_kappa_pair(graph, op.mask_a, op.mask_b)
    r_a = ref_r_quantity(graph, op.mask_a)
    r_b = ref_r_quantity(graph, op.mask_b)
    pair_ratio = ref_dual_cheeger_ratio(graph, op.mask_a, op.mask_b)
    return [
        CheckReport.identity("conjugation_identity", op.identity_residual, 0.0, 1e-12),
        CheckReport.identity("conjugation_spectrum", deviation, 0.0, 1e-9),
        CheckReport.inequality("p_psi_kappa", op.blocked_norm, kappa, INEQUALITY_TOL),
        CheckReport.inequality(
            "r_chain_lower", min(r_a, r_b), 1.0 - pair_ratio, INEQUALITY_TOL
        ),
        CheckReport.inequality(
            "r_chain_upper", 1.0 - pair_ratio, max(r_a, r_b), INEQUALITY_TOL
        ),
        CheckReport.inequality("r_chain_kappa", max(r_a, r_b), kappa, INEQUALITY_TOL),
    ]


def ref_check_auxiliary(analysis, f):
    graph = analysis.graph
    arr = np.asarray(f, dtype=float)
    aux = ref_auxiliary_graph(graph, arr)
    norm = ref_inner_product(graph, arr, arr)
    norm_aux = ref_inner_product(aux.graph, aux.values, aux.values)
    energy = ref_q_form(graph, arr)
    energy_aux = ref_dirichlet_form(aux.graph, aux.values)
    return [
        CheckReport.identity(
            "auxiliary_norm", norm_aux, norm, IDENTITY_TOL * max(1.0, norm)
        ),
        CheckReport.inequality(
            "auxiliary_energy", energy_aux, energy, IDENTITY_TOL * max(1.0, energy)
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
FUNCTION_KINDS = (
    "valid", "short", "long", "column", "strings", "numeric_strings", "complex", "nan", "inf"
)
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
    if which == "numeric_strings":
        return [repr(float(x)) for x in f], False
    if which == "complex":
        return f + data.draw(st.sampled_from([0j, 3j])), False
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
    if x is None or isinstance(x, (bool, int, str)):
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


# ------------------------------------------------------- scalar parameters
#
# The ``ref_*`` functions below are the parent bodies of the readers that now
# go through ``graph._real`` and ``graph._integer``.  A constructor's
# reference returns the fields it stored, in field order.  Where only a
# prologue that reads the parameters changed (``p_eigenvalue`` and the
# enumeration caps), the reference is the parent prologue in front of the
# current body.


def ref_psequence(head, ratio):
    try:
        head = tuple(float(x) for x in head)
        ratio = float(ratio)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"sequence weights must be numbers: {exc}") from None
    if len(head) == 0:
        raise BadParameter("sequence head is empty")
    if not 0.0 < ratio < 1.0:
        raise BadParameter(f"tail ratio {ratio} outside (0, 1)")
    for x in head:
        if not 0.0 < x < 1.0:
            raise BadParameter(f"weight {x} outside (0, 1)")
    for a, b in zip(head, head[1:]):
        if not a > b:
            raise BadParameter("head weights must strictly decrease")
    total = math.fsum(head) + head[-1] * ratio / (1.0 - ratio)
    if abs(total - 1.0) > 1e-14:
        raise BadParameter(f"weights sum to {total!r}, not 1")
    return head, ratio


def ref_p(self, i):
    if i < 1:
        raise BadParameter("sequence indices start at 1")
    n = len(self.head)
    if i <= n:
        return self.head[i - 1]
    return self.head[-1] * self.ratio ** (i - n)


def ref_alpha(self, i):
    p = ref_p(self, i)
    return -p / (1.0 - p)


def ref_r(self, i):
    return 1.0 / (1.0 - ref_p(self, i))


def ref_remainder(self, j):
    if j < 0:
        raise BadParameter("remainder index must be nonnegative")
    n = len(self.head)
    if j >= n:
        return self.head[-1] * self.ratio ** (j + 1 - n) / (1.0 - self.ratio)
    return math.fsum(self.head[j:]) + self.tail_sum


def ref_evaluate(p, lam):
    if not math.isfinite(lam):
        raise BadParameter(f"evaluation point {lam} is not finite")
    terms = max(2 * len(p.head) + 16, 32)
    while True:
        _, alphas = kgraph._tables(p, terms)
        if lam < 0.0 and alphas[-1] < lam:
            if terms >= kgraph._MAX_TERMS:
                raise NumericalFailure(f"cannot cover {lam} with {terms} pole terms")
            terms = min(kgraph._MAX_TERMS, terms * 2)
            continue
        delta = min(float(np.abs(lam - alphas).min()), abs(lam))
        if delta < kgraph.POLE_TOL:
            raise PoleProximity(f"evaluation point {lam} within {delta} of a pole")
        tail = ref_remainder(p, terms) / ((1.0 - p.head[0]) * delta)
        if tail <= kgraph._TAIL_TARGET or terms >= kgraph._MAX_TERMS:
            break
        terms = min(kgraph._MAX_TERMS, terms * 2)
    if tail > kgraph._TAIL_TARGET:
        raise NumericalFailure(f"tail bound {tail} above target at {terms} terms")
    value = math.fsum((alphas / (alphas - lam)).tolist())
    return value, tail, terms, alphas


def ref_secular_F(p, lam):
    value, tail, _, _ = ref_evaluate(p, lam)
    return value, tail


def _ref_root_prologue(i, tol):
    i = _integer(i, "root index")
    if i < 1:
        raise BadParameter("root indices start at 1")
    if not 0.0 < tol < math.inf:
        raise BadParameter(f"tolerance must be positive and finite, got {tol!r}")


def ref_p_eigenvalue(p, i, tol=1e-9):
    _ref_root_prologue(i, tol)
    return p_eigenvalue(p, i, tol)


def ref_delta_eigenvalue(p, i, tol=1e-9):
    _ref_root_prologue(i, tol)
    return delta_eigenvalue(p, i, tol)


def ref_asymmetry_K(p, tol=1e-9):
    _ref_root_prologue(1, tol)
    return asymmetry_K(p, tol)


def ref_eigenfunction(p, root, k):
    k = _integer(k, "value count")
    if k < 1:
        raise BadParameter("need at least one eigenfunction value")
    lam = root.value if root.kind == "walk" else 1.0 - root.value
    ws = np.array([ref_p(p, i) for i in range(1, k + 1)])
    gap = ws / (1.0 - ws) + lam
    values = 1.0 / gap
    lhs, tail, _, alphas = ref_evaluate(p, lam)
    budget = root.residual + root.tail_bound + tail + kgraph.RESIDUAL_BUDGET
    if root.kind == "laplacian":
        shift = 2.0**-53 * (abs(root.value) + abs(lam))
        budget += 2.0 * abs(kgraph._derivative(lam, alphas)) * shift
    if np.flatnonzero(np.abs(lhs - gap * values) > budget).size:
        raise NumericalFailure("eigenfunction relation fails")
    return values


def ref_truncate_K(p, size, renormalize=False):
    size = _integer(size, "truncation size")
    if size < 2:
        raise BadParameter("truncation needs at least two vertices")
    if size * (size - 1) // 2 > kgraph.SIZE_LIMIT:
        raise TooLarge(f"truncation to {size} vertices")
    ps = np.array([ref_p(p, i) for i in range(1, size + 1)])
    if renormalize:
        ps *= 1.0 / math.fsum(ps)
    i, j = np.triu_indices(size, 1)
    w = ps[i] * ps[j]
    return WeightedGraph(np.column_stack([i, j, w])[w > 0.0], labels=list(range(1, size + 1)))


def ref_family_spec(family, size, r=None, rho=None, p=None):
    if family not in FAMILIES:
        raise BadParameter(f"unknown family {family!r}")
    return family, _integer(size, "size"), r, rho, p


def ref_random_graph_spec(n, edge_probability=0.5, seed=0):
    n, seed = _integer(n, "n"), _integer(seed, "seed")
    if n < 2:
        raise BadParameter("random graphs need at least two vertices")
    if not 0.0 < edge_probability <= 1.0:
        raise BadParameter(f"edge probability {edge_probability} outside (0, 1]")
    return n, edge_probability, seed


def ref_suite_config(
    seeds=200, n_min=4, n_max=12, edge_probability=0.5, base_seed=0, max_n=None,
    include_families=True,
):
    seeds, n_min, n_max, base_seed = (
        _integer(seeds, "seeds"), _integer(n_min, "n_min"), _integer(n_max, "n_max"),
        _integer(base_seed, "base_seed"),
    )
    if max_n is not None:
        max_n = _integer(max_n, "max_n")
    if seeds < 0:
        raise BadParameter("seed count must be nonnegative")
    if not 2 <= n_min <= n_max:
        raise BadParameter(f"size range [{n_min}, {n_max}] is not usable")
    return seeds, n_min, n_max, edge_probability, base_seed, max_n, include_families


def _ref_check_cap(n, max_n, default, what):
    cap = default if max_n is None else max_n
    if n > cap:
        raise TooLarge(f"{what} enumeration capped at {cap} vertices, got {n}")


def _ref_search(search, default):
    def ref(graph, max_n=None, **options):
        _ref_check_cap(graph.n, max_n, default, search.__name__)
        return search(graph, graph.n, **options)

    return ref


ref_cheeger_constant_exact = _ref_search(
    invariants.cheeger_constant_exact, invariants.DEFAULT_MAX_CHEEGER
)
ref_dual_cheeger_exact = _ref_search(invariants.dual_cheeger_exact, invariants.DEFAULT_MAX_DUAL)
ref_kappa_exact = _ref_search(invariants.kappa_exact, invariants.DEFAULT_MAX_KAPPA)
ref_h_via_r = _ref_search(invariants.h_via_r, invariants.DEFAULT_MAX_CHEEGER)


def ref_graph_fingerprint(graph, seed=None):
    digest = hashlib.md5(graph_to_json(graph).encode()).hexdigest()[:12]
    return digest if seed is None else f"{digest}:{seed}"


def ref_analyze(graph, max_n=None, seed=None):
    return harness.Analysis(
        graph,
        ref_cheeger_constant_exact(graph, max_n),
        ref_dual_cheeger_exact(graph, max_n),
        ref_kappa_exact(graph, max_n),
        spectral.spectrum(graph),
        spectral.spectrum(graph, eigenvectors=True),
        ref_graph_fingerprint(graph, seed),
        ref_h_via_r(graph, max_n),
    )


def ref_hausdorff_asymmetry(values):
    sigma = np.sort(np.asarray(values, dtype=float))
    if len(sigma) == 0:
        raise EmptySpectrum("asymmetry of an empty spectrum")
    if not np.isfinite(sigma).all():
        raise BadParameter("asymmetry of a spectrum with a value that is not finite")
    reflected = np.sort(2.0 - sigma)
    one_sided = spectral._sup_distance(reflected, sigma)
    full = max(spectral._sup_distance(sigma, reflected), one_sided)
    if abs(full - one_sided) > spectral._ROUTE_TOL:
        raise NumericalFailure(f"asymmetry routes disagree: {full} vs {one_sided}")
    return full


A4 = analyze(G4)
ROOT = delta_eigenvalue(DYADIC, 1)

# Name -> (callable, reference, fixed arguments, valid values of each scalar
# parameter).  A method is named ``Class.method`` and takes ``self`` here.
SCALAR_FUZZ = {
    "set_measures": (set_measures, ref_set_measures, {"graph": G4}, {"mask": (1, 6, 15)}),
    "vertices_of": (vertices_of, ref_vertices_of, {}, {"mask": (0, 5, 1 << 70)}),
    "cheeger_ratio": (cheeger_ratio, ref_cheeger_ratio, {"graph": G4}, {"mask": (1, 6)}),
    "r_quantity": (r_quantity, ref_r_quantity, {"graph": G4}, {"mask": (1, 6)}),
    "dual_cheeger_ratio": (
        dual_cheeger_ratio, ref_dual_cheeger_ratio, {"graph": G4},
        {"mask_a": (1, 3), "mask_b": (4, 8)},
    ),
    "kappa_pair": (
        kappa_pair, ref_kappa_pair, {"graph": G4}, {"mask_a": (1, 3), "mask_b": (4, 8)}
    ),
    "signed_conjugation": (
        signed_conjugation, ref_signed_conjugation, {"graph": G4}, {"mask_a": (1, 6)}
    ),
    "check_operator_partition": (
        check_operator_partition, ref_check_operator_partition, {"analysis": A4},
        {"mask_a": (1, 6)},
    ),
    "cheeger_constant_exact": (
        invariants.cheeger_constant_exact, ref_cheeger_constant_exact, {"graph": G4},
        {"max_n": (None, 4, 20)},
    ),
    "dual_cheeger_exact": (
        invariants.dual_cheeger_exact, ref_dual_cheeger_exact, {"graph": G4},
        {"max_n": (None, 4, 20)},
    ),
    "kappa_exact": (
        invariants.kappa_exact, ref_kappa_exact, {"graph": G4}, {"max_n": (None, 4, 20)}
    ),
    "h_via_r": (invariants.h_via_r, ref_h_via_r, {"graph": G4}, {"max_n": (None, 4, 20)}),
    "analyze": (
        analyze, ref_analyze, {"graph": G4}, {"max_n": (None, 4), "seed": (None, 0, 7)}
    ),
    "RandomGraphSpec": (
        RandomGraphSpec, ref_random_graph_spec, {},
        {"n": (2, 5), "edge_probability": (0.5, 1.0, 0.01), "seed": (0, 3)},
    ),
    "SuiteConfig": (
        SuiteConfig, ref_suite_config, {},
        {
            "seeds": (0, 2), "n_min": (2, 4), "n_max": (6, 12),
            "edge_probability": (0.5, 1.0), "base_seed": (0, 5), "max_n": (None, 9),
        },
    ),
    "PSequence": (PSequence, ref_psequence, {"head": (0.5, 0.25)}, {"ratio": (0.5,)}),
    "PSequence.p": (PSequence.p, ref_p, {"self": DYADIC}, {"i": (1, 2, 3, 40)}),
    "PSequence.alpha": (PSequence.alpha, ref_alpha, {"self": DYADIC}, {"i": (1, 2, 3, 40)}),
    "PSequence.r": (PSequence.r, ref_r, {"self": DYADIC}, {"i": (1, 2, 3, 40)}),
    "PSequence.remainder": (
        PSequence.remainder, ref_remainder, {"self": DYADIC}, {"j": (0, 1, 2, 40)}
    ),
    "secular_F": (
        secular_F, ref_secular_F, {"p": DYADIC}, {"lam": (0.3, -0.2, 1.5, 3.0, -3.0)}
    ),
    "p_eigenvalue": (
        p_eigenvalue, ref_p_eigenvalue, {"p": DYADIC},
        {"i": (1, 2, 5), "tol": (1e-9, 1e-6, 1.5)},
    ),
    "delta_eigenvalue": (
        delta_eigenvalue, ref_delta_eigenvalue, {"p": DYADIC},
        {"i": (1, 2, 5), "tol": (1e-9, 1e-6, 1.5)},
    ),
    "eigenfunction": (
        eigenfunction, ref_eigenfunction, {"p": DYADIC, "root": ROOT}, {"k": (1, 3, 10)}
    ),
    "asymmetry_K": (asymmetry_K, ref_asymmetry_K, {"p": DYADIC}, {"tol": (1e-9, 1e-6)}),
    "truncate_K": (truncate_K, ref_truncate_K, {"p": DYADIC}, {"size": (2, 6)}),
    "FamilySpec": (
        FamilySpec, ref_family_spec, {"family": "ladder_L"},
        {"size": (1, 5), "r": (0.5, 0.9), "rho": (0.3, 0.5)},
    ),
}

# Drawn in place of one scalar parameter; the others keep valid values.
ODD_SCALARS = {
    "string": "1", "none": None, "fraction": 1.5, "nan": math.nan, "inf": math.inf,
    "minus_one": -1, "complex": 1j,
}


def _scalar_parameters(obj):
    """Parameter name -> (``"int"`` or ``"float"``, whether ``None`` is
    allowed), for each parameter annotated ``int``, ``float`` or either
    ``| None``."""
    out = {}
    for name, param in inspect.signature(obj).parameters.items():
        kind, _, rest = str(param.annotation).partition(" | ")
        if kind in ("int", "float") and rest in ("", "None"):
            out[name] = (kind, rest == "None")
    return out


def _public_callables(module):
    """``(name, callable)`` for the functions in ``module.__all__``, the
    dataclasses there that check their fields in ``__post_init__``, and the
    public methods of its classes.  A dataclass without ``__post_init__``
    is a record of computed results and reads nothing."""
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj):
                yield name, obj
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def _scalar_outcome(call, kwargs):
    """``("value", bits)`` or ``("raised", error type)``, as ``_outcome``; a
    constructed record is compared by its fields."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**kwargs)
        except SpecgraphError as exc:
            return "raised", type(exc)
    if inspect.isclass(call):
        result = tuple(getattr(result, f.name) for f in dataclasses.fields(result))
    return "value", _bits(result)


def _must_raise(which, kind, optional):
    """Whether an odd value can never be a usable scalar of this kind."""
    if which == "none":
        return not optional
    if which == "fraction":
        return kind == "int"
    return which in ("string", "nan", "inf", "complex")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scalar_parameters_answer_or_raise_one_typed_error(data):
    for name, (call, reference, fixed, valid) in SCALAR_FUZZ.items():
        kinds = _scalar_parameters(call)
        kwargs = dict(fixed)
        for param in kinds:
            kwargs[param] = data.draw(st.sampled_from(valid[param]), label=f"{name}.{param}")
        odd = data.draw(st.sampled_from([None, *kinds]), label=f"{name} odd parameter")
        if odd is None:
            got = _scalar_outcome(call, kwargs)
            assert got == _scalar_outcome(reference, kwargs), (name, kwargs)
            continue
        which = data.draw(st.sampled_from(sorted(ODD_SCALARS)), label=f"{name}.{odd}")
        kwargs[odd] = ODD_SCALARS[which]
        got = _scalar_outcome(call, kwargs)
        if _must_raise(which, *kinds[odd]):
            assert got[0] == "raised", (name, kwargs)


def test_scalar_fuzz_table_covers_every_scalar_parameter():
    """A public callable of these modules with a parameter annotated ``int``,
    ``float`` or either ``| None`` must be in ``SCALAR_FUZZ`` with valid
    values for each such parameter."""
    for module in (graph_module, invariants, spectral, harness, kgraph, families):
        for name, obj in _public_callables(module):
            scalars = _scalar_parameters(obj)
            if not scalars:
                continue
            assert name in SCALAR_FUZZ, f"{module.__name__}.{name} is not fuzzed"
            call, _, _, valid = SCALAR_FUZZ[name]
            assert call is obj, name
            assert set(valid) == set(scalars), name


SEQUENCE = PSequence((0.9,), 0.1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: SEQUENCE.p(1.5), id="p"),
        pytest.param(lambda: SEQUENCE.alpha(1.5), id="alpha"),
        pytest.param(lambda: SEQUENCE.r(2.5), id="r"),
        pytest.param(lambda: SEQUENCE.remainder(1.5), id="remainder"),
        pytest.param(lambda: SEQUENCE.remainder(0.5), id="remainder-half"),
        pytest.param(
            lambda: tail_ratio_trace(FamilySpec("ladder_L", 5, r=0.5, rho=0.3), [1.5]),
            id="trace-ladder",
        ),
        pytest.param(
            lambda: tail_ratio_trace(FamilySpec("halfline_m3", 5), [1.5]), id="trace-m3"
        ),
        pytest.param(lambda: kappa_exact(G4, max_n=5.5), id="kappa-cap"),
        pytest.param(lambda: cheeger_constant_exact(G4, max_n="a"), id="cheeger-cap"),
        pytest.param(lambda: SuiteConfig(edge_probability="a"), id="suite-probability"),
        pytest.param(lambda: SuiteConfig(base_seed=-1), id="suite-seed"),
        pytest.param(lambda: sample_graph(RandomGraphSpec(n=5, seed=-1)), id="seed"),
        pytest.param(
            lambda: RandomGraphSpec(n=5, edge_probability="a"), id="edge-probability"
        ),
        pytest.param(lambda: secular_F(SEQUENCE, "a"), id="secular_F"),
        pytest.param(lambda: p_eigenvalue(SEQUENCE, 1, tol="a"), id="tol"),
        pytest.param(lambda: generate(FamilySpec("halfline_m4", 5, r="a")), id="generate-r"),
        pytest.param(
            lambda: closed_form(FamilySpec("ladder_L", 5, r=0.5, rho="a")), id="closed-rho"
        ),
        pytest.param(lambda: generate(FamilySpec("K_m1", 5, p="a")), id="generate-p"),
        pytest.param(lambda: hausdorff_asymmetry(["a"]), id="hausdorff-string"),
        pytest.param(
            lambda: hausdorff_asymmetry([[0.0, 2.0], [1.0, 1.5]]), id="hausdorff-matrix"
        ),
        pytest.param(lambda: hausdorff_asymmetry(1.0), id="hausdorff-scalar"),
        pytest.param(
            lambda: hausdorff_asymmetry(np.array([0.5 + 3j, 1.5])), id="hausdorff-complex"
        ),
        pytest.param(
            lambda: hausdorff_asymmetry(np.array([0.5, None], dtype=object)),
            id="hausdorff-object",
        ),
        pytest.param(lambda: tau_split(G4, ["0", "1", "2", "3"]), id="tau_split-strings"),
    ],
)
def test_scalar_parameters_that_are_not_usable_are_refused(call):
    with pytest.raises(BadParameter):
        call()


def test_numpy_scalars_and_bools_read_as_the_same_python_numbers():
    p = PSequence(np.array([0.5, 0.25]), np.float64(0.5))
    assert p == DYADIC and type(p.ratio) is float and type(p.head[0]) is float
    assert p.p(np.int64(3)) == DYADIC.p(3) and p.remainder(True) == DYADIC.remainder(1)
    assert secular_F(DYADIC, np.float32(0.25)) == ref_secular_F(DYADIC, 0.25)
    spec = RandomGraphSpec(np.int64(5), np.float64(0.5), np.int64(3))
    assert (spec.n, spec.edge_probability, spec.seed) == (5, 0.5, 3)
    assert type(spec.edge_probability) is float and type(spec.seed) is int
    family = FamilySpec("ladder_L", 3, r=np.float64(0.5), rho=True)
    assert (family.r, family.rho) == (0.5, 1.0) and type(family.r) is float
    assert hausdorff_asymmetry((0.0, 1, np.float32(2.0))) == 0.0


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 1.5, 2.0],
        (0.0, 0.3, 1.0, 1.25),
        np.array([1.0]),
        [0, 2, True],
        np.array([0.5, 1, True, Fraction(3, 2)], dtype=object),
    ],
)
def test_hausdorff_asymmetry_keeps_its_bits(values):
    assert hausdorff_asymmetry(values).hex() == ref_hausdorff_asymmetry(values).hex()
