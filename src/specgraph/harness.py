"""Inequality and identity checks swept over whole graphs.

Every guaranteed relation between the exact invariants, the spectrum, and the
operator constructions is judged here, once, as a named check producing
:class:`CheckReport` rows.  Each graph is analyzed once (:func:`analyze`):
every check reads the invariants, the partition route to ``h`` and the
spectra from that :class:`Analysis`, and runs no exact search itself.
``run_suite`` sweeps all checks over the example families plus seeded random
graphs and returns one deterministic summary, with the fingerprint of the
analysis in each row; ``CHECK_MANIFEST`` names every check the sweep must
cover, and an unknown or uncovered check id is itself a failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BadParameter, NotOrthogonal, SpecgraphError, ZeroFunction
from .families import FamilySpec, generate
from .graph import (
    WeightedGraph,
    _as_function,
    _indicator,
    _integer,
    _real,
    _sequential_sum,
    dirichlet_form,
    inner_product,
    q_form,
    set_measures,
)
from .invariants import (
    InvariantReport,
    cheeger_constant_exact,
    cheeger_ratio,
    dual_cheeger_exact,
    dual_cheeger_ratio,
    h_via_r,
    is_bipartite,
    kappa_exact,
    kappa_pair,
    r_quantity,
)
from .kgraph import PSequence
from .reports import CheckReport, graph_fingerprint
from .spectral import (
    ZERO_THRESHOLD,
    Spectrum,
    auxiliary_graph,
    hausdorff_asymmetry,
    rayleigh,
    signed_conjugation,
    spectrum,
)

__all__ = [
    "INEQUALITY_TOL",
    "IDENTITY_TOL",
    "CHECK_MANIFEST",
    "RandomGraphSpec",
    "SuiteConfig",
    "sample_graph",
    "Analysis",
    "analyze",
    "tau_split",
    "check_cheeger_inequalities",
    "check_asymmetry_bound",
    "check_witness_functions",
    "check_plus_minus_split",
    "coarea_check",
    "check_operator_partition",
    "check_global_invariants",
    "check_auxiliary",
    "graph_checks",
    "run_suite",
]

# One-sided relations may miss by this much before failing.
INEQUALITY_TOL = 1e-9
# Closed-form identities are matched to this, scaled by the target size.
IDENTITY_TOL = 1e-10
# A function counts as mean-free when <g, 1> is this small relative to
# the norms involved.
ORTHOGONALITY_TOL = 1e-9

# Check id -> the relation it asserts.  ``run_suite`` refuses a report whose
# id is missing here, and reports the manifest ids its sweep never produced.
CHECK_MANIFEST = {
    "cheeger_gap_lower": "1 - sqrt(1 - h^2) <= spectral gap",
    "cheeger_gap_upper": "spectral gap <= 2h on connected graphs",
    "dual_top_lower": "2 hbar <= top eigenvalue",
    "dual_top_upper": "top eigenvalue <= 1 + sqrt(1 - (1 - hbar)^2)",
    "asymmetry_kappa_bound": (
        "Hausdorff distance between the spectrum and its reflection at 1 "
        "is at most 2 kappa"
    ),
    "witness_cheeger_set": (
        "the step function across the Cheeger witness has Rayleigh quotient "
        "m(boundary S) (1/m(S) + 1/m(S^c))"
    ),
    "witness_disjoint_pair": (
        "the +1/-1 indicator of the best disjoint pair has Rayleigh quotient "
        "2 hbar(A,B) + h(A u B)"
    ),
    "witness_single_edge": (
        "opposite masses on one edge give Rayleigh quotient "
        "1 + 2 m(ab)/(m(a) + m(b))"
    ),
    "split_half_measure": (
        "both open sides of the half-measure threshold carry at most half "
        "the total measure"
    ),
    "split_disjoint_support": "the two split parts have disjoint supports",
    "split_norm_domination": "<g, g> <= |g_plus|^2 + |g_minus|^2 for mean-free g",
    "split_energy_domination": (
        "the Dirichlet energies of the split parts sum to at most the energy "
        "of g"
    ),
    "coarea_level_measure": (
        "superlevel-set measures integrate to the weighted square norm"
    ),
    "coarea_level_boundary": (
        "superlevel-set boundaries integrate to the total variation of g^2"
    ),
    "conjugation_identity": (
        "sign conjugation of the Laplacian equals 2I - Laplacian - 2 P_blocked"
    ),
    "conjugation_spectrum": "the sign-conjugated operator has the same spectrum",
    "p_psi_kappa": (
        "the operator norm of the blocked walk operator is at most kappa(A,B)"
    ),
    "r_chain_lower": "min(R_A, R_B) <= 1 - pair ratio of a partition",
    "r_chain_upper": "1 - pair ratio of a partition <= max(R_A, R_B)",
    "r_chain_kappa": "max(R_A, R_B) <= kappa(A, B)",
    "r_ratio_complement": (
        "the internal fraction plus the boundary ratio of a set equals 1"
    ),
    "partition_cheeger_equality": (
        "the partition route reproduces the Cheeger constant"
    ),
    "dual_kappa_complement": "hbar + kappa >= 1",
    "trace_dimension": "the Laplacian eigenvalues sum to the vertex count",
    "zero_multiplicity": (
        "the zero eigenvalue multiplicity equals the component count"
    ),
    "bipartite_kappa": "kappa vanishes exactly on bipartite graphs",
    "auxiliary_norm": "the companion graph preserves the weighted norm",
    "auxiliary_energy": (
        "the companion Dirichlet energy is at most the (2I - Laplacian)-energy"
    ),
}


# -------------------------------------------------------------- random graphs

# Draws ``sample_graph`` makes before it gives up; the usual sweeps need at
# most about ten.
_MAX_DRAWS = 1000


@dataclass(frozen=True)
class RandomGraphSpec:
    """Recipe for one connected random test graph.

    Edges are kept independently with ``edge_probability``; weights are drawn
    log-uniformly from ``[1e-3, 1]`` to exercise several decades of dynamic
    range.  Draws repeat until the graph is connected, at most
    ``_MAX_DRAWS`` times.  ``n`` and ``seed`` are integers, ``seed`` at least
    0, and ``edge_probability`` is a real number in ``(0, 1]``.
    """

    n: int
    edge_probability: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(
            self, "edge_probability", _real(self.edge_probability, "edge probability")
        )
        if self.n < 2:
            raise BadParameter("random graphs need at least two vertices")
        if self.seed < 0:
            raise BadParameter(f"seed {self.seed} is negative")
        if not 0.0 < self.edge_probability <= 1.0:
            raise BadParameter(
                f"edge probability {self.edge_probability} outside (0, 1]"
            )


def sample_graph(spec: RandomGraphSpec) -> WeightedGraph:
    """Draw the graph described by ``spec`` (deterministic in the seed).
    ``BadParameter`` when ``_MAX_DRAWS`` draws give no connected graph."""
    rng = np.random.default_rng(spec.seed)
    lo = math.log10(1e-3)
    hi = math.log10(1.0)
    for _ in range(_MAX_DRAWS):
        pairs = [
            (u, v)
            for u in range(spec.n)
            for v in range(u + 1, spec.n)
            if rng.random() < spec.edge_probability
        ]
        covered = {x for pair in pairs for x in pair}
        if len(covered) < spec.n:
            continue
        edges = [(u, v, float(10.0 ** rng.uniform(lo, hi))) for u, v in pairs]
        graph = WeightedGraph(edges)
        if graph.is_connected():
            return graph
    raise BadParameter(
        f"no connected graph in {_MAX_DRAWS} draws with n={spec.n}, "
        f"p={spec.edge_probability}, seed={spec.seed}"
    )


# ------------------------------------------------------- per-graph analysis


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything the checks read about one graph, computed once.

    ``spectrum`` comes from the value-only eigensolve and feeds every check on
    eigenvalues; ``eigenbasis`` is the eigenvector solve, used only for its
    eigenfunctions.  ``h_partition`` is ``h`` again by the independent
    partition route (``h_via_r``), so no check runs an exact search.  The
    fingerprint is held here alone: reports carry none, and ``run_suite``
    writes this one into each summary row of the graph.
    """

    graph: WeightedGraph
    h: InvariantReport
    hbar: InvariantReport
    kappa: InvariantReport
    spectrum: Spectrum
    eigenbasis: Spectrum
    fingerprint: str
    h_partition: float


def analyze(
    graph: WeightedGraph, max_n: int | None = None, seed: int | None = None
) -> Analysis:
    """Compute the invariants, the partition route to ``h``, the spectra and
    the fingerprint of ``graph`` once, every exact search under ``max_n``."""
    return Analysis(
        graph,
        cheeger_constant_exact(graph, max_n),
        dual_cheeger_exact(graph, max_n),
        kappa_exact(graph, max_n),
        spectrum(graph),
        spectrum(graph, eigenvectors=True),
        graph_fingerprint(graph, seed),
        h_via_r(graph, max_n),
    )


# ----------------------------------------------------- spectral-side checks


def check_cheeger_inequalities(
    analysis: Analysis,
) -> tuple[CheckReport, CheckReport, CheckReport, CheckReport]:
    """Both two-sided isoperimetric bounds, one report per side.

    The spectral gap sits between ``1 - sqrt(1 - h^2)`` and ``2h``; the top
    eigenvalue between ``2 hbar`` and ``1 + sqrt(1 - (1 - hbar)^2)``.
    """
    h = analysis.h.value
    hbar = analysis.hbar.value
    gap = analysis.spectrum.gap
    top = analysis.spectrum.top
    gap_lower = 1.0 - math.sqrt(max(0.0, 1.0 - h * h))
    top_upper = 1.0 + math.sqrt(max(0.0, 1.0 - (1.0 - hbar) ** 2))
    return (
        CheckReport.inequality("cheeger_gap_lower", gap_lower, gap, INEQUALITY_TOL),
        CheckReport.inequality("cheeger_gap_upper", gap, 2.0 * h, INEQUALITY_TOL),
        CheckReport.inequality("dual_top_lower", 2.0 * hbar, top, INEQUALITY_TOL),
        CheckReport.inequality("dual_top_upper", top, top_upper, INEQUALITY_TOL),
    )


def check_asymmetry_bound(analysis: Analysis) -> CheckReport:
    """Reflection asymmetry of the spectrum against the 2-kappa bound."""
    distance = hausdorff_asymmetry(analysis.spectrum.values)
    bound = 2.0 * analysis.kappa.value
    return CheckReport.inequality("asymmetry_kappa_bound", distance, bound, INEQUALITY_TOL)


def check_witness_functions(analysis: Analysis) -> list[CheckReport]:
    """Closed-form Rayleigh quotients of the three canonical test functions.

    The set function steps between ``1/m(S)`` and ``-1/m(S^c)`` across the
    Cheeger witness; the pair function is +1/-1 on the best disjoint pair and
    zero elsewhere; the edge function puts opposite masses on the endpoints
    of the first edge.
    """
    graph = analysis.graph
    m = graph.vertex_measure
    total = graph.total_measure
    out = []

    def witness(check_id: str, f: np.ndarray, target: float) -> CheckReport:
        tolerance = IDENTITY_TOL * max(1.0, target)
        return CheckReport.identity(check_id, rayleigh(graph, f), target, tolerance)

    best = analysis.h
    inside = _indicator(graph.n, best.witness)
    m_set, boundary, _ = set_measures(graph, best.witness)
    m_rest = total - m_set
    f_set = np.where(inside, 1.0 / m_set, -1.0 / m_rest)
    target = boundary * (1.0 / m_set + 1.0 / m_rest)
    out.append(witness("witness_cheeger_set", f_set, target))

    mask_a, mask_b = analysis.hbar.witness
    f_pair = _indicator(graph.n, mask_a).astype(float)
    f_pair -= _indicator(graph.n, mask_b).astype(float)
    target = 2.0 * dual_cheeger_ratio(graph, mask_a, mask_b) + cheeger_ratio(
        graph, mask_a | mask_b
    )
    out.append(witness("witness_disjoint_pair", f_pair, target))

    a, b, w = graph.u[0], graph.v[0], graph.w[0]
    f_edge = np.zeros(graph.n)
    f_edge[a] = m[b]
    f_edge[b] = -m[a]
    target = 1.0 + 2.0 * w / (m[a] + m[b])
    out.append(witness("witness_single_edge", f_edge, target))
    return out


# --------------------------------------------------------- plus/minus split


def tau_split(
    graph: WeightedGraph, g: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Split ``g`` at the half-measure threshold.

    ``tau`` is the largest ``t`` whose strictly-below measure stays under
    half the total — computed exactly as the smallest value of ``g`` at which
    the sorted cumulative measure reaches ``M/2``.  Returns ``(tau, g_plus,
    g_minus)`` with ``g - tau = g_plus - g_minus`` and disjoint supports.
    """
    arr = _as_function(graph, g)
    order = np.argsort(arr, kind="stable")
    cum = np.cumsum(graph.vertex_measure[order])
    k = int(np.searchsorted(cum, graph.total_measure / 2.0))
    tau = float(arr[order[min(k, graph.n - 1)]])
    g_plus = np.maximum(arr - tau, 0.0)
    g_minus = np.maximum(tau - arr, 0.0)
    return tau, g_plus, g_minus


def check_plus_minus_split(analysis: Analysis, g: np.ndarray) -> list[CheckReport]:
    """Threshold-split relations for a nonzero mean-free function.

    Four reports: the half-measure property of the threshold, disjointness of
    the parts, and the norm and energy domination relations.
    """
    graph = analysis.graph
    arr = _as_function(graph, g)
    norm = inner_product(graph, arr, arr)
    if norm == 0.0:
        raise ZeroFunction("split of the zero function")
    total = graph.total_measure
    mean = float(math.fsum(graph.vertex_measure * arr))
    if abs(mean) > ORTHOGONALITY_TOL * max(1.0, math.sqrt(norm * total)):
        raise NotOrthogonal(f"<g, 1> = {mean} is not negligible")

    tau, g_plus, g_minus = tau_split(graph, arr)
    m = graph.vertex_measure
    below = float(m[arr < tau].sum())
    above = float(m[arr > tau].sum())
    overlap = float(np.max(g_plus * g_minus))
    norm_parts = inner_product(graph, g_plus, g_plus) + inner_product(
        graph, g_minus, g_minus
    )
    energy = dirichlet_form(graph, arr)
    energy_parts = dirichlet_form(graph, g_plus) + dirichlet_form(graph, g_minus)
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


def coarea_check(
    analysis: Analysis, f: Sequence[float] | np.ndarray
) -> tuple[CheckReport, CheckReport]:
    """Both level-set identities for ``f^2``, as exact finite sums.

    (a) the integral of ``m({f^2 > t})`` equals ``sum m(v) f(v)^2``;
    (b) the integral of ``m(boundary {f^2 > t})`` equals
        ``sum m(uv) |f(u)^2 - f(v)^2|``.
    """
    graph = analysis.graph
    arr = _as_function(graph, f)
    g = arr * arr
    levels = np.concatenate(([0.0], np.unique(g)))
    widths = np.diff(levels)
    # One row per level interval (a, b] of positive width, never empty.
    above = g[None, :] > levels[:-1][widths > 0.0, None]
    widths = widths[widths > 0.0]
    m_above = _sequential_sum(np.where(above, graph.vertex_measure, 0.0))
    cut = _sequential_sum(np.where(above[:, graph.u] != above[:, graph.v], graph.w, 0.0))
    measure_integral = float(_sequential_sum(widths * m_above))
    boundary_integral = float(_sequential_sum(widths * cut))

    norm = inner_product(graph, arr, arr)
    variation = math.fsum((graph.w * np.abs(g[graph.u] - g[graph.v])).tolist())
    tol_a = 1e-10 * max(1.0, abs(norm))
    tol_b = 1e-10 * max(1.0, abs(variation))
    return (
        CheckReport.identity("coarea_level_measure", measure_integral, norm, tol_a),
        CheckReport.identity("coarea_level_boundary", boundary_integral, variation, tol_b),
    )


# --------------------------------------------------- partition-based checks


def check_operator_partition(analysis: Analysis, mask_a: int) -> list[CheckReport]:
    """Signed-conjugation and blocked-operator relations for one partition."""
    graph = analysis.graph
    op = signed_conjugation(graph, mask_a)
    deviation = float(np.abs(op.values - analysis.spectrum.values).max())
    kappa = kappa_pair(graph, op.mask_a, op.mask_b)
    r_a = r_quantity(graph, op.mask_a)
    r_b = r_quantity(graph, op.mask_b)
    pair_ratio = dual_cheeger_ratio(graph, op.mask_a, op.mask_b)
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


def check_global_invariants(analysis: Analysis) -> list[CheckReport]:
    """Whole-graph identities tying the invariants to the spectrum."""
    graph = analysis.graph
    spec = analysis.spectrum
    best = analysis.h
    bipartite, _ = is_bipartite(graph)
    zero_count = int(np.count_nonzero(spec.values <= ZERO_THRESHOLD))
    return [
        CheckReport.inequality(
            "dual_kappa_complement",
            1.0,
            analysis.hbar.value + analysis.kappa.value,
            INEQUALITY_TOL,
        ),
        CheckReport.identity(
            "partition_cheeger_equality", analysis.h_partition, best.value, 1e-12
        ),
        CheckReport.identity(
            "r_ratio_complement",
            r_quantity(graph, best.witness) + cheeger_ratio(graph, best.witness),
            1.0,
            1e-12,
        ),
        CheckReport.identity(
            "trace_dimension",
            float(np.sum(spec.values)),
            float(graph.n),
            INEQUALITY_TOL * max(1.0, float(graph.n)),
        ),
        CheckReport.identity(
            "zero_multiplicity", float(zero_count), float(graph.component_count), 0.0
        ),
        CheckReport.identity(
            "bipartite_kappa", float(analysis.kappa.value == 0.0), float(bipartite), 0.0
        ),
    ]


def check_auxiliary(analysis: Analysis, f: np.ndarray) -> list[CheckReport]:
    """Norm preservation and energy domination of the companion graph."""
    graph = analysis.graph
    arr = _as_function(graph, f)
    aux = auxiliary_graph(graph, arr)
    norm = inner_product(graph, arr, arr)
    norm_aux = inner_product(aux.graph, aux.values, aux.values)
    energy = q_form(graph, arr)
    energy_aux = dirichlet_form(aux.graph, aux.values)
    return [
        CheckReport.identity("auxiliary_norm", norm_aux, norm, IDENTITY_TOL * max(1.0, norm)),
        CheckReport.inequality(
            "auxiliary_energy", energy_aux, energy, IDENTITY_TOL * max(1.0, energy)
        ),
    ]


# -------------------------------------------------------------- full sweeps


def graph_checks(
    analysis: Analysis, rng: np.random.Generator | None = None
) -> list[CheckReport]:
    """Every check applicable to one connected graph, as a flat list.

    The spectral and operator constructions measure their relations; every
    check here judges them against the one ``analysis`` of the graph.
    Function-based checks run on the gap and top eigenfunctions; with ``rng``
    they additionally run on one random mean-free function.
    """
    graph = analysis.graph
    reports = list(check_cheeger_inequalities(analysis))
    reports.append(check_asymmetry_bound(analysis))
    reports += check_witness_functions(analysis)
    reports += check_global_invariants(analysis)
    reports += check_operator_partition(analysis, analysis.kappa.witness[0])

    eig = analysis.eigenbasis
    gap_index = int(np.argmax(eig.values > ZERO_THRESHOLD))
    g_gap = eig.eigenvectors[:, gap_index]
    g_top = eig.eigenvectors[:, -1]
    reports += check_plus_minus_split(analysis, g_gap)
    reports += coarea_check(analysis, g_gap)
    reports += check_auxiliary(analysis, g_top)
    if rng is not None:
        g = rng.standard_normal(graph.n)
        g -= math.fsum(graph.vertex_measure * g) / graph.total_measure
        reports += check_plus_minus_split(analysis, g)
        reports += coarea_check(analysis, g)
        reports += check_auxiliary(analysis, g)
    return reports


@dataclass(frozen=True)
class SuiteConfig:
    """Sweep parameters for :func:`run_suite`; defaults match the CI gate.

    The random-graph fields are checked by building the sweep's first
    :class:`RandomGraphSpec`, so a bad configuration fails before any draw.
    """

    seeds: int = 200
    n_min: int = 4
    n_max: int = 12
    edge_probability: float = 0.5
    base_seed: int = 0
    max_n: int | None = None
    include_families: bool = True

    def __post_init__(self):
        for name in ("seeds", "n_min", "n_max", "base_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.max_n is not None:
            object.__setattr__(self, "max_n", _integer(self.max_n, "max_n"))
        if self.seeds < 0:
            raise BadParameter("seed count must be nonnegative")
        if not 2 <= self.n_min <= self.n_max:
            raise BadParameter(
                f"size range [{self.n_min}, {self.n_max}] is not usable"
            )
        first = RandomGraphSpec(self.n_min, self.edge_probability, self.base_seed)
        object.__setattr__(self, "edge_probability", first.edge_probability)


def _family_instances() -> list[tuple[str, WeightedGraph]]:
    dyadic = PSequence((0.5, 0.25), 0.5)
    specs = [
        FamilySpec("complete_unit", 6),
        FamilySpec("cycle", 6),
        FamilySpec("cycle", 7),
        FamilySpec("path", 6),
        FamilySpec("halfline_m3", 6),
        FamilySpec("halfline_m4", 6, r=0.5),
        FamilySpec("ladder_L", 5, r=0.5, rho=0.5),
        FamilySpec("ladder_L", 5, r=0.5, rho=0.3),
        FamilySpec("K_m1", 8, p=dyadic),
        FamilySpec("K_m2", 8),
    ]
    return [(f"{spec.family}/{spec.size}", generate(spec)) for spec in specs]


def _instances(config: SuiteConfig) -> Iterator[tuple]:
    """The sweep's instances in order, as ``(name, draw, seed, rng)``; a random
    graph is drawn only when the sweep calls its ``draw``."""
    if config.include_families:
        for name, graph in _family_instances():
            yield name, lambda graph=graph: graph, None, None
    span = config.n_max - config.n_min + 1
    for i in range(config.seeds):
        seed = config.base_seed + i
        spec = RandomGraphSpec(
            n=config.n_min + i % span,
            edge_probability=config.edge_probability,
            seed=seed,
        )
        rng = np.random.default_rng((seed, 0x5EED))
        yield f"random/{spec.n}", lambda spec=spec: sample_graph(spec), seed, rng


def run_suite(config: SuiteConfig = SuiteConfig()) -> dict:
    """Sweep every check over family and seeded random graphs.

    The summary aggregates per check id (count, failures, minimum slack and
    the instance attaining it) and lists every failing report in full; both
    kinds of row end in the fingerprint of the instance's ``Analysis``.  An
    instance whose draw, analysis or checks raise a ``SpecgraphError``
    becomes one failure row with the error type, message and fingerprint
    (``None`` when the draw failed, as there is no graph), and the sweep goes
    on with the next instance.  Random graphs are drawn one at a time, as
    the sweep reaches them.  The summary is a pure function of the config.
    A report with an id missing from
    ``CHECK_MANIFEST`` is a hard error; manifest ids the sweep never produced
    are listed and fail the suite.
    """
    stats: dict[str, dict] = {}
    failures: list[dict] = []
    kappa_max = 0.0
    count = 0
    for count, (name, draw, seed, rng) in enumerate(_instances(config), 1):
        graph = None
        try:
            graph = draw()
            analysis = analyze(graph, config.max_n, seed)
            reports = graph_checks(analysis, rng)
        except SpecgraphError as exc:
            failures.append({
                "instance": name,
                "error": type(exc).__name__,
                "message": str(exc),
                "fingerprint": None if graph is None else graph_fingerprint(graph, seed),
            })
            continue
        kappa_max = max(kappa_max, analysis.kappa.value)
        for report in reports:
            if report.check_id not in CHECK_MANIFEST:
                raise KeyError(
                    f"check id {report.check_id!r} is not in the manifest"
                )
            entry = stats.setdefault(
                report.check_id,
                {"count": 0, "failures": 0, "min_slack": math.inf, "worst": None},
            )
            entry["count"] += 1
            if not report.passed:
                entry["failures"] += 1
                failures.append({
                    "instance": name,
                    **report.to_payload(),
                    "fingerprint": analysis.fingerprint,
                })
            if report.slack < entry["min_slack"]:
                entry["min_slack"] = report.slack
                entry["worst"] = {
                    "instance": name,
                    "lhs": report.lhs,
                    "rhs": report.rhs,
                    "slack": report.slack,
                    "fingerprint": analysis.fingerprint,
                }

    uncovered = sorted(set(CHECK_MANIFEST) - set(stats))
    return {
        "config": asdict(config),
        "instances": count,
        "observed_kappa_max": kappa_max,
        "checks": {key: stats[key] for key in sorted(stats)},
        "failures": failures,
        "uncovered_checks": uncovered,
        "ok": not failures and not uncovered,
    }
