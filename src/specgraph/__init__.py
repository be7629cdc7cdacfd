"""Spectral and isoperimetric invariants of summable weighted graphs.

Finite weighted graphs come with exact Cheeger-type constants, a dense
normalized-Laplacian eigensolver, and operator-level identity checks; the
summable complete graph on the integers gets a certified secular-equation
eigenvalue solver.  ``harness.run_suite`` sweeps every guaranteed relation
over family and random graphs, and the ``specgraph`` CLI fronts it all.
"""

from .errors import (
    BadParameter,
    BracketCollapse,
    DegenerateQuadratic,
    DisconnectedGraph,
    DuplicateEdge,
    EmptySet,
    EmptySpectrum,
    InsufficientRoots,
    IsolatedVertex,
    MalformedGraph,
    NoClosedForm,
    NonpositiveWeight,
    NoTailStructure,
    NotDisjoint,
    NotOrthogonal,
    NumericalFailure,
    PoleProximity,
    SelfLoop,
    SpecgraphError,
    TooLarge,
    ZeroFunction,
)
from .families import FAMILIES, ClosedForm, FamilySpec, closed_form, generate, tail_ratio_trace
from .graph import (
    WeightedGraph,
    dirichlet_form,
    graph_from_json,
    graph_to_json,
    inner_product,
    mask_of,
    q_form,
    set_measures,
    vertices_of,
)
from .harness import (
    CHECK_MANIFEST,
    Analysis,
    RandomGraphSpec,
    SuiteConfig,
    analyze,
    coarea_check,
    graph_checks,
    run_suite,
    sample_graph,
    tau_split,
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
from .kgraph import (
    KappaEstimate,
    PSequence,
    SecularRoot,
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
from .reports import CheckReport, graph_fingerprint
from .spectral import (
    AuxiliaryGraph,
    SignedBlockOperator,
    Spectrum,
    auxiliary_graph,
    hausdorff_asymmetry,
    laplacian_matrix,
    random_walk_matrix,
    rayleigh,
    signed_conjugation,
    spectrum,
    symmetric_conjugate,
    weight_matrix,
)

__version__ = "0.1.0"
