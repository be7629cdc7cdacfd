"""Exception hierarchy shared by all specgraph modules."""


class SpecgraphError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- graph build


class MalformedGraph(SpecgraphError):
    """Graph input has the wrong shape or types (edges, vertex ids, labels)."""


class SelfLoop(SpecgraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(SpecgraphError):
    """The same vertex pair appears more than once in the edge list."""


class NonpositiveWeight(SpecgraphError):
    """An edge weight is zero, negative, or not finite."""


class IsolatedVertex(SpecgraphError):
    """A vertex in range is not covered by any edge."""


# ---------------------------------------------------------------- set queries


class EmptySet(SpecgraphError):
    """A set-valued query was given the empty vertex set."""


class NotDisjoint(SpecgraphError):
    """A pair of vertex sets that must be disjoint overlaps."""


class DisconnectedGraph(SpecgraphError):
    """An operation that needs a connected graph got a disconnected one."""


class TooLarge(SpecgraphError):
    """An exact enumeration was asked for beyond its vertex-count cap."""


# ------------------------------------------------------------------- spectral


class ZeroFunction(SpecgraphError):
    """A Rayleigh quotient was requested for the zero function."""


class NotOrthogonal(SpecgraphError):
    """A function that must be orthogonal to the constants is not."""


class EmptySpectrum(SpecgraphError):
    """Spectral data was requested for a graph with no vertices."""


class NumericalFailure(SpecgraphError):
    """A numerical result violated a guaranteed bound by more than rounding."""


# ------------------------------------------------------ secular-equation side


class PoleProximity(SpecgraphError):
    """An evaluation point is too close to a pole of the secular function."""


class BracketCollapse(SpecgraphError):
    """A root bracket is too narrow to resolve in float64."""


class DegenerateQuadratic(SpecgraphError):
    """The two-term refinement equation degenerated (no usable root)."""


class InsufficientRoots(SpecgraphError):
    """Certification needed more eigenvalues than the solver could produce."""


# ------------------------------------------------------------------- families


class BadParameter(SpecgraphError):
    """A family or sequence parameter is outside its legal range."""


class NoClosedForm(SpecgraphError):
    """No analytic target value is known for the requested invariant."""


class NoTailStructure(SpecgraphError):
    """The family has no tail-indexed witness family to trace."""
