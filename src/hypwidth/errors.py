"""Exception hierarchy shared by all modules.

``GeometryError`` covers invalid inputs and violated invariants;
``NumericalError`` covers the reduced-family constructors that found no
polygon: a solver that did not converge or left the family, and a target
thickness the regular constructor cannot meet.
The CLI maps the former to exit code 2 and the latter to exit code 3.
"""


class GeometryError(Exception):
    """Invalid geometric input or a violated model invariant."""


class TooFewVertices(GeometryError):
    """A polygon needs at least three vertices."""


class NonConvex(GeometryError):
    """Vertex sequence is not strictly convex (or not a simple cycle)."""


class NotSupporting(GeometryError):
    """The given line does not support the polygon."""


class EvenGon(GeometryError):
    """Operation is defined for odd vertex counts only."""


class NotOrdinaryReduced(GeometryError):
    """Polygon does not satisfy the ordinary-reducedness criterion."""


class SchemaError(GeometryError):
    """Malformed polygon document (bad JSON, fields, or coordinates)."""


class NumericalError(Exception):
    """Base class for the failures of the reduced-family constructors."""


class NoConvergence(NumericalError):
    """Iteration budget exhausted before reaching the residual target."""


class BracketFailure(NumericalError):
    """No regular polygon of the asked thickness: it is too small to be
    strictly convex in floating point."""


class LeftFamily(NumericalError):
    """Solver converged to a point outside the target polygon family."""
