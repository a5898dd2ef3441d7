"""Exception types shared across the package."""


class VertexExpandError(Exception):
    """Base class for all package errors."""


class IceRuleViolation(VertexExpandError):
    """A vertex does not have exactly two arrows in and two arrows out."""


class TooLarge(VertexExpandError):
    """Problem size exceeds the exhaustive-oracle bound."""


class NonConvergence(VertexExpandError):
    """An iterative eigensolve failed to reach tolerance."""


class NotFreeFermion(VertexExpandError):
    """The dimer mapping requires beta_eps = ln(2)/2."""


class OrientationFailure(VertexExpandError):
    """Face-parity orientation could not be completed (embedding bug)."""


class FieldOverflow(VertexExpandError):
    """A number that a path forms at this field overflows a double."""


class TooManyConstraints(VertexExpandError):
    """More simultaneous edge constraints than the expansion supports."""


class ConstraintConflict(VertexExpandError):
    """The same edge appears twice in one constraint set."""


class IdentityMismatch(VertexExpandError):
    """Two representations that must agree differ beyond tolerance."""


class OutOfDomain(VertexExpandError):
    """Argument outside the mathematical domain of the map."""


class VerificationFailed(VertexExpandError):
    """An exact cross-check between predicted and computed values failed."""


class CompositionAtNonzero(VertexExpandError):
    """Series composition requires the inner series to vanish at 0."""


class DivisionByZeroSeries(VertexExpandError):
    """Series reciprocal requires a nonzero constant term."""
