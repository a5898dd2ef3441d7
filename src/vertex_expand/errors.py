"""Exception types shared across the package."""


class VertexExpandError(Exception):
    """Base class for all package errors."""


class BadInput(VertexExpandError, ValueError):
    """An argument breaks a rule of the function it is passed to: a size,
    bound, index or boundary it does not accept."""


class TooLarge(BadInput):
    """Problem size exceeds the bound of the method asked for."""


class NonConvergence(VertexExpandError):
    """An iterative eigensolve failed to reach tolerance."""


class NotFreeFermion(BadInput):
    """The dimer mapping requires beta_eps = ln(2)/2."""


class OrientationFailure(VertexExpandError):
    """Face-parity orientation could not be completed (embedding bug)."""


class FieldOverflow(VertexExpandError):
    """A number that a path forms at this field overflows a double."""


class TooManyConstraints(BadInput):
    """More simultaneous edge constraints than the expansion supports."""


class ConstraintConflict(BadInput):
    """The same edge appears twice in one constraint set."""


class EdgeOutOfRange(BadInput, IndexError):
    """An edge index outside the lattice's edge list."""


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
