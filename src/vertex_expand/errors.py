"""Exception types shared across the package, one per CLI exit code.

    class               exit  raised for
    VerificationFailed  1     an exact cross-check between predicted and
                              computed values failed
    BadInput            2     an argument breaks a rule of the function it
                              is passed to
    FieldOverflow       2     a number formed at this field overflows a
                              double (the CLI's message names --beta-s)
    VertexExpandError   3     a numerical failure: a stalled eigensolve, an
                              orientation that does not settle, identities
                              that disagree, a series operation without the
                              constant term it needs

Each raise site's message names its rule; the class only picks the exit
code.  A plain ValueError also exits 3.
"""


class VertexExpandError(Exception):
    """Base class for all package errors; alone, a numerical failure."""


class BadInput(VertexExpandError, ValueError):
    """An argument breaks a rule of the function it is passed to: a size,
    bound, order, domain, index or boundary it does not accept."""


class FieldOverflow(VertexExpandError):
    """A number that a path forms at this field overflows a double."""


class VerificationFailed(VertexExpandError):
    """An exact cross-check between predicted and computed values failed."""
