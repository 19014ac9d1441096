"""Exception hierarchy shared by every module in the toolkit.

An InputError means the input is wrong, and the command line exits 2 on it:
ParseError (so IndexOutOfRange), JacobiViolation, NotIdeal, NotCartan,
NotSolvable, HypothesisViolated, InvalidOrder, EmptyInstance and
InvalidExponent.  Any other CartanKitError signals a bug: exit 3.
"""


class CartanKitError(Exception):
    """Base class for all toolkit errors."""


class InputError(CartanKitError):
    """The caller's input is wrong; the toolkit itself is not at fault."""


class DimensionMismatch(CartanKitError):
    """A coordinate vector or matrix does not fit the ambient dimension."""


class NotClosed(CartanKitError):
    """A claimed subalgebra is not closed under the bracket."""


class NotIdeal(InputError):
    """A claimed ideal is not stable under bracketing with the ambient algebra."""


class NotCartan(InputError):
    """A subalgebra fails the Cartan axioms (nilpotent and self-normalizing)."""


class NotSolvable(InputError):
    """An operation requiring a solvable algebra was given a non-solvable one."""


class HypothesisViolated(InputError):
    """A stated operation hypothesis does not hold for the given arguments."""


class NonNilpotentIterate(CartanKitError):
    """A normalizer-chain iterate failed the nilpotency check."""


class JacobiViolation(InputError):
    """Structure constants violate the Jacobi identity.

    Carries the offending basis triple and the residual vector.
    """

    def __init__(self, triple, residual, message=None):
        self.triple = tuple(triple)
        self.residual = tuple(residual)
        if message is None:
            residual = ", ".join(map(str, self.residual))
            message = f"Jacobi identity fails on basis triple {self.triple}: residual ({residual})"
        super().__init__(message)


class ParseError(InputError):
    """A fixture or instance file is malformed."""


class IndexOutOfRange(ParseError):
    """A bracket entry references a basis index outside the declared dimension."""


class LiftFailure(CartanKitError):
    """A Levi-complement correction system was inconsistent (signals a bug)."""


class PostconditionFailure(CartanKitError):
    """A guaranteed output property failed verification (never recoverable)."""


class InternalInconsistency(CartanKitError):
    """A computed object failed its own defensive verification."""


class InvalidOrder(InputError):
    """A finite component order below 2 appeared in a Cartan subgroup model."""


class EmptyInstance(InputError):
    """A group density instance carries no Cartan subgroup models."""


class InvalidExponent(InputError, ValueError):
    """A power-map exponent below 1; a ValueError too, for callers that catch one."""
