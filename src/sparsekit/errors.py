"""Exception taxonomy shared across the package.

Each solver maps these onto distinct process exit codes in the CLI, so
error classes are part of the public contract and should not be collapsed.
"""


class SparsekitError(Exception):
    """Base class for all library errors."""


class ConfigError(SparsekitError, ValueError):
    """A parameter window or configuration constraint is violated.

    The message names the violated inequality.
    """


class PreconditionViolation(SparsekitError, ValueError):
    """An input fails a documented solver precondition (norms, isotropy, ...)."""


class DimensionMismatch(PreconditionViolation):
    """Shapes of the supplied operands are incompatible."""


class BarrierViolation(SparsekitError, ArithmeticError):
    """A shift parameter is on the wrong side of the spectrum's barrier."""


class SingularGram(SparsekitError, ArithmeticError):
    """A Gram matrix is numerically singular and cannot be whitened."""


class IsotropyViolation(PreconditionViolation):
    """The family, pi-weighted for a design, does not sum to I within tolerance."""


class NoPositiveEntry(SparsekitError, LookupError):
    """A positive-search promise was violated: no strictly positive entry exists."""


class NoWitness(SparsekitError, LookupError):
    """No index witnesses the barrier gap; signals a broken precondition."""


class BarrierCollapse(SparsekitError, ArithmeticError):
    """No index keeps the upper-barrier potential bounded (precondition breach)."""


class NoEligibleRemoval(SparsekitError, LookupError):
    """No removal candidate has a positive swap-score denominator."""


class NotFound(SparsekitError, KeyError):
    """A delete targeted a key/payload pair that is not stored."""


class IterationExhausted(SparsekitError, RuntimeError):
    """An iterative solver hit its iteration cap without meeting its exit test."""

    def __init__(self, message, **state):
        super().__init__(message)
        self.state = dict(state)


class NumericalWarning(UserWarning):
    """Roundoff forced a fallback path; results are still verified."""
