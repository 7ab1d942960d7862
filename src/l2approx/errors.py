"""Exception types shared across the package, and how their messages show
a value they reject."""

import reprlib

# the most characters of a rejected value that an error message shows
SHOWN_CHARS = 80


def shown(x) -> str:
    """A rejected value as an error message shows it: reprlib's
    abbreviation, cut to SHOWN_CHARS characters, so no error echoes a whole
    input."""
    text = reprlib.repr(x)
    return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."


class L2ApproxError(Exception):
    """Base class for all errors raised by this package."""


class ProblemFormatError(L2ApproxError):
    """The problem file does not match the expected schema."""


class MismatchedGroup(L2ApproxError):
    """An element or operand does not belong to the expected group."""


class MalformedGroup(L2ApproxError):
    """A group description fails its structural checks (e.g. bad table)."""


class InfiniteGroup(L2ApproxError):
    """A finite-group-only operation was applied to an infinite group."""


class UndefinedGenerator(L2ApproxError):
    """A homomorphism lacks an image for a required generator/element."""


class DimensionMismatch(L2ApproxError):
    """Matrix dimensions are incompatible for the requested operation."""


class NotHermitian(L2ApproxError):
    """A ring matrix is not exactly self-adjoint, or a numeric matrix deviates
    from Hermitian symmetry beyond tolerance."""


class WrongGroup(L2ApproxError):
    """The operation needs a specific group family (e.g. free abelian)."""


class NotPSD(L2ApproxError):
    """An integer matrix claimed positive semidefinite is not."""


class InsufficientLevels(L2ApproxError):
    """A convergence check needs more approximation levels than provided."""


class HypothesisViolated(L2ApproxError):
    """A run violates the hypothesis of the check being applied."""


class NotInverse(L2ApproxError):
    """The supplied pair of matrices fails the exact A*B = B*A = I check."""


class NotAComplex(L2ApproxError):
    """Boundary maps fail the exact chain-complex condition."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"boundary composition is nonzero at degree {degree}")


class SchemeError(L2ApproxError):
    """An approximation scheme is inconsistent with the given matrix."""


class SolveTooLarge(SchemeError):
    """One eigensolve would exceed its size cap: a tower level, a finite
    group or an oracle grid with too many points (``MAX_SOLVE_POINTS``)."""


class BoxTooLarge(SolveTooLarge):
    """A Folner box level would exceed the row or band-entry cap."""


class InjectivityUncertified(UserWarning):
    """A tower level could not certify injectivity on the needed support."""
