"""Exception types shared across the package.

Everything raised on bad input derives from :class:`InputError`;
:class:`BoundViolated` is the one "computation disproved the claim"
exception and is kept separate so callers (and the CLI exit-code
contract) can tell the two apart.
"""


class ChebconvexError(Exception):
    """Base class for all package exceptions."""


class InputError(ChebconvexError):
    """Invalid input: wrong shape, wrong backend, out of domain, ..."""


class BackendMismatch(InputError):
    """Exact and floating-point scalars were mixed, or a function that
    needs one backend was evaluated with the other."""


class OrderingViolation(InputError):
    """A point tuple failed its ordering class (or the float minimum-gap
    guard).  Carries the first offending index pair."""

    def __init__(self, i: int, j: int, message: str = ""):
        self.i = i
        self.j = j
        super().__init__(message or f"ordering violated at indices ({i}, {j})")


class EvaluationOutsideSupport(InputError):
    """A function was queried at a point where it has no value."""


class NonSquareMatrix(InputError):
    """Determinant of a non-square matrix was requested."""


class DimensionMismatch(InputError):
    """Tuple length, prefix size and system dimension do not line up."""


class IndexOutOfRange(InputError):
    """Sylvester's k is outside 1..n-1 for an n x n matrix."""


class InsufficientGrid(InputError):
    """The grid has too few points for the requested tuple size."""


class SingularDenominator(InputError):
    """A collocation determinant in a denominator is zero (or below the
    float tolerance): the basis prefix is not a Chebyshev system on the
    given points."""


class NonFiniteValue(InputError):
    """A function value or determinant is infinite or NaN, so no sign
    verdict can be drawn from it."""


class DomainTooLong(InputError):
    """A trigonometric system was requested on an interval longer than
    the admissible maximum."""


class AnchorInfeasible(InputError):
    """Anchor points for a variation bound cannot be placed inside the
    domain on the required side of the interval."""


class BoundViolated(ChebconvexError):
    """A variation estimate exceeded its claimed upper bound.  Carries a
    replayable certificate (partition and anchors)."""

    def __init__(self, message: str, *, best, bound, partition=None, anchors=None):
        super().__init__(message)
        self.best = best
        self.bound = bound
        self.partition = partition
        self.anchors = anchors
