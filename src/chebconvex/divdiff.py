"""Generalized divided differences with respect to a Chebyshev system,
the classical recursive divided difference, and the closed forms they
take on power functions.

The generalized difference of order k-1 is the ratio of two collocation
determinants: the (k-1)-prefix extended by the target function over the
k-prefix itself.  For the polynomial basis this reduces to the familiar
Newton recursion, which is implemented independently so the two routes
can certify each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from .core import (
    Backend,
    ChebyshevSystem,
    FunctionSpec,
    OrderingClass,
    PointTuple,
    PowerFn,
    Scalar,
    DEFAULT_MIN_GAP,
    collection_backend,
    combine_backends,
    evaluate,
    scalar_backend,
    validate_tuple,
)
from .determinant import (
    DEFAULT_TOL_FACTOR,
    _integer_column,
    _prepared_det,
    check_denominator,
)
from .errors import (
    DimensionMismatch,
    EvaluationOutsideSupport,
    InputError,
    NonFiniteValue,
)


@dataclass(frozen=True)
class DividedDifference:
    """A generalized divided difference together with the two
    determinants that produced it (value * denominator == numerator,
    exactly so on the exact backend)."""

    value: Scalar
    numerator: Scalar
    denominator: Scalar
    order: int
    points: PointTuple


@dataclass(frozen=True)
class ResidualReport:
    """Two independently computed values and their absolute difference."""

    lhs: Scalar
    rhs: Scalar
    residual: Scalar

    @property
    def relative_residual(self) -> float:
        denom = max(1.0, abs(float(self.lhs)), abs(float(self.rhs)))
        return float(self.residual) / denom


def _as_distinct_tuple(points, min_gap: float) -> PointTuple:
    if isinstance(points, PointTuple):
        points = points.points
    return validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT, min_gap=min_gap)


def divided_difference(system: ChebyshevSystem, k: int, f: FunctionSpec,
                       points, min_gap: float = DEFAULT_MIN_GAP,
                       tol_factor: float = DEFAULT_TOL_FACTOR) -> DividedDifference:
    """The (k-1)-st order divided difference of ``f`` at ``points`` with
    respect to the k-prefix of ``system``.

    ``points`` must be k pairwise-distinct domain points (any order).
    Raises :class:`SingularDenominator` when the k-prefix collocation
    determinant vanishes there, i.e. the prefix is not a Chebyshev
    system on these points.
    """
    pts = _as_distinct_tuple(points, min_gap)
    if not 1 <= k <= system.dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{system.dim}")
    if len(pts) != k:
        raise DimensionMismatch(f"need {k} points for the {k}-prefix, got {len(pts)}")
    for x in pts:
        if not system.domain.contains(x):
            raise EvaluationOutsideSupport(f"point {x} is outside the system domain")

    table = _PointTable(system.basis[:k], f)
    value, numerator, denominator = _ratio(table, table.points(pts), pts.points, tol_factor)
    return DividedDifference(value, numerator, denominator, k - 1, pts)


def _finite(value: Scalar, what: str, at: tuple) -> Scalar:
    """``value``, unless it is an infinite or NaN float, which no
    result may carry: then :class:`NonFiniteValue` names ``what`` and
    the points ``at``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteValue(f"{what} at {at} is {value}")
    return value


class _PointTable:
    """The columns of divided differences of ``f`` with respect to the
    k functions ``basis``, point by point: the denominator's column
    [basis[i](x)] and the numerator's, whose last entry is f(x).

    Each value is evaluated once, when a divided difference first needs
    it, and its backend is read once; each column is made float, or
    scaled to integers, once.  A divided difference over points that
    share earlier ones (sliding windows, nested partitions) evaluates
    only its new points."""

    def __init__(self, basis: tuple, f: FunctionSpec):
        self.basis = basis
        self.f = f
        self._points: dict = {}

    def points(self, xs) -> list:
        """The table's record of each point in ``xs``."""
        return [self._points.get(x) or self._points.setdefault(x, _Point())
                for x in xs]

    def denominator(self, points: list, at: tuple) -> tuple:
        """The denominator at ``at``, whose records are ``points``, as
        :func:`_columns` gives it.  New values are evaluated row by row,
        as collocation_matrix does."""
        new = [(p, x) for p, x in zip(points, at) if p.den is None]
        if new:
            rows = [[evaluate(fn, x) for _, x in new] for fn in self.basis]
            for j, (p, _) in enumerate(new):
                values = [row[j] for row in rows]
                p.den = _Column(values, [scalar_backend(v) for v in values])
        return _columns([p.den for p in points])

    def numerator(self, points: list, at: tuple) -> tuple:
        """The numerator at ``at``, after :meth:`denominator` at the same
        points; f is evaluated at the new ones in their order."""
        for p, x in zip(points, at):
            if p.num is None:
                v = evaluate(self.f, x)
                p.num = _Column(p.den.values[:-1] + [v], p.den.tags[:-1] + [scalar_backend(v)])
        return _columns([p.num for p in points])


class _Point:
    """A point's denominator and numerator columns, once evaluated."""

    __slots__ = ("den", "num")

    def __init__(self):
        self.den = self.num = None


class _Column:
    """One column's values, the backend of each, and its float or
    integer-scaled form, each made once."""

    __slots__ = ("values", "tags", "forms")

    def __init__(self, values: list, tags: list):
        self.values = values
        self.tags = tags
        self.forms: dict = {}

    def form(self, exact: bool) -> tuple:
        """The column prepared for elimination and its scale."""
        form = self.forms.get(exact)
        if form is None:
            if exact:
                form = _integer_column(self.values)
            else:
                form = [float(v) for v in self.values], 1
            self.forms[exact] = form
        return form


def _columns(cols: list) -> tuple:
    """The backend of the matrix with the columns ``cols``
    (``BackendMismatch`` when they mix exact and float, as a Matrix of
    their entries would raise), the prepared columns and their scale."""
    backend = combine_backends(*(t for c in cols for t in c.tags), default=Backend.EXACT)
    forms = [c.form(backend is not Backend.FLOAT) for c in cols]
    return backend, [c for c, _ in forms], math.prod(s for _, s in forms)


def _ratio(table: _PointTable, points: list, at: tuple, tol_factor: float) -> tuple:
    """The divided difference at the points ``at``, whose records in
    ``table`` are ``points``, with its numerator and denominator: the
    denominator's determinant, the singular-denominator rule, the
    numerator's, then their ratio.  Neither f's values nor the
    numerator are touched before the denominator passes; a non-finite
    denominator or ratio raises :class:`NonFiniteValue`."""
    backend, cols, scale = table.denominator(points, at)
    den = _prepared_det(cols, scale, backend is not Backend.FLOAT)
    check_denominator(den, itertools.chain.from_iterable(cols), backend, at, tol_factor)
    _finite(den, "prefix collocation determinant", at)
    backend, cols, scale = table.numerator(points, at)
    num = _prepared_det(cols, scale, backend is not Backend.FLOAT)
    return _finite(num / den, "divided difference", at), num, den


def classical_divided_difference(f: FunctionSpec, points,
                                 min_gap: float = DEFAULT_MIN_GAP) -> Scalar:
    """Newton's recursive divided difference of ``f`` at pairwise
    distinct points (symmetric in the points, so they are sorted first
    for numerical stability)."""
    pts = _as_distinct_tuple(points, min_gap)
    xs = sorted(pts.points)
    vals = [evaluate(f, x) for x in xs]
    m = len(xs)
    for level in range(1, m):
        vals = [(vals[i + 1] - vals[i]) / (xs[i + level] - xs[i])
                for i in range(m - level)]
    return _finite(vals[0], "classical divided difference", pts.points)


def _homogeneous_sums(max_degree: int, points: tuple) -> list:
    """h[d] = complete homogeneous symmetric polynomial of degree d in
    the given points, for d = 0..max_degree."""
    backend = collection_backend(points, default=Backend.EXACT)
    one = Fraction(1) if backend is Backend.EXACT else 1.0
    zero = Fraction(0) if backend is Backend.EXACT else 0.0
    h = [one] + [zero] * max_degree
    for x in points:
        for d in range(1, max_degree + 1):
            h[d] = h[d] + x * h[d - 1]
    return h


def complete_homogeneous(degree: int, points) -> Scalar:
    """Sum of all degree-``degree`` monomials in the given points."""
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    pts = tuple(points.points if isinstance(points, PointTuple) else points)
    if not pts:
        raise InputError("complete homogeneous polynomial needs at least one point")
    collection_backend(pts)
    return _homogeneous_sums(degree, pts)[degree]


def power_divdiff_check(degree: int, points,
                        min_gap: float = DEFAULT_MIN_GAP) -> ResidualReport:
    """Compare the classical divided difference of x**degree against the
    complete homogeneous polynomial of degree (degree - k + 1).

    The two sides are computed by unrelated algorithms (Newton recursion
    vs. symmetric-polynomial accumulation), so a zero residual certifies
    both.
    """
    pts = _as_distinct_tuple(points, min_gap)
    k = len(pts)
    if k > degree + 1:
        raise DimensionMismatch(
            f"{k} points exceed degree+1 = {degree + 1}; the difference is identically 0")
    lhs = classical_divided_difference(PowerFn(degree), pts, min_gap=min_gap)
    rhs = complete_homogeneous(degree - k + 1, pts)
    return ResidualReport(lhs, rhs, abs(lhs - rhs))


def power_divdiff_expansion(base, degree: int, x: Scalar,
                            min_gap: float = DEFAULT_MIN_GAP) -> Scalar:
    """Value at ``x`` of the classical divided difference of x**degree
    over the base points with one extra point appended, expanded as a
    polynomial in the extra point:

        sum over a = 0..degree-k of  h[degree-k-a] * x**a

    where h[d] is the complete homogeneous polynomial of the base points
    and k their number.
    """
    pts = _as_distinct_tuple(base, min_gap)
    k = len(pts)
    if degree < k:
        raise DimensionMismatch(f"degree {degree} below base size {k}")
    for i, p in enumerate(pts):
        if p == x:
            raise InputError(f"extra point {x} duplicates base point index {i}")
    backend = collection_backend(pts.points + (x,), default=Backend.EXACT)
    if backend is Backend.EXACT:
        coerced, xv, total, xpow = [Fraction(p) for p in pts], Fraction(x), Fraction(0), Fraction(1)
    else:
        coerced, xv, total, xpow = [float(p) for p in pts], float(x), 0.0, 1.0
    h = _homogeneous_sums(degree - k, tuple(coerced))
    for a in range(degree - k + 1):
        total += h[degree - k - a] * xpow
        xpow *= xv
    return total
