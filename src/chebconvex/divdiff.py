"""Generalized divided differences with respect to a Chebyshev system,
the classical recursive divided difference, and the power-sum identity
that checks the latter on power functions.

The generalized difference of order k-1 is the ratio of two collocation
determinants: the (k-1)-prefix extended by the target function over the
k-prefix itself.  For the polynomial basis this reduces to the familiar
Newton recursion, which is implemented independently so the two routes
can certify each other.

Both determinants read the point table of the points
(determinant._PointTable), and one step, :func:`_ratio`, takes the
table and the points' positions on its grid, eliminates each
determinant's prepared columns
(determinant._prepared_det), and checks the denominator.  It serves
every one-off value: divided_difference, each variation window whose
rows are not all built directly, and each value of a derived function
(induced.DerivedFn).  It asks the table for every column, so such a
window reads back the columns its partition built directly in one
call.  The windows of a partition whose rows
are all built directly are computed in the partition's one pass
(variation._window_sum): an exact one eliminates its shared rows once
for both determinants, a float one eliminates its two slices with this
step's checks and quotient inline, and either raises through the same
denominator check (determinant.check_denominator) and :func:`_finite`,
so the singular-denominator rule has one copy.  The pinned bases
of the induced module, which share one eliminated base between many
values, take the same checks.  An exact ratio stays in integers up to
its one Fraction (:func:`_quotient`, which the pinned bases share).
The closed forms of power and trigonometric divided differences are
test oracles (tests/oracles.py), not shortcuts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .core import (
    DEFAULT_TOL_FACTOR,
    Backend,
    ChebyshevSystem,
    FunctionSpec,
    OrderingClass,
    PointTuple,
    PowerFn,
    Scalar,
    _BACKEND_TYPES,
    _check_domain,
    collection_backend,
    evaluate,
    validate_tuple,
)
from .determinant import (
    ResidualReport,
    _At,
    _PointTable,
    _finite_tol,
    _prepared_det,
    _scalar,
    check_denominator,
)
from .errors import (
    DimensionMismatch,
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


def divided_difference(system: ChebyshevSystem, k: int, f: FunctionSpec,
                       points, tol_factor: float = DEFAULT_TOL_FACTOR) -> DividedDifference:
    """The (k-1)-st order divided difference of ``f`` at ``points`` with
    respect to the k-prefix of ``system``.

    ``points`` must be k pairwise-distinct domain points (any order),
    float ones at least ``DEFAULT_MIN_GAP`` apart.
    Raises :class:`SingularDenominator` when the k-prefix collocation
    determinant vanishes there, i.e. the prefix is not a Chebyshev
    system on these points.
    """
    pts = _checked_points(system, k, points)
    table = _PointTable(system.basis[:k] + (f,), pts)
    value, numerator, denominator = _ratio(table, range(k), _finite_tol(tol_factor))
    return DividedDifference(value, _scalar(numerator), _scalar(denominator), k - 1, pts)


def _checked_points(system: ChebyshevSystem, k: int, points) -> PointTuple:
    """``points`` after divided_difference's checks, in its order: k
    pairwise-distinct points (``DEFAULT_MIN_GAP`` apart on the float
    backend) for a k-prefix of ``system``, each in its domain."""
    pts = validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT)
    if not 1 <= k <= system.dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{system.dim}")
    if len(pts) != k:
        raise DimensionMismatch(f"need {k} points for the {k}-prefix, got {len(pts)}")
    _check_domain(system.domain, pts)
    return pts


def _finite(value: Scalar, what: str, at: tuple) -> Scalar:
    """``value``, unless it is an infinite or NaN float, which no
    result may carry: then :class:`NonFiniteValue` names ``what`` and
    the points ``at``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NonFiniteValue(f"{what} at {at} is {value}")
    return value


def _ratio(table: _PointTable, js, tol_factor: float) -> tuple:
    """The divided difference of function k of ``table`` with respect to
    its functions 0..k-1 at the k positions ``js`` of its grid, with its
    numerator and denominator, each as :func:`determinant._prepared_det`
    gives it, a float or an exact pair of integers (det, scale): the
    denominator's determinant, its checks (:func:`check_denominator`),
    the numerator's, then their :func:`_quotient`.  The prepared columns
    of the denominator (rows 0..k-1) and of the numerator (rows 0..k-2
    and k) are the table's, each made once: those a variation partition
    made in one call (:meth:`determinant._PointTable.direct`) are read
    back.  The table is not asked for f's values or the numerator's
    columns before the denominator passes."""
    k, at = len(js), _At(table.grid, js)
    rows = tuple(range(k))
    forms = table.columns(rows, js)
    exact = table.backend is not Backend.FLOAT
    den = _prepared_det(forms, exact)
    check_denominator(den, forms, table.backend, at, tol_factor)
    num = _prepared_det(table.columns(rows[:-1] + (k,), js), exact)
    return _quotient(num, den, at), num, den


def _quotient(num, den, at: tuple) -> Scalar:
    """num / den for two determinants at the points ``at``, each a float
    or an exact (det, scale) pair, which must be finite: one Fraction
    n*t / (s*m) for exact n/s over m/t."""
    value = Fraction(num[0] * den[1], num[1] * den[0]) if type(den) is tuple else num / den
    return _finite(value, "divided difference", at)


def classical_divided_difference(f: FunctionSpec, points) -> Scalar:
    """Newton's recursive divided difference of ``f`` at pairwise
    distinct points, float ones ``DEFAULT_MIN_GAP`` apart (symmetric in
    the points, so they are sorted first for numerical stability).  Its
    values come from ``evaluate``, not a point table: it is the
    independent check that certifies :func:`divided_difference`, and a
    table would double its cost."""
    pts = validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT)
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
    make = _BACKEND_TYPES[collection_backend(points, default=Backend.EXACT)]
    h = [make(1)] + [make(0)] * max_degree
    for x in points:
        for d in range(1, max_degree + 1):
            h[d] = h[d] + x * h[d - 1]
    return h


def complete_homogeneous(degree: int, points) -> Scalar:
    """Sum of all degree-``degree`` monomials in the given points."""
    if degree < 0:
        raise InputError(f"degree must be >= 0, got {degree}")
    pts = tuple(points)
    if not pts:
        raise InputError("complete homogeneous polynomial needs at least one point")
    return _homogeneous_sums(degree, pts)[degree]


def power_divdiff_check(degree: int, points) -> ResidualReport:
    """Compare the classical divided difference of x**degree against the
    complete homogeneous polynomial of degree (degree - k + 1).

    The two sides are computed by unrelated algorithms (Newton recursion
    vs. symmetric-polynomial accumulation), so a zero residual certifies
    both.
    """
    pts = validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT)
    k = len(pts)
    if k > degree + 1:
        raise DimensionMismatch(
            f"{k} points exceed degree+1 = {degree + 1}; the difference is identically 0")
    lhs = classical_divided_difference(PowerFn(degree), pts)
    rhs = complete_homogeneous(degree - k + 1, pts)
    return ResidualReport(lhs, rhs, abs(lhs - rhs))
