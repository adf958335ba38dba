"""Generalized divided differences with respect to a Chebyshev system,
the classical recursive divided difference, and the power-sum identity
that checks the latter on power functions.

The generalized difference of order k-1 is the ratio of two collocation
determinants: the (k-1)-prefix extended by the target function over the
k-prefix itself.  For the polynomial basis this reduces to the familiar
Newton recursion, which is implemented independently so the two routes
can certify each other.

Both determinants read the point table (determinant._PointTable), and
one step, :func:`_ratio`, takes them and checks the denominator; the
pinned bases of the induced module and the variation windows take the
same checks.  An exact ratio stays in integers up to its one Fraction
(:func:`_quotient`, which the pinned bases share).  The closed forms of
power and trigonometric divided differences are test oracles
(tests/oracles.py), not shortcuts.
"""

from __future__ import annotations

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
    _BACKEND_TYPES,
    _check_domain,
    collection_backend,
    evaluate,
    validate_tuple,
)
from .determinant import (
    DEFAULT_TOL_FACTOR,
    _exact_det,
    _matrix,
    _PointTable,
    _prepared_det,
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
    pts = _checked_points(system, k, points, min_gap)
    table = _PointTable(system.basis[:k] + (f,))
    value, numerator, denominator = _ratio(table, k, table.points(pts), pts.points,
                                           tol_factor)
    return DividedDifference(value, _scalar(numerator), _scalar(denominator), k - 1, pts)


def _checked_points(system: ChebyshevSystem, k: int, points,
                    min_gap: float = DEFAULT_MIN_GAP) -> PointTuple:
    """``points`` after divided_difference's checks, in its order: k
    pairwise-distinct points (``min_gap`` apart on the float backend)
    for a k-prefix of ``system``, each in its domain."""
    pts = validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT, min_gap=min_gap)
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


def _checked_denominator(den, backend: Backend, forms: list, at: tuple,
                         tol_factor: float = DEFAULT_TOL_FACTOR):
    """``den``, the determinant of the prepared columns ``forms`` at the
    points ``at`` (a scalar or an exact (det, scale) pair), after the
    singular-denominator rule and the check that it is finite."""
    check_denominator(den[0] if type(den) is tuple else den, forms, backend, at, tol_factor)
    return _finite(den, "prefix collocation determinant", at)


def _ratio(table: _PointTable, k: int, points: list, at: tuple, tol_factor: float) -> tuple:
    """The divided difference of the table's function k with respect to
    its functions 0..k-1 at the points ``at`` (records ``points``), with
    its numerator and denominator, each a float or an exact pair of
    integers (det, scale): the denominator's determinant, its checks
    (:func:`_checked_denominator`), the numerator's, then their
    :func:`_quotient`.  f's values and the numerator are not touched
    before the denominator passes."""
    rows = tuple(range(k))
    den, backend, forms = _determinant(table, rows, points)
    _checked_denominator(den, backend, forms, at, tol_factor)
    num = _determinant(table, rows[:-1] + (k,), points)[0]
    return _quotient(num, den, at), num, den


def _quotient(num, den, at: tuple) -> Scalar:
    """num / den for two determinants at the points ``at``, each a float
    or an exact (det, scale) pair, which must be finite: one Fraction
    n*t / (s*m) for exact n/s over m/t."""
    value = Fraction(num[0] * den[1], num[1] * den[0]) if type(num) is type(den) is tuple \
        else _scalar(num) / _scalar(den)
    return _finite(value, "divided difference", at)


def _determinant(table: _PointTable, rows: tuple, points: list) -> tuple:
    """The determinant of the columns of ``rows`` at ``points`` as
    :func:`_ratio` takes it, with its backend and prepared columns."""
    backend, forms = _matrix(table.columns(rows, points))
    exact = backend is not Backend.FLOAT
    return (_exact_det(forms) if exact else _prepared_det(forms, False)), backend, forms


def _scalar(det) -> Scalar:
    """A determinant of :func:`_determinant` or of an appended
    determinant (a float or an exact (det, scale) pair) as a scalar."""
    return Fraction(*det) if type(det) is tuple else det


def classical_divided_difference(f: FunctionSpec, points,
                                 min_gap: float = DEFAULT_MIN_GAP) -> Scalar:
    """Newton's recursive divided difference of ``f`` at pairwise
    distinct points (symmetric in the points, so they are sorted first
    for numerical stability).  Its values come from ``evaluate``, not a
    point table: it is the independent check that certifies
    :func:`divided_difference`, and a table would double its cost."""
    pts = validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT, min_gap=min_gap)
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
    pts = tuple(points.points if isinstance(points, PointTuple) else points)
    if not pts:
        raise InputError("complete homogeneous polynomial needs at least one point")
    return _homogeneous_sums(degree, pts)[degree]


def power_divdiff_check(degree: int, points,
                        min_gap: float = DEFAULT_MIN_GAP) -> ResidualReport:
    """Compare the classical divided difference of x**degree against the
    complete homogeneous polynomial of degree (degree - k + 1).

    The two sides are computed by unrelated algorithms (Newton recursion
    vs. symmetric-polynomial accumulation), so a zero residual certifies
    both.
    """
    pts = validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT, min_gap=min_gap)
    k = len(pts)
    if k > degree + 1:
        raise DimensionMismatch(
            f"{k} points exceed degree+1 = {degree + 1}; the difference is identically 0")
    lhs = classical_divided_difference(PowerFn(degree), pts, min_gap=min_gap)
    rhs = complete_homogeneous(degree - k + 1, pts)
    return ResidualReport(lhs, rhs, abs(lhs - rhs))
