"""Divided-difference systems induced by pinning a base tuple.

Fixing k strictly increasing base points turns the remaining n-k basis
functions of an n-dimensional system into functions of the appended
point:

    x  ->  divided difference of basis[j] over (base..., x)

These form an (n-k)-dimensional system on the punctured domain, and it
is again a positive Chebyshev system whenever the parent and its k and
k+1 prefixes are.  This module builds that system and verifies both
positivity and the determinant factorization identity numerically on a
grid; the paper's sign formula for how the appended point interleaves
the base is a test oracle (tests/oracles.py).  The identity is the
paper's Sylvester factorization; :meth:`_PinnedBase.identity` evaluates
it for this check and for convexity_identity_check, each (k+1)-minor
after the singular-denominator rule.

Every derived value comes from a pinned base (:class:`_PinnedBase`):
the base columns are eliminated once, and each value reduces the
appended point's column by the recorded steps (Mühlbach's recurrence),
bit for bit divided_difference's value over (base..., x).  The checks
pin each of their bases once, with every target on one point table;
:class:`DerivedFn` pins its base afresh for each value, with one target.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .core import (
    DEFAULT_MIN_GAP,
    Backend,
    ChebyshevSystem,
    Domain,
    FunctionSpec,
    OrderingClass,
    PointTuple,
    Scalar,
    _check_domain,
    _increasing,
    as_backend,
    collection_backend,
    combine_backends,
    puncture,
    validate_tuple,
)
from .determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    PositivityReport,
    _PointTable,
    _positivity,
    check_denominator,
    increasing_tuples,
    sorted_grid,
)
from .divdiff import ResidualReport, _checked_denominator, _checked_points, _quotient, _scalar
from .errors import DimensionMismatch, InputError


@dataclass(frozen=True)
class DerivedFn(FunctionSpec):
    """x ↦ divided difference of ``target`` over (base..., x) with
    respect to the (k+1)-prefix of ``parent``.

    Evaluation takes divided_difference's checks of (base..., x) first
    (a pinned base assumes its base in the domain, and evaluates the
    prefix at x before it checks x's domain), then reads a pinned base
    of its own, built for that value alone, so that no value depends on
    the points evaluated before it; closed forms (powers, cotangent) are
    test oracles, not shortcuts.
    """

    parent: ChebyshevSystem
    k: int
    base: PointTuple
    target: FunctionSpec

    def required_backend(self):
        return _derived_backend(self.base.points, self.target, self.parent.basis[:self.k + 1])

    def _eval(self, x, backend):
        _checked_points(self.parent, self.k + 1, self.base.points + (x,))
        table = _PointTable(self.parent.basis[:self.k + 1] + (self.target,))
        pinned = _PinnedBase(table, self.parent.domain, self.k, self.base.points)
        return as_backend(pinned.ratio(1, x), backend)


def _derived_backend(base: tuple, target: FunctionSpec, prefix: tuple) -> Backend | None:
    """The backend that the derived function of ``target`` over the
    points ``base``, with respect to the functions ``prefix``, requires."""
    return combine_backends(collection_backend(base), target.required_backend(),
                            *(fn.required_backend() for fn in prefix))


def _check_base(domain: Domain, base) -> None:
    """:func:`induced_system`'s check that the base lies in the parent's
    domain."""
    for x in base:
        if not domain.contains(x):
            raise InputError(f"base point {x} is outside the parent domain")


class _PinnedBase:
    """The derived functions of one base: target t's value at x is the
    divided difference of fns[k + t] of ``table`` over (base..., x)
    with respect to fns[:k+1].  The k base columns of the
    rows fns[:k] + (target,) are eliminated once per target, and a value
    reduces x's column by det's own pivot steps, so it equals
    divided_difference's bit for bit (float) or as a Fraction (exact).
    Each of its checks is made at the first value that needs it, in its
    order and with its error and message, the denominators' at the
    tolerance factor ``tol_factor``.  The base points need not
    increase."""

    def __init__(self, table: _PointTable, domain: Domain, k: int, base: tuple,
                 tol_factor: float = DEFAULT_TOL_FACTOR):
        self.table = table
        self.domain = domain
        self.k = k
        self.base = base
        self.tol_factor = tol_factor
        self.dets = [table.appended_det((*range(k), k + t), base)
                     for t in range(len(table.fns) - k)]
        self.records: dict = {}     # x -> its denominator's record, see denominator()

    def derived(self) -> tuple:
        """The targets' derived functions, as a base's derived table reads them."""
        return tuple(_Derived(self, t) for t in range(len(self.dets)))

    def denominator(self, x: Scalar) -> list:
        """The record of x: the (k+1)-minor of fns[:k+1] at (base..., x)
        as an appended determinant gives it, the backend of its entries,
        its prepared columns, and whether it passed :meth:`ratio`'s
        checks; made once the points pass divided_difference's ordering
        check."""
        record = self.records.get(x)
        if record is None:
            validate_tuple(self.base + (x,), OrderingClass.PAIRWISE_DISTINCT,
                           min_gap=DEFAULT_MIN_GAP)
            record = self.records[x] = [*self.dets[0]((x,)), False]
        return record

    def ratio(self, t: int, x: Scalar) -> Scalar:
        """divided_difference's value for target t at (base..., x), check
        by check: its points' domain, the denominator's checks, then the
        ratio's (divdiff._ratio's step, :func:`divdiff._quotient`)."""
        record = self.denominator(x)
        den, backend, forms, checked = record
        at = self.base + (x,)
        if not checked:
            _check_domain(self.domain, (x,))
            _checked_denominator(den, backend, forms, at, self.tol_factor)
            record[3] = True
        num = den if t == 0 else self.dets[t]((x,))[0]
        return _quotient(num, den, at)

    @functools.cached_property
    def _whole(self) -> tuple:
        """The k-minor at the base, and xs -> the determinant of every
        function of the table at (base..., xs)."""
        rows = tuple(range(len(self.table.fns)))
        return (self.table.det(rows[:self.k], self.base),
                self.table.appended_det(rows, self.base))

    def identity(self, xs: tuple, cells: _PointTable) -> ResidualReport:
        """Both sides of the factorization identity at (base..., xs), with
        len(xs) = len(fns) - k and ``cells`` the table of :meth:`derived`:
        the determinant of every function at (base..., xs), times the
        k-minor to the power len(xs) - 1, over the (k+1)-minor at
        (base..., x) for each x in xs, each after the singular-denominator
        rule; against the determinant of the derived values at xs."""
        kminor, whole = self._whole
        lhs = _scalar(whole(xs)[0]) * kminor ** (len(xs) - 1)
        for x in xs:
            den, backend, forms, _ = self.denominator(x)
            den = _scalar(den)
            check_denominator(den, forms, backend, self.base + (x,), self.tol_factor,
                              name="(k+1)-prefix determinant", show_value=False)
            lhs = lhs / den
        rhs = cells.det(tuple(range(len(xs))), xs)
        return ResidualReport(lhs, rhs, abs(lhs - rhs))


@dataclass(frozen=True)
class _Derived:
    """Target t's derived function on ``pinned``: :class:`DerivedFn`'s
    backend, and :meth:`_PinnedBase.ratio` in it."""

    pinned: _PinnedBase
    t: int

    def required_backend(self) -> Backend | None:
        fns, k = self.pinned.table.fns, self.pinned.k
        return _derived_backend(self.pinned.base, fns[k + self.t], fns[:k + 1])

    def _eval(self, x: Scalar, backend: Backend) -> Scalar:
        return as_backend(self.pinned.ratio(self.t, x), backend)


@dataclass(frozen=True)
class InducedSystem:
    """The (n-k)-dimensional divided-difference system produced by
    :func:`induced_system`."""

    parent: ChebyshevSystem
    k: int
    base: PointTuple
    basis: tuple
    domain: Domain

    @property
    def dim(self) -> int:
        return len(self.basis)

    def as_system(self) -> ChebyshevSystem:
        return ChebyshevSystem(self.basis, self.domain)

    def derived(self, target: FunctionSpec) -> DerivedFn:
        """The function x ↦ divided difference of ``target`` over
        (base..., x), evaluable on the punctured domain."""
        return DerivedFn(self.parent, self.k, self.base, target)


def induced_system(parent: ChebyshevSystem, k: int, base) -> InducedSystem:
    """Pin ``k`` strictly increasing base points and return the induced
    (n-k)-dimensional system on the punctured domain.

    Meaningful as a positive Chebyshev system only when the k and k+1
    prefixes of the parent are positive (caller-asserted or verified via
    a grid check); otherwise evaluation surfaces SingularDenominator.
    """
    base = _increasing(base)
    n = parent.dim
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"base size {k} outside 1..{n - 1}")
    if len(base) != k:
        raise DimensionMismatch(f"base has {len(base)} points, expected {k}")
    _check_base(parent.domain, base)
    basis = tuple(DerivedFn(parent, k, base, parent.basis[j])
                  for j in range(k, n))
    return InducedSystem(parent, k, base, basis, puncture(parent.domain, base.points))


# ---------------------------------------------------------------------------
# numeric verification

@dataclass(frozen=True)
class InducedCheckReport:
    """Grid verdict for an induced system: positivity of its collocation
    determinants plus residuals of the factorization identity

        det(parent at base+tuple) * (k-minor at base)**(n-k-1)
        / prod over appended points of (k+1)-minor at base+(point,)
        == det(induced system at tuple)

    computed by two independent determinant pipelines."""

    positivity: PositivityReport
    identity_checked: int
    max_abs_residual: float
    max_rel_residual: float
    worst: ResidualReport | None
    exhaustive: bool
    seed: int


def verify_induced_system(parent: ChebyshevSystem, k: int, base, grid,
                          budget: int = DEFAULT_TUPLE_BUDGET,
                          seed: int = DEFAULT_SEED,
                          tol_factor: float = DEFAULT_TOL_FACTOR) -> InducedCheckReport:
    """Build the induced system over ``base`` and check, over the grid,
    that it is a positive Chebyshev system and that the factorization
    identity holds on every sampled increasing (n-k)-tuple."""
    ind = induced_system(parent, k, base)
    pts = sorted_grid(grid)
    pinned = _PinnedBase(_PointTable(parent.basis), parent.domain, k, ind.base.points,
                         tol_factor)
    derived = _PointTable(pinned.derived())
    positivity = _positivity(ind.as_system(), ind.dim, pts, derived, budget, seed, tol_factor)

    tuples, exhaustive = increasing_tuples(pts, ind.dim, budget=budget, seed=seed)
    max_abs = 0.0
    max_rel = 0.0
    worst: ResidualReport | None = None
    for t in tuples:
        report = pinned.identity(t, derived)
        if float(report.residual) >= max_abs:
            max_abs = float(report.residual)
            worst = report
        max_rel = max(max_rel, report.relative_residual)
    return InducedCheckReport(positivity, len(tuples), max_abs, max_rel,
                              worst, exhaustive, seed)
