"""Divided-difference systems induced by pinning a base tuple.

Fixing k strictly increasing base points turns the remaining n-k basis
functions of an n-dimensional system into functions of the appended
point:

    x  ->  divided difference of basis[j] over (base..., x)

These form an (n-k)-dimensional system on the punctured domain, and it
is again a positive Chebyshev system whenever the parent and its k and
k+1 prefixes are.  This module verifies both that system's positivity
and the determinant factorization identity numerically on a grid; the
paper's sign formula for how the appended point interleaves the base is
a test oracle (tests/oracles.py).  The identity is the paper's
Sylvester factorization; :meth:`_PinnedBase.identity` evaluates it for
this check and for convexity_identity_check, each (k+1)-minor after the
singular-denominator rule.

A derived value comes one of two ways.  The checks pin each of their
bases once (:class:`_PinnedBase`), with every target on one point
table, and the pinned base is the derived table itself: the scans and
identity checks read its columns as they read a point table's, and its
values enter them through the table's one value path.  Its one minor
method eliminates a target's base columns once, at the target's first
value, and each later value is one reduction of the appended point's
column by the kept steps (Mühlbach's recurrence), bit for bit
divided_difference's value over (base..., x).  Whether (base..., x)
needs divided_difference's ordering check is read once per grid.
:class:`DerivedFn`, built directly as ``DerivedFn(parent, k, base, g)``,
takes divided_difference's checks and its own ratio step
(divdiff._ratio) for each value, on the tuple (base..., x) that the
checks return; it checks nothing of the base when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Backend,
    ChebyshevSystem,
    Domain,
    FunctionSpec,
    OrderingClass,
    PointTuple,
    Scalar,
    _increasing,
    as_backend,
    combine_backends,
    puncture,
    validate_tuple,
)
from .determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    PositivityReport,
    _At,
    _PointTable,
    _eliminate,
    _exact_reduce,
    _float_last,
    _float_reduce,
    _positivity,
    check_denominator,
    increasing_tuples,
    sorted_grid,
)
from .divdiff import (ResidualReport, _checked_denominator, _checked_points, _quotient, _ratio,
                      _scalar)
from .errors import DimensionMismatch, InputError


@dataclass(frozen=True)
class DerivedFn(FunctionSpec):
    """x ↦ divided difference of ``target`` over (base..., x) with
    respect to the (k+1)-prefix of ``parent``.

    Evaluation takes divided_difference's checks of (base..., x), then
    its ratio step (divdiff._ratio) on a point table made for that value
    alone, so that no value depends on the points evaluated before it;
    closed forms (powers, cotangent) are test oracles, not shortcuts.
    """

    parent: ChebyshevSystem
    k: int
    base: PointTuple
    target: FunctionSpec

    def required_backend(self):
        return combine_backends(self.base.backend, self.target.required_backend(),
                                *(fn.required_backend() for fn in self.parent.basis[:self.k + 1]))

    def _eval(self, x, backend):
        grid = _checked_points(self.parent, self.k + 1, self.base.points + (x,))
        grid.backend = grid.backend or backend      # a neutral grid, at the backend asked for
        table = _PointTable(self.parent.basis[:self.k + 1] + (self.target,))
        return as_backend(_ratio(table, grid, range(self.k + 1), DEFAULT_TOL_FACTOR)[0], backend)


def _check_base(domain: Domain, base) -> None:
    """The check that every base point lies in the parent's domain."""
    for x in base:
        if not domain.contains(x):
            raise InputError(f"base point {x} is outside the parent domain")


class _PinnedBase(_PointTable):
    """The derived table of one base, the points at the positions
    ``base`` of ``grid``: its function t is target t, fns[k + t] of
    ``table``, and its value at the point of position j of the grid is
    the divided difference of that target over (base..., x_j) with
    respect to fns[:k+1].  It is read as a point table is, at the
    positions of its one grid, and a target's requirement is that its
    rows fns[:k+1] and the target do not clash with the grid's backend,
    read at its first value.  Its values enter its columns through the
    table's one value path (:meth:`_value`).  The k base columns of the
    rows fns[:k] + (target,) are eliminated once per target, and a value
    is one reduction of x's column by det's own pivot steps, so it
    equals divided_difference's bit for bit (float) or as a Fraction
    (exact).  Each of its checks is made at the first value that needs
    it, in its order and with its error and message, the denominators'
    at the tolerance factor ``tol_factor``; the ordering check of
    (base..., x) only where the grid has two points too close
    (:attr:`PointTuple.spaced`, read once per grid) or x is at a base
    position.  Its callers check
    the points' domain first.  Every value is at the one backend that
    ``table`` reads ``grid`` at.  The base points need not increase."""

    def __init__(self, table: _PointTable, k: int, grid: PointTuple, base: tuple,
                 tol_factor: float = DEFAULT_TOL_FACTOR):
        super().__init__(table.fns[k:])
        self.table, self.k, self.grid, self.base, self.tol_factor = table, k, grid, base, tol_factor
        self.kept = [None] * len(self.fns)  # by target: see minor
        self.records = [None] * len(grid)   # by position: its denominator's record

    def backend(self, grid: PointTuple) -> Backend:
        """The parent table's backend on the grid."""
        return self.table.backend(grid)

    def _kind(self, rows: tuple) -> tuple:
        """No derived column is built directly."""
        return None, None

    def _value(self, t: int, grid: PointTuple, j: int, backend: Backend) -> Scalar:
        """Target t's value at position j: :meth:`ratio`, once, at the
        target's first value, the parent table has read the backends of
        its rows fns[:k+1] and the target."""
        if (t, backend) not in self._rows:
            for i in (*range(self.k + 1), self.k + t):
                self.table.row_backend(i, backend)
            self._rows.add((t, backend))
        return self.ratio(t, j)

    def minor(self, t: int, j: int) -> tuple:
        """The (k+1)-minor of the parent's rows fns[:k] + (target t,) at
        (base..., x_j): its det, a float or, exact, :func:`_exact_det`'s
        (det, scale) pair, its backend and its prepared columns.  Target
        t's first minor reads the base columns with x_j's, as
        :meth:`_PointTable.matrix` does, eliminates them and keeps their
        backend, prepared forms, pivot steps and scale, with the rows and
        the parent's columns of them by position; a later one reads only
        x_j's column and reduces it by the kept steps, as det does."""
        if self.kept[t] is None:
            rows = (*range(self.k), self.k + t)
            backend, forms = self.table.matrix(rows, self.grid, self.base + (j,))
            form = forms.pop()
            done = _eliminate([c for c, _ in forms], self.k, backend is not Backend.FLOAT)
            self.kept[t] = (backend, forms, done, math.prod(s for _, s in forms), rows,
                            self.table._by_position(rows, self.grid))
        else:
            *_, rows, made = self.kept[t]
            form = (made[j] or self.table.columns(rows, self.grid, (j,))[0]).form
        backend, base_forms, done, scale, _, _ = self.kept[t]
        exact = backend is not Backend.FLOAT
        forms = base_forms + [form]
        if done is None:    # a base pivot column is zero
            return ((0, 1) if exact else 0.0), backend, forms
        state, steps, _ = done
        col = [form[0]]
        for step in steps:
            col = (_exact_reduce if exact else _float_reduce)(col, step)
        v = col[0][0]   # _exact_det's or _prepared_det's last level
        return ((state[0] * v, scale * form[1]) if exact else _float_last(state, v)), backend, forms

    def denominator(self, j: int) -> list:
        """The record of position j: the (k+1)-minor of fns[:k+1] at
        (base..., x_j) as :meth:`minor` gives it, those points (as a
        message shows them), and whether it passed :meth:`ratio`'s
        checks; made once the points pass divided_difference's ordering
        check."""
        record = self.records[j]
        if record is None:
            at = self.base + (j,)
            if not self.grid.spaced or j in self.base:
                validate_tuple(tuple(self.grid[i] for i in at), OrderingClass.PAIRWISE_DISTINCT)
            record = self.records[j] = [*self.minor(0, j), _At(self.grid, at), False]
        return record

    def ratio(self, t: int, j: int) -> Scalar:
        """divided_difference's value for target t at (base..., x_j),
        check by check: the denominator's checks, then the ratio's
        (divdiff._ratio's step, :func:`divdiff._quotient`)."""
        record = self.denominator(j)
        den, backend, forms, at, checked = record
        if not checked:
            _checked_denominator(den, backend, forms, at, self.tol_factor)
            record[4] = True
        num = den if t == 0 else self.minor(t, j)[0]
        return _quotient(num, den, at)

    def identity(self, js: tuple) -> ResidualReport:
        """Both sides of the factorization identity at (base..., xs), xs
        the points at the positions ``js``, with len(js) = len(fns) - k:
        the determinant of every function at (base..., xs), times the
        k-minor to the power len(xs) - 1, over the (k+1)-minor at
        (base..., x) for each x in xs, each after the singular-denominator
        rule; against the determinant of the derived values at xs."""
        rows = tuple(range(len(self.table.fns)))
        kminor = self.table.det(rows[:self.k], self.grid, self.base)
        lhs = self.table.det(rows, self.grid, self.base + js) * kminor ** (len(js) - 1)
        for j in js:
            den, backend, forms, at, _ = self.denominator(j)
            den = _scalar(den)
            check_denominator(den, forms, backend, at, self.tol_factor,
                              name="(k+1)-prefix determinant", show_value=False)
            lhs = lhs / den
        rhs = self.det(tuple(range(len(js))), self.grid, js)
        return ResidualReport(lhs, rhs, abs(lhs - rhs))


def _checked_base(parent: ChebyshevSystem, k: int, base) -> tuple:
    """``base`` as a strictly increasing tuple of k points of the
    parent's domain, 1 <= k <= dim - 1, and the domain punctured there:
    :func:`verify_induced_system`'s checks of the base, in this order."""
    base = _increasing(base)
    n = parent.dim
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"base size {k} outside 1..{n - 1}")
    if len(base) != k:
        raise DimensionMismatch(f"base has {len(base)} points, expected {k}")
    _check_base(parent.domain, base)
    return base, puncture(parent.domain, base.points)


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
    """Check, over the grid, that the system induced by ``base`` is a
    positive Chebyshev system and that the factorization identity holds
    on every sampled increasing (n-k)-tuple."""
    base, domain = _checked_base(parent, k, base)
    dim = parent.dim - k
    pts = sorted_grid(grid)
    # one grid: the base's points, then the sorted grid's at k..
    joined = PointTuple(base.points + tuple(pts))
    js = range(k, len(joined))
    pinned = _PinnedBase(_PointTable(parent.basis), k, joined, tuple(range(k)), tol_factor)
    positivity = _positivity(domain, dim, dim, joined, js, pinned, budget, seed, tol_factor)

    tuples, exhaustive = increasing_tuples(js, dim, budget=budget, seed=seed)
    max_abs = 0.0
    max_rel = 0.0
    worst: ResidualReport | None = None
    for t in tuples:
        report = pinned.identity(t)
        if float(report.residual) >= max_abs:
            max_abs = float(report.residual)
            worst = report
        max_rel = max(max_rel, report.relative_residual)
    return InducedCheckReport(positivity, len(tuples), max_abs, max_rel,
                              worst, exhaustive, seed)
