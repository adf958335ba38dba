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
table, and the pinned base is the derived table itself, made from that
table alone, on its grid and at its backend: the scans and identity
checks read its columns as they read a point table's, and its values
enter them through the table's one value path.  Its one minor
method eliminates a target's base columns once, at the target's first
value, and each later value is one reduction of the appended point's
column by the kept steps (Mühlbach's recurrence), bit for bit
divided_difference's value over (base..., x).  Whether (base..., x)
needs divided_difference's ordering check is read once per grid.
:class:`DerivedFn`, built directly as ``DerivedFn(parent, k, base, g)``,
takes divided_difference's checks and its own ratio step
(divdiff._ratio) for each value, on a point table of the tuple
(base..., x) that the checks return; when it is built, it checks only
that the base is a point tuple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    Backend,
    ChebyshevSystem,
    Domain,
    FunctionSpec,
    OrderingClass,
    PointTuple,
    Scalar,
    _BACKEND_TYPES,
    _increasing,
    combine_backends,
    puncture,
    validate_tuple,
)
from .determinant import (
    PositivityReport,
    ResidualReport,
    _At,
    _PointTable,
    _eliminate,
    _float_last,
    _positivity,
    _scalar,
    check_denominator,
    increasing_tuples,
    sorted_grid,
)
from .divdiff import _checked_points, _quotient, _ratio
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

    def __post_init__(self):
        if not isinstance(self.base, PointTuple):
            raise InputError(f"derived function base {self.base!r} is not a point tuple; "
                             "make one with validate_tuple")

    def required_backend(self):
        return combine_backends(self.base.backend, self.target.required_backend(),
                                *(fn.required_backend() for fn in self.parent.basis[:self.k + 1]))

    def _eval(self, x, backend):
        grid = _checked_points(self.parent, self.k + 1, self.base.points + (x,))
        grid.backend = grid.backend or backend      # a neutral grid, at the backend asked for
        table = _PointTable(self.parent.basis[:self.k + 1] + (self.target,), grid)
        return _BACKEND_TYPES[backend](_ratio(table, range(self.k + 1), DEFAULT_TOL_FACTOR)[0])


def _check_base(domain: Domain, base) -> None:
    """The check that every base point lies in the parent's domain."""
    for x in base:
        if not domain.contains(x):
            raise InputError(f"base point {x} is outside the parent domain")


def _check_base_size(n: int, k: int) -> None:
    """The check that k base points pin a system of dimension n."""
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"base size {k} outside 1..{n - 1}")


class _PinnedBase(_PointTable):
    """The derived table of one base, the points at the positions
    ``base`` of the grid of ``table``: its function t is target t,
    fns[k + t] of ``table``, and its value at the point of position j is
    the divided difference of that target over (base..., x_j) with
    respect to fns[:k+1].  It is read as a point table is, at the
    positions of its grid, the parent's, and at the parent's backend,
    read at its first need; a target's requirement is that its rows
    fns[:k+1] and the target do not clash with that backend, read at its
    first value.  Its values enter its columns through the table's one
    value path (:meth:`_value`).  The k base columns of the rows fns[:k]
    + (target,) are eliminated once per target, and a value is one
    reduction of x's column by det's own pivot steps, so it equals
    divided_difference's bit for bit (float) or as a Fraction (exact).
    Each of its checks is made at the first value that needs it, in its
    order and with its error and message, the denominators' at the
    tolerance factor ``tol_factor``; the ordering check of (base..., x)
    only where the grid has two points too close
    (:attr:`PointTuple.spaced`, read once per grid) or x is at a base
    position.  Its callers check the points' domain first.  The base
    points need not increase."""

    # the parent's: a neutral grid is read at float if any of the parent's
    # functions requires float, not only a target
    backend = functools.cached_property(lambda self: self.table.backend)

    def __init__(self, table: _PointTable, k: int, base: tuple,
                 tol_factor: float = DEFAULT_TOL_FACTOR):
        super().__init__(table.fns[k:], table.grid)
        self.table, self.k, self.base, self.tol_factor = table, k, base, tol_factor
        self.kept = [None] * len(self.fns)      # by target: see minor
        self.records = [None] * len(self.grid)  # by position: its denominator's record

    def _kind(self, rows: tuple) -> None:
        """No derived column is built directly."""
        return None

    def _value(self, t: int, j: int) -> Scalar:
        """Target t's value at position j: :meth:`ratio`, once, at the
        target's first value, the parent table has read the requirements
        of its rows fns[:k+1] and the target."""
        if t not in self._rows:
            for i in (*range(self.k + 1), self.k + t):
                self.table.row_backend(i)
            self._rows.add(t)
        return self.ratio(t, j)

    def minor(self, t: int, j: int) -> tuple:
        """The (k+1)-minor of the parent's rows fns[:k] + (target t,) at
        (base..., x_j): its det, a float or, exact, the (det, scale) pair
        that determinant._prepared_det gives, and its prepared columns.
        Target t's first minor reads the base columns with x_j's in one
        :meth:`_PointTable.columns` call, eliminates the base columns and
        keeps their prepared forms, pivot state and steps and scale, with
        the rows and the parent's forms of them by position; every minor
        reduces x_j's form (a later one reads only that) by the kept
        steps, in one call of the kernel (determinant._eliminate), with
        det's operations."""
        exact = self.backend is not Backend.FLOAT
        if self.kept[t] is None:
            rows = (*range(self.k), self.k + t)
            forms = self.table.columns(rows, self.base + (j,))
            form = forms.pop()
            done = _eliminate([c for c, _ in forms], self.k, exact)
            self.kept[t] = (forms, done, math.prod(s for _, s in forms), rows,
                            self.table._by_position(rows))
        else:
            *_, rows, made = self.kept[t]
            form = made[j] or self.table.columns(rows, (j,))[0]
        base_forms, done, scale, _, _ = self.kept[t]
        forms = base_forms + [form]
        if done is None:    # a base pivot column is zero
            return ((0, 1) if exact else 0.0), forms
        state, steps, _ = done
        (col,) = _eliminate([form[0]], 0, exact, state, steps)[2]
        v = col[0]      # _prepared_det's last level
        return ((state[0] * v, scale * form[1]) if exact else _float_last(state, v)), forms

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
        den, forms, at, checked = record
        if not checked:
            check_denominator(den, forms, self.backend, at, self.tol_factor)
            record[3] = True
        num = den if t == 0 else self.minor(t, j)[0]
        return _quotient(num, den, at)

    def identity(self, js: tuple) -> ResidualReport:
        """Both sides of the factorization identity at (base..., xs), xs
        the points at the positions ``js``, with len(js) = len(fns) - k:
        the determinant of every function at (base..., xs), times the
        k-minor to the power len(xs) - 1, over the (k+1)-minor at
        (base..., x) for each x in xs, each after the singular-denominator
        rule; against the determinant of the derived values at xs."""

        def den(j: int) -> Scalar:
            den, forms, at, _ = self.denominator(j)
            check_denominator(den, forms, self.backend, at, self.tol_factor,
                              name="(k+1)-prefix determinant", show_value=False)
            return _scalar(den)
        lhs = _sylvester_side(self.table, self.k, self.base, js, den)
        rhs = self.det(tuple(range(len(js))), js)
        return ResidualReport(lhs, rhs, abs(lhs - rhs))


def _sylvester_side(table: _PointTable, k: int, base: tuple, js: tuple, den) -> Scalar:
    """The left side of the factorization identity at (base..., xs), xs
    the points at the positions ``js`` of the grid of ``table``: the
    determinant of every function of ``table`` at (base..., xs), in that
    order, times the k-minor of its first k at base to the power len(js)
    - 1, over ``den(j)``, the (k+1)-minor of its first k + 1 at (base...,
    x_j), for each j in ``js``, computed in that order.  On the exact
    backend it equals the determinant of the derived values at xs, the
    derived len(js)-minor that pinning ``base`` gives."""
    rows = tuple(range(len(table.fns)))
    kminor = table.det(rows[:k], base)
    lhs = table.det(rows, base + js) * kminor ** (len(js) - 1)
    for j in js:
        lhs = lhs / den(j)
    return lhs


def _checked_base(parent: ChebyshevSystem, k: int, base) -> tuple:
    """``base`` as a strictly increasing tuple of k points of the
    parent's domain, 1 <= k <= dim - 1, and the domain punctured there:
    :func:`verify_induced_system`'s checks of the base, in this order."""
    base = _increasing(base)
    _check_base_size(parent.dim, k)
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
    pinned = _PinnedBase(_PointTable(parent.basis, joined), k, tuple(range(k)), tol_factor)
    positivity = _positivity(domain, dim, js, pinned, budget, seed, tol_factor)

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
