"""Divided-difference systems induced by pinning a base tuple.

Fixing k strictly increasing base points turns the remaining n-k basis
functions of an n-dimensional system into functions of the appended
point:

    x  ->  divided difference of basis[j] over (base..., x)

These form an (n-k)-dimensional system on the punctured domain, and it
is again a positive Chebyshev system whenever the parent and its k and
k+1 prefixes are.  This module builds that system, carries the sign
bookkeeping for how the appended point interleaves the base, and
verifies both positivity and the determinant factorization identity
numerically on a grid.

:class:`DerivedFn` evaluates one value at a time, through
divided_difference.  The checks pin a base once instead
(:class:`_PinnedBase`): its derived values are the values of a point
table, computed from the parent's point table with the base columns
eliminated once (Mühlbach's recurrence), bit for bit DerivedFn's.
"""

from __future__ import annotations

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
    as_backend,
    collection_backend,
    combine_backends,
    puncture,
    scalar_backend,
    validate_tuple,
)
from .determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    PositivityReport,
    _PointTable,
    _positivity,
    increasing_tuples,
    sorted_grid,
)
from .divdiff import ResidualReport, _checked_denominator, _finite, divided_difference
from .errors import DimensionMismatch, DuplicatePoint, EvaluationOutsideSupport, InputError


@dataclass(frozen=True)
class DerivedFn(FunctionSpec):
    """x ↦ divided difference of ``target`` over (base..., x) with
    respect to the (k+1)-prefix of ``parent``.

    Evaluation delegates to the determinant-ratio divided difference, so
    the same code path serves every parent system; closed forms (powers,
    cotangent) are used as test oracles, not as evaluation shortcuts.
    """

    parent: ChebyshevSystem
    k: int
    base: PointTuple
    target: FunctionSpec

    def required_backend(self):
        return combine_backends(
            self.base.backend(),
            self.target.required_backend(),
            *(fn.required_backend() for fn in self.parent.basis[:self.k + 1]))

    def _eval(self, x, backend):
        dd = divided_difference(self.parent, self.k + 1, self.target,
                                self.base.points + (x,))
        return as_backend(dd.value, backend)


class _PinnedBase:
    """The value source of one base's derived table: value(t, x) is the
    divided difference of the target fns[k + t] of ``table`` over
    (base..., x) with respect to fns[:k+1].  The k base columns of the
    rows fns[:k] + (target,) are eliminated once per target, and a value
    reduces x's column by det's own pivot steps, so it equals DerivedFn's
    bit for bit (float) or as a Fraction (exact).  Each check of DerivedFn
    is made at the first value that needs it, in its order and with its
    error and message.  The base points need not increase."""

    def __init__(self, table: _PointTable, domain: Domain, k: int, base: tuple):
        self.table = table
        self.domain = domain
        self.k = k
        self.base = base
        self.base_backend = collection_backend(base)
        self.dets = [table.appended_det((*range(k), k + t), base)
                     for t in range(len(table.fns) - k)]
        self.backends: dict = {}    # t -> what the derived function of target t requires
        self.dens: dict = {}        # x -> the denominator at (base..., x), see denominator()
        self.checked: set = set()   # points whose denominator passed its checks

    def value(self, t: int, x: Scalar) -> Scalar:
        """The value at x of target t's derived function: evaluate() of
        DerivedFn, then :meth:`ratio`."""
        if t not in self.backends:
            fns = self.table.fns
            self.backends[t] = combine_backends(
                self.base_backend, fns[self.k + t].required_backend(),
                *(fn.required_backend() for fn in fns[:self.k + 1]))
        backend = combine_backends(scalar_backend(x), self.backends[t], default=Backend.EXACT)
        return as_backend(self.ratio(t, x), backend)

    def denominator(self, x: Scalar) -> tuple:
        """The (k+1)-minor of fns[:k+1] at (base..., x), the backend of its
        entries and its prepared columns, once the points pass
        divided_difference's ordering check."""
        den = self.dens.get(x)
        if den is None:
            validate_tuple(self.base + (x,), OrderingClass.PAIRWISE_DISTINCT,
                           min_gap=DEFAULT_MIN_GAP)
            den = self.dens[x] = self.dets[0]((x,))
        return den

    def ratio(self, t: int, x: Scalar) -> Scalar:
        """divided_difference's value for target t at (base..., x), check
        by check: its points' domain, the denominator's checks, then the
        ratio's (divdiff._ratio's step)."""
        den, backend, forms = self.denominator(x)
        at = self.base + (x,)
        if x not in self.checked:
            if not self.domain.contains(x):
                raise EvaluationOutsideSupport(f"point {x} is outside the system domain")
            _checked_denominator(den, backend, forms, at)
            self.checked.add(x)
        num = den if t == 0 else self.dets[t]((x,))[0]
        return _finite(num / den, "divided difference", at)


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
    if not isinstance(base, PointTuple) or base.ordering is not OrderingClass.STRICTLY_INCREASING:
        base = validate_tuple(base.points if isinstance(base, PointTuple) else base,
                              OrderingClass.STRICTLY_INCREASING)
    n = parent.dim
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"base size {k} outside 1..{n - 1}")
    if len(base) != k:
        raise DimensionMismatch(f"base has {len(base)} points, expected {k}")
    for x in base:
        if not parent.domain.contains(x):
            raise InputError(f"base point {x} is outside the parent domain")
    basis = tuple(DerivedFn(parent, k, base, parent.basis[j])
                  for j in range(k, n))
    return InducedSystem(parent, k, base, basis, puncture(parent.domain, base.points))


# ---------------------------------------------------------------------------
# sign bookkeeping for one appended point

@dataclass(frozen=True)
class SignIndex:
    """Position of an appended point among the base points and the
    predicted sign of the resulting collocation determinant:
    (-1) ** (base size - number of base points below x)."""

    ell: int
    predicted_sign: int


def sign_index(base, x: Scalar) -> SignIndex:
    """For strictly increasing base points and x distinct from all of
    them: ell = how many base points lie below x, and the sign that a
    positive (k+1)-dimensional system's determinant takes on
    (base..., x)."""
    if not isinstance(base, PointTuple) or base.ordering is not OrderingClass.STRICTLY_INCREASING:
        base = validate_tuple(base.points if isinstance(base, PointTuple) else base,
                              OrderingClass.STRICTLY_INCREASING)
    scalar_backend(x)
    for i, p in enumerate(base):
        if p == x:
            raise DuplicatePoint(f"x={x} coincides with base point index {i}")
    ell = sum(1 for p in base if p < x)
    return SignIndex(ell, (-1) ** (len(base) - ell))


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
    system = ind.as_system()
    n, d = parent.dim, ind.dim
    pts = sorted_grid(grid)
    table = _PointTable(parent.basis)
    base_pts = ind.base.points
    pinned = _PinnedBase(table, parent.domain, k, base_pts)
    derived = _PointTable(value=pinned.value)
    positivity = _positivity(system, d, pts, derived, budget, seed, tol_factor)

    tuples, exhaustive = increasing_tuples(pts, d, budget=budget, seed=seed)
    kminor = table.det(tuple(range(k)), base_pts)
    extended = table.appended_det(tuple(range(n)), base_pts)
    max_abs = 0.0
    max_rel = 0.0
    worst: ResidualReport | None = None
    for t in tuples:
        lhs = extended(t)[0] * kminor ** (d - 1)
        for x in t:
            lhs = lhs / pinned.denominator(x)[0]
        rhs = derived.det(tuple(range(d)), t)
        report = ResidualReport(lhs, rhs, abs(lhs - rhs))
        if float(report.residual) >= max_abs:
            max_abs = float(report.residual)
            worst = report
        max_rel = max(max_rel, report.relative_residual)
    return InducedCheckReport(positivity, len(tuples), max_abs, max_rel,
                              worst, exhaustive, seed)
