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
    evaluate,
    puncture,
    scalar_backend,
    validate_tuple,
)
from .determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    PositivityReport,
    _appended_det,
    _tabulate,
    check_denominator,
    collocation_det,
    increasing_tuples,
    is_positive_chebyshev,
    sorted_grid,
)
from .divdiff import ResidualReport, divided_difference
from .errors import DimensionMismatch, DuplicatePoint, InputError


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


class _DerivedTable:
    """Derived columns of the bases pinned in one check of ``f`` against
    ``parent``: [g(x) for g in the induced basis + (derived f,)].

    ``parent.basis + (f,)`` is evaluated once per point, entry by entry
    in the order in which DerivedFn first needs each entry.  For each
    base and each target t in basis[k:] + (f,), the k base columns of
    the rows basis[:k] + (t,) are eliminated once; the rows of basis[k]
    give the denominator.  A value at x then reduces one column per
    determinant by det's own pivot steps, so it equals DerivedFn's bit
    for bit (float) or as a Fraction (exact).  Every check of
    DerivedFn is made at the first evaluation of each value, in its
    order and with its error and message.
    """

    def __init__(self, parent: ChebyshevSystem, f: FunctionSpec):
        self.fns = parent.basis + (f,)
        self._values = [{} for _ in self.fns]
        self._bases: dict[tuple, _PinnedBase] = {}

    def value(self, i: int, x: Scalar) -> Scalar:
        """fns[i](x), evaluated once."""
        row = self._values[i]
        value = row.get(x)
        if value is None:
            value = row[x] = evaluate(self.fns[i], x)
        return value

    def columns(self, ind: "InducedSystem", pts: tuple, touched) -> tuple[dict, dict]:
        """The derived columns of ``ind``'s base at the point indices in
        ``touched`` and their backends, as determinant._tabulate gives
        them for ``ind.basis + (ind.derived(f),)``."""
        pinned = self._bases.get(ind.base.points)
        if pinned is None:
            pinned = self._bases[ind.base.points] = _PinnedBase(self, ind)
        return _tabulate(pinned.value, range(ind.dim + 1), pts, touched)

    def release(self) -> None:
        """Drop the derived values of every base; the parent's stay."""
        self._bases.clear()


class _PinnedBase:
    """The derived values of one base, read from a :class:`_DerivedTable`."""

    def __init__(self, table: _DerivedTable, ind: "InducedSystem"):
        self.parent = table.value
        self.k = ind.k
        self.base = ind.base.points
        self.derived = ind.basis + (ind.derived(table.fns[-1]),)
        self.backends: dict[int, Backend | None] = {}   # what each derived fn requires
        self.dens: dict = {}        # x -> (denominator, backend of its entries)
        self.dets: dict = {}        # (target, backend) -> _appended_det
        self.values: dict = {}      # (target, x) -> value

    def value(self, t: int, x: Scalar) -> Scalar:
        """The value at x of target t's derived function: evaluate() of
        DerivedFn, then divided_difference, check by check."""
        value = self.values.get((t, x))
        if value is not None:
            return value
        if t not in self.backends:
            self.backends[t] = self.derived[t].required_backend()
        backend = combine_backends(scalar_backend(x), self.backends[t],
                                   default=Backend.EXACT)
        pts = self.base + (x,)
        checked = self.dens.get(x)
        if checked is None:
            checked = self.dens[x] = self._denominator(pts)
        den, den_backend = checked
        if t == 0:
            num = den
        else:
            row = [self.parent(self.k + t, p) for p in pts]
            num_backend = combine_backends(den_backend, collection_backend(row))
            col = [self.parent(i, x) for i in range(self.k)] + [row[-1]]
            num = self._det(t, num_backend, col)
        value = self.values[(t, x)] = as_backend(num / den, backend)
        return value

    def _denominator(self, pts: tuple) -> tuple:
        """The denominator at pts = (base..., x) and the backend of its
        entries, checked as divided_difference checks them."""
        validate_tuple(pts, OrderingClass.PAIRWISE_DISTINCT, min_gap=DEFAULT_MIN_GAP)
        size = self.k + 1
        # collocation_matrix's row-major order, then Matrix's backend check
        entries = [self.parent(i, p) for i in range(size) for p in pts]
        backend = collection_backend(entries)
        den = self._det(0, backend, entries[self.k::size])
        check_denominator(den, entries, backend, pts)
        return den, backend

    def _det(self, t: int, backend: Backend | None, col: list) -> Scalar:
        """det of the rows basis[:k] + (target t,) at (base..., x), x's
        column being ``col``."""
        key = (t, backend)
        if key not in self.dets:
            rows = (*range(self.k), self.k + t)
            self.dets[key] = _appended_det([[self.parent(i, b) for i in rows]
                                            for b in self.base],
                                           exact=backend is not Backend.FLOAT)
        return self.dets[key](col)


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
    d = ind.dim
    pts = sorted_grid(grid)
    positivity = is_positive_chebyshev(system, d, pts, budget=budget, seed=seed,
                                       tol_factor=tol_factor)

    tuples, exhaustive = increasing_tuples(pts, d, budget=budget, seed=seed)
    base_pts = ind.base.points
    kminor = collocation_det(parent, k, base_pts)
    max_abs = 0.0
    max_rel = 0.0
    worst: ResidualReport | None = None
    for t in tuples:
        lhs = collocation_det(parent, parent.dim, base_pts + t) * kminor ** (d - 1)
        for x in t:
            lhs = lhs / collocation_det(parent, k + 1, base_pts + (x,))
        rhs = collocation_det(system, d, t)
        report = ResidualReport(lhs, rhs, abs(lhs - rhs))
        if float(report.residual) >= max_abs:
            max_abs = float(report.residual)
            worst = report
        max_rel = max(max_rel, report.relative_residual)
    return InducedCheckReport(positivity, len(tuples), max_abs, max_rel,
                              worst, exhaustive, seed)
