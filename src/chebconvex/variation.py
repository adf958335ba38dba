"""Variation of a function measured through sliding-window divided
differences with respect to a Chebyshev system.

For a partition a = x_0 < ... < x_m = b and an n-dimensional system,
the partition sum adds up the absolute changes of the divided
difference across consecutive n-point windows.  The supremum of those
sums over all partitions is not computable, so the estimator reports a
certified lower bound from a refinement sequence; when the function is
supplied as a difference g - h of two convex-with-respect-to-the-system
functions, the divided differences of g + h at anchor tuples flanking
[a, b] give a matching upper bound.

An estimate's partitions are grids read by position: exact ones are
integers over one scale (the uniform partitions' m·L, times 2**22 after
a jitter step), and the refinement rounds read every 2**j-th point of
the finest uniform partition.  Its rounds and jitters are one loop with
one running best.  Each window's divided difference reads the point
table of its partition's grid: the rounds share the finest partition's,
and each jittered partition reads its own.  A table makes a partition's
directly built columns in one call per row set and the others window
by window.  A partition sum is one pass over its windows
(:func:`_window_sum`).  An exact window whose rows 0..n (the basis and
f) are all built directly is one elimination for both of its
determinants, which share their rows 0..n-2 (Sylvester's identity, in
Bareiss's fraction-free form), and stays a pair of integers: the sum
compares windows by cross-multiplication and makes a Fraction only
where it turns.  A float window whose rows are built directly takes
two eliminations, so that it keeps divided_difference's bits, with
that function's checks and quotient inline; every other window is
divided_difference's own ratio step (divdiff._ratio).

The one entry to partition sums is estimate_variation, which builds
every partition it sums, so a partition's points are checked once, where
they enter, not window by window: its partitions pass
divided_difference's checks of points by construction, but for the float
ends of int endpoints, which it checks once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from .core import (
    Backend,
    ChebyshevSystem,
    FunctionSpec,
    Interval,
    OrderingClass,
    PointTuple,
    Scalar,
    DEFAULT_MIN_GAP,
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    _BACKEND_TYPES,
    _check_domain,
    affine,
    combine_backends,
    scalar_backend,
    validate_tuple,
)
from .determinant import (
    _At,
    _PointTable,
    _check_points,
    _eliminate,
    _finite_tol,
    _prepared_det,
    _tolerance,
    _uniform_grid,
    check_denominator,
)
from .divdiff import _finite, _ratio, divided_difference
from .errors import (
    AnchorInfeasible,
    BoundViolated,
    DimensionMismatch,
    InputError,
    OrderingViolation,
)


@dataclass(frozen=True)
class RefinementStrategy:
    """How :func:`estimate_variation` explores partitions: uniform
    partitions of initial_intervals, doubled (rounds - 1) times, then
    perturb_rounds seeded random jitters of the finest one."""

    initial_intervals: int | None = None   # default: max(system dim, 8)
    rounds: int = 4
    perturb_rounds: int = 2
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.rounds < 1:
            raise InputError("need at least one refinement round")
        if self.initial_intervals is not None and self.initial_intervals < 1:
            raise InputError("initial_intervals must be >= 1")
        if self.perturb_rounds < 0:
            raise InputError(f"perturb_rounds must be >= 0, got {self.perturb_rounds}")


@dataclass(frozen=True)
class VariationEstimate:
    """A certified lower bound for the variation: the running maximum of
    partition sums over the refinement sequence.  ``bound`` is filled in
    when an upper bound from a convex decomposition is available."""

    partial_sums: tuple            # of (partition intervals, sum) pairs
    best: Scalar
    best_partition: tuple
    converged: bool
    bound: Scalar | None = None


def _window_sum(table: _PointTable, system: ChebyshevSystem, js, tol_factor: float) -> Scalar:
    """The partition sum of f over the partition whose points are at
    the increasing positions ``js`` of the grid of ``table``: the
    absolute changes of the divided difference across consecutive
    n-point windows, added up in one pass over the windows.  ``table``
    holds the system's basis and f and may be shared between the
    partitions its grid nests.  The caller has checked the partition's
    points (at least n intervals, the minimum gap, the domain), so each
    window's divided difference is divided_difference's from its ratio
    step on.

    On an exact table whose rows 0..n are all built directly (exact
    polynomials and samples), their columns are made in one call for the
    whole partition (:meth:`_PointTable.direct`), one scale per point, and a
    window is one Bareiss elimination of its slice of the rows as
    vectors over the points, pivoting on the shared rows 0..n-2: it
    leaves the denominator (rows 0..n-1) and the numerator (rows 0..n-2
    and n) as the residual entries of rows n-1 and n, each times one sign
    and one scale, which cancel (Sylvester's identity).  The window is
    that integer pair, its denominator made positive; a zero pivot means
    the denominator vanishes, and :func:`check_denominator` raises as
    divided_difference does.  On a float table whose denominator's rows
    (0..n-1) and numerator's rows (0..n-2 and n) are built directly (float
    powers, affine combinations of them and samples), a window eliminates
    its slices of the two, with divided_difference's checks and quotient
    inline, bit for bit, and makes an :class:`_At` and calls
    check_denominator or divdiff._finite only to raise.  Its tolerance
    reads the largest |entry| of its denominator's columns from each
    column's own, which is the same value: a NaN, the one entry that max
    may skip, makes the denominator NaN or 0.0, which fails a check, and
    check_denominator reads every entry again.  Every other window is
    divdiff._ratio, which reads the rows built directly back from the
    table and asks it for the others window by window, after the
    window's denominator for the numerator, so the first error met is the
    same.  Float windows keep two eliminations: pivoting over the shared
    rows would change their bits.

    The float sum adds the changes in order.  The exact sum is that of
    v[i]·(s[i-1] - s[i]), s[i] the sign of v[i+1] - v[i] (0 beyond both
    ends), by cross-multiplication of the windows' integer pairs, with a
    Fraction made only at a window where the sum turns."""
    n = system.dim
    m = len(js) - 1
    rows = tuple(range(n))
    grid, exact = table.grid, table.backend is not Backend.FLOAT
    both = exact and table.direct(rows + (n,), js)
    if both:
        vecs = [list(r) for r in zip(*(c for c, _ in both))]
    else:
        den, num = (table.direct(r, js) for r in (rows, rows[:-1] + (n,)))
        inline = not exact and den and num
        colmax = inline and [max(map(abs, c)) for c, _ in den]
    total, turn = Fraction(0) if exact else 0.0, 0
    for i in range(m - n + 2):
        if both:
            done = _eliminate([r[i:i + n] for r in vecs], n - 1, True)
            d, v = (0, 0) if done is None else (r[0] for r in done[2])
            if d == 0:
                check_denominator((0, 1), both[i:i + n], Backend.EXACT, _At(grid, js[i:i + n]),
                                  tol_factor)
            value = (-v, -d) if d < 0 else (v, d)
        elif inline:
            d = _prepared_det(den[i:i + n], False)
            if not (math.isfinite(d) and abs(d) > _tolerance(max(colmax[i:i + n]), n, tol_factor)
                    and d != 0):
                check_denominator(d, den[i:i + n], Backend.FLOAT, _At(grid, js[i:i + n]),
                                  tol_factor)
            value = _prepared_det(num[i:i + n], False) / d
            if not math.isfinite(value):
                _finite(value, "divided difference", _At(grid, js[i:i + n]))
        else:
            value = _ratio(table, js[i:i + n], tol_factor)[0]
            if exact:
                value = value.numerator, value.denominator
        if i and not exact:
            total += abs(value - prev)
        elif i:     # s, the sign of v[i] - v[i-1]; where it changes, v[i-1]'s weight
            s = ((c := value[0] * prev[1] - prev[0] * value[1]) > 0) - (c < 0)
            if s != turn:
                total += Fraction(*prev) * (turn - s)
                turn = s
        prev = value
    if exact and turn:
        total += Fraction(*prev) * turn
    return _finite(total, f"partition sum over {m} intervals", _At(grid, (js[0], js[-1])))


def _uniform_partition(a: Scalar, b: Scalar, m: int, backend: Backend) -> PointTuple:
    """The uniform partition of [a, b] into m intervals, as a grid:
    exact, :func:`determinant._uniform_grid`'s integers; float, the points
    lo + (hi - lo) * (i / m) and hi.  Its even points are those of the
    partition into m / 2 intervals (make(2i) / (2m) and make(i) / m round
    one rational), so refinement rounds read one grid."""
    if backend is Backend.EXACT:
        return _uniform_grid(a, b, m)
    lo, hi = float(a), float(b)
    return PointTuple([lo + (hi - lo) * (i / m) for i in range(m)] + [hi])


def _jitter_partition(base: PointTuple, rng: random.Random, backend: Backend) -> PointTuple:
    """Move each interior point of the uniform partition ``base`` by less
    than a quarter of the local mesh width, which preserves strict
    ordering: by (u - 1/2) * room / 2, u uniform in [0, 1), room the
    smaller of its two gaps.  Exact, u = r / 2**20 and room is the mesh
    width, (B - A) / q for base's integers, so the moved points are the
    integers nums * 2**22 + (B - A) * (2r - 2**20) over q * 2**22."""
    if backend is Backend.EXACT:
        nums, room = [v << 22 for v in base.nums], base.nums[1] - base.nums[0]
        for i in range(1, len(nums) - 1):
            nums[i] += room * (2 * rng.getrandbits(20) - (1 << 20))
        return PointTuple(nums=nums, q=base.q << 22)
    pts = list(base)
    gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
    for i in range(1, len(pts) - 1):
        pts[i] = pts[i] + (rng.random() - 0.5) * min(gaps[i - 1], gaps[i]) / 2
    return validate_tuple(pts, OrderingClass.STRICTLY_INCREASING)


def estimate_variation(system: ChebyshevSystem, f: FunctionSpec,
                       a: Scalar, b: Scalar,
                       strategy: RefinementStrategy | None = None,
                       tol_factor: float = DEFAULT_TOL_FACTOR) -> VariationEstimate:
    """Running maximum of partition sums over uniform partitions of
    doubling size plus optional jittered rounds; a lower bound of the
    partition supremum, never an upper bound.

    ``converged`` is a heuristic: the last doubling improved the maximum
    by less than 1e-6 (relatively), compared in the backend's own
    scalars, so exactly, at any size, on the exact backend.
    """
    _finite_tol(tol_factor)
    strategy = strategy or RefinementStrategy()
    if not isinstance(system.domain, Interval):
        raise InputError("variation estimation needs an interval domain")
    if not a < b:
        raise InputError(f"need a < b, got a={a}, b={b}")
    for endpoint in (a, b):
        if not system.domain.contains(endpoint):
            raise InputError(f"endpoint {endpoint} is outside the system domain")

    n = system.dim
    backend = combine_backends(scalar_backend(a), scalar_backend(b),
                               f.required_backend(), system.required_backend(),
                               default=Backend.EXACT)
    m0 = strategy.initial_intervals if strategy.initial_intervals is not None else max(n, 8)
    if m0 < n:
        raise DimensionMismatch(
            f"initial_intervals={m0} below system dimension {n}")
    # m0 >= 1 intervals doubled 64 times pass the cap: no larger shift is made
    _check_points((m0 << min(strategy.rounds - 1, 64)) + 1,
                  f"the finest partition ({m0}*2^{strategy.rounds - 1} intervals)")

    partial_sums: list[tuple] = []
    best = best_partition = None    # the best sum, and the (grid, positions) of its partition
    converged = False
    rng = random.Random(strategy.seed)
    last = strategy.rounds - 1
    finest = _uniform_partition(a, b, m0 << last, backend)
    _check_domain(system.domain, (finest[0], finest[-1]))   # float(a) may round outside
    table = _PointTable(system.basis + (f,), finest)
    for r in range(strategy.rounds + strategy.perturb_rounds):
        if r <= last:   # round r reads every 2**(last-r)-th point of the finest partition
            part = range(0, len(finest), 1 << (last - r))
            if backend is Backend.FLOAT:    # an exact one increases strictly
                validate_tuple([finest[j] for j in part], OrderingClass.STRICTLY_INCREASING)
        else:           # a jitter of the finest partition, on a table of its own
            table = _PointTable(table.fns, _jitter_partition(finest, rng, backend))
            part = range(len(finest))
        value = _window_sum(table, system, part, tol_factor)
        partial_sums.append((m0 << min(r, last), value))
        prev = best
        if best is None or value > best:
            best, best_partition = value, (table.grid, part)
        if 0 < r <= last:
            converged = best - prev < _BACKEND_TYPES[backend]("1e-6") * max(1, abs(best))

    grid, part = best_partition
    return VariationEstimate(tuple(partial_sums), best, tuple(grid[j] for j in part), converged)


# ---------------------------------------------------------------------------
# the upper bound from a convex decomposition

def variation_bound(system: ChebyshevSystem, g: FunctionSpec, h: FunctionSpec,
                    a_anchors, b_anchors,
                    tol_factor: float = DEFAULT_TOL_FACTOR) -> Scalar:
    """Upper bound for the variation of g - h on [a, b]: the divided
    difference of g + h over the b-side anchors minus the one over the
    a-side anchors.

    The a-side anchors must increase strictly and END at a; the b-side
    anchors must START at b.  Both g and h are assumed convex with
    respect to the system (caller-asserted or grid-checked).
    """
    n = system.dim
    a_t = _anchor_tuple(a_anchors, n)
    b_t = _anchor_tuple(b_anchors, n)
    if not a_t[-1] < b_t[0]:
        raise OrderingViolation(
            n - 1, n, f"anchor tuples overlap: a ends at {a_t[-1]}, b starts at {b_t[0]}")
    total = affine((1, g), (1, h))
    upper = divided_difference(system, n, total, b_t, tol_factor=tol_factor).value
    lower = divided_difference(system, n, total, a_t, tol_factor=tol_factor).value
    return _finite(upper - lower, "variation bound", (a_t, b_t))


def _anchor_tuple(anchors, n: int) -> tuple:
    t = validate_tuple(anchors, OrderingClass.STRICTLY_INCREASING)
    if len(t) != n:
        raise DimensionMismatch(f"anchor tuple needs {n} points, got {len(t)}")
    return t.points


def default_anchors(system: ChebyshevSystem, a: Scalar, b: Scalar) -> tuple[tuple, tuple]:
    """n equally spaced points ending at a and starting at b, with
    spacing min(1/10, margin to the domain boundary / n)."""
    n = system.dim
    if not isinstance(system.domain, Interval):
        raise AnchorInfeasible("default anchors need an interval domain")
    if not a < b:
        raise InputError(f"need a < b, got a={a}, b={b}")
    dom = system.domain
    backend = combine_backends(scalar_backend(a), scalar_backend(b),
                               system.required_backend(), default=Backend.EXACT)
    make = _BACKEND_TYPES[backend]

    def spacing(margin):
        cap = make(1) / 10
        if margin is None:
            return cap
        if margin <= 0:
            raise AnchorInfeasible("no room for anchors at the domain boundary")
        s = min(cap, margin / n)
        if backend is Backend.FLOAT and s < DEFAULT_MIN_GAP:
            raise AnchorInfeasible(f"anchor spacing {s} below the minimum gap {DEFAULT_MIN_GAP}")
        return s

    lo, hi = (None if end is None else make(end) for end in (dom.lo, dom.hi))
    a_v, b_v = make(a), make(b)
    s_a = spacing(None if lo is None else a_v - lo)
    s_b = spacing(None if hi is None else hi - b_v)
    a_t = tuple(a_v - (n - 1 - i) * s_a for i in range(n))
    b_t = tuple(b_v + i * s_b for i in range(n))
    for p in a_t + b_t:
        if not dom.contains(p):
            raise AnchorInfeasible(f"anchor point {p} fell outside the domain")
    return a_t, b_t


@dataclass(frozen=True)
class VariationCheckReport:
    """Successful comparison of the refinement estimate against the
    decomposition bound."""

    estimate: VariationEstimate
    bound: Scalar
    margin: Scalar
    a_anchors: tuple
    b_anchors: tuple


def check_variation_bound(system: ChebyshevSystem, g: FunctionSpec, h: FunctionSpec,
                          a: Scalar, b: Scalar,
                          a_anchors=None, b_anchors=None,
                          strategy: RefinementStrategy | None = None,
                          tol_factor: float = DEFAULT_TOL_FACTOR) -> VariationCheckReport:
    """Estimate the variation of f = g - h on [a, b] and assert it stays
    below the decomposition bound.

    Raises :class:`BoundViolated` with a replayable certificate (best
    partition and the anchors) when the estimate exceeds the bound
    beyond tolerance (exactly, or by 1e-9 of the bound on the float
    backend), which certifies either non-convex inputs or a bug.
    """
    if a_anchors is None or b_anchors is None:
        auto_a, auto_b = default_anchors(system, a, b)
        a_anchors = a_anchors if a_anchors is not None else auto_a
        b_anchors = b_anchors if b_anchors is not None else auto_b
    a_t = _anchor_tuple(a_anchors, system.dim)
    b_t = _anchor_tuple(b_anchors, system.dim)
    if a_t[-1] != a:
        raise OrderingViolation(system.dim - 1, system.dim,
                                f"a-side anchors must end at {a}, got {a_t[-1]}")
    if b_t[0] != b:
        raise OrderingViolation(0, 0, f"b-side anchors must start at {b}, got {b_t[0]}")

    f = affine((1, g), (-1, h))
    estimate = estimate_variation(system, f, a, b, strategy=strategy, tol_factor=tol_factor)
    bound = variation_bound(system, g, h, a_t, b_t, tol_factor=tol_factor)
    margin = bound - estimate.best
    tolerance = 1e-9 * max(1.0, abs(float(bound))) \
        if scalar_backend(margin) is Backend.FLOAT else 0
    if margin < -tolerance:
        raise BoundViolated(
            f"variation estimate {estimate.best} exceeds bound {bound}",
            best=estimate.best, bound=bound,
            partition=estimate.best_partition, anchors=(a_t, b_t))
    return VariationCheckReport(replace(estimate, bound=bound), bound, margin,
                                a_t, b_t)
