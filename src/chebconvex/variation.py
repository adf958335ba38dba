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
"""

from __future__ import annotations

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
    affine,
    combine_backends,
    min_gap_violation,
    scalar_backend,
    to_exact,
    validate_tuple,
)
from .determinant import DEFAULT_SEED, DEFAULT_TOL_FACTOR, _PointTable
from .divdiff import _finite, _ratio, divided_difference
from .errors import (
    AnchorInfeasible,
    BoundViolated,
    DimensionMismatch,
    EvaluationOutsideSupport,
    InputError,
    OrderingViolation,
)


@dataclass(frozen=True)
class Partition:
    """Strictly increasing points from a to b (both included)."""

    points: PointTuple

    def __post_init__(self):
        pts = self.points
        if not isinstance(pts, PointTuple) or pts.ordering is not OrderingClass.STRICTLY_INCREASING:
            pts = validate_tuple(pts.points if isinstance(pts, PointTuple) else pts,
                                 OrderingClass.STRICTLY_INCREASING)
            object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise InputError("a partition needs at least two points")

    @property
    def a(self) -> Scalar:
        return self.points[0]

    @property
    def b(self) -> Scalar:
        return self.points[-1]

    @property
    def intervals(self) -> int:
        return len(self.points) - 1


@dataclass(frozen=True)
class RefinementStrategy:
    """How :func:`estimate_variation` explores partitions: uniform
    partitions of initial_intervals, doubled (rounds - 1) times, then
    perturb_rounds seeded random jitters of the finest one."""

    initial_intervals: int | None = None   # default: max(system dim, 8)
    rounds: int = 4
    perturb_rounds: int = 2
    rel_tol: float = 1e-6
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


def variation_sum(system: ChebyshevSystem, f: FunctionSpec, partition: Partition,
                  min_gap: float = DEFAULT_MIN_GAP,
                  tol_factor: float = DEFAULT_TOL_FACTOR) -> Scalar:
    """Sum over consecutive n-point windows of the partition of the
    absolute difference of neighbouring divided differences."""
    return _window_sum(_PointTable(system.basis + (f,)), system, partition, min_gap,
                       tol_factor)


def _window_sum(table: _PointTable, system: ChebyshevSystem, partition: Partition,
                min_gap: float, tol_factor: float) -> Scalar:
    """:func:`variation_sum` with the values of ``table``, which holds
    the system's basis and f and may be shared between partitions.
    Each window's divided difference is divided_difference's, check by
    check: its points' checks (:func:`_rejected_window`), then the
    shared ratio step on the table's columns."""
    n = system.dim
    pts = partition.points.points
    m = len(pts) - 1
    if m < n:
        raise DimensionMismatch(
            f"partition has {m} intervals, need at least {n} for dimension {n}")
    stop, error = _rejected_window(pts, n, system, min_gap)
    points = table.points(pts)
    window_values = [_ratio(table, n, points[i:i + n], pts[i:i + n], tol_factor)[0]
                     for i in range(stop)]
    if error is not None:
        raise error
    total = window_values[0] - window_values[0]  # zero of the right backend
    for i in range(m - n + 1):
        total += abs(window_values[i + 1] - window_values[i])
    return _finite(total, f"partition sum over {m} intervals", (pts[0], pts[-1]))


def _rejected_window(pts: tuple, n: int, system: ChebyshevSystem,
                     min_gap: float) -> tuple:
    """The first n-point window of the increasing ``pts`` whose points
    divided_difference rejects, with the error it raises: the first pair
    closer than ``min_gap`` if a point is float (from the consecutive
    gaps, as validate_tuple finds it), else the first point outside the
    domain.  (the number of windows, None) when it rejects none."""
    windows = len(pts) - n + 1
    floats = [isinstance(x, float) for x in pts]
    close = [False] * len(pts)
    if min_gap > 0 and any(floats):
        close = [abs(pts[i] - pts[i + 1]) < min_gap for i in range(len(pts) - 1)]
    outside = [not system.domain.contains(x) for x in pts]
    if not (any(close) or any(outside)):
        return windows, None
    for s in range(windows):
        if any(floats[s:s + n]):
            for i in range(s, s + n - 1):
                if close[i]:
                    return s, min_gap_violation(i - s, i - s + 1, min_gap)
        for x, out in zip(pts[s:s + n], outside[s:s + n]):
            if out:
                return s, EvaluationOutsideSupport(f"point {x} is outside the system domain")
    return windows, None


def _uniform_partition(a: Scalar, b: Scalar, m: int, backend: Backend) -> Partition:
    if backend is Backend.EXACT:
        lo, hi = Fraction(a), Fraction(b)
        pts = [lo + (hi - lo) * Fraction(i, m) for i in range(m)] + [hi]
    else:
        lo, hi = float(a), float(b)
        pts = [lo + (hi - lo) * (i / m) for i in range(m)] + [hi]
    return Partition(validate_tuple(pts, OrderingClass.STRICTLY_INCREASING))


def _jitter_partition(base: Partition, rng: random.Random, backend: Backend) -> Partition:
    """Move each interior point by less than a quarter of the local mesh
    width, which preserves strict ordering."""
    pts = list(base.points.points)
    gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
    for i in range(1, len(pts) - 1):
        room = min(gaps[i - 1], gaps[i])
        if backend is Backend.EXACT:
            u = Fraction(rng.getrandbits(20), 1 << 20)
            pts[i] = pts[i] + (u - Fraction(1, 2)) * room / 2
        else:
            pts[i] = pts[i] + (rng.random() - 0.5) * room / 2
    return Partition(validate_tuple(pts, OrderingClass.STRICTLY_INCREASING))


def estimate_variation(system: ChebyshevSystem, f: FunctionSpec,
                       a: Scalar, b: Scalar,
                       strategy: RefinementStrategy | None = None,
                       min_gap: float = DEFAULT_MIN_GAP,
                       tol_factor: float = DEFAULT_TOL_FACTOR) -> VariationEstimate:
    """Running maximum of partition sums over uniform partitions of
    doubling size plus optional jittered rounds; a lower bound of the
    partition supremum, never an upper bound.

    ``converged`` is a heuristic: the last doubling improved the maximum
    by less than rel_tol (relatively).
    """
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

    partial_sums: list[tuple] = []
    best = None
    best_partition: tuple = ()
    converged = False
    rng = random.Random(strategy.seed)
    # uniform partitions nest, so later rounds read earlier points' values
    table = _PointTable(system.basis + (f,))

    m = m0
    prev_best = None
    for _ in range(strategy.rounds):
        part = _uniform_partition(a, b, m, backend)
        value = _window_sum(table, system, part, min_gap, tol_factor)
        partial_sums.append((m, value))
        if best is None or value > best:
            best = value
            best_partition = part.points.points
        if prev_best is not None:
            improvement = float(best) - float(prev_best)
            converged = improvement < strategy.rel_tol * max(1.0, abs(float(best)))
        prev_best = best
        m *= 2
    finest = m // 2

    for _ in range(strategy.perturb_rounds):
        part = _jitter_partition(_uniform_partition(a, b, finest, backend), rng, backend)
        value = _window_sum(table, system, part, min_gap, tol_factor)
        partial_sums.append((finest, value))
        if value > best:
            best = value
            best_partition = part.points.points

    return VariationEstimate(tuple(partial_sums), best, best_partition, converged)


# ---------------------------------------------------------------------------
# the upper bound from a convex decomposition

def variation_bound(system: ChebyshevSystem, g: FunctionSpec, h: FunctionSpec,
                    a_anchors, b_anchors,
                    min_gap: float = DEFAULT_MIN_GAP,
                    tol_factor: float = DEFAULT_TOL_FACTOR) -> Scalar:
    """Upper bound for the variation of g - h on [a, b]: the divided
    difference of g + h over the b-side anchors minus the one over the
    a-side anchors.

    The a-side anchors must increase strictly and END at a; the b-side
    anchors must START at b.  Both g and h are assumed convex with
    respect to the system (caller-asserted or grid-checked).
    """
    n = system.dim
    a_t = _anchor_tuple(a_anchors, n, min_gap)
    b_t = _anchor_tuple(b_anchors, n, min_gap)
    if not a_t[-1] < b_t[0]:
        raise OrderingViolation(
            n - 1, n, f"anchor tuples overlap: a ends at {a_t[-1]}, b starts at {b_t[0]}")
    total = affine((1, g), (1, h))
    upper = divided_difference(system, n, total, b_t, min_gap=min_gap,
                               tol_factor=tol_factor).value
    lower = divided_difference(system, n, total, a_t, min_gap=min_gap,
                               tol_factor=tol_factor).value
    return _finite(upper - lower, "variation bound", (a_t, b_t))


def _anchor_tuple(anchors, n: int, min_gap: float) -> tuple:
    pts = anchors.points if isinstance(anchors, PointTuple) else tuple(anchors)
    t = validate_tuple(pts, OrderingClass.STRICTLY_INCREASING, min_gap=min_gap)
    if len(t) != n:
        raise DimensionMismatch(f"anchor tuple needs {n} points, got {len(t)}")
    return t.points


def default_anchors(system: ChebyshevSystem, a: Scalar, b: Scalar,
                    min_gap: float = DEFAULT_MIN_GAP) -> tuple[tuple, tuple]:
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

    def spacing(margin):
        cap = Fraction(1, 10) if backend is Backend.EXACT else 0.1
        if margin is None:
            return cap
        if margin <= 0:
            raise AnchorInfeasible("no room for anchors at the domain boundary")
        s = min(cap, margin / n)
        if backend is Backend.FLOAT and s < min_gap:
            raise AnchorInfeasible(f"anchor spacing {s} below the minimum gap {min_gap}")
        return s

    if backend is Backend.EXACT:
        lo = None if dom.lo is None else to_exact(dom.lo)
        hi = None if dom.hi is None else to_exact(dom.hi)
        a_v, b_v = Fraction(a), Fraction(b)
    else:
        lo = None if dom.lo is None else float(dom.lo)
        hi = None if dom.hi is None else float(dom.hi)
        a_v, b_v = float(a), float(b)

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
                          min_gap: float = DEFAULT_MIN_GAP,
                          tol_factor: float = DEFAULT_TOL_FACTOR,
                          rel_tol: float = 1e-9) -> VariationCheckReport:
    """Estimate the variation of f = g - h on [a, b] and assert it stays
    below the decomposition bound.

    Raises :class:`BoundViolated` with a replayable certificate (best
    partition and the anchors) when the estimate exceeds the bound
    beyond tolerance, which certifies either non-convex inputs or a bug.
    """
    if a_anchors is None or b_anchors is None:
        auto_a, auto_b = default_anchors(system, a, b, min_gap=min_gap)
        a_anchors = a_anchors if a_anchors is not None else auto_a
        b_anchors = b_anchors if b_anchors is not None else auto_b
    a_t = _anchor_tuple(a_anchors, system.dim, min_gap)
    b_t = _anchor_tuple(b_anchors, system.dim, min_gap)
    if a_t[-1] != a:
        raise OrderingViolation(system.dim - 1, system.dim,
                                f"a-side anchors must end at {a}, got {a_t[-1]}")
    if b_t[0] != b:
        raise OrderingViolation(0, 0, f"b-side anchors must start at {b}, got {b_t[0]}")

    f = affine((1, g), (-1, h))
    estimate = estimate_variation(system, f, a, b, strategy=strategy,
                                  min_gap=min_gap, tol_factor=tol_factor)
    bound = variation_bound(system, g, h, a_t, b_t, min_gap=min_gap,
                            tol_factor=tol_factor)
    margin = bound - estimate.best
    tolerance = rel_tol * max(1.0, abs(float(bound))) \
        if scalar_backend(margin) is Backend.FLOAT else 0
    if margin < -tolerance:
        raise BoundViolated(
            f"variation estimate {estimate.best} exceeds bound {bound}",
            best=estimate.best, bound=bound,
            partition=estimate.best_partition, anchors=(a_t, b_t))
    return VariationCheckReport(replace(estimate, bound=bound), bound, margin,
                                a_t, b_t)
