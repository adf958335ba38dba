"""Convexity of a function with respect to a Chebyshev system, decided
three provably equivalent ways on a grid:

* direct: nonnegativity of the extended collocation determinant on all
  increasing (n+1)-tuples,
* induced: for every pinned base k-tuple, convexity of the derived
  divided-difference function with respect to the induced system on the
  punctured grid,
* interval: the induced check restricted to a single gap between (or
  beyond) the base points, selected by an index ell in 0..k.

Verdicts are explicitly grid-relative.  On the float backend, values
inside the tolerance band around zero are reported indeterminate rather
than forced into a verdict.  The determinant identity behind the
equivalence (:func:`convexity_identity_check`) is the induced system's
factorization identity for the basis extended by f, evaluated by the
same pinned-base method (induced._PinnedBase.identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    DEFAULT_MIN_GAP,
    ChebyshevSystem,
    Domain,
    FunctionSpec,
    OrderingClass,
    Scalar,
    _check_domain,
    validate_tuple,
)
from .determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    SignScan,
    _PointTable,
    _sign_scan,
    det,    # unused here; bench/test_bench.py checks that the tracer wraps it here
    increasing_tuples,
    sorted_grid,
)
from .divdiff import ResidualReport
from .errors import (
    DimensionMismatch,
    InputError,
    InsufficientGrid,
)
from .induced import _PinnedBase, _check_base

#: Base-tuple sampling switches from exhaustive enumeration to seeded
#: random sampling above this count.
DEFAULT_BASE_BUDGET = 10_000


@dataclass(frozen=True)
class ConvexityVerdict:
    """Grid verdict of one convexity check.  A violated verdict carries
    a witness tuple (plus its pinned base, for the induced and interval
    modes) that replays to a negative determinant."""

    mode: str                      # "direct" | "induced" | "interval"
    verdict: str                   # "convex_on_sample" | "violated" | "indeterminate"
    tuples_checked: int
    seed: int
    ell: int | None = None
    witness: tuple | None = None
    witness_value: Scalar | None = None
    witness_base: tuple | None = None
    bases_checked: int = 0
    bases_skipped: int = 0
    indeterminate_count: int = 0

    @property
    def is_convex(self) -> bool:
        return self.verdict == "convex_on_sample"


def _direct_scan(n: int, domain: Domain, grid_pts: tuple, table, budget: int, seed: int,
                 tol_factor: float) -> SignScan:
    """Sign scan of the extended determinant on increasing (n+1)-tuples
    of a system of dimension n on ``domain``, whose extended columns
    ``table`` gives: negative values are violations, or near zero inside
    the float tolerance band."""
    if len(grid_pts) < n + 1:
        raise InsufficientGrid(f"grid has {len(grid_pts)} points, need at least {n + 1}")
    _check_domain(domain, grid_pts, "grid point")
    return _sign_scan(table, tuple(range(n + 1)), grid_pts, budget, seed, tol_factor,
                      positive=False)


def check_convex_direct(system: ChebyshevSystem, f: FunctionSpec, grid: Iterable[Scalar],
                        budget: int = DEFAULT_TUPLE_BUDGET,
                        seed: int = DEFAULT_SEED,
                        tol_factor: float = DEFAULT_TOL_FACTOR) -> ConvexityVerdict:
    """Nonnegativity of the extended collocation determinant on all
    sampled increasing (n+1)-tuples of the grid.  Raises
    :class:`OrderingViolation` on a float grid with two points closer
    than the minimum gap, as the induced and interval modes do, and
    :class:`NonFiniteValue` on an infinite or NaN value."""
    return _check_convex_direct(system, f, grid, _PointTable(system.basis + (f,)),
                                budget, seed, tol_factor)


def _check_convex_direct(system: ChebyshevSystem, f: FunctionSpec, grid, table: _PointTable,
                         budget: int, seed: int, tol_factor: float) -> ConvexityVerdict:
    """:func:`check_convex_direct`, reading the values of
    ``system.basis + (f,)`` from ``table``."""
    pts = sorted_grid(grid, min_gap=DEFAULT_MIN_GAP)
    scan = _direct_scan(system.dim, system.domain, pts, table, budget, seed, tol_factor)
    return ConvexityVerdict("direct", scan.verdict or "convex_on_sample",
                            scan.tuples_checked, seed, witness=scan.witness,
                            witness_value=scan.witness_value,
                            indeterminate_count=scan.indeterminate_count)


def _restricted_points(pts: tuple, base: tuple, ell: int | None) -> tuple:
    """Grid points off the base, optionally restricted to the single gap
    selected by ell (0 = below the base, k = above it)."""
    off = tuple(x for x in pts if x not in base)
    if ell is None:
        return off
    k = len(base)
    if ell == 0:
        return tuple(x for x in off if x < base[0])
    if ell == k:
        return tuple(x for x in off if x > base[-1])
    return tuple(x for x in off if base[ell - 1] < x < base[ell])


def _check_convex_pinned(system: ChebyshevSystem, k: int, f: FunctionSpec,
                         grid: Iterable[Scalar], ell: int | None,
                         base_budget: int, budget: int, seed: int,
                         tol_factor: float,
                         table: _PointTable | None = None,
                         derived: dict | None = None) -> ConvexityVerdict:
    """The induced (``ell`` None) or interval check.  Each base's scan
    is a direct check of the (n-k)-dimensional induced system; it reads
    its derived table, a point table whose values the base's
    :class:`_PinnedBase` gives, from ``derived`` (base -> table); all of
    them read ``table``, the point table of ``system.basis + (f,)``.  A
    caller may share both between checks of the same system and ``f``;
    without ``derived``, each base's derived values are dropped after its
    scan."""
    n = system.dim
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"base size {k} outside 1..{n - 1}")
    if ell is not None and not 0 <= ell <= k:
        raise InputError(f"interval index {ell} outside 0..{k}")
    pts = sorted_grid(grid)
    bases, _ = increasing_tuples(pts, k, budget=base_budget, seed=seed)
    mode = "induced" if ell is None else "interval"
    table = table or _PointTable(system.basis + (f,))
    own = derived is None
    derived = {} if own else derived

    tuples_checked = 0
    bases_checked = 0
    bases_skipped = 0
    indeterminate = 0
    first: dict[str, tuple] = {}     # verdict -> (witness, value, base) of its first base
    for base in sorted(bases):
        local = _restricted_points(pts, base, ell)
        if len(local) < n - k + 1:
            bases_skipped += 1
            continue
        bases_checked += 1
        _check_base(system.domain, base)
        if base not in derived:
            derived[base] = _PointTable(
                _PinnedBase(table, system.domain, k, base, tol_factor).derived())
        # the induced system's punctured domain holds the points of local
        # (all off the base) that the system's domain holds
        scan = _direct_scan(n - k, system.domain, local, derived[base], budget, seed,
                            tol_factor)
        if own:
            derived.clear()
        tuples_checked += scan.tuples_checked
        indeterminate += scan.indeterminate_count
        if scan.verdict is not None:
            first.setdefault(scan.verdict, (scan.witness, scan.witness_value, base))

    counts = dict(tuples_checked=tuples_checked, bases_checked=bases_checked,
                  bases_skipped=bases_skipped, indeterminate_count=indeterminate)
    for verdict in ("violated", "indeterminate"):
        if verdict in first:
            witness, value, base = first[verdict]
            return ConvexityVerdict(mode, verdict, seed=seed, ell=ell, witness=witness,
                                    witness_value=value, witness_base=base, **counts)
    if bases_checked == 0:
        # Nothing checkable (all restricted grids too small): report that
        # honestly instead of inventing a verdict.
        return ConvexityVerdict(mode, "indeterminate", seed=seed, ell=ell, **counts)
    return ConvexityVerdict(mode, "convex_on_sample", seed=seed, ell=ell, **counts)


def check_convex_induced(system: ChebyshevSystem, k: int, f: FunctionSpec,
                         grid: Iterable[Scalar],
                         base_budget: int = DEFAULT_BASE_BUDGET,
                         budget: int = DEFAULT_TUPLE_BUDGET,
                         seed: int = DEFAULT_SEED,
                         tol_factor: float = DEFAULT_TOL_FACTOR) -> ConvexityVerdict:
    """For each sampled increasing base k-tuple, check convexity of the
    derived divided-difference function with respect to the induced
    system on the rest of the grid, and aggregate."""
    return _check_convex_pinned(system, k, f, grid, None, base_budget, budget,
                                seed, tol_factor)


def check_convex_interval(system: ChebyshevSystem, k: int, ell: int, f: FunctionSpec,
                          grid: Iterable[Scalar],
                          base_budget: int = DEFAULT_BASE_BUDGET,
                          budget: int = DEFAULT_TUPLE_BUDGET,
                          seed: int = DEFAULT_SEED,
                          tol_factor: float = DEFAULT_TOL_FACTOR) -> ConvexityVerdict:
    """The induced check restricted to the single gap selected by
    ``ell``: below the base for ell=0, between base[ell-1] and base[ell]
    for 0 < ell < k, above the base for ell=k.  Bases whose restricted
    grid is too small are skipped and counted."""
    return _check_convex_pinned(system, k, f, grid, ell, base_budget, budget,
                                seed, tol_factor)


# ---------------------------------------------------------------------------
# the determinant factorization identity behind the equivalence

def convexity_identity_check(system: ChebyshevSystem, k: int, f: FunctionSpec,
                             points) -> ResidualReport:
    """Check, at one pairwise-distinct (n+1)-tuple, that the scaled
    extended collocation determinant equals the determinant of derived
    divided differences:

        det(basis+f at all points) * (k-minor at first k)**(n-k)
        / prod over appended points of (k+1)-minor
        == det of [basis[k..n-1]+f differenced over (first k, appended)]

    The left side is one big determinant, the right side is built from
    (n-k+1)^2 small ones, so the two sides certify each other.
    """
    return _convexity_identity(system, k, f, points)[0]


def _convexity_identity(system: ChebyshevSystem, k: int, f: FunctionSpec,
                        points) -> tuple:
    """:func:`convexity_identity_check` and its right side's cells by
    appended point x: the divided differences of basis[k:] + (f,) over
    (first k points, x), all read from one pinned base at the first k
    points."""
    n = system.dim
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"prefix size {k} outside 1..{n - 1}")
    pts = validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT).points
    if len(pts) != n + 1:
        raise DimensionMismatch(f"need {n + 1} points, got {len(pts)}")
    head, tail = pts[:k], pts[k:]
    _check_domain(system.domain, head)
    pinned = _PinnedBase(_PointTable(system.basis + (f,)), system.domain, k, head)
    cells = _PointTable(pinned.derived())
    return (pinned.identity(tail, cells),
            [c.values for c in cells.columns(tuple(range(n - k + 1)), cells.points(tail))])


# ---------------------------------------------------------------------------
# cross-mode agreement

@dataclass(frozen=True)
class AgreementReport:
    """Verdicts of every mode, plus any definite disagreement (a
    convex/violated conflict outside tolerance bands, which would
    certify a bug)."""

    verdicts: tuple                # of (label, ConvexityVerdict) pairs
    disagreements: tuple           # of (label_a, label_b) pairs

    @property
    def agreed(self) -> bool:
        return not self.disagreements

    def verdict_map(self) -> dict:
        return dict(self.verdicts)


def cross_mode_agreement(system: ChebyshevSystem, f: FunctionSpec,
                         grid: Iterable[Scalar], k_list: Sequence[int] | None = None,
                         base_budget: int = DEFAULT_BASE_BUDGET,
                         budget: int = DEFAULT_TUPLE_BUDGET,
                         seed: int = DEFAULT_SEED,
                         tol_factor: float = DEFAULT_TOL_FACTOR) -> AgreementReport:
    """Run the direct mode, the induced mode for each k, and the
    interval mode for each (k, ell), and compare definite verdicts.
    All modes read one point table, and the pinned modes share their
    derived tables, so each base is eliminated and each derived value
    computed once."""
    n = system.dim
    if k_list is None:
        k_list = list(range(1, n))
    table = _PointTable(system.basis + (f,))
    labeled: list[tuple[str, ConvexityVerdict]] = [
        ("direct", _check_convex_direct(system, f, grid, table, budget, seed, tol_factor))]
    derived: dict = {}
    pinned = dict(base_budget=base_budget, budget=budget, seed=seed, tol_factor=tol_factor,
                  table=table, derived=derived)
    for k in k_list:
        labeled.append((f"induced:k={k}",
                        _check_convex_pinned(system, k, f, grid, None, **pinned)))
        for ell in range(k + 1):
            labeled.append((f"interval:k={k}:ell={ell}",
                            _check_convex_pinned(system, k, f, grid, ell, **pinned)))
        derived.clear()     # bases of size k serve only the modes of this k
    definite = [(label, v.verdict) for label, v in labeled
                if v.verdict != "indeterminate"]
    disagreements = tuple(
        (a_label, b_label)
        for i, (a_label, a_verdict) in enumerate(definite)
        for b_label, b_verdict in definite[i + 1:]
        if a_verdict != b_verdict)
    return AgreementReport(tuple(labeled), disagreements)
