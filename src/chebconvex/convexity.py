"""Convexity of a function with respect to a Chebyshev system, decided
three provably equivalent ways on a grid:

* direct: nonnegativity of the extended collocation determinant on all
  increasing (n+1)-tuples,
* induced: for every pinned base k-tuple, convexity of the derived
  divided-difference function with respect to the induced system on the
  punctured grid,
* interval: the induced check restricted to a single gap between (or
  beyond) the base points, selected by an index ell in 0..k.

Each public check, and :func:`cross_mode_agreement` of all of them, is
one call of :func:`_check_convex`, which checks its base sizes and
interval indices, sorts the grid once, checks the tolerance factor,
reads one point table, routes once (determinant._route) and makes the
one direct walk that its pinned modes read (below): a single pinned
check is the runner with that one mode and no direct verdict.

Verdicts are explicitly grid-relative.  On the float backend, values
inside the tolerance band around zero are reported indeterminate rather
than forced into a verdict.  The determinant identity behind the
equivalence (:func:`convexity_identity_check`) is the induced system's
factorization identity for the basis extended by f, evaluated by the
same pinned-base method (induced._PinnedBase.identity).

That identity is also the sign identity that exact pinned checks read.
For a base B and a tuple T off it, the derived (n-k+1)-minor is

    det(A_B)^(n-k) * D(B ∪ T) / prod over x in T of D_{k+1}(B, x)

and sorting the columns of B ∪ T moves each x past as many base points
as sorting (B, x) does, so the permutation signs cancel.  When every k-
and (k+1)-prefix minor on increasing points is positive, which the lower
part of the direct scan's window certificate proves (Fekete's lemma, see
determinant._certified), each derived minor has the sign of the direct
minor at sorted(B ∪ T).  An exact check whose bases and inner scans are
exhaustive therefore reads every base's verdict off one direct walk,
the direct mode's scan or, for a pinned check alone, the same walk made
for it, and scans no base: for each mode the walk records the smallest pair
(B*, T*) of a violating tuple's base and inner tuple, so B* is the
mode's first violated base and T* the smallest violating tuple of its
scan, the witness, whose value, the derived minor at T*, is the
identity's left side above at (B*, T*), computed exactly from the
parent table's determinants (induced._sylvester_side, which
_PinnedBase.identity computes too).  No check that the base's scan
would make can fail there: every k- and (k+1)-prefix minor is positive,
so no denominator vanishes; an exact grid has no two equal points, so
(B..., x) passes the ordering check; every point passed the walk's
domain check; and every inner scan is exhaustive.  Such a check lists
no base either: each mode's counts are closed forms in m, n and k (see
_check_convex_pinned).  Any other check, or one whose lower part fails
or whose walk raises, scans every base, and one scan of a base serves
all of its modes when they are the induced mode and its gaps and the
induced scan is exhaustive: each gap is a range of the positions off
the base.  A float walk of those positions tallies every mode's tuples,
each by its own tolerance, and an exact gap walks its own range, as an
exact walk stops at its first violation; a gap whose windows pass, as
every gap's do when the whole's do, is not walked.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    DEFAULT_MIN_GAP,
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    Backend,
    ChebyshevSystem,
    Domain,
    FunctionSpec,
    OrderingClass,
    Scalar,
    _check_domain,
    validate_tuple,
)
from .determinant import (
    _PointTable,
    _finite_tol,
    _route,
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
from .induced import _PinnedBase, _check_base, _check_base_size, _sylvester_side

#: The counts of a pinned mode's verdict.
_COUNTS = ("tuples_checked", "bases_checked", "bases_skipped", "indeterminate_count")

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


def _direct_scan(n: int, domain: Domain, js, table, budget: int, seed: int, tol_factor: float,
                 cuts: tuple = (), parts: list | None = None):
    """Sign scan of the extended determinant on increasing (n+1)-tuples
    of the increasing positions ``js`` of the sorted grid of ``table``,
    for a system of dimension n on ``domain``, whose extended columns
    ``table`` gives: negative values are violations, or near zero inside
    the float tolerance band; with the smallest (base, inner) pairs of
    its violating tuples for ``cuts`` (see :attr:`SignScan.pairs`), and,
    given ``parts``, a list of its scan and one per range of the indices
    of ``js`` (see :func:`determinant._sign_scan`)."""
    if len(js) < n + 1:
        raise InsufficientGrid(f"grid has {len(js)} points, need at least {n + 1}")
    _check_domain(domain, table.grid, "grid point", js)
    return _sign_scan(table, tuple(range(n + 1)), js, budget, seed, tol_factor, positive=False,
                      cuts=cuts, parts=parts)


def check_convex_direct(system: ChebyshevSystem, f: FunctionSpec, grid: Iterable[Scalar],
                        budget: int = DEFAULT_TUPLE_BUDGET,
                        seed: int = DEFAULT_SEED,
                        tol_factor: float = DEFAULT_TOL_FACTOR) -> ConvexityVerdict:
    """Nonnegativity of the extended collocation determinant on all
    sampled increasing (n+1)-tuples of the grid: :func:`_check_convex`
    with the direct mode alone.  Raises :class:`OrderingViolation` on a
    float grid with two points closer than the minimum gap, before it
    checks ``tol_factor``, and :class:`NonFiniteValue` on an infinite or
    NaN value.  An exhaustive float check of rational input answers on
    the exact engine (determinant._route), with 0 indeterminate tuples.
    Any other exhaustive float check with ``tol_factor`` > 0 first reads
    the windows of consecutive points, computed exactly on the float
    values (determinant._dyadic): when they pass, it passes with 0
    indeterminate tuples, without walking its tuples; else it walks."""
    return _check_convex(system, f, grid, True, (), DEFAULT_BASE_BUDGET, budget, seed,
                         tol_factor)[0]


def _check_convex(system: ChebyshevSystem, f: FunctionSpec, grid: Iterable[Scalar],
                  direct: bool, pinned: Sequence[tuple], base_budget: int, budget: int,
                  seed: int, tol_factor: float) -> list:
    """The verdicts of the direct mode, when ``direct``, and then of the
    pinned modes of each (k, ells) in ``pinned``, in order, by
    :func:`_check_convex_pinned` (an ell None for the induced mode),
    all reading one point table of ``system.basis + (f,)``.  Every k is
    checked, then every ell, then the grid is sorted (with the minimum
    gap when ``direct``), then ``tol_factor``.  The check is exhaustive
    when its walk on every (n+1)-tuple fits ``budget`` and every k's
    bases fit ``base_budget``; then it answers on the exact image
    (determinant._route) when the grid is spaced.  Its direct walk is
    made here once: when ``direct``, the direct mode's scan, whose
    errors propagate; else, for an exhaustive exact check, the same
    walk, whose errors the per-base scans meet in their own order, or
    not.  Only an exhaustive check's walk is given each pinned mode's
    :func:`_cut`, and its pairs are what every k reads; a check whose
    bases are sampled reads none, so its walk keeps no cut that could
    keep it from stopping at its first violation."""
    n = system.dim
    for k, _ in pinned:
        _check_base_size(n, k)
    for k, ells in pinned:
        for ell in ells:
            if ell is not None and not 0 <= ell <= k:
                raise InputError(f"interval index {ell} outside 0..{k}")
    pts = sorted_grid(grid, min_gap=DEFAULT_MIN_GAP if direct else 0.0)
    tol_factor, m = _finite_tol(tol_factor), len(pts)
    cuts = tuple({_cut(n, k, ell) for k, ells in pinned for ell in ells})
    exhaustive = math.comb(m, n + 1) <= budget and all(math.comb(m, k) <= base_budget
                                                       for k, _ in pinned)

    def run(table):
        walk = None
        if direct or exhaustive and table.backend is not Backend.FLOAT:
            # a pinned check alone leaves its walk's errors to the per-base
            # scans, which meet them in their own order, or not
            with contextlib.suppress(*() if direct else (InputError, ArithmeticError)):
                walk = _direct_scan(n, system.domain, range(m), table, budget, seed, tol_factor,
                                    cuts if exhaustive else ())
        verdicts = [ConvexityVerdict(
            "direct", walk.verdict or "convex_on_sample", walk.tuples_checked, seed,
            witness=walk.witness, witness_value=walk.witness_value,
            indeterminate_count=walk.indeterminate_count)] if direct else []
        pairs = walk.pairs if walk and exhaustive else None
        return verdicts + [v for k, ells in pinned for v in _check_convex_pinned(
            system, k, ells, base_budget, budget, seed, tol_factor, table, pairs)]

    return _route(run, _PointTable(system.basis + (f,), pts), system.domain,
                  pts.spaced and exhaustive, tol_factor, _PinnedBase)


def _span(m: int, base: tuple, ell: int | None) -> tuple:
    """The range (a, b) of the indices, in the increasing list of the
    positions of an m-point grid off the increasing base positions, of
    the positions that the induced mode (``ell`` None) scans, all m - k of
    them, or the interval mode of that ell, those in its gap (0 = below
    the base, k = above it): base[i] has base[i] - i of them below it."""
    return (base[ell - 1] - ell + 1 if ell else 0,
            m - len(base) if ell in (None, len(base)) else base[ell] - ell)


def _cut(n: int, k: int, ell: int | None) -> tuple:
    """The (cut, width) of the induced (``ell`` None) or interval mode
    of base size k in dimension n: a sorted (n+1)-tuple u is B ∪ T, with
    T in the gap ell of B, for one base B, u less its n-k+1 entries after
    the first ell.  In the induced mode every k-subset of u is such a
    base, and the smallest is u's first k entries, the one ell = k gives."""
    return (k if ell is None else ell, n - k + 1)


def _read_off(table: _PointTable, k: int, base: tuple, inner: tuple) -> dict:
    """The violated verdict's (witness, value, base) of a pinned mode
    read off the walk (the pair of its cut, see :func:`_cut`): the points of
    ``inner`` and ``base``, and the derived minor at inner, by the
    identity from the exact parent ``table``, whose minors there are all
    nonzero (see the module docstring)."""
    value = _sylvester_side(table, k, base, inner,
                            lambda j: table.det(tuple(range(k + 1)), base + (j,)))
    pts = table.grid
    return {"violated": (tuple(pts[j] for j in inner), value, tuple(pts[j] for j in base))}


def _check_convex_pinned(system: ChebyshevSystem, k: int, ells: tuple, base_budget: int,
                         budget: int, seed: int, tol_factor: float, table: _PointTable,
                         pairs: dict | None) -> list:
    """The verdicts of the pinned modes ``ells`` of base size k on the
    sorted grid of ``table``, in their order: the induced mode for ``None``,
    else the interval mode of that ell.  The modes take the same bases,
    in sorted order; all of them read ``table``, the point table of
    ``system.basis + (f,)``, which the direct mode and every k of one
    check share.  :func:`_check_convex`, its one caller, checks k and
    ``ells``.

    Given ``pairs``, those of the exact direct walk of an exhaustive
    check (see :func:`_check_convex`), the sign identity reads each
    mode's verdict off that one walk, the first violated base and its
    witness being the pair of the mode's :func:`_cut`, or none when it
    has none: a violated mode's witness, value and base by
    :func:`_read_off`.  No base is pinned or listed then, and no check
    of a base's scan is skipped that could fail (see the module
    docstring): the bases are all C(m, k) of them, and the walk found
    every grid point in the domain, so every base passes its domain
    check.  Each mode's counts are closed forms, with r = n - k + 1: the
    induced mode checks every base, and C(m, k)·C(m - k, r) tuples; an
    interval mode checks the C(m - r, k) bases that leave r points or
    more in its gap (C(m - g - 1, k - 1) bases leave g there, summed
    over g >= r), skips the rest, and checks C(m, k + r) tuples, each
    k + r positions read as a base and the r points of its gap.

    Otherwise every base is scanned: a direct check of the
    (n-k)-dimensional induced system on the positions off the base, or
    on those in one gap (:func:`_span`), on the derived table
    (:class:`_PinnedBase`) of the base, pinned once per scan.  When the
    first mode's positions hold every other mode's (it is the induced
    one, or alone) and its scan is exhaustive, so that every mode's is,
    one scan of its positions serves every mode, each mode a range of
    them (determinant._sign_scan's ``parts``), and every mode's counts
    and witnesses are those its own scan would give.  Else, as when the
    induced scan is sampled and each mode draws its sample from its own
    positions, each mode scans alone.  The modes that one scan serves, a
    unit, run over every base before the next unit, in the order of
    ``ells``, and a scan's error is raised at once.  That is the error
    that the modes, each run alone in turn, would meet first: the first
    mode's first error in base order, for the one scan of a unit reads
    exactly the first mode's positions, columns and tuples, in its
    order, and meets exactly the errors that its own scan meets."""
    n, pts = system.dim, table.grid
    m, r = len(pts), n - k + 1
    if pairs is not None:
        total = math.comb(m, k)
        return [_pinned_verdict(ell, seed, dict(
            tuples_checked=total * math.comb(m - k, r) if ell is None else math.comb(m, k + r),
            bases_checked=c, bases_skipped=total - c, indeterminate_count=0),
            _read_off(table, k, *pair) if (pair := pairs.get(_cut(n, k, ell))) else {})
            for ell in ells for c in [total if ell is None else math.comb(m - r, k)]]
    # by mode: its ell, its counts and, by verdict, the (witness, value, base)
    # of its first base
    modes = [(ell, dict.fromkeys(_COUNTS, 0), {}) for ell in ells]
    bases = sorted(increasing_tuples(range(m), k, budget=base_budget, seed=seed)[0])
    for unit in [modes] if len(ells) == 1 or ells[0] is None and math.comb(m - k, r) <= budget \
            else [[mode] for mode in modes]:
        for base in bases:
            # the modes of the unit that check this base, each with its range
            live = [(mode, (a, b)) for mode in unit for a, b in [_span(m, base, mode[0])]
                    if b - a >= r]
            if not live:
                continue
            _check_base(system.domain, (pts[j] for j in base))
            # the induced system's punctured domain holds the points off the
            # base that the system's domain holds; a unit of several modes
            # starts with the induced one, whose range starts at 0
            off = [j for j in range(m) if j not in base]
            scans = _direct_scan(n - k, system.domain, off[slice(*live[0][1])],
                                 _PinnedBase(table, k, base, tol_factor), budget, seed,
                                 tol_factor, (), [span for _, span in live[1:]])
            for ((_, count, first), _), scan in zip(live, scans):
                count["bases_checked"] += 1
                count["tuples_checked"] += scan.tuples_checked
                count["indeterminate_count"] += scan.indeterminate_count
                if scan.verdict is not None and scan.verdict not in first:
                    first[scan.verdict] = (scan.witness, scan.witness_value,
                                           tuple(pts[j] for j in base))
    return [_pinned_verdict(ell, seed, {**count, "bases_skipped": len(bases) - count[
        "bases_checked"]}, first) for ell, count, first in modes]


def _pinned_verdict(ell: int | None, seed: int, counts: dict, first: dict) -> ConvexityVerdict:
    """The verdict of a pinned mode with the ``counts`` and, by verdict,
    the (witness, value, base) of its ``first`` base: violated, else
    indeterminate, else convex, unless no base was checkable (all
    restricted grids too small), which is reported as indeterminate
    rather than inventing a verdict."""
    mode = "induced" if ell is None else "interval"
    for verdict in ("violated", "indeterminate"):
        if verdict in first:
            witness, value, base = first[verdict]
            return ConvexityVerdict(mode, verdict, seed=seed, ell=ell, witness=witness,
                                    witness_value=value, witness_base=base, **counts)
    return ConvexityVerdict(mode, "convex_on_sample" if counts["bases_checked"] else
                            "indeterminate", seed=seed, ell=ell, **counts)


def check_convex_induced(system: ChebyshevSystem, k: int, f: FunctionSpec,
                         grid: Iterable[Scalar],
                         base_budget: int = DEFAULT_BASE_BUDGET,
                         budget: int = DEFAULT_TUPLE_BUDGET,
                         seed: int = DEFAULT_SEED,
                         tol_factor: float = DEFAULT_TOL_FACTOR) -> ConvexityVerdict:
    """For each sampled increasing base k-tuple, check convexity of the
    derived divided-difference function with respect to the induced
    system on the rest of the grid, and aggregate: :func:`_check_convex`
    with this one mode and no direct verdict, once ``tol_factor`` is
    found finite.  An exhaustive float check of rational input answers
    on the exact engine (determinant._route), with 0 indeterminate
    tuples."""
    return _check_convex(system, f, grid, False, ((k, (None,)),), base_budget, budget, seed,
                         _finite_tol(tol_factor))[0]


def check_convex_interval(system: ChebyshevSystem, k: int, ell: int, f: FunctionSpec,
                          grid: Iterable[Scalar],
                          base_budget: int = DEFAULT_BASE_BUDGET,
                          budget: int = DEFAULT_TUPLE_BUDGET,
                          seed: int = DEFAULT_SEED,
                          tol_factor: float = DEFAULT_TOL_FACTOR) -> ConvexityVerdict:
    """The induced check restricted to the single gap selected by
    ``ell``: below the base for ell=0, between base[ell-1] and base[ell]
    for 0 < ell < k, above the base for ell=k.  Bases whose restricted
    grid is too small are skipped and counted.  It is
    :func:`_check_convex` with this one mode and no direct verdict, once
    ``tol_factor`` is found finite.  An exhaustive float check of
    rational input answers on the exact engine (determinant._route),
    with 0 indeterminate tuples."""
    return _check_convex(system, f, grid, False, ((k, (ell,)),), base_budget, budget, seed,
                         _finite_tol(tol_factor))[0]


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
    pts = validate_tuple(points, OrderingClass.PAIRWISE_DISTINCT)
    if len(pts) != n + 1:
        raise DimensionMismatch(f"need {n + 1} points, got {len(pts)}")
    _check_domain(system.domain, pts)
    tail = tuple(range(k, n + 1))
    pinned = _PinnedBase(_PointTable(system.basis + (f,), pts), k, tuple(range(k)))
    rep, forms = pinned.identity(tail), pinned.columns(tuple(range(n - k + 1)), tail)
    exact = pinned.backend is not Backend.FLOAT
    return rep, [[Fraction(v, scale) for v in c] if exact else c for c, scale in forms]


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


def cross_mode_agreement(system: ChebyshevSystem, f: FunctionSpec,
                         grid: Iterable[Scalar], k_list: Sequence[int] | None = None,
                         base_budget: int = DEFAULT_BASE_BUDGET,
                         budget: int = DEFAULT_TUPLE_BUDGET,
                         seed: int = DEFAULT_SEED,
                         tol_factor: float = DEFAULT_TOL_FACTOR) -> AgreementReport:
    """Run the direct mode, the induced mode for each k, and the
    interval mode for each (k, ell), and compare definite verdicts: one
    :func:`_check_convex` of every mode.  Every k is checked before the
    grid is read.  All modes read one point table, and the pinned modes
    of each k run as one check (see _check_convex_pinned), which pins
    each base once for all of them and drops it at the next base.  An
    exact pinned mode reads its verdict, witness and value off the
    direct mode's walk, when that is exhaustive, and scans no base: the
    walk records one base and inner tuple for each mode's cut.  An
    exhaustive float check of rational input on a spaced grid answers on
    the exact engine (determinant._route), with 0 indeterminate tuples,
    or keeps the float walk for every mode."""
    n = system.dim
    # the induced mode, then each interval mode; a k past n - 1 is
    # rejected (_check_convex) before its ells are read
    pinned = [(k, (None, *range(min(k, n) + 1)))
              for k in (range(1, n) if k_list is None else k_list)]
    verdicts = _check_convex(system, f, grid, True, pinned, base_budget, budget, seed, tol_factor)
    labels = ["direct"] + [f"induced:k={k}" if ell is None else f"interval:k={k}:ell={ell}"
                           for k, ells in pinned for ell in ells]
    labeled: list[tuple[str, ConvexityVerdict]] = list(zip(labels, verdicts))
    definite = [(label, v.verdict) for label, v in labeled
                if v.verdict != "indeterminate"]
    disagreements = tuple(
        (a_label, b_label)
        for i, (a_label, a_verdict) in enumerate(definite)
        for b_label, b_verdict in definite[i + 1:]
        if a_verdict != b_verdict)
    return AgreementReport(tuple(labeled), disagreements)
