"""Independent oracles for the test suite.

Everything here is implemented by a different algorithm than the
package uses, so matching values certify both sides:

* Laplace cofactor expansion vs elimination (``cofactor_det``);
* evaluate() per value, backends read from the values, vs the point
  table's backends resolved once and its power columns built directly
  (``evaluate_columns``, and ``collocation_matrix_per_value`` and
  ``collocation_det_per_value``, the collocation matrix and determinant
  that the package once exported, as they were before they read the
  table);
* row-wise vs column-step elimination (``row_det``), and every minor
  of Sylvester's identity as its own row-wise determinant vs minors
  eliminated from one read of the matrix's columns
  (``sylvester_by_rows``);
* a pivot and a reduce function per backend, called per step, vs the
  one elimination kernel with its own loops (``eliminate``,
  ``reapply``, ``prepared_det``);
* monomial enumeration vs accumulation (``homogeneous_by_enumeration``);
* unsorted two-ended recursion vs the Newton table (``recursive_divdiff``);
* one row-wise determinant per tuple vs prefix-shared elimination
  (``positivity_loop``, ``direct_loop``);
* one determinant per tuple vs windows of consecutive columns read
  first, in an exact exhaustive scan, and vs a walk that shares each
  prefix's pivot steps and finishes its last two levels in one pass, on
  either backend (``walk_scan``, ``float_walk_scan``);
* one row-wise determinant on every increasing tuple vs an exact walk
  that stops at its first violation, with the smallest base of every
  violating tuple for each cut and the smallest inner tuple beside it
  (``full_walk_scan``);
* one divided_difference of two fresh determinants per derived value vs
  a pinned base eliminated once (``derived_value`` and ``OracleDerivedFn``,
  DerivedFn as it was before it read a pinned base);
* the same derived values vs pinned bases per check (``pinned_loop``);
* one divided_difference per window vs one point table per partition
  (``variation_loop``, against ``window_sum``, the package's partition
  sum over given points);
* the uniform rounds and the jitters of a variation estimate as two
  loops over partitions made anew vs one loop over nested partitions
  (``refinement_loop``);
* one fresh collocation determinant per minor and one divided_difference
  or derived_value per cell vs one pinned base per check, whose one
  factorization evaluator both identity checks share
  (``induced_identity_loop``, ``convexity_identity_loop``, and
  ``identity_suite_loop``, the identity suites as the CLI ran them);
* an exact and a float formula spelled out per site vs one map from a
  backend to its scalar type (``uniform_grid``,
  ``uniform_partition_points``, ``default_anchors_formula``);
* both determinants of a divided difference made scalars and divided vs
  one Fraction of their four integers (``ratio_two_fractions``);
* every point of a partition computed anew, each jitter step as a
  difference, a product and a quotient, vs nested partitions and one
  product (``uniform_partition_points``, ``jittered_points``);
* sorting every grid before one validation vs validating first
  (``sorted_grid_formula``);
* two point types, a free tuple that checked its ordering and a grid
  that read its backend a second time, vs the one point type
  (``OraclePointTuple``, ``OracleGrid``, ``check_ordering``);
* the CLI's readers making one scalar per item, a grid as a tuple of
  scalars sorted by value and restricted grids selected by value vs
  integer grids over one scale, grids sorted and validated as integers
  and points passed by position (``parse_scalar``, ``read_scalars``,
  ``parse_grid``, ``sorted_grid``, ``restricted_points``);
* a report copied into a tree of JSON values, written by
  ``json.dumps(sort_keys=True, indent=2)``, vs the CLI's one writer over
  the report's own objects (``jsonify``).

The closed forms that the package once exported, kept here because only
tests read them, check its general routes on special cases:

* the power-function expansion of a divided difference
  (``power_divdiff_expansion``) vs induced power systems;
* the cotangent system that (1, cos, sin) induces at one base point
  (``trig_induced_closed_form``) vs the generic induced system;
* the paper's sign of a collocation determinant whose appended point
  interleaves the base (``sign_index``) vs the determinants' signs.
"""

import csv
import itertools
import json
import math
import os
import random
import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from chebconvex.convexity import (
    DEFAULT_BASE_BUDGET,
    ConvexityVerdict,
)
from chebconvex.core import (
    DEFAULT_MIN_GAP,
    Backend,
    ChebyshevSystem,
    ConstFn,
    FunctionSpec,
    Interval,
    NegCotFn,
    OrderingClass,
    PointTuple,
    PowerFn,
    PuncturedInterval,
    _BACKEND_TYPES,
    _check_domain,
    _increasing,
    collection_backend,
    combine_backends,
    evaluate,
    puncture,
    scalar_backend,
    to_exact,
    validate_tuple,
)
from chebconvex.determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    PositivityReport,
    ResidualReport,
    SignScan,
    _PointTable,
    _Tally,
    _form,
    _prepared_det,
    _scalar,
    check_denominator,
    det,
    increasing_tuples,
    is_positive_chebyshev,
)
from chebconvex.divdiff import (
    _finite,
    _homogeneous_sums,
    divided_difference,
    power_divdiff_check,
)
from chebconvex.errors import (
    AnchorInfeasible,
    BackendMismatch,
    ChebconvexError,
    DimensionMismatch,
    EvaluationOutsideSupport,
    InputError,
    InsufficientGrid,
    OrderingViolation,
)
from chebconvex.induced import DerivedFn, InducedCheckReport
from chebconvex.systems import polynomial_system
from chebconvex.variation import VariationEstimate, _window_sum


def jsonify(value):
    """JSON form of a report value, as the CLI built it before it wrote
    reports in one pass: a report dataclass becomes the dict of all its
    fields, and a NaN or infinite float, which strict JSON has no number
    for, or a Fraction, its str() ("nan", "inf", "-inf", "p/q")."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if value is None or isinstance(value, (bool, str, int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: jsonify(getattr(value, f.name)) for f in fields(value)}
    return str(value)


def cofactor_det(rows):
    """Determinant by recursive Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        if total is None:
            total = term if j % 2 == 0 else -term
        else:
            total = total + term if j % 2 == 0 else total - term
    return total


# ---------------------------------------------------------------------------
# row-wise elimination, a second implementation of det kept as a
# reference for the package's column-step kernel.  Exact clears row
# denominators and runs Bareiss; float pivots partially, row by row.

def float_rows(rows) -> bool:
    """Whether the matrix given as its ``rows`` is a float one, read
    from its entries' backend (mixed entries raise BackendMismatch)."""
    return collection_backend([v for r in rows for v in r]) is Backend.FLOAT


def row_det(rows):
    """det of the matrix given as its ``rows`` by the row-wise
    elimination below."""
    return _det_float(rows) if float_rows(rows) else _det_exact(rows)


def sylvester_by_rows(rows, k: int) -> ResidualReport:
    """Sylvester's identity for the n x n matrix ``rows`` and k, every
    determinant a :func:`row_det` of its own submatrix: the left side is
    the det of the matrix of the minors on rows 0..k-1, i and columns
    0..k-1, j (k <= i, j < n), the right side the leading k x k minor to
    the power n-k-1 times det(A).  Every determinant takes the backend
    of the whole matrix, as :func:`row_det` reads it from A's entries."""
    n, head = len(rows), list(range(k))
    by_rows = _det_float if float_rows(rows) else _det_exact

    def minor(rs, cs):
        return by_rows([[rows[r][c] for c in cs] for r in rs])

    lhs = by_rows([[minor(head + [i], head + [j]) for j in range(k, n)] for i in range(k, n)])
    rhs = minor(head, head) ** (n - k - 1) * by_rows(rows)
    return ResidualReport(lhs, rhs, abs(lhs - rhs))


def _det_exact(rows: list[list]) -> Fraction:
    n = len(rows)
    # Clear denominators: row i times lcm of its denominators is integral.
    scale = 1
    a: list[list[int]] = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        lcm = 1
        for x in fr:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        scale *= lcm
        a.append([int(x * lcm) for x in fr])

    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                # Bareiss step: the division by the previous pivot is exact.
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


def _det_float(rows: list[list]) -> float:
    n = len(rows)
    a = [[float(x) for x in row] for row in rows]
    result = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(a[r][k]))
        if a[p][k] == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            result = -result
        pivot = a[k][k]
        result *= pivot
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] -= factor * row_k[j]
    return result


# ---------------------------------------------------------------------------
# the column-step elimination as the package ran it before its one
# kernel, kept unchanged as a reference: a pivot function and a reduce
# function per backend, each step a call of each.  ``eliminate`` takes a
# starting state and ``reapply`` re-applies kept steps, as the kernel's
# callers do; the rest is the package's old code.

def _below(c: list, p: int) -> list:
    """The rows of ``c`` after row 0 once rows 0 and p are swapped."""
    rest = c[1:]
    if p:
        rest[p - 1] = c[0]
    return rest


def _float_pivot(result: float, c: list):
    """Pivot on the float column ``c``: the row p of its largest |entry|.
    Returns ``None`` when c[p] is zero, else the pivot product
    ``result`` times c[p], negated on a row swap, and the step that
    :func:`_float_reduce` applies."""
    p, best = 0, abs(c[0])
    for r in range(1, len(c)):
        if abs(c[r]) > best:
            p, best = r, abs(c[r])
    pivot = c[p]
    if pivot == 0.0:
        return None
    factors = [(i, v / pivot) for i, v in enumerate(_below(c, p))]
    return (-result if p else result) * pivot, (p, factors)


def _float_reduce(cols: list, step) -> list:
    """The columns ``cols`` after one :func:`_float_pivot` step: rows 0
    and p swapped, then the rows below row 0 less their multiple of it."""
    p, factors = step
    out = []
    for c in cols:
        top, r = c[p], c[1:]        # _below, inlined in this hot loop
        if p:
            r[p - 1] = c[0]
        for i, f in factors:
            r[i] -= f * top
        out.append(r)
    return out


def _exact_pivot(state: tuple, c: list):
    """Bareiss pivot on the integer column ``c``; ``state`` is (swap
    sign, previous pivot).  Returns ``None`` when c is zero, else the
    new state and the step that :func:`_exact_reduce` applies."""
    sign, prev = state
    p = next((r for r, v in enumerate(c) if v), None)
    if p is None:
        return None
    pivot = c[p]
    below = list(enumerate(_below(c, p)))
    return (-sign if p else sign, pivot), (p, pivot, prev, below)


def _exact_reduce(cols: list, step) -> list:
    """The columns ``cols`` after one :func:`_exact_pivot` step."""
    p, pivot, prev, below = step
    out = []
    for c in cols:
        top, r = c[p], c[1:]        # _below, inlined in this hot loop
        if p:
            r[p - 1] = c[0]
        for i, a in below:
            # Bareiss step: the division by the previous pivot is exact.
            r[i] = (pivot * r[i] - a * top) // prev
        out.append(r)
    return out


def eliminate(cols: list, k: int, exact: bool, state=None):
    """Pivot on the first k of the prepared columns ``cols`` in turn from
    ``state`` (by default that of no step), each step reducing the later
    columns.  Returns the pivot state, the k steps and the reduced later
    columns, or ``None`` when a pivot column is zero."""
    if state is None:
        state = (1, 1) if exact else 1.0
    pivot, reduce = (_exact_pivot, _exact_reduce) if exact else (_float_pivot, _float_reduce)
    steps = []
    for _ in range(k):
        pivoted = pivot(state, cols[0])
        if pivoted is None:
            return None
        state, step = pivoted
        steps.append(step)
        cols = reduce(cols[1:], step)
    return state, steps, cols


def reapply(cols: list, steps: list, exact: bool) -> list:
    """The columns ``cols`` reduced by the kept ``steps`` in turn."""
    for step in steps:
        cols = (_exact_reduce if exact else _float_reduce)(cols, step)
    return cols


def prepared_det(forms: list, exact: bool):
    """det of the columns of the prepared forms ``forms``, as
    determinant._prepared_det gives it: a float, or the exact pair (det
    of the integer columns, product of the scales)."""
    done = eliminate([c for c, _ in forms], len(forms) - 1, exact)
    if done is None:
        return (0, 1) if exact else 0.0
    state, _, (last,) = done
    if exact:
        return state[0] * last[0], math.prod(s for _, s in forms)
    return state * last[0] if last[0] != 0.0 else 0.0


def partition_sum(values: list):
    """The partition sum of the window values ``values``: the absolute
    changes between neighbours, added in order from zero."""
    total = values[0] - values[0]   # zero of the right backend
    for a, b in zip(values, values[1:]):
        total += abs(b - a)
    return total


def homogeneous_by_enumeration(degree, points):
    """Complete homogeneous symmetric polynomial by brute-force monomial
    enumeration: one term per multiset of variable indices."""
    points = tuple(points)
    if degree == 0:
        return Fraction(1) if not any(isinstance(p, float) for p in points) else 1.0
    total = None
    for combo in itertools.combinations_with_replacement(range(len(points)), degree):
        term = points[combo[0]]
        for idx in combo[1:]:
            term = term * points[idx]
        total = term if total is None else total + term
    return total


def recursive_divdiff(f, pts):
    """Divided difference by the direct two-ended recursion, without
    sorting (exercises symmetry in the points)."""
    if len(pts) == 1:
        return f(pts[0])
    return (recursive_divdiff(f, pts[1:]) - recursive_divdiff(f, pts[:-1])) \
        / (pts[-1] - pts[0])


def rand_fraction(rng: random.Random, num=9, den=9) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_distinct_fractions(rng: random.Random, count: int, num=9, den=9) -> tuple:
    seen = set()
    while len(seen) < count:
        seen.add(rand_fraction(rng, num, den))
    out = list(seen)
    rng.shuffle(out)
    return tuple(out)


def rand_increasing_fractions(rng: random.Random, count: int, num=9, den=9) -> tuple:
    return tuple(sorted(rand_distinct_fractions(rng, count, num, den)))


def rand_increasing_floats(rng: random.Random, count: int, lo: float, hi: float,
                           gap: float) -> tuple:
    """Sorted floats in (lo, hi) with pairwise gaps at least ``gap``."""
    while True:
        pts = sorted(rng.uniform(lo, hi) for _ in range(count))
        if all(pts[i + 1] - pts[i] >= gap for i in range(count - 1)):
            return tuple(pts)


# ---------------------------------------------------------------------------
# the point table's columns as it built them before it resolved backends
# once and built power columns directly, kept as a reference: every value
# by evaluate(), row by row over the points, and each column's backend
# read from its values.

class OracleColumn:
    """One column's values, with its backend (``collection_backend`` of
    the values, read when asked, as the table read it) and its form."""

    def __init__(self, values: list):
        self.values = values

    def backend(self):
        return collection_backend(self.values)

    @property
    def form(self) -> tuple:
        """The values' prepared form at their backend."""
        return _form(self.values, self.backend() is not Backend.FLOAT)


def column_values(form) -> list:
    """The values of a point table's column, read from its prepared form:
    Fraction(v, scale) of each integer entry of an exact form, the
    entries themselves of a float one."""
    entries, scale = form
    return [Fraction(v, scale) if type(v) is int else v for v in entries]


def evaluate_columns(fns, rows: tuple, xs) -> list:
    """The columns [evaluate(fns[i], x) for i in rows] at the distinct
    points ``xs``, each value computed row by row over the points."""
    values = {}
    for i in rows:
        for j, x in enumerate(xs):
            values[i, j] = evaluate(fns[i], x)
    return [OracleColumn([values[i, j] for i in rows]) for j in range(len(xs))]


def collocation_matrix_per_value(fns, points) -> list:
    """The rows of the square matrix with entry (i, j) =
    fns[i](points[j]); exact and float entries in it raise
    BackendMismatch."""
    if len(fns) != len(points):
        raise DimensionMismatch(
            f"{len(fns)} functions vs {len(points)} points")
    rows = [[evaluate(fn, x) for x in points] for fn in fns]
    float_rows(rows)    # read for its check: the rows' backend, which mixed entries lack
    return rows


def collocation_det_per_value(system: ChebyshevSystem, k: int, points):
    """Collocation determinant det(basis_i(x_j)) of the k-prefix of the
    system at the given k points (checked to lie in the domain)."""
    pts = tuple(points)
    if not 1 <= k <= system.dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{system.dim}")
    if len(pts) != k:
        raise DimensionMismatch(f"need {k} points, got {len(pts)}")
    _check_domain(system.domain, pts)
    return det(collocation_matrix_per_value(system.basis[:k], pts))


# ---------------------------------------------------------------------------
# per-tuple sign scans: the loops the package ran before its scan kernel,
# kept unchanged as references.  Each tuple builds its own matrix,
# evaluates every entry and takes a pivoted determinant.

def positivity_tolerance(rows, tol_factor):
    """tol_factor * (max |entry|)**n for the n x n matrix ``rows``."""
    return tol_factor * max(abs(float(e)) for r in rows for e in r) ** len(rows)


def _increasing_tuples(sorted_points, k, budget, seed):
    n = len(sorted_points)
    if k > n:
        raise InsufficientGrid(f"grid of {n} points cannot supply {k}-tuples")
    total = math.comb(n, k)
    if total <= budget:
        return [tuple(c) for c in itertools.combinations(sorted_points, k)], True
    rng = random.Random(seed)
    picked = [tuple(sorted(rng.sample(sorted_points, k))) for _ in range(budget)]
    return picked, False


def positivity_loop(system, k, grid, budget=DEFAULT_TUPLE_BUDGET, seed=DEFAULT_SEED,
                    tol_factor=DEFAULT_TOL_FACTOR) -> PositivityReport:
    """Grid positivity by one determinant per tuple."""
    pts = sorted_grid(grid)
    if len(pts) < k:
        raise InsufficientGrid(f"grid has {len(pts)} points, need at least {k}")
    for x in pts:
        if not system.domain.contains(x):
            raise EvaluationOutsideSupport(f"grid point {x} is outside the system domain")
    if not 1 <= k <= system.dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{system.dim}")

    tuples, exhaustive = _increasing_tuples(pts, k, budget=budget, seed=seed)
    fns = system.basis[:k]
    violations: list[tuple] = []
    near_zero: list[tuple] = []
    values: dict = {}
    for t in tuples:
        m = collocation_matrix_per_value(fns, t)
        value = row_det(m)
        if float_rows(m):
            tol = positivity_tolerance(m, tol_factor)
            if value <= -tol:
                violations.append(t)
                values[t] = value
            elif value <= tol:
                near_zero.append(t)
                values[t] = value
        else:
            if value <= 0:
                violations.append(t)
                values[t] = value

    if violations:
        witness = min(violations)
        return PositivityReport("violated", k, len(tuples), exhaustive, seed,
                                witness, values[witness], len(near_zero))
    if near_zero:
        witness = min(near_zero)
        return PositivityReport("indeterminate", k, len(tuples), exhaustive, seed,
                                witness, values[witness], len(near_zero))
    return PositivityReport("positive_on_grid", k, len(tuples), exhaustive, seed)


def direct_loop(system, f, grid, budget=DEFAULT_TUPLE_BUDGET, seed=DEFAULT_SEED,
                tol_factor=DEFAULT_TOL_FACTOR) -> ConvexityVerdict:
    """Direct convexity by one determinant per tuple."""
    grid_pts = sorted_grid(grid)
    n = system.dim
    if len(grid_pts) < n + 1:
        raise InsufficientGrid(f"grid has {len(grid_pts)} points, need at least {n + 1}")
    for x in grid_pts:
        if not system.domain.contains(x):
            raise EvaluationOutsideSupport(f"grid point {x} is outside the system domain")
    fns = system.basis + (f,)
    tuples, exhaustive = _increasing_tuples(grid_pts, n + 1, budget=budget, seed=seed)
    violations: list[tuple] = []
    near_zero: list[tuple] = []
    values: dict = {}
    for t in tuples:
        m = collocation_matrix_per_value(fns, t)
        value = row_det(m)
        if float_rows(m):
            tol = positivity_tolerance(m, tol_factor)
            if value < -tol:
                violations.append(t)
                values[t] = value
            elif value < 0:
                near_zero.append(t)
                values[t] = value
        elif value < 0:
            violations.append(t)
            values[t] = value

    if violations:
        witness = min(violations)
        return ConvexityVerdict("direct", "violated", len(tuples), seed,
                                witness=witness, witness_value=values[witness],
                                indeterminate_count=len(near_zero))
    if near_zero:
        witness = min(near_zero)
        return ConvexityVerdict("direct", "indeterminate", len(tuples), seed,
                                witness=witness, witness_value=values[witness],
                                indeterminate_count=len(near_zero))
    return ConvexityVerdict("direct", "convex_on_sample", len(tuples), seed)


def walk_scan(table, rows: tuple, js, positive: bool) -> SignScan:
    """The exact exhaustive sign scan of the columns of ``rows`` at the
    positions ``js`` of the table's grid as it ran before it read
    windows of consecutive columns or shared a prefix's pivot steps: one
    determinant per increasing tuple, in lexicographic order."""
    return _per_tuple_scan(table, rows, js, positive, True, DEFAULT_TOL_FACTOR)


def full_walk_scan(table, rows: tuple, js, positive: bool, cuts: tuple) -> tuple:
    """The exact exhaustive sign scan of walk_scan by row-wise elimination
    of every increasing tuple, none skipped after the first violation;
    for each (cut, width) in ``cuts`` the smallest base t[:cut] + t[cut +
    width:] over all violating index tuples t (absent when none is), paired
    with the smallest inner tuple t[cut:cut + width] over the violating t
    that leave that base."""
    m, n, grid = len(js), len(rows), table.grid
    cols = [column_values(c) for c in table.columns(rows, js)]
    values = {t: _det_exact([[cols[j][i] for j in t] for i in range(n)])
              for t in itertools.combinations(range(m), n)}
    violating = [t for t, v in values.items() if v < 0 or positive and v == 0]
    if not violating:
        return SignScan(math.comb(m, n), True), {}
    t = violating[0]
    bases = {(c, w): min(u[:c] + u[c + w:] for u in violating) for c, w in cuts}
    pairs = {(c, w): (bases[c, w], min(u[c:c + w] for u in violating
                                       if u[:c] + u[c + w:] == bases[c, w])) for c, w in cuts}
    return (SignScan(math.comb(m, n), True, "violated", tuple(grid[js[j]] for j in t),
                     values[t]), pairs)


def float_walk_scan(table, rows: tuple, js, positive: bool, tol_factor) -> SignScan:
    """walk_scan on a table that reads its grid at the float backend:
    each tuple's determinant is det's of its float columns, and its
    tolerance reads the largest |entry| of its own matrix."""
    return _per_tuple_scan(table, rows, js, positive, False, tol_factor)


def _per_tuple_scan(table, rows, js, positive, exact, tol_factor) -> SignScan:
    """_Tally.add of det's value of each increasing tuple, in order."""
    m, n, grid = len(js), len(rows), table.grid
    forms = table.columns(rows, js)
    tally = _Tally(positive, exact, lambda t: tuple(grid[js[j]] for j in t), tol_factor)
    for t in itertools.combinations(range(m), n):
        matrix = [forms[j] for j in t]
        tally.add(t, _scalar(_prepared_det(matrix, exact)),
                  max(abs(v) for c, _ in matrix for v in c))
    for verdict in ("violated", "indeterminate"):
        if verdict in tally.first:
            t, value = tally.first[verdict]
            return SignScan(math.comb(m, n), True, verdict, tally.at(t), value, tally.near_zero)
    return SignScan(math.comb(m, n), True)


# ---------------------------------------------------------------------------
# one derived value: DerivedFn's evaluation before it read a pinned base,
# kept as a reference.  Every value is a divided_difference of two fresh
# determinants, whose denominator a check takes at its own tolerance
# factor.

def derived_value(fn: DerivedFn, x, tol_factor=DEFAULT_TOL_FACTOR):
    """``fn(x)``: evaluate()'s backend of x and of what ``fn`` requires,
    then the divided difference of its target over (base..., x) with
    respect to the (k+1)-prefix of its parent."""
    backend = combine_backends(
        scalar_backend(x), fn.base.backend, fn.target.required_backend(),
        *(g.required_backend() for g in fn.parent.basis[:fn.k + 1]), default=Backend.EXACT)
    dd = divided_difference(fn.parent, fn.k + 1, fn.target, fn.base.points + (x,),
                            tol_factor=tol_factor)
    return in_backend(dd.value, backend)


def in_backend(x, backend: Backend):
    """``x`` as a scalar of ``backend``, which it must not clash with: a
    float is no exact scalar, and a Fraction no float one."""
    if scalar_backend(x) not in (None, backend):
        raise BackendMismatch(f"{type(x).__name__} scalar in a {backend.value} computation")
    return Fraction(x) if backend is Backend.EXACT else float(x)


@dataclass(frozen=True)
class OracleDerivedFn(DerivedFn):
    """A DerivedFn whose values are derived_value's at ``tol_factor``."""

    tol_factor: float = DEFAULT_TOL_FACTOR

    def required_backend(self):
        return combine_backends(
            self.base.backend, self.target.required_backend(),
            *(g.required_backend() for g in self.parent.basis[:self.k + 1]))

    def _eval(self, x, backend):
        return derived_value(self, x, self.tol_factor)


def oracle_induced(parent: ChebyshevSystem, k: int, base,
                   tol_factor=DEFAULT_TOL_FACTOR) -> tuple:
    """The base as a strictly increasing point tuple, the system that
    pinning it induces, on the parent's domain punctured at the base, and
    the maker of its derived functions, all of them OracleDerivedFn at
    ``tol_factor``.  The base is checked first, in this order and with
    the package's messages: strictly increasing, 1 <= k <= dim - 1, k
    points, each in the parent's domain, and a backend that no basis
    function's requirement clashes with."""
    base = _increasing(base)
    n = parent.dim
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"base size {k} outside 1..{n - 1}")
    if len(base) != k:
        raise DimensionMismatch(f"base has {len(base)} points, expected {k}")
    for x in base:
        if not parent.domain.contains(x):
            raise InputError(f"base point {x} is outside the parent domain")
    combine_backends(base.backend, *(fn.required_backend() for fn in parent.basis))

    def derived(target):
        return OracleDerivedFn(parent, k, base, target, tol_factor)
    domain = puncture(parent.domain, base.points)
    return base, ChebyshevSystem(tuple(map(derived, parent.basis[k:])), domain), derived


# ---------------------------------------------------------------------------
# per-base pinned checks: the loop the package ran before its derived
# tables, kept unchanged as a reference.  Each base builds its induced
# system and runs a direct check of the derived function, whose every
# value is a divided difference of two fresh determinants (derived_value).
# The direct check is direct_loop: like the package's per-base scans,
# and unlike check_convex_direct, it puts no minimum gap between the
# grid points themselves (derived_value checks each point against the base).

def pinned_loop(system, k, f, grid, ell=None, base_budget=DEFAULT_BASE_BUDGET,
                budget=DEFAULT_TUPLE_BUDGET, seed=DEFAULT_SEED,
                tol_factor=DEFAULT_TOL_FACTOR) -> ConvexityVerdict:
    """The induced (``ell`` None) or interval check, one base at a time."""
    n = system.dim
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"base size {k} outside 1..{n - 1}")
    if ell is not None and not 0 <= ell <= k:
        raise InputError(f"interval index {ell} outside 0..{k}")
    pts = sorted_grid(grid)
    bases, _ = increasing_tuples(pts, k, budget=base_budget, seed=seed)
    mode = "induced" if ell is None else "interval"

    tuples_checked = 0
    bases_checked = 0
    bases_skipped = 0
    indeterminate = 0
    first_violation: ConvexityVerdict | None = None
    first_indeterminate: ConvexityVerdict | None = None
    for base in sorted(bases):
        local = restricted_points(pts, base, ell)
        if len(local) < n - k + 1:
            bases_skipped += 1
            continue
        bases_checked += 1
        _, induced, derived = oracle_induced(
            system, k, validate_tuple(base, OrderingClass.STRICTLY_INCREASING, min_gap=0.0),
            tol_factor)
        inner = direct_loop(induced, derived(f), local,
                            budget=budget, seed=seed, tol_factor=tol_factor)
        tuples_checked += inner.tuples_checked
        indeterminate += inner.indeterminate_count
        if inner.verdict == "violated" and first_violation is None:
            first_violation = ConvexityVerdict(
                mode, "violated", 0, seed, ell=ell, witness=inner.witness,
                witness_value=inner.witness_value, witness_base=base)
        elif inner.verdict == "indeterminate" and first_indeterminate is None:
            first_indeterminate = ConvexityVerdict(
                mode, "indeterminate", 0, seed, ell=ell, witness=inner.witness,
                witness_value=inner.witness_value, witness_base=base)

    counts = dict(tuples_checked=tuples_checked, bases_checked=bases_checked,
                  bases_skipped=bases_skipped, indeterminate_count=indeterminate)
    if first_violation is not None:
        return ConvexityVerdict(mode, "violated", seed=seed, ell=ell,
                                witness=first_violation.witness,
                                witness_value=first_violation.witness_value,
                                witness_base=first_violation.witness_base, **counts)
    if first_indeterminate is not None:
        return ConvexityVerdict(mode, "indeterminate", seed=seed, ell=ell,
                                witness=first_indeterminate.witness,
                                witness_value=first_indeterminate.witness_value,
                                witness_base=first_indeterminate.witness_base, **counts)
    if bases_checked == 0:
        # Nothing checkable (all restricted grids too small): report that
        # honestly instead of inventing a verdict.
        return ConvexityVerdict(mode, "indeterminate", seed=seed, ell=ell, **counts)
    return ConvexityVerdict(mode, "convex_on_sample", seed=seed, ell=ell, **counts)



# ---------------------------------------------------------------------------
# per-window partition sums: the loop the package ran before its point
# tables, kept unchanged as a reference.  Every window is a fresh
# divided_difference: its points validated, every value evaluated, two
# collocation matrices built.

def variation_loop(system, f, points, tol_factor=DEFAULT_TOL_FACTOR):
    """Sum over consecutive n-point windows of the partition ``points``
    of the absolute difference of neighbouring divided differences."""
    n = system.dim
    pts = tuple(points)
    m = len(pts) - 1
    if m < n:
        raise DimensionMismatch(
            f"partition has {m} intervals, need at least {n} for dimension {n}")
    window_values = [
        divided_difference(system, n, f, pts[i:i + n], tol_factor=tol_factor).value
        for i in range(m - n + 2)]
    total = window_values[0] - window_values[0]  # zero of the right backend
    for i in range(m - n + 1):
        total += abs(window_values[i + 1] - window_values[i])
    return total


def refinement_loop(system, f, a, b, strategy, tol_factor=DEFAULT_TOL_FACTOR):
    """``estimate_variation`` as two loops: the uniform partitions of
    doubling size, each made anew by uniform_partition_points, then the
    seeded jitters of the finest by jittered_points, every partition
    summed by variation_loop; the running best and the convergence
    heuristic of the last doubling, kept across both loops and compared
    in the backend's scalars, so exact sums past the float range compare."""
    backend = combine_backends(scalar_backend(a), scalar_backend(b), f.required_backend(),
                               system.required_backend(), default=Backend.EXACT)
    m0 = strategy.initial_intervals if strategy.initial_intervals is not None \
        else max(system.dim, 8)
    partial_sums, best, best_partition, converged, prev_best = [], None, None, False, None
    for r in range(strategy.rounds):
        m = m0 << r
        pts = uniform_partition_points(a, b, m, backend)
        value = variation_loop(system, f, pts, tol_factor)
        partial_sums.append((m, value))
        if best is None or value > best:
            best, best_partition = value, tuple(pts)
        if prev_best is not None:
            step = Fraction(1, 10 ** 6) if backend is Backend.EXACT else 1e-6
            converged = best - prev_best < step * max(1, abs(best))
        prev_best = best
    rng = random.Random(strategy.seed)
    for _ in range(strategy.perturb_rounds):
        pts = jittered_points(tuple(uniform_partition_points(a, b, m, backend)), rng, backend)
        value = variation_loop(system, f, pts, tol_factor)
        partial_sums.append((m, value))
        if value > best:
            best, best_partition = value, tuple(pts)
    return VariationEstimate(tuple(partial_sums), best, best_partition, converged)


def window_sum(system, f, points, tol_factor=DEFAULT_TOL_FACTOR):
    """Not an oracle: the package's partition sum of f over the strictly
    increasing ``points``, as estimate_variation takes it for each of its
    partitions, one point table and ``variation._window_sum`` over the
    grid of the points.  Like estimate_variation's partitions, the points
    must pass divided_difference's checks of points (at least n
    intervals, the minimum gap, the domain), which it does not make."""
    grid = PointTuple(points, OrderingClass.STRICTLY_INCREASING)
    return _window_sum(_PointTable(system.basis + (f,), grid), system, range(len(grid)),
                       tol_factor)


# ---------------------------------------------------------------------------
# the identity checks and suites as the package ran them before they read
# pinned bases, kept unchanged as references.  Every (k+1)-minor, every
# extended determinant and every right-hand cell is its own fresh
# collocation determinant or divided_difference; induced values go
# through derived_value.

def induced_identity_loop(parent: ChebyshevSystem, k: int, base, grid,
                          budget: int = DEFAULT_TUPLE_BUDGET,
                          seed: int = DEFAULT_SEED,
                          tol_factor: float = DEFAULT_TOL_FACTOR) -> InducedCheckReport:
    """Build the induced system over ``base`` and check, over the grid,
    that it is a positive Chebyshev system and that the factorization
    identity holds on every sampled increasing (n-k)-tuple."""
    base, system, _ = oracle_induced(parent, k, base, tol_factor)
    d = system.dim
    pts = sorted_grid(grid)
    positivity = is_positive_chebyshev(system, d, pts, budget=budget, seed=seed,
                                       tol_factor=tol_factor)

    tuples, exhaustive = increasing_tuples(pts, d, budget=budget, seed=seed)
    base_pts = base.points
    kminor = collocation_det_per_value(parent, k, base_pts)
    max_abs = 0.0
    max_rel = 0.0
    worst: ResidualReport | None = None
    for t in tuples:
        lhs = collocation_det_per_value(parent, parent.dim, base_pts + t) * kminor ** (d - 1)
        for x in t:
            lhs = lhs / collocation_det_per_value(parent, k + 1, base_pts + (x,))
        rhs = collocation_det_per_value(system, d, t)
        report = ResidualReport(lhs, rhs, abs(lhs - rhs))
        if float(report.residual) >= max_abs:
            max_abs = float(report.residual)
            worst = report
        max_rel = max(max_rel, report.relative_residual)
    return InducedCheckReport(positivity, len(tuples), max_abs, max_rel,
                              worst, exhaustive, seed)


def convexity_identity_loop(system: ChebyshevSystem, k: int, f: FunctionSpec,
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
    n = system.dim
    if not 1 <= k <= n - 1:
        raise DimensionMismatch(f"prefix size {k} outside 1..{n - 1}")
    pts = points.points if isinstance(points, PointTuple) else tuple(points)
    pts = validate_tuple(pts, OrderingClass.PAIRWISE_DISTINCT).points
    if len(pts) != n + 1:
        raise DimensionMismatch(f"need {n + 1} points, got {len(pts)}")
    head, tail = pts[:k], pts[k:]

    kminor = collocation_det_per_value(system, k, head)
    lhs = det(collocation_matrix_per_value(system.basis + (f,), pts)) * kminor ** (n - k)
    for x in tail:
        den_matrix = collocation_matrix_per_value(system.basis[:k + 1], head + (x,))
        denom = det(den_matrix)
        # all entries as one prepared column: the rule reads their largest |entry|;
        # an exact determinant as the rule takes it, a (det, scale) pair
        entries = [v for r in den_matrix for v in r]
        check_denominator((denom.numerator, denom.denominator) if type(denom) is Fraction
                          else denom, [(entries, 1)], collection_backend(entries),
                          head + (x,), name="(k+1)-prefix determinant", show_value=False)
        lhs = lhs / denom

    targets = system.basis[k:] + (f,)
    rows = [[divided_difference(system, k + 1, target, head + (x,)).value
             for x in tail] for target in targets]
    rhs = det(rows)
    return ResidualReport(lhs, rhs, abs(lhs - rhs))


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_matrix(rng: random.Random, n: int, backend: Backend) -> list:
    if backend is Backend.EXACT:
        return [[_rand_fraction(rng) for _ in range(n)] for _ in range(n)]
    return [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]


def _rand_distinct_fractions(rng: random.Random, count: int) -> tuple:
    pool: set[Fraction] = set()
    while len(pool) < count:
        pool.add(_rand_fraction(rng))
    return tuple(pool)


def identity_suite_loop(suite: str, trials: int, seed: int, backend: Backend) -> dict:
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    failures: list[dict] = []
    max_abs = 0.0
    max_rel = 0.0

    def record(ok: bool, abs_res: float, rel_res: float, detail: dict):
        nonlocal max_abs, max_rel
        max_abs = max(max_abs, abs_res)
        max_rel = max(max_rel, rel_res)
        if not ok and len(failures) < 10:
            failures.append(detail)

    for trial in range(trials):
        if suite == "sylvester":
            n = rng.randint(2, 6)
            k = rng.randint(1, n - 1)
            rep = sylvester_by_rows(_rand_matrix(rng, n, backend), k)
            abs_res = float(rep.residual)
            rel_res = rep.relative_residual
            ok = rep.residual == 0 if backend is Backend.EXACT else rel_res <= 1e-9
            record(ok, abs_res, rel_res, {"trial": trial, "n": n, "k": k,
                                          "residual": jsonify(rep.residual)})
        elif suite == "power-sum":
            degree = rng.randint(1, 8)
            k = rng.randint(1, min(6, degree + 1))
            pts = _rand_distinct_fractions(rng, k)
            if backend is Backend.FLOAT:
                pts = tuple(float(p) for p in pts)
            rep = power_divdiff_check(degree, pts)
            ok = rep.residual == 0 if backend is Backend.EXACT \
                else rep.relative_residual <= 1e-9
            record(ok, float(rep.residual), rep.relative_residual,
                   {"trial": trial, "degree": degree, "points": jsonify(pts),
                    "residual": jsonify(rep.residual)})
        elif suite == "induced-det":
            n = rng.randint(3, 5)
            k = rng.randint(1, n - 1)
            pts = sorted(_rand_distinct_fractions(rng, n))
            if backend is Backend.FLOAT:
                pts = [float(p) for p in pts]
            system = polynomial_system(n)
            rep = induced_identity_loop(system, k, tuple(pts[:k]), tuple(pts[k:]),
                                        seed=seed)
            ok = rep.max_abs_residual == 0 if backend is Backend.EXACT \
                else rep.max_rel_residual <= 1e-8
            record(ok, rep.max_abs_residual, rep.max_rel_residual,
                   {"trial": trial, "n": n, "k": k, "base": jsonify(pts[:k])})
        elif suite in ("convexity-det", "slope-diff"):
            n = rng.randint(2, 5)
            k = n - 1 if suite == "slope-diff" else rng.randint(1, n - 1)
            pts = list(_rand_distinct_fractions(rng, n + 1))
            rng.shuffle(pts)
            if backend is Backend.FLOAT:
                pts = [float(p) for p in pts]
            degree = rng.randint(0, n + 1)
            f = PowerFn(degree)
            system = polynomial_system(n)
            rep = convexity_identity_loop(system, k, f, tuple(pts))
            ok = rep.residual == 0 if backend is Backend.EXACT \
                else rep.relative_residual <= 1e-8
            detail = {"trial": trial, "n": n, "k": k, "degree": degree,
                      "points": jsonify(pts), "residual": jsonify(rep.residual)}
            if ok and suite == "slope-diff":
                # rhs must equal the difference of the two slope values
                head = tuple(pts[:n - 1])
                dd_hi = divided_difference(system, n, f, head + (pts[n],)).value
                dd_lo = divided_difference(system, n, f, head + (pts[n - 1],)).value
                diff = dd_hi - dd_lo
                res2 = abs(rep.rhs - diff)
                ok = res2 == 0 if backend is Backend.EXACT \
                    else float(res2) <= 1e-8 * max(1.0, abs(float(diff)))
                detail["slope_difference"] = jsonify(diff)
            record(ok, float(rep.residual), rep.relative_residual, detail)
        elif suite == "trig-cot":
            while True:
                x = rng.uniform(-math.pi + 0.05, -0.05)
                y = rng.uniform(-math.pi + 0.05, -0.05)
                if abs(x - y) >= 0.05:
                    break
            lhs = (math.sin(x) - math.sin(y)) / (math.cos(x) - math.cos(y))
            u = (x + y) / 2.0
            rhs = -math.cos(u) / math.sin(u)
            rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
            record(rel <= 1e-12, abs(lhs - rhs), rel,
                   {"trial": trial, "x": x, "y": y, "lhs": lhs, "rhs": rhs})
        else:
            raise InputError(f"unknown suite {suite!r}")

    return {"trials": trials, "failures": failures,
            "max_abs_residual": max_abs, "max_rel_residual": max_rel}


# ---------------------------------------------------------------------------
# evenly spaced points as the package spelled them out before it made a
# backend's scalars from one map, kept unchanged as references: one
# formula for the exact backend and one for the float backend.

def uniform_grid(a, b, m: int, backend: Backend) -> tuple:
    """The points of the grid "uniform:a,b,m" at the parsed endpoints."""
    if backend is Backend.EXACT:
        return tuple(Fraction(a) + (Fraction(b) - Fraction(a)) * Fraction(i, m - 1)
                     for i in range(m))
    return tuple(float(a) + (float(b) - float(a)) * (i / (m - 1)) for i in range(m))


def uniform_partition_points(a, b, m: int, backend: Backend) -> list:
    """The points of the uniform partition of [a, b] into m intervals."""
    if backend is Backend.EXACT:
        lo, hi = Fraction(a), Fraction(b)
        return [lo + (hi - lo) * Fraction(i, m) for i in range(m)] + [hi]
    lo, hi = float(a), float(b)
    return [lo + (hi - lo) * (i / m) for i in range(m)] + [hi]


def default_anchors_formula(system: ChebyshevSystem, a, b,
                            min_gap: float = DEFAULT_MIN_GAP) -> tuple:
    """``variation.default_anchors``: n equally spaced points ending at a
    and starting at b, with spacing min(1/10, margin to the domain
    boundary / n)."""
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


# ---------------------------------------------------------------------------
# the divided-difference ratio as the package took it before exact ratios
# stayed in integers, kept unchanged as a reference: both determinants
# made scalars, then divided.

def ratio_two_fractions(table, k: int, at: tuple, tol_factor: float) -> tuple:
    """divdiff._ratio's value, numerator and denominator at the points
    ``at``, each exact one a Fraction of its own."""
    rows = tuple(range(k))
    forms, backend = table.columns(rows, range(k)), table.backend
    den = _prepared_det(forms, backend is not Backend.FLOAT)
    check_denominator(den, forms, backend, at, tol_factor)
    den = _scalar(den)
    forms = table.columns(rows[:-1] + (k,), range(k))
    num = _scalar(_prepared_det(forms, backend is not Backend.FLOAT))
    return _finite(num / den, "divided difference", at), num, den


# ---------------------------------------------------------------------------
# a jittered partition and a sorted grid as the package made them before
# partitions nested and grids were validated before sorting, kept
# unchanged as references.

def jittered_points(points: tuple, rng: random.Random, backend: Backend) -> list:
    """Each interior point moved by (u - 1/2) * room / 2, room the smaller
    of its two gaps and u uniform in [0, 1)."""
    pts = list(points)
    gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
    for i in range(1, len(pts) - 1):
        room = min(gaps[i - 1], gaps[i])
        if backend is Backend.EXACT:
            u = Fraction(rng.getrandbits(20), 1 << 20)
            pts[i] = pts[i] + (u - Fraction(1, 2)) * room / 2
        else:
            pts[i] = pts[i] + (rng.random() - 0.5) * room / 2
    return pts


def sorted_grid_formula(grid, min_gap: float = 0.0) -> tuple:
    """Sort a grid and validate strict increase (duplicates rejected)."""
    pts = sorted(grid)
    return validate_tuple(pts, OrderingClass.STRICTLY_INCREASING, min_gap=min_gap).points


# ---------------------------------------------------------------------------
# closed forms, kept as oracles: the package computes these values by its
# general routes (induced systems, collocation determinants) and the tests
# compare them with the formulas below.

def power_divdiff_expansion(base, degree: int, x, min_gap: float = DEFAULT_MIN_GAP):
    """Value at ``x`` of the classical divided difference of x**degree
    over the base points with one extra point appended, expanded as a
    polynomial in the extra point:

        sum over a = 0..degree-k of  h[degree-k-a] * x**a

    where h[d] is the complete homogeneous polynomial of the base points
    and k their number.
    """
    pts = validate_tuple(base, OrderingClass.PAIRWISE_DISTINCT, min_gap=min_gap)
    k = len(pts)
    if degree < k:
        raise DimensionMismatch(f"degree {degree} below base size {k}")
    for i, p in enumerate(pts):
        if p == x:
            raise InputError(f"extra point {x} duplicates base point index {i}")
    make = _BACKEND_TYPES[collection_backend(pts.points + (x,), default=Backend.EXACT)]
    xv, total, xpow = make(x), make(0), make(1)
    h = _homogeneous_sums(degree - k, tuple(map(make, pts)))
    for a in range(degree - k + 1):
        total += h[degree - k - a] * xpow
        xpow *= xv
    return total


def trig_induced_closed_form(x1, lo=-math.pi, hi=0) -> ChebyshevSystem:
    """The two-dimensional system (1, -cot((x1 + x)/2)) on the interval
    punctured at x1: the closed form of the system induced from
    (1, cos, sin) by pinning the single base point x1."""
    base_interval = Interval(lo, hi)
    if not base_interval.contains(x1):
        raise InputError(f"base point {x1} is outside the interval ({lo}, {hi})")
    return ChebyshevSystem((ConstFn(1), NegCotFn(x1)),
                           PuncturedInterval(base_interval, (x1,)))


class DuplicatePoint(InputError):
    """A point coincides with one that must stay distinct from it."""


@dataclass(frozen=True)
class SignIndex:
    """Position of an appended point among the base points and the
    predicted sign of the resulting collocation determinant:
    (-1) ** (base size - number of base points below x)."""

    ell: int
    predicted_sign: int


def sign_index(base, x) -> SignIndex:
    """For strictly increasing base points and x distinct from all of
    them: ell = how many base points lie below x, and the sign that a
    positive (k+1)-dimensional system's determinant takes on
    (base..., x)."""
    base = _increasing(base)
    scalar_backend(x)
    for i, p in enumerate(base):
        if p == x:
            raise DuplicatePoint(f"x={x} coincides with base point index {i}")
    ell = sum(1 for p in base if p < x)
    return SignIndex(ell, (-1) ** (len(base) - ell))


# ---------------------------------------------------------------------------
# the CLI's readers, sorted grids and restricted grids as the package had
# them before grids held their points by position, kept unchanged as
# references: one scalar per item, a grid a tuple of scalars, every
# comparison and selection by value.

#: A plain decimal literal [-]digits[.digits], in ASCII digits only.
_DECIMAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]+))?").fullmatch


def parse_scalar(text: str, backend: Backend):
    text = text.strip()
    if backend is Backend.EXACT:
        decimal = _DECIMAL(text)
        if decimal:     # Fraction(text)'s value, read without its parser
            whole, frac = decimal.groups(default="")
            try:
                return Fraction(int(whole + frac), 10 ** len(frac))
            except ValueError:      # past int's digit limit: Fraction(text) says why
                pass
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad exact scalar {text!r}: {exc}") from None
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(f"bad float scalar {text!r}: {exc}") from None


def read_scalars(items, backend: Backend, header: bool = False) -> tuple:
    """The scalars of ``backend`` that ``items`` spell, as strings or as
    JSON numbers (read as their decimal literals).  With ``header``,
    items that do not read before the first one that does are a header,
    and skipped."""
    out = []
    for item in items:
        try:
            out.append(parse_scalar(str(item), backend))
        except InputError:
            if out or not header:
                raise
    return tuple(out)


def parse_grid(spec: str, backend: Backend) -> tuple:
    if spec is None:
        raise InputError("--grid is required")
    if spec.startswith("uniform:"):
        try:
            a_s, b_s, m_s = spec[len("uniform:"):].split(",")
            a = parse_scalar(a_s, backend)
            b = parse_scalar(b_s, backend)
            m = int(m_s)
        except (ValueError, InputError) as exc:
            raise InputError(f"bad uniform grid {spec!r}: {exc}") from None
        if m < 2 or not a < b:
            raise InputError(f"uniform grid needs a < b and m >= 2, got {spec!r}")
        make = _BACKEND_TYPES[backend]
        return tuple(a + (b - a) * (make(i) / (m - 1)) for i in range(m))
    if spec.startswith("list:"):
        return read_scalars(spec[len("list:"):].split(","), backend)
    if os.path.exists(spec):
        if spec.endswith(".csv"):
            with open(spec, newline="") as fh:
                firsts = (row[0] for row in csv.reader(fh) if row and row[0].strip())
                try:
                    return read_scalars(firsts, backend, header=True)
                except csv.Error as exc:
                    raise InputError(f"bad CSV file {spec!r}: {exc}") from None
        with open(spec) as fh:
            data = json.load(fh, parse_float=str)
        if not isinstance(data, list):
            raise InputError(f"grid JSON must be a list, got {type(data).__name__}")
        # a JSON number is read as its literal, as a list: item is
        return read_scalars(data, backend)
    raise InputError(f"grid {spec!r} is neither a file nor uniform:a,b,m nor list:v1,v2,...")


def sorted_grid(grid, min_gap: float = 0.0) -> tuple:
    """Sort a grid and validate strict increase (duplicates rejected); a
    grid that passes as given is sorted already."""
    pts = tuple(grid)
    try:
        return validate_tuple(pts, OrderingClass.STRICTLY_INCREASING, min_gap=min_gap).points
    except ChebconvexError:
        return validate_tuple(sorted(pts), OrderingClass.STRICTLY_INCREASING,
                              min_gap=min_gap).points


def restricted_points(pts: tuple, base: tuple, ell: int | None) -> tuple:
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


# ---------------------------------------------------------------------------
# the two point types the package kept before a validated tuple became
# the grid its tables read, kept unchanged as references: a free tuple
# that checks its ordering after reading its backend, and a grid that
# reads its backend again and holds exact points as integers over one
# scale.

def check_ordering(points: tuple, ordering: OrderingClass) -> Backend | None:
    """Check ``points`` against ``ordering``; their backend, read first."""
    backend = collection_backend(points)
    if ordering is OrderingClass.STRICTLY_INCREASING:
        for i in range(len(points) - 1):
            if not points[i] < points[i + 1]:
                raise OrderingViolation(i, i + 1,
                                        f"points[{i}]={points[i]} !< points[{i + 1}]={points[i + 1]}")
    elif ordering is OrderingClass.PAIRWISE_DISTINCT:
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if points[i] == points[j]:
                    raise OrderingViolation(i, j,
                                            f"points[{i}] == points[{j}] == {points[i]}")
    return backend


@dataclass(frozen=True)
class OraclePointTuple:
    """An ordered tuple of domain points with a validated ordering class."""

    points: tuple
    ordering: OrderingClass = OrderingClass.UNCONSTRAINED

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "_backend", check_ordering(self.points, self.ordering))

    def backend(self) -> Backend | None:
        return self._backend


class OracleGrid:
    """Points by position and their one ``backend``, read when the grid
    is made; an exact grid over one scale holds the integers ``nums``
    over ``q`` and makes point j's Fraction only when asked for it."""

    def __init__(self, xs=(), nums=None, q: int = 1):
        self._xs = list(xs) if nums is None else [None] * len(nums)
        self.nums, self.q = nums, q
        self.backend = Backend.EXACT if nums is not None else collection_backend(self._xs)

    def __len__(self) -> int:
        return len(self._xs)

    def __getitem__(self, j: int):
        x = self._xs[j]
        if x is None and self.nums is not None:
            x = self._xs[j] = Fraction(self.nums[j], self.q)
        return x

    def pq(self, j: int) -> tuple:
        return (self.nums[j], self.q) if self.nums is not None else self._xs[j].as_integer_ratio()

    @property
    def spaced(self) -> bool:
        xs = sorted(self._xs if self.nums is None else self.nums)
        if self.backend is not Backend.FLOAT:
            return all(a != b for a, b in zip(xs, xs[1:]))
        try:
            return all(b - a >= DEFAULT_MIN_GAP for a, b in zip(xs, xs[1:]))
        except OverflowError:
            return False
