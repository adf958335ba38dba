"""Independent oracles for the test suite.

Everything here is implemented by a different algorithm than the
package uses (Laplace cofactor expansion vs elimination, monomial
enumeration vs accumulation, unsorted two-ended recursion vs the Newton
table, row-wise vs column-step elimination, one row-wise determinant
per tuple vs prefix-shared elimination, two fresh determinants per
derived value vs bases eliminated once, one divided_difference per
window vs one point table per partition), so matching values certify
both sides.
"""

import itertools
import math
import random
from fractions import Fraction

from chebconvex.convexity import (
    DEFAULT_BASE_BUDGET,
    ConvexityVerdict,
    _restricted_points,
)
from chebconvex.core import DEFAULT_MIN_GAP, Backend, OrderingClass, validate_tuple
from chebconvex.determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    PositivityReport,
    collocation_matrix,
    increasing_tuples,
    sorted_grid,
)
from chebconvex.divdiff import divided_difference
from chebconvex.errors import (
    DimensionMismatch,
    EvaluationOutsideSupport,
    InputError,
    InsufficientGrid,
)
from chebconvex.induced import induced_system


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

def row_det(m):
    """det of the Matrix ``m`` by the row-wise elimination below."""
    rows = [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]
    return _det_float(rows) if m.backend() is Backend.FLOAT else _det_exact(rows)


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
# per-tuple sign scans: the loops the package ran before its scan kernel,
# kept unchanged as references.  Each tuple builds its own matrix,
# evaluates every entry and takes a pivoted determinant.

def positivity_tolerance(m, tol_factor):
    """tol_factor * (max |entry|)**n for the n x n Matrix ``m``."""
    return tol_factor * max(abs(float(e)) for e in m.entries) ** m.rows


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
        m = collocation_matrix(fns, t)
        value = row_det(m)
        if m.backend() is Backend.FLOAT:
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
        m = collocation_matrix(fns, t)
        value = row_det(m)
        if m.backend() is Backend.FLOAT:
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


# ---------------------------------------------------------------------------
# per-base pinned checks: the loop the package ran before its derived
# tables, kept unchanged as a reference.  Each base builds its induced
# system and runs a direct check of the derived function, whose every
# value is a divided difference of two fresh determinants (DerivedFn).
# The direct check is direct_loop: like the package's per-base scans,
# and unlike check_convex_direct, it puts no minimum gap between the
# grid points themselves (DerivedFn checks each point against the base).

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
        local = _restricted_points(pts, base, ell)
        if len(local) < n - k + 1:
            bases_skipped += 1
            continue
        bases_checked += 1
        ind = induced_system(system, k, validate_tuple(base, OrderingClass.STRICTLY_INCREASING,
                                                       min_gap=0.0))
        inner = direct_loop(ind.as_system(), ind.derived(f), local,
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

def variation_loop(system, f, partition, min_gap=DEFAULT_MIN_GAP,
                   tol_factor=DEFAULT_TOL_FACTOR):
    """Sum over consecutive n-point windows of the partition of the
    absolute difference of neighbouring divided differences."""
    n = system.dim
    pts = partition.points.points
    m = len(pts) - 1
    if m < n:
        raise DimensionMismatch(
            f"partition has {m} intervals, need at least {n} for dimension {n}")
    window_values = [
        divided_difference(system, n, f, pts[i:i + n],
                           min_gap=min_gap, tol_factor=tol_factor).value
        for i in range(m - n + 2)]
    total = window_values[0] - window_values[0]  # zero of the right backend
    for i in range(m - n + 1):
        total += abs(window_values[i + 1] - window_values[i])
    return total
