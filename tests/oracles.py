"""Independent oracles for the test suite.

Everything here is implemented by a different algorithm than the
package uses, so matching values certify both sides:

* Laplace cofactor expansion vs elimination (``cofactor_det``);
* row-wise vs column-step elimination (``row_det``);
* monomial enumeration vs accumulation (``homogeneous_by_enumeration``);
* unsorted two-ended recursion vs the Newton table (``recursive_divdiff``);
* one row-wise determinant per tuple vs prefix-shared elimination
  (``positivity_loop``, ``direct_loop``);
* two fresh determinants per derived value (DerivedFn) vs pinned bases
  eliminated once (``pinned_loop``);
* one divided_difference per window vs one point table per call
  (``variation_loop``);
* one fresh collocation determinant per minor and one divided_difference
  or DerivedFn value per cell vs one pinned base per check
  (``induced_identity_loop``, ``convexity_identity_loop``, and
  ``identity_suite_loop``, the identity suites as the CLI ran them).
"""

import itertools
import math
import random
from fractions import Fraction

from chebconvex.cli import _jsonify
from chebconvex.convexity import (
    DEFAULT_BASE_BUDGET,
    ConvexityVerdict,
    _restricted_points,
)
from chebconvex.core import (
    DEFAULT_MIN_GAP,
    Backend,
    ChebyshevSystem,
    FunctionSpec,
    OrderingClass,
    PointTuple,
    PowerFn,
    validate_tuple,
)
from chebconvex.determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    Matrix,
    PositivityReport,
    check_denominator,
    collocation_det,
    collocation_matrix,
    det,
    increasing_tuples,
    is_positive_chebyshev,
    matrix_from_rows,
    sorted_grid,
    sylvester_check,
)
from chebconvex.divdiff import ResidualReport, divided_difference, power_divdiff_check
from chebconvex.errors import (
    DimensionMismatch,
    EvaluationOutsideSupport,
    InputError,
    InsufficientGrid,
)
from chebconvex.induced import InducedCheckReport, induced_system
from chebconvex.systems import polynomial_system


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


# ---------------------------------------------------------------------------
# the identity checks and suites as the package ran them before they read
# pinned bases, kept unchanged as references.  Every (k+1)-minor, every
# extended determinant and every right-hand cell is its own fresh
# collocation determinant or divided_difference; induced values go
# through DerivedFn.

def induced_identity_loop(parent: ChebyshevSystem, k: int, base, grid,
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

    kminor = collocation_det(system, k, head)
    lhs = det(collocation_matrix(system.basis + (f,), pts)) * kminor ** (n - k)
    for x in tail:
        den_matrix = collocation_matrix(system.basis[:k + 1], head + (x,))
        denom = det(den_matrix)
        check_denominator(denom, den_matrix.entries, den_matrix.backend(), head + (x,),
                          name="(k+1)-prefix determinant", show_value=False)
        lhs = lhs / denom

    targets = system.basis[k:] + (f,)
    rows = [[divided_difference(system, k + 1, target, head + (x,)).value
             for x in tail] for target in targets]
    rhs = det(matrix_from_rows(rows))
    return ResidualReport(lhs, rhs, abs(lhs - rhs))


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_matrix(rng: random.Random, n: int, backend: Backend) -> Matrix:
    if backend is Backend.EXACT:
        return matrix_from_rows([[_rand_fraction(rng) for _ in range(n)]
                                 for _ in range(n)])
    return matrix_from_rows([[rng.uniform(-1.0, 1.0) for _ in range(n)]
                             for _ in range(n)])


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
            rep = sylvester_check(_rand_matrix(rng, n, backend), k)
            abs_res = float(rep.residual)
            rel_res = rep.relative_residual
            ok = rep.residual == 0 if backend is Backend.EXACT else rel_res <= 1e-9
            record(ok, abs_res, rel_res, {"trial": trial, "n": n, "k": k,
                                          "residual": _jsonify(rep.residual)})
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
                   {"trial": trial, "degree": degree, "points": _jsonify(pts),
                    "residual": _jsonify(rep.residual)})
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
                   {"trial": trial, "n": n, "k": k, "base": _jsonify(pts[:k])})
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
                      "points": _jsonify(pts), "residual": _jsonify(rep.residual)}
            if ok and suite == "slope-diff":
                # rhs must equal the difference of the two slope values
                head = tuple(pts[:n - 1])
                dd_hi = divided_difference(system, n, f, head + (pts[n],)).value
                dd_lo = divided_difference(system, n, f, head + (pts[n - 1],)).value
                diff = dd_hi - dd_lo
                res2 = abs(rep.rhs - diff)
                ok = res2 == 0 if backend is Backend.EXACT \
                    else float(res2) <= 1e-8 * max(1.0, abs(float(diff)))
                detail["slope_difference"] = _jsonify(diff)
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
