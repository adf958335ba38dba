"""Square determinants with dual backends, collocation determinants of
Chebyshev systems, grid positivity verdicts, and the Sylvester
determinant identity.

Exact determinants clear row denominators and run fraction-free
(Bareiss) elimination over the integers, which keeps intermediate
entries polynomially sized.  Float determinants use row-pivoted
Gaussian elimination.  Grid scans evaluate each function once per grid
point and share elimination between tuples with a common prefix.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    Backend,
    ChebyshevSystem,
    FunctionSpec,
    OrderingClass,
    PointTuple,
    Scalar,
    collection_backend,
    combine_backends,
    evaluate,
    validate_tuple,
)
from .errors import (
    DimensionMismatch,
    EvaluationOutsideSupport,
    IndexOutOfRange,
    InputError,
    InsufficientGrid,
    NonFiniteValue,
    NonSquareMatrix,
)

#: Default scale factor of the positivity tolerance: a float determinant
#: counts as positive only above ``tol_factor * (max |entry|) ** n``.
DEFAULT_TOL_FACTOR = 1e-10

#: Default number of tuples enumerated exhaustively before the checker
#: switches to seeded random sampling.
DEFAULT_TUPLE_BUDGET = 200_000

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Matrix:
    """A dense row-major matrix whose entries share one backend."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.rows <= 0 or self.cols <= 0:
            raise InputError(f"matrix dimensions must be positive: {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}")
        collection_backend(self.entries)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    def backend(self, default: Backend = Backend.EXACT) -> Backend:
        return collection_backend(self.entries, default=default)


def matrix_from_rows(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    rows = [list(r) for r in rows]
    if not rows:
        raise InputError("matrix needs at least one row")
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise InputError("ragged rows in matrix")
    return Matrix(len(rows), ncols, tuple(itertools.chain.from_iterable(rows)))


# ---------------------------------------------------------------------------
# determinants

def det(m: Matrix) -> Scalar:
    """Determinant of a square matrix.

    Exact backend: fraction-free elimination over the integers after
    clearing denominators row by row, so the result is exact.  Float
    backend: Gaussian elimination with partial pivoting.
    """
    if m.rows != m.cols:
        raise NonSquareMatrix(f"determinant of a {m.rows}x{m.cols} matrix")
    if m.backend() is Backend.FLOAT:
        return _det_float(m.row_lists())
    return _det_exact(m.row_lists())


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
# collocation determinants

def collocation_matrix(fns: Sequence[FunctionSpec], points: Sequence[Scalar]) -> Matrix:
    """The square matrix with entry (i, j) = fns[i](points[j])."""
    if len(fns) != len(points):
        raise DimensionMismatch(
            f"{len(fns)} functions vs {len(points)} points")
    rows = [[evaluate(fn, x) for x in points] for fn in fns]
    return matrix_from_rows(rows)


def collocation_det(system: ChebyshevSystem, k: int, points: PointTuple | Sequence[Scalar]) -> Scalar:
    """Collocation determinant det(basis_i(x_j)) of the k-prefix of the
    system at the given k points (checked to lie in the domain)."""
    pts = tuple(points)
    if not 1 <= k <= system.dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{system.dim}")
    if len(pts) != k:
        raise DimensionMismatch(f"need {k} points, got {len(pts)}")
    for x in pts:
        if not system.domain.contains(x):
            raise EvaluationOutsideSupport(f"point {x} is outside the system domain")
    return det(collocation_matrix(system.basis[:k], pts))


def positivity_tolerance(m: Matrix, tol_factor: float = DEFAULT_TOL_FACTOR) -> float:
    """Tolerance below which a float determinant is indistinguishable
    from zero: tol_factor * (max |entry|)**n."""
    return _tolerance(max(abs(float(e)) for e in m.entries), m.rows, tol_factor)


def _tolerance(biggest: float, n: int, tol_factor: float) -> float:
    return tol_factor * biggest ** n


# ---------------------------------------------------------------------------
# tuple enumeration with a deterministic budget policy

def increasing_tuples(sorted_points: Sequence[Scalar], k: int,
                      budget: int = DEFAULT_TUPLE_BUDGET,
                      seed: int = DEFAULT_SEED) -> tuple[list[tuple], bool]:
    """Strictly increasing k-tuples drawn from sorted grid points.

    Enumerates exhaustively while the total count fits the budget,
    otherwise samples ``budget`` tuples uniformly with the given seed.
    Returns (tuples, exhaustive flag).
    """
    n = len(sorted_points)
    if k > n:
        raise InsufficientGrid(f"grid of {n} points cannot supply {k}-tuples")
    if math.comb(n, k) <= budget:
        return [tuple(c) for c in itertools.combinations(sorted_points, k)], True
    return [tuple(sorted_points[i] for i in t)
            for t in _sampled_index_tuples(n, k, budget, seed)], False


def _sampled_index_tuples(n: int, k: int, budget: int, seed: int) -> list[tuple]:
    """``budget`` sorted k-subsets of range(n), duplicates possible.
    ``random.sample`` picks positions from the population's length
    alone, so these index the same tuples as sampling the sorted points
    themselves."""
    rng = random.Random(seed)
    return [tuple(sorted(rng.sample(range(n), k))) for _ in range(budget)]


def sorted_grid(grid: Iterable[Scalar], min_gap: float = 0.0) -> tuple:
    """Sort a grid and validate strict increase (duplicates rejected)."""
    pts = sorted(grid)
    return validate_tuple(pts, OrderingClass.STRICTLY_INCREASING, min_gap=min_gap).points


# ---------------------------------------------------------------------------
# the sign scan behind grid positivity and every convexity mode
#
# A scan reads its columns from a table filled once per grid point it
# touches.  An exhaustive scan then walks the increasing tuples depth
# first in lexicographic order and eliminates one tuple point (one
# matrix column) per level, so all extensions of a prefix share its
# elimination.  The float walk replays the row swaps, multipliers and
# pivot products of _det_float column by column, so its determinants
# are bit-identical to per-tuple elimination; the exact walk runs
# Bareiss on integer columns.  A sampled scan eliminates each sampled
# tuple from the table.

_NEAR_ZERO, _VIOLATION = "indeterminate", "violated"


@dataclass(frozen=True)
class SignScan:
    """Outcome of one sign scan.  ``verdict`` is "violated" or
    "indeterminate", with the lexicographically smallest such tuple as
    witness, or ``None`` when every tuple passed."""

    tuples_checked: int
    exhaustive: bool
    verdict: str | None = None
    witness: tuple | None = None
    witness_value: Scalar | None = None
    indeterminate_count: int = 0


class _Tally:
    """Smallest violating and near-zero index tuples of the grid ``pts``
    with their values, and the number of near-zero tuples."""

    def __init__(self, positive: bool, pts: tuple, tol_factor: float):
        self.positive = positive
        self.pts = pts
        self.tol_factor = tol_factor
        self.first: dict[str, tuple] = {}
        self.near_zero = 0

    def add(self, t: tuple, value: Scalar, biggest: float | None = None) -> None:
        """The sign rule of every scan.  ``positive`` asks for value > 0:
        a value at most -tol is a violation, one at most tol near zero.
        Otherwise value >= 0 is asked: below -tol is a violation, below 0
        near zero.  A float value gets tol from ``biggest``, the largest
        |entry| of its matrix; an exact one has tol = 0, so nothing is
        near zero."""
        tol = 0
        if isinstance(value, float):
            if not math.isfinite(value):
                raise NonFiniteValue(
                    f"determinant {value} at {tuple(self.pts[j] for j in t)}")
            tol = _tolerance(biggest, len(t), self.tol_factor)
        if self.positive:
            kind = _VIOLATION if value <= -tol else _NEAR_ZERO if value <= tol else None
        else:
            kind = _VIOLATION if value < -tol else _NEAR_ZERO if value < 0 else None
        if kind is None:
            return
        if kind is _NEAR_ZERO:
            self.near_zero += 1
        best = self.first.get(kind)
        if best is None or t < best[0]:
            self.first[kind] = (t, value)


def _sign_scan(table, n: int, pts: tuple, budget: int, seed: int,
               tol_factor: float, positive: bool) -> SignScan:
    """Classify the n x n determinants of the columns ``table`` gives
    for the increasing n-tuples of the sorted grid ``pts`` (exhaustive
    within ``budget``, else ``budget`` seeded samples) by the rule of
    :meth:`_Tally.add`.  ``table(touched)`` returns the columns and
    their backends at the point indices in ``touched``, as
    :func:`_tabulate` does."""
    m = len(pts)
    exhaustive = math.comb(m, n) <= budget
    if exhaustive:
        tuples = itertools.combinations(range(m), n)
        checked = math.comb(m, n)
        cols, backends = table([range(n)] + [(j,) for j in range(n, m)])
    else:
        tuples = _sampled_index_tuples(m, n, budget, seed)
        checked = len(tuples)
        cols, backends = table(tuples)
    used = set(backends.values()) - {None}
    tally = _Tally(positive, pts, tol_factor)
    scale = None
    if not exhaustive or len(used) > 1:
        # Every tuple takes its own backend, so one that mixes exact and
        # float points raises as det would, and one that does not passes.
        _scan_each(cols, backends, tuples, tally)
    elif used == {Backend.FLOAT}:
        _walk_float([cols[j] for j in range(m)], n, tally)
    else:
        scale = _walk_exact([cols[j] for j in range(m)], n, tally)

    for verdict in (_VIOLATION, _NEAR_ZERO):
        if verdict in tally.first:
            t, value = tally.first[verdict]
            if scale is not None:
                value = Fraction(value, math.prod(scale[j] for j in t))
            return SignScan(checked, exhaustive, verdict, tuple(pts[j] for j in t),
                            value, tally.near_zero)
    return SignScan(checked, exhaustive)


def _tabulate(value, rows, pts: tuple, touched) -> tuple[dict, dict]:
    """Columns [value(r, pts[j]) for r in rows] for every point index in
    ``touched``, computed once each, and the backend of each column
    (``value`` is :func:`evaluate` for rows of functions).  Points are
    taken group by group and row by row within a group, the order in
    which a scan that builds each tuple's matrix first meets them, so
    the first failing evaluation is the same."""
    cols: dict[int, list] = {}
    backends: dict[int, Backend | None] = {}
    for group in touched:
        new = [j for j in group if j not in cols]
        if not new:
            continue
        entries = [[value(r, pts[j]) for j in new] for r in rows]
        for pos, j in enumerate(new):
            col = [row[pos] for row in entries]
            backends[j] = collection_backend(col)
            if backends[j] is Backend.FLOAT:
                for v in col:
                    if not math.isfinite(v):
                        raise NonFiniteValue(f"function value {v} at grid point {pts[j]}")
            cols[j] = col
    return cols, backends


def _scan_each(cols: dict, backends: dict, tuples, tally: _Tally) -> None:
    """Per-tuple elimination from the table, in tuple order."""
    for t in tuples:
        rows = [[cols[j][i] for j in t] for i in range(len(t))]
        if combine_backends(*(backends[j] for j in t)) is Backend.FLOAT:
            biggest = max(abs(float(v)) for j in t for v in cols[j])
            tally.add(t, _det_float(rows), biggest)
        else:
            tally.add(t, _det_exact(rows))


def _float_pivot(result: float, c: list, d: int):
    """Level d of _det_float on the reduced column ``c``: the row p of
    the largest |c[r]|, r >= d (the first on ties).  Returns ``None``
    when c[p] is zero, else the pivot product ``result`` times c[p],
    negated on a row swap, and the step that reduces any column of the
    same matrix (see :func:`_float_reduce`)."""
    n = len(c)
    p, best = d, abs(c[d])
    for r in range(d + 1, n):
        if abs(c[r]) > best:
            p, best = r, abs(c[r])
    if c[p] == 0.0:
        return None
    pivot = c[p]
    pivot_col = c[:]
    pivot_col[d], pivot_col[p] = pivot, c[d]
    factors = [(i, pivot_col[i] / pivot) for i in range(d + 1, n)]
    return (-result if p != d else result) * pivot, (d, p, factors)


def _float_reduce(cands: list, step) -> list:
    """The (index, column) pairs ``cands`` after one step of
    :func:`_float_pivot`: rows d and p swapped, then rows below d less
    their multiple of row d."""
    d, p, factors = step
    out = []
    for j, c in cands:
        r = c[:]
        r[d], r[p] = r[p], r[d]
        rd = r[d]
        for i, factor in factors:
            r[i] -= factor * rd
        out.append((j, r))
    return out


def _float_last(result: float, v: float) -> float:
    """_det_float's last level: the pivot product times the last reduced
    entry, or 0.0 when that entry is zero."""
    return result * v if v != 0.0 else 0.0


def _exact_pivot(state: tuple, c: list, d: int):
    """Level d of Bareiss elimination on the reduced integer column
    ``c``; ``state`` is (swap sign, previous pivot).  Returns ``None``
    when c[d:] is zero, else the new state and the step that reduces any
    column of the same matrix (see :func:`_exact_reduce`)."""
    sign, prev = state
    n = len(c)
    p = next((r for r in range(d, n) if c[r]), None)
    if p is None:
        return None
    pivot = c[p]
    pivot_col = c[:]
    pivot_col[d], pivot_col[p] = pivot, c[d]
    below = [(i, pivot_col[i]) for i in range(d + 1, n)]
    return (-sign if p != d else sign, pivot), (d, p, pivot, prev, below)


def _exact_reduce(cands: list, step) -> list:
    """The (index, column) pairs ``cands`` after one step of
    :func:`_exact_pivot`."""
    d, p, pivot, prev, below = step
    out = []
    for j, c in cands:
        r = c[:]
        r[d], r[p] = r[p], r[d]
        rd = r[d]
        for i, a in below:
            # Bareiss step: the division by the previous pivot is exact.
            r[i] = (pivot * r[i] - a * rd) // prev
        out.append((j, r))
    return out


def _integer_column(c) -> tuple[list, int]:
    """The exact column ``c`` (of Fractions and ints) times the lcm of
    its denominators, and that lcm."""
    lcm = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (lcm // x.denominator) for x in c], lcm


def _walk(cols: list, n: int, root, pivot, reduce, leaf, zero, tally: _Tally) -> None:
    """Depth-first walk over the increasing n-tuples of column indices
    in lexicographic order.  Level d eliminates the tuple's d-th column:
    ``pivot(state, j, c, d)`` pivots on column j (``c``, already reduced
    by the prefix) and returns the new state and the step that
    ``reduce(rest, step)`` applies to the later (index, column) pairs,
    or ``None`` when the pivot column is zero, which makes every
    extension's determinant zero.  ``leaf(state, j, v)`` turns the last
    reduced entry into the arguments of :meth:`_Tally.add` after the
    tuple, ``zero(t)`` gives them for a zero determinant."""
    last = n - 1

    def visit(d, prefix, state, cands):
        for pos in range(len(cands) - (last - d)):
            j, c = cands[pos]
            t = prefix + (j,)
            if d == last:
                tally.add(t, *leaf(state, j, c[last]))
                continue
            rest = cands[pos + 1:]
            pivoted = pivot(state, j, c, d)
            if pivoted is None:
                for tail in itertools.combinations(rest, last - d):
                    u = t + tuple(i for i, _ in tail)
                    tally.add(u, *zero(u))
                continue
            child, step = pivoted
            visit(d + 1, t, child, reduce(rest, step))

    visit(0, (), root, list(enumerate(cols)))


def _walk_float(cols: list, n: int, tally: _Tally) -> None:
    """_det_float's partial pivoting replayed one column at a time.  The
    state is (running pivot product with swap signs, max |entry| of the
    prefix's columns)."""
    cols = [[float(v) for v in c] for c in cols]
    colmax = [max(abs(v) for v in c) for c in cols]

    def pivot(state, j, c, d):
        result, biggest = state
        pivoted = _float_pivot(result, c, d)
        if pivoted is None:
            return None
        return (pivoted[0], max(biggest, colmax[j])), pivoted[1]

    def leaf(state, j, v):
        result, biggest = state
        return _float_last(result, v), max(biggest, colmax[j])

    def zero(t):
        return 0.0, max(colmax[j] for j in t)

    _walk(cols, n, (1.0, 0.0), pivot, _float_reduce, leaf, zero, tally)


def _walk_exact(cols: list, n: int, tally: _Tally) -> list:
    """Bareiss elimination one column at a time.  Each column is scaled
    to integers by the lcm of its denominators, so the walk records
    integer determinants of the scaled matrix, which carry the sign;
    returns the column scales."""
    ints, scale = zip(*map(_integer_column, cols))
    _walk(list(ints), n, (1, 1), lambda state, j, c, d: _exact_pivot(state, c, d),
          _exact_reduce, lambda state, j, v: (state[0] * v,), lambda t: (0,), tally)
    return list(scale)


def _appended_det(base_cols: list, exact: bool):
    """The function col -> det[base_cols..., col] over square matrices
    that share their first columns.  Those are eliminated once, as one
    path of :func:`_walk` eliminates them; each ``col`` is then reduced
    by the recorded steps.  Float: the value _det_float gives, bit for
    bit.  Exact: the Fraction, from Bareiss on integer-scaled columns."""
    if exact:
        ints, scales = zip(*map(_integer_column, base_cols))
        cols, state, pivot, reduce = list(ints), (1, 1), _exact_pivot, _exact_reduce
        base_scale = math.prod(scales)
    else:
        cols = [[float(v) for v in c] for c in base_cols]
        state, pivot, reduce = 1.0, _float_pivot, _float_reduce
    steps, rest = [], list(enumerate(cols))
    for d in range(len(cols)):
        (_, c), rest = rest[0], rest[1:]
        pivoted = pivot(state, c, d)
        if pivoted is None:         # a zero pivot column: every det is zero
            return lambda col: Fraction(0) if exact else 0.0
        state, step = pivoted
        steps.append(step)
        rest = reduce(rest, step)

    def det(col):
        c, scale = _integer_column(col) if exact else ([float(v) for v in col], 1)
        last = [(None, c)]
        for step in steps:
            last = reduce(last, step)
        v = last[0][1][-1]
        if exact:
            return Fraction(state[0] * v, base_scale * scale)
        return _float_last(state, v)
    return det


# ---------------------------------------------------------------------------
# grid positivity verdicts

@dataclass(frozen=True)
class PositivityReport:
    """Outcome of checking a collocation determinant for positivity over
    all sampled strictly increasing tuples of a grid."""

    verdict: str                      # "positive_on_grid" | "violated" | "indeterminate"
    k: int
    tuples_checked: int
    exhaustive: bool
    seed: int
    witness: tuple | None = None      # lexicographically smallest offending tuple
    witness_value: Scalar | None = None
    indeterminate_count: int = 0

    @property
    def is_positive(self) -> bool:
        return self.verdict == "positive_on_grid"


def is_positive_chebyshev(system: ChebyshevSystem, k: int, grid: Iterable[Scalar],
                          budget: int = DEFAULT_TUPLE_BUDGET,
                          seed: int = DEFAULT_SEED,
                          tol_factor: float = DEFAULT_TOL_FACTOR) -> PositivityReport:
    """Check that the k-prefix collocation determinant is strictly
    positive on every sampled increasing k-tuple of the grid.

    Exact backend: any value <= 0 is a violation.  Float backend: values
    at most -tol are violations and values in (-tol, tol] are recorded
    as indeterminate, with tol from :func:`positivity_tolerance`.
    Raises :class:`NonFiniteValue` on an infinite or NaN value.
    """
    pts = sorted_grid(grid)
    if len(pts) < k:
        raise InsufficientGrid(f"grid has {len(pts)} points, need at least {k}")
    for x in pts:
        if not system.domain.contains(x):
            raise EvaluationOutsideSupport(f"grid point {x} is outside the system domain")
    if not 1 <= k <= system.dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{system.dim}")

    scan = _sign_scan(partial(_tabulate, evaluate, system.basis[:k], pts), k, pts,
                      budget, seed, tol_factor, positive=True)
    return PositivityReport(scan.verdict or "positive_on_grid", k, scan.tuples_checked,
                            scan.exhaustive, seed, scan.witness, scan.witness_value,
                            scan.indeterminate_count)


# ---------------------------------------------------------------------------
# Sylvester's determinant identity

def bordered_minor(a: Matrix, k: int, i: int, j: int) -> Scalar:
    """det of the (k+1)x(k+1) submatrix of ``a`` on rows {1..k, i} and
    columns {1..k, j}; indices are 1-based and k+1 <= i, j <= n."""
    if a.rows != a.cols:
        raise NonSquareMatrix(f"{a.rows}x{a.cols} matrix in bordered minor")
    n = a.rows
    if not 1 <= k <= n - 1:
        raise IndexOutOfRange(f"k={k} outside 1..{n - 1}")
    if not (k + 1 <= i <= n and k + 1 <= j <= n):
        raise IndexOutOfRange(f"(i, j)=({i}, {j}) outside {k + 1}..{n}")
    rows = list(range(k)) + [i - 1]
    cols = list(range(k)) + [j - 1]
    sub = [[a[r, c] for c in cols] for r in rows]
    return det(matrix_from_rows(sub))


@dataclass(frozen=True)
class SylvesterReport:
    """Both sides of Sylvester's determinant identity for one (A, k)."""

    n: int
    k: int
    lhs: Scalar        # det of the matrix of bordered minors
    rhs: Scalar        # (leading k-minor) ** (n-k-1) * det(A)
    residual: Scalar   # |lhs - rhs|; exactly zero on the exact backend

    @property
    def relative_residual(self) -> float:
        denom = max(1.0, abs(float(self.lhs)), abs(float(self.rhs)))
        return float(self.residual) / denom


def sylvester_check(a: Matrix, k: int) -> SylvesterReport:
    """Verify det(B_k) == (det A_k)**(n-k-1) * det(A) where B_k collects
    the bordered minors of the leading k x k block.

    Both sides are computed directly; no division is performed, so a
    singular leading block is handled like any other matrix.
    """
    if a.rows != a.cols:
        raise NonSquareMatrix(f"{a.rows}x{a.cols} matrix in Sylvester check")
    n = a.rows
    if not 1 <= k <= n - 1:
        raise IndexOutOfRange(f"k={k} outside 1..{n - 1}")
    b = [[bordered_minor(a, k, i, j) for j in range(k + 1, n + 1)]
         for i in range(k + 1, n + 1)]
    lhs = det(matrix_from_rows(b))
    leading = det(matrix_from_rows([[a[r, c] for c in range(k)] for r in range(k)]))
    rhs = leading ** (n - k - 1) * det(a)
    return SylvesterReport(n, k, lhs, rhs, abs(lhs - rhs))
