"""Square determinants with dual backends, collocation determinants of
Chebyshev systems, grid positivity verdicts, and the Sylvester
determinant identity.

Every determinant is one column-step elimination.  Exact determinants
clear column denominators and run fraction-free (Bareiss) elimination
over the integers, which keeps intermediate entries polynomially sized.
Float determinants use Gaussian elimination with partial pivoting.
Every collocation determinant (grid scans, pinned bases, divided
differences, variation windows and collocation_det) reads one point
table, which evaluates each function once per point, resolves each
backend once and builds columns of polynomials with exact coefficients
from an exact point's integers, and grid scans share the elimination
steps of a common tuple prefix.
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    AffineFn,
    Backend,
    ChebyshevSystem,
    ConstFn,
    FunctionSpec,
    OrderingClass,
    PointTuple,
    PowerFn,
    Scalar,
    _check_domain,
    collection_backend,
    combine_backends,
    evaluate,   # unused here; bench/test_bench.py checks that the tracer wraps it here
    scalar_backend,
    validate_tuple,
)
from .errors import (
    ChebconvexError,
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    InsufficientGrid,
    NonFiniteValue,
    NonSquareMatrix,
    SingularDenominator,
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
    _backend: Backend | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.rows <= 0 or self.cols <= 0:
            raise InputError(f"matrix dimensions must be positive: {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise InputError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}")
        object.__setattr__(self, "_backend", collection_backend(self.entries))

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i * self.cols + j]

    def backend(self, default: Backend = Backend.EXACT) -> Backend:
        return default if self._backend is None else self._backend


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
    """Determinant of a square matrix, by the column-step elimination
    below.

    Exact backend: fraction-free elimination over the integers after
    clearing denominators column by column, so the result is exact.
    Float backend: Gaussian elimination with partial pivoting.
    """
    if m.rows != m.cols:
        raise NonSquareMatrix(f"determinant of a {m.rows}x{m.cols} matrix")
    exact = m.backend() is not Backend.FLOAT
    return _prepared_det([_form(m.entries[j::m.cols], exact) for j in range(m.cols)], exact)


# ---------------------------------------------------------------------------
# column-step elimination
#
# Every determinant in the package is eliminated here, one column at a
# time: a pivot step on a column records what reduces every later column
# of the same matrix.  A column keeps only its rows not yet pivoted.
# Float: partial pivoting (the first largest |entry| on ties), with the
# pivot product negated on each row swap.  Exact: fraction-free
# (Bareiss, Math. Comp. 22, 1968) elimination with the first nonzero
# pivot, on columns scaled to integers.  Grid scans share the steps of a
# tuple prefix between its extensions (see _walk).

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


def _float_last(result: float, v: float) -> float:
    """The last level: the pivot product times the last reduced entry,
    or 0.0 when that entry is zero."""
    return result * v if v != 0.0 else 0.0


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


def _form(c, exact: bool) -> tuple[list, int]:
    """The column ``c`` as elimination takes it, with its scale: when
    ``exact``, c (of Fractions and ints) times the lcm of its
    denominators, and that lcm; else c made float, with scale 1."""
    if not exact:
        return [float(v) for v in c], 1
    lcm = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (lcm // x.denominator) for x in c], lcm


def _eliminate(cols: list, k: int, exact: bool, state=None):
    """Pivot on the first k of the prepared columns ``cols`` in turn,
    each step reducing the later columns, which are left unchanged,
    starting from the pivot ``state`` of an earlier elimination (default:
    none).  Returns the pivot state, the k steps and the reduced later
    columns, or ``None`` when a pivot column is zero, so that every
    determinant with these k leading columns is zero."""
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


def _prepared_det(forms: list, exact: bool, state=None, scale: int = 1) -> Scalar:
    """det of the square matrix whose columns have the prepared forms
    ``forms`` (pairs of a column and its scale, see :func:`_form`), or,
    from the pivot ``state`` of eliminated leading columns whose scales
    multiply to ``scale``, of the matrix those columns extend."""
    if exact:
        return Fraction(*_exact_det(forms, state, scale))
    done = _eliminate([c for c, _ in forms], len(forms) - 1, False, state)
    if done is None:
        return 0.0
    state, _, (last,) = done
    return _float_last(state, last[0])


def _exact_det(forms: list, state=None, scale: int = 1) -> tuple[int, int]:
    """The exact :func:`_prepared_det` as two integers, whose quotient it
    is: the det of the integer columns and the product of their scales
    and ``scale``."""
    done = _eliminate([c for c, _ in forms], len(forms) - 1, True, state)
    if done is None:
        return 0, 1
    state, _, (last,) = done
    return state[0] * last[0], scale * math.prod(s for _, s in forms)


# ---------------------------------------------------------------------------
# the point table, which every collocation determinant reads

class _PointTable:
    """The values fns[i](x) of functions at points, each computed once,
    in the order its caller first needs them, and the columns
    [fns[i](x) for i in rows] of tuples of function indices ``rows``,
    each made once, with its backend and its prepared forms.  A value is
    fns[i]._eval at evaluate()'s backend, resolved once per function and
    point backend, at the first value that needs it, except in the
    columns built directly (see :meth:`_kind`).  Points of equal value
    and other types (0.5 and Fraction(1, 2)) have their own records."""

    def __init__(self, fns: tuple):
        self.fns = fns
        self._polys = None          # [_polynomial(f) for f in fns], made once if needed
        self._kinds: dict = {}      # rows -> _kind(rows)
        self._required: dict = {}   # i -> fns[i].required_backend()
        self._tags: dict = {}       # (i, point backend) -> backend of fns[i] there
        self._points = collections.defaultdict(dict)    # type -> {value: record}

    def points(self, xs) -> list:
        """The table's record of each point in ``xs``."""
        by_type = self._points
        return [(found := by_type[type(x)]).get(x) or found.setdefault(x, _Point(x))
                for x in xs]

    def _kind(self, rows: tuple) -> tuple:
        """How columns of ``rows`` are built directly: at a float point,
        as evaluate's x ** k when all rows are powers (their k, else
        None); at an exact point, by :func:`_polynomial_column` when all
        are polynomials with exact coefficients (its arguments d, L and
        terms, else None)."""
        powers = [self.fns[i].k for i in rows if type(self.fns[i]) is PowerFn]
        if len(powers) == len(rows):
            return powers, (max(powers), 1, powers)
        self._polys = self._polys or [_polynomial(f) for f in self.fns]
        polys = [self._polys[i] for i in rows]
        if None in polys:
            return None, None
        lcm = math.lcm(*(c.denominator for poly in polys for c in poly.values()))
        terms = [[(k, int(c * lcm)) for k, c in poly.items() if c] for poly in polys]
        return None, (max((k for row in terms for k, _ in row), default=0), lcm, terms)

    def columns(self, rows: tuple, points: list) -> list:
        """The columns of ``rows`` at the points whose records are
        ``points``, each made once.  Values not computed yet are computed
        row by row over the points, the order in which a matrix of these
        columns built row by row first needs them; a column built
        directly raises nothing, so it leaves that order as it is."""
        new = [p for p in points if rows not in p.columns]
        if new:
            if rows not in self._kinds:
                self._kinds[rows] = self._kind(rows)
            powers, poly = self._kinds[rows]
            slow = []
            for p in new:
                if p.backend is Backend.FLOAT and powers is not None:
                    values = [p.x ** k for k in powers]
                    p.columns[rows] = _Column(values, [Backend.FLOAT], {False: (values, 1)})
                elif p.backend is not Backend.FLOAT and poly is not None:
                    p.columns[rows] = _polynomial_column(p.x, *poly)
                else:
                    slow.append(p)
            if slow:
                for i in rows:
                    for p in slow:
                        if i not in p.values:
                            p.values[i] = self._value(i, p)
                for p in slow:
                    p.columns[rows] = _Column([p.values[i] for i in rows],
                                              [self._tags[i, p.backend] for i in rows])
        return [p.columns[rows] for p in points]

    def _value(self, i: int, p: "_Point") -> Scalar:
        """fns[i] at the point whose record is ``p``."""
        backend = self._tags.get((i, p.backend))
        if backend is None:
            if i not in self._required:
                self._required[i] = self.fns[i].required_backend()
            backend = self._tags[i, p.backend] = combine_backends(
                p.backend, self._required[i], default=Backend.EXACT)
        return self.fns[i]._eval(p.x, backend)

    def det(self, rows: tuple, xs) -> Scalar:
        """det of the square matrix of the columns of ``rows`` at xs."""
        backend, forms = _matrix(self.columns(rows, self.points(xs)))
        return _prepared_det(forms, backend is not Backend.FLOAT)

    def appended_det(self, rows: tuple, base: tuple):
        """The function xs -> (det, backend, prepared columns) of the
        square matrix of the columns of ``rows`` at base + xs, the det a
        float or, exact, :func:`_exact_det`'s (det, scale) pair.  The base
        columns are eliminated once per backend; each call reduces the
        columns at xs by the recorded steps and eliminates the rest."""
        base_points, k = self.points(base), len(base)
        eliminated = {}     # exact -> (the base's pivot steps or None, its scale)

        def det(xs):
            backend, forms = _matrix(self.columns(rows, base_points + self.points(xs)))
            exact = backend is not Backend.FLOAT
            if exact not in eliminated:
                eliminated[exact] = (_eliminate([c for c, _ in forms[:k]], k, exact),
                                     math.prod(s for _, s in forms[:k]))
            done, scale = eliminated[exact]
            if done is None:
                return ((0, 1) if exact else 0.0), backend, forms
            state, steps, _ = done
            appended = forms[k:]
            cols = [c for c, _ in appended]
            for step in steps:
                cols = (_exact_reduce if exact else _float_reduce)(cols, step)
            reduced = [(c, s) for c, (_, s) in zip(cols, appended)]
            return (_exact_det(reduced, state, scale) if exact
                    else _prepared_det(reduced, False, state)), backend, forms
        return det


class _Point:
    """A point, its backend, its values by function index and its
    columns by rows."""

    __slots__ = ("x", "backend", "values", "columns")

    def __init__(self, x):
        self.x = x
        self.backend = scalar_backend(x)
        self.values: dict = {}
        self.columns: dict = {}


def _polynomial(f) -> dict | None:
    """f's coefficients by degree if f is a power, an int or Fraction
    constant, or an affine combination of such functions with int or
    Fraction coefficients; else None."""
    if type(f) is PowerFn:
        return {f.k: 1}
    if type(f) is ConstFn:
        return {0: f.c} if type(f.c) in (int, Fraction) else None
    if type(f) is not AffineFn:
        return None
    out: dict = {}
    for c, s in f.terms:
        inner = _polynomial(s)
        if inner is None or type(c) not in (int, Fraction):
            return None
        for k, v in inner.items():
            out[k] = out.get(k, 0) + c * v
    return out


def _polynomial_column(x, d: int, lcm: int, terms: list) -> "_Column":
    """The column at the exact point x = p/q of rows of degree at most d
    whose coefficients' denominators have the lcm L, in integer form:
    for each row's nonzero terms (k, c * L) in ``terms``, the sum of
    c * L * p^k * q^(d-k), and the scale q^d * L, both over their gcd,
    as :func:`_form` makes them.  Rows x^k, given as their exponents k,
    need no gcd: that of x^d, p^d, is prime to q^d."""
    p, q = x.numerator, x.denominator
    if type(terms[0]) is int:
        return _Column(None, [Backend.EXACT], {True: ([p ** k * q ** (d - k) for k in terms],
                                                      q ** d)})
    ints = [sum([c * p ** k * q ** (d - k) for k, c in row]) for row in terms]
    g = math.gcd(q ** d * lcm, *ints)
    return _Column(None, [Backend.EXACT], {True: ([v // g for v in ints], q ** d * lcm // g)})


class _Column:
    """One column's values, its rows' backends ``tags``, and its backend
    and its float and integer-scaled forms (``forms``, by exact), each
    made once, when first asked for, the values from the integer form."""

    __slots__ = ("_values", "_tags", "_backend", "_forms")

    def __init__(self, values: list | None, tags: list, forms: dict | None = None):
        self._values = values
        self._tags = tags
        self._backend = tags[0] if len(tags) == 1 else None     # one row's is the column's
        self._forms = forms or {}

    @property
    def values(self) -> list:
        if self._values is None:
            ints, scale = self._forms[True]
            self._values = [Fraction(v, scale) for v in ints]
        return self._values

    def backend(self) -> Backend:
        """``BackendMismatch`` when the rows mix backends, as a Matrix would."""
        if self._backend is None:
            self._backend = combine_backends(*self._tags)
        return self._backend

    def form(self, exact: bool) -> tuple[list, int]:
        form = self._forms.get(exact)
        if form is None:
            form = self._forms[exact] = _form(self.values, exact)
        return form


def _matrix(columns: list) -> tuple:
    """The backend of the matrix with the table's ``columns``
    (``BackendMismatch`` when they mix exact and float, as a Matrix of
    their entries would raise) and the forms elimination takes."""
    backend = combine_backends(*(c.backend() for c in columns), default=Backend.EXACT)
    exact = backend is not Backend.FLOAT
    return backend, [c.form(exact) for c in columns]


# ---------------------------------------------------------------------------
# collocation determinants

def collocation_matrix(fns: Sequence[FunctionSpec], points: Sequence[Scalar]) -> Matrix:
    """The square matrix with entry (i, j) = fns[i](points[j]), read
    from a point table."""
    if len(fns) != len(points):
        raise DimensionMismatch(
            f"{len(fns)} functions vs {len(points)} points")
    table = _PointTable(tuple(fns))
    columns = table.columns(tuple(range(len(fns))), table.points(points))
    return matrix_from_rows(list(zip(*(c.values for c in columns))))


def collocation_det(system: ChebyshevSystem, k: int, points: PointTuple | Sequence[Scalar]) -> Scalar:
    """Collocation determinant det(basis_i(x_j)) of the k-prefix of the
    system at the given k points (checked to lie in the domain)."""
    pts = tuple(points)
    if not 1 <= k <= system.dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{system.dim}")
    if len(pts) != k:
        raise DimensionMismatch(f"need {k} points, got {len(pts)}")
    _check_domain(system.domain, pts)
    return _PointTable(system.basis[:k]).det(tuple(range(k)), pts)


def _tolerance(biggest: float, n: int, tol_factor: float) -> float:
    """Tolerance below which a float n x n determinant whose largest
    |entry| is ``biggest`` is indistinguishable from zero."""
    return tol_factor * biggest ** n


def _biggest(forms: list) -> float:
    """The largest |entry| of the float prepared columns ``forms``, which
    the float tolerance reads."""
    return max(map(abs, itertools.chain.from_iterable(c for c, _ in forms)))


def check_denominator(den: Scalar, forms: list, backend: Backend | None, at: tuple,
                      tol_factor: float = DEFAULT_TOL_FACTOR,
                      name: str = "prefix collocation determinant",
                      show_value: bool = True) -> None:
    """The singular-denominator rule of every divided difference: raise
    :class:`SingularDenominator` when ``den``, the determinant of the
    collocation matrix with the prepared columns ``forms`` at the points
    ``at``, is within its positivity tolerance (float backend) or zero
    (exact)."""
    if backend is Backend.FLOAT:
        if abs(den) <= _tolerance(_biggest(forms), len(at), tol_factor):
            shown = f"{name} {den}" if show_value else name
            raise SingularDenominator(f"{shown} within tolerance at {at}")
    elif den == 0:
        raise SingularDenominator(f"{name} vanishes at {at}")


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
    tuples, exhaustive = _index_tuples(n, k, budget, seed)
    return [tuple(sorted_points[i] for i in t) for t in tuples], exhaustive


def _index_tuples(m: int, k: int, budget: int, seed: int) -> tuple:
    """The increasing k-tuples of range(m), and whether they are all of
    them: all, lazily and in lexicographic order, when there are at most
    ``budget``, else ``budget`` seeded samples, duplicates possible.
    ``random.sample`` picks positions from the population's length alone,
    so these index the same tuples as sampling the sorted points
    themselves.  A budget below 1, which would check no tuple at all, is
    rejected."""
    if math.comb(m, k) <= budget:
        return itertools.combinations(range(m), k), True
    if budget < 1:
        raise InputError(f"tuple budget must be >= 1, got {budget}")
    rng = random.Random(seed)
    return [tuple(sorted(rng.sample(range(m), k))) for _ in range(budget)], False


def sorted_grid(grid: Iterable[Scalar], min_gap: float = 0.0) -> tuple:
    """Sort a grid and validate strict increase (duplicates rejected); a
    grid that passes as given is sorted already."""
    pts = tuple(grid)
    try:
        return validate_tuple(pts, OrderingClass.STRICTLY_INCREASING, min_gap=min_gap).points
    except ChebconvexError:
        return validate_tuple(sorted(pts), OrderingClass.STRICTLY_INCREASING,
                              min_gap=min_gap).points


# ---------------------------------------------------------------------------
# the sign scan behind grid positivity and every convexity mode
#
# A scan reads its columns from a point table, at each grid point it
# touches.  An exhaustive scan then walks the increasing tuples depth
# first in lexicographic order and eliminates one tuple point (one
# matrix column) per level, so all extensions of a prefix share its
# pivot steps, which are those of det: its determinants are
# bit-identical to det's of each tuple.  A sampled scan calls det's
# elimination on each sampled tuple's prepared columns.

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


def _sign_scan(table: _PointTable, rows: tuple, pts: tuple, budget: int, seed: int,
               tol_factor: float, positive: bool) -> SignScan:
    """Classify the determinants of the columns of ``rows`` in ``table``
    for the increasing len(rows)-tuples of the sorted grid ``pts``
    (exhaustive within ``budget``, else ``budget`` seeded samples) by the
    rule of :meth:`_Tally.add`."""
    m, n = len(pts), len(rows)
    tuples, exhaustive = _index_tuples(m, n, budget, seed)
    checked = math.comb(m, n) if exhaustive else len(tuples)
    cols = _scan_columns(table, rows, pts, [range(n)] + [(j,) for j in range(n, m)]
                         if exhaustive else tuples)
    used = {c.backend() for c in cols.values()}
    tally = _Tally(positive, pts, tol_factor)
    scale = None
    if not exhaustive or len(used) > 1:
        _scan_each(cols, tuples, tally, used)
    elif used == {Backend.FLOAT}:
        _walk_float([cols[j].form(False)[0] for j in range(m)], n, tally)
    else:
        scale = _walk_exact([cols[j].form(True) for j in range(m)], n, tally)

    for verdict in (_VIOLATION, _NEAR_ZERO):
        if verdict in tally.first:
            t, value = tally.first[verdict]
            if scale is not None:
                value = Fraction(value, math.prod(scale[j] for j in t))
            return SignScan(checked, exhaustive, verdict, tuple(pts[j] for j in t),
                            value, tally.near_zero)
    return SignScan(checked, exhaustive)


def _scan_columns(table: _PointTable, rows: tuple, pts: tuple, touched) -> dict:
    """The table's columns of ``rows`` at every point index in
    ``touched``, asked for group by group, the order in which a scan that
    builds each tuple's matrix first meets the points, so the first
    failing evaluation is the same.  A float column holding an infinite
    or NaN value raises :class:`NonFiniteValue`."""
    cols: dict = {}
    for group in touched:
        new = [j for j in group if j not in cols]
        if not new:
            continue
        for j, col in zip(new, table.columns(rows, table.points([pts[j] for j in new]))):
            if col.backend() is Backend.FLOAT and not all(map(math.isfinite, col.values)):
                v = next(v for v in col.values if not math.isfinite(v))
                raise NonFiniteValue(f"function value {v} at grid point {pts[j]}")
            cols[j] = col
    return cols


def _scan_each(cols: dict, tuples, tally: _Tally, used: set) -> None:
    """Per-tuple elimination from the table, in tuple order.  Columns of
    one backend (``used``) have their forms read once; else every tuple
    takes its own, so one that mixes exact and float points raises as
    det would, and one that does not passes."""
    shared = next(iter(used)) if len(used) == 1 else None
    forms = shared and {j: c.form(shared is not Backend.FLOAT) for j, c in cols.items()}
    for t in tuples:
        backend, matrix = ((shared, [forms[j] for j in t]) if shared
                           else _matrix([cols[j] for j in t]))
        if backend is Backend.FLOAT:
            tally.add(t, _prepared_det(matrix, exact=False), _biggest(matrix))
        else:
            tally.add(t, _prepared_det(matrix, exact=True))


def _walk(cols: list, n: int, root, pivot, reduce, leaf, zero, tally: _Tally) -> None:
    """Depth-first walk over the increasing n-tuples of column indices
    in lexicographic order.  Level d eliminates the tuple's d-th column:
    ``pivot(state, j, c)`` pivots on column j (``c``, already reduced
    by the prefix) and returns the new state and the step that
    ``reduce(rest, step)`` applies to the later columns, or ``None``
    when the pivot column is zero, which makes every extension's
    determinant zero.  ``leaf(state, j, v)`` turns the last reduced
    entry into the arguments of :meth:`_Tally.add` after the tuple,
    ``zero(t)`` gives them for a zero determinant."""
    last = n - 1

    def visit(d, prefix, state, idx, cands):
        for pos in range(len(cands) - (last - d)):
            j, c = idx[pos], cands[pos]
            t = prefix + (j,)
            if d == last:
                tally.add(t, *leaf(state, j, c[0]))
                continue
            pivoted = pivot(state, j, c)
            if pivoted is None:
                for tail in itertools.combinations(idx[pos + 1:], last - d):
                    u = t + tail
                    tally.add(u, *zero(u))
                continue
            child, step = pivoted
            visit(d + 1, t, child, idx[pos + 1:], reduce(cands[pos + 1:], step))

    visit(0, (), root, list(range(len(cols))), cols)


def _walk_float(cols: list, n: int, tally: _Tally) -> None:
    """Partial pivoting one column at a time over the float columns
    ``cols``.  The state is (running pivot product with swap signs, max
    |entry| of the prefix's columns)."""
    colmax = [max(abs(v) for v in c) for c in cols]

    def pivot(state, j, c):
        result, biggest = state
        pivoted = _float_pivot(result, c)
        if pivoted is None:
            return None
        return (pivoted[0], max(biggest, colmax[j])), pivoted[1]

    def leaf(state, j, v):
        result, biggest = state
        return _float_last(result, v), max(biggest, colmax[j])

    def zero(t):
        return 0.0, max(colmax[j] for j in t)

    _walk(cols, n, (1.0, 0.0), pivot, _float_reduce, leaf, zero, tally)


def _walk_exact(forms: list, n: int, tally: _Tally) -> list:
    """Bareiss elimination one column at a time over the columns scaled
    to integers by the lcm of their denominators (``forms``, pairs of a
    column and its scale), so the walk records integer determinants of
    the scaled matrix, which carry the sign; returns the column scales."""
    ints, scale = zip(*forms)
    _walk(list(ints), n, (1, 1), lambda state, j, c: _exact_pivot(state, c),
          _exact_reduce, lambda state, j, v: (state[0] * v,), lambda t: (0,), tally)
    return list(scale)


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
    as indeterminate, with tol = tol_factor * (max |entry|)**k.
    Raises :class:`NonFiniteValue` on an infinite or NaN value.
    """
    return _positivity(system, k, grid, _PointTable(system.basis), budget, seed, tol_factor)


def _positivity(system: ChebyshevSystem, k: int, grid, table: _PointTable,
                budget: int, seed: int, tol_factor: float) -> PositivityReport:
    """:func:`is_positive_chebyshev`, reading the basis values from
    ``table``, whose function i is the system's basis function i."""
    pts = sorted_grid(grid)
    if len(pts) < k:
        raise InsufficientGrid(f"grid has {len(pts)} points, need at least {k}")
    _check_domain(system.domain, pts, "grid point")
    if not 1 <= k <= system.dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{system.dim}")

    scan = _sign_scan(table, tuple(range(k)), pts,
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
