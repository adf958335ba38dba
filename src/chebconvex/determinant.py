"""Square determinants with dual backends, collocation determinants of
Chebyshev systems, grid positivity verdicts, and the Sylvester
determinant identity.

Every determinant is one column-step elimination.  Exact determinants
clear column denominators and run fraction-free (Bareiss) elimination
over the integers, which keeps intermediate entries polynomially sized.
Float determinants use Gaussian elimination with partial pivoting.
Every collocation determinant (grid scans, pinned bases, divided
differences and variation windows) reads one point table, which
evaluates each function once per point, resolves each backend once and
builds columns of polynomials with exact coefficients from an exact
point's integers.  Grid scans share the elimination steps of a common
tuple prefix, and a pinned base (induced._PinnedBase) keeps the steps
of its base columns and reduces only each appended point's column by
them.

A grid is a point tuple (:class:`core.PointTuple`), the one that
validate_tuple or :func:`sorted_grid` returned, and a table reads it by
position: its records for a grid are lists made once, and its callers
pass positions, never points.  A tuple reads its one backend when it is
made, and every table, column, matrix and scan on it takes that
backend.  An exact grid whose source gives one scale holds its points
as integers over it, sorted and compared as integers; a point's
Fraction is made only where a report or a message shows it.

An exact exhaustive scan first reads windows of consecutive columns
(:func:`_certified`), by two lemmas on a matrix with rows 0..n-1, each
proved by Sylvester's identity and induction on a tuple's span:

* Fekete's lemma (Karlin, *Total Positivity*, 1968, ch. 2; Pinkus,
  *Totally Positive Matrices*, 2010, ch. 2): if, for every p <= n, the
  minor of rows 0..p-1 is > 0 on every p consecutive columns, then every
  n-minor on increasing columns is > 0.
* Its nonnegative form, the Chebyshev-system form of Popoviciu's test
  on consecutive points (Karlin and Studden, *Tchebycheff Systems*,
  1966): if those minors are > 0 for every p < n and the n-minor
  is >= 0 on every n consecutive columns, then every n-minor on
  increasing columns is >= 0.

When the windows pass, the scan passes without walking its tuples, and
its ``tuples_checked`` stays C(m, n), since the verdict covers every
tuple; when one fails, the scan walks as before, so every witness,
value and count is the walk's.  Float and sampled scans never read the
windows: a float verdict's near-zero count is per tuple, and a sampled
scan reads only its tuples' points.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    DEFAULT_MIN_GAP,
    AffineFn,
    Backend,
    ChebyshevSystem,
    ConstFn,
    Domain,
    OrderingClass,
    PointTuple,
    PowerFn,
    Scalar,
    _check_domain,
    collection_backend,
    combine_backends,
    evaluate,   # unused here; bench/test_bench.py checks that the tracer wraps it here
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

    def backend(self) -> Backend:
        """The entries' backend, exact when every entry is an int."""
        return Backend.EXACT if self._backend is None else self._backend


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


def _eliminate(cols: list, k: int, exact: bool):
    """Pivot on the first k of the prepared columns ``cols`` in turn,
    each step reducing the later columns, which are left unchanged.
    Returns the pivot state, the k steps and the reduced later columns,
    or ``None`` when a pivot column is zero, so that every determinant
    with these k leading columns is zero."""
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


def _prepared_det(forms: list, exact: bool) -> Scalar:
    """det of the square matrix whose columns have the prepared forms
    ``forms`` (pairs of a column and its scale, see :func:`_form`)."""
    if exact:
        return Fraction(*_exact_det(forms))
    done = _eliminate([c for c, _ in forms], len(forms) - 1, False)
    if done is None:
        return 0.0
    state, _, (last,) = done
    return _float_last(state, last[0])


def _exact_det(forms: list) -> tuple[int, int]:
    """The exact :func:`_prepared_det` as two integers, whose quotient it
    is: the det of the integer columns and the product of their scales."""
    done = _eliminate([c for c, _ in forms], len(forms) - 1, True)
    if done is None:
        return 0, 1
    state, _, (last,) = done
    return state[0] * last[0], math.prod(s for _, s in forms)


# ---------------------------------------------------------------------------
# grids: point tuples, read by position

class _At:
    """The points at positions js of a grid, as a message shows them (a
    tuple), made only if one does."""

    def __init__(self, grid: PointTuple, js):
        self.grid, self.js = grid, js

    def __len__(self) -> int:
        return len(self.js)

    def __str__(self) -> str:
        return str(tuple(self.grid[j] for j in self.js))


def _uniform_grid(a, b, m: int) -> PointTuple:
    """The points a + (b - a) * i / m, i = 0..m, of exact a < b, as the
    integers A·m + (B - A)·i over q = m·L: L is the lcm of the
    denominators of a and b, A = a·L and B = b·L."""
    a, b = Fraction(a), Fraction(b)
    lcm = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (lcm // a.denominator), b.numerator * (lcm // b.denominator)
    return PointTuple(nums=range(lo * m, hi * m + 1, hi - lo), q=m * lcm)


def sorted_grid(grid: Iterable[Scalar], min_gap: float = 0.0) -> PointTuple:
    """Sort a grid and validate strict increase (duplicates rejected),
    returning the validated tuple.  A tuple validated as strictly
    increasing (and, if a gap is asked for, :attr:`PointTuple.spaced`)
    is returned itself, so that checks sorting it again share the point
    tables keyed by it; other grids that pass as given are sorted
    already.  A grid of integers over one scale is sorted and compared
    as integers; other points, and every error, are read as
    validate_tuple reads them."""
    increasing = OrderingClass.STRICTLY_INCREASING
    if isinstance(grid, PointTuple) and grid.ordering is increasing and (
            min_gap <= 0 or min_gap == DEFAULT_MIN_GAP and grid.spaced):
        return grid
    if isinstance(grid, PointTuple) and grid.nums is not None:
        return PointTuple(ordering=increasing, nums=sorted(grid.nums), q=grid.q)
    pts = tuple(grid)
    try:
        return validate_tuple(pts, increasing, min_gap=min_gap)
    except ChebconvexError:
        return validate_tuple(sorted(pts), increasing, min_gap=min_gap)


# ---------------------------------------------------------------------------
# the point table, which every collocation determinant reads

class _PointTable:
    """The values fns[i](x) of functions at the points of grids, each
    computed once, in the order its caller first needs them, and the
    columns [fns[i](x) for i in rows] of tuples of function indices
    ``rows``, each made once, with its one prepared form, the one the
    table's backend on the grid asks for.  Both are lists by grid
    position, made once per grid: a caller passes positions, never
    points.  A table reads a grid at one backend
    (:meth:`backend`), and every value is read through :meth:`_value`,
    except in the columns built directly (see :meth:`_kind`); a function
    whose requirement clashes with it raises :class:`BackendMismatch` at
    its first value there."""

    def __init__(self, fns: tuple):
        self.fns = fns
        self._polys = None          # [_polynomial(f) for f in fns], made once if needed
        self._kinds: dict = {}      # rows -> _kind(rows)
        self._required: dict = {}   # i -> fns[i].required_backend()
        self._rows: set = set()     # (i, backend) where fns[i]'s requirement was found to hold
        self._neutral = None        # the backend a neutral grid is read at, once read
        self._lists: dict = {}      # (rows or i, grid) -> columns or values of fns[i], by position

    def backend(self, grid: PointTuple) -> Backend:
        """The backend the table reads ``grid`` at: the grid's, or on a
        neutral grid float if any function requires float, else exact."""
        if grid.backend is not None:
            return grid.backend
        if self._neutral is None:
            self._neutral = Backend.FLOAT if any(
                self._requirement(i) is Backend.FLOAT for i in range(len(self.fns))) \
                else Backend.EXACT
        return self._neutral

    def _requirement(self, i: int) -> Backend | None:
        """fns[i].required_backend(), read once."""
        if i not in self._required:
            self._required[i] = self.fns[i].required_backend()
        return self._required[i]

    def _kind(self, rows: tuple) -> tuple:
        """How columns of ``rows`` are built directly: on a float grid,
        as evaluate's x ** k when all rows are powers (their k, else
        None); on an exact grid, by :func:`_polynomial_column` when all
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

    def columns(self, rows: tuple, grid: PointTuple, js) -> list:
        """The columns of ``rows`` at the positions ``js`` of ``grid``,
        each made once.  Values not computed yet are computed row by row
        over the positions, the order in which a matrix of these columns
        built row by row first needs them; a column built directly raises
        nothing, so it leaves that order as it is."""
        cols = self._by_position(rows, grid)
        slow = [j for j in js if cols[j] is None]
        if not slow:
            return [cols[j] for j in js]
        if rows not in self._kinds:
            self._kinds[rows] = self._kind(rows)
        powers, poly = self._kinds[rows]
        backend = self.backend(grid)
        if backend is Backend.FLOAT and powers is not None:
            for j in slow:
                values = [float(grid[j]) ** k for k in powers]
                cols[j] = _Column(values, (values, 1))
        elif backend is Backend.EXACT and poly is not None:
            for j in slow:
                cols[j] = _polynomial_column(*grid.pq(j), *poly)
        else:
            values = [self._by_position(i, grid) for i in rows]
            for i, row in zip(rows, values):
                for j in slow:
                    if row[j] is None:
                        row[j] = self._value(i, grid, j, backend)
            exact = backend is not Backend.FLOAT
            for j in slow:
                column = [row[j] for row in values]
                cols[j] = _Column(column, _form(column, exact))
        return [cols[j] for j in js]

    def _by_position(self, key, grid: PointTuple) -> list:
        """The columns of the rows tuple ``key``, or the values of function
        ``key``, at the positions of ``grid``: None where not made yet."""
        return self._lists.get((key, grid)) or self._lists.setdefault((key, grid),
                                                                      [None] * len(grid))

    def _value(self, i: int, grid: PointTuple, j: int, backend: Backend) -> Scalar:
        """The value of fns[i] at the point of position j of ``grid``, at
        ``backend``, the table's on that grid."""
        return self.fns[i]._eval(grid[j], self.row_backend(i, backend))

    def row_backend(self, i: int, backend: Backend) -> Backend:
        """``backend``, once fns[i]'s requirement is found not to clash
        with it: read once per function and backend, at the function's
        first value on a grid read at that backend."""
        if (i, backend) not in self._rows:
            combine_backends(backend, self._requirement(i))
            self._rows.add((i, backend))
        return backend

    def matrix(self, rows: tuple, grid: PointTuple, js) -> tuple:
        """The backend of the matrix of the columns of ``rows`` at the
        positions ``js`` of ``grid``, the table's on that grid, and the
        forms elimination takes."""
        cols = self.columns(rows, grid, js)
        backend = self.backend(grid)
        return backend, [c.form for c in cols]

    def det(self, rows: tuple, grid: PointTuple, js) -> Scalar:
        """det of the square matrix of the columns of ``rows`` at the
        positions ``js`` of ``grid``."""
        backend, forms = self.matrix(rows, grid, js)
        return _prepared_det(forms, backend is not Backend.FLOAT)


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


def _polynomial_column(p: int, q: int, d: int, lcm: int, terms: list) -> "_Column":
    """The column at the exact point x = p/q of rows of degree at most d
    whose coefficients' denominators have the lcm L, in integer form:
    for each row's nonzero terms (k, c * L) in ``terms``, the sum of
    c * L * p^k * q^(d-k), and the scale q^d * L, both over their gcd,
    as :func:`_form` makes them, with p/q in lowest terms.  Rows x^k,
    given as their exponents k, need no gcd: that of x^d, p^d, is prime
    to q^d."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if type(terms[0]) is int:
        return _Column(None, ([p ** k * q ** (d - k) for k in terms], q ** d))
    ints = [sum([c * p ** k * q ** (d - k) for k, c in row]) for row in terms]
    g = math.gcd(q ** d * lcm, *ints)
    return _Column(None, ([v // g for v in ints], q ** d * lcm // g))


class _Column:
    """One column's values and its one prepared ``form`` (see
    :func:`_form`), the float or integer-scaled one that its table's
    backend on the grid asks for.  Values not given are made from the
    integer form when first asked for."""

    __slots__ = ("_values", "form")

    def __init__(self, values: list | None, form: tuple[list, int]):
        self._values, self.form = values, form

    @property
    def values(self) -> list:
        if self._values is None:
            ints, scale = self.form
            self._values = [Fraction(v, scale) for v in ints]
        return self._values


def _finite_tol(tol_factor: float) -> float:
    """``tol_factor``, once it is found finite, else :class:`InputError`:
    every public function that takes one reaches this check before it
    computes a value, on either backend.  A NaN or infinite factor makes
    a tolerance that no float verdict can rest on: no value compares
    below a NaN bound, so every value would pass."""
    if not math.isfinite(tol_factor):
        raise InputError(f"tol_factor must be finite, got {tol_factor}")
    return tol_factor


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
    ``at``, is zero or, on the float backend, within its positivity
    tolerance, which a negative ``tol_factor`` makes negative."""
    if backend is Backend.FLOAT:
        if abs(den) <= _tolerance(_biggest(forms), len(at), tol_factor) or den == 0:
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


# ---------------------------------------------------------------------------
# the sign scan behind grid positivity and every convexity mode
#
# A scan reads its columns from a point table, at each grid point it
# touches.  An exhaustive scan of tuples of two points or more then
# walks the increasing tuples depth first in lexicographic order and
# eliminates one tuple point (one matrix column) per level, so all
# extensions of a prefix share its pivot steps, which are those of det:
# its determinants are bit-identical to det's of each tuple; an exact
# one walks only when its windows of consecutive columns fail
# (_certified).  The last two levels are one pass: with two entries
# (a, b) left in each column, each pivot column gives one list, the row
# of determinants of its extensions by one later column, by det's own
# operations, and _Tally.row clears the row in one comparison of its
# smallest value with one bound, the float one |tol| at the row's
# largest |entry|.  That bound serves the whole row because |tol| grows
# with the largest |entry|; a row that fails it goes to _Tally.add tuple
# by tuple, in order.  A sampled scan, and a
# scan of one-point tuples, exhaustive or not, calls det's elimination
# on each tuple's prepared columns and _Tally.add on each (_scan_each).

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
    """Smallest violating and near-zero index tuples with their values,
    and the number of near-zero tuples, of a scan whose values are exact
    or float (``exact``); ``at(t)`` gives the points of index tuple t."""

    def __init__(self, positive: bool, exact: bool, at, tol_factor: float):
        self.positive = positive
        self.exact = exact
        self.at = at
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
        if not self.exact:
            if not math.isfinite(value):
                raise NonFiniteValue(f"determinant {value} at {self.at(t)}")
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

    def row(self, t: tuple, js, values: list, top=0.0, base=0.0, colmax=()) -> None:
        """:meth:`add` of the tuples t + (j,), j in ``js``, with their
        ``values``, in one comparison when all of them pass: the smallest
        value must clear the row's one bound, 0 for an exact row, and for
        a float one |tol| at ``top``, the largest |entry| of the row's
        matrices (strictly on a positive scan; on a nonnegative one,
        max(0, -tol)), with every value finite.  |tol| grows with the
        largest |entry|, so a value that clears the row's bound clears
        its own tuple's.  When a row does not pass, or its bound
        overflows, each tuple goes to :meth:`add` in order, a float one
        with its largest |entry|, max(``base``, colmax[j])."""
        try:
            tol = 0 if self.exact else _tolerance(top, len(t) + 1, self.tol_factor)
            low = min(values)
            passed = (self.exact or math.isfinite(sum(values))) and (
                low > abs(tol) if self.positive else low >= max(0, -tol))
        except OverflowError:
            passed = False
        if not passed:
            for j, v in zip(js, values):
                self.add(t + (j,), v, max(base, colmax[j]) if colmax else None)


def _sign_scan(table: _PointTable, rows: tuple, grid: PointTuple, js, budget: int, seed: int,
               tol_factor: float, positive: bool) -> SignScan:
    """Classify the determinants of the columns of ``rows`` in ``table``
    for the increasing len(rows)-tuples of the increasing positions
    ``js`` of the sorted ``grid`` (exhaustive within ``budget``, else
    ``budget`` seeded samples) by the rule of :meth:`_Tally.add`, at the
    one backend the table reads the grid at."""
    m, n = len(js), len(rows)
    tuples, exhaustive = _index_tuples(m, n, budget, seed)
    checked = math.comb(m, n) if exhaustive else len(tuples)
    exact = table.backend(grid) is not Backend.FLOAT
    cols = _scan_columns(table, rows, grid, js, [range(n)] + [(j,) for j in range(n, m)]
                         if exhaustive else tuples, exact)
    tally = _Tally(positive, exact, lambda t: tuple(grid[js[j]] for j in t), tol_factor)
    scale = None
    if not exhaustive or n == 1:
        _scan_each({j: c.form for j, c in cols.items()}, tuples, tally)
    elif not exact:
        _walk_float([cols[j].form[0] for j in range(m)], n, tally)
    else:
        forms = [cols[j].form for j in range(m)]
        if _certified([c for c, _ in forms], n, positive):
            return SignScan(checked, exhaustive)
        scale = _walk_exact(forms, n, tally)

    for verdict in (_VIOLATION, _NEAR_ZERO):
        if verdict in tally.first:
            t, value = tally.first[verdict]
            if scale is not None:
                value = Fraction(value, math.prod(scale[j] for j in t))
            return SignScan(checked, exhaustive, verdict, tally.at(t), value, tally.near_zero)
    return SignScan(checked, exhaustive)


def _scan_columns(table: _PointTable, rows: tuple, grid: PointTuple, js, touched,
                  exact: bool) -> dict:
    """The table's columns of ``rows`` at every index j in ``touched``
    (of the position js[j] of ``grid``), asked for group by group, the
    order in which a scan that builds each tuple's matrix first meets
    the points, so the first failing evaluation is the same.  A float
    (not ``exact``) column holding an infinite or NaN value raises
    :class:`NonFiniteValue`."""
    cols: dict = {}
    for group in touched:
        new = [j for j in group if j not in cols]
        if not new:
            continue
        for j, col in zip(new, table.columns(rows, grid, [js[j] for j in new])):
            if not exact and not all(map(math.isfinite, col.values)):
                v = next(v for v in col.values if not math.isfinite(v))
                raise NonFiniteValue(f"function value {v} at grid point {grid[js[j]]}")
            cols[j] = col
    return cols


def _scan_each(forms: dict, tuples, tally: _Tally) -> None:
    """Per-tuple elimination of the prepared columns ``forms`` (by index),
    in tuple order."""
    for t in tuples:
        matrix = [forms[j] for j in t]
        if tally.exact:
            tally.add(t, _prepared_det(matrix, exact=True))
        else:
            tally.add(t, _prepared_det(matrix, exact=False), _biggest(matrix))


def _walk(cols: list, n: int, root, pivot, reduce, pair, zero, tally: _Tally) -> None:
    """Depth-first walk over the increasing n-tuples of column indices
    in lexicographic order.  Level d < n - 2 eliminates the tuple's d-th
    column: ``pivot(state, j, c)`` pivots on column j (``c``, already
    reduced by the prefix) and returns the new state and the step that
    ``reduce(rest, step)`` applies to the later columns, or ``None``
    when the pivot column is zero, which makes every extension's
    determinant zero.  Levels n - 2 and n - 1 are one pass:
    ``pair(state, j, c, later)`` pivots on column j (``c``, two entries)
    and gives the determinants of the tuples that end in j and one of the
    ``later`` columns, with the rest of :meth:`_Tally.row`'s arguments,
    or ``None`` when c is zero.  ``zero(t)`` gives the arguments of
    :meth:`_Tally.add` after a tuple whose determinant is zero.  It
    takes n >= 2: a scan of one-point tuples is :func:`_scan_each`'s."""
    last = n - 1

    def visit(d, prefix, state, idx, cands):
        for pos in range(len(cands) - (last - d)):
            j, c = idx[pos], cands[pos]
            t = prefix + (j,)
            if d < last - 1:
                pivoted = pivot(state, j, c)
                if pivoted is not None:
                    visit(d + 1, t, pivoted[0], idx[pos + 1:], reduce(cands[pos + 1:], pivoted[1]))
                    continue
            else:
                row = pair(state, j, c, cands[pos + 1:])
                if row is not None:
                    tally.row(t, idx[pos + 1:], *row)
                    continue
            for tail in itertools.combinations(idx[pos + 1:], last - d):
                u = t + tail
                tally.add(u, *zero(u))

    visit(0, (), root, range(len(cols)), cols)


def _walk_float(cols: list, n: int, tally: _Tally) -> None:
    """Partial pivoting one column at a time over the float columns
    ``cols``.  The state is (running pivot product with swap signs, max
    |entry| of the prefix's columns).  A pair's values are
    :func:`_float_pivot`'s, :func:`_float_reduce`'s and
    :func:`_float_last`'s operations on (a, b) and each later (x, y)."""
    colmax = [max(map(abs, c)) for c in cols]
    sufmax = list(itertools.accumulate(reversed(colmax), max))[::-1]   # max of colmax[j:]

    def pivot(state, j, c):
        pivoted = _float_pivot(state[0], c)
        return pivoted and ((pivoted[0], max(state[1], colmax[j])), pivoted[1])

    def pair(state, j, c, later):
        result, biggest = state
        a, b = c
        if abs(b) > abs(a):
            r, f = -result * b, a / b
            values = [r * v if (v := x - f * y) != 0.0 else 0.0 for x, y in later]
        elif a != 0.0:
            r, f = result * a, b / a
            values = [r * v if (v := y - f * x) != 0.0 else 0.0 for x, y in later]
        else:
            return None
        biggest = max(biggest, colmax[j])
        return values, max(biggest, sufmax[j + 1]), biggest, colmax

    _walk(cols, n, (1.0, 0.0), pivot, _float_reduce, pair,
          lambda t: (0.0, max(colmax[j] for j in t)), tally)


def _walk_exact(forms: list, n: int, tally: _Tally) -> list:
    """Bareiss elimination one column at a time over the columns scaled
    to integers by the lcm of their denominators (``forms``, pairs of a
    column and its scale), so the walk records integer determinants of
    the scaled matrix, which carry the sign; returns the column scales.
    A pair's values are :func:`_exact_pivot`'s and
    :func:`_exact_reduce`'s operations on (a, b) and each later (x, y)."""
    ints, scale = zip(*forms)

    def pair(state, j, c, later):
        sign, prev = state
        a, b = c
        if a:
            return [sign * ((a * y - b * x) // prev) for x, y in later],
        if b:
            return [-sign * (b * x // prev) for x, y in later],
        return None

    _walk(list(ints), n, (1, 1), lambda state, j, c: _exact_pivot(state, c),
          _exact_reduce, pair, lambda t: (0,), tally)
    return list(scale)


def _certified(ints: list, n: int, positive: bool) -> bool:
    """Whether the windows of consecutive columns certify that every
    increasing n-tuple of the n-row integer columns ``ints`` has a
    determinant > 0 (``positive``) or >= 0 (see the module docstring).
    Window s holds the columns s..s+w-1, w = min(n, m - s), and Bareiss
    elimination on them without pivoting makes its pivot at step d (from
    0) the leading (d+1)-minor: every pivot must be > 0, except that a
    nonnegative scan allows a last pivot of 0 at step n - 1."""
    for s in range(len(ints)):
        cols, state = ints[s:s + n], (1, 1)
        for d in range(len(cols)):
            v = cols[0][0]
            if v < 0 or v == 0 and (positive or d < n - 1):
                return False
            if len(cols) > 1:
                state, step = _exact_pivot(state, cols[0])
                cols = _exact_reduce(cols[1:], step)
    return True


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
    pts = sorted_grid(grid)
    return _positivity(system.domain, system.dim, k, pts, range(len(pts)),
                       _PointTable(system.basis), budget, seed, tol_factor)


def _positivity(domain: Domain, dim: int, k: int, grid: PointTuple, js, table: _PointTable,
                budget: int, seed: int, tol_factor: float) -> PositivityReport:
    """:func:`is_positive_chebyshev` of a system of dimension ``dim`` on
    ``domain`` at the increasing positions ``js`` of the sorted
    ``grid``, reading the basis values from ``table``, whose function i
    is the system's basis function i."""
    if len(js) < k:
        raise InsufficientGrid(f"grid has {len(js)} points, need at least {k}")
    _check_domain(domain, grid, "grid point", js)
    if not 1 <= k <= dim:
        raise DimensionMismatch(f"prefix size {k} outside 1..{dim}")

    scan = _sign_scan(table, tuple(range(k)), grid, js, budget, seed, _finite_tol(tol_factor),
                      positive=True)
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
