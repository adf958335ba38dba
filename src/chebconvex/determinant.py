"""Square determinants with dual backends, collocation determinants of
Chebyshev systems, grid positivity verdicts, and the Sylvester
determinant identity.

Every determinant is one column-step elimination.  Exact determinants
clear column denominators and run fraction-free (Bareiss) elimination
over the integers, which keeps intermediate entries polynomially sized.
Float determinants use Gaussian elimination with partial pivoting.
Inside the package a column is its prepared form (its entries and a
scale) and an exact determinant is a pair of integers, the det of the
integer columns and the product of their scales; it becomes a Fraction
(:func:`_scalar`) only where a result carries it.  A matrix given to
:func:`det` or :func:`sylvester_check` enters as its rows, read once
into its backend and prepared columns.
Every collocation determinant (grid scans, pinned bases, divided
differences and variation windows) reads one point table, the table of
one grid, which evaluates each function once per point, reads its
backend once and builds columns of polynomials with exact coefficients
from an exact point's integers, and float columns of powers and of
affine combinations of powers by evaluate's own operations, with a
sampled function's values, looked up once per table by grid position,
beside either.  Grid scans share the elimination steps of a common tuple
prefix, and a pinned base (induced._PinnedBase) keeps the steps of its
base columns and reduces only each appended point's column by them.

A grid is a point tuple (:class:`core.PointTuple`), the one that
validate_tuple or :func:`sorted_grid` returned.  A table is made for
one grid and reads it by position: its records are lists made once,
and its callers pass the table and positions, never the grid or its
points.  A tuple reads its one backend when it is made; the table reads
its own once, at its first need, the grid's or, on a neutral grid, the
one its functions ask for, and every column, matrix and scan on it
takes that backend.  An exact grid whose source gives one scale holds
its points as integers over it, sorted and compared as integers; a
point's Fraction is made only where a report or a message shows it.

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
tuple; when one fails, the scan walks.  The walk meets its tuples in
lexicographic order and an exact value has no near-zero band, so its
first violation is the witness, and it stops there, its
``tuples_checked`` still C(m, n).  A float exhaustive scan for
nonnegative determinants reads the same windows, computed exactly on
its float values (every finite float is a dyadic rational, so each
column scales to integers by its largest power-of-two denominator,
:func:`_dyadic`): when they pass, every determinant of those values is
>= 0, and the scan passes with no tuple near zero, where its walk could
have counted one whose float value rounding pushed into [-tol, 0).  It
walks when they fail, and never reads them where they cannot stand in
for the walk: a positive scan, whose band is two-sided; a
``tol_factor`` <= 0, whose walk calls a zero that rounds negative a
violation; or a column whose largest |entry| reaches 2^(1023/n - n/2),
past which the walk's determinants or tolerances may overflow, which it
raises.  A float walk never stops, since its near-zero count is per
tuple, and a sampled scan reads no windows, nor stops: it reads only
its tuples' points, and its witness is the smallest of its unordered
samples.  A scan that walks can also read the
windows' lower part on its own (the rows 0..n-2, by Fekete's lemma
positive on every increasing tuple when it passes) and then report,
for each cut of a tuple it is given, the smallest pair of a base that a
violating tuple leaves and the inner tuple it cuts out: what exact
pinned convexity checks read through the paper's sign identity, for
their verdicts, witnesses and values (see convexity).  The first
violation leaves the smallest pair of a prefix cut (one that keeps
t[:c]), so a walk whose cuts are all prefix cuts still stops there; one
that keeps any other cut walks every tuple.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    _BACKEND_TYPES,
    DEFAULT_MIN_GAP,
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    AffineFn,
    Backend,
    ChebyshevSystem,
    ConstFn,
    Domain,
    OrderingClass,
    PointTuple,
    PowerFn,
    SampledFn,
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

#: The most points a uniform grid or a variation partition may hold,
#: checked before any point is made (:func:`_check_points`): no scan of
#: its tuples and no sum of its windows could finish.  Grids read from a
#: list or a file hold no more points than their input, and are not
#: checked.
MAX_GRID_POINTS = 10 ** 6

#: The most tuples a scan may sample, checked before any sample is drawn
#: (:func:`_index_tuples`): a poly:8 scan of a 200-point grid takes 50-72
#: us per sampled tuple and holds about 110 bytes per sample, so a scan
#: at the cap runs about a minute and holds about 110 MB of samples.  An
#: exhaustive scan, whose tuples are enumerated lazily, is not checked.
MAX_TUPLE_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# determinants of a given matrix

def _given(rows: Sequence[Sequence[Scalar]]) -> tuple[list, bool]:
    """The square matrix ``rows`` read once, where it enters: its
    columns' prepared forms (see :func:`_form`) and whether it is exact
    (every entry a Fraction or an int)."""
    if not rows or any(len(r) != len(rows) for r in rows):
        raise NonSquareMatrix(f"not a square matrix: rows of lengths {[len(r) for r in rows]}")
    exact = collection_backend([v for r in rows for v in r]) is not Backend.FLOAT
    return [_form(c, exact) for c in zip(*rows)], exact


def det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of the square matrix given as its ``rows``, by the
    column-step elimination below.  The entries' backend and columns are
    read once, here: the matrix is exact when every entry is a Fraction
    or an int, and mixing Fractions with floats raises
    :class:`BackendMismatch`.

    Exact backend: fraction-free elimination over the integers after
    clearing denominators column by column, so the result is exact.
    Float backend: Gaussian elimination with partial pivoting.
    """
    return _scalar(_prepared_det(*_given(rows)))


# ---------------------------------------------------------------------------
# column-step elimination
#
# Every determinant in the package is eliminated by one kernel,
# _eliminate, one column at a time: a pivot step on a column records what
# reduces every later column of the same matrix, and a column keeps only
# its rows not yet pivoted.  Float: partial pivoting (the first largest
# |entry| on ties), with the pivot product negated on each row swap.
# Exact: fraction-free (Bareiss, Math. Comp. 22, 1968) elimination with
# the first nonzero pivot, on columns scaled to integers.  The kernel
# starts from its caller's pivot state where it has one (a level of a
# grid scan's walk, which shares a tuple prefix's steps between its
# extensions, see _walk), and re-applies kept steps to new columns (a
# pinned base's appended point, see induced._PinnedBase.minor).

def _float_last(result: float, v: float) -> float:
    """The last level: the pivot product times the last reduced entry,
    or 0.0 when that entry is zero."""
    return result * v if v != 0.0 else 0.0


def _form(c, exact: bool) -> tuple[list, int]:
    """The column ``c`` as elimination takes it, with its scale: when
    ``exact``, c (of Fractions and ints) times the lcm of its
    denominators, and that lcm; else c made float, with scale 1."""
    if not exact:
        return [float(v) for v in c], 1
    lcm = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (lcm // x.denominator) for x in c], lcm


def _eliminate(cols: list, k: int, exact: bool, state=None, steps: list | None = None):
    """Pivot on the first k of the prepared columns ``cols`` in turn,
    each step reducing the later columns; or, given kept ``steps``,
    reduce every column of ``cols`` by them in turn instead.  The
    columns given are left unchanged.  ``state`` is the pivot state the
    steps start from, by default that of no step: float, the pivot
    product with its swap signs (0.0 when it underflows, still a state);
    exact, (swap sign, previous pivot).  Returns the state, the steps
    and the reduced later columns, or ``None`` when a pivot column is
    zero, so that every determinant with these k leading columns is zero.
    A float step is (p, factors): rows 0 and p swapped, then row i + 1
    less factor i times row 0; an exact one is (p, pivot, previous pivot,
    the rows below row 0 after the swap), each row made (pivot * row -
    below * row 0) // previous, a division that is exact."""
    if state is None:
        state = (1, 1) if exact else 1.0
    made = []
    for step in steps or [None] * k:
        if step is None:
            c, cols = cols[0], cols[1:]
            # exact, the first nonzero entry; float, the first largest |entry|
            pivot = next(filter(None, c), 0) if exact else max(c, key=abs)
            if not pivot:
                return None
            p, below = c.index(pivot), c[1:]
            if p:
                below[p - 1] = c[0]
            if exact:
                step = p, pivot, state[1], list(enumerate(below))
                state = (-state[0] if p else state[0]), pivot
            else:
                step = p, [(i, v / pivot) for i, v in enumerate(below)]
                state = (-state if p else state) * pivot
            made.append(step)
        out = []
        if exact:
            p, pivot, prev, below = step
            for c in cols:
                top, r = c[p], c[1:]
                if p:
                    r[p - 1] = c[0]
                for i, a in below:
                    r[i] = (pivot * r[i] - a * top) // prev
                out.append(r)
        else:
            p, factors = step
            for c in cols:
                top, r = c[p], c[1:]
                if p:
                    r[p - 1] = c[0]
                for i, f in factors:
                    r[i] -= f * top
                out.append(r)
        cols = out
    return state, steps or made, cols


def _prepared_det(forms: list, exact: bool) -> float | tuple[int, int]:
    """det of the square matrix whose columns have the prepared forms
    ``forms`` (pairs of a column and its scale, see :func:`_form`): a
    float, or when ``exact`` the pair of integers whose quotient it is,
    the det of the integer columns and the product of their scales."""
    done = _eliminate([c for c, _ in forms], len(forms) - 1, exact)
    if done is None:
        return (0, 1) if exact else 0.0
    state, _, (last,) = done
    return (state[0] * last[0], math.prod(s for _, s in forms)) if exact \
        else _float_last(state, last[0])


def _scalar(det) -> Scalar:
    """A determinant of :func:`_prepared_det` as a scalar: the one place
    where an exact (det, scale) pair becomes a Fraction."""
    return Fraction(*det) if type(det) is tuple else det


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


def _check_points(count: int, what: str) -> None:
    """:class:`InputError` naming ``what`` when it would hold ``count`` >
    MAX_GRID_POINTS points."""
    if count > MAX_GRID_POINTS:
        raise InputError(f"{what} exceeds the cap of {MAX_GRID_POINTS} points")


def sorted_grid(grid: Iterable[Scalar], min_gap: float = 0.0) -> PointTuple:
    """Sort a grid and validate strict increase (duplicates rejected),
    returning the validated tuple.  A tuple validated as strictly
    increasing (and, if a gap is asked for, :attr:`PointTuple.spaced`)
    is returned itself, not read again; other grids that pass as given
    are sorted already.  A grid of integers over one scale is sorted and compared
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
    """The values fns[i](x) of functions at the points of one ``grid``,
    each computed once, in the order its caller first needs them, and the
    columns [fns[i](x) for i in rows] of tuples of function indices
    ``rows``, each made once as its one prepared form (see :func:`_form`),
    the float or integer-scaled one the table's :attr:`backend` asks
    for.  Both are lists by grid position: a caller passes positions,
    never points.  Every value is read through :meth:`_value`, except in
    the columns built directly (see :meth:`_kind`), whose sampled
    functions' values are looked up once per table (see :meth:`_row`),
    or given as ``values``, {i: the values of fns[i] by position}, which
    fns[i] is not asked for; a function whose requirement clashes with
    the backend raises :class:`BackendMismatch` at its first value."""

    def __init__(self, fns: tuple, grid: PointTuple, values: dict | None = None):
        self.fns, self.grid = fns, grid
        self._kinds: dict = {}      # rows -> _kind(rows)
        # i where fns[i]'s requirement was found to hold, or its values were given
        self._rows: set = set(values or ())
        self._lists: dict = dict(values or ())  # rows or i -> columns or values of fns[i]

    @functools.cached_property
    def backend(self) -> Backend:
        """The backend the table reads its grid at, read once, at its
        first need: the grid's, or on a neutral grid float if any function
        requires float, else exact."""
        if self.grid.backend is not None:
            return self.grid.backend
        return Backend.FLOAT if any(f.required_backend() is Backend.FLOAT
                                    for f in self.fns) else Backend.EXACT

    def _kind(self, rows: tuple):
        """How columns of ``rows`` are built directly, or None
        (:func:`_direct_kind`, given each sampled function as :meth:`_row`
        gives it), read once per rows tuple."""
        if rows not in self._kinds:
            self._kinds[rows] = _direct_kind([self._row(i) if type(self.fns[i]) is SampledFn
                                              else self.fns[i] for i in rows], self.backend)
        return self._kinds[rows]

    def _row(self, i: int):
        """The sampled function fns[i] as :func:`_direct_kind` takes it:
        where its requirement does not clash with the backend and its table
        holds every point of the grid, its values in the table, a list by
        position with no None, looked up once per table as its _eval looks
        them up and read at the backend; else f itself, whose values the
        value path reads (a later rows tuple tries its lookup again)."""
        f, values = self.fns[i], self._by_position(i)
        if f.required_backend() in (None, self.backend) and any(v is None for v in values):
            # a point off f's table is None, which the conversion refuses, and a value
            # past the float range raises: the value path meets either, in its order
            with contextlib.suppress(TypeError, ArithmeticError):
                values[:] = map(_BACKEND_TYPES[self.backend], [f._table.get(x) for x in self.grid])
        return f if any(v is None for v in values) else values

    def columns(self, rows: tuple, js) -> list:
        """The prepared forms of the columns of ``rows`` at the positions
        ``js``, each made once.  Values not computed yet are computed row
        by row over the positions, the order in which a matrix of these
        columns built row by row first needs them, and so are the float
        columns built directly with an affine or a sampled row, each
        affine value by AffineFn's own operations in order (from 0.0,
        + float(c) * x ** k term by term), each sampled one the value the
        table looked up (:meth:`_row`); float columns of powers alone are
        built point by point, and exact ones by :func:`_polynomial_column`,
        with the sampled rows' values put in afterwards.  A column built
        directly evaluates no function; only a float one can raise,
        OverflowError where a point, a power or a coefficient leaves the
        float range (see :meth:`direct`)."""
        cols = self._by_position(rows)
        slow = [j for j in js if cols[j] is None]
        if not slow:
            return [cols[j] for j in js]
        kind, backend, grid = self._kind(rows), self.backend, self.grid
        if kind is None:
            values = [self._by_position(i) for i in rows]
            for i, row in zip(rows, values):
                for j in slow:
                    if row[j] is None:
                        row[j] = self._value(i, j)
            exact = backend is not Backend.FLOAT
            for j in slow:
                cols[j] = _form([row[j] for row in values], exact)
        elif backend is Backend.EXACT:
            d, lcm, terms, samples = kind
            for j in slow:
                cols[j] = _polynomial_column(*grid.pq(j), d, lcm, terms)
            for j in slow if samples else ():
                # the polynomial rows' reduced integers v over their scale s, and each
                # sample's a/b at j: every entry at _form's one scale, lcm(s, b, ...)
                (ints, s), vs = cols[j], {r: v[j] for r, v in samples.items()}
                big = math.lcm(s, *(v.denominator for v in vs.values()))
                cols[j] = [vs[r].numerator * (big // vs[r].denominator) if r in vs
                           else v * (big // s) for r, v in enumerate(ints)], big
        elif all(type(k) is int for k in kind):     # powers alone, point by point
            for j in slow:
                cols[j] = [x ** k for x in (float(grid[j]),) for k in kind], 1
        else:   # with an affine or sampled row: row by row, in the value path's order
            values = [[k[j] for j in slow] if type(k) is list else [
                x ** k if type(k) is int else functools.reduce(
                    lambda s, t: s + float(t[0]) * x ** t[1], k, 0.0)
                for x in map(float, map(grid.__getitem__, slow))] for k in kind]
            for j, *col in zip(slow, *values):
                cols[j] = col, 1
        return [cols[j] for j in js]

    def direct(self, rows: tuple, js) -> list | None:
        """:meth:`columns` of ``rows`` at the positions ``js`` in one
        call, where they are built directly (see :meth:`_kind`); else
        None, and None where that call raises (a float power or
        coefficient past the float range raises OverflowError), so that
        its caller asks for them as it would have, in its own order, and
        meets the first error it met before: a column with an infinite
        value at an earlier point than the overflow, or a window's
        singular denominator.  The columns made before the raise are
        kept: they are the values the caller's own asks would make."""
        if self._kind(rows) is not None:
            with contextlib.suppress(ArithmeticError):
                return self.columns(rows, js)
        return None

    def _by_position(self, key) -> list:
        """The columns of the rows tuple ``key``, or the values of function
        ``key``, at the grid's positions: None where not made yet."""
        return self._lists.get(key) or self._lists.setdefault(key, [None] * len(self.grid))

    def _value(self, i: int, j: int) -> Scalar:
        """The value of fns[i] at the point of position j."""
        return self.fns[i]._eval(self.grid[j], self.row_backend(i))

    def row_backend(self, i: int) -> Backend:
        """The table's backend, once fns[i]'s requirement is found not to
        clash with it: read once per function, at its first value."""
        if i not in self._rows:
            combine_backends(self.backend, self.fns[i].required_backend())
            self._rows.add(i)
        return self.backend

    def det(self, rows: tuple, js) -> Scalar:
        """det of the square matrix of the columns of ``rows`` at the
        positions ``js``."""
        return _scalar(_prepared_det(self.columns(rows, js), self.backend is not Backend.FLOAT))


def _direct_kind(fns: list, backend: Backend):
    """How columns of the functions ``fns`` are built directly on a table
    of ``backend``, or None.  A sampled function that the table builds
    directly is given as its values by position, a list (see
    :meth:`_PointTable._row`).  Float: when every function is a power, an
    affine combination of powers with int or float coefficients or such a
    list, the list of :func:`_float_row`'s k, (c, k) pairs and lists, as
    evaluate computes their values.  Exact: when all are polynomials with
    exact coefficients or such lists, :func:`_polynomial_column`'s
    arguments d, L and terms (a list's row has no term), then the lists
    by row, or None where there are none."""
    floats = [_float_row(f) for f in fns]
    if backend is Backend.FLOAT:
        return None if None in floats else floats
    if all(type(k) is int for k in floats):     # powers alone
        return max(floats), 1, floats, None
    samples = {r: f for r, f in enumerate(fns) if type(f) is list} or None
    polys = [{} if type(f) is list else _polynomial(f) for f in fns]
    if None in polys:
        return None
    lcm = math.lcm(*(c.denominator for poly in polys for c in poly.values()))
    terms = [[(k, int(c * lcm)) for k, c in poly.items() if c] for poly in polys]
    return max((k for row in terms for k, _ in row), default=0), lcm, terms, samples


def _float_row(f) -> int | tuple | None:
    """f's k if f is a power x ** k; the pairs (c, k) of its terms if f is
    an affine combination of powers with int or float coefficients, which
    a float table reads with no requirement clash; f itself if it is a
    sampled function's values by position (a list); else None."""
    if type(f) is AffineFn and all(type(s) is PowerFn and type(c) in (int, float)
                                   for c, s in f.terms):
        return tuple((c, s.k) for c, s in f.terms)
    return f.k if type(f) is PowerFn else f if type(f) is list else None


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


def _polynomial_column(p: int, q: int, d: int, lcm: int, terms: list) -> tuple[list, int]:
    """The column at the exact point x = p/q of rows of degree at most d
    whose coefficients' denominators have the lcm L, in its prepared form:
    for each row's nonzero terms (k, c * L) in ``terms``, the sum of
    c * L * p^k * q^(d-k), and the scale q^d * L, both over their gcd,
    as :func:`_form` makes them, with p/q in lowest terms.  A sampled
    row has no term, so it is 0 here and leaves the gcd as it is;
    :meth:`_PointTable.columns` puts its value in afterwards.  Rows x^k,
    given as their exponents k, need no gcd: that of x^d, p^d, is prime
    to q^d."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if type(terms[0]) is int:
        return [p ** k * q ** (d - k) for k in terms], q ** d
    ints = [sum([c * p ** k * q ** (d - k) for k, c in row]) for row in terms]
    g = math.gcd(q ** d * lcm, *ints)
    return [v // g for v in ints], q ** d * lcm // g


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


def check_denominator(den: float | tuple[int, int], forms: list, backend: Backend | None,
                      at: tuple, tol_factor: float = DEFAULT_TOL_FACTOR,
                      name: str = "prefix collocation determinant",
                      show_value: bool = True) -> None:
    """The denominator checks of every divided difference, for ``den``,
    the determinant of the collocation matrix with the prepared columns
    ``forms`` at the points ``at`` as :func:`_prepared_det` gives it, a
    float or an exact (det, scale) pair.  On the float backend an
    infinite or NaN ``den`` raises :class:`NonFiniteValue`, before the
    singular-denominator rule: that rule raises
    :class:`SingularDenominator` when ``den`` is zero or, on the float
    backend, within its positivity tolerance, which a negative
    ``tol_factor`` makes negative."""
    if backend is Backend.FLOAT:
        if not math.isfinite(den):
            raise NonFiniteValue(f"{name} at {at} is {den}")
        if abs(den) <= _tolerance(_biggest(forms), len(at), tol_factor) or den == 0:
            shown = f"{name} {den}" if show_value else name
            raise SingularDenominator(f"{shown} within tolerance at {at}")
    elif den[0] == 0:
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
    rejected, and so is one past MAX_TUPLE_BUDGET."""
    if math.comb(m, k) <= budget:
        return itertools.combinations(range(m), k), True
    if budget < 1:
        raise InputError(f"tuple budget must be >= 1, got {budget}")
    if budget > MAX_TUPLE_BUDGET:
        raise InputError(f"tuple budget {budget} exceeds the cap of {MAX_TUPLE_BUDGET} samples")
    rng = random.Random(seed)
    return [tuple(sorted(rng.sample(range(m), k))) for _ in range(budget)], False


# ---------------------------------------------------------------------------
# the sign scan behind grid positivity and every convexity mode
#
# A scan reads its columns from a point table, at each grid point it
# touches: in one call where they are built directly (_scan_columns),
# else group by group in the order a per-tuple scan meets them.  An
# exhaustive scan of tuples of two points or more then walks the
# increasing tuples depth first in lexicographic order (_walk, one walk
# for both backends, which reads the backend off its tally) and
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
# by tuple, in order.  So _Tally.add meets the tuples in lexicographic
# order, and an exact walk stops at its first violation (_Stop), which is
# its witness, unless it keeps the base of a cut that is not a prefix
# (see _sign_scan); its tuples_checked still reads C(m, n), as a
# certified scan's does.  A float scan for nonnegative determinants
# reads the windows of its columns' exact values first (_dyadic), unless
# it is one they cannot stand in for, and walks when they fail; a float
# walk never stops: its near-zero count reads every tuple.  The modes of
# one pinned base are ranges of one scan's positions (its parts): a
# float walk of the whole records each part's tuples too, and an exact
# part walks its own range, stopping at its own first violation.  A
# sampled scan, and a
# scan of one-point tuples, exhaustive or not, calls det's elimination
# on each tuple's prepared columns and _Tally.add on each (_scan_each).
# Every exact scan tallies the integer determinants of its columns'
# integer forms, which carry the sign, and scales its witness's value
# alone, once, by its columns' scales.

_NEAR_ZERO, _VIOLATION = "indeterminate", "violated"


@dataclass(frozen=True)
class SignScan:
    """Outcome of one sign scan.  ``verdict`` is "violated" or
    "indeterminate", with the lexicographically smallest such tuple as
    witness, or ``None`` when every tuple passed.  A scan given parts
    (see :func:`_sign_scan`) gives one per part too, each the outcome
    that a scan of the part's positions alone would give, with ``pairs``
    None."""

    tuples_checked: int
    exhaustive: bool
    verdict: str | None = None
    witness: tuple | None = None
    witness_value: Scalar | None = None
    indeterminate_count: int = 0
    #: For each (cut, width) the scan was given (``cuts``), the smallest
    #: pair (base, inner) over violating index tuples t of its base
    #: t[:cut] + t[cut + width:] and its inner tuple t[cut:cut + width],
    #: absent when none is, of an exhaustive scan that its windows pass
    #: ({}, on either backend) or of an exact one whose windows' lower
    #: part holds (see :func:`_certified`), else None, on a float walk
    #: too; not part of the outcome, which is the same either way.  A
    #: walk that stops at its first violation t, its cuts all prefix
    #: cuts, reads each pair (t[:cut], t[cut:]) there, the smallest of
    #: them all, since the pair orders as t does.
    pairs: dict | None = field(default=None, compare=False, repr=False)


class _Stop(Exception):
    """A violation met by a tally that stops there (``_Tally.stop``)."""


class _Tally:
    """Smallest violating and near-zero index tuples with their values,
    the number of near-zero tuples, and for each (cut, width) in
    ``cuts`` (none unless set) the smallest pair (``pairs``) of a
    violating tuple less its ``width`` entries after the first ``cut``,
    its base, and those entries, its inner tuple, of a scan whose values
    are exact or float (``exact``); ``at(t)`` gives the points of index
    tuple t.  ``parts`` (none unless set) holds an (a, b, tally) for each
    tally, of the same rule, that records the tuples of the indices a <=
    j < b as a scan of those alone would: the modes of one pinned base
    that one float walk serves (see :func:`_sign_scan`).  Every tuple
    this tally records whose first and last index lie in a part's range
    goes to that part's :meth:`add` too.  With ``stop`` set, :meth:`add`
    raises :class:`_Stop` at the first violation it records: a walk that
    gives it the tuples in order has its witness and the smallest pair
    of each prefix cut then."""

    def __init__(self, positive: bool, exact: bool, at, tol_factor: float):
        self.positive, self.exact, self.at, self.tol_factor = positive, exact, at, tol_factor
        self.first: dict[str, tuple] = {}
        self.near_zero = 0
        self.cuts: tuple = ()
        self.pairs: dict[tuple, tuple] = {}
        self.stop = False
        self.parts: list = []

    def add(self, t: tuple, value: Scalar, biggest: float | None = None) -> None:
        """The sign rule of every scan.  ``positive`` asks for value > 0:
        a value at most -tol is a violation, one at most tol near zero.
        Otherwise value >= 0 is asked: below -tol is a violation, below 0
        near zero.  A float value gets tol from ``biggest``, the largest
        |entry| of its matrix; an exact one has tol = 0, so nothing is
        near zero.  A tuple's tol reads its own matrix alone, so a part
        classifies it as a scan of the part's range alone would."""
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
        for c, w in self.cuts if kind is _VIOLATION else ():
            pair = (t[:c] + t[c + w:], t[c:c + w])
            self.pairs[c, w] = min(self.pairs.get((c, w), pair), pair)
        best = self.first.get(kind)
        if best is None or t < best[0]:
            self.first[kind] = (t, value)
        if self.parts:      # tested first: an empty loop costs each recorded tuple 8%
            for a, b, part in self.parts:
                if a <= t[0] and t[-1] < b:
                    part.add(t, value, biggest)
        if self.stop and kind is _VIOLATION:
            raise _Stop

    def scan(self, checked: int, exhaustive: bool, forms: dict, pairs=None) -> SignScan:
        """The outcome of a scan of ``checked`` tuples that this tally
        recorded: its smallest violating tuple, else its smallest near-zero
        one, as the witness, with its value, an exact one once scaled by
        its columns' scales (``forms`` by index); else no verdict."""
        for verdict in (_VIOLATION, _NEAR_ZERO):
            if verdict in self.first:
                t, value = self.first[verdict]
                if self.exact:
                    value = Fraction(value, math.prod(forms[j][1] for j in t))
                return SignScan(checked, exhaustive, verdict, self.at(t), value, self.near_zero,
                                pairs)
        return SignScan(checked, exhaustive, pairs=pairs)

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


def _sign_scan(domain: Domain, n: int, js, table: _PointTable, budget: int, seed: int,
               tol_factor: float, positive: bool, cuts: tuple = (), parts=()) -> list:
    """Classify the determinants of the columns of the first n functions
    of ``table`` for the increasing n-tuples of the increasing positions
    ``js`` of its sorted grid (exhaustive within ``budget``, else
    ``budget`` seeded samples) by the rule of :meth:`_Tally.add`, at the
    table's one backend: the one entry to every grid scan, positivity's
    and each convexity mode's.  Its checks come first, in this order:
    at least n positions (:class:`InsufficientGrid`), every point at
    ``js`` in ``domain``, 1 <= n <= len(table.fns)
    (:class:`DimensionMismatch`), and a finite ``tol_factor``
    (:func:`_finite_tol`).  An exhaustive scan of
    tuples of two points or more first reads its windows
    (:func:`_certified`): an exact one's, or a float nonnegative one's on
    its columns' exact values, where :func:`_dyadic` lets them stand in
    for the float walk, each column scaled to integers once, window 0's
    before the rest, so a scan whose window 0 fails scales only n
    columns; when they pass, so does the scan, with
    ``tuples_checked`` C(m, n) and no tuple near zero, and its
    :attr:`SignScan.pairs` are empty.  An exact exhaustive scan given
    ``cuts`` that walks reads its windows' lower part, for its pairs of
    a base and an inner tuple.  A float scan is given ``cuts`` only for
    its pairs, which only its windows give, so one whose windows fail
    does not walk, and its outcome is no verdict.  An exact walk stops
    at its first violation, the witness, when every cut it keeps is a
    prefix cut (cut + width == n), or it keeps none; its
    ``tuples_checked`` is C(m, n) either way.  Every column is read
    before the windows or the walk, and neither exact walk arithmetic
    nor a float walk under :func:`_dyadic`'s bound can raise, so no
    window pass and no stop skips an error.

    It returns a list: its own :class:`SignScan`, then, for each of
    ``parts``, ranges (a, b) of the indices of ``js`` of an exhaustive
    scan of two points or more, the scan that the positions js[a:b]
    alone would give, from the columns read once.  A range's
    windows are a run of the whole's, cut short at b, so when the
    whole's pass, every range's do; else each range reads its own: on
    the whole's columns only from the whole's first failing window f on,
    since every window before f passed, and none where its window at f
    holds the columns of the whole's, which failed; on its own columns'
    exact values, all of them, where :func:`_dyadic` refuses the
    whole's.  One whose windows fail is walked (:func:`_walk`): on a
    float scan by the one walk of the whole, whose tuples it records too
    (:attr:`_Tally.parts`), each with its own tolerance, so that every
    count and witness is its own; on an exact one by its own walk of its
    columns, from its range's first index, which stops at its own first
    violation."""
    if len(js) < n:
        raise InsufficientGrid(f"grid has {len(js)} points, need at least {n}")
    _check_domain(domain, table.grid, "grid point", js)
    if not 1 <= n <= len(table.fns):
        raise DimensionMismatch(f"prefix size {n} outside 1..{len(table.fns)}")
    tol_factor, m, rows = _finite_tol(tol_factor), len(js), tuple(range(n))
    tuples, exhaustive = _index_tuples(m, n, budget, seed)
    checked = math.comb(m, n) if exhaustive else len(tuples)
    exact, grid = table.backend is not Backend.FLOAT, table.grid
    forms = _scan_columns(table, rows, js, [range(n)] + [(j,) for j in range(n, m)]
                          if exhaustive else tuples)
    tally = _Tally(positive, exact, lambda t: tuple(grid[js[j]] for j in t), tol_factor)
    spans = [(a, b, _Tally(positive, exact, tally.at, tol_factor))
             for a, b in parts]
    cols = [forms[j][0] for j in range(m)] if exhaustive and n > 1 else None
    ints = cols if exact or cols is None else _dyadic(cols, n, positive, tol_factor)
    # f, or m when all pass; a float scan's windows scale its columns into ints
    passed = 0 if ints is None else _certified(ints, n, positive, () if exact else cols)
    pairs = {} if passed == m else None
    if cols is None:
        _scan_each(forms, tuples, tally)
    elif passed < m and (exact or not cuts):    # a float scan given cuts reads only windows
        # the parts whose own windows fail, each a range of the walk's columns.  On the
        # whole's columns, a part's windows before the whole's first failing one pass,
        # and one that holds that window's columns fails there
        walking = [(a, b, part) for a, b, part in spans
                   for lo in [a if ints is None else max(a, passed)]
                   for own in [ints[lo:b] if ints is not None
                               else _dyadic(cols[a:b], n, positive, tol_factor)]
                   if own is None or ints is not None and a <= passed
                   and min(b, passed + n) == min(m, passed + n)
                   or _certified(own, n, positive, () if exact else cols[lo:b]) < b - lo]
        if not exact:
            tally.parts = walking
            _walk(cols, n, tally)
        else:
            if cuts and _certified(ints, n - 1, True) == m:     # the lower part, on its own
                tally.cuts, pairs = cuts, tally.pairs
            # an exact walk stops at its first violation, so each part walks its own
            for a, b, walker in [(0, m, tally)] + walking:
                walker.stop = all(c + w == n for c, w in walker.cuts)
                with contextlib.suppress(_Stop):
                    _walk(ints[a:b], n, walker, a)
    return [tally.scan(checked, exhaustive, forms, pairs)] + [
        part.scan(math.comb(b - a, n), True, forms) for a, b, part in spans]


def _scan_columns(table: _PointTable, rows: tuple, js, touched) -> dict:
    """The table's columns of ``rows`` at every index j in ``touched``
    (of the position js[j] of its grid): their prepared forms, by index.
    A float column holding an infinite or NaN value raises
    :class:`NonFiniteValue`.  Columns built directly are asked
    for in one call (:meth:`_PointTable.direct`), then checked in the
    order in which a scan that builds each tuple's matrix first meets
    their points; other columns, and directly built ones whose one call
    raised, are asked for group by group, in that order, so the first
    failing evaluation or check is the same either way.  A table that
    builds none of them directly (a pinned base) is asked group by
    group without first listing the touched points."""
    made = order = None
    if table._kind(rows) is not None:
        order = list(dict.fromkeys(itertools.chain.from_iterable(touched)))
        made = table.direct(rows, [js[j] for j in order])
    exact = table.backend is not Backend.FLOAT
    forms: dict = {}
    for group in touched if made is None else [order]:
        new = [j for j in group if j not in forms]
        for j, form in zip(new, made or table.columns(rows, [js[j] for j in new])):
            if not exact and not all(map(math.isfinite, form[0])):
                v = next(v for v in form[0] if not math.isfinite(v))
                raise NonFiniteValue(f"function value {v} at grid point {table.grid[js[j]]}")
            forms[j] = form
    return forms


def _scan_each(forms: dict, tuples, tally: _Tally) -> None:
    """Per-tuple elimination of the prepared columns ``forms`` (by index),
    in tuple order: an exact tuple's value is the det of its integer
    columns, which has its determinant's sign (see :func:`_sign_scan`)."""
    for t in tuples:
        matrix = [forms[j] for j in t]
        if tally.exact:
            tally.add(t, _prepared_det(matrix, exact=True)[0])
        else:
            tally.add(t, _prepared_det(matrix, exact=False), _biggest(matrix))


def _walk(cols: list, n: int, tally: _Tally, start: int = 0) -> None:
    """Depth-first walk over the increasing n-tuples of column indices,
    column i of ``cols`` having index start + i, in lexicographic order,
    at the backend of ``tally``: exact, Bareiss elimination over columns
    scaled to integers by the lcm of their denominators, so the walk
    records integer determinants of the scaled matrix, which carry the
    sign; float, partial pivoting, the state the running pivot product
    with swap signs.  Level d < n - 2 eliminates the tuple's d-th column
    (already reduced by the prefix) by one step of :func:`_eliminate`
    from the prefix's state, which reduces the later columns, or finds
    it zero, which makes every extension's determinant zero.  Levels
    n - 2 and n - 1 are one pass: a pivot on column j, of two entries
    (a, b), gives the determinants of the tuples that end in j and one
    later column (x, y) by :func:`_eliminate`'s operations, and
    :func:`_float_last`'s on a float walk, for :meth:`_Tally.row`; where
    (a, b) is zero, each tuple goes to :meth:`_Tally.add` with value 0.
    A float walk reads the largest |entry| of each column, by its index,
    so it starts at 0: it is always the whole scan's, whose parts it
    records through :attr:`_Tally.parts`.  It takes n >= 2: a scan of
    one-point tuples is :func:`_scan_each`'s."""
    exact, last = tally.exact, n - 1
    colmax = None if exact else [max(map(abs, c)) for c in cols]
    sufmax = colmax and list(itertools.accumulate(reversed(colmax), max))[::-1]  # max(colmax[j:])

    def visit(d, prefix, state, big, idx, cands):
        for pos in range(len(cands) - (last - d)):
            j = idx[pos]
            t = prefix + (j,)
            if d < last - 1:
                done = _eliminate(cands[pos:], 1, exact, state)
                if done is not None:
                    visit(d + 1, t, done[0], colmax and max(big, colmax[j]), idx[pos + 1:],
                          done[2])
                    continue
            else:
                (a, b), later = cands[pos], cands[pos + 1:]
                if exact and (a or b):      # Bareiss: the first nonzero entry pivots
                    sign, prev = state
                    tally.row(t, idx[pos + 1:],
                              [sign * ((a * y - b * x) // prev) for x, y in later] if a
                              else [-sign * (b * x // prev) for x, y in later])
                    continue
                if not exact and ((swap := abs(b) > abs(a)) or a != 0.0):   # pivots on a at a tie
                    if swap:
                        r, f = -state * b, a / b
                        values = [r * v if (v := x - f * y) != 0.0 else 0.0 for x, y in later]
                    else:
                        r, f = state * a, b / a
                        values = [r * v if (v := y - f * x) != 0.0 else 0.0 for x, y in later]
                    top = max(big, colmax[j])
                    tally.row(t, idx[pos + 1:], values, max(top, sufmax[j + 1]), top, colmax)
                    continue
            for tail in itertools.combinations(idx[pos + 1:], last - d):
                u = t + tail
                tally.add(u, 0 if exact else 0.0, colmax and max(colmax[i] for i in u))

    visit(0, (), (1, 1) if exact else 1.0, colmax and 0.0, range(start, start + len(cols)), cols)


def _certified(ints: list, n: int, positive: bool, floats=()) -> int:
    """The first of the windows of consecutive columns that fails to
    certify that every increasing n-tuple of the integer columns
    ``ints``, on their rows 0..n-1, has a determinant > 0 (``positive``)
    or >= 0 (see the module docstring), or len(ints) when none fails, and
    the certificate holds.  Window s holds the columns s..s+w-1, w =
    min(n, m - s), and Bareiss elimination on them without pivoting makes
    its pivot at step d (from 0) the leading (d+1)-minor: every pivot
    must be > 0, except that a nonnegative scan allows a last pivot of 0
    at step n - 1.  So window s of the columns s..b-1 alone, b > s, is a
    prefix of window s of ``ints``, and passes where that one does.  Rows
    past n - 1 are reduced but never pivot, so the lower part of an n-row
    certificate, its steps 0..n-2 on every window, is itself the
    certificate ``_certified(ints, n - 1, True)``: read on its own, it
    cannot stop at a last step that fails in a window before the one
    where a lower step fails.  Given a float scan's columns ``floats``,
    ``ints`` holds those of them already scaled to integers
    (:func:`_integers`), a prefix, to which it appends, in place, the
    columns not scaled yet: window 0's before reading it, and the rest
    before window 1, each column once.  So a scan whose window 0 fails
    scales only its first n columns, and one that reads on scales the
    rest in one pass, with no work per window."""
    for s in range(len(floats or ints)):
        if len(ints) < len(floats):
            ints += map(_integers, floats[len(ints):n if s == 0 else None])
        cols, state = ints[s:s + n], (1, 1)
        for d in range(len(cols)):
            if (v := cols[0][0]) < 0 or v == 0 and (positive or d < n - 1):
                return s
            if len(cols) > 1:
                state, _, cols = _eliminate(cols, 1, True, state)
    return len(ints)


def _dyadic(cols: list, n: int, positive: bool, tol_factor: float) -> list | None:
    """The float columns ``cols`` of a scan of n-tuples as the integer
    columns that :func:`_certified` reads in place of the float walk,
    each column scaled by its largest power-of-two denominator
    (:func:`_integers`), which keeps every determinant's sign on the
    floats' exact values: an empty list, to which :func:`_certified`,
    given ``cols``, appends window 0's columns before reading it and the
    rest before window 1.  None where the windows cannot stand in for
    the walk: a positive scan, whose two-sided band they cannot clear;
    ``tol_factor`` <= 0, where the walk calls a zero that rounds negative
    a violation; or an entry, of any column, at or past 2^(1023/n - n/2),
    where the walk's determinants (at most 2^(n(n-1)/2) times the n-th
    power of the largest |entry|, by partial pivoting's growth) or its
    tolerances may overflow, which it raises.  That bound reads every
    column up front: a column past it that no window reaches is still a
    float walk's overflow."""
    return None if positive or tol_factor <= 0 or max(
        map(abs, itertools.chain.from_iterable(cols))) >= 2.0 ** (1023 / n - n / 2) else []


def _integers(col: list) -> list:
    """The float column ``col`` scaled to integers by its largest
    power-of-two denominator q: every finite float is a dyadic rational
    p/d, d a power of two dividing q, so it scales to p * (q // d)."""
    ratios = list(map(float.as_integer_ratio, col))
    return [p << (bits - d.bit_length()) for bits in [max([d for _, d in ratios]).bit_length()]
            for p, d in ratios]


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
    Raises :class:`NonFiniteValue` on an infinite or NaN value.  An
    exhaustive float check of rational input answers on the exact engine
    (:func:`_route`), with 0 indeterminate tuples: ``tol_factor`` then
    governs only its witness's float value.
    """
    pts = sorted_grid(grid)
    return _route(lambda table: [_positivity(system.domain, k, range(len(pts)), table, budget,
                                             seed, tol_factor)],
                  _PointTable(system.basis, pts),
                  0 <= k and math.comb(len(pts), k) <= budget, tol_factor)[0]


def _positivity(domain: Domain, k: int, js, table: _PointTable, budget: int, seed: int,
                tol_factor: float) -> PositivityReport:
    """:func:`is_positive_chebyshev` on ``domain`` at the increasing
    positions ``js`` of the sorted grid of ``table``, whose functions are
    exactly the system's basis: the report of one positive
    :func:`_sign_scan`, which makes every check, so k past the basis is
    its :class:`DimensionMismatch`."""
    scan = _sign_scan(domain, k, js, table, budget, seed, tol_factor, positive=True)[0]
    return PositivityReport(scan.verdict or "positive_on_grid", k, scan.tuples_checked,
                            scan.exhaustive, seed, scan.witness, scan.witness_value,
                            scan.indeterminate_count)


# ---------------------------------------------------------------------------
# the exact image of a float check
#
# Every finite float is a dyadic rational, so a float grid has an exact
# one-scale form, its integers over the largest power-of-two denominator
# of its points, and powers, constants, affine combinations and sampled
# functions of finite float scalars have exact values there.  An
# exhaustive float sign scan of such input (positivity, direct, pinned
# and agreement) reads its signs off the exact engine, with its window
# certificate, sign identity and stop at the first violation, and spells
# its report in float: its witness and base are the float points and its
# value the float walk's there.  Sampled scans, divided differences,
# variation and the identity suites stay float.

#: The most bits an integer of an exact image may take: a grid point
#: over the grid's one scale, that scale, or the numerator or denominator
#: of a function's scalar.  Past it the check keeps the float walk.  On
#: poly:5 scans of the 12 points 2^-b/3 and i/8 (i = 1..11), whose
#: integers take b + 55 bits, the exact engine was faster than the float
#: walk up to b = 400 and slower from about b = 500 on, for a direct
#: scan of a sampled function (x^6 at b = 800; positivity never).
MAX_IMAGE_BITS = 512


def _rational(c) -> Fraction | None:
    """The finite scalar c as a Fraction within MAX_IMAGE_BITS, else None."""
    if isinstance(c, float) and not math.isfinite(c):
        return None
    r = Fraction(c)
    return r if max(abs(r.numerator), r.denominator).bit_length() <= MAX_IMAGE_BITS else None


def _image_fn(f, grid: PointTuple):
    """The function whose values at the exact values of the float points
    of ``grid`` are f's true values there, or None: a power as it is; a
    constant or affine combination with its scalars made Fractions by
    :func:`_rational`.  A sampled function's image is its values so made
    at the grid's points, a list by position, which an exact image table
    is given (see :func:`_exact_image`); in an affine combination, the
    sampled function of those values at the exact points."""
    if type(f) is PowerFn:
        return f
    if type(f) is ConstFn:
        scalars, make = [f.c], lambda cs: ConstFn(cs[0])
    elif type(f) is AffineFn:
        inner = [SampledFn(tuple(map(Fraction, grid)), tuple(g)) if type(g) is list else g
                 for g in (_image_fn(s, grid) for _, s in f.terms)]
        if None in inner:
            return None
        scalars, make = [c for c, _ in f.terms], lambda cs: AffineFn(tuple(zip(cs, inner)))
    elif type(f) is SampledFn:
        scalars, make = [f._table.get(x) for x in grid], list
    else:
        return None
    rs = [None if c is None else _rational(c) for c in scalars]
    return None if None in rs else make(rs)


def _exact_image(table: _PointTable) -> _PointTable | None:
    """The exact image of a float check of ``table``'s functions on its
    sorted grid: the point table of :func:`_image_fn`'s functions on the
    grid's one-scale integer form, given each sampled function's image as
    its values (the table keeps the sampled function itself, which it
    does not ask for them), or None when the table reads its grid
    exactly, a function has no image, an integer would pass
    MAX_IMAGE_BITS, or the float input fails a check: a point that is
    not finite, or a function value that raises or is not finite.  The
    image's grid holds the exact values of the float points, so its
    scan's domain check (:func:`_sign_scan`) fails exactly where the
    float check's does, and :func:`_route` then answers on the float
    table.  The table keeps the float values, which the witnesses'
    float values and a float walk read again."""
    if table.backend is not Backend.FLOAT:
        return None
    grid = table.grid
    try:
        ratios = [x.as_integer_ratio() for x in grid]
    except (ValueError, OverflowError):     # a NaN or infinite point
        return None
    # the functions' images up to the first that has none
    fns = tuple(itertools.takewhile(lambda f: f is not None,
                                    (_image_fn(f, grid) for f in table.fns)))
    if len(fns) < len(table.fns):
        return None
    q = max((d for _, d in ratios), default=1)
    nums = [p * (q // d) for p, d in ratios]
    if max(q, *map(abs, nums)).bit_length() > MAX_IMAGE_BITS:
        return None
    try:
        _scan_columns(table, tuple(range(len(fns))), range(len(grid)), [range(len(grid))])
    except (ChebconvexError, ArithmeticError):  # the float check meets it, in its own order
        return None
    return _PointTable(tuple(f if type(image) is list else image
                             for f, image in zip(table.fns, fns)),
                       PointTuple(ordering=OrderingClass.STRICTLY_INCREASING, nums=nums, q=q),
                       {i: image for i, image in enumerate(fns) if type(image) is list})


def _route(run, table: _PointTable, exhaustive: bool, tol_factor: float,
           derived=None) -> list:
    """The verdicts ``run(table)`` gives (positivity reports or
    convexity verdicts) of a check whose scans are all ``exhaustive``,
    on the functions of ``table`` and its sorted grid.  A float check
    with an :func:`_exact_image` answers on the image, each verdict
    spelled in float by :func:`_float_witness` (``derived`` makes the
    pinned base a verdict's witness base reads, once for every verdict
    of that base): the image gives the check its verdicts, witnesses
    and bases, and the float walk gives its values, so ``run(image)``
    need give a violated verdict no value (a pinned one read off the
    direct walk has None, see convexity._read_off).  A violated verdict
    whose float value is no definite violation by :meth:`_Tally.add`'s
    float rule, where the float walk may meet another witness first, is
    the float walk's verdict when that is violated too, and the exact
    one when the float walk raises.  When a check on the image (its
    domain check among them) or a float witness value raises, the check
    is the float walk's, which meets its own error, with its own
    message, or none; input errors are met on the float input before
    the image is made."""
    image = _exact_image(table) if exhaustive else None
    if image is None:
        return run(table)
    derived = derived and functools.cache(derived)     # one pinned base per witness base
    try:
        verdicts = [_float_witness(v, table, tol_factor, derived) for v in run(image)]
    except (ChebconvexError, ArithmeticError):
        return run(table)
    if not all(definite for _, definite in verdicts):
        # a float error alone leaves the exact verdicts standing
        with contextlib.suppress(ChebconvexError, ArithmeticError):
            return [w if not definite and w.verdict == _VIOLATION else v
                    for (v, definite), w in zip(verdicts, run(table))]
    return [v for v, _ in verdicts]


def _float_witness(v, table: _PointTable, tol_factor: float, derived) -> tuple:
    """The exact verdict ``v`` of a float check spelled in float, and
    whether it is definite there: its witness (and base) the points of
    the float grid of ``table``, and its value the float walk's there,
    the det of the float columns of ``table`` (of ``derived(table, k,
    base, tol_factor)`` for a pinned base, which :func:`_route` makes once for
    every verdict of that base), bit-identical to the walk's: a pinned
    base's values do not depend on the order it makes them in.  The
    image gives the verdict, witness and base, and this the value, the
    only one the report shows: ``v``'s own value is not read, and may be
    None.  A verdict that is not violated is definite."""
    if v.verdict != _VIOLATION:
        return v, True
    grid = table.grid
    # a point's position by its integer ratio in lowest terms, a float's or a Fraction's alike
    at = {x.as_integer_ratio(): j for j, x in enumerate(grid)}
    t, spelled = tuple(at[x.as_integer_ratio()] for x in v.witness), {}
    if getattr(v, "witness_base", None) is not None:
        base = tuple(at[x.as_integer_ratio()] for x in v.witness_base)
        table = derived(table, len(base), base, tol_factor)
        spelled["witness_base"] = tuple(grid[j] for j in base)
    forms = table.columns(tuple(range(len(t))), t)
    value = _prepared_det(forms, False)
    tally = _Tally(type(v) is PositivityReport, False, lambda t: v.witness, tol_factor)
    tally.add(t, value, _biggest(forms))
    return replace(v, witness=tuple(grid[j] for j in t), witness_value=value,
                   **spelled), _VIOLATION in tally.first


# ---------------------------------------------------------------------------
# Sylvester's determinant identity

@dataclass(frozen=True)
class ResidualReport:
    """Both sides of an identity, each computed on its own, and their
    absolute difference: exactly zero on the exact backend when the
    identity holds.  Sylvester's identity (:func:`sylvester_check`), the
    factorization behind the induced and convexity checks and the
    power-sum identity report through it."""

    lhs: Scalar
    rhs: Scalar
    residual: Scalar   # |lhs - rhs|

    @property
    def relative_residual(self) -> float:
        """The residual over the larger of 1 and the two sides' sizes, as
        a float: an exact quotient, rounded once, so sides past the float
        range give it too; a float one is the float division's."""
        return float(self.residual / max(1, abs(self.lhs), abs(self.rhs)))


@dataclass(frozen=True)
class SylvesterReport(ResidualReport):
    """Sylvester's identity for one (A, k): ``lhs`` is the det of the
    matrix of bordered minors, ``rhs`` (leading k-minor) ** (n-k-1) *
    det(A), for the n x n matrix A."""

    n: int
    k: int


def sylvester_check(rows: Sequence[Sequence[Scalar]], k: int) -> SylvesterReport:
    """Verify det(B) == (det A_k)**(n-k-1) * det(A) for the n x n matrix
    A given as its ``rows``, where A_k is its leading k x k block and B
    the matrix of its bordered minors: entry (i, j), for k <= i, j < n,
    is the minor of A on rows 0..k-1, i and columns 0..k-1, j.

    A is read once, as :func:`det` reads it, and every minor is
    eliminated from those columns; B is a matrix of scalars, passed to
    :func:`det`.  Both sides are computed directly; no division is
    performed, so a singular leading block is handled like any other
    matrix.  ``k`` outside 1..n-1 raises :class:`IndexOutOfRange`.
    """
    forms, exact = _given(rows)
    n = len(forms)
    if not 1 <= k <= n - 1:
        raise IndexOutOfRange(f"k={k} outside 1..{n - 1}")

    def minor(rs, js) -> Scalar:
        """The minor of A on rows ``rs`` and columns ``js``."""
        return _scalar(_prepared_det([([forms[j][0][r] for r in rs], forms[j][1]) for j in js],
                                     exact))

    lhs = det([[minor([*range(k), i], [*range(k), j]) for j in range(k, n)] for i in range(k, n)])
    rhs = minor(range(k), range(k)) ** (n - k - 1) * minor(range(n), range(n))
    return SylvesterReport(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), n=n, k=k)
