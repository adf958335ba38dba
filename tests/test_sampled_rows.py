"""Sampled functions built directly by the point table: a sample whose
requirement does not clash with the table's backend and whose table holds
every grid point is looked up once, by grid position, and its columns are
built with the polynomial rows beside it.  Exact columns are checked
against ``_form`` of evaluate()'s values (the same integers and the same
scale), float ones against evaluate() bit for bit.  A sample that misses
a point or whose requirement clashes keeps the value path, and meets its
error, with its message, at the same point as before.  Also the exact
image of a float check, which is not made past the first function that
has none and takes a sample's values by position, and the domain check of a sampled basis function."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebconvex import determinant
from chebconvex.convexity import check_convex_direct
from chebconvex.core import (
    AffineFn,
    Backend,
    ChebyshevSystem,
    ConstFn,
    FiniteSet,
    Interval,
    PointTuple,
    PowerFn,
    SampledFn,
    affine,
    evaluate,
)
from chebconvex.determinant import _form, _PointTable
from chebconvex.errors import InputError
from chebconvex.systems import polynomial_system, trig_odd_system


def one_scale(xs) -> PointTuple:
    """The exact points ``xs`` as integers over one scale, as the CLI
    reads an exact grid."""
    fractions = [Fraction(x) for x in xs]
    q = math.lcm(*(x.denominator for x in fractions))
    return PointTuple(nums=[x.numerator * (q // x.denominator) for x in fractions], q=q)


def bits(v: float) -> bytes:
    return struct.pack("d", v)


def value_path(fns, rows, xs, exact: bool) -> list:
    """The columns of the value path: evaluate() of each row at each
    point, in its prepared form."""
    return [_form([evaluate(fns[i], x) for i in rows], exact) for x in xs]


def direct_columns(fns, rows, grid) -> list:
    """The columns the table builds directly, asserting that it does."""
    table = _PointTable(tuple(fns), grid)
    cols = table.direct(tuple(rows), range(len(grid)))
    assert cols is not None
    return cols


# ---------------------------------------------------------------------------
# exact: the merged columns are _form's

EXACT_VALUES = st.one_of(st.integers(-20, 20), st.just(0), st.just(Fraction(0)),
                         st.builds(Fraction, st.integers(-50, 50), st.integers(1, 36)))
COEFS = st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-9, 9),
                                                st.integers(1, 15)))
POLY_ROWS = st.one_of(
    st.builds(PowerFn, st.integers(0, 6)),
    st.builds(ConstFn, COEFS),
    st.lists(st.tuples(COEFS, st.builds(PowerFn, st.integers(0, 6))), min_size=1, max_size=3)
    .map(lambda terms: AffineFn(tuple(terms))))
EXACT_GRIDS = st.lists(st.one_of(st.integers(-9, 9),
                                 st.builds(Fraction, st.integers(-90, 90), st.integers(1, 21))),
                       min_size=1, max_size=6, unique=True)


@settings(max_examples=300, deadline=None)
@given(EXACT_GRIDS, st.lists(POLY_ROWS, max_size=4), st.integers(1, 2), st.data())
def test_exact_sampled_columns_are_the_value_paths_form(xs, polys, samples, data):
    """One or two samples, with int, Fraction and zero values, beside
    powers, constants and affine rows with Fraction coefficients, at
    negative points and non-dyadic denominators, on the grid as given (an
    all-int grid is neutral) and over one scale: the same integers and
    the same scale as _form of evaluate()'s values."""
    fns = list(polys)
    for _ in range(samples):
        values = data.draw(st.lists(EXACT_VALUES, min_size=len(xs), max_size=len(xs)))
        fns.insert(data.draw(st.integers(0, len(fns))), SampledFn(tuple(xs), tuple(values)))
    rows = data.draw(st.permutations(range(len(fns))))
    want = value_path(fns, rows, [Fraction(x) for x in xs], True)
    for grid in (PointTuple(xs), one_scale(xs)):
        assert direct_columns(fns, rows, grid) == want


def test_exact_sampled_column_by_hand():
    """x^0, x, 1/3 x^2 and f at x = -2/7, where f = 5/6: the polynomial
    rows over their reduced scale 147 = 3 * 7^2, then every entry at the
    one scale lcm(147, 6) = 294; at 3/7, where f = 0, the polynomial rows'
    reduced scale is 49 (1/3 * 9/49 = 3/49), and a zero keeps it."""
    fns = (PowerFn(0), PowerFn(1), affine((Fraction(1, 3), PowerFn(2))),
           SampledFn((Fraction(-2, 7), Fraction(3, 7)), (Fraction(5, 6), 0)))
    cols = direct_columns(fns, range(4), one_scale([Fraction(-2, 7), Fraction(3, 7)]))
    assert cols == [([294, -84, 8, 245], 294), ([49, 21, 3, 0], 49)]
    assert cols == value_path(fns, range(4), [Fraction(-2, 7), Fraction(3, 7)], True)


def test_a_sample_on_an_all_int_grid():
    """A neutral grid that its sample reads exact, as int points and over
    one scale (whose points are Fractions that hash as the table's ints):
    both equal the value path."""
    xs = [-3, -1, 0, 2, 5]
    f = SampledFn(tuple(xs), (Fraction(1, 3), 0, -2, 7, Fraction(-9, 4)))
    fns = polynomial_system(3).basis + (f,)
    want = value_path(fns, range(4), xs, True)
    assert direct_columns(fns, range(4), PointTuple(xs)) == want
    assert direct_columns(fns, range(4), one_scale(xs)) == want
    assert direct_columns(fns, (3, 0), PointTuple(xs)) == value_path(fns, (3, 0), xs, True)


def test_a_sample_with_more_points_than_the_grid():
    """A table point off the grid (1/3 on a grid over 4, and 10) is not
    looked up; the grid's own points are found."""
    xs = [Fraction(-1, 4), Fraction(1, 2), Fraction(3, 4)]
    f = SampledFn((Fraction(1, 3), *xs, 10), (1, Fraction(2, 5), -1, 0, 3))
    fns = (PowerFn(0), PowerFn(1), f)
    assert direct_columns(fns, range(3), one_scale(xs)) == value_path(fns, range(3), xs, True)


# ---------------------------------------------------------------------------
# float: evaluate() bit for bit

FLOAT_VALUES = st.one_of(st.floats(-1e6, 1e6), st.just(-0.0), st.just(5e-324),
                         st.integers(-10, 10))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=6, unique=True),
       st.integers(1, 2), st.data())
def test_float_sampled_columns_are_evaluate_bit_for_bit(xs, samples, data):
    """Float samples, and samples of int points and values on a float
    grid, beside powers and affine rows of powers with int and float
    coefficients: evaluate()'s values bit for bit."""
    fns = [PowerFn(0), PowerFn(2), affine((0.1, PowerFn(3)), (-2, PowerFn(1)))]
    for _ in range(samples):
        values = data.draw(st.lists(FLOAT_VALUES, min_size=len(xs), max_size=len(xs)))
        fns.insert(data.draw(st.integers(0, len(fns))), SampledFn(tuple(xs), tuple(values)))
    rows = data.draw(st.permutations(range(len(fns))))
    cols = direct_columns(fns, rows, PointTuple(xs))
    for x, (col, scale) in zip(xs, cols):
        assert scale == 1
        assert [bits(v) for v in col] == [bits(evaluate(fns[i], x)) for i in rows]


def test_a_float_table_on_an_all_int_grid():
    """An int sample on an all-int grid that a float sample makes float:
    both are looked up by the int points, as _eval looks them up."""
    xs = [-2, 0, 1, 4]
    fns = (PowerFn(0), SampledFn(tuple(xs), (1, -3, 0, 2)),
           SampledFn(tuple(map(float, xs)), (0.5, -0.25, 1e300, 3.0)))
    table = _PointTable(fns, PointTuple(xs))
    assert table.backend is Backend.FLOAT
    assert table.direct((0, 1, 2), range(4)) == [
        ([1.0, float(v), w], 1) for v, w in zip((1, -3, 0, 2), (0.5, -0.25, 1e300, 3.0))]


# ---------------------------------------------------------------------------
# fallbacks: the value path, its first error and its message

def outcome(make) -> str:
    try:
        return repr(make())
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


MIXED = ("BackendMismatch: exact and float scalars mixed in one computation; "
         "convert explicitly with to_exact()/to_float()")
HALVES = [Fraction(i, 2) for i in range(-3, 5)]


@pytest.mark.parametrize("grid, f, message", [
    # a sample that misses one grid point: the sixth, or the first
    (HALVES, SampledFn(tuple(HALVES[:5] + HALVES[6:]), tuple(range(7))),
     "EvaluationOutsideSupport: sampled function has no value at Fraction(1, 1)"),
    ([float(x) for x in HALVES], SampledFn(tuple(float(x) for x in HALVES[1:]), tuple(range(7))),
     "EvaluationOutsideSupport: sampled function has no value at -1.5"),
    # a Fraction-valued sample on a float grid
    ([float(x) for x in HALVES], SampledFn(tuple(HALVES), (Fraction(1, 3),) * 8), MIXED),
    # a float-pointed sample on an exact grid
    (HALVES, SampledFn(tuple(float(x) for x in HALVES), tuple(range(8))), MIXED),
    # a value past the float range, on a float grid: the value path's overflow
    ([float(x) for x in HALVES], SampledFn(tuple(float(x) for x in HALVES),
                                           (1,) * 7 + (10 ** 400,)),
     "OverflowError: int too large to convert to float"),
])
def test_fallbacks_keep_the_value_paths_error(grid, f, message):
    """A sample not built directly is read value by value: the table's
    columns raise evaluate()'s error at the first value that fails, and a
    direct convexity check raises it at the same point."""
    fns = polynomial_system(3).basis + (f,)
    grids = [PointTuple(grid)] + ([one_scale(grid)] if type(grid[0]) is Fraction else [])
    for pts in grids:
        table = _PointTable(fns, pts)
        assert table.direct(tuple(range(4)), range(len(grid))) is None
        assert outcome(lambda: table.columns(tuple(range(4)), range(len(grid)))) == message
        assert outcome(lambda: check_convex_direct(polynomial_system(3), f, pts)) == message


def test_a_fallback_keeps_the_earlier_rows_error():
    """Row by row: a power that overflows at a later point comes before
    the sample's overflowing value at the first point, as the value path
    meets them."""
    xs = [1.0, 1e200, 2.0]
    fns = (PowerFn(0), PowerFn(2), SampledFn(tuple(xs), (10 ** 400, 1, 2)))
    table = _PointTable(fns, PointTuple(xs))
    assert table.direct((0, 1, 2), range(3)) is None
    assert outcome(lambda: table.columns((0, 1, 2), range(3))) == \
        "OverflowError: (34, 'Numerical result out of range')"


class CountedTable(dict):
    """A sampled function's table that counts the points looked up."""
    looked_up = 0

    def get(self, key, default=None):
        self.looked_up += 1
        return super().get(key, default)


def test_a_sample_is_looked_up_once_per_table():
    """Every rows tuple that holds the sample reads its one lookup, a
    point at a time."""
    xs = [Fraction(i, 3) for i in range(6)]
    f = SampledFn(tuple(xs), tuple(range(6)))
    object.__setattr__(f, "_table", CountedTable(f._table))
    table = _PointTable(polynomial_system(3).basis + (f,), one_scale(xs))
    for rows in ((0, 1, 2, 3), (0, 3), (3,), (1, 3, 0)):
        assert table.direct(rows, range(6)) is not None
    assert f._table.looked_up == len(xs)


def test_verdicts_of_sampled_checks_stand():
    """A convex and a violated sample of x^4 - x^3 on both backends, with
    the exact image of the float check built directly too."""
    xs = [Fraction(i, 4) for i in range(-5, 7)]
    values = [x ** 4 - x ** 3 for x in xs]
    nudged = values[:6] + [values[6] + Fraction(1, 2)] + values[7:]
    for vs, convex in ((values, True), (nudged, False)):
        for pts, ys in ((one_scale(xs), vs), (PointTuple([float(x) for x in xs]),
                                               [float(v) for v in vs])):
            f = SampledFn(tuple(pts), tuple(ys))
            assert check_convex_direct(polynomial_system(4), f, pts).is_convex is convex


# ---------------------------------------------------------------------------
# the exact image stops at the first function without one

def test_the_image_is_not_made_past_the_first_function_without_one(monkeypatch):
    """trig-odd:1 with a sampled f: cos has no image, so neither sin nor
    f is asked for one, and the report is the float walk's."""
    lo, hi = -1.5, 1.5
    xs = [lo + 0.25 * i for i in range(1, 12)]
    f = SampledFn(tuple(xs), tuple(x * x for x in xs))
    system = trig_odd_system(1, lo, hi)
    asked = []
    real = determinant._image_fn

    def recorded(g, grid):
        image = real(g, grid)
        asked.append((g, image is None))
        return image
    monkeypatch.setattr(determinant, "_image_fn", recorded)
    report = check_convex_direct(system, f, xs)
    first = next(i for i, (_, none) in enumerate(asked) if none)
    assert [g for g, _ in asked] == list(system.basis[:first + 1])
    assert repr(report) == (
        "ConvexityVerdict(mode='direct', verdict='violated', tuples_checked=330, seed=0, "
        "ell=None, witness=(-1.25, -1.0, -0.75, -0.5), witness_value=-0.00041842582212233564, "
        "witness_base=None, bases_checked=0, bases_skipped=0, indeterminate_count=0)")


# ---------------------------------------------------------------------------
# the exact image of a float check takes a sample's values by position

def exact_twin(f):
    """f with its float scalars, and a sample's float points, made exact."""
    if type(f) is SampledFn:
        return SampledFn(tuple(map(Fraction, f.points)), tuple(map(Fraction, f.values)))
    if type(f) is AffineFn:
        return AffineFn(tuple((Fraction(c), exact_twin(s)) for c, s in f.terms))
    return f


@pytest.mark.parametrize("nested", [False, True])
def test_the_image_is_given_a_samples_values_by_position(monkeypatch, nested):
    """A sampled f's image is its values, made Fractions, at the grid's
    positions: no sampled function is made for it, the table keeps f,
    asks f for no value and reads its requirement as met.  In an affine
    combination the sample's image is still a sampled function.  Either
    way the image's columns are those of the exact twins of the float
    input."""
    xs = [i / 8 - 0.5 for i in range(10)]
    sample = SampledFn(tuple(xs), tuple(x ** 3 - 0.375 * x for x in xs))
    f = affine((0.5, sample), (-3, PowerFn(1))) if nested else sample
    fns = (*polynomial_system(3).basis, f)
    table = _PointTable(fns, PointTuple(xs))
    made = []
    real = SampledFn.__post_init__
    monkeypatch.setattr(SampledFn, "__post_init__", lambda g: made.append(g) or real(g))
    image = determinant._exact_image(table, Interval())
    monkeypatch.undo()
    if nested:
        assert len(made) == 1 and 3 not in image._lists
    else:
        assert made == [] and image.fns[3] is f
        assert image._lists[3] == [Fraction(v) for v in sample.values]
        assert image.row_backend(3) is Backend.EXACT
    rows, js = (0, 1, 2, 3), range(len(xs))
    twin = _PointTable(tuple(map(exact_twin, fns)), image.grid)
    assert image.columns(rows, js) == twin.columns(rows, js)


# ---------------------------------------------------------------------------
# a sampled basis function's domain: every point of a finite-set domain is
# in its table (domain points are validated scalars, so the test cannot raise)

@pytest.mark.parametrize("domain, message", [
    (FiniteSet((0, 0.5, 1.0)), None),     # 0.5 and 1.0 are the table's 1/2 and 1
    (FiniteSet((0, Fraction(1, 3))), "sampled basis function has no value at domain point 1/3"),
    (Interval(0, 1), "a sampled basis function is only evaluable on a finite-set domain"),
])
def test_a_sampled_basis_function_is_checked_against_its_domain(domain, message):
    basis = (PowerFn(0), SampledFn((0, Fraction(1, 2), 1), (1, 2, 3)))
    try:
        ChebyshevSystem(basis, domain)
        got = None
    except InputError as exc:
        got = str(exc)
    assert got == message
