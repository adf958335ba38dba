"""The point table's columns, read at one backend per grid, columns
of powers and of affine combinations of powers built directly on float
grids and polynomial columns built from an exact point's integers, checked against
``oracles.evaluate_columns`` (evaluate() per value, backends read from
the values) at each grid's twin, the points at which evaluate() takes
the grid's backend: the values by repr, the backend and the form at
that backend, or the error, message included.  Also the order of the
first error, points of equal value and different types, and the CLI's
decimal reader against ``Fraction``."""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebconvex.cli import _parse_scalar
from chebconvex.convexity import check_convex_direct, check_convex_induced, check_convex_interval
from chebconvex.core import (
    AffineFn,
    Backend,
    ChebyshevSystem,
    ConstFn,
    ExpFn,
    Interval,
    NegCotFn,
    PointTuple,
    PowerFn,
    SampledFn,
    affine,
    evaluate,
)
from chebconvex.determinant import _PointTable, is_positive_chebyshev
from chebconvex.errors import BackendMismatch, InputError
from chebconvex.systems import polynomial_system
from chebconvex.variation import estimate_variation

from oracles import column_values, evaluate_columns


def outcome(make) -> object:
    """The columns that ``make()`` returns, each as (values, backend,
    form), or the first error as 'type: message'."""
    try:
        out = []
        for values, backend, form in make():
            out.append((repr(values), backend, repr(form)))
        return out
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


MIXED = ("BackendMismatch: exact and float scalars mixed in one computation; "
         "convert explicitly with to_exact()/to_float()")


def twin(fns, xs) -> list:
    """The points at which evaluate() takes the backend that a table of
    ``fns`` reads the grid ``xs`` at: the ints of a grid with a float,
    or of an all-int grid with a function that requires float, as
    floats; the ints of a grid with a Fraction as Fractions."""
    if any(isinstance(x, float) for x in xs) or (
            not any(isinstance(x, Fraction) for x in xs)
            and any(f.required_backend() is Backend.FLOAT for f in fns)):
        return [float(x) if type(x) is int else x for x in xs]
    if any(isinstance(x, Fraction) for x in xs):
        return [Fraction(x) for x in xs]
    return list(xs)


def same_columns(fns, rows, xs):
    """The columns at the points ``xs``, read by position from a table,
    against the oracle's at their twin, each with the table's backend;
    exact points also as integers over one scale, as the CLI reads them,
    against the oracle's at their Fractions.  A grid of Fractions and
    floats raises when it is made."""
    def table_columns(make_grid):
        def make():
            table = _PointTable(tuple(fns), make_grid())
            return [(column_values(form), table.backend, form)
                    for form in table.columns(tuple(rows), range(len(xs)))]
        return make

    def oracle_columns(points):
        return lambda: [(c.values, c.backend(), c.form)
                        for c in evaluate_columns(fns, tuple(rows), points)]
    got = outcome(table_columns(lambda: PointTuple(xs)))
    if any(isinstance(x, float) for x in xs) and any(isinstance(x, Fraction) for x in xs):
        assert got == MIXED
        return got
    assert got == outcome(oracle_columns(twin(fns, xs)))
    if all(type(x) in (int, Fraction) for x in xs):
        fractions = [Fraction(x) for x in xs]
        q = math.lcm(*(x.denominator for x in fractions))
        ints = [x.numerator * (q // x.denominator) for x in fractions]
        assert outcome(table_columns(lambda: PointTuple(nums=ints, q=q))) == \
            outcome(oracle_columns(fractions))
    return got


POWERS = tuple(PowerFn(k) for k in range(9))
GAPPED = polynomial_system(3).basis + (PowerFn(7),)      # poly:3 + power:7
EXACT_POINTS = [Fraction(-7, 3), Fraction(-1, 2), 0, Fraction(22, 7), 1, -2, 5,
                Fraction(10 ** 20 + 1, 3 ** 30), Fraction(-(2 ** 70), 7)]
FLOAT_POINTS = [-1.25, -0.0, 0.5, 3.0, 1e-3, 1e30, float("inf")]


@pytest.mark.parametrize("fns, rows", [
    (POWERS, range(9)), (POWERS, range(5)), (POWERS, (3,)), (POWERS, (8,)),
    (POWERS, (0, 2, 5, 8)), (POWERS, (8, 1, 0)),
    (GAPPED, range(4)), (GAPPED, (0, 1, 3)), (GAPPED, (0, 3)),
])
@pytest.mark.parametrize("xs", [EXACT_POINTS, FLOAT_POINTS, [1.0, 1e200], [0, 0.5, 1]])
def test_power_columns_match_evaluate(fns, rows, xs):
    same_columns(fns, rows, xs)


def test_exact_power_column_is_its_integer_form():
    table = _PointTable(GAPPED, PointTuple([Fraction(-5, 3)]))
    (col,) = table.columns((0, 1, 2, 3), (0,))
    assert col == ([2187, -3645, 6075, -78125], 2187)   # (-5)^k 3^(7-k)
    assert column_values(col) == [Fraction(-5, 3) ** k for k in (0, 1, 2, 7)]


# ---------------------------------------------------------------------------
# polynomial columns: powers, constants and (nested) affine combinations
# with int or Fraction coefficients

COEFS = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-9, 9),
                                                st.integers(1, 12)))
#: a float coefficient or constant makes a function no exact polynomial
FLOAT_COEFS = st.sampled_from([0.5, -1.25])
LEAVES = st.one_of(st.builds(PowerFn, st.integers(0, 8)), st.builds(ConstFn, COEFS))
POLYNOMIALS = st.recursive(
    LEAVES, lambda inner: st.lists(st.tuples(COEFS, inner), min_size=1, max_size=3)
    .map(lambda terms: AffineFn(tuple(terms))), max_leaves=6)
#: c * f - c * f, whose coefficients cancel to 0
CANCELLED = st.tuples(COEFS, POLYNOMIALS).map(lambda cf: affine(cf, (-cf[0], cf[1])))
EXACT_XS = st.one_of(st.integers(-6, 6), st.just(0),
                     st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40)))
FLOAT_XS = st.floats(-8, 8, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(POLYNOMIALS, CANCELLED, st.builds(ConstFn, FLOAT_COEFS),
                          st.builds(lambda c, k: affine((3, affine((c, PowerFn(k))))),
                                    FLOAT_COEFS, st.integers(0, 8))),
                min_size=1, max_size=5),
       st.data(), st.one_of(st.lists(EXACT_XS, min_size=1, max_size=4),
                            st.lists(FLOAT_XS, min_size=1, max_size=3)))
def test_polynomial_columns_match_evaluate(fns, data, xs):
    rows = data.draw(st.lists(st.integers(0, len(fns) - 1), min_size=1, max_size=4))
    same_columns(fns, tuple(dict.fromkeys(rows)), xs)


def test_polynomial_column_is_its_reduced_integer_form():
    """1/2 x + 1/2 and x^2 - x^2 at 1 have the values 1 and 0, whose
    form has scale 1 (not the lcm 2 of the coefficients)."""
    fns = (affine((Fraction(1, 2), PowerFn(1)), (Fraction(1, 2), ConstFn(1))),
           affine((1, PowerFn(2)), (-1, PowerFn(2))))
    (col,) = _PointTable(fns, PointTuple([1])).columns((0, 1), (0,))
    assert col == ([1, 0], 1)
    (col,) = _PointTable(fns, PointTuple(nums=[-3], q=9)).columns((0, 1), (0,))     # -3/9 = -1/3
    assert col == ([1, 0], 3)
    assert same_columns(fns, (0, 1), [Fraction(-1, 3), 1, 0])


@pytest.mark.parametrize("xs", [[Fraction(1, 2), 0.5], [0.5, Fraction(1, 2)], [1, 1.0],
                                [1.0, 1], [1, Fraction(1)], [Fraction(1), 1, 1.0]])
@pytest.mark.parametrize("fns, rows", [
    (POWERS, (0, 1, 2)),
    ((PowerFn(0), affine((2, PowerFn(1)), (-1, ConstFn(3)))), (0, 1)),
    ((PowerFn(0), ConstFn(0.5)), (0, 1)),            # float at an int point only
    ((PowerFn(0), ConstFn(Fraction(1, 2))), (0, 1)),  # exact at an int point only
])
def test_equal_points_of_other_types_have_their_own_records(xs, fns, rows):
    """Each position of one grid keeps its own records, even when an
    earlier point of another type has the same value; all are read at
    the grid's one backend (ints next to a float as floats), and a grid
    of Fractions and floats raises when it is made."""
    same_columns(fns, rows, xs)


def test_integer_forms_of_a_sampled_grid_match():
    """Every point of a C1-like sampled scan: poly:5 at dyadic points."""
    rng = random.Random(5)
    xs = [Fraction(i, 64) for i in rng.sample(range(-336 * 64, 336 * 64), 400)]
    assert same_columns(polynomial_system(5).basis, range(5), xs)


def other_rows(exact: bool) -> tuple:
    """Power, affine, sampled and constant rows; on the float backend the
    second affine row overflows to inf at a large point."""
    c = Fraction(3, 2) if exact else 1.5
    at = (Fraction(-1, 2), 0, 1, Fraction(5, 2)) if exact else (-0.5, 0.0, 1.0, 2.5)
    return (PowerFn(0), PowerFn(1), affine((c, PowerFn(2)), (-1, PowerFn(1))),
            SampledFn(at, (c, -c, 2 * c, 0 * c)),
            affine((c if exact else 1e300, PowerFn(3))), ConstFn(c))


@pytest.mark.parametrize("xs", [
    [Fraction(-1, 2), 0, 1, Fraction(5, 2)],
    [-0.5, 0.0, 1.0, 2.5],
    [-0.5, 1.0, 1e110, 2.5],                    # the affine row overflows to inf
    [0, 1, Fraction(5, 2)],
    [0, 1, 3],                                  # 3 is off the sampled table
])
@pytest.mark.parametrize("rows", [range(6), (0, 1, 2), (0, 3), (4, 0)])
def test_other_columns_match_evaluate(xs, rows):
    exact = not any(isinstance(x, float) for x in xs)
    same_columns(other_rows(exact), rows, xs)


@pytest.mark.parametrize("xs", [[-1.0, 0.5, 2.0], [0.5, -1.0], [0, 0.5], [Fraction(1, 2), 2]])
@pytest.mark.parametrize("rows", [range(4), (0, 2), (3, 0), (1,)])
def test_float_only_columns_match_evaluate(xs, rows):
    """exp and the cotangent (with its pole at -1) next to exact rows."""
    same_columns((PowerFn(0), NegCotFn(1.0), ExpFn(), ConstFn(Fraction(1, 2))), rows, xs)


def scan(fn, *args):
    try:
        return repr(fn(*args))
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("system, k, grid, expected", [
    (polynomial_system(2), 1, [0, 0.5, 1], "PositivityReport(verdict='positive_on_grid', k=1, "
     "tuples_checked=3, exhaustive=True, seed=0, witness=None, witness_value=None, "
     "indeterminate_count=0)"),
    # ints next to a float evaluate as floats, at every k
    (polynomial_system(2), 2, [0, 0.5, 1], "PositivityReport(verdict='positive_on_grid', k=2, "
     "tuples_checked=3, exhaustive=True, seed=0, witness=None, witness_value=None, "
     "indeterminate_count=0)"),
    (polynomial_system(3), 3, [0.0, 1.0, 1e200],
     "OverflowError: (34, 'Numerical result out of range')"),
    (polynomial_system(3), 3, [0.0, 1.0, float("inf")],
     "NonFiniteValue: function value inf at grid point inf"),
    (ChebyshevSystem((PowerFn(0), affine((1e300, PowerFn(2)))), Interval()), 2,
     [0.0, 1.0, 1e10], "NonFiniteValue: function value inf at grid point 10000000000.0"),
])
def test_scan_outcomes_as_recorded(system, k, grid, expected):
    assert scan(is_positive_chebyshev, system, k, grid) == expected


def test_first_error_is_the_first_evaluation_that_fails():
    """The cotangent's pole at -1 is evaluated before the exact constant
    meets a float point, so it is the error; a table that combined every
    function's backend before evaluating would report BackendMismatch."""
    system = ChebyshevSystem((PowerFn(0), NegCotFn(1.0)), Interval())
    got = scan(check_convex_direct, system, ConstFn(Fraction(1, 2)), [-1.0, 0.5, 2.0])
    assert got == "EvaluationOutsideSupport: cotangent pole at x=-1.0"


def test_power_values_are_made_once_per_table_and_point():
    """Checks whose float columns mix power rows with another row, next
    to a direct power column at the same point: the numerators of a
    pinned check's exp target and of a variation window of exp.  Such a
    column evaluates its own power values, and the verdicts stand."""
    grid = [i / 4 for i in range(-4, 5)]
    assert check_convex_induced(polynomial_system(3), 1, ExpFn(), grid).is_convex
    assert check_convex_interval(polynomial_system(3), 2, 1, ExpFn(), grid).is_convex
    assert estimate_variation(polynomial_system(2), ExpFn(), 0.0, 1.0).best > 0


def test_a_pinned_base_scan_asks_for_no_direct_build(monkeypatch):
    """A derived table (a pinned base) builds no column directly, so its
    scans go straight to the group-by-group path, with no call of
    :meth:`_PointTable.direct` to list and probe their positions."""
    calls = []
    real = _PointTable.direct

    def counted(self, rows, js):
        calls.append(type(self).__name__)
        return real(self, rows, js)
    monkeypatch.setattr(_PointTable, "direct", counted)
    grid = [i / 4 for i in range(-4, 5)]
    assert check_convex_induced(polynomial_system(3), 1, ExpFn(), grid).is_convex
    assert check_convex_interval(polynomial_system(3), 2, 1, ExpFn(), grid).is_convex
    assert calls == []


# ---------------------------------------------------------------------------
# float columns with affine combinations of powers, built directly: each
# value by AffineFn's own operations in order, row by row over the points,
# as the value path makes them

AFFINE_POWER_ROWS = (
    PowerFn(0), PowerFn(1), PowerFn(2),
    affine((3, PowerFn(2)), (-1, PowerFn(1))),                      # int coefficients
    affine((0.1, PowerFn(2)), (-2.5, PowerFn(0)), (1e-300, PowerFn(1))),   # float ones
    affine((0, PowerFn(2)), (1, PowerFn(1)), (0.0, PowerFn(0))),     # zero coefficients
    affine((1, PowerFn(2)), (0.5, PowerFn(2)), (-1, PowerFn(2))),    # a repeated power
    affine((1, PowerFn(1)), (-1, PowerFn(1))),                      # cancelling terms
    affine(),                                                       # no terms
)
SPECIAL_FLOATS = [-1e150, -2.5, -1.0, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-160,
                  0.1, 1.0, 3.0, 1e150]


def bits(v: float) -> bytes:
    return struct.pack("d", v)


@pytest.mark.parametrize("rows", [range(len(AFFINE_POWER_ROWS)), (3,), (0, 1, 3),
                                  (6, 2, 0), (4, 5), (8, 7, 0)])
def test_affine_power_columns_are_evaluate_bit_for_bit(rows):
    """The float columns of powers and affine combinations of powers with
    int and float coefficients are built directly (direct does not
    return None) and equal evaluate() bit for bit, -0.0, subnormals and
    underflow included; so do those of an all-int grid that an exp row
    of the table makes float."""
    rows = tuple(rows)
    for fns, xs in ((AFFINE_POWER_ROWS, SPECIAL_FLOATS),
                    (AFFINE_POWER_ROWS + (ExpFn(),), [-3, 0, 1, 2, 10 ** 40])):
        table = _PointTable(fns, PointTuple(xs))
        cols = table.direct(rows, range(len(xs)))
        assert cols is not None and table.backend is Backend.FLOAT
        for x, (col, scale) in zip(xs, cols):
            assert scale == 1
            assert [bits(v) for v in col] == [bits(evaluate(fns[i], float(x))) for i in rows]
        same_columns(fns, rows, xs)


def test_a_fraction_coefficient_on_a_float_table_is_a_backend_clash():
    """An affine row with a Fraction coefficient requires exact: it is not
    built directly, and the table raises evaluate's BackendMismatch at
    its first value."""
    f = affine((Fraction(1, 3), PowerFn(2)), (1, PowerFn(1)))
    with pytest.raises(BackendMismatch) as raised:
        evaluate(f, 0.5)
    assert str(raised.value) in MIXED
    table = _PointTable((PowerFn(0), f), PointTuple([0.5, 2.0]))
    assert table.direct((0, 1), range(2)) is None
    assert same_columns((PowerFn(0), f), (0, 1), [0.5, 2.0]) == MIXED


BIG = 10 ** 400     # past the float range: float(BIG) raises


@pytest.mark.parametrize("fns, rows, xs, message", [
    # a coefficient past the float range, at the first point
    ((PowerFn(0), affine((BIG, PowerFn(1)))), (0, 1), [2.0, 3.0],
     "int too large to convert to float"),
    # a power past it, at a later point
    ((PowerFn(0), affine((2, PowerFn(3)))), (0, 1), [2.0, 1e200],
     "(34, 'Numerical result out of range')"),
    # within one value, term by term: the power first, then the coefficient
    ((affine((1, PowerFn(2)), (BIG, PowerFn(0))),), (0,), [1e200],
     "(34, 'Numerical result out of range')"),
    ((affine((1, PowerFn(2)), (BIG, PowerFn(0))),), (0,), [2.0],
     "int too large to convert to float"),
    # row by row: an earlier row's power at a later point comes before a
    # later row's coefficient at the first point, as the value path meets them
    ((PowerFn(0), PowerFn(2), affine((BIG, PowerFn(1)))), (0, 1, 2), [1.0, 1e200, 2.0],
     "(34, 'Numerical result out of range')"),
    ((PowerFn(0), PowerFn(2), affine((BIG, PowerFn(1)))), (2, 1), [1.0, 1e200, 2.0],
     "int too large to convert to float"),
])
def test_overflow_in_an_affine_column_is_the_value_paths(fns, rows, xs, message):
    """A coefficient or power past the float range raises OverflowError
    inside direct's one call, which then returns None, and the table's
    own ask meets the error that evaluating value by value, row by row,
    meets first."""
    table = _PointTable(fns, PointTuple(xs))
    assert table.direct(rows, range(len(xs))) is None
    with pytest.raises(OverflowError) as raised:
        table.columns(rows, range(len(xs)))
    assert str(raised.value) == message
    assert same_columns(fns, rows, xs) == f"OverflowError: {message}"


@pytest.mark.parametrize("f", [
    affine((2, affine((1, PowerFn(2)), (-1, PowerFn(1))))),     # nested
    affine((1, PowerFn(2)), (1, ConstFn(1))),                   # a constant term
    affine((1, PowerFn(2)), (0.5, ExpFn())),                    # a float-only term
])
def test_other_affine_rows_are_built_value_by_value(f):
    """An affine row with a term that is no power is not built directly:
    its columns come from the value path, and equal evaluate's."""
    xs = [-1.5, 0.5, 2.0]
    table = _PointTable((PowerFn(0), PowerFn(1), f), PointTuple(xs))
    assert table.direct((0, 1, 2), range(3)) is None
    assert table.direct((0, 1), range(3)) is not None
    same_columns((PowerFn(0), PowerFn(1), f), (0, 1, 2), xs)


# ---------------------------------------------------------------------------
# the CLI's exact scalars: a plain decimal is read without Fraction's
# parser, with Fraction's value; every other text, and every error, is
# Fraction's

LITERALS = ["-0", "007.50", ".5", "5.", "+1", "1e3", "1_000", " 2.5 ", "1/3", "٣", "²",
            "-", "", "1.", "-.5", "0.000", "--1", "1.2.3", "1 2", "-12345678901234567890.5",
            "1" * 5000, "0." + "9" * 5000]


def fraction_outcome(text: str) -> tuple:
    text = text.strip()
    try:
        return "value", Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return "error", f"bad exact scalar {text!r}: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(LITERALS),
                 st.from_regex(r"\A-?[0-9]{1,25}(\.[0-9]{1,25})?\Z"),
                 st.text(alphabet="0123456789-+._ e/²٣\t", max_size=10)))
def test_exact_scalar_reads_as_fraction(text):
    try:
        got = "value", _parse_scalar(text, Backend.EXACT)
    except InputError as exc:
        got = "error", str(exc)
    want = fraction_outcome(text)
    assert got == want and type(got[1]) is type(want[1])
