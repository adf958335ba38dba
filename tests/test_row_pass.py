"""The exhaustive walk, one function for both backends
(``determinant._walk``), finishes the last two elimination levels of
each prefix in one inline pass: one list of determinants per nonzero
pivot column, cleared by one comparison with the row's bound
(``_Tally.row``), and for a zero one each tuple at value 0.  Checked
against one determinant per tuple (``oracles.walk_scan`` and
``float_walk_scan``): the same SignScan, by repr, or the same
exception, by type and message."""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chebconvex import determinant
from chebconvex.core import REAL_LINE, PointTuple, SampledFn
from chebconvex.determinant import _PointTable, _sign_scan, is_positive_chebyshev
from chebconvex.errors import ChebconvexError
from chebconvex.systems import polynomial_system

from oracles import float_walk_scan, walk_scan

TOL_FACTORS = (1e-10, 0.0, 0.05, -0.05)


def table_of(columns: list, exact: bool) -> _PointTable:
    """A table whose function i takes entry i of column j at the point
    j, as Fractions (``exact``) or floats."""
    points = tuple(range(len(columns)))
    kind = Fraction if exact else float
    return _PointTable(tuple(SampledFn(points, tuple(kind(v) for v in row))
                             for row in zip(*columns)), PointTuple(points))


def outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (ChebconvexError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def scan_and_oracle(columns: list, exact: bool, positive: bool, tol_factor: float,
                    mode=contextlib.nullcontext) -> tuple:
    """The scan's outcome, in the float scan ``mode`` (see conftest's
    scan_modes), and the per-tuple oracle's."""
    m, n = len(columns), len(columns[0])
    rows = tuple(range(n))
    with mode():
        got = outcome(lambda: _sign_scan(REAL_LINE, n, range(m), table_of(columns, exact),
                                         10 ** 6, 0, tol_factor, positive)[0])
    if exact:
        want = outcome(walk_scan, table_of(columns, exact), rows, range(m), positive)
    else:
        want = outcome(float_walk_scan, table_of(columns, exact), rows, range(m), positive,
                       tol_factor)
    return got, want


@st.composite
def matrices(draw):
    """n = 1..5 rows, m = n..8 columns.  Entries are small multiples of a
    column scale, so zeros, ties |a| = |b| and vanishing minors are
    common at every level, and a column's largest |entry| differs from
    its neighbours'.  A big column, or every column of some matrices,
    holds -B, 0 or B: at B = 1.5 * 2^511 (about 1e154) the 2 x 2
    determinant of two big columns can be 2 B^2, which overflows, while
    the tolerance at B does not; at B = 1e200 the tolerance overflows
    from n = 2 on."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 8))
    big = draw(st.sampled_from([3 * 2 ** 510, 10 ** 200]))
    scales = draw(st.sampled_from([[Fraction(1, 4), 1, 4, big], [big]]))
    columns = []
    for _ in range(m):
        scale = draw(st.sampled_from(scales))
        k = 1 if scale == big else 4
        columns.append([draw(st.integers(-k, k)) * scale for _ in range(n)])
    return columns


# scan_modes keeps no state between examples: each mode patches within its run only
@settings(max_examples=1500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrices(), st.booleans(), st.booleans(), st.sampled_from(TOL_FACTORS))
def test_walk_equals_one_determinant_per_tuple(scan_modes, columns, exact, positive,
                                                tol_factor):
    for mode in scan_modes:
        got, want = scan_and_oracle(columns, exact, positive, tol_factor, mode)
        assert got == want


# values exactly at a row's bound, and rows whose bound only a later
# column sets: the rule that one comparison applies must be add's

@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("tol_factor", TOL_FACTORS)
def test_values_at_the_bound(positive, tol_factor, scan_modes):
    # the tuple (0, 1) has det 20.0 and largest |entry| 20: at tol_factor
    # 0.05 its tolerance is 0.05 * 400 == 20.0, the det itself
    assert 0.05 * 20.0 ** 2 == 20.0
    for columns in ([[1, 0], [20, 20]],
                    [[1, 0], [20, 20], [20, 21]],
                    [[1, 0], [0, 0], [20, 20]],
                    [[0, 1], [20, 20], [1, 20]]):
        for mode in scan_modes:
            got, want = scan_and_oracle(columns, False, positive, tol_factor, mode)
            assert got == want


@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("tol_factor", [0.05, -0.05])
def test_a_later_column_sets_the_row_bound(positive, tol_factor, scan_modes):
    # pivot column (1, 0); the later column (4, 0.5) has det 0.5 with
    # largest |entry| 4, inside its tolerance 0.05 * 16 = 0.8 though
    # above the pivot column's own 0.05
    for mode in scan_modes:
        got, want = scan_and_oracle([[1, 0], [1, 1], [4, 0.5]], False, positive, tol_factor,
                                    mode)
        assert got == want and "verdict=None" not in got


@pytest.mark.parametrize("positive", [True, False])
def test_an_overflowing_row_raises_where_a_tuple_does(positive, scan_modes):
    # (B, -B) then (B, B): det 2 * B^2 is inf, while the tolerance at B,
    # 1e-10 * B^2, is finite
    big = 3 * 2 ** 510
    assert float(big) ** 2 < float("inf") == 2 * float(big) ** 2
    for columns in ([[1, 1], [big, -big], [big, big]], [[big, -big], [big, big], [1, 2]]):
        for mode in scan_modes:
            got, want = scan_and_oracle(columns, False, positive, 1e-10, mode)
            assert got == want and got.startswith("NonFiniteValue")


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("tol_factor", TOL_FACTORS)
@pytest.mark.parametrize("row", [[2, 0, 3], [3, 1, -1, 0], [0, 0], [Fraction(1, 4), 4, 1]])
def test_one_point_tuples_take_the_per_tuple_path(monkeypatch, row, exact, positive,
                                                  tol_factor):
    """An exhaustive scan of one-point tuples, a zero value among them,
    checks each tuple alone: it gives the per-tuple oracle's scan and
    neither walks nor finishes a row."""
    def refuse(*args):
        raise AssertionError("a one-point scan walked")
    monkeypatch.setattr(determinant, "_walk", refuse)
    monkeypatch.setattr(determinant, "_certified", refuse)
    got, want = scan_and_oracle([[v] for v in row], exact, positive, tol_factor)
    assert got == want


def test_sampled_scans_do_not_finish_rows(monkeypatch, float_walk):
    def refuse(*args):
        raise AssertionError("a sampled scan finished a row")
    monkeypatch.setattr(determinant._Tally, "row", refuse)
    grid = [i / 4 for i in range(12)]
    got = is_positive_chebyshev(polynomial_system(4), 4, grid, budget=30)
    assert not got.exhaustive and got.tuples_checked == 30
    with pytest.raises(AssertionError, match="finished a row"):
        is_positive_chebyshev(polynomial_system(4), 4, grid)
