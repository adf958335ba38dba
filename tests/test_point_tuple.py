"""The one point type, ``core.PointTuple``: a validated tuple is the grid
that point tables read.

It replaced a free tuple that checked its ordering and a grid that read
its backend a second time; both are kept in tests/oracles.py, and the
differential tests below check that the one type answers as they did.
The regressions check that each point is read once, that a sorted grid
sorted again is itself, and that domains reject mixed backends."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import chebconvex.core as core
from chebconvex.core import (
    DEFAULT_MIN_GAP,
    Backend,
    FiniteSet,
    Interval,
    OrderingClass,
    PointTuple,
    PowerFn,
    PuncturedInterval,
    SampledFn,
    _check_domain,
)
from chebconvex.determinant import sorted_grid
from chebconvex.divdiff import divided_difference
from chebconvex.errors import BackendMismatch, EvaluationOutsideSupport, OrderingViolation
from chebconvex.systems import polynomial_system

from oracles import OracleGrid, OraclePointTuple, check_ordering

BIG = 2 ** 1100     # an int too large for a float

INTS = st.integers(-3, 3) | st.sampled_from([BIG, -BIG])
FRACTIONS = st.fractions(-2, 2, max_denominator=4)
FLOATS = st.sampled_from([0.0, -0.0, DEFAULT_MIN_GAP, 0.5, 1.0, 1.0 + 1e-12, -2.5, math.inf,
                          -math.inf, math.nan]) | st.floats(-1e3, 1e3)
POINTS = (st.lists(INTS, max_size=6) | st.lists(FRACTIONS, max_size=6)
          | st.lists(FLOATS, max_size=6) | st.lists(INTS | FRACTIONS | FLOATS, max_size=6))


def outcome(fn):
    """What ``fn()`` gives: its value, or its error's type, message and,
    for an ordering violation, indices."""
    try:
        return "ok", fn()
    except (BackendMismatch, OrderingViolation, ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "i", None), getattr(exc, "j", None)


def shown(points) -> list:
    """Points as a report shows them, with their types (so -0.0 and 0.0,
    and NaN, compare as they are)."""
    return [(type(x), repr(x)) for x in points]


@settings(max_examples=300, deadline=None)
@given(POINTS)
def test_one_type_answers_as_the_free_tuple_and_the_grid(xs):
    for ordering in OrderingClass:
        got = outcome(lambda: PointTuple(xs, ordering))
        want = outcome(lambda: OraclePointTuple(tuple(xs), ordering))
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got[1:] == want[1:]
            continue
        assert got[1].backend is want[1].backend() and got[1].ordering is ordering
        assert shown(got[1].points) == shown(want[1].points)
    got = outcome(lambda: PointTuple(xs))
    want = outcome(lambda: OracleGrid(xs))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1:] == want[1:]
        return
    new, old = got[1], want[1]
    assert new.backend is old.backend and len(new) == len(old)
    assert shown(new) == shown(old[j] for j in range(len(old)))
    assert [outcome(lambda: new.pq(j)) for j in range(len(xs))] == \
        [outcome(lambda: old.pq(j)) for j in range(len(xs))]
    assert new.spaced == old.spaced


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=6), st.integers(1, 12))
def test_one_type_over_one_scale_answers_as_the_grid(nums, q):
    old = OracleGrid(nums=nums, q=q)
    for ordering in OrderingClass:
        got = outcome(lambda: PointTuple(ordering=ordering, nums=nums, q=q))
        want = outcome(lambda: check_ordering(tuple(OracleGrid(nums=nums, q=q)), ordering))
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got[1:] == want[1:]
            continue
        new = got[1]
        assert new.backend is old.backend and new.ordering is ordering
        assert [new.pq(j) for j in range(len(nums))] == [old.pq(j) for j in range(len(nums))]
        assert shown(new.points) == shown(old[j] for j in range(len(nums)))
        assert new.spaced == old.spaced


def test_equality_is_identity_and_points_are_read_only():
    a, b = PointTuple((1, 2)), PointTuple((1, 2))
    assert a == a and a != b and len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.points = (3, 4)


# ---------------------------------------------------------------------------
# a domain's points are one point tuple, which rejects mixed backends

def test_finite_set_with_mixed_backends_raises():
    with pytest.raises(BackendMismatch):
        FiniteSet((Fraction(1), 2.0))


def test_punctured_interval_with_mixed_backends_raises():
    with pytest.raises(BackendMismatch):
        PuncturedInterval(Interval(), (Fraction(1), 2.0))


# ---------------------------------------------------------------------------
# points are read once, and a sorted grid sorted again is itself

def test_divided_difference_reads_its_points_once(monkeypatch):
    """The tuple that the checks return is the grid the table reads, so
    the points' backend is read once."""
    calls = []
    real = core.collection_backend

    def counted(values, default=None):
        calls.append(len(values))
        return real(values, default)
    system = polynomial_system(3)
    for name, module in list(sys.modules.items()):
        if name.startswith("chebconvex") and hasattr(module, "collection_backend"):
            monkeypatch.setattr(module, "collection_backend", counted)
    dd = divided_difference(system, 3, PowerFn(3), (0.0, 0.5, 2.0))
    assert math.isclose(dd.value, 2.5) and calls == [3]


def test_sampled_function_reads_its_backend_once(monkeypatch):
    """A sampled function reads its points' backend from the tuple that
    its check makes, and its values' once, when it is made; later
    requirements read neither again."""
    calls = []
    real = core.collection_backend

    def counted(values, default=None):
        calls.append(len(values))
        return real(values, default)
    for name, module in list(sys.modules.items()):
        if name.startswith("chebconvex") and hasattr(module, "collection_backend"):
            monkeypatch.setattr(module, "collection_backend", counted)
    fn = SampledFn(tuple(Fraction(i, 3) for i in range(8)), tuple(range(8)))
    assert calls == [8, 8]
    assert [fn.required_backend() for _ in range(3)] == [Backend.EXACT] * 3
    assert calls == [8, 8]
    with pytest.raises(BackendMismatch):
        SampledFn((Fraction(1, 2), Fraction(1, 3)), (1.0, 2.0))


@pytest.mark.parametrize("grid", [
    PointTuple(nums=[4, 0, 2, 3], q=8),
    [Fraction(1, 3), Fraction(1, 7), Fraction(5, 2)],
    [0.5, 0.25, 1.0, -3.0],
], ids=["integers over one scale", "fractions", "floats"])
def test_a_sorted_grid_sorted_again_is_itself(grid):
    """Agreement mode sorts its grid once, and each mode sorts it again,
    with the minimum gap or without: every mode then reads the same
    tuple, so they share the point table's records."""
    once = sorted_grid(grid)
    assert once.ordering is OrderingClass.STRICTLY_INCREASING
    assert list(once) == sorted(grid)
    assert sorted_grid(once, min_gap=DEFAULT_MIN_GAP) is once
    assert sorted_grid(once) is once


def test_a_sorted_grid_still_meets_every_other_gap():
    once = sorted_grid([0.0, 1e-12, 1.0])
    with pytest.raises(OrderingViolation, match=r"min gap 1e-09$"):
        sorted_grid(once, min_gap=DEFAULT_MIN_GAP)
    spaced = sorted_grid([0.0, 0.25, 1.0])
    with pytest.raises(OrderingViolation, match=r"min gap 0.5$"):
        sorted_grid(spaced, min_gap=0.5)


class _Counted(Interval):
    """An interval that counts the points it is asked about."""

    def contains(self, x):
        object.__setattr__(self, "asked", getattr(self, "asked", 0) + 1)
        return super().contains(x)


def test_an_interval_reads_the_ends_of_a_sorted_grid_of_integers():
    """The integer branch marks its grid strictly increasing, so an
    interval that holds the first and the last point holds them all."""
    grid = sorted_grid(PointTuple(nums=list(range(2000, -1, -1)), q=1000))   # 0, ..., 2
    domain = _Counted(0, 2, lo_open=False, hi_open=False)
    _check_domain(domain, grid, "grid point", range(len(grid)))
    assert domain.asked == 2
    _check_domain(domain, PointTuple(grid.points), "grid point", range(len(grid)))
    assert domain.asked == 2 + 2001
    with pytest.raises(EvaluationOutsideSupport, match=r"^grid point 0 is outside"):
        _check_domain(Interval(0, 2), grid, "grid point", range(len(grid)))


# ---------------------------------------------------------------------------
# the pairwise-distinct check in one pass

def test_pairwise_distinct_reports_the_first_equal_pair_as_the_pairwise_loop():
    """Seeded lists with repeats against the pairwise loop
    (``oracles.check_ordering``): the same first pair (i, j) in
    lexicographic order, not the first one met left to right, and the
    same message.  A NaN equals nothing, not even the same object; -0.0
    equals 0.0, and 1 equals Fraction(1) and 1.0."""
    nan = math.nan
    fixed = [[2, 5, 5, 2], [nan, nan], [nan, 1.0, float("nan"), 1.0], [-0.0, 0.0],
             [0.0, 1.0, -0.0], [1, Fraction(1)], [Fraction(1, 2), 3, Fraction(1, 2), 3],
             [1.0, 1], [3, 1, 2, 1, 3], [BIG, 1, BIG + 1, BIG]]
    pools = [[0.0, -0.0, 1.0, 2.5, nan, -3.0], [0, 1, 2, Fraction(1), Fraction(5, 2), BIG],
             [1, 2, 2.0, 1.0, nan, -0.0, 0]]
    rng = random.Random(17)
    drawn = [[rng.choice(pool) for _ in range(rng.randint(0, 8))]
             for pool in pools for _ in range(200)]
    differ = []
    for xs in fixed + drawn:
        got = outcome(lambda: PointTuple(xs, OrderingClass.PAIRWISE_DISTINCT).points)
        want = outcome(lambda: OraclePointTuple(tuple(xs), OrderingClass.PAIRWISE_DISTINCT).points)
        differ += [] if got[0] == want[0] == "ok" or got == want else [(xs, got, want)]
    assert not differ
    assert outcome(lambda: PointTuple([2, 5, 5, 2], OrderingClass.PAIRWISE_DISTINCT))[2:] \
        == (0, 3)


def test_a_large_sampled_table_checks_its_points_in_one_pass():
    """SampledFn checks its points pairwise distinct; 20,000 of them take
    one pass, not 2·10^8 comparisons."""
    points = tuple(i / 8 for i in range(20_000))
    start = time.perf_counter()
    f = SampledFn(points, points)
    assert time.perf_counter() - start < 1.0
    assert f.required_backend() is Backend.FLOAT
    with pytest.raises(OrderingViolation) as raised:
        SampledFn(points + (points[7],), points + (0.0,))
    assert (raised.value.i, raised.value.j) == (7, 20_000)
