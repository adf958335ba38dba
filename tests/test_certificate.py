"""The window certificate of exact exhaustive scans (Fekete's lemma and
its nonnegative form, see ``determinant``'s module docstring): whenever
the windows of consecutive columns pass, every increasing minor has the
sign asked for, and a scan gives the walk's outcome whether they pass
or not."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebconvex import determinant
from chebconvex.cli import main
from chebconvex.convexity import check_convex_direct
from chebconvex.core import ChebyshevSystem, FiniteSet, Interval, PointTuple, PowerFn, SampledFn, affine
from chebconvex.determinant import (
    DEFAULT_TOL_FACTOR,
    _certified,
    _PointTable,
    _sign_scan,
    is_positive_chebyshev,
)
from chebconvex.systems import polynomial_system

from oracles import cofactor_det, direct_loop, positivity_loop, walk_scan


def matrix(rng: random.Random) -> tuple:
    """n integer rows of m entries, n in 1..5 and m in n..8, then m
    positive column denominators and whether a scan asks > 0.  Rows
    0..p-1 are weighted Vandermonde rows w_j x_j^i at increasing points,
    whose minors on increasing columns are all > 0; each later row is
    random, a weighted polynomial of degree at most its index (in the
    span of the rows above when its leading coefficient is 0), or that
    polynomial with one entry moved by 1.  Half the time one entry is then
    made 0, negated or drawn anew, which a window may or may not see."""
    n = rng.randint(1, 5)
    m = rng.randint(n, 8)
    xs = sorted(rng.sample(range(-4, 7), m))
    ws = [rng.randint(1, 3) for _ in range(m)]
    p = rng.randint(0, n)
    rows = [[w * x ** i for x, w in zip(xs, ws)] for i in range(p)]
    for i in range(p, n):
        kind = rng.choice(["random", "polynomial", "moved"])
        if kind == "random":
            rows.append([rng.randint(-3, 3) for _ in range(m)])
            continue
        coef = [rng.randint(-2, 2) for _ in range(i)] + [rng.randint(0, 2)]
        row = [w * sum(c * x ** k for k, c in enumerate(coef)) for x, w in zip(xs, ws)]
        if kind == "moved":
            row[rng.randrange(m)] += rng.choice([-1, 1])
        rows.append(row)
    if rng.random() < 0.5:
        i, j = rng.randrange(n), rng.randrange(m)
        rows[i][j] = rng.choice([0, -rows[i][j], rng.randint(-3, 3)])
    return rows, [rng.randint(1, 3) for _ in range(m)], rng.random() < 0.5


def minors(rows: list):
    """Every increasing n-minor of the n rows ``rows``."""
    n, m = len(rows), len(rows[0])
    for t in itertools.combinations(range(m), n):
        yield cofactor_det([[r[j] for j in t] for r in rows])


def holds(rows: list, positive: bool) -> bool:
    return all(v > 0 if positive else v >= 0 for v in minors(rows))


def certified(cols: list, n: int, positive: bool) -> bool:
    """Whether every window of ``cols`` passes: _certified's first failing
    window is past the last."""
    return _certified(cols, n, positive) == len(cols)


def table_of(rows: list, dens: list) -> _PointTable:
    """A table whose function i takes row i over the denominators at
    the points 0..m-1."""
    points = tuple(range(len(dens)))
    return _PointTable(tuple(SampledFn(points, tuple(Fraction(v, d) for v, d in zip(r, dens)))
                             for r in rows), PointTuple(points))


@settings(max_examples=1000, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_passing_certificate_holds_on_every_tuple(rng):
    rows, _, positive = matrix(rng)
    if certified([list(c) for c in zip(*rows)], len(rows), positive):
        assert holds(rows, positive)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_scan_equals_the_walk(rng):
    rows, dens, positive = matrix(rng)
    n, m = len(rows), len(dens)
    got = _sign_scan(Interval(), n, range(m), table_of(rows, dens), 10 ** 6, 0,
                     DEFAULT_TOL_FACTOR, positive)[0]
    assert got == walk_scan(table_of(rows, dens), tuple(range(n)), range(m), positive)
    assert got.tuples_checked == math.comb(m, n) and got.exhaustive


def test_the_sample_meets_and_misses_each_hypothesis():
    seen = set()
    for seed in range(400):
        rows, _, positive = matrix(random.Random(seed))
        cols = [list(c) for c in zip(*rows)]
        seen.add((positive, certified(cols, len(rows), positive), holds(rows, positive)))
    # certified; uncertified yet holding; failing, for each form
    for positive in (True, False):
        assert {(positive, True, True), (positive, False, True),
                (positive, False, False)} <= seen


@pytest.mark.parametrize("rows, positive", [
    # a lower prefix's sign left unchecked: u1 < 0 at point 1, and minor (0, 2) < 0
    ([[1, -1, 1], [0, 1, -2]], True),
    # a zero lower prefix taken as passing: u1 = 0 at point 1, and minor (1, 2) < 0
    ([[1, 0, 1], [0, 1, -1]], False),
    # the tail window (point 2 alone) dropped: u1 < 0 there, and minor (0, 2) = 0
    ([[1, 1, -1], [0, 1, 0]], True),
])
def test_windows_that_a_weaker_rule_would_pass(rows, positive):
    assert not holds(rows, positive)
    assert not certified([list(c) for c in zip(*rows)], len(rows), positive)


# ---------------------------------------------------------------------------
# exact scans through the public entry points: the certificate decides
# alone, or the walk reports as it did before the certificate.

@pytest.fixture
def walks(monkeypatch):
    """The number of walks of exact exhaustive scans so far."""
    count = []
    walk = determinant._walk

    def counted(cols, n, tally, *rest):
        if tally.exact:
            count.append(1)
        return walk(cols, n, tally, *rest)
    monkeypatch.setattr(determinant, "_walk", counted)
    return count


def test_readme_degeneracy_walks(capsys, walks):
    code = main(["chebcheck", "--system", "one-xsq", "--unsafe-domain", "full",
                 "--grid", "list:-1,1"])
    positivity = json.loads(capsys.readouterr().out)["results"]["positivity"]
    assert code == 1 and len(walks) == 1
    assert positivity["witness"] == ["-1", "1"] and positivity["witness_value"] == "0"


def test_violation_found_past_the_first_failing_window(walks):
    # f = x^2 on 0..4, f(5) = 10: window (3, 4, 5) is the first to fail,
    # but (0, 3, 5) is the lexicographically smallest violating tuple
    grid = [Fraction(i) for i in range(6)]
    f = SampledFn(tuple(grid), (0, 1, 4, 9, 16, 10))
    got = check_convex_direct(polynomial_system(2), f, grid)
    assert got == direct_loop(polynomial_system(2), f, grid)
    assert got.verdict == "violated" and got.witness == (0, 3, 5)
    assert len(walks) == 1


@pytest.mark.parametrize("k", [3, 4])
def test_target_in_the_span_is_certified(walks, k):
    # every extended minor is 0: the n-th pivot may be 0
    system = polynomial_system(k)
    f = affine((2, PowerFn(1)), (-1, PowerFn(0)), (Fraction(1, 3), PowerFn(k - 1)))
    grid = [Fraction(i, 3) for i in range(-4, 5)]
    got = check_convex_direct(system, f, grid)
    assert got == direct_loop(system, f, grid)
    assert got.verdict == "convex_on_sample" and got.tuples_checked == math.comb(9, k + 1)
    assert walks == []


def test_positive_scan_is_certified(walks):
    grid = [Fraction(i, 2) for i in range(10)]
    for k in (1, 2, 3, 4):
        got = is_positive_chebyshev(polynomial_system(4), k, grid)
        assert got == positivity_loop(polynomial_system(4), k, grid)
        assert got.verdict == "positive_on_grid" and got.tuples_checked == math.comb(10, k)
    assert walks == []


def test_zero_lower_prefix_on_one_window_walks(walks):
    # u1 = 0 at the first point fails the window there, yet every 2-minor
    # is 1, so the walk finds the grid positive
    points = (0, 1, 2)
    system = ChebyshevSystem((SampledFn(points, (0, 1, 1)), SampledFn(points, (-1, 0, 1))),
                             FiniteSet(points))
    got = is_positive_chebyshev(system, 2, points)
    assert got == positivity_loop(system, 2, points)
    assert got.verdict == "positive_on_grid"
    # (x, x^2) with x = 0 on the grid: every extended minor is >= 0
    line = ChebyshevSystem((PowerFn(1),), Interval())
    grid = [Fraction(i) for i in range(5)]
    got = check_convex_direct(line, PowerFn(2), grid)
    assert got == direct_loop(line, PowerFn(2), grid)
    assert got.verdict == "convex_on_sample"
    assert len(walks) == 2


# ---------------------------------------------------------------------------
# the lower part, rows 0..n-2 asked > 0, read on its own for the smallest
# bases of violating tuples, with their smallest inner tuples, that the
# pinned modes' sign identity reads

CUTS = ((0, 2), (1, 2), (1, 1))


def lower_scan(rows: list, cuts: tuple = CUTS):
    m = len(rows[0])
    return _sign_scan(Interval(), len(rows), range(m), table_of(rows, [1] * m), 10 ** 6, 0,
                      DEFAULT_TOL_FACTOR, False, cuts)[0]


def smallest_pairs(negative: list, cuts: tuple = CUTS) -> dict:
    """By cut, the smallest base of a violating tuple, with the smallest
    inner tuple of a violating tuple that leaves that base."""
    return {(c, w): min((t[:c] + t[c + w:], t[c:c + w]) for t in negative) for c, w in cuts}


def test_last_row_fails_while_the_lower_part_holds():
    # 1, x, then x^2 moved up at 2: window (1, 2, 3) fails its last step
    rows = [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4], [0, 1, 6, 9, 16]]
    cols = [list(c) for c in zip(*rows)]
    assert not certified(cols, 3, False) and certified(cols, 2, True)
    negative = [t for t in itertools.combinations(range(5), 3)
                if cofactor_det([[r[j] for j in t] for r in rows]) < 0]
    got = lower_scan(rows)
    assert negative and got.pairs == smallest_pairs(negative)
    assert got.verdict == "violated" and got.witness == negative[0]


def test_lower_step_failing_after_the_first_failing_last_row():
    # window 0's last step fails (the 2-minor at points 0, 1 is -1) before
    # window 3 shows row 0 < 0: stopping at the first failing window would
    # miss that the lower part fails
    rows = [[1, 1, 1, -1], [1, 0, 2, 5]]
    cols = [list(c) for c in zip(*rows)]
    assert not certified(cols, 2, False) and not certified(cols, 1, True)
    assert certified(cols[:3], 1, True)
    got = lower_scan(rows, ((0, 1),))
    assert got.verdict == "violated" and got.pairs is None


def test_bases_only_where_read():
    rows = [[1, 1, 1, 1], [0, 1, 2, 3], [0, 1, 4, 9]]    # x^2: every window passes
    assert lower_scan(rows).pairs == {}
    rows[2][3] = 5      # the last row fails, and a scan given no cuts reads no lower part
    plain = _sign_scan(Interval(), 3, range(4), table_of(rows, [1] * 4), 10 ** 6, 0,
                       DEFAULT_TOL_FACTOR, False)[0]
    assert plain.pairs is None
    assert lower_scan(rows).pairs == smallest_pairs([(0, 2, 3), (1, 2, 3)])
    assert plain == lower_scan(rows)        # the pairs are not part of the outcome


@pytest.mark.parametrize("cuts", [(), ((1, 2),), ((0, 2), (1, 2), (2, 1), (1, 1))])
def test_a_walk_of_violations_keeps_no_list_of_them(monkeypatch, cuts):
    """On every exact (n+1)-tuple violated, the tally holds the first
    witness, a count and one base and one inner tuple per cut: no
    container grows with the number of violations."""
    tallies = []

    class Kept(determinant._Tally):
        def __init__(self, *args):
            super().__init__(*args)
            tallies.append(self)

    monkeypatch.setattr(determinant, "_Tally", Kept)
    grid = PointTuple([Fraction(-i, 7) for i in range(40, 0, -1)])
    system = polynomial_system(2)
    table = _PointTable(system.basis + (PowerFn(3),), grid)   # x^3 is concave on x < 0
    (got,) = _sign_scan(Interval(), 3, range(40), table, 10 ** 6, 0, DEFAULT_TOL_FACTOR, False,
                        cuts)
    assert got.verdict == "violated" and got.witness == grid[:3]
    assert got.pairs == (None if not cuts else {
        (c, w): ((0, 1, 2)[:c] + (0, 1, 2)[c + w:], (0, 1, 2)[c:c + w]) for c, w in cuts})
    sizes = [len(v) for t in tallies for v in vars(t).values() if hasattr(v, "__len__")]
    assert tallies and max(sizes) <= max(len(cuts), 2)
