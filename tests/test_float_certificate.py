"""The float window certificate (determinant._dyadic and _certified): an
exhaustive float scan for nonnegative determinants first reads its
windows of consecutive columns, computed exactly on the float values,
and walks its tuples only when they fail.

* Its report is the float walk's (``oracles.float_walk_scan``, one
  determinant per tuple), by repr, except in one deliberate class: the
  walk's report is indeterminate with no violation, each of its near-zero
  tuples has an exact determinant >= 0 on its float values, and the
  certified scan passes with no tuple near zero.
* A positive scan, a ``tol_factor`` <= 0 and a column at the overflow
  bound 2^(1023/n - n/2) still walk, and report or raise as the walk
  does.
* A certified scan calls no float elimination, and reports its
  ``SignScan.pairs`` empty, as an exact one does: a scan whose windows
  pass has no violating tuple.  A scan given cuts whose windows fail
  reports none, and does not walk: a float scan is given cuts only for
  its pairs.
* Each column is scaled to integers once, window 0's first: a scan
  whose window 0 fails scales only that window's columns.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from chebconvex import determinant
from chebconvex.convexity import check_convex_direct, check_convex_induced
from chebconvex.core import (REAL_LINE, ChebyshevSystem, ExpFn, PointTuple, PowerFn, SampledFn,
                             affine)
from chebconvex.determinant import (SignScan, _form, _PointTable, _prepared_det, _sign_scan,
                                    _tolerance)
from chebconvex.errors import NonFiniteValue
from chebconvex.systems import polynomial_system, trig_even_system, trig_odd_system

from oracles import float_walk_scan

TOL_FACTORS = (1e-10, 1e-14, 0.05, 0.0, -0.05)

SYSTEMS = {
    "trig-odd": (trig_odd_system(1, -math.pi, 0.0), (-3.1, -0.05)),
    "trig-even": (trig_even_system(1, -1.5, 1.5), (-1.45, 1.45)),
    "poly+exp": (ChebyshevSystem((PowerFn(0), PowerFn(1), ExpFn()), REAL_LINE), (-2.0, 2.0)),
}


def outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except (NonFiniteValue, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def exact_det(forms: list) -> Fraction:
    """The determinant of the exact values of the float columns ``forms``."""
    return determinant._scalar(_prepared_det([_form(list(map(Fraction, c)), True)
                                              for c, _ in forms], True))


def near_zero_tuples(table, rows: tuple, grid, tol_factor: float) -> list:
    """The tuples that a nonnegative float walk counts near zero, with
    their columns: a float value in [-tol, 0)."""
    out = []
    for t in itertools.combinations(range(len(grid)), len(rows)):
        forms = table.columns(rows, t)
        value = _prepared_det(forms, False)
        biggest = max(abs(v) for c, _ in forms for v in c)
        if -_tolerance(biggest, len(t), tol_factor) <= value < 0:
            out.append(forms)
    return out


@pytest.fixture
def walks(monkeypatch) -> list:
    """One entry for each float walk run from here on."""
    walked, walk = [], determinant._walk

    def counted(cols, n, tally, *rest):
        if not tally.exact:
            walked.append(True)
        return walk(cols, n, tally, *rest)
    monkeypatch.setattr(determinant, "_walk", counted)
    return walked


def passed(m: int, n: int) -> str:
    """The repr of a scan of n-tuples of m points that passed."""
    return repr(SignScan(math.comb(m, n), True))


def scans(system, f, pts: list, tol_factor: float, walks: list) -> list:
    """For each scan of the system's prefixes of two functions or more
    (positive) and of the system extended by f (nonnegative): the scan's
    outcome, the walk's, whether the scan did not walk, and the scan's
    table, rows and grid."""
    grid = PointTuple(pts)
    table = _PointTable(system.basis + (f,), grid)
    out = []
    for rows, positive in [(tuple(range(k)), True) for k in range(2, system.dim + 1)] \
            + [(tuple(range(system.dim + 1)), False)]:
        walks.clear()
        got = outcome(lambda: _sign_scan(REAL_LINE, len(rows), range(len(grid)), table, 10 ** 6,
                                         0, tol_factor, positive)[0])
        want = outcome(float_walk_scan, table, rows, range(len(grid)), positive, tol_factor)
        out.append((got, want, not walks, table, rows, grid))
    return out


def targets(rng: random.Random, system, pts: list) -> list:
    """Sampled targets, and near-degenerate ones: an affine combination
    of the basis plus 0, 1e-17, 1e-15 or 1e-12 times exp."""
    out = [SampledFn(tuple(pts), tuple(rng.uniform(-1, 1) for _ in pts)),
           SampledFn(tuple(pts), tuple(x * x + rng.uniform(-1e-3, 1e-3) for x in pts))]
    for eps in (0.0, 1e-17, 1e-15, 1e-12):
        terms = [(rng.uniform(-2, 2), g) for g in system.basis]
        out.append(affine(*terms, (eps, ExpFn())))
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_certified_scans_match_the_walk_outside_the_deliberate_class(name, walks):
    system, (lo, hi) = SYSTEMS[name]
    rng = random.Random(name)
    certified = deliberate = 0
    for _ in range(6):
        pts = sorted(rng.uniform(lo, hi) for _ in range(rng.randint(5, 9)))
        for f in targets(rng, system, pts) + [ExpFn()]:
            for tol_factor in TOL_FACTORS:
                for got, want, windows, table, rows, grid in scans(system, f, pts, tol_factor,
                                                                   walks):
                    certified += windows and got == passed(len(grid), len(rows))
                    if got == want:
                        continue
                    # the deliberate class: only rounding made the walk's tuples near zero
                    assert windows and got == passed(len(grid), len(rows)), (got, want)
                    assert "verdict='indeterminate'" in want and tol_factor > 0
                    near = near_zero_tuples(table, rows, grid, tol_factor)
                    assert near and all(exact_det(forms) >= 0 for forms in near)
                    deliberate += 1
    assert certified > 0
    assert deliberate < certified


# the columns (1, x, a + b x) at four points: the determinant at (1, 2, 3)
# is -1.58e-16 in float and >= 0 on the float values, and every window passes
ROUNDED = [[1.0, 0.875, -3.538579554388673], [1.0, 1.875, -5.43679611041483],
           [1.0, 2.625, -6.860458527434448], [1.0, 4.75, -10.89416870899003]]


def table_of(columns: list) -> _PointTable:
    """A table whose function i takes entry i of column j at the point j."""
    points = tuple(range(len(columns)))
    return _PointTable(tuple(SampledFn(points, tuple(map(float, row)))
                             for row in zip(*columns)), PointTuple(points))


def walk_and_scan(walks: list, columns: list, positive: bool, tol_factor: float) -> tuple:
    """(the scan, whether it walked, the per-tuple oracle's report), each
    a repr or an error line."""
    m, n = len(columns), len(columns[0])
    rows = tuple(range(n))
    walks.clear()
    got = outcome(lambda: _sign_scan(REAL_LINE, n, range(m), table_of(columns), 10 ** 6, 0,
                                     tol_factor, positive)[0])
    return got, bool(walks), outcome(float_walk_scan, table_of(columns), rows, range(m),
                                     positive, tol_factor)


def test_a_rounded_zero_is_the_deliberate_class(walks):
    got, walked, want = walk_and_scan(walks, ROUNDED, False, 1e-10)
    assert not walked and got == passed(4, 3)
    assert "verdict='indeterminate'" in want and "indeterminate_count=1" in want
    assert exact_det([(c, 1) for c in ROUNDED[1:]]) >= 0


def test_a_zero_tolerance_walks(walks):
    # the walk's rule at tol_factor 0 calls the rounded zero a violation
    got, walked, want = walk_and_scan(walks, ROUNDED, False, 0.0)
    assert walked and got == want and "verdict='violated'" in got


def test_a_negative_tolerance_walks(walks):
    # det 0.01 >= 0, but below -tol = 0.05: a violation by the walk's rule
    got, walked, want = walk_and_scan(walks, [[1, 0], [1, 0.01]], False, -0.05)
    assert walked and got == want and "verdict='violated'" in got


def test_a_positive_scan_walks(walks):
    # det 0.01 > 0, inside the two-sided band tol = 0.05
    got, walked, want = walk_and_scan(walks, [[1, 0], [1, 0.01]], True, 0.05)
    assert walked and got == want and "verdict='indeterminate'" in got
    got, walked, want = walk_and_scan(walks, [[1, 0], [1, 0.01]], False, 0.05)
    assert not walked and got == want


@pytest.mark.parametrize("positive", [True, False])
def test_a_column_at_the_overflow_bound_walks_and_raises(walks, positive):
    # (B, -B) then (B, B): every window passes, and det 2 * B^2 overflows;
    # B = 3 * 2^510 is past 2^(1023/2 - 1), the bound for n = 2
    big = float(3 * 2 ** 510)
    assert big >= 2.0 ** (1023 / 2 - 1)
    got, walked, want = walk_and_scan(walks, [[big, -big], [big, big]], positive, 1e-10)
    assert walked and got == want and got.startswith("NonFiniteValue")


def test_a_column_under_the_overflow_bound_is_certified(walks):
    big = 2.0 ** 510
    got, walked, want = walk_and_scan(walks, [[big, -big], [big, big]], False, 1e-10)
    assert not walked and got == want == passed(2, 2)


def test_a_certified_float_scan_reports_no_pairs(walks):
    # its windows pass, so no tuple violates: its pairs are empty
    (got,) = _sign_scan(REAL_LINE, 3, range(4), table_of(ROUNDED), 10 ** 6, 0, 1e-10, False,
                        cuts=((1, 2),))
    assert not walks and got.verdict is None and got.pairs == {}
    # at tol_factor 0 its windows do not stand in for the walk: no pairs, and no walk
    (got,) = _sign_scan(REAL_LINE, 3, range(4), table_of(ROUNDED), 10 ** 6, 0, 0.0, False,
                        cuts=((1, 2),))
    assert not walks and got.pairs is None


def test_a_certified_scan_calls_no_float_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("a certified scan eliminated")
    system = trig_odd_system(1, -math.pi, 0.0)
    grid = [-3.0 + 2.8 * i / 11 for i in range(12)]
    walk = determinant._walk
    monkeypatch.setattr(determinant, "_walk", lambda cols, n, tally, *rest: walk(
        cols, n, tally, *rest) if tally.exact else refuse())
    got = check_convex_induced(system, 1, ExpFn(), grid)
    assert got.verdict == "convex_on_sample" and got.indeterminate_count == 0
    kernel = determinant._eliminate

    def exact_only(cols, k, exact, *kept):
        return kernel(cols, k, exact, *kept) if exact else refuse()
    monkeypatch.setattr(determinant, "_eliminate", exact_only)
    got = check_convex_direct(system, ExpFn(), grid)
    assert got.verdict == "convex_on_sample" and got.tuples_checked == math.comb(12, 4)


def test_window_0s_columns_are_scaled_first_and_each_column_once(monkeypatch):
    """The direct scan of (1, x) and f on 8 points: concave f fails at
    window 0, its first 3 columns, and only those are scaled
    (determinant._integers); where window 0 passes, the rest are scaled
    in one pass before window 1, each column once, though every window
    but the last two reads 3 of them: convex f's windows all pass, and
    3x^2 - x^3 + e^x / 1000, convex up to x = 1, fails at a later
    window (e^x keeps it off the exact image)."""
    scaled = []
    real = determinant._integers
    monkeypatch.setattr(determinant, "_integers", lambda c: scaled.append(c[1]) or real(c))
    system, grid = polynomial_system(2), [i / 4 for i in range(8)]
    got = check_convex_direct(system, affine((-1.0, ExpFn())), grid)
    assert got.verdict == "violated" and scaled == grid[:3]     # row 1 of a column is x
    kinked = affine((3.0, PowerFn(2)), (-1.0, PowerFn(3)), (1e-3, ExpFn()))
    for f, verdict in ((ExpFn(), "convex_on_sample"), (kinked, "violated")):
        scaled.clear()
        assert check_convex_direct(system, f, grid).verdict == verdict
        assert scaled == grid
