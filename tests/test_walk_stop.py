"""An exact exhaustive walk stops at its first violation when every cut
it keeps is a prefix cut (t[:c], c + w == n), or it keeps none: the
walk meets its tuples in lexicographic order, so the first violation is
the witness, and its (t[:c], t[c:]) is the smallest pair of a base and
an inner tuple of every prefix cut.  Its report, and those pairs, are
the walk's on every tuple (``full_walk_scan``)."""

import itertools
import math
import random
from fractions import Fraction

from chebconvex import determinant
from chebconvex.convexity import check_convex_direct
from chebconvex.core import Interval, PointTuple, PowerFn, SampledFn, affine
from chebconvex.determinant import DEFAULT_TOL_FACTOR, _certified, _PointTable, _sign_scan
from chebconvex.systems import polynomial_system

from oracles import cofactor_det, direct_loop, full_walk_scan


def test_a_violated_walk_computes_one_row_of_leaves(monkeypatch):
    """Every extended determinant of (1, x, x^2, x^3, -x^4) is negative:
    the walk stops at the first tuple of its first row of leaves, where
    a walk of every tuple reads C(14, 5) = 2,002 values."""
    rows, adds = [], []
    row, add = determinant._Tally.row, determinant._Tally.add

    def counted_row(self, t, js, values, *rest):
        rows.append(len(values))
        return row(self, t, js, values, *rest)

    def counted_add(self, t, *rest):
        adds.append(t)
        return add(self, t, *rest)
    monkeypatch.setattr(determinant._Tally, "row", counted_row)
    monkeypatch.setattr(determinant._Tally, "add", counted_add)
    system, f, grid = polynomial_system(4), affine((-1, PowerFn(4))), list(range(14))
    got = check_convex_direct(system, f, grid)
    assert sum(rows) <= 14 - 4 and adds == [(0, 1, 2, 3, 4)]
    assert got == direct_loop(system, f, grid)
    assert got.verdict == "violated" and got.witness == (0, 1, 2, 3, 4)
    assert got.tuples_checked == math.comb(14, 5) and got.indeterminate_count == 0


def case(rng: random.Random) -> tuple:
    """n integer rows (n in 2..5) on m points (m in n..9), whether a scan
    asks > 0, and cuts: none, prefix cuts only, or a mix with a cut that
    is not a prefix.  Rows 0..n-2 are weighted Vandermonde rows, so the
    lower part often holds; the last row is random, a weighted
    polynomial of degree at most n - 1 (one of degree < n - 1 makes
    every determinant 0), or that polynomial with one entry moved.  At
    times one column is made 0, a zero-pivot subtree of the walk, or one
    entry of a lower row is negated, which fails the lower part."""
    n = rng.randint(2, 5)
    m = rng.randint(n, 9)
    xs = sorted(rng.sample(range(-4, 7), m))
    ws = [rng.randint(1, 3) for _ in range(m)]
    rows = [[w * x ** i for x, w in zip(xs, ws)] for i in range(n - 1)]
    kind = rng.choice(["random", "polynomial", "moved"])
    if kind == "random":
        last = [rng.randint(-3, 3) for _ in range(m)]
    else:
        coef = [rng.randint(-2, 2) for _ in range(n - 1)] + [rng.randint(0, 1)]
        last = [w * sum(c * x ** k for k, c in enumerate(coef)) for x, w in zip(xs, ws)]
        if kind == "moved":
            last[rng.randrange(m)] += rng.choice([-1, 1])
    rows.append(last)
    r = rng.random()
    if r < 0.2:
        j = rng.randrange(m)
        for row in rows:
            row[j] = 0
    elif r < 0.3:
        i, j = rng.randrange(n - 1), rng.randrange(m)
        rows[i][j] = -rows[i][j]
    every = [(c, w) for c in range(n) for w in range(1, n - c + 1)]
    prefix = [cut for cut in every if sum(cut) == n]
    which = rng.choice(["none", "prefix", "mixed"])
    cuts = () if which == "none" else tuple(rng.sample(prefix, rng.randint(1, len(prefix))))
    if which == "mixed":
        cuts += tuple(rng.sample([cut for cut in every if sum(cut) < n], 1))
    return rows, rng.random() < 0.5, cuts


def table_of(rows: list) -> _PointTable:
    points = tuple(range(len(rows[0])))
    return _PointTable(tuple(SampledFn(points, tuple(Fraction(v) for v in r)) for r in rows),
                       PointTuple(points))


def test_every_exact_walk_reports_as_a_walk_of_every_tuple():
    seen = set()
    for seed in range(600):
        rows, positive, cuts = case(random.Random(seed))
        n, m = len(rows), len(rows[0])
        table = table_of(rows)
        (got,) = _sign_scan(Interval(), n, range(m), table, 10 ** 6, 0, DEFAULT_TOL_FACTOR,
                            positive, cuts)
        want, pairs = full_walk_scan(table, tuple(range(n)), range(m), positive, cuts)
        assert got == want, seed
        cols = [list(c) for c in zip(*rows)]
        held, whole = (_certified(cols, r, p) == m for r, p in ((n - 1, True), (n, positive)))
        lower = held and not whole
        assert got.pairs == ({} if whole else
                             pairs if cuts and lower else None), seed
        # what each case reaches
        kind = "none" if not cuts else "prefix" if all(sum(c) == n for c in cuts) else "mixed"
        zeros = [t for t in itertools.combinations(range(m), n)
                 if cofactor_det([[r[j] for j in t] for r in rows]) == 0]
        seen.add((kind, lower, got.verdict))
        if positive and got.verdict and got.witness_value == 0:
            seen.add("a zero is the positive scan's witness")
        if not positive and zeros and (got.verdict is None or min(zeros) < got.witness):
            seen.add("a zero before the nonnegative scan's witness")
    for kind in ("none", "prefix", "mixed"):
        assert {(kind, True, "violated"), (kind, False, "violated"), (kind, False, None)} <= seen
    assert {"a zero is the positive scan's witness",
            "a zero before the nonnegative scan's witness"} <= seen
