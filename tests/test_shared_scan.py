"""One scan per pinned base for all of its modes (convexity's per-base
loop and determinant._sign_scan's ``parts``), and the closed-form counts
of an exact check that reads its modes off the direct walk.

Every standalone induced and interval check, and agreement, is checked
against the per-base loop in ``oracles.py``, which scans every mode of
every base on its own: reports must be identical, float values included
(compared by repr), and so must the error a check raises, message
included.  Spies show that each case reaches the path it is named for:
sampled bases, sampled inner scans beside exhaustive gaps, a gap whose
windows pass where the whole's fail, a whole whose float windows
:func:`determinant._dyadic` refuses for an entry outside a gap, and an
error at a point inside one gap.  Guards count the scans: one per base
on a float agreement, none and no listed base on an exact one that reads
the walk, and a sampled-base agreement's direct walk that stops at its
first violation; and the windows a float agreement's parts read."""

import math
import random
from fractions import Fraction

import pytest

from chebconvex import convexity, determinant
from chebconvex.convexity import (
    check_convex_direct,
    check_convex_induced,
    check_convex_interval,
    cross_mode_agreement,
)
from chebconvex.core import (
    REAL_LINE,
    ChebyshevSystem,
    ExpFn,
    Interval,
    PointTuple,
    PowerFn,
    SampledFn,
    affine,
)
from chebconvex.determinant import _PointTable, _sign_scan
from chebconvex.errors import InputError, NonFiniteValue
from chebconvex.induced import _PinnedBase
from chebconvex.systems import one_xsq_system, polynomial_system, trig_odd_system

from oracles import pinned_loop

TRIG = trig_odd_system(1, -math.pi, 0.0)
EXP = ChebyshevSystem((PowerFn(0), PowerFn(1), ExpFn()), REAL_LINE)     # (1, x, e^x)
POLY = polynomial_system(3)


def result(fn, *args, **kwargs):
    """What ``fn`` returns, or the error it raises as "Class: message"."""
    try:
        return fn(*args, **kwargs)
    except (InputError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def every_mode(system, f, grid, **kw) -> list:
    """Each standalone induced and interval check of every k against the
    oracle, then agreement's pinned verdicts (or its error) against the
    oracle's, in its order, the first error among them raised.  Returns
    the oracle's results."""
    direct_kw = {key: v for key, v in kw.items() if key != "base_budget"}
    want = [result(check_convex_direct, system, f, grid, **direct_kw)]
    for k in range(1, system.dim):
        for ell in (None, *range(k + 1)):
            oracle = result(pinned_loop, system, k, f, grid, ell, **kw)
            got = result(check_convex_induced, system, k, f, grid, **kw) if ell is None \
                else result(check_convex_interval, system, k, ell, f, grid, **kw)
            assert repr(got) == repr(oracle), (k, ell)
            want.append(oracle)
    errors = [r for r in want if isinstance(r, str)]
    got = result(cross_mode_agreement, system, f, grid, **kw)
    assert repr(errors[0] if errors else want) == repr(
        got if isinstance(got, str) else [v for _, v in got.verdicts])
    return want[1:]


@pytest.fixture
def seen(monkeypatch):
    """What the scans given parts met, by name: "sampled" (a unit scanned
    alone while another mode's scan of the base is sampled), "gap
    certified" (a part's windows pass where the whole's fail), "dyadic
    refused" (the whole's float windows refused, a part's read), and
    "error" (a scan of a base that raised)."""
    found: set = set()
    scan, certified, dyadic = determinant._sign_scan, determinant._certified, \
        determinant._dyadic
    calls: list = []

    def sign_scan(domain, n, js, table, budget, seed, tol_factor, positive, cuts=(), parts=()):
        pinned = isinstance(table, _PinnedBase)
        if pinned and not parts and math.comb(len(js), n) <= budget < \
                math.comb(len(table.grid) - len(table.base), n):
            found.add("sampled")
        calls.append([] if parts else None)
        try:
            return scan(domain, n, js, table, budget, seed, tol_factor, positive, cuts, parts)
        except Exception:
            if pinned:
                found.add("error")
            raise
        finally:
            got = calls.pop() or ()
            for name, what in (("certified", "gap certified"), ("dyadic", "dyadic refused")):
                passed = [ok for called, ok in got if called == name]
                if passed and not passed[0] and any(passed[1:]):
                    found.add(what)

    def spy(name, fn):
        def wrapped(*args):
            out = fn(*args)
            if calls and calls[-1] is not None:     # a certificate holds past its last window
                calls[-1].append((name, out is not None if name == "dyadic"
                                  else out == len(args[0])))
            return out
        return wrapped
    monkeypatch.setattr(convexity, "_sign_scan", sign_scan)
    monkeypatch.setattr(determinant, "_certified", spy("certified", certified))
    monkeypatch.setattr(determinant, "_dyadic", spy("dyadic", dyadic))
    return found


def kinked(grid, at: int, drop, g=lambda x: x * x) -> SampledFn:
    """g on ``grid`` less ``drop`` at position ``at``: convex away from
    it, violated near it."""
    return SampledFn(tuple(grid), tuple(g(x) - (drop if j == at else 0)
                                        for j, x in enumerate(grid)))


# ---------------------------------------------------------------------------
# a scan given parts: each part's scan is the scan of its range alone

def table_of(columns: list, exact: bool) -> _PointTable:
    """A table whose function i takes entry i of column j at the point j."""
    points = tuple(range(len(columns)))
    cast = Fraction if exact else float
    return _PointTable(tuple(SampledFn(points, tuple(map(cast, row))) for row in zip(*columns)),
                       PointTuple(points))


def scans(table, n: int, m: int, parts: list, tol_factor: float) -> tuple:
    """The scans of n-tuples of all m points given ``parts``, and the
    scans of all m points and of each part's range, each alone."""
    def run(js, parts=()):
        try:
            return repr(_sign_scan(REAL_LINE, n, js, table, 10 ** 6, 0, tol_factor, False, (),
                                   parts))
        except NonFiniteValue as exc:
            return f"NonFiniteValue: {exc}"
    alone = [run(range(m))] + [run(range(a, b)) for a, b in parts]
    return run(range(m), parts), alone[0] if alone[0].startswith("NonFinite") else \
        "[" + ", ".join(scan[1:-1] for scan in alone) + "]"   # each alone a list of one


def test_parts_scan_as_their_ranges_alone(scan_modes):
    """Random columns, exact and float, some of them near a singular or
    violated configuration, and random ranges of them, in both float
    scan modes (see conftest's scan_modes): each part's scan, walked in
    the one float walk or on its own exact walk, or passed by its own
    windows, is the scan of its range alone."""
    rng = random.Random(11)
    seen = set()
    for mode in scan_modes:
        with mode():
            for _ in range(300):
                exact, n, m = rng.random() < 0.4, rng.choice((2, 3)), rng.randint(4, 9)
                xs = sorted(rng.sample(range(1, 40), m))
                g = rng.choice((lambda x: x * x, lambda x: -x * x, lambda x: x ** 3 - 9 * x,
                                lambda x: rng.randint(-3, 3)))
                columns = [[1, x / 8, g(x / 8)] if n == 3 else [1, g(x / 8)] for x in xs]
                if exact:
                    columns = [[Fraction(v).limit_denominator(512) for v in c] for c in columns]
                cuts = sorted(rng.sample(range(m + 1), 2))
                parts = [(0, cuts[0]), (cuts[0], cuts[1]), (cuts[1], m)]
                parts = [(a, b) for a, b in parts if b - a >= n][:rng.randint(0, 3)]
                got, want = scans(table_of(columns, exact), n, m, parts,
                                  rng.choice((1e-10, 0.05, 0.0)))
                assert got == want
                seen |= {v for v in ("violated", "indeterminate") if v in got}
    assert seen == {"violated", "indeterminate"}


#: Four float columns of (1, x, f(x)) whose walk counts one tuple near
#: zero, a rounded zero, though their windows pass (as in
#: test_float_certificate.py).
ROUNDED = [[1.0, 0.875, -3.538579554388673], [1.0, 1.875, -5.43679611041483],
           [1.0, 2.625, -6.860458527434448], [1.0, 4.75, -10.89416870899003]]


def test_a_part_whose_windows_pass_is_not_walked(monkeypatch):
    """ROUNDED, then a column that breaks the whole's windows: the whole
    walks and counts the rounded zero, and the part of the four passes
    with none, as its scan alone does."""
    walks = []
    walk = determinant._walk

    def counted(cols, n, tally, *rest):
        if not tally.exact:
            walks.append(cols)
        return walk(cols, n, tally, *rest)
    monkeypatch.setattr(determinant, "_walk", counted)
    table = table_of(ROUNDED + [[1.0, 5.5, -13.0]], False)
    got, want = scans(table, 3, 5, [(0, 4)], 1e-10)
    assert got == want and len(walks) == 2     # the whole, given the part and alone
    whole, part = _sign_scan(REAL_LINE, 3, range(5), table, 10 ** 6, 0, 1e-10, False, (),
                             [(0, 4)])
    assert whole.verdict == "violated" and whole.indeterminate_count == 1
    assert part.verdict is None and part.indeterminate_count == 0


def test_a_part_reads_no_window_before_the_wholes_first_failing_one(monkeypatch):
    """ROUNDED's windows pass, and a fifth column breaks the whole's at
    window 2: the part of the first four reads only its windows 2 and 3,
    the first a prefix of the whole's window 2, and passes."""
    reads = []
    real = determinant._certified
    monkeypatch.setattr(determinant, "_certified", lambda ints, n, positive, floats=(): reads.append(
        (len(floats or ints), real(ints, n, positive, floats))) or reads[-1][1])
    table = table_of(ROUNDED + [[1.0, 5.5, -13.0]], False)
    whole, part = _sign_scan(REAL_LINE, 3, range(5), table, 10 ** 6, 0, 1e-10, False, (),
                             [(0, 4)])
    assert reads == [(5, 2), (2, 2)] and part.verdict is None


# ---------------------------------------------------------------------------
# differentials against the per-base loop

@pytest.mark.parametrize("system, grid", [
    (TRIG, [-3.0 + 0.4 * j for j in range(8)]),
    (EXP, [-1.5 + 0.375 * j for j in range(8)]),
    (POLY, [Fraction(j - 3, 2) for j in range(8)]),
])
def test_sampled_bases_and_inner_scans(system, grid, seen):
    """Sampled bases; inner scans sampled for the induced mode but
    exhaustive in small gaps, so that each mode scans alone; both."""
    exact = isinstance(grid[0], Fraction)
    rng = random.Random(3)
    targets = [kinked(grid, 5, Fraction(1, 2) if exact else 0.5),
               SampledFn(tuple(grid), tuple(Fraction(rng.randint(-8, 8), 4) if exact
                                            else rng.uniform(-2, 2) for _ in grid))]
    results = []
    for f in targets:
        for kw in (dict(base_budget=5, seed=1), dict(budget=12, seed=2),
                   dict(budget=6, base_budget=4, seed=4)):
            results += every_mode(system, f, grid, **kw)
    assert "sampled" in seen
    verdicts = {getattr(r, "verdict", None) for r in results}
    assert {"violated", "convex_on_sample"} <= verdicts


@pytest.mark.parametrize("system, grid", [
    (TRIG, [-3.0 + 0.35 * j for j in range(8)]),
    (EXP, [-1.5 + 0.375 * j for j in range(8)]),
    (POLY, [Fraction(j - 3, 2) for j in range(8)]),
])
def test_a_gap_whose_windows_pass_where_the_wholes_fail(system, grid, seen):
    """f convex but for a kink near the top of the grid: for a base below
    the kink, the gap below the base certifies and the whole walks.  An
    exact check samples its bases, so that it scans them."""
    exact = isinstance(grid[0], Fraction)
    f = kinked(grid, 6, Fraction(3) if exact else 3.0)
    every_mode(system, f, grid, base_budget=20 if exact else 10_000, seed=5)
    assert "gap certified" in seen


def test_a_whole_refused_by_dyadic_for_an_entry_outside_a_gap(seen, monkeypatch):
    """A derived value past _dyadic's bound for three rows, 2^339.5,
    though the walk's tolerance, its cube, does not overflow: on
    (1, x^2, x^4), the denominator x^2 - b^2 of the base b = 1e-5 at x0
    = -b(1 - 2^-53) is about 3e-26, so the value 8e76 at x0, under the
    direct scan's own overflow bound, derives to 2e102 there.  The whole
    of that base is refused, and its gap above the base, which misses
    x0, reads its own windows.  The check keeps its float walk (no exact
    image), which is what the oracle computes."""
    monkeypatch.setattr(determinant, "_exact_image", lambda *args: None)
    system = ChebyshevSystem((PowerFn(0), PowerFn(2), PowerFn(4)), Interval())
    b = 1e-5
    x0 = -math.nextafter(b, 0.0)
    grid = [-0.9, -0.55, -0.3, x0, b, 0.25, 0.5, 0.75, 1.0]
    f = SampledFn(tuple(grid), tuple(8e76 if x == x0 else x ** 6 for x in grid))
    got = every_mode(system, f, grid, tol_factor=1e-30)
    assert "dyadic refused" in seen
    assert got[0].verdict == "violated" and got[0].indeterminate_count > 0


@pytest.mark.parametrize("exact", [True, False])
def test_a_singular_denominator_inside_one_gap(exact, seen):
    """(1, x^2) on the whole line: the derived denominator x^2 - b^2
    vanishes at x = -b, a point in the gap below the base b, which the
    induced scan, and so the one scan of the base, meets."""
    system = one_xsq_system(Interval(), allow_unsafe_domain=True)
    grid = [Fraction(j) if exact else float(j) for j in (-2, -1, 1, 3, 4, 5)]
    for kw in ({}, dict(base_budget=3, seed=1)):
        assert "SingularDenominator" in every_mode(system, PowerFn(4), grid, **kw)[0]
    assert "error" in seen


def test_a_non_finite_value_inside_one_gap(seen):
    grid = [-3.0 + 0.4 * j for j in range(7)]
    f = SampledFn(tuple(grid), tuple(math.inf if j == 1 else x * x for j, x in enumerate(grid)))
    for kw in ({}, dict(base_budget=4, seed=2)):
        assert "NonFiniteValue" in every_mode(TRIG, f, grid, **kw)[0]
    assert "error" in seen


# ---------------------------------------------------------------------------
# guards on the number of scans

def test_one_scan_per_base_on_a_float_agreement(monkeypatch):
    """A float agreement of transcendental input whose windows fail
    makes one sign scan for its direct mode and one per base of each k,
    for all of its modes; one whose windows pass, its direct scan alone."""
    calls = []
    real = convexity._sign_scan
    monkeypatch.setattr(convexity, "_sign_scan",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    grid = [-3.0 + 0.4 * j for j in range(8)]
    f = affine((1.0, PowerFn(2)), (-0.5, PowerFn(3)))
    report = cross_mode_agreement(TRIG, f, grid)
    assert len(report.verdicts) == 1 + (1 + 2) + (1 + 3)
    assert {v.verdict for _, v in report.verdicts} == {"violated"}
    assert len(calls) == 1 + math.comb(8, 1) + math.comb(8, 2)
    calls.clear()
    report = cross_mode_agreement(TRIG, affine((1.0, PowerFn(2)), (0.5, PowerFn(3))), grid)
    assert {v.verdict for _, v in report.verdicts} == {"convex_on_sample"}
    assert len(calls) == 1


def test_a_float_agreement_reads_no_window_the_whole_settled(monkeypatch):
    """The windows _certified reads on a float agreement kinked at 6: a
    part read on the whole's columns starts at the whole's first failing
    window f, and one whose window at f holds the whole's columns, which
    failed, is not read.  Every part that read its windows from its own
    start made 91 reads of 426 windows here."""
    reads = []
    real = determinant._certified
    monkeypatch.setattr(determinant, "_certified", lambda ints, n, positive, floats=():
                        reads.append(len(floats or ints)) or real(ints, n, positive, floats))
    grid = [-3.0 + 0.35 * j for j in range(8)]
    report = cross_mode_agreement(TRIG, kinked(grid, 6, 3.0), grid)
    assert {v.verdict for _, v in report.verdicts} >= {"violated"}
    assert (len(reads), sum(reads)) == (65, 324)


def test_an_exact_read_off_lists_no_base(monkeypatch):
    """An exact agreement whose direct walk certifies its lower part, on
    a grid in the domain, counts its modes' bases and tuples in closed
    form: it lists no base, checks none against the domain and scans
    none, and its counts are the per-base loop's."""
    grid = [Fraction(j, 3) for j in range(-3, 7)]     # f''' = 24x - 12 < 0 below 1/2
    f = affine((1, PowerFn(4)), (-2, PowerFn(3)))
    want = [pinned_loop(POLY, k, f, grid, ell) for k in (1, 2) for ell in (None, *range(k + 1))]

    def refuse(*args, **kwargs):
        raise AssertionError("a per-base loop ran")
    for name in ("increasing_tuples", "_check_base", "_PinnedBase", "_span"):
        monkeypatch.setattr(convexity, name, refuse)
    report = cross_mode_agreement(POLY, f, grid)
    assert repr([v for _, v in report.verdicts[1:]]) == repr(want)
    assert {v.verdict for v in want} == {"violated"}
    assert all(v.bases_skipped for v in want if v.mode == "interval")


def test_a_sampled_base_agreement_walks_to_its_first_violation(monkeypatch):
    """With sampled bases no mode reads the direct walk's pairs, so the
    walk keeps no interval cut and stops at its first violation (x^4,
    whose third derivative is negative on x < 0, violates convexity with
    respect to (1, x, x^2) at every tuple).  The whole check tallies a
    handful of tuples; keeping the cuts, its walk tallied 91,398.  Each
    exact per-base scan stops at its first violation too."""
    adds = []
    real = determinant._Tally.add
    monkeypatch.setattr(determinant._Tally, "add",
                        lambda self, *a: adds.append(a) or real(self, *a))
    grid = [Fraction(-40 + j, 4) for j in range(40)]
    report = cross_mode_agreement(POLY, PowerFn(4), grid, k_list=[1], base_budget=3)
    assert [v.verdict for _, v in report.verdicts] == ["violated"] * 4
    assert len(adds) < 100
