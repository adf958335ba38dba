"""Exact pinned modes read their witness, its value and its base off the
direct walk, and scan no base.

For each mode the walk records the smallest pair (B*, T*) of a violating
tuple's base and inner tuple; B* is the mode's first violated base, T*
the witness of its scan, and the witness's value is the left side of the
factorization identity at (B*, T*), computed from the parent's exact
determinants (see ``convexity``'s module docstring).  Each check here is
compared with the per-base loop in ``oracles.py`` (``pinned_loop``):
verdict, witness, value, base and counts."""

import random
from fractions import Fraction

from chebconvex import convexity
from chebconvex.convexity import (
    check_convex_induced,
    check_convex_interval,
    cross_mode_agreement,
)
from chebconvex.core import ChebyshevSystem, FiniteSet, Interval, PowerFn, SampledFn, affine
from chebconvex.determinant import _certified, _PointTable, sorted_grid
from chebconvex.induced import _PinnedBase
from chebconvex.systems import one_xsq_system, polynomial_system

from oracles import pinned_loop

FIELDS = ("verdict", "witness", "witness_value", "witness_base", "tuples_checked",
          "bases_checked", "bases_skipped", "indeterminate_count")


def fields(verdict) -> str:
    """The fields of a verdict compared here, as their repr, so that a
    Fraction and an int of one value differ."""
    return repr(tuple(getattr(verdict, name) for name in FIELDS))


def system_of(rng: random.Random, grid: list) -> ChebyshevSystem:
    """poly:2-4; a triangular affine system c_i x^i + lower terms, whose
    lower part fails on every window where some c_i < 0; its values
    sampled on the grid, one of them at times moved, which may fail the
    lower part on the windows at that point only; or (1, x^2) on the
    whole line, which fails it on the windows left of 0."""
    kind = rng.choice(["poly", "poly", "affine", "sampled", "one-xsq"])
    if kind == "one-xsq":
        return one_xsq_system(Interval(), allow_unsafe_domain=True)
    n = rng.choice([2, 3, 4])
    if kind == "poly":
        return polynomial_system(n)
    rows = [[(Fraction(rng.choice([1, 2, 1, 1, -1])), i)]
            + [(Fraction(rng.randint(-3, 3), 2), j) for j in range(i)] for i in range(n)]
    if kind == "affine":
        return ChebyshevSystem(tuple(affine(*((c, PowerFn(j)) for c, j in row)) for row in rows),
                               Interval())
    values = [[sum(c * x ** j for c, j in row) for x in grid] for row in rows]
    if rng.random() < 0.5:
        values[rng.randrange(n)][rng.randrange(len(grid))] += rng.choice([-2, -1, 1, 2])
    return ChebyshevSystem(tuple(SampledFn(tuple(grid), tuple(v)) for v in values),
                           FiniteSet(tuple(grid)))


def target_of(rng: random.Random, n: int, grid: list):
    """An affine combination of powers up to x^(n+1), or a sampled
    function: x^n (convex) with some values moved, or random values."""
    kind = rng.choice(["affine", "moved", "random"])
    if kind == "affine":
        return affine(*((Fraction(rng.randint(-8, 8), 4), PowerFn(j))
                        for j in rng.sample(range(n + 2), 2)))
    values = [Fraction(x) ** n for x in grid] if kind == "moved" else \
        [Fraction(rng.randint(-9, 9), 2) for _ in grid]
    for _ in range(rng.randint(1, 2) if kind == "moved" else 0):
        values[rng.randrange(len(grid))] += Fraction(rng.randint(-8, 8), 4)
    return SampledFn(tuple(grid), tuple(values))


def case(seed: int) -> tuple:
    rng = random.Random(seed)
    m = rng.randint(5, 7)      # n + 1 points at least, which the direct mode needs
    grid = [Fraction(i, 4) for i in sorted(rng.sample(range(-12, 13), m))]
    system = system_of(rng, grid)
    return system, target_of(rng, system.dim, grid), grid


def lower_holds(system: ChebyshevSystem, grid: list) -> bool:
    """Whether the direct walk's lower part, the basis rows asked > 0 on
    every window, holds: the condition of the read-off."""
    pts = sorted_grid(grid)
    cols = _PointTable(system.basis, pts).columns(tuple(range(system.dim)), range(len(pts)))
    return _certified([c for c, _ in cols], system.dim, True) == len(cols)


def outcome(fn, *args):
    """``fn(*args)``, or the error it raises as "Class: message"."""
    try:
        return fn(*args)
    except Exception as exc:    # compared with the per-base loop's
        return f"{type(exc).__name__}: {exc}"


def test_the_read_off_matches_the_per_base_loop(monkeypatch):
    """Exact standalone induced and interval checks (every k and ell) and
    agreement against the per-base loop, on grids whose lower part holds
    (the read-off) and fails (every base scanned)."""
    read = []
    real = convexity._read_off
    monkeypatch.setattr(convexity, "_read_off", lambda *args: read.append(1) or real(*args))
    seen = set()
    for seed in range(80):
        system, f, grid = case(seed)
        n, holds = system.dim, lower_holds(system, grid)
        wants = []
        for k in range(1, n):
            for ell in (None, *range(k + 1)):
                want = outcome(pinned_loop, system, k, f, grid, ell)
                before = len(read)
                got = outcome(check_convex_induced, system, k, f, grid) if ell is None \
                    else outcome(check_convex_interval, system, k, ell, f, grid)
                if isinstance(want, str):
                    assert got == want, (seed, k, ell)
                    continue
                assert fields(got) == fields(want), (seed, k, ell)
                assert len(read) - before == (holds and want.verdict == "violated"), seed
                seen.add((holds, want.verdict, ell is None or ell == k))
                wants.append(want)
        if len(wants) == sum(k + 2 for k in range(1, n)):     # no mode raised
            pinned = [v for _, v in cross_mode_agreement(system, f, grid).verdicts[1:]]
            assert [fields(v) for v in pinned] == [fields(v) for v in wants], seed
    # violated modes read off the walk, with prefix cuts (induced, ell = k)
    # and others (ell < k); and modes of grids whose lower part fails
    assert {(True, "violated", True), (True, "violated", False),
            (True, "convex_on_sample", True), (False, "violated", True),
            (False, "violated", False)} <= seen


def refuse_pinned(monkeypatch):
    """Make any pinned base that a convexity check builds, and any scan
    of one, fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pinned base was built")

    def sign_scan(domain, n, js, table, *rest):
        assert not isinstance(table, _PinnedBase), "a pinned base was scanned"
        return real(domain, n, js, table, *rest)
    real = convexity._sign_scan
    monkeypatch.setattr(convexity, "_sign_scan", sign_scan)
    monkeypatch.setattr(convexity, "_PinnedBase", refuse)


#: x^3 with its value at 5 lowered: the first violated bases of its
#: pinned modes are not the first bases
DIP = SampledFn(tuple(range(7)), (0, 1, 8, 27, 64, 110, 216))


def test_a_violated_walked_check_scans_no_base(monkeypatch):
    system, grid = polynomial_system(3), list(range(7))
    want = {(k, ell): pinned_loop(system, k, DIP, grid, ell)
            for k in (1, 2) for ell in (None, *range(k + 1))}
    refuse_pinned(monkeypatch)
    for (k, ell), w in want.items():
        got = check_convex_induced(system, k, DIP, grid) if ell is None \
            else check_convex_interval(system, k, ell, DIP, grid)
        assert got.verdict == "violated" and fields(got) == fields(w), (k, ell)
    got = [v for _, v in cross_mode_agreement(system, DIP, grid).verdicts[1:]]
    assert [fields(v) for v in got] == [fields(w) for w in want.values()]
    assert want[1, None].witness_base == (0,) and want[2, 1].witness_base == (0, 5)


def test_a_routed_float_agreement_pins_each_witness_base_once(monkeypatch):
    """A float agreement of rational input answers on the exact engine,
    which pins no base, and spells each violated verdict in float on a
    pinned base of the float grid: one for every verdict of that base."""
    built = []

    class Counted(_PinnedBase):
        def __init__(self, table, k, base, *rest):
            super().__init__(table, k, base, *rest)
            built.append(base)

    monkeypatch.setattr(convexity, "_PinnedBase", Counted)
    grid = [float(x) for x in range(7)]
    report = cross_mode_agreement(polynomial_system(3), DIP, grid)
    pinned = [v for _, v in report.verdicts[1:]]
    assert all(v.verdict == "violated" and v.indeterminate_count == 0 for v in pinned)
    bases = {tuple(grid.index(x) for x in v.witness_base) for v in pinned}
    assert len(bases) < len(pinned)     # modes share witness bases
    assert sorted(built) == sorted(bases)

