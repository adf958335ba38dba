"""Exact pinned verdicts read off one direct walk by the sign identity.

When the lower part of the window certificate holds, every derived
minor of a pinned base B at a tuple T has the sign of the direct minor at
sorted(B ∪ T) (see ``convexity``'s module docstring).  An exact check
whose bases and inner scans are exhaustive then scans only its first
violated base.  Each check here is compared with the per-base loop in
``oracles.py`` (``pinned_loop``, and ``direct_loop`` for agreement's
direct mode), by full verdict repr or by error class and message, on:

* polynomial, affine and sampled systems, some of whose lower prefixes
  fail on a window, and (1, x^2) on the whole line;
* sampled base and inner budgets, which run the per-base loop;
* targets whose exact evaluation raises."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from chebconvex.convexity import (
    check_convex_induced,
    check_convex_interval,
    cross_mode_agreement,
)
from chebconvex.core import (
    ChebyshevSystem,
    ExpFn,
    FiniteSet,
    Interval,
    PowerFn,
    SampledFn,
    affine,
)
from chebconvex.determinant import _certified, _PointTable, sorted_grid
from chebconvex.errors import InputError
from chebconvex.systems import one_xsq_system, polynomial_system

from oracles import direct_loop, pinned_loop


def result(fn, *args, **kwargs):
    """What ``fn`` returns, or the error it raises as "Class: message"."""
    try:
        return fn(*args, **kwargs)
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def system_of(rng: random.Random, grid: list) -> ChebyshevSystem:
    """A system of dimension 2-4 on ``grid``'s line or points."""
    kind = rng.choice(["poly", "affine", "sampled", "one-xsq"])
    if kind == "one-xsq":
        return one_xsq_system(Interval(), allow_unsafe_domain=True)
    n = rng.choice([2, 3, 3, 4]) if len(grid) <= 6 else rng.choice([2, 3])
    if kind == "poly":
        return polynomial_system(n)
    # triangular rows c_i x^i + lower terms: a negative c_i makes every
    # window's (i+1)-prefix negative
    rows = [[(Fraction(rng.choice([1, 2, 1, -1])), i)]
            + [(Fraction(rng.randint(-3, 3), 2), j) for j in range(i)] for i in range(n)]
    if kind == "affine":
        return ChebyshevSystem(tuple(affine(*((c, PowerFn(j)) for c, j in row)) for row in rows),
                               Interval())
    # sampled: the rows' values, one of them sometimes moved, which may
    # fail a lower prefix on the windows at that point only
    values = [[sum(c * x ** j for c, j in row) for x in grid] for row in rows]
    if rng.random() < 0.5:
        values[rng.randrange(n)][rng.randrange(len(grid))] += rng.choice([-2, -1, 1, 2])
    return ChebyshevSystem(tuple(SampledFn(tuple(grid), tuple(v)) for v in values),
                           FiniteSet(tuple(grid)))


def target_of(rng: random.Random, system: ChebyshevSystem, grid: list):
    n = system.dim
    kind = rng.choice(["affine", "affine", "sampled", "span", "exp", "missing"])
    if kind == "affine":
        return affine(*((Fraction(rng.randint(-8, 8), 4), PowerFn(j))
                        for j in rng.sample(range(n + 2), 2)))
    if kind == "span":          # every derived determinant is zero
        return system.basis[-1]
    if kind == "exp":           # float only: an exact grid raises BackendMismatch
        return ExpFn()
    points = grid if kind == "sampled" else grid[:-1]   # "missing": no value at the last
    return SampledFn(tuple(points), tuple(Fraction(rng.randint(-9, 9), 2) for _ in points))


def case(rng: random.Random) -> tuple:
    m = rng.randint(3, 7)
    grid = [Fraction(i, 4) for i in sorted(rng.sample(range(-12, 13), m))]
    system = system_of(rng, grid)
    f = target_of(rng, system, grid)
    kw = rng.choice([{}, {}, {}, dict(budget=rng.randint(1, 5), seed=rng.randint(0, 3)),
                     dict(base_budget=rng.randint(1, 4), seed=rng.randint(0, 3))])
    return system, f, grid, kw


def lower_part(system: ChebyshevSystem, grid: list) -> str | None:
    """Whether the windows' lower part holds on every window ("holds"),
    on some ("partial") or on none ("fails"); None when the basis does
    not evaluate on the grid."""
    pts = sorted_grid(grid)
    n = system.dim
    try:
        cols = _PointTable(system.basis, pts).columns(tuple(range(n)), range(len(pts)))
    except InputError:
        return None
    ints = [c for c, _ in cols]
    runs = [_certified(w, n, True) == len(w) for s in range(len(ints)) for w in [ints[s:s + n]]]
    return "holds" if all(runs) else "partial" if any(runs) else "fails"


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False))
def test_exact_pinned_modes_match_the_per_base_loop(rng):
    system, f, grid, kw = case(rng)
    direct_kw = {key: v for key, v in kw.items() if key != "base_budget"}
    labeled = [("direct", result(direct_loop, system, f, grid, **direct_kw))]
    for k in range(1, system.dim):
        for ell in (None, *range(k + 1)):
            want = result(pinned_loop, system, k, f, grid, ell, **kw)
            got = result(check_convex_induced, system, k, f, grid, **kw) if ell is None \
                else result(check_convex_interval, system, k, ell, f, grid, **kw)
            assert repr(got) == repr(want), (k, ell)
            labeled.append((f"induced:k={k}" if ell is None else f"interval:k={k}:ell={ell}",
                            want))
    errors = [r for _, r in labeled if isinstance(r, str)]
    got = result(cross_mode_agreement, system, f, grid, **kw)
    assert repr(getattr(got, "verdicts", got)) == repr(errors[0] if errors else tuple(labeled))


def test_the_cases_reach_every_path():
    """The cases above meet violated and convex verdicts on exhaustive
    exact checks whose lower part holds, which the identity reads, and
    on ones whose lower part fails on some windows but not all, which
    the per-base loop reads; and errors."""
    seen = set()
    for seed in range(300):
        system, f, grid, kw = case(random.Random(seed))
        got = result(check_convex_induced, system, 1, f, grid, **kw)
        seen.add((lower_part(system, grid), bool(kw), getattr(got, "verdict", "error")))
    for lower in ("holds", "partial"):
        assert {(lower, False, "violated"), (lower, False, "convex_on_sample")} <= seen
    assert {(lower, True, "violated") for lower in ("holds", "partial")} <= seen
    assert any(verdict == "error" for *_, verdict in seen)


def whole_grid_walks(monkeypatch, m: int) -> list:
    """The position ranges of the calls of ``convexity._sign_scan``
    over all m positions of a check's grid from here on, each recorded
    before its scan runs, so a scan that raises counts too."""
    from chebconvex import convexity

    real, walks = convexity._sign_scan, []

    def sign_scan(domain, n, js, *rest):
        if len(js) == m:
            walks.append(js)
        return real(domain, n, js, *rest)
    monkeypatch.setattr(convexity, "_sign_scan", sign_scan)
    return walks


def test_no_walk_past_the_tuple_budget(monkeypatch):
    """A check whose direct walk would pass the tuple budget scans every
    base, though each base's own scan is exhaustive: C(12, 3) = 220 >
    100 >= C(11, 2).  So does agreement, whose direct scan is sampled."""
    grid = [Fraction(-i, 4) for i in range(12, 0, -1)]
    system, f = polynomial_system(2), PowerFn(3)        # x^3 is concave on x < 0
    want = pinned_loop(system, 1, f, grid, budget=100)
    intervals = [pinned_loop(system, 1, f, grid, ell, budget=100) for ell in (0, 1)]
    walks = whole_grid_walks(monkeypatch, len(grid))
    assert want.verdict == "violated"
    assert repr(check_convex_induced(system, 1, f, grid, budget=100)) == repr(want)
    assert walks == [], "walked past the budget"
    got = cross_mode_agreement(system, f, grid, budget=100).verdicts
    assert len(walks) == 1 and got[0][1].tuples_checked == 100     # the sampled direct scan
    assert repr([v for _, v in got[1:]]) == repr([want, *intervals])


def test_one_walk_per_exact_exhaustive_check(monkeypatch):
    """An exact check whose walk and bases are exhaustive walks the
    whole grid once, standalone or in agreement, and so does a float
    check of transcendental input, whose scan reads its windows; one
    whose bases are sampled, never."""
    system, grid = polynomial_system(3), [Fraction(i) for i in range(7)]
    walks = whole_grid_walks(monkeypatch, len(grid))
    checks = {
        "induced": lambda: check_convex_induced(system, 1, PowerFn(4), grid),
        "interval, ell < k": lambda: check_convex_interval(system, 2, 1, PowerFn(4), grid),
        "interval, ell = k": lambda: check_convex_interval(system, 2, 2, PowerFn(4), grid),
        "agreement": lambda: cross_mode_agreement(system, PowerFn(4), grid),
        "float, exp": lambda: check_convex_induced(system, 1, ExpFn(), list(map(float, grid))),
        "sampled bases": lambda: check_convex_induced(system, 1, PowerFn(4), grid,
                                                      base_budget=6),
    }
    counts = {}
    for name, check in checks.items():
        walks.clear()
        check()
        counts[name] = len(walks)
    assert counts == {"induced": 1, "interval, ell < k": 1, "interval, ell = k": 1,
                      "agreement": 1, "float, exp": 1, "sampled bases": 0}


def test_a_walk_error_is_met_in_the_per_base_order():
    """The walk of a standalone pinned check meets -1 outside the
    domain of (1, x^2) as a grid point; the check raises what the
    per-base loop meets first, its base point -1."""
    system, f, grid = one_xsq_system(), PowerFn(4), [-1, 1, 2, 3]
    want = "InputError: base point -1 is outside the parent domain"
    assert result(pinned_loop, system, 1, f, grid) == result(pinned_loop, system, 1, f, grid, 1) \
        == want
    assert result(check_convex_induced, system, 1, f, grid) == want
    assert result(check_convex_interval, system, 1, 1, f, grid) == want
