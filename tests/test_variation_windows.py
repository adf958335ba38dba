"""Partition sums from one point table per partition
(``variation._window_sum``, the one route ``estimate_variation`` and
``check_variation_bound`` take to them) checked against the per-window
loop in ``oracles.py``, which takes one fresh ``divided_difference`` per
window.  On given partitions, uniform, jittered, of ints and mixed, the
sums are ``oracles.window_sum``'s, which calls ``_window_sum`` on a grid
of the points; the estimates and bounds are the public entries', whose
reference runs swap the oracle in for every partition sum.  Both must
give the same values, float bits included (compared by repr), and
raise the same error with the same message.  An exact window whose rows
are all built directly takes one elimination, every other window two;
both are checked here against the loop, which takes two."""

import math
import random
from fractions import Fraction

import pytest

from chebconvex import determinant, variation
from chebconvex.core import (
    DEFAULT_MIN_GAP,
    Backend,
    ChebyshevSystem,
    ConstFn,
    CosFn,
    ExpFn,
    Interval,
    PointTuple,
    PowerFn,
    SampledFn,
    affine,
    system_from_json,
)
from chebconvex.determinant import _PointTable
from chebconvex.divdiff import _ratio, divided_difference
from chebconvex.errors import InputError
from chebconvex.systems import polynomial_system, trig_odd_system
from chebconvex.variation import RefinementStrategy, check_variation_bound, estimate_variation

from oracles import (
    collocation_matrix_per_value,
    positivity_tolerance,
    row_det,
    uniform_partition_points,
    variation_loop,
    window_sum,
)


def result(fn, *args, **kwargs):
    """What ``fn`` returns, or the error it raises as "Class: message"."""
    try:
        return fn(*args, **kwargs)
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def loop_sum(table, system, js, tol_factor):
    return variation_loop(system, table.fns[-1], tuple(table.grid[j] for j in js), tol_factor)


@pytest.fixture
def same(monkeypatch):
    """same(fn, *args) asserts that ``fn`` gives by repr what it gives
    with the oracle's loop for every partition sum, and returns that."""
    def check(fn, *args, **kwargs):
        got = result(fn, *args, **kwargs)
        with monkeypatch.context() as patched:
            patched.setattr(variation, "_window_sum", loop_sum)
            want = result(fn, *args, **kwargs)
        assert repr(got) == repr(want)
        return want
    return check


def sums_match(system, f, points, **kw):
    """The partition sum over ``points`` against the oracle's, by repr;
    returns the outcome."""
    want = result(variation_loop, system, f, points, **kw)
    assert repr(result(window_sum, system, f, points, **kw)) == repr(want)
    return want


def uniform(a, b, m):
    """a, b and m - 1 points between, as estimate_variation spaces them."""
    step = (lambda i: Fraction(i, m)) if isinstance(a, Fraction) else (lambda i: i / m)
    return tuple(a + (b - a) * step(i) for i in range(m)) + (b,)


def jittered(rng: random.Random, base: tuple) -> tuple:
    """Interior points moved by less than a quarter of the local mesh."""
    pts = list(base)
    for i in range(1, len(pts) - 1):
        room = min(pts[i] - pts[i - 1], pts[i + 1] - pts[i])
        if isinstance(pts[i], Fraction):
            pts[i] += Fraction(rng.randint(-99, 99), 400) * room
        else:
            pts[i] += (rng.random() - 0.5) * room / 2
    return tuple(pts)


def targets(rng: random.Random, n: int, exact: bool, pts) -> list:
    coef = (lambda: Fraction(rng.randint(-12, 12), 4)) if exact \
        else (lambda: rng.randint(-12, 12) / 4)
    out = [PowerFn(n), PowerFn(n - 1),          # smooth, and a basis function
           affine((coef(), PowerFn(n)), (coef(), PowerFn(n + 1)), (coef(), PowerFn(n + 2))),
           SampledFn(tuple(pts), tuple(coef() for _ in pts))]
    if not exact:
        out.append(ExpFn())
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_polynomial_sums_match_oracle(n):
    system = polynomial_system(n)
    rng = random.Random(n)
    for a, b in ((Fraction(-3, 2), Fraction(7, 4)), (-1.5, 1.75)):
        for m in (n, n + 3, 12):
            for part in (uniform(a, b, m), jittered(rng, uniform(a, b, m))):
                for f in targets(rng, n, isinstance(a, Fraction), part):
                    sums_match(system, f, part)


def test_trig_sums_match_oracle():
    system = trig_odd_system(1, -math.pi, 0.0)
    rng = random.Random(5)
    part = uniform(-3.0, -0.25, 10)
    for p in (part, jittered(rng, part)):
        for f in (CosFn(2), ExpFn(), affine((0.5, CosFn(2)), (-2.0, PowerFn(3)))):
            value = sums_match(system, f, p)
            assert isinstance(value, float)


def test_integer_and_mixed_partitions_match_oracle():
    # ints evaluate like Fractions, and as floats next to a float: a mixed
    # partition sums as its float twin
    assert sums_match(polynomial_system(2), PowerFn(3), (0, 1, 2, 3)) == 18
    mixed = window_sum(polynomial_system(2), PowerFn(3), (0, 0.5, 1, 2))
    assert isinstance(mixed, float) and repr(mixed) == repr(
        variation_loop(polynomial_system(2), PowerFn(3), (0.0, 0.5, 1.0, 2.0)))
    # a one-function system and a float-only function: ints read at float
    constant = ChebyshevSystem((PowerFn(0),), Interval())
    assert isinstance(sums_match(constant, CosFn(), (0, 1, 2, 3)), float)


@pytest.mark.parametrize("n", [2, 3])
def test_estimates_and_bounds_match_oracle(n, same):
    system = polynomial_system(n)
    strategies = (RefinementStrategy(initial_intervals=n + 1, rounds=3, perturb_rounds=2,
                                     seed=n),
                  RefinementStrategy(rounds=2, perturb_rounds=0))
    for a, b in ((Fraction(1, 3), Fraction(5, 3)), (0.375, 1.5)):
        for strategy in strategies:
            for f in (PowerFn(n + 1), affine((1, PowerFn(n + 2)), (-3, PowerFn(n)))):
                assert same(estimate_variation, system, f, a, b, strategy).best >= 0
            g, h = PowerFn(n + 1), PowerFn(n + 2)
            assert same(check_variation_bound, system, g, h, a, b,
                        strategy=strategy).margin >= 0
    trig = trig_odd_system(1, -math.pi, 0.0)
    same(estimate_variation, trig, ExpFn(), -2.5, -0.5,
         RefinementStrategy(rounds=3, perturb_rounds=1, seed=4))


@pytest.mark.parametrize("n", [2, 3])
def test_exact_affine_and_const_functions_match_oracle(n, same):
    """Polynomial columns with Fraction coefficients, nested affine
    terms and constants: g - h as check_variation_bound forms it, and
    constant functions, whose divided differences vanish."""
    system = polynomial_system(n)
    g = affine((Fraction(3, 2), PowerFn(n + 1)),
               (1, affine((Fraction(-1, 3), PowerFn(n - 1)), (2, ConstFn(Fraction(5, 7))))))
    h = affine((Fraction(1, 4), PowerFn(n + 2)), (2, PowerFn(n - 1)), (-1, ConstFn(3)))
    rng = random.Random(n)
    for part in (uniform(Fraction(1, 3), Fraction(5, 3), 12),
                 jittered(rng, uniform(Fraction(-3, 2), Fraction(7, 4), n + 3))):
        for f in (affine((1, g), (-1, h)), ConstFn(Fraction(2, 3)), ConstFn(-3),
                  affine((Fraction(1, 2), ConstFn(4)), (-2, ConstFn(1)))):
            assert isinstance(sums_match(system, f, part), Fraction)
    strategy = RefinementStrategy(initial_intervals=n + 2, rounds=3, perturb_rounds=2, seed=n)
    assert same(check_variation_bound, system, g, h, Fraction(1, 3), Fraction(5, 3),
                strategy=strategy).margin >= 0
    assert same(estimate_variation, system, ConstFn(Fraction(-4, 9)), Fraction(1, 3),
                Fraction(5, 3), strategy).best == 0


def test_divided_difference_matches_row_elimination():
    """The shared ratio step against determinants from the oracle's
    row-wise elimination, so that a window whose float value is not
    bit-identical fails here even if the loop and the table share it."""
    rng = random.Random(9)
    for n in (1, 2, 3, 4):
        system = polynomial_system(n)
        for exact in (True, False):
            for _ in range(40):
                pts = tuple(sorted({Fraction(rng.randint(-40, 40), 8) for _ in range(n)}))
                if len(pts) < n:
                    continue
                if not exact:
                    pts = tuple(float(x) for x in pts)
                f = affine((Fraction(rng.randint(1, 9), 7) if exact else rng.random(),
                            PowerFn(n + 1)), (1, ExpFn()) if not exact else (1, PowerFn(n)))
                dd = divided_difference(system, n, f, pts)
                den = row_det(collocation_matrix_per_value(system.basis, pts))
                num = row_det(collocation_matrix_per_value(system.basis[:n - 1] + (f,), pts))
                assert repr((dd.value, dd.numerator, dd.denominator)) == \
                    repr((num / den, num, den))


def test_singular_rule_matches_row_elimination():
    """The float singular-denominator rule reads every entry of the
    denominator: on (x, x^2, x^3) the largest lies in the last column."""
    system = ChebyshevSystem((PowerFn(1), PowerFn(2), PowerFn(3)), Interval(0))
    rng = random.Random(10)
    seen = set()
    for _ in range(200):
        pts = tuple(x / 8 for x in sorted(rng.sample(range(1, 40), 3)))
        tol_factor = rng.choice((1e-3, 0.05, 0.5))
        den = collocation_matrix_per_value(system.basis, pts)
        singular = abs(row_det(den)) <= positivity_tolerance(den, tol_factor)
        got = result(divided_difference, system, 3, PowerFn(4), pts, tol_factor=tol_factor)
        assert isinstance(got, str) == singular, (pts, tol_factor)
        seen.add(singular)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the exact window route: rows 0..n built directly in one call, and one
# elimination of the shared rows 0..n-2 per window for both determinants

def exact_route_functions(rng: random.Random, n: int) -> tuple:
    """A power, an exact affine combination of powers and constants, and
    a Fraction constant: f whose rows 0..n an exact table builds
    directly on poly:n."""
    coef = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))     # noqa: E731
    return (PowerFn(n + rng.randint(0, 2)), PowerFn(rng.randint(0, n - 1)),
            affine((coef(), PowerFn(n + 1)), (rng.randint(-5, 5), PowerFn(max(n - 2, 0))),
                   (coef(), ConstFn(coef()))),
            ConstFn(coef()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exact_window_route_matches_oracle(n):
    """Seeded poly:n systems: the one-elimination route gives the sums of
    the loop, which takes two eliminations per window, over uniform,
    jittered and integer partitions (exact), and mixed ones (float, by
    the two-elimination route, as their float twins), errors included."""
    system = polynomial_system(n)
    rng = random.Random(40 + n)
    m = n + 5
    base = uniform(Fraction(-3, 2), Fraction(7, 4), m)
    ints = tuple(range(-3, m - 2))
    mixed = ints[:2] + (float(ints[2]) + 0.5,) + ints[3:]
    for f in exact_route_functions(rng, n):
        for part in (base, jittered(rng, base), ints):
            assert isinstance(sums_match(system, f, part), Fraction), (f, part)
        # a mixed partition sums as its float twin; an error names the
        # points as the partition gives them
        got = result(window_sum, system, f, mixed)
        want = result(variation_loop, system, f, tuple(map(float, mixed)))
        if isinstance(want, str):
            assert got.split(":")[0] == want.split(":")[0], (f, got, want)
        else:
            assert repr(got) == repr(want), f


def test_exact_estimates_on_one_scale_match_oracle(same):
    """estimate_variation's exact partitions are integers over one scale,
    each column of rows 0..n over that point's own scale; the jittered
    ones over q * 2**22."""
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        strategy = RefinementStrategy(initial_intervals=n + 2, rounds=3, perturb_rounds=2,
                                      seed=n)
        for f in exact_route_functions(rng, n):
            assert same(estimate_variation, polynomial_system(n), f, Fraction(-2, 3),
                        Fraction(11, 7), strategy).best >= 0


def test_vanishing_denominator_on_the_exact_route():
    """(1, x^2) on a window symmetric about 0, with f a power, whose rows
    are all built directly: the window's residual denominator is 0; and
    (1, 2, x), whose second row is twice the first, so that a shared
    row's pivot is zero.  Each raises divided_difference's error at the
    window's points."""
    for system, f, pts, window in (
            (ChebyshevSystem((PowerFn(0), PowerFn(2)), Interval()), PowerFn(3),
             (-2, -1, 1, 3), (-1, 1)),
            (ChebyshevSystem((PowerFn(0), PowerFn(2)), Interval()),
             affine((Fraction(1, 2), PowerFn(3))),
             uniform(Fraction(-3, 2), Fraction(3, 2), 3), (Fraction(-1, 2), Fraction(1, 2))),
            (ChebyshevSystem((PowerFn(0), affine((2, PowerFn(0))), PowerFn(1)), Interval()),
             PowerFn(3), (0, 1, 2, 3), (0, 1, 2))):
        want = result(divided_difference, system, system.dim, f, window)
        assert want.startswith("SingularDenominator: ") and want.endswith(f"at {window}")
        assert result(window_sum, system, f, pts) == want


@pytest.mark.parametrize("points, f, per_window", [
    (uniform(Fraction(-1), Fraction(2), 12), PowerFn(4), 1),
    (tuple(range(13)), affine((Fraction(1, 3), PowerFn(4)), (-1, ConstFn(2))), 1),
    (uniform(-1.0, 2.0, 12), PowerFn(4), 2),
    (uniform(-1.0, 2.0, 12), affine((1, PowerFn(4)), (-1, PowerFn(3))), 2),
    (uniform(-1.0, 2.0, 12), ExpFn(), 2),
    (uniform(Fraction(-1), Fraction(2), 12),
     SampledFn(uniform(Fraction(-1), Fraction(2), 12), tuple(range(13))), 1),
    (uniform(-1.0, 2.0, 12), SampledFn(uniform(-1.0, 2.0, 12), tuple(range(13))), 2),
])
def test_eliminations_per_window(monkeypatch, points, f, per_window):
    """One elimination per window on an exact partition whose rows 0..n
    are all built directly, a sample that holds every point among them;
    two, the denominator's and the numerator's, on a float one (partial
    pivoting over the shared rows would change a float window's bits),
    a sample's too, and where f is not built directly."""
    calls = []
    real = determinant._eliminate

    def counted(cols, k, exact):
        calls.append(exact)
        return real(cols, k, exact)
    monkeypatch.setattr(determinant, "_eliminate", counted)
    monkeypatch.setattr(variation, "_eliminate", counted)
    system = polynomial_system(3)
    window_sum(system, f, points)
    assert len(calls) == per_window * (len(points) - system.dim + 1)


def test_float_windows_stay_divided_differences_bit_for_bit():
    """Float windows of g - h, whose numerator columns the table builds
    directly: each window's value is divided_difference's at its points,
    bit for bit, and so is the partition sum the loop's."""
    rng = random.Random(12)
    for n in (1, 2, 3):
        system = polynomial_system(n)
        f = affine((1, PowerFn(n + 2)), (-1, PowerFn(n + 1)))
        for part in (uniform_partition_points(0.125, 1.75, 16, Backend.FLOAT),
                     jittered(rng, uniform(-1.5, 1.0, 16))):
            sums_match(system, f, part)
            table = _PointTable(system.basis + (f,), PointTuple(part))
            num = table.direct(tuple(range(n - 1)) + (n,), range(len(part)))
            assert num is not None
            for i in range(len(part) - n + 1):
                window = range(i, i + n)
                got = _ratio(table, window, 1e-10)
                want = divided_difference(system, n, f, part[i:i + n])
                assert repr(got[0]) == repr(want.value)


# ---------------------------------------------------------------------------
# errors: the same one, raised at the same window, as the loop

def test_sampled_function_missing_a_point(same):
    system = polynomial_system(2)
    for pts in ((Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)),
                (0.0, 0.25, 0.5, 0.75, 1.0)):
        kept = pts[:3] + pts[4:]
        f = SampledFn(kept, tuple(x * x for x in kept))
        error = sums_match(system, f, pts)
        assert error.startswith("EvaluationOutsideSupport: sampled function has no value")
        # estimate_variation's nested partitions meet the gap in round 1
        table = tuple(pts[0] + (pts[-1] - pts[0]) * Fraction(i, 16) for i in range(17)) \
            if isinstance(pts[0], Fraction) else tuple(i / 16 for i in range(17))
        f = SampledFn(table[:9] + table[10:], tuple(x * x for x in table[:9] + table[10:]))
        assert same(estimate_variation, system, f, pts[0], pts[-1],
                    RefinementStrategy(initial_intervals=8, rounds=3)) == \
            f"EvaluationOutsideSupport: sampled function has no value at {table[9]!r}"


def test_sampled_basis_function_outside_its_domain(same):
    spec = {"basis": [{"kind": "sampled", "points": [0, 1, 2, 3, 4],
                       "values": [1, 1, 1, 1, 1]},
                      {"kind": "power", "k": 1}],
            "domain": {"kind": "finite_set", "points": [0, 1, 2, 3, 4]}}
    system = system_from_json(spec)
    assert sums_match(system, PowerFn(2), (0, 1, 2, 3, 4)) == 6
    assert same(estimate_variation, system, PowerFn(2), 0, 4).startswith("InputError: ")


def test_min_gap_above_the_smallest_partition_gap(same):
    """Float points DEFAULT_MIN_GAP apart sum as the loop sums them, and
    exact ones need only be distinct; estimate_variation refuses a float
    partition closer than that gap, at its boundary, as
    divided_difference does."""
    system = polynomial_system(2)
    close = (-1.0, 0.0, DEFAULT_MIN_GAP, 1.0, 2.0)
    assert isinstance(sums_match(system, PowerFn(4), close), float)
    exact = (Fraction(-1), Fraction(0), Fraction(1, 10 ** 12), Fraction(1), Fraction(2))
    assert isinstance(sums_match(system, PowerFn(4), exact), Fraction)
    assert same(estimate_variation, system, PowerFn(4), 0.0, 8 * 0.9 * DEFAULT_MIN_GAP,
                RefinementStrategy(initial_intervals=8, rounds=2)) == \
        "OrderingViolation: |points[0] - points[1]| < min gap 1e-09"


def test_vanishing_denominator(same):
    # (1, x^2) is no Chebyshev system on a window symmetric about 0
    system = ChebyshevSystem((PowerFn(0), PowerFn(2)), Interval())
    for pts in ((-2, -1, 1, 3), (-2.0, -1.0, 1.0, 3.0)):
        kept = tuple(x for x in pts if x != 1)
        f = SampledFn(kept, tuple(x * x for x in kept))
        # the denominator is checked before f, which has no value at 1
        assert sums_match(system, f, pts).startswith("SingularDenominator: ")
    for a in (Fraction(-1), -1.0):
        assert same(estimate_variation, system, PowerFn(3), a, -a,
                    RefinementStrategy(initial_intervals=9)) \
            .startswith("SingularDenominator: ")


def test_float_overflow(same):
    system = polynomial_system(2)
    big = affine((1e308, PowerFn(3)))
    assert sums_match(system, big, uniform(1.0, 2.0, 8)) == \
        "NonFiniteValue: divided difference at (1.0, 1.125) is inf"
    assert same(estimate_variation, system, big, 1.0, 2.0).startswith("NonFiniteValue: ")
    assert same(check_variation_bound, system, big, PowerFn(2), 1.0, 2.0) \
        .startswith("NonFiniteValue: ")


def test_an_end_rounded_outside_an_open_domain(same):
    """An int end past 2**53 that is inside the domain, but whose float
    is not: estimate_variation checks the finest partition's ends."""
    system = ChebyshevSystem((PowerFn(0),), Interval(hi=2 ** 60 + 130))
    b = 2 ** 60 + 129                   # float(b) is 2**60 + 256
    assert same(estimate_variation, system, affine((0.5, PowerFn(1))), 2 ** 60 - 2 ** 30, b,
                RefinementStrategy(rounds=2, perturb_rounds=1)) == \
        f"EvaluationOutsideSupport: point {float(b)!r} is outside the system domain"
