"""Partition sums from one point table per call (``variation._window_sum``)
checked against the per-window loop in ``oracles.py``, which takes one
fresh ``divided_difference`` per window.  ``variation_sum``,
``estimate_variation`` and ``check_variation_bound`` must give the same
values, float bits included (compared by repr), and raise the same
error with the same message.  The reference runs of the last two swap
the oracle in for every partition sum.  ``variation_sum`` checks its
partition's points once, before any window value: on a partition with
more than one defect it reports the first too-close pair, then the first
point outside the domain, and only then what the loop meets
(``checked_then_loop``)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebconvex import variation
from chebconvex.core import (
    DEFAULT_MIN_GAP,
    ChebyshevSystem,
    ConstFn,
    CosFn,
    ExpFn,
    FiniteSet,
    Interval,
    OrderingClass,
    PowerFn,
    PuncturedInterval,
    SampledFn,
    _check_domain,
    affine,
    system_from_json,
    validate_tuple,
)
from chebconvex.determinant import _finite_tol
from chebconvex.divdiff import divided_difference
from chebconvex.errors import InputError
from chebconvex.systems import polynomial_system, trig_odd_system
from chebconvex.variation import (
    Partition,
    RefinementStrategy,
    check_variation_bound,
    estimate_variation,
    variation_sum,
)

from oracles import (
    collocation_matrix_per_value,
    positivity_tolerance,
    row_det,
    variation_loop,
)


def result(fn, *args, **kwargs):
    """What ``fn`` returns, or the error it raises as "Class: message"."""
    try:
        return fn(*args, **kwargs)
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def loop_sum(table, system, grid, js, tol_factor):
    partition = Partition(tuple(grid[j] for j in js))
    return variation_loop(system, table.fns[-1], partition, tol_factor)


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


def sums_match(system, f, partition, **kw):
    """variation_sum against the oracle, by repr; returns the outcome."""
    want = result(variation_loop, system, f, partition, **kw)
    assert repr(result(variation_sum, system, f, partition, **kw)) == repr(want)
    return want


def uniform(a, b, m):
    """a, b and m - 1 points between, as estimate_variation spaces them."""
    step = (lambda i: Fraction(i, m)) if isinstance(a, Fraction) else (lambda i: i / m)
    return Partition(tuple(a + (b - a) * step(i) for i in range(m)) + (b,))


def jittered(rng: random.Random, base: Partition) -> Partition:
    """Interior points moved by less than a quarter of the local mesh."""
    pts = list(base.points.points)
    for i in range(1, len(pts) - 1):
        room = min(pts[i] - pts[i - 1], pts[i + 1] - pts[i])
        if isinstance(pts[i], Fraction):
            pts[i] += Fraction(rng.randint(-99, 99), 400) * room
        else:
            pts[i] += (rng.random() - 0.5) * room / 2
    return Partition(tuple(pts))


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
                for f in targets(rng, n, isinstance(a, Fraction), part.points.points):
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
    assert sums_match(polynomial_system(2), PowerFn(3), Partition((0, 1, 2, 3))) == 18
    mixed = variation_sum(polynomial_system(2), PowerFn(3), Partition((0, 0.5, 1, 2)))
    assert isinstance(mixed, float) and repr(mixed) == repr(
        variation_loop(polynomial_system(2), PowerFn(3), Partition((0.0, 0.5, 1.0, 2.0))))
    # a one-function system and a float-only function: ints read at float
    constant = ChebyshevSystem((PowerFn(0),), Interval())
    assert isinstance(sums_match(constant, CosFn(), Partition((0, 1, 2, 3))), float)


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
# errors: the same one, raised at the same window, as the loop

def test_sampled_function_missing_a_point(same):
    system = polynomial_system(2)
    for pts in ((Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)),
                (0.0, 0.25, 0.5, 0.75, 1.0)):
        kept = pts[:3] + pts[4:]
        f = SampledFn(kept, tuple(x * x for x in kept))
        error = sums_match(system, f, Partition(pts))
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
    assert sums_match(system, PowerFn(2), Partition((0, 1, 2, 3, 4))) == 6
    assert sums_match(system, PowerFn(2), Partition((0, 1, 2, 3, 5))) == \
        "EvaluationOutsideSupport: point 5 is outside the system domain"
    assert same(estimate_variation, system, PowerFn(2), 0, 4).startswith("InputError: ")


def test_min_gap_above_the_smallest_partition_gap(same):
    """A Partition may wrap points validated with a smaller gap than
    DEFAULT_MIN_GAP; its windows still take that gap, at its boundary,
    as divided_difference does."""
    system = polynomial_system(2)

    def part(gap):
        return Partition(validate_tuple((-1.0, 0.0, gap, 1.0, 2.0),
                                        OrderingClass.STRICTLY_INCREASING, min_gap=0))
    assert isinstance(sums_match(system, PowerFn(4), part(DEFAULT_MIN_GAP)), float)
    assert sums_match(system, PowerFn(4), part(0.9 * DEFAULT_MIN_GAP)) == \
        "OrderingViolation: |points[0] - points[1]| < min gap 1e-09"
    # exact partitions need only distinct points
    exact = Partition((Fraction(-1), Fraction(0), Fraction(1, 10 ** 12), Fraction(1), Fraction(2)))
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
        assert sums_match(system, f, Partition(pts)).startswith("SingularDenominator: ")
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


# ---------------------------------------------------------------------------
# more than one defect: the points' checks come before any window value

def checked_then_loop(system, f, partition, tol_factor=variation.DEFAULT_TOL_FACTOR):
    """The rule variation_sum follows: its tol_factor's check; then, on
    a partition of at least n intervals, divided_difference's checks of
    its points (the minimum gap, then the domain) in every window, every
    window's gap before any window's domain; then the per-window loop."""
    _finite_tol(tol_factor)
    n, pts = system.dim, partition.points.points
    if len(pts) - 1 >= n:
        windows = [pts[s:s + n] for s in range(len(pts) - n + 1)]
        for window in windows:
            validate_tuple(window, OrderingClass.PAIRWISE_DISTINCT)
        for window in windows:
            _check_domain(system.domain, window)
    return variation_loop(system, f, partition, tol_factor)


def test_points_are_checked_before_any_window_value():
    """Two defects, the second met in an earlier window than the first:
    the loop reports the earlier window's, variation_sum the point."""
    domain = PuncturedInterval(Interval(), (5,))
    outside = "EvaluationOutsideSupport: point 5 is outside the system domain"
    one_xsq = ChebyshevSystem((PowerFn(0), PowerFn(2)), domain)
    partition = Partition((-1, 1, 2, 5))
    assert result(variation_loop, one_xsq, PowerFn(3), partition) == \
        "SingularDenominator: prefix collocation determinant vanishes at (-1, 1)"
    assert result(variation_sum, one_xsq, PowerFn(3), partition) == outside
    line = ChebyshevSystem((PowerFn(0), PowerFn(1)), domain)
    f = SampledFn((1, 2, 5), (1, 4, 25))
    partition = Partition((0, 1, 2, 5))
    assert result(variation_loop, line, f, partition) == \
        "EvaluationOutsideSupport: sampled function has no value at 0"
    assert result(variation_sum, line, f, partition) == outside


def test_an_end_rounded_outside_an_open_domain(same):
    """An int end past 2**53 that is inside the domain, but whose float
    is not: estimate_variation checks the finest partition's ends."""
    system = ChebyshevSystem((PowerFn(0),), Interval(hi=2 ** 60 + 130))
    b = 2 ** 60 + 129                   # float(b) is 2**60 + 256
    assert same(estimate_variation, system, affine((0.5, PowerFn(1))), 2 ** 60 - 2 ** 30, b,
                RefinementStrategy(rounds=2, perturb_rounds=1)) == \
        f"EvaluationOutsideSupport: point {float(b)!r} is outside the system domain"


def defect_case(rng: random.Random) -> tuple:
    """A system of dimension 1-4, a target and a partition of 2-8 points,
    exact or float, with some too-close pairs, points outside the
    domain, and target values missing."""
    n = rng.randint(1, 4)
    exact = rng.random() < 0.4
    pts = [Fraction(i, 4) for i in sorted(rng.sample(range(-12, 13), rng.randint(2, 8)))]
    for x in rng.sample(pts, rng.choice([0, 0, 1, 2])):
        pts.append(x + Fraction(1, 10 ** 12) if exact
                   else float(x) + rng.choice([5e-10, 9.9e-10, 1e-9, 2e-9]))
    pts = sorted(pts if exact else map(float, pts))
    partition = Partition(validate_tuple(pts, OrderingClass.STRICTLY_INCREASING, min_gap=0))
    kind = rng.choice(["line", "punctured", "punctured", "interval", "finite"])
    some = tuple(rng.sample(pts, rng.randint(1, 2)))
    domain = {"line": Interval(),
              "punctured": PuncturedInterval(Interval(), some),
              "interval": Interval(lo=pts[rng.randint(0, 1)], lo_open=rng.random() < 0.5),
              "finite": FiniteSet(tuple(x for x in pts if x not in some))}[kind]
    basis = (PowerFn(0), PowerFn(2)) if n == 2 and rng.random() < 0.4 \
        else tuple(PowerFn(j) for j in range(n))
    kept = [x for x in pts if rng.random() < 0.85] or pts[:1]
    f = rng.choice([PowerFn(n + 1), affine((Fraction(3, 2), PowerFn(n)), (-1, PowerFn(n + 2))),
                    SampledFn(tuple(kept), tuple(x * x for x in kept)), ExpFn()])
    tol_factor = rng.choice([variation.DEFAULT_TOL_FACTOR] * 6 + [0.5, math.nan])
    return ChebyshevSystem(basis, domain), f, partition, tol_factor


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_points_checked_first_match_the_rule(rng):
    system, f, partition, tol_factor = defect_case(rng)
    assert repr(result(variation_sum, system, f, partition, tol_factor)) == \
        repr(result(checked_then_loop, system, f, partition, tol_factor))


def test_the_defect_cases_reach_every_path():
    """The cases above meet sums, too-close pairs, points outside the
    domain and errors of window values, and cases where the rule reports
    a pair or a point that the loop meets after another window's error."""
    seen, reordered = set(), set()
    for seed in range(400):
        system, f, partition, tol_factor = defect_case(random.Random(seed))
        got = result(checked_then_loop, system, f, partition, tol_factor)
        kind = got.split(":")[0] if isinstance(got, str) else "sum"
        seen.add(kind)
        if math.isfinite(tol_factor) and got != result(variation_loop, system, f, partition,
                                                       tol_factor):
            reordered.add(kind)
    assert {"sum", "OrderingViolation", "EvaluationOutsideSupport", "SingularDenominator",
            "DimensionMismatch", "InputError"} <= seen
    assert reordered == {"OrderingViolation", "EvaluationOutsideSupport"}
