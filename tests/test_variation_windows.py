"""Partition sums from one point table per call (``variation._window_sum``)
checked against the per-window loop in ``oracles.py``, which takes one
fresh ``divided_difference`` per window.  ``variation_sum``,
``estimate_variation`` and ``check_variation_bound`` must give the same
values, float bits included (compared by repr), and raise the same
error with the same message.  The reference runs of the last two swap
the oracle in for every partition sum."""

import math
import random
from fractions import Fraction

import pytest

from chebconvex import variation
from chebconvex.core import (
    ChebyshevSystem,
    ConstFn,
    CosFn,
    ExpFn,
    Interval,
    PowerFn,
    SampledFn,
    affine,
    system_from_json,
)
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


def loop_sum(table, system, partition, min_gap, tol_factor):
    return variation_loop(system, table.fns[-1], partition, min_gap, tol_factor)


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
    # ints evaluate like Fractions; an int next to a float mixes backends
    assert sums_match(polynomial_system(2), PowerFn(3), Partition((0, 1, 2, 3))) == 18
    assert sums_match(polynomial_system(2), PowerFn(3), Partition((0, 0.5, 1, 2))) \
        .startswith("BackendMismatch: ")
    # a one-function system: an exact denominator over a float numerator
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
    system = polynomial_system(3)
    part = Partition((0.0, 0.5, 1.0, 1.25, 2.0, 3.0))
    assert isinstance(sums_match(system, PowerFn(4), part), float)
    for min_gap in (0.3, 0.6):
        assert sums_match(system, PowerFn(4), part, min_gap=min_gap) \
            .startswith("OrderingViolation: |points[")
    # exact partitions need only distinct points
    exact = Partition(tuple(Fraction(x) for x in part.points.points))
    assert isinstance(sums_match(system, PowerFn(4), exact, min_gap=0.6), Fraction)
    assert same(estimate_variation, system, PowerFn(4), 0.0, 1.0,
                RefinementStrategy(initial_intervals=8, rounds=2), min_gap=0.1) == \
        "OrderingViolation: |points[0] - points[1]| < min gap 0.1"


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

