"""The one pass of a partition sum (``variation._window_sum``) against
one ``divided_difference`` per window and the partition sum of those
values (``oracles.partition_sum``): poly:2-5 with a power, an exact
affine combination, a float affine combination and g - h of two powers,
on uniform and jittered partitions of both backends.  Exact sums are
equal, float sums equal bit for bit; where a window raises, both raise
the same error with the same message, the first one met."""

import random
from fractions import Fraction

import pytest

from chebconvex import variation
from chebconvex.core import ChebyshevSystem, ExpFn, Interval, PowerFn, SampledFn, affine
from chebconvex.divdiff import divided_difference
from chebconvex.errors import InputError
from chebconvex.systems import polynomial_system

from oracles import partition_sum, window_sum


def outcome(fn, *args):
    """What ``fn`` returns, a float by its bits, or the error it raises
    as "Class: message"."""
    try:
        value = fn(*args)
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return value.hex() if isinstance(value, float) else value


def reference(system, f, points, tol_factor):
    """The partition sum of one divided_difference per n-point window."""
    n = system.dim
    return partition_sum([divided_difference(system, n, f, points[i:i + n], tol_factor).value
                          for i in range(len(points) - n + 1)])


def same(system, f, points, tol_factor=1e-10):
    """The pass's outcome against the reference's; returns it."""
    want = outcome(reference, system, f, tuple(points), tol_factor)
    assert outcome(window_sum, system, f, points, tol_factor) == want
    return want


def partitions(rng: random.Random, exact: bool, m: int) -> list:
    """A uniform partition of [-3/2, 7/4] into m intervals and a jitter of it."""
    a, b = (Fraction(-3, 2), Fraction(7, 4)) if exact else (-1.5, 1.75)
    step = (lambda i: Fraction(i, m)) if exact else (lambda i: i / m)
    base = [a + (b - a) * step(i) for i in range(m)] + [b]
    moved = list(base)
    for i in range(1, m):
        room = min(base[i] - base[i - 1], base[i + 1] - base[i])
        moved[i] += Fraction(rng.randint(-99, 99), 400) * room if exact \
            else (rng.random() - 0.5) * room / 2
    return [base, moved]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("exact", [True, False])
def test_the_pass_matches_one_divided_difference_per_window(n, exact):
    rng = random.Random(n)
    system = polynomial_system(n)
    coef = (lambda: Fraction(rng.randint(-12, 12), 4)) if exact \
        else (lambda: rng.randint(-12, 12) / 4)
    fs = [PowerFn(n + 1),
          affine((Fraction(1, 3), PowerFn(n)), (Fraction(-5, 2), PowerFn(n + 2))),
          affine((1, PowerFn(n + 2)), (-1, PowerFn(n)))]                      # g - h
    if not exact:
        fs.append(affine((coef(), PowerFn(n)), (coef(), PowerFn(n + 1))))  # float affine
    for m in (n, n + 3, 13):
        for points in partitions(rng, exact, m):
            for f in fs:
                got = same(system, f, points)
                assert isinstance(got, Fraction if exact else str), got


def test_an_exact_denominator_that_vanishes():
    system = ChebyshevSystem((PowerFn(0), affine((2, PowerFn(0))), PowerFn(1)), Interval())
    got = same(system, PowerFn(3), [Fraction(i, 3) for i in range(6)])
    assert got.startswith("SingularDenominator: prefix collocation determinant vanishes at (")


@pytest.fixture
def inline(monkeypatch):
    """Windows that must be computed inline: a call of divdiff._ratio
    fails the test."""
    def refuse(*args):
        raise AssertionError("a window took divdiff._ratio")
    monkeypatch.setattr(variation, "_ratio", refuse)


def test_a_non_finite_denominator_before_its_tolerance(inline):
    # the Vandermonde determinant of these points overflows, and so would
    # its tolerance, which is not reached; every column is finite
    got = same(polynomial_system(3), PowerFn(1), [1e103 * (1 + i / 2) for i in range(5)])
    assert got.startswith("NonFiniteValue: prefix collocation determinant at (")


def test_a_tolerance_that_overflows(inline):
    got = same(polynomial_system(2), PowerFn(1), [1e200 * (1 + i / 4) for i in range(5)])
    assert got.startswith("OverflowError: ")


def test_a_zero_denominator_under_a_negative_tolerance_factor(inline):
    system = ChebyshevSystem((PowerFn(0), affine((2, PowerFn(0)))), Interval())
    got = same(system, PowerFn(2), [0.25 * i for i in range(5)], -1e-10)
    assert got == "SingularDenominator: prefix collocation determinant 0.0 within tolerance " \
        "at (0.0, 0.25)"


def test_a_nan_entry_that_a_columns_largest_entry_hides():
    """A denominator of a zero column beside one whose first entry is NaN
    (inf - inf) is 0.0, which fails its check, and the tolerance it
    raises with reads the largest |entry| past that NaN, 1e180, whose
    square overflows, as divided_difference's does; the largest |entry|
    of that column alone is NaN, which would raise SingularDenominator."""
    wild = affine((1e300, PowerFn(1)), (-1e300, PowerFn(1)))       # 0.0 at 0, NaN at 1e9
    system = ChebyshevSystem((wild, PowerFn(20)), Interval())
    assert same(system, PowerFn(1), [0.0, 1e9, 2e9]).startswith("OverflowError: ")


def test_mixed_signs_of_exact_denominators():
    # (1, x^2) is no Chebyshev system across 0: its windows' denominators
    # x1^2 - x0^2 change sign, and the sum still compares their values
    system = ChebyshevSystem((PowerFn(0), PowerFn(2)), Interval())
    points = [Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3)]
    for f in (PowerFn(1), PowerFn(3), affine((Fraction(1, 3), PowerFn(4)), (-2, PowerFn(1)))):
        assert isinstance(same(system, f, points), Fraction)


def test_windows_not_built_directly_meet_their_first_error_in_place():
    # exp overflows at its numerator's new point, after that window's
    # denominator passed; a sampled f misses one point of its partition
    got = same(polynomial_system(2), ExpFn(), [700.0 + 2 * i for i in range(12)])
    assert got.startswith("OverflowError: ")
    points = [Fraction(i, 4) for i in range(9)]
    f = SampledFn(tuple(points[:5] + points[6:]), tuple(range(8)))
    assert same(polynomial_system(3), f, points).startswith("EvaluationOutsideSupport: ")


def test_a_directly_built_float_partition_calls_no_ratio_step(inline):
    points = [0.125 * i for i in range(1, 17)]
    for n in (2, 3, 4):
        system = polynomial_system(n)
        for f in (PowerFn(n + 1), affine((1, PowerFn(n + 2)), (-0.5, PowerFn(n)))):
            assert isinstance(window_sum(system, f, points), float)
