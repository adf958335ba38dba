"""The sign-scan kernel behind grid positivity and direct convexity,
checked against the per-tuple loops in ``oracles.py``.  Reports must be
identical, float values included (compared by repr), and so must the
exception a scan raises."""

import math
import random
from fractions import Fraction

import pytest

from chebconvex import determinant
from chebconvex.convexity import (check_convex_direct, check_convex_induced,
                                  check_convex_interval, cross_mode_agreement)
from chebconvex.core import (POSITIVE_HALF_LINE, ChebyshevSystem, ConstFn, ExpFn, Interval,
                             PowerFn, SampledFn, affine)
from chebconvex.determinant import increasing_tuples, is_positive_chebyshev
from chebconvex.divdiff import divided_difference
from chebconvex.induced import verify_induced_system
from chebconvex.variation import check_variation_bound, estimate_variation, variation_bound
from chebconvex.errors import (DimensionMismatch, EvaluationOutsideSupport, InputError,
                               InsufficientGrid, NonFiniteValue, OrderingViolation)
from chebconvex.systems import one_xsq_system, polynomial_system, trig_odd_system

from oracles import direct_loop, positivity_loop


def outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except (InputError, OverflowError) as exc:
        return type(exc).__name__


def same(kernel, oracle, *args, **kwargs) -> str:
    got = outcome(kernel, *args, **kwargs)
    assert got == outcome(oracle, *args, **kwargs)
    return got


def grids(rng: random.Random, size: int, lo: int, hi: int):
    """An exact grid of eighths and its float twin."""
    idx = sorted(rng.sample(range(lo * 8, hi * 8 + 1), size))
    return [Fraction(i, 8) for i in idx], [i / 8 for i in idx]


def functions(rng: random.Random, system, grid, exact: bool):
    """Convex, non-convex and degenerate targets for ``system``."""
    n = system.dim
    coef = (lambda: Fraction(rng.randint(-12, 12), 4)) if exact \
        else (lambda: rng.randint(-12, 12) / 4)
    out = [affine((coef(), PowerFn(n)), (coef(), PowerFn(n + 1))),
           system.basis[-1],     # every extended determinant is zero
           SampledFn(tuple(grid), tuple(coef() for _ in grid))]
    if not exact:
        out.append(ExpFn())
    return out


SYSTEMS = [polynomial_system(n) for n in (2, 3, 4, 5)]


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"poly:{s.dim}")
def test_polynomial_scans_match_oracle(system, float_walk):
    rng = random.Random(system.dim)
    for trial in range(3):
        for grid in grids(rng, 8, -3, 3):
            exact = isinstance(grid[0], Fraction)
            total = math.comb(len(grid), system.dim + 1)
            for budget in (total, total // 2):
                kw = dict(budget=budget, seed=trial)
                for k in range(1, system.dim + 1):
                    same(is_positive_chebyshev, positivity_loop, system, k, grid, **kw)
                for f in functions(rng, system, grid, exact):
                    same(check_convex_direct, direct_loop, system, f, grid, **kw)


def test_trig_scans_match_oracle(scan_modes):
    """Every scan, in both float scan modes (see conftest's scan_modes)."""
    for mode in scan_modes:
        with mode():
            system = trig_odd_system(1, -math.pi, 0.0)
            rng = random.Random(7)
            for _ in range(3):
                grid = sorted(rng.uniform(-3.1, -0.05) for _ in range(9))
                for budget, tol in ((200, 1e-10), (40, 1e-10), (200, 0.05), (200, -0.05)):
                    kw = dict(budget=budget, tol_factor=tol)
                    for k in (1, 2, 3):
                        same(is_positive_chebyshev, positivity_loop, system, k, grid, **kw)
                    for f in (ExpFn(), system.basis[1], affine((-1.5, PowerFn(2)))):
                        same(check_convex_direct, direct_loop, system, f, grid, **kw)


@pytest.mark.parametrize("exact", [True, False])
def test_zero_pivots_on_the_full_line(exact, float_walk):
    # (1, x^2) on the whole line: every symmetric pair zeroes a pivot
    system = one_xsq_system(Interval(), allow_unsafe_domain=True)
    grid = [Fraction(i, 2) if exact else i / 2 for i in range(-4, 5)]
    seen = set()
    for budget in (200, 50):
        for k in (1, 2):
            seen.add(same(is_positive_chebyshev, positivity_loop, system, k, grid,
                          budget=budget))
        for f in (PowerFn(4), affine((-1, PowerFn(4))), PowerFn(1), PowerFn(2)):
            seen.add(same(check_convex_direct, direct_loop, system, f, grid,
                          budget=budget))
    assert any("violated" in s for s in seen)


@pytest.mark.parametrize("exact", [True, False])
def test_duplicate_samples_are_counted(exact):
    grid = [Fraction(i) if exact else float(i) for i in range(6)]
    tuples, exhaustive = increasing_tuples(grid, 3, budget=19, seed=4)
    assert not exhaustive and len(set(tuples)) < len(tuples)
    for f in (affine((-1, PowerFn(2))), PowerFn(2)):
        got = same(check_convex_direct, direct_loop, polynomial_system(2), f, grid,
                   budget=19, seed=4)
        assert "tuples_checked=19" in got
    same(is_positive_chebyshev, positivity_loop, polynomial_system(3), 3, grid,
         budget=19, seed=4)


def test_mixed_int_float_grid_scans_as_its_float_twin():
    # A grid with a float is read at float: its ints evaluate as floats,
    # at every k, and witnesses show the points as given.
    system = polynomial_system(2)
    grid, twin = [0, 0.5, 1, 2], [0.0, 0.5, 1.0, 2.0]
    for k in (1, 2):
        got = is_positive_chebyshev(system, k, grid)
        assert got.verdict == "positive_on_grid" and got == positivity_loop(system, k, twin)
    f = affine((-1, PowerFn(2)))
    got, want = check_convex_direct(system, f, grid), direct_loop(system, f, twin)
    assert got.verdict == "violated" and got == want
    assert repr((got.witness, got.witness_value)) == repr(((0, 0.5, 1), want.witness_value))


def test_infinite_function_value_raises():
    f = affine((1e308, PowerFn(2)), (1e308, PowerFn(3)))
    with pytest.raises(NonFiniteValue):
        check_convex_direct(polynomial_system(2), f, [0.5, 1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("budget", [200, 2])
def test_overflowing_tolerance_raises_as_before(budget):
    # the determinant is finite, tol_factor * (max |entry|)**2 is not
    grid = [1e200, 2e200, 3e200]
    assert same(is_positive_chebyshev, positivity_loop, polynomial_system(2), 2, grid,
                budget=budget) == "OverflowError"


@pytest.mark.parametrize("budget", [200, 2])
def test_overflowing_determinant_raises(budget, float_walk):
    # entries stay below 1e301, the Vandermonde product is about 2e450
    grid = [1e150, 2e150, 3e150, 4e150]
    with pytest.raises(NonFiniteValue):
        is_positive_chebyshev(polynomial_system(3), 3, grid, budget=budget)


# ---------------------------------------------------------------------------
# a tolerance factor that is not finite: no value compares below a NaN
# bound, so every float value would pass; each public function refuses it

def public_calls(grid) -> dict:
    """Each public function that takes a tol_factor, by name, as a call
    on ``grid`` (six points) at a given factor."""
    line, cubic = polynomial_system(2), polynomial_system(3)
    return {
        "is_positive_chebyshev": lambda tol: is_positive_chebyshev(line, 2, grid,
                                                                   tol_factor=tol),
        "check_convex_direct": lambda tol: check_convex_direct(line, PowerFn(2), grid,
                                                               tol_factor=tol),
        "check_convex_induced": lambda tol: check_convex_induced(cubic, 1, PowerFn(3), grid,
                                                                 tol_factor=tol),
        "check_convex_interval": lambda tol: check_convex_interval(cubic, 1, 0, PowerFn(3),
                                                                   grid, tol_factor=tol),
        "cross_mode_agreement": lambda tol: cross_mode_agreement(line, PowerFn(2), grid,
                                                                 tol_factor=tol),
        "verify_induced_system": lambda tol: verify_induced_system(cubic, 1, grid[:1], grid[1:],
                                                                   tol_factor=tol),
        "divided_difference": lambda tol: divided_difference(line, 2, PowerFn(2), grid[:2],
                                                             tol_factor=tol),
        "estimate_variation": lambda tol: estimate_variation(line, PowerFn(3), grid[0],
                                                             grid[-1], tol_factor=tol),
        "variation_bound": lambda tol: variation_bound(line, PowerFn(3), PowerFn(2), grid[:2],
                                                       grid[-2:], tol_factor=tol),
        "check_variation_bound": lambda tol: check_variation_bound(
            line, PowerFn(3), ConstFn(0), grid[0], grid[-1], tol_factor=tol),
    }


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("name", sorted(public_calls([])))
def test_non_finite_tol_factor_is_refused(name, exact):
    grid = [Fraction(i, 2) if exact else i / 2 for i in range(6)]
    call = public_calls(grid)[name]
    call(1e-10)
    call(-0.05)     # a negative factor is a valid one
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match=f"tol_factor must be finite, got {tol}"):
            call(tol)


# ---------------------------------------------------------------------------
# the first error of a check whose input has two defects: the induced and
# interval checks read tol_factor first, the direct mode and agreement
# sort the grid with the minimum gap first, and every base size is
# checked before any interval index; positivity checks the grid's size,
# then its domain, then k, as the per-tuple loop does

CLOSE, FEW = [0.0, 0.5, 0.5 + 1e-12, 1.0, 1.5, 2.0], [0.0, 1.0]


def first_error_calls() -> dict:
    """Calls of the checks with two defects each, by name, with the error
    each meets first, a pattern of its message and, for positivity, the
    per-tuple loop's call, which must meet the same error."""
    line, cubic, nan = polynomial_system(2), polynomial_system(3), math.nan
    half = ChebyshevSystem(line.basis, POSITIVE_HALF_LINE)
    tol = "tol_factor must be finite"
    return {
        "direct, close, NaN tol": (lambda: check_convex_direct(
            line, PowerFn(2), CLOSE, tol_factor=nan), OrderingViolation, "min gap"),
        "direct, few, NaN tol": (lambda: check_convex_direct(
            line, PowerFn(2), FEW, tol_factor=nan), InputError, tol),
        "induced k=5, close, NaN tol": (lambda: check_convex_induced(
            cubic, 5, PowerFn(3), CLOSE, tol_factor=nan), InputError, tol),
        "induced k=5, close": (lambda: check_convex_induced(
            cubic, 5, PowerFn(3), CLOSE), DimensionMismatch, "base size 5"),
        "interval k=5, ell=9": (lambda: check_convex_interval(
            cubic, 5, 9, PowerFn(3), FEW), DimensionMismatch, "base size 5"),
        "interval k=1, ell=9, NaN tol": (lambda: check_convex_interval(
            cubic, 1, 9, PowerFn(3), FEW, tol_factor=nan), InputError, tol),
        "agreement, close, NaN tol": (lambda: cross_mode_agreement(
            line, PowerFn(2), CLOSE, tol_factor=nan), OrderingViolation, "min gap"),
        "agreement, k_list=[7], NaN tol": (lambda: cross_mode_agreement(
            cubic, PowerFn(3), CLOSE, k_list=[7], tol_factor=nan), DimensionMismatch,
            "base size 7"),
        "positivity k=3, two points, one outside": (
            lambda: is_positive_chebyshev(half, 3, [-1, 1]), InsufficientGrid,
            r"^grid has 2 points, need at least 3$", lambda: positivity_loop(half, 3, [-1, 1])),
        "positivity k=0, outside": (
            lambda: is_positive_chebyshev(half, 0, [-1, 1]), EvaluationOutsideSupport,
            r"^grid point -1 is outside the system domain$",
            lambda: positivity_loop(half, 0, [-1, 1])),
        "positivity k=3, three points, NaN tol": (
            lambda: is_positive_chebyshev(line, 3, [0, 1, 2], tol_factor=nan), DimensionMismatch,
            r"^prefix size 3 outside 1\.\.2$",
            lambda: positivity_loop(line, 3, [0, 1, 2], tol_factor=nan)),
    }


@pytest.mark.parametrize("name", sorted(first_error_calls()))
def test_first_error_of_two_defects(name):
    call, error, match, *oracle = first_error_calls()[name]
    for fn in (call, *oracle):
        with pytest.raises(error, match=match) as raised:
            fn()
        assert type(raised.value) is error


@pytest.mark.parametrize("dip", [False, True])
@pytest.mark.parametrize("exact", [True, False])
def test_agreement_of_a_repeated_k_labels_each_mode(dip, exact):
    """k_list [1, 2, 1]: each k's modes run in k_list's order, each under
    its own label, each verdict the standalone check's, on x^4 and on x^3
    with its value at 5 lowered (violated)."""
    cubic = polynomial_system(3)
    grid = list(range(7)) if exact else [float(x) for x in range(7)]
    f = SampledFn(tuple(grid), (0, 1, 8, 27, 64, 110, 216)) if dip else PowerFn(4)
    report = cross_mode_agreement(cubic, f, grid, k_list=[1, 2, 1])
    want = [("direct", check_convex_direct(cubic, f, grid))]
    for k in (1, 2, 1):
        want.append((f"induced:k={k}", check_convex_induced(cubic, k, f, grid)))
        want += [(f"interval:k={k}:ell={ell}", check_convex_interval(cubic, k, ell, f, grid))
                 for ell in range(k + 1)]
    assert report.verdicts == tuple(want)


@pytest.mark.parametrize("system, budget, verdict, checked", [
    (polynomial_system(5), 300, "positive_on_grid", 300),
    (polynomial_system(1), 200_000, "positive_on_grid", 40),
    (one_xsq_system(Interval(None, None), allow_unsafe_domain=True), 300, "violated", 300)])
def test_exact_per_tuple_scans_tally_integers(monkeypatch, system, budget, verdict, checked):
    """An exact sampled scan, and an exhaustive one of one-point tuples,
    tally the integer determinants of their columns' forms: at most one
    Fraction is made, for a witness's value, not one per tuple."""
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return Fraction(*args, **kwargs)

    grid = [Fraction(i - 20, 7) for i in range(40)]
    monkeypatch.setattr(determinant, "Fraction", Counted)
    report = is_positive_chebyshev(system, system.dim, grid, budget=budget, seed=3)
    assert (report.verdict, report.tuples_checked) == (verdict, checked)
    assert report.exhaustive == (system.dim == 1)
    assert len(made) == (verdict == "violated")
    if made:
        x, y = report.witness
        assert report.witness_value == (x + y) * (y - x) < 0
