"""The induced, interval and agreement modes, whose derived values come
from pinned bases, each its own derived table (``induced._PinnedBase``),
checked against the per-base loop in ``oracles.py``, which evaluates
every derived value as a divided difference of two fresh determinants;
``DerivedFn``, one ratio step per value, and a pinned base's ratios,
against ``oracles.derived_value``, ``divided_difference`` and
``oracles.ratio_two_fractions``; and a pinned base's minors against
the point table's determinants of the same columns.  Reports must be
identical, float values included (compared by repr), and so must the
error a check raises, message included."""

import math
import random
from fractions import Fraction

import pytest

from chebconvex.convexity import (
    check_convex_direct,
    check_convex_induced,
    check_convex_interval,
    cross_mode_agreement,
)
from chebconvex.core import (
    Backend,
    ChebyshevSystem,
    ConstFn,
    CosFn,
    ExpFn,
    Interval,
    NegCotFn,
    OrderingClass,
    PointTuple,
    PowerFn,
    SampledFn,
    affine,
    evaluate,
    validate_tuple,
)
from chebconvex.determinant import (
    DEFAULT_TOL_FACTOR,
    _PointTable,
    increasing_tuples,
    sorted_grid,
)
from chebconvex.divdiff import _scalar, divided_difference
from chebconvex.errors import (
    EvaluationOutsideSupport,
    InputError,
    SingularDenominator,
)
from chebconvex.induced import DerivedFn, _PinnedBase
from chebconvex.systems import one_xsq_system, polynomial_system, trig_odd_system

from oracles import derived_value, pinned_loop, ratio_two_fractions


def result(fn, *args, **kwargs):
    """What ``fn`` returns, or the error it raises as "Class: message"."""
    try:
        return fn(*args, **kwargs)
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def pinned(system, k, f, grid, ell=None, **kw):
    if ell is None:
        return check_convex_induced(system, k, f, grid, **kw)
    return check_convex_interval(system, k, ell, f, grid, **kw)


def check_every_mode(system, f, grid, **kw) -> list:
    """Each induced and interval mode of every k against the oracle, then
    cross_mode_agreement, whose modes share one table, against the
    oracle's verdicts in its order (or the first error among them).
    Returns the labelled oracle results."""
    direct_kw = {key: v for key, v in kw.items() if key != "base_budget"}
    labeled = [("direct", result(check_convex_direct, system, f, grid, **direct_kw))]
    for k in range(1, system.dim):
        for ell in (None, *range(k + 1)):
            label = f"induced:k={k}" if ell is None else f"interval:k={k}:ell={ell}"
            oracle = result(pinned_loop, system, k, f, grid, ell, **kw)
            assert repr(result(pinned, system, k, f, grid, ell, **kw)) == repr(oracle), label
            labeled.append((label, oracle))
    errors = [r for _, r in labeled if isinstance(r, str)]
    got = result(cross_mode_agreement, system, f, grid, **kw)
    assert repr(getattr(got, "verdicts", got)) == repr(errors[0] if errors else tuple(labeled))
    return labeled


def outcomes(labeled) -> set:
    """Verdicts and error lines of labelled results."""
    return {getattr(r, "verdict", r) for _, r in labeled}


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
           affine((abs(coef()) + 1, PowerFn(n))),
           system.basis[-1],     # every derived determinant is zero
           SampledFn(tuple(grid), tuple(coef() for _ in grid))]
    if not exact:
        out.append(ExpFn())
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_polynomial_pinned_modes_match_oracle(n):
    system = polynomial_system(n)
    rng = random.Random(n)
    seen = set()
    for grid in grids(rng, 6, -3, 3):
        exact = isinstance(grid[0], Fraction)
        targets = functions(rng, system, grid, exact)
        if n == 3:      # the slower oracles: fewer targets
            del targets[1]
        elif n == 4:    # one target per backend, exhaustive only
            targets = targets[2:3] if exact else targets[3:4]
        for f in targets:
            seen |= outcomes(check_every_mode(system, f, grid))
        # inner scans sampled, then bases sampled (with duplicates)
        for kw in (dict(budget=3, seed=1), dict(base_budget=4, seed=2)) if n < 4 else ():
            seen |= outcomes(check_every_mode(system, targets[0], grid, **kw))
    assert {"violated", "convex_on_sample"} <= seen


def test_trig_pinned_modes_match_oracle():
    system = trig_odd_system(1, -math.pi, 0.0)
    rng = random.Random(7)
    grid = sorted(rng.uniform(-3.1, -0.05) for _ in range(7))
    sampled = SampledFn(tuple(grid), tuple(rng.uniform(-1, 1) for _ in grid))
    seen = set()
    for f, kw in ((ExpFn(), dict(tol_factor=1e-10)), (sampled, dict(tol_factor=1e-10)),
                  (sampled, dict(tol_factor=0.05)), (ExpFn(), dict(tol_factor=-0.05)),
                  (system.basis[1], dict(budget=4)), (sampled, dict(base_budget=5, seed=3)),
                  (affine((1.0, system.basis[1]), (-0.5, system.basis[2])), {})):
        seen |= outcomes(check_every_mode(system, f, grid, **kw))
    assert {"violated", "indeterminate", "convex_on_sample"} <= seen


@pytest.mark.parametrize("exact", [True, False])
def test_duplicate_sampled_bases_are_counted(exact):
    grid = [Fraction(i) if exact else float(i) for i in range(7)]
    bases, exhaustive = increasing_tuples(grid, 2, budget=9, seed=5)
    assert not exhaustive and len(set(bases)) < len(bases)
    system = polynomial_system(3)
    for f in (affine((-1, PowerFn(3))), PowerFn(4)):
        assert pinned(system, 2, f, grid, base_budget=9, seed=5).bases_checked == 9
        check_every_mode(system, f, grid, base_budget=9, seed=5)


# ---------------------------------------------------------------------------
# errors: the same class and message, from the same first failing check

ONE_XSQ = one_xsq_system(Interval(), allow_unsafe_domain=True)
EXACT_LINE = [Fraction(i) for i in range(-2, 4)]
FLOAT_LINE = [float(i) for i in range(-2, 4)]


def errors(labeled) -> list:
    """The errors of labelled results; cross_mode_agreement raises the first."""
    return [r for _, r in labeled if isinstance(r, str)]


def test_singular_denominator_exact_agreement():
    labeled = check_every_mode(ONE_XSQ, PowerFn(4), EXACT_LINE)
    assert errors(labeled)[0] == ("SingularDenominator: prefix collocation determinant "
                                  "vanishes at (Fraction(-2, 1), Fraction(2, 1))")


def test_singular_denominator_float_induced():
    labeled = dict(check_every_mode(ONE_XSQ, PowerFn(4), FLOAT_LINE))
    assert labeled["induced:k=1"] == ("SingularDenominator: prefix collocation "
                                      "determinant 0.0 within tolerance at (-2.0, 2.0)")
    # nonzero, but inside the tolerance band of the denominator's entries
    near = [-2.0, -1.0, 0.0, 1.0, 2.0 + 2.0 ** -40, 3.0]
    labeled = dict(check_every_mode(ONE_XSQ, PowerFn(4), near))
    assert labeled["induced:k=1"] == (
        "SingularDenominator: prefix collocation determinant 3.637978807091713e-12 "
        "within tolerance at (-2.0, 2.0000000000009095)")


def test_non_finite_derived_value():
    # f(2.0) = 8e308 overflows, so the divided difference over (1.0, 2.0) is inf
    grid = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    labeled = dict(check_every_mode(polynomial_system(3), affine((1e308, PowerFn(3))), grid))
    assert labeled["induced:k=1"] == "NonFiniteValue: divided difference at (1.0, 2.0) is inf"


def test_gap_below_min_gap():
    system = polynomial_system(3)
    for grid in ([0.0, 1e-10, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 2.0 + 1e-10, 3.0, 4.0]):
        labeled = dict(check_every_mode(system, PowerFn(3), grid))
        assert labeled["induced:k=1"] == \
            "OrderingViolation: |points[0] - points[1]| < min gap 1e-09"


@pytest.mark.parametrize("grid", [[0.0, 1.0, 2.0, 2.0 + 1e-10, 3.0, 4.0],
                                  [3.0, 2.0 + 1e-10, 0.0, 4.0, 1.0, 2.0]])
def test_close_pair_inside_the_grid(grid):
    """A pinned base reads its grid's gaps once and validates each record
    (base..., x) only on a grid with a close pair: every pinned mode
    meets the oracle's OrderingViolation at the record of the pair, as
    (base..., x) names its points, and agreement the direct mode's, as
    the sorted grid names them."""
    labeled = dict(check_every_mode(polynomial_system(3), PowerFn(4), grid))
    message = "OrderingViolation: |points[{}] - points[{}]| < min gap 1e-09".format
    assert labeled == {
        "direct": message(2, 3),
        "induced:k=1": message(0, 1),
        "interval:k=1:ell=0": message(0, 1),
        "interval:k=1:ell=1": message(0, 1),
        "induced:k=2": message(1, 2),
        "interval:k=2:ell=0": message(0, 1),
        "interval:k=2:ell=1": message(1, 2),
        "interval:k=2:ell=2": message(1, 2),
    }


@pytest.mark.parametrize("grid", [[Fraction(i, 2) for i in range(-3, 4)],
                                  [i / 2 for i in range(-3, 4)]])
def test_value_at_a_base_position(grid):
    """On a grid whose points are all far enough apart, a pinned base
    still validates a record whose x is one of its base points, as
    divided_difference does: every target there is OrderingViolation."""
    pts = sorted_grid(grid)
    table = _PointTable(polynomial_system(3).basis + (PowerFn(4),))
    for k, base in ((1, (2,)), (2, (1, 4))):
        pinned = _PinnedBase(table, k, pts, base)
        for t in range(4 - k):
            for i, j in enumerate(base):
                assert result(pinned.columns, (t,), pts, (j,)) == \
                    f"OrderingViolation: points[{i}] == points[{k}] == {pts[j]}"
        assert not isinstance(result(pinned.columns, (0,), pts, (0, 3, 5)), str)


def test_sampled_function_missing_a_grid_point():
    system = polynomial_system(3)
    for grid, missing, shown in (([i / 2 for i in range(6)], 1.5, "1.5"),
                                 ([Fraction(i, 2) for i in range(6)], Fraction(3, 2),
                                  "Fraction(3, 2)")):
        kept = [x for x in grid if x != missing]
        f = SampledFn(tuple(kept), tuple(x * x for x in kept))
        labeled = dict(check_every_mode(system, f, grid))
        assert labeled["induced:k=1"] == \
            f"EvaluationOutsideSupport: sampled function has no value at {shown}"


def test_agreement_shares_the_direct_scans_values():
    # The sampled direct scan meets grid points 0-4 only; the pinned modes
    # read its values and evaluate f at 5 and 6 themselves, and f has no
    # value at 6.
    grid = [Fraction(i) for i in range(7)]
    f = SampledFn(tuple(grid[:-1]), tuple(x * x for x in grid[:-1]))
    labeled = check_every_mode(polynomial_system(2), f, grid, budget=2, seed=1)
    assert labeled[0][1].verdict == "convex_on_sample"
    assert errors(labeled)[0] == \
        "EvaluationOutsideSupport: sampled function has no value at Fraction(6, 1)"


@pytest.mark.parametrize("grid, missing, error", [
    # x = 2 makes the denominator over base -2 vanish, and f has no value there
    (EXACT_LINE, 2, SingularDenominator),
    # the first scan group is (-1, 2): target-major order meets the
    # denominator at 2 before f at -1
    ([Fraction(i) for i in (-2, -1, 2, 3, 4)], -1, SingularDenominator),
    # the first scan group is (-1, 0): f at -1 fails before x = 2 is reached
    (EXACT_LINE, -1, EvaluationOutsideSupport),
])
def test_singular_denominator_meets_missing_value(grid, missing, error):
    kept = [x for x in grid if x != missing]
    f = SampledFn(tuple(kept), tuple(x ** 4 for x in kept))
    labeled = dict(check_every_mode(ONE_XSQ, f, grid))
    assert labeled["induced:k=1"].startswith(error.__name__)


def test_mixed_int_float_grid_answers_as_its_float_twin():
    """A grid with a float is read at float, so its ints evaluate as
    floats in every mode: each verdict equals its float twin's, witnesses
    (which show the points as given) and witness values included."""
    grid, twin = [0, 0.5, 1, 2, 3], [0.0, 0.5, 1.0, 2.0, 3.0]
    seen = set()
    for n, f in ((2, PowerFn(3)), (3, PowerFn(3)), (3, affine((-1, PowerFn(4))))):
        system = polynomial_system(n)
        labeled = check_every_mode(system, f, twin)
        assert not errors(labeled)
        want = dict(labeled)
        for k in range(1, n):
            for ell in (None, *range(k + 1)):
                label = f"induced:k={k}" if ell is None else f"interval:k={k}:ell={ell}"
                assert pinned(system, k, f, grid, ell) == want[label], label
        assert cross_mode_agreement(system, f, grid).verdicts == tuple(labeled)
        seen |= outcomes(labeled)
    assert {"violated", "convex_on_sample"} <= seen


# ---------------------------------------------------------------------------
# the derived table itself

@pytest.mark.parametrize("system, grid", [
    (polynomial_system(3), [Fraction(i, 3) for i in range(-3, 4)]),
    (polynomial_system(4), [i / 4 - 1 for i in range(6)]),
    (trig_odd_system(1, -math.pi, 0.0), [-3.0, -2.5, -2.0, -1.25, -0.75, -0.5, -0.125]),
])
def test_derived_columns_equal_derived_functions(system, grid):
    exact = isinstance(grid[0], Fraction)
    fns = [affine((Fraction(3, 2) if exact else 1.5, PowerFn(system.dim + 1))),
           system.basis[-1]]
    if not exact:
        fns.append(ExpFn())
    pts = sorted_grid(grid)
    for f in fns:
        table = _PointTable(system.basis + (f,))
        for k in range(1, system.dim):
            for base in increasing_tuples(range(len(pts)), k)[0]:
                at = validate_tuple(tuple(pts[j] for j in base),
                                    OrderingClass.STRICTLY_INCREASING)
                off = [j for j in range(len(pts)) if j not in base]
                derived = _PinnedBase(table, k, pts, base)
                targets = tuple(DerivedFn(system, k, at, g) for g in table.fns[k:])
                cols = derived.columns(tuple(range(len(targets))), pts, off)
                for x, col in zip((pts[j] for j in off), cols):
                    assert [repr(v) for v in col.values] == \
                        [repr(evaluate(g, x)) for g in targets]
                    assert repr(col.values[0]) == ("Fraction(1, 1)" if exact else "1.0")
                    assert derived.backend(pts) is (Backend.EXACT if exact else Backend.FLOAT)


# ---------------------------------------------------------------------------
# DerivedFn, one ratio step per value, against its old body (one
# divided_difference of two fresh determinants per value): the value or
# the error, message included.  One DerivedFn serves every x of a case,
# so a value that depended on the points evaluated before it would show.

def derived_targets(exact: bool, grid) -> list:
    c = Fraction(3, 2) if exact else 1.5
    targets = [PowerFn(5), ConstFn(c), affine((2, PowerFn(3)), (c, PowerFn(1))),
               SampledFn(tuple(grid[::2]), tuple(c * i for i in range(len(grid[::2]))))]
    if not exact:
        targets += [ExpFn(), CosFn(2), NegCotFn(1.0)]    # NegCotFn has a pole at -1
    return targets


DERIVED_SYSTEMS = [
    (polynomial_system(2), [-1.5, -1.0, -0.25, 0.0, 0.5, 2.0]),
    (polynomial_system(3), [-1.5, -1.0, -0.25, 0.0, 0.5, 2.0]),
    (polynomial_system(4), [-1.5, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0]),
    (trig_odd_system(1, -math.pi, 0.0), [-3.0, -2.5, -1.25, -1.0, -0.5, -0.125, 0.5]),
    (one_xsq_system(), [-1.0, 0.25, 0.5, 1.5, 3.0]),
]


@pytest.mark.parametrize("backend", ["exact", "float", "neutral"])
@pytest.mark.parametrize("system, grid", DERIVED_SYSTEMS)
def test_derived_fn_matches_its_old_body(system, grid, backend):
    """On the exact and float backends, and with int points, which take
    the backend that the functions require."""
    rng = random.Random(len(grid) + system.dim)
    exact = backend == "exact"
    if exact:
        grid = [Fraction(x) for x in grid]
    elif backend == "neutral":
        grid = sorted({int(2 * x) for x in grid})
    seen = set()
    for k in range(system.dim + 1):
        for target in derived_targets(exact, grid):
            base = PointTuple(tuple(sorted(rng.sample(grid, k))))
            fn = DerivedFn(system, k, base, target)
            xs = list(grid)
            if k and isinstance(base[0], float):
                xs.append(base[0] + 1e-12)     # closer to the base than the minimum gap
            for x in xs:
                want = result(derived_value, fn, x)
                assert repr(result(fn, x)) == repr(want), (k, base, x)
                seen.add(want.split(":")[0] if isinstance(want, str) else "value")
    assert "value" in seen and len(seen) >= 3


def test_derived_fn_checks_its_base_against_the_domain():
    fn = DerivedFn(trig_odd_system(1, -3.0, 0.0), 1, PointTuple((1.0,)), PowerFn(3))
    want = "EvaluationOutsideSupport: point 1.0 is outside the system domain"
    assert result(derived_value, fn, -1.25) == want
    assert result(fn, -1.25) == want


def test_derived_fn_checks_the_domain_before_evaluating_its_prefix():
    """A prefix function with a pole outside the domain: the point's
    domain error, as divided_difference reports it, not the pole."""
    system = ChebyshevSystem((ConstFn(1), NegCotFn(1.0), PowerFn(2)), Interval(-0.5, 0.5))
    fn = DerivedFn(system, 1, PointTuple((0.0,)), PowerFn(3))
    want = "EvaluationOutsideSupport: point -1.0 is outside the system domain"
    assert result(derived_value, fn, -1.0) == want
    assert result(fn, -1.0) == want


@pytest.mark.parametrize("backend", ["exact", "float", "neutral"])
@pytest.mark.parametrize("system, grid", DERIVED_SYSTEMS)
def test_pinned_ratios_match_two_fraction_ratios(system, grid, backend):
    """One pinned base per k, every target on one table: each ratio at a
    domain point (a pinned base's callers check the domain first), by
    value and type, equals the parent's two-Fraction ratio step on a
    fresh table, and, as a derived function's value, derived_value's,
    errors included.  The table reads a neutral grid at float, as its
    float-only targets require, so the references take the grid's float
    twin, and an error there is matched by its class: its message names
    the points as given."""
    rng = random.Random(len(grid) * system.dim)
    exact = backend == "exact"
    twin = float if backend == "neutral" else (lambda x: x)
    if exact:
        grid = [Fraction(x) for x in grid]
    elif backend == "neutral":
        grid = sorted({int(2 * x) for x in grid})
    targets = tuple(derived_targets(exact, grid))
    inside = sorted_grid([x for x in grid if system.domain.contains(x)])
    compared = 0
    for k in range(system.dim):
        at_base = tuple(sorted(rng.sample(range(len(inside)), k)))
        base = PointTuple(tuple(inside[j] for j in at_base))
        table = _PointTable(system.basis[:k + 1] + targets)
        pinned = _PinnedBase(table, k, inside, at_base)
        for t in range(len(pinned.fns)):
            fn = DerivedFn(system, k, PointTuple(tuple(map(twin, base))), table.fns[k + t])
            for j, x in enumerate(inside):
                want = result(derived_value, fn, twin(x))
                got = result(lambda: pinned.columns((t,), inside, (j,))[0].values[0])
                if isinstance(want, str) and backend == "neutral":
                    assert got.split(":")[0] == want.split(":")[0], (k, base, t, x)
                else:
                    assert repr(got) == repr(want), (k, base, t, x)
                if isinstance(want, str):
                    continue
                at = tuple(map(twin, base.points + (x,)))
                fresh = _PointTable(system.basis[:k + 1] + (table.fns[k + t],))
                two = ratio_two_fractions(fresh, k + 1, at, DEFAULT_TOL_FACTOR)
                assert repr(pinned.ratio(t, j)) == repr(two[0]), (k, base, t, x)
                compared += 1
    assert compared


@pytest.mark.parametrize("points", [(0.5, Fraction(1, 2), 0.5), (1, 1.0, 1),
                                    (Fraction(3), 3, 3.0)])
def test_derived_fn_value_does_not_depend_on_earlier_points(points):
    """Equal points of different types, one after the other, on one
    DerivedFn: each value (or error) is the one it has alone."""
    for k, base in ((1, (0,)), (2, (0, 2))):
        fn = DerivedFn(polynomial_system(3), k, PointTuple(base), PowerFn(3))
        for x in points:
            assert repr(result(fn, x)) == repr(result(derived_value, fn, x)), (k, x)


@pytest.mark.parametrize("system, grid, backend", [
    (system, grid, backend) for system, grid in DERIVED_SYSTEMS
    for backend in ("exact", "float", "neutral")
    if backend != "exact" or system.required_backend() is not Backend.FLOAT])
def test_derived_fn_is_divided_difference(system, grid, backend):
    """Each value of a derived function, or its error, is
    divided_difference's over (base..., x) with respect to the
    (k+1)-prefix (an exact base of a float system clashes before)."""
    rng = random.Random(len(grid) - system.dim)
    exact = backend == "exact"
    if exact:
        grid = [Fraction(x) for x in grid]
    elif backend == "neutral":
        grid = sorted({int(2 * x) for x in grid})
    values = 0
    for k in range(1, system.dim):
        for target in derived_targets(exact, grid):
            base = PointTuple(tuple(sorted(rng.sample(grid, k))))
            fn = DerivedFn(system, k, base, target)
            for x in grid:
                want = result(lambda: divided_difference(system, k + 1, target,
                                                         base.points + (x,)).value)
                assert repr(result(evaluate, fn, x)) == repr(want), (k, base, x)
                values += not isinstance(want, str)
    assert values


MINOR_SYSTEMS = [
    (polynomial_system(4), [Fraction(i, 3) for i in range(-3, 4)]),
    (polynomial_system(4), [i / 3 for i in range(-3, 4)]),
    (polynomial_system(4), list(range(-3, 4))),
    (ChebyshevSystem(tuple(PowerFn(i) for i in range(1, 5)), Interval()),  # zero at 0
     [Fraction(i, 2) for i in range(-2, 4)]),
    (ChebyshevSystem(tuple(PowerFn(i) for i in range(1, 5)), Interval()),
     [i / 2 for i in range(-2, 4)]),
    (ChebyshevSystem(tuple(PowerFn(i) for i in range(1, 5)), Interval()), list(range(-2, 4))),
    (trig_odd_system(1, -math.pi, 0.0), [-3.0, -2.5, -1.25, -1.0, -0.5, -0.125]),
]


@pytest.mark.parametrize("system, grid", MINOR_SYSTEMS)
def test_pinned_minors_are_table_determinants(system, grid):
    """Every (k+1)-minor of a pinned base, k = 1..3 and each of its
    targets at each position, base positions included, equals by repr
    the point table's determinant of the same columns, and has their
    backend and prepared forms.  Bases on the zero of x, x^2, ... keep
    no elimination: their leading pivot column is zero."""
    pts = sorted_grid(grid)
    c = 1.5 if isinstance(grid[0], float) else Fraction(3, 2)
    targets = (PowerFn(5), ConstFn(c), affine((c, PowerFn(2)), (-2, PowerFn(5))))
    if system.required_backend() is Backend.FLOAT:
        targets += (ExpFn(),)
    fns = system.basis + targets
    zero_pivots = 0
    for k in range(1, min(4, system.dim)):
        for base in increasing_tuples(range(len(pts)), k)[0]:
            pinned = _PinnedBase(_PointTable(fns), k, pts, base)
            for t in range(len(pinned.fns)):
                rows = (*range(k), k + t)
                for j in range(len(pts)):
                    det, backend, forms = pinned.minor(t, j)
                    fresh = _PointTable(fns)
                    assert repr(_scalar(det)) == repr(fresh.det(rows, pts, base + (j,))), \
                        (k, base, t, j)
                    assert (backend, forms) == fresh.matrix(rows, pts, base + (j,))
                zero_pivots += pinned.kept[t][2] is None
    assert (zero_pivots > 0) == (system.basis[0] == PowerFn(1))
