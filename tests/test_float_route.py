"""The exact route of a float check (determinant._route): an exhaustive
float sign scan of rational input (powers, constants and affine
combinations with float coefficients, sampled functions) answers on the
exact engine, through the exact image of its grid and functions, and
spells its report in float.

* Its verdicts, counts, witnesses and bases are the exact backend's on
  the floats' exact values, with 0 indeterminate tuples, unless a
  violated witness's float value is no definite violation and the float
  walk's verdict is violated too: then the verdict is the float walk's,
  whole, its witness first.
* Every definite float-walk verdict is the routed one, with its witness,
  witness base and witness value, except a float pass whose check the
  exact engine finds violated: the float value has the wrong sign there.
* A float pinned check on its image reads its witnesses and bases there
  and computes no identity value (convexity._read_off): its report is
  the float walk's, by repr, witness value bits included, outside the
  float walk's count of tuples near zero.
* Input errors are the float walk's; a grid or function whose exact
  integers pass MAX_IMAGE_BITS, and every sampled scan, divided
  difference, variation estimate and identity suite, stay on the float
  walk and never build the image.
"""

import contextlib
import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from chebconvex import convexity, determinant
from chebconvex.cli import main
from chebconvex.convexity import (check_convex_direct, check_convex_induced,
                                  check_convex_interval, cross_mode_agreement)
from chebconvex.core import (AffineFn, ChebyshevSystem, ConstFn, ExpFn, Interval, PowerFn,
                             SampledFn, affine)
from chebconvex.determinant import is_positive_chebyshev
from chebconvex.divdiff import divided_difference
from chebconvex.errors import InputError, SingularDenominator
from chebconvex.identities import IDENTITY_SUITES, run_suite
from chebconvex.systems import one_xsq_system, polynomial_system
from chebconvex.variation import check_variation_bound, estimate_variation


def exact_twin(f):
    """f with its float scalars made the Fractions they equal."""
    if isinstance(f, ConstFn):
        return ConstFn(Fraction(f.c))
    if isinstance(f, SampledFn):
        return SampledFn(tuple(map(Fraction, f.points)), tuple(map(Fraction, f.values)))
    if isinstance(f, AffineFn):
        return affine(*((Fraction(c), exact_twin(s)) for c, s in f.terms))
    return f


def walked(call, monkeypatch):
    """call() on the float walk alone, or the error it raises."""
    with monkeypatch.context() as m:
        m.setattr(determinant, "_exact_image", lambda *args: None)
        return outcome(call)


def outcome(call):
    try:
        return call()
    except InputError as exc:
        return f"{type(exc).__name__}: {exc}"


def checks(system, f, grid):
    """Each routed entry as a call on ``grid``, by name: positivity at
    every k, direct, induced and interval at every k and ell, and
    agreement, whose verdicts come labelled."""
    n = system.dim
    calls = {f"positivity:{k}": lambda k=k: [is_positive_chebyshev(system, k, grid)]
             for k in range(1, n + 1)}
    calls["direct"] = lambda: [check_convex_direct(system, f, grid)]
    for k in range(1, n):
        calls[f"induced:{k}"] = lambda k=k: [check_convex_induced(system, k, f, grid)]
        for ell in range(k + 1):
            calls[f"interval:{k}:{ell}"] = lambda k=k, ell=ell: [
                check_convex_interval(system, k, ell, f, grid)]
    calls["agreement"] = lambda: [v for _, v in cross_mode_agreement(system, f, grid).verdicts]
    return calls


def spelled(v) -> tuple:
    """The parts of a verdict that the route keeps from the exact one."""
    counts = (getattr(v, "bases_checked", 0), getattr(v, "bases_skipped", 0))
    base = getattr(v, "witness_base", None)
    return (v.verdict, v.tuples_checked, v.exhaustive if hasattr(v, "exhaustive") else None,
            counts, None if v.witness is None else tuple(map(Fraction, v.witness)),
            None if base is None else tuple(map(Fraction, base)))


def assert_routed(system, f, grid, monkeypatch) -> None:
    """Every check of ``checks`` on the float ``grid`` and ``f`` against
    the exact backend's on their exact values and the float walk's."""
    exact = checks(system, exact_twin(f), [Fraction(x) for x in grid])
    for name, call in checks(system, f, grid).items():
        got, walk, want = outcome(call), walked(call, monkeypatch), outcome(exact[name])
        if isinstance(got, str) or isinstance(want, str):
            assert got == walk, name        # the float walk, and its error
            continue
        for v, e, w in zip(got, want, [None] * len(got) if isinstance(walk, str) else walk):
            assert v.verdict == e.verdict, name
            if spelled(v) != spelled(e) or v.indeterminate_count:
                # a violated witness whose float value lies inside the band:
                # the float walk's violated verdict, with its witness
                assert v == w and v.verdict == "violated", name
            if w is None or w.verdict == "indeterminate":
                continue
            if v.verdict != w.verdict:
                # a float pass of a violated check: the float value at the
                # exact witness has the wrong sign, and a nonnegative scan's
                # band, [-tol, 0), does not reach it
                assert w.verdict != "violated" and v.witness_value >= 0, name
                continue
            # a definite float verdict is the routed one
            assert (v.witness, getattr(v, "witness_base", None)) == \
                (w.witness, getattr(w, "witness_base", None)), name
            assert repr(v.witness_value) == repr(w.witness_value), name


def functions(rng: random.Random, n: int, grid: list) -> list:
    """Rational targets for a system of dimension n: affine power
    combinations with float coefficients, convex or not, a power, a
    constant, and sampled values, nudged half the time."""
    coef = lambda: rng.randint(-12, 12) / 4
    values = [x ** (n + 1) - x ** n for x in grid]
    if rng.random() < 0.5:
        values[rng.randrange(len(values))] += 1 / 16
    return [affine((coef(), PowerFn(n - 1)), (coef(), PowerFn(n)), (coef(), PowerFn(n + 1))),
            affine((1.5, PowerFn(n + 1)), (0.25, ConstFn(0.5))),
            PowerFn(n + 2), ConstFn(0.75), SampledFn(tuple(grid), tuple(values))]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "non-dyadic"])
def test_routed_verdicts_are_the_exact_backends(n, dyadic, monkeypatch):
    """On dyadic grids (points i/8) and non-dyadic ones (points i/(m-1),
    rounded), every routed check equals the exact backend on the floats'
    exact values, and every definite float-walk verdict the routed one."""
    rng = random.Random(100 * n + dyadic)
    for trial in range(2):
        m = n + 3 + trial
        idx = sorted(rng.sample(range(-8, 17), m)) if dyadic else range(m)
        grid = [i / 8 for i in idx] if dyadic else [i / (m - 1) for i in idx]
        for f in functions(rng, n, grid):
            assert_routed(polynomial_system(n), f, grid, monkeypatch)


def test_a_float_tolerance_defect_is_answered_exactly(monkeypatch):
    """poly:4 on uniform:0,1000,8: the float walk calls all 70 tuples
    indeterminate; the route answers as the exact backend does."""
    grid = [1000 * i / 7 for i in range(8)]
    system = polynomial_system(4)
    walk = walked(lambda: is_positive_chebyshev(system, 4, grid), monkeypatch)
    assert (walk.verdict, walk.indeterminate_count) == ("indeterminate", 70)
    got = is_positive_chebyshev(system, 4, grid)
    assert (got.verdict, got.tuples_checked, got.indeterminate_count) == \
        ("positive_on_grid", 70, 0)


# a benchmark request (scan, seed 1, round 0, S8): the first exact violation
# comes before the float walk's witness, whose float value there lies inside
# the tolerance band
S8_GRID = [0, 0.25, 0.3125, 0.375, 0.4375, 0.75, 1, 1.375, 1.4375, 1.75]
S8_F = affine((-2.0, PowerFn(0)), (1.0, PowerFn(4)), (-1.625, PowerFn(7)))


def test_a_violated_report_keeps_the_float_walks_witness(monkeypatch):
    system = polynomial_system(5)
    exact = check_convex_direct(system, exact_twin(S8_F), list(map(Fraction, S8_GRID)))
    assert exact.witness == tuple(map(Fraction, (0, 0.25, 0.3125, 0.375, 0.4375, 0.75)))
    got = check_convex_direct(system, S8_F, S8_GRID)
    assert got.verdict == "violated" and got.witness == (0, 0.25, 0.3125, 0.375, 0.75, 1)
    assert repr(got) == repr(walked(lambda: check_convex_direct(system, S8_F, S8_GRID),
                                    monkeypatch))


def test_a_routed_violation_spells_its_witness_in_float(monkeypatch):
    """The witness is the float points as given, the value the float
    walk's at it, and the count of indeterminate tuples 0."""
    system, f = polynomial_system(2), affine((-1.0, PowerFn(2)))
    grid = [0.5, 0, 1, 2.25, 3]
    got = check_convex_direct(system, f, grid)
    walk = walked(lambda: check_convex_direct(system, f, grid), monkeypatch)
    assert repr(got) == repr(walk)
    assert got.witness == (0, 0.5, 1) and type(got.witness[1]) is float
    induced = check_convex_induced(polynomial_system(3), 1, affine((-1.0, PowerFn(3))), grid)
    assert (induced.verdict, induced.witness_base, induced.indeterminate_count) == \
        ("violated", (0,), 0)
    assert type(induced.witness_value) is float


# ---------------------------------------------------------------------------
# a float pinned check on its image: witnesses and bases from the image,
# values from the float walk

def pinned_checks(system, f, grid) -> dict:
    """The induced, interval and agreement entries of ``checks``."""
    return {name: call for name, call in checks(system, f, grid).items()
            if name.startswith(("induced", "interval", "agreement"))}


def violated_cases(rng: random.Random, count: int) -> list:
    """``count`` float (1, x, x^2) checks of rational input whose direct
    check is violated, so that its windows fail and its pinned modes are
    violated too: 6-8 points i/7, and f an affine combination of x^3 and
    x^4 with coefficients c/3 or x^3 sampled with steps d/10."""
    system, cases = polynomial_system(3), []
    while len(cases) < count:
        grid = [i / 7 for i in sorted(rng.sample(range(-14, 15), rng.randint(6, 8)))]
        coef = lambda: rng.randint(-12, 12) / 3
        f = affine((coef(), PowerFn(3)), (coef(), PowerFn(4)), (0.5, ConstFn(0.25))) \
            if rng.random() < 0.5 else \
            SampledFn(tuple(grid), tuple(x ** 3 + rng.randint(-8, 8) / 10 for x in grid))
        if check_convex_direct(system, f, grid).verdict == "violated":
            cases.append((f, grid))
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_float_pinned_checks_on_the_image_are_the_float_walks(seed, monkeypatch):
    """Every induced, interval and agreement check of a violated case,
    by repr, is the float walk's, whose witnesses it reads off the exact
    image and whose witness values are the float walk's, bit for bit;
    the walk alone counts tuples near zero, which the image has none of."""
    violated = 0
    for f, grid in violated_cases(random.Random(seed), 3):
        for name, call in pinned_checks(polynomial_system(3), f, grid).items():
            got, walk = call(), walked(call, monkeypatch)
            assert all(v.indeterminate_count == 0 for v in got), name
            assert repr(got) == repr([dataclasses.replace(w, indeterminate_count=0)
                                      for w in walk]), name
            violated += sum(v.verdict == "violated" for v in got)
    assert violated >= 20


def test_a_float_check_on_the_image_computes_no_identity_value(monkeypatch):
    """No float pinned check on its image calls _sylvester_side, whose
    value _float_witness would replace; its exact twin calls it once for
    each violated mode, and reports that value."""
    values = []
    real = convexity._sylvester_side
    monkeypatch.setattr(convexity, "_sylvester_side",
                        lambda *args: values.append(real(*args)) or values[-1])
    for f, grid in violated_cases(random.Random(7), 3):
        exact = pinned_checks(polynomial_system(3), exact_twin(f), list(map(Fraction, grid)))
        for name, call in pinned_checks(polynomial_system(3), f, grid).items():
            got = call()
            assert any(v.verdict == "violated" for v in got) and values == [], name
            twin = exact[name]()
            assert values == [v.witness_value for v in twin if v.mode != "direct"
                              and v.verdict == "violated"] != [], name
            assert all(type(v) is Fraction for v in values), name
            values.clear()


# ---------------------------------------------------------------------------
# the float walk's input errors, and the fallback

def unit(n):
    """The powers 1..x^(n-1) on [0, 1]."""
    return ChebyshevSystem(polynomial_system(n).basis, Interval(0.0, 1.0, False, False))


def run(capsys, *argv) -> tuple:
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("call", [
    # a non-finite function value
    lambda: check_convex_direct(polynomial_system(2), affine((1e308, PowerFn(3))),
                                [0.5, 1.0, 2.0, 3.0, 4.0]),
    lambda: is_positive_chebyshev(polynomial_system(3), 3, [0.0, 1.0, float("inf")]),
    lambda: is_positive_chebyshev(polynomial_system(2), 2, [0.0, float("nan")]),
    # a min-gap violation
    lambda: check_convex_direct(polynomial_system(2), PowerFn(2), [0.0, 1e-10, 1.0, 2.0]),
    lambda: cross_mode_agreement(polynomial_system(3), PowerFn(4),
                                 [0.0, 1e-10, 1.0, 2.0, 3.0]),
    lambda: check_convex_induced(polynomial_system(3), 1, PowerFn(4),
                                 [0.0, 1e-10, 1.0, 2.0, 3.0]),
    # a point outside the domain
    lambda: is_positive_chebyshev(unit(2), 2,
                                  [0.25, 0.5, 1.5]),
    lambda: check_convex_interval(unit(3), 1, 0,
                                  PowerFn(4), [0.25, 0.5, 0.625, 0.75, 1.5]),
    # a dimension, a budget and a tolerance factor that no check takes
    lambda: is_positive_chebyshev(polynomial_system(2), 3, [0.0, 0.5, 1.0]),
    lambda: is_positive_chebyshev(polynomial_system(2), 2, [0.0, 0.5, 1.0], budget=0),
    lambda: check_convex_direct(polynomial_system(2), PowerFn(2), [0.0, 0.5, 1.0],
                                tol_factor=math.nan),
])
def test_input_errors_are_the_float_walks(call, monkeypatch):
    got = outcome(call)
    assert isinstance(got, str) and got == walked(call, monkeypatch)


def test_input_errors_keep_their_messages():
    """As at the parent, with the points as given."""
    with pytest.raises(InputError, match=r"^\|points\[0\] - points\[1\]\| < min gap 1e-09$"):
        check_convex_direct(polynomial_system(2), PowerFn(2), [0.0, 1e-10, 1.0, 2.0])
    with pytest.raises(InputError, match=r"^grid point 1\.5 is outside the system domain$"):
        is_positive_chebyshev(unit(2), 2, [0.25, 0.5, 1.5])
    with pytest.raises(InputError, match=r"^function value inf at grid point 2\.0$"):
        check_convex_direct(polynomial_system(2), affine((1e308, PowerFn(3))),
                            [0.5, 1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("argv", [
    # poly:5 on 2^-600/3 and i/8: integers of 655 bits, past MAX_IMAGE_BITS
    ["chebcheck", "--system", "poly:5", "--grid",
     "list:" + ",".join(map(repr, [2.0 ** -600 / 3] + [i / 8 for i in range(1, 9)]))],
    # a sampled value of 2^-600 / 3
    ["convexity", "--system", "poly:2", "--grid", "list:0,0.5,1,1.5", "--function",
     "const:" + repr(2.0 ** -600 / 3)],
    # the float walk's overflow: 1e-300 next to 1e150 needs a scale of 997 bits
    ["chebcheck", "--system", "poly:3", "--grid", "list:1e-300,1e150,2e150,3e150"],
])
def test_a_wide_exponent_spread_takes_the_float_walk(capsys, monkeypatch, argv):
    """The report is byte-identical to the float walk's, which is the
    parent's, and no exact image is made."""
    argv = argv + ["--backend", "float"]
    with monkeypatch.context() as m:
        m.setattr(determinant, "_exact_image", lambda *args: None)
        want = run(capsys, *argv)
    made = []
    real = determinant._exact_image
    monkeypatch.setattr(determinant, "_exact_image",
                        lambda *args: made.append(real(*args)) or made[-1])
    got = run(capsys, *argv)
    for rep in (got, want):
        rep[1].pop("timing_seconds")
    assert got == want and made == [None]


def test_the_bit_bound_is_inclusive(monkeypatch):
    """A grid whose integers take MAX_IMAGE_BITS bits routes; one more
    bit keeps the float walk."""
    monkeypatch.setattr(determinant, "MAX_IMAGE_BITS", 4)
    system = polynomial_system(2)
    at_bound = determinant.sorted_grid([0.0, 0.5, 1.0, 1.875])       # 0/8 .. 15/8
    past = determinant.sorted_grid([0.0, 0.5, 1.0, 1.9375])          # 31/16
    assert determinant._exact_image(determinant._PointTable(system.basis, at_bound)) is not None
    assert determinant._exact_image(determinant._PointTable(system.basis, past)) is None


@pytest.mark.parametrize("grid", [[1e150, 2e150, 3e150, 4e150], [0.0, 1.0, 2.0, 3.0]])
def test_an_overflowing_float_determinant_is_answered_exactly(grid, monkeypatch):
    """A deliberate change: the float walk's only error on [1e150, ...] is
    a determinant that overflows to inf (NonFiniteValue); the route
    answers as the exact backend does."""
    system = polynomial_system(3)
    walk = walked(lambda: is_positive_chebyshev(system, 3, grid), monkeypatch)
    got = is_positive_chebyshev(system, 3, grid)
    assert got == is_positive_chebyshev(system, 3, list(map(Fraction, grid)))
    assert got.verdict == "positive_on_grid"
    if grid[0] == 1e150:
        assert walk == "NonFiniteValue: determinant inf at (1e+150, 2e+150, 3e+150)"


def test_an_exact_violation_stands_where_the_float_walk_overflows(monkeypatch):
    """A deliberate change: (1, x^2) on -1, 1 and 2^511.  The exact
    witness (-1, 1) has float value 0.0, inside the band, so the float
    walk runs too, and its tolerance at 2^511 overflows (OverflowError):
    the exact violation stands, with that float value."""
    system = one_xsq_system(Interval(), allow_unsafe_domain=True)
    grid = [-1.0, 1.0, 2.0 ** 511]
    with pytest.raises(OverflowError):
        walked(lambda: is_positive_chebyshev(system, 2, grid), monkeypatch)
    got = is_positive_chebyshev(system, 2, grid)
    assert (got.verdict, got.witness, repr(got.witness_value), got.indeterminate_count) == \
        ("violated", (-1.0, 1.0), "0.0", 0)


def test_a_singular_float_denominator_is_answered_exactly(monkeypatch):
    """A deliberate change: the float pinned modes meet (k+1)-prefix
    determinants within the float tolerance at the base (1e5,); exact
    ones are nonzero, and agreement answers as the exact backend does,
    on the image and on the float walk, whose windows certify the grid,
    so that no base is pinned.  Only a per-base loop meets the float
    denominators."""
    grid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1e5, 1e5 + 0.5]
    system, f = polynomial_system(3), PowerFn(4)
    got = cross_mode_agreement(system, f, grid)
    want = cross_mode_agreement(system, f, list(map(Fraction, grid)))
    assert got == want and got.agreed
    assert walked(lambda: cross_mode_agreement(system, f, grid), monkeypatch) == want
    monkeypatch.setattr(determinant, "_dyadic", lambda *args: None)
    assert walked(lambda: cross_mode_agreement(system, f, grid), monkeypatch) == \
        "SingularDenominator: prefix collocation determinant 0.5000000000032756 within " \
        "tolerance at (100000.0, 100000.5)"


# ---------------------------------------------------------------------------
# the route's scope: exhaustive sign scans only

@pytest.fixture
def no_image(monkeypatch):
    def refuse(*args):
        raise AssertionError("an exact image was built")
    monkeypatch.setattr(determinant, "_exact_image", refuse)


def test_an_exhaustive_float_scan_builds_the_image(no_image):
    with pytest.raises(AssertionError, match="image was built"):
        is_positive_chebyshev(polynomial_system(3), 3, [0.0, 0.5, 1.0, 2.0])


def test_sampled_scans_do_not_build_the_image(no_image):
    grid = [i / 8 for i in range(12)]
    system = polynomial_system(3)
    assert not is_positive_chebyshev(system, 3, grid, budget=30).exhaustive
    assert check_convex_direct(system, PowerFn(4), grid, budget=30).tuples_checked == 30
    check_convex_induced(system, 1, PowerFn(4), grid, base_budget=5)
    check_convex_interval(system, 1, 0, PowerFn(4), grid, budget=30)
    cross_mode_agreement(system, PowerFn(4), grid[:7], budget=30)


def test_float_divdiff_and_variation_do_not_build_the_image(no_image):
    system = polynomial_system(3)
    divided_difference(system, 3, PowerFn(4), [0.5, 1.0, 2.0])
    estimate_variation(system, PowerFn(5), 0.5, 1.5)
    check_variation_bound(system, PowerFn(4), ConstFn(0.0), 0.5, 1.5)


@pytest.mark.parametrize("suite", IDENTITY_SUITES)
def test_float_identity_suites_do_not_build_the_image(no_image, suite):
    """Trial by trial; a float trial may meet the float tolerance's
    SingularDenominator, which ends its suite."""
    done = 0
    for seed in range(8):
        with contextlib.suppress(SingularDenominator):
            run_suite(suite, 1, seed, determinant.Backend.FLOAT)
            done += 1
    assert done


def test_transcendental_functions_have_no_image():
    """exp has no exact value, so the check takes the float walk at once,
    and an exact grid is read exactly as before."""
    grid = determinant.sorted_grid([0.0, 0.5, 1.0])
    table = determinant._PointTable(polynomial_system(2).basis + (ExpFn(),), grid)
    assert determinant._exact_image(table) is None
    exact = determinant.sorted_grid([Fraction(0), Fraction(1, 2), Fraction(1)])
    assert determinant._exact_image(determinant._PointTable(polynomial_system(2).basis,
                                                            exact)) is None
