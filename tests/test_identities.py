"""The identity checks on pinned bases (``verify_induced_system``,
``convexity_identity_check``) and the identity suites of
``chebconvex.identities``, checked against the loops in ``oracles.py``,
which compute every minor as its own collocation determinant and every
cell as its own divided difference.  Results must be identical, float
values included (compared by repr), and so must the error a check
raises, message included."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from chebconvex import identities
from chebconvex.cli import _jsonify
from chebconvex.convexity import convexity_identity_check
from chebconvex.core import Backend, ExpFn, Interval, PowerFn, SampledFn, affine
from chebconvex.errors import InputError
from chebconvex.identities import IDENTITY_SUITES, run_suite
from chebconvex.induced import verify_induced_system
from chebconvex.systems import one_xsq_system, polynomial_system, trig_odd_system

from oracles import convexity_identity_loop, identity_suite_loop, induced_identity_loop

TRIG = trig_odd_system(1, -math.pi, 0.0)
ONE_XSQ = one_xsq_system(Interval(), allow_unsafe_domain=True)


def result(fn, *args, **kwargs):
    """What ``fn`` returns, or the error it raises as "Class: message"."""
    try:
        return fn(*args, **kwargs)
    except (InputError, OverflowError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def same(fn, oracle, *args, **kwargs):
    """``fn`` and ``oracle`` give the same result by repr; returns it."""
    want = result(oracle, *args, **kwargs)
    assert repr(result(fn, *args, **kwargs)) == repr(want)
    return want


def points(rng: random.Random, count: int, exact: bool, lo: int = -3, hi: int = 3) -> list:
    """``count`` distinct points of a lattice of eighths, in random order."""
    idx = rng.sample(range(lo * 8, hi * 8 + 1), count)
    return [Fraction(i, 8) if exact else i / 8 for i in idx]


def trig_points(rng: random.Random, count: int) -> list:
    return [-math.pi + (i + 1) * math.pi / 33 for i in rng.sample(range(32), count)]


CASES = [(polynomial_system(n), exact) for n in (2, 3, 4, 5) for exact in (True, False)] \
    + [(TRIG, False)]


# ---------------------------------------------------------------------------
# verify_induced_system

@pytest.mark.parametrize("system, exact", CASES)
def test_verify_induced_matches_oracle(system, exact):
    rng = random.Random(system.dim * 2 + exact)
    n = system.dim
    for k in range(1, n):
        for _ in range(2):
            pts = trig_points(rng, n + 3) if system is TRIG else points(rng, n + 3, exact)
            base, grid = tuple(sorted(pts[:k])), pts[k:]
            report = same(verify_induced_system, induced_identity_loop, system, k, base, grid)
            assert not isinstance(report, str) and report.positivity.exhaustive
            # tuples sampled under the budget, with another seed
            report = same(verify_induced_system, induced_identity_loop, system, k, base,
                          grid, budget=2, seed=rng.randrange(100))
            if math.comb(len(grid), n - k) > 2:
                assert not report.exhaustive and report.identity_checked == 2


def test_verify_induced_past_the_float_range():
    """Points of size 10^200 make sides past the float range; the exact
    identity holds, and its relative residual is an exact 0, as a float."""
    report = verify_induced_system(polynomial_system(4), 1, (Fraction(10 ** 200),),
                                   (2 * 10 ** 200, 3 * 10 ** 200, 4 * 10 ** 200))
    assert report.positivity.is_positive and report.identity_checked == 1
    assert report.max_rel_residual == 0.0 and type(report.max_rel_residual) is float
    assert abs(report.worst.lhs) > 2 ** 1024


def test_verify_induced_errors():
    base = (Fraction(-1), Fraction(1, 2))
    grid = [Fraction(i, 4) for i in range(-8, 9, 3)]
    outcomes = [
        # a grid that holds a base point
        same(verify_induced_system, induced_identity_loop, polynomial_system(4), 2, base,
             grid + [Fraction(1, 2)]),
        # a grid point closer to a base point than the minimum gap
        same(verify_induced_system, induced_identity_loop, polynomial_system(4), 2,
             (-1.0, 0.5), [0.5 + 1e-10, 1.5, 2.0, 3.0]),
        # a vanishing (k+1)-minor: (1, x^2) on (-2, 2)
        same(verify_induced_system, induced_identity_loop, ONE_XSQ, 1, (Fraction(-2),),
             [Fraction(i) for i in (-1, 0, 1, 2, 3)]),
        same(verify_induced_system, induced_identity_loop, ONE_XSQ, 1, (-2.0,),
             [-1.0, 0.0, 1.0, 2.0, 3.0]),
        # a base point outside the parent domain
        same(verify_induced_system, induced_identity_loop, TRIG, 1, (0.5,), [-1.0, -2.0]),
        # an empty sample
        same(verify_induced_system, induced_identity_loop, polynomial_system(3), 1,
             (Fraction(0),), [Fraction(i) for i in range(1, 6)], budget=0),
    ]
    assert all(isinstance(r, str) for r in outcomes)
    assert outcomes[0].startswith("EvaluationOutsideSupport: grid point 1/2")
    assert outcomes[1] == "OrderingViolation: |points[1] - points[2]| < min gap 1e-09"
    assert outcomes[2].startswith("SingularDenominator: prefix collocation determinant vanishes")
    assert outcomes[3].startswith("SingularDenominator: prefix collocation determinant 0.0")


@pytest.mark.parametrize("exact", [True, False])
def test_verify_induced_base_point_on_the_grid(exact):
    """A grid, unsorted, that holds a base point: its joined grid of base
    and grid points has two equal points, so no pinned record is taken
    unchecked, and the punctured domain of the induced system rejects
    the point before any value, as the oracle does."""
    x = Fraction(1, 2) if exact else 0.5
    grid = [Fraction(i, 2) if exact else i / 2 for i in (3, -2, 1, 0, 2)]
    assert sorted(grid)[2] == x
    got = same(verify_induced_system, induced_identity_loop, polynomial_system(3), 1, (x,),
               grid)
    assert got == f"EvaluationOutsideSupport: grid point {x} is outside the system domain"


# ---------------------------------------------------------------------------
# convexity_identity_check

def targets(system, exact: bool, pts) -> list:
    n = system.dim
    coef = Fraction(3, 2) if exact else 1.5
    out = [PowerFn(n), PowerFn(n + 1), affine((coef, PowerFn(n + 2)), (-1, PowerFn(1))),
           system.basis[-1], SampledFn(tuple(pts), tuple(coef * x * x for x in pts))]
    if not exact:
        out.append(ExpFn())
    return out


@pytest.mark.parametrize("system, exact", CASES)
def test_convexity_identity_matches_oracle(system, exact):
    rng = random.Random(system.dim * 2 + exact)
    n = system.dim
    for k in range(1, n):
        for _ in range(2):
            # shuffled pairwise-distinct points, as the convexity-det suite makes them
            pts = trig_points(rng, n + 1) if system is TRIG else points(rng, n + 1, exact)
            for f in targets(system, exact, pts):
                same(convexity_identity_check, convexity_identity_loop, system, k, f, pts)


@pytest.mark.parametrize("pts, pair", [((2.0, 0.0, 1.0 + 1e-10, 3.0, 1.0), (2, 4)),
                                       ((3.0, 1.0, 0.0, 2.0, 2.0 - 1e-10), (3, 4))])
def test_convexity_identity_close_pair_unsorted(pts, pair):
    """Unsorted points with one pair closer than the minimum gap: the
    oracle's OrderingViolation, naming the pair in the order given."""
    for k in (1, 2, 3):
        got = same(convexity_identity_check, convexity_identity_loop, polynomial_system(4), k,
                   PowerFn(5), pts)
        assert got == "OrderingViolation: |points[{}] - points[{}]| < min gap 1e-09".format(*pair)


def test_convexity_identity_errors():
    exact = [Fraction(-2), Fraction(2), Fraction(3)]
    outcomes = [
        # a vanishing (k+1)-minor, exact and float
        same(convexity_identity_check, convexity_identity_loop, ONE_XSQ, 1, PowerFn(3), exact),
        same(convexity_identity_check, convexity_identity_loop, ONE_XSQ, 1, PowerFn(3),
             [-2.0, 2.0, 3.0]),
        # a float pair closer than the minimum gap
        same(convexity_identity_check, convexity_identity_loop, polynomial_system(3), 2,
             PowerFn(4), [0.0, 1.0, 2.0, 1.0 + 1e-10]),
        # a sampled f missing a value
        same(convexity_identity_check, convexity_identity_loop, polynomial_system(2), 1,
             SampledFn((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
             [Fraction(1), Fraction(0), Fraction(5)]),
        # a head point, then an appended point, outside the domain
        same(convexity_identity_check, convexity_identity_loop, TRIG, 1, ExpFn(),
             [0.5, -1.0, -2.0, -2.5]),
        same(convexity_identity_check, convexity_identity_loop, TRIG, 2, ExpFn(),
             [-1.0, -2.0, 0.5, -2.5]),
        # a non-finite cell
        same(convexity_identity_check, convexity_identity_loop, polynomial_system(2), 1,
             affine((1e308, PowerFn(3))), [1.0, 2.0, 3.0]),
    ]
    assert all(isinstance(r, str) for r in outcomes)
    assert outcomes[0] == ("SingularDenominator: (k+1)-prefix determinant vanishes at "
                           "(Fraction(-2, 1), Fraction(2, 1))")
    assert outcomes[1] == "SingularDenominator: (k+1)-prefix determinant within tolerance " \
                          "at (-2.0, 2.0)"


# ---------------------------------------------------------------------------
# one factorization behind both checks

@pytest.mark.parametrize("exact", [True, False])
def test_identity_checks_are_one_factorization(exact):
    """convexity_identity_check at head + tail is verify_induced_system of
    the system extended by f, pinned at head, on the grid tail: the same
    identity at the same points, equal by repr, or SingularDenominator
    from both."""
    rng = random.Random(17 + exact)
    equal = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        system, f = polynomial_system(n), PowerFn(rng.randint(0, n + 2))
        # up to 256 wide, where the float tolerance, which ignores scale,
        # calls some denominators singular
        pts = tuple(sorted(points(rng, n + 1, exact, -2 ** rng.randint(0, 8),
                                  2 ** rng.randint(0, 8))))
        head, tail = pts[:k], pts[k:]
        got = result(convexity_identity_check, system, k, f, head + tail)
        induced = result(verify_induced_system, system.with_appended(f), k, head, tail)
        if isinstance(got, str) or isinstance(induced, str):
            assert got.startswith("SingularDenominator: ")
            assert induced.startswith("SingularDenominator: ")
        else:
            assert repr(got) == repr(induced.worst)
            equal += 1
    assert equal >= 80


# ---------------------------------------------------------------------------
# the suites

def draws(monkeypatch, module, name: str, made) -> list:
    """Replace ``module.name`` by a spy that records ``made`` of each of
    its results (a new list, made when the result is returned), in call
    order; returns the record."""
    seen, fn = [], getattr(module, name)

    def spy(*args):
        out = fn(*args)
        seen.append(made(out))
        return out

    monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
@pytest.mark.parametrize("suite", IDENTITY_SUITES)
def test_suites_match_oracle(suite, backend, monkeypatch):
    """The same reports, and every trial draws the same points, in the
    same order, made float on the float backend: an exact identity holds
    with residual 0 whatever its points, so its report cannot show
    them."""
    convert = float if backend is Backend.FLOAT else Fraction
    got_points = draws(monkeypatch, identities, "_rand_points", list)
    want_points = draws(monkeypatch, oracles, "_rand_distinct_fractions",
                        lambda pts: [convert(p) for p in pts])
    for seed in range(21):
        want = result(identity_suite_loop, suite, 4, seed, backend)
        got = result(run_suite, suite, 4, seed, backend)
        assert repr(_jsonify(got) if isinstance(got, dict) else got) == repr(want)
    assert repr(got_points) == repr(want_points)


def test_suite_errors():
    for trials in (0, -1):
        same(run_suite, identity_suite_loop, "sylvester", trials, 0, Backend.EXACT)
    same(run_suite, identity_suite_loop, "bogus", 3, 0, Backend.EXACT)
