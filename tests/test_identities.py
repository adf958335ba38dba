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
# the suites

@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
@pytest.mark.parametrize("suite", IDENTITY_SUITES)
def test_suites_match_oracle(suite, backend):
    for seed in range(21):
        want = result(identity_suite_loop, suite, 4, seed, backend)
        got = result(run_suite, suite, 4, seed, backend)
        assert repr(_jsonify(got) if isinstance(got, dict) else got) == repr(want)


def test_suite_errors():
    for trials in (0, -1):
        same(run_suite, identity_suite_loop, "sylvester", trials, 0, Backend.EXACT)
    same(run_suite, identity_suite_loop, "bogus", 3, 0, Backend.EXACT)
