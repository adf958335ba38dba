"""``collocation_matrix`` and ``collocation_det``, which read a point
table, checked against their per-value bodies in ``oracles.py``
(``evaluate`` per entry, then ``det`` of the matrix): on seeded
polynomial, trigonometric and affine systems at exact, int, float and
mixed points, and on empty and mismatched input.  Values must be equal
and of the same type, floats bit for bit (compared by repr), and an
error must be the same error with the same message."""

import math
import random
from fractions import Fraction

import pytest

from chebconvex.core import (
    ChebyshevSystem,
    ConstFn,
    ExpFn,
    FiniteSet,
    Interval,
    PowerFn,
    SampledFn,
    affine,
)
from chebconvex.determinant import collocation_det, collocation_matrix
from chebconvex.errors import InputError
from chebconvex.systems import polynomial_system, trig_odd_system

from oracles import collocation_det_per_value, collocation_matrix_per_value


def outcome(fn, *args) -> tuple:
    """("value", repr of what ``fn(*args)`` returns), or ("error",
    "Class: message") for the error it raises."""
    try:
        return "value", repr(fn(*args))
    except (InputError, ArithmeticError) as exc:
        return "error", f"{type(exc).__name__}: {exc}"


SAMPLED = SampledFn((Fraction(-1, 2), 0, Fraction(1, 3), 2), (1, Fraction(-2, 3), 5, 0))

SYSTEMS = [
    polynomial_system(5),
    trig_odd_system(2, -math.pi, 0.0),
    # exact coefficients, so past its first function only exact and int points
    # give values, and the exp row clashes with them
    ChebyshevSystem((ConstFn(3), affine((2, PowerFn(1)), (Fraction(1, 3), PowerFn(3))),
                     affine((-1, PowerFn(2)), (1, affine((Fraction(5, 2), PowerFn(0))))),
                     ExpFn()), Interval()),
    # a sampled basis function lives on a finite set of its points
    ChebyshevSystem((PowerFn(0), SAMPLED, PowerFn(2)), FiniteSet(SAMPLED.points[:3])),
]


def points(rng: random.Random, kind: str, count: int) -> tuple:
    """``count`` seeded points in [-3, 1]: Fractions, ints, floats, or a
    mix of all three; repeats possible."""
    def one(kind):
        if kind == "exact":
            return Fraction(rng.randint(-24, 8), rng.randint(1, 8))
        if kind == "int":
            return rng.randint(-3, 1)
        if kind == "float":
            return rng.randint(-24, 8) / rng.choice((1, 4, 8, 10))
        return one(rng.choice(("exact", "int", "float")))
    return tuple(one(kind) for _ in range(count))


@pytest.mark.parametrize("kind", ["exact", "int", "float", "mixed"])
@pytest.mark.parametrize("system", SYSTEMS)
def test_collocation_matches_per_value_route(system, kind):
    """Mostly k points for the k-prefix, sometimes another count; the
    sampled system's points are mostly off its table and its domain."""
    rng = random.Random(f"{system.dim}:{kind}")
    seen = set()
    for _ in range(60):
        k = rng.randint(1, system.dim)
        pts = points(rng, kind, k if rng.random() < 0.9 else rng.randint(0, system.dim))
        if isinstance(system.domain, FiniteSet) and rng.random() < 0.5:
            pts = tuple(rng.choice(SAMPLED.points[:3]) for _ in pts)
        got = outcome(collocation_det, system, k, pts)
        assert got == outcome(collocation_det_per_value, system, k, pts), (k, pts)
        fns = system.basis[:k]
        assert outcome(collocation_matrix, fns, pts) == \
            outcome(collocation_matrix_per_value, fns, pts), (k, pts)
        seen.add(got[0])
    assert "value" in seen


@pytest.mark.parametrize("fns, pts", [
    ((), ()),
    ((PowerFn(0),), ()),
    ((), (1,)),
    ((PowerFn(0), PowerFn(1)), (1, 2, 3)),
    ((PowerFn(0), SAMPLED), (0, 1)),                      # sampled, off its table
    ((SAMPLED, PowerFn(1)), (Fraction(1, 3), 0.5)),       # off its table at a float
    ((SAMPLED, PowerFn(1)), (Fraction(1, 3), 2)),
    ((ConstFn(Fraction(1, 2)), ExpFn()), (1, 2)),         # exact constant, float-only function
    ((PowerFn(0), PowerFn(1)), (Fraction(1, 2), 0.5)),    # exact and float points
    ((PowerFn(0), PowerFn(3)), (1.0, 1e200)),             # overflow
])
def test_matrix_edge_inputs_match_per_value_route(fns, pts):
    assert outcome(collocation_matrix, fns, pts) == \
        outcome(collocation_matrix_per_value, fns, pts)


@pytest.mark.parametrize("k, pts", [(0, ()), (1, ()), (2, ()), (2, (1,)), (2, (1, 2, 3)),
                                    (3, (1, 2, 3)), (2, (Fraction(1, 2), 0.5)),
                                    (2, (1.0, 1e200))])
def test_det_edge_inputs_match_per_value_route(k, pts):
    system = ChebyshevSystem((PowerFn(0), PowerFn(3)), Interval())
    assert outcome(collocation_det, system, k, pts) == \
        outcome(collocation_det_per_value, system, k, pts)


@pytest.mark.parametrize("fns, pts, message", [
    ((PowerFn(0), PowerFn(1)), (0, [1]), "BackendMismatch: not a scalar: [1]"),
    ((PowerFn(0), PowerFn(1)), (None, 1), "BackendMismatch: not a scalar: None"),
    ((PowerFn(0), PowerFn(1)), (Fraction(1, 2), "a"), "BackendMismatch: not a scalar: 'a'"),
    ((PowerFn(0), PowerFn(1)), (True, 2.0), "BackendMismatch: bool is not a scalar: True"),
    # the function that fails at an earlier point raises first
    ((SampledFn((1, 2), (3, 4)), PowerFn(0)), (3, True),
     "EvaluationOutsideSupport: sampled function has no value at 3"),
])
def test_non_scalar_points_raise_as_per_value_route(fns, pts, message):
    """Points are read by position, with no hash: a point that is no
    scalar raises where the per-value route first evaluates at it."""
    want = outcome(collocation_matrix_per_value, fns, pts)
    assert want == ("error", message)
    assert outcome(collocation_matrix, fns, pts) == want
    if all(type(f) is PowerFn for f in fns):
        system = ChebyshevSystem(fns, Interval())
        assert outcome(collocation_det, system, 2, pts) == \
            outcome(collocation_det_per_value, system, 2, pts) == want
