"""A point table's matrices and determinants (``_PointTable.columns``
and ``_PointTable.det``, which every collocation determinant reads),
checked against the per-value routes in ``oracles.py`` (``evaluate``
per entry, then ``det`` of the matrix): on seeded polynomial,
trigonometric and affine systems at exact, int, float and mixed points,
and on empty input.  The points are one grid, read at one backend, so
the per-value route takes them at their twin: the ints of a grid read
at float as floats.  Values must be equal and of the same type, floats
bit for bit (compared by repr), and an error must be the same error
with the same message.  A count of points other than the count of
functions, or a point outside the domain, is refused by the per-value
route's own checks; a table's callers check both before they read it."""

import math
import random
from fractions import Fraction

import pytest

from chebconvex.core import (
    Backend,
    ChebyshevSystem,
    ConstFn,
    ExpFn,
    FiniteSet,
    Interval,
    PointTuple,
    PowerFn,
    SampledFn,
    affine,
)
from chebconvex.determinant import _PointTable
from chebconvex.errors import InputError
from chebconvex.systems import polynomial_system, trig_odd_system

from oracles import (collocation_det_per_value, collocation_matrix_per_value,
                     column_values)


def outcome(fn, *args) -> tuple:
    """("value", repr of what ``fn(*args)`` returns), or ("error",
    "Class: message") for the error it raises."""
    try:
        return "value", repr(fn(*args))
    except (InputError, ArithmeticError) as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def table_matrix(fns, pts):
    """The rows of the matrix of a point table's columns of ``fns`` at
    ``pts``."""
    table = _PointTable(tuple(fns), PointTuple(pts))
    columns = table.columns(tuple(range(len(fns))), range(len(pts)))
    return [list(row) for row in zip(*map(column_values, columns))]


def table_det(fns, pts):
    """A point table's det of ``fns`` at ``pts``."""
    return _PointTable(tuple(fns), PointTuple(pts)).det(tuple(range(len(fns))), range(len(pts)))


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


#: the outcomes of the per-value route's checks of its count of points and
#: of the domain, which a table's callers make before they read it
CHECKS = ("DimensionMismatch", "EvaluationOutsideSupport: point ")

MIXED = ("BackendMismatch: exact and float scalars mixed in one computation; "
         "convert explicitly with to_exact()/to_float()")


def reference(oracle, fns, *args) -> tuple:
    """The outcome of the per-value route ``oracle(*args)``, whose last
    argument is the points and whose functions are ``fns``, as a point
    table gives it: the count and domain errors at the points as given,
    which come before the points are read; else BackendMismatch for
    Fractions next to floats; else the outcome at the points' twin, the
    ints as floats in a grid with a float, or in an all-int grid where a
    function requires float."""
    *head, pts = args
    want = outcome(oracle, *args)
    if want[1].startswith(CHECKS):
        return want
    floats = any(isinstance(x, float) for x in pts)
    if floats and any(isinstance(x, Fraction) for x in pts):
        return "error", MIXED
    if floats or (all(type(x) is int for x in pts)
                  and any(f.required_backend() is Backend.FLOAT for f in fns)):
        return outcome(oracle, *head, tuple(float(x) if type(x) is int else x for x in pts))
    return want


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
        fns = system.basis[:k]
        if len(pts) == k:
            assert outcome(table_matrix, fns, pts) == \
                reference(collocation_matrix_per_value, fns, fns, pts), (k, pts)
        want = reference(collocation_det_per_value, fns, system, k, pts)
        if len(pts) != k or not all(map(system.domain.contains, pts)):
            assert want[1].startswith(CHECKS), (k, pts)
            continue
        got = outcome(table_det, fns, pts)
        assert got == want, (k, pts)
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
    want = outcome(collocation_matrix_per_value, fns, pts)
    if len(pts) != len(fns):
        assert want[1].startswith("DimensionMismatch")
    else:
        assert outcome(table_matrix, fns, pts) == want


@pytest.mark.parametrize("k, pts", [(0, ()), (1, ()), (2, ()), (2, (1,)), (2, (1, 2, 3)),
                                    (3, (1, 2, 3)), (2, (Fraction(1, 2), 0.5)),
                                    (2, (1.0, 1e200))])
def test_det_edge_inputs_match_per_value_route(k, pts):
    system = ChebyshevSystem((PowerFn(0), PowerFn(3)), Interval())
    want = outcome(collocation_det_per_value, system, k, pts)
    if len(pts) != k or not 1 <= k <= system.dim:
        assert want[1].startswith("DimensionMismatch")
    else:
        assert outcome(table_det, system.basis[:k], pts) == want


@pytest.mark.parametrize("fns, pts, message", [
    ((PowerFn(0), PowerFn(1)), (0, [1]), "BackendMismatch: not a scalar: [1]"),
    ((PowerFn(0), PowerFn(1)), (None, 1), "BackendMismatch: not a scalar: None"),
    ((PowerFn(0), PowerFn(1)), (Fraction(1, 2), "a"), "BackendMismatch: not a scalar: 'a'"),
    ((PowerFn(0), PowerFn(1)), (True, 2.0), "BackendMismatch: bool is not a scalar: True"),
])
def test_non_scalar_points_raise_as_per_value_route(fns, pts, message):
    """Points are read by position, with no hash: a point that is no
    scalar raises as the per-value route raises at it, but when the
    grid is made, before any value (see test_grid_backend)."""
    want = outcome(collocation_matrix_per_value, fns, pts)
    assert want == ("error", message)
    assert outcome(table_matrix, fns, pts) == want
    if all(type(f) is PowerFn for f in fns):
        system = ChebyshevSystem(fns, Interval())
        assert outcome(table_det, fns, pts) == \
            outcome(collocation_det_per_value, system, 2, pts) == want
