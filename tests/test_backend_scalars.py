"""Evenly spaced points made from one map of backend to scalar type
(``core._BACKEND_TYPES``) against the explicit exact and float formulas
in ``oracles.py``: the CLI's uniform grid, the uniform partitions of the
variation estimate and the default anchors must be the same Fractions
and the same float bits (compared by repr), or raise the same error.
So must the nested partitions of the estimate, each taking the points
of the one before, and its jittered partitions."""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from chebconvex.cli import _parse_grid
from chebconvex.core import (
    Backend,
    ChebyshevSystem,
    Interval,
    OrderingClass,
    PowerFn,
    validate_tuple,
)
from chebconvex.errors import InputError
from chebconvex.variation import _jitter_partition, _uniform_partition, default_anchors

from oracles import (
    default_anchors_formula,
    jittered_points,
    uniform_grid,
    uniform_partition_points,
)

BACKENDS = st.sampled_from([Backend.EXACT, Backend.FLOAT])

#: Dyadic and non-dyadic rationals: a float formula rounds differently
#: from a reordered one mostly at non-dyadic points.
DENOMINATORS = st.sampled_from([1, 2, 8, 1024, 3, 7, 10, 12, 1000])
RATIONALS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), DENOMINATORS)
#: Near ones, so that margins to the domain boundary fall below 1/10 * n.
NEAR = st.builds(Fraction, st.integers(-60, 60), DENOMINATORS)


def scalar(value: Fraction, backend: Backend):
    return value if backend is Backend.EXACT else float(value)


def outcome(fn, *args) -> str:
    """repr of what ``fn`` returns, or its error as "Class: message"."""
    try:
        return repr(fn(*args))
    except InputError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(BACKENDS, RATIONALS, RATIONALS, st.integers(2, 200))
def test_uniform_grid_matches_formula(backend, a, b, m):
    assume(a < b)
    a, b = scalar(a, backend), scalar(b, backend)
    text = f"uniform:{a!s},{b!s},{m}" if backend is Backend.EXACT else f"uniform:{a!r},{b!r},{m}"
    assert repr(tuple(_parse_grid(text, backend))) == repr(uniform_grid(a, b, m, backend))


@settings(max_examples=300, deadline=None)
@given(BACKENDS, RATIONALS, RATIONALS, st.integers(1, 200))
def test_uniform_partition_matches_formula(backend, a, b, m):
    assume(a < b)
    a, b = scalar(a, backend), scalar(b, backend)
    assert outcome(lambda: increasing(tuple(_uniform_partition(a, b, m, backend)))) == outcome(
        lambda: validate_tuple(uniform_partition_points(a, b, m, backend),
                               OrderingClass.STRICTLY_INCREASING).points)


@settings(max_examples=300, deadline=None)
@given(BACKENDS, st.lists(NEAR, min_size=4, max_size=4, unique=True),
       st.booleans(), st.booleans(), st.integers(1, 5))
def test_default_anchors_match_formula(backend, values, bounded_below, bounded_above, n):
    lo, a, b, hi = (scalar(v, backend) for v in sorted(values))
    domain = Interval(lo if bounded_below else None, hi if bounded_above else None)
    system = ChebyshevSystem(tuple(PowerFn(i) for i in range(n)), domain)
    assert outcome(default_anchors, system, a, b) == \
        outcome(default_anchors_formula, system, a, b)


def increasing(points) -> tuple:
    return validate_tuple(points, OrderingClass.STRICTLY_INCREASING).points


@settings(max_examples=300, deadline=None)
@given(BACKENDS, RATIONALS, RATIONALS, st.integers(1, 32), st.integers(1, 4))
def test_nested_partitions_match_formula(backend, a, b, m0, rounds):
    assume(a < b and m0 << (rounds - 1) <= 256)
    a, b = scalar(a, backend), scalar(b, backend)

    def nested():
        """Round r reads every 2**(rounds-1-r)-th point of the finest partition."""
        finest = _uniform_partition(a, b, m0 << (rounds - 1), backend)
        return [increasing(tuple(finest[j] for j in range(0, len(finest), 1 << (rounds - 1 - r))))
                for r in range(rounds)]
    assert outcome(nested) == outcome(
        lambda: [increasing(uniform_partition_points(a, b, m0 << r, backend))
                 for r in range(rounds)])


@settings(max_examples=300, deadline=None)
@given(BACKENDS, RATIONALS, RATIONALS, st.integers(1, 256), st.integers(0, 2 ** 32))
def test_jittered_partition_matches_formula(backend, a, b, m, seed):
    assume(a < b)
    a, b = scalar(a, backend), scalar(b, backend)
    base = _uniform_partition(a, b, m, backend)
    assert outcome(lambda: tuple(_jitter_partition(base, random.Random(seed), backend))) \
        == outcome(lambda: increasing(jittered_points(tuple(base), random.Random(seed),
                                                      backend)))
