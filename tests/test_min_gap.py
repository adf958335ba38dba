"""The one float gap rule, ``DEFAULT_MIN_GAP``, at its boundary in
every divided-difference and variation entry point: float points
exactly DEFAULT_MIN_GAP apart pass, points 0.9 * DEFAULT_MIN_GAP apart
raise OrderingViolation naming the gap, and exact points 1e-12 apart
pass.  (The convexity modes' gap is checked in test_convexity.py,
test_pinned.py and test_cli.py.)"""

from fractions import Fraction

import pytest

from chebconvex.core import (
    DEFAULT_MIN_GAP,
    ChebyshevSystem,
    ConstFn,
    Interval,
    PowerFn,
)
from chebconvex.divdiff import (
    classical_divided_difference,
    divided_difference,
    power_divdiff_check,
)
from chebconvex.errors import AnchorInfeasible, OrderingViolation
from chebconvex.systems import polynomial_system
from chebconvex.variation import (
    RefinementStrategy,
    check_variation_bound,
    default_anchors,
    estimate_variation,
    variation_bound,
)

LINE = polynomial_system(2)

#: Each entry point, called with points ``gap`` apart: 0 * gap is the
#: zero of gap's backend, so every point has that backend.
ENTRY_POINTS = {
    "divided_difference": lambda gap: divided_difference(LINE, 2, PowerFn(2), (0 * gap, gap)),
    "classical_divided_difference":
        lambda gap: classical_divided_difference(PowerFn(2), (0 * gap, gap)),
    "power_divdiff_check": lambda gap: power_divdiff_check(2, (0 * gap, gap)),
    # the uniform partition of [0, 2 gap] into 2 intervals: 0, gap, 2 gap
    "estimate_variation": lambda gap: estimate_variation(
        LINE, PowerFn(2), 0 * gap, 2 * gap,
        RefinementStrategy(initial_intervals=2, rounds=1, perturb_rounds=0)),
    "variation_bound": lambda gap: variation_bound(
        LINE, PowerFn(2), ConstFn(0), (0 * gap, gap), (1 + 0 * gap, 2 + 0 * gap)),
    "check_variation_bound": lambda gap: check_variation_bound(
        LINE, PowerFn(2), ConstFn(0), gap, 1 + 0 * gap, a_anchors=(0 * gap, gap),
        b_anchors=(1 + 0 * gap, 2 + 0 * gap), strategy=RefinementStrategy(rounds=1)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_float_points_the_min_gap_apart_pass(entry):
    assert ENTRY_POINTS[entry](DEFAULT_MIN_GAP) is not None


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_float_points_closer_than_the_min_gap_raise(entry):
    with pytest.raises(OrderingViolation, match=r"< min gap 1e-09$"):
        ENTRY_POINTS[entry](0.9 * DEFAULT_MIN_GAP)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_exact_points_need_no_gap(entry):
    assert ENTRY_POINTS[entry](Fraction(1, 10 ** 12)) is not None


def test_default_anchor_spacing_at_the_min_gap():
    """default_anchors spaces n anchors by the margin to the domain over
    n; a float spacing below the gap cannot be placed."""
    system = ChebyshevSystem(LINE.basis, Interval(lo=0))
    assert default_anchors(system, 2 * DEFAULT_MIN_GAP, 1.0)[0] == \
        (DEFAULT_MIN_GAP, 2 * DEFAULT_MIN_GAP)
    with pytest.raises(AnchorInfeasible, match=r"below the minimum gap 1e-09$"):
        default_anchors(system, 2 * 0.9 * DEFAULT_MIN_GAP, 1.0)
    assert default_anchors(system, Fraction(2, 10 ** 12), Fraction(1))[0] == \
        (Fraction(1, 10 ** 12), Fraction(2, 10 ** 12))
