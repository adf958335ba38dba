import math
import random
from fractions import Fraction

import pytest

from chebconvex.core import (
    ConstFn,
    ExpFn,
    Interval,
    OrderingClass,
    PowerFn,
    SampledFn,
    affine,
    validate_tuple,
)
from chebconvex.divdiff import divided_difference
from chebconvex.errors import (
    AnchorInfeasible,
    BoundViolated,
    DimensionMismatch,
    InputError,
    NonFiniteValue,
    OrderingViolation,
)
from chebconvex.systems import polynomial_system, trig_odd_system
from chebconvex.variation import (
    Partition,
    RefinementStrategy,
    check_variation_bound,
    default_anchors,
    estimate_variation,
    variation_bound,
    variation_sum,
)


def uniform_partition(m):
    return Partition(validate_tuple([Fraction(i, m) for i in range(m + 1)],
                                    OrderingClass.STRICTLY_INCREASING))


SLOPE_SYSTEM = polynomial_system(2)


class TestVariationSum:
    def test_square_on_uniform_partition(self):
        assert variation_sum(SLOPE_SYSTEM, PowerFn(2), uniform_partition(10)) \
            == Fraction(9, 5)

    def test_last_basis_function_vanishes(self):
        assert variation_sum(SLOPE_SYSTEM, PowerFn(1), uniform_partition(8)) == 0

    def test_affine_basis_combination_vanishes(self):
        f = affine((Fraction(4), PowerFn(0)), (Fraction(-7, 2), PowerFn(1)))
        assert variation_sum(SLOPE_SYSTEM, f, uniform_partition(8)) == 0

    def test_too_few_intervals(self):
        part = Partition(validate_tuple([0, 1, 2], OrderingClass.STRICTLY_INCREASING))
        with pytest.raises(DimensionMismatch):
            variation_sum(polynomial_system(3), PowerFn(3), part)

    def test_telescoping_exactness_for_convex_function(self):
        # For a convex f every window difference is nonnegative, so the
        # sum collapses to last window value minus first window value.
        for m in (5, 9, 16):
            part = uniform_partition(m)
            got = variation_sum(SLOPE_SYSTEM, PowerFn(2), part)
            pts = part.points.points
            n = SLOPE_SYSTEM.dim
            first = divided_difference(SLOPE_SYSTEM, n, PowerFn(2), pts[:n]).value
            last = divided_difference(SLOPE_SYSTEM, n, PowerFn(2), pts[-n:]).value
            assert got == last - first

    def test_overflowing_sum_is_non_finite(self):
        # every window value is finite (-1.5e308, then 1.5e308); their
        # difference is not
        f = affine((1.5e308, PowerFn(2)))
        part = Partition(validate_tuple([-1.0, 0.0, 1.0], OrderingClass.STRICTLY_INCREASING))
        with pytest.raises(NonFiniteValue, match="partition sum over 2 intervals"):
            variation_sum(SLOPE_SYSTEM, f, part)

    def test_invariant_under_adding_basis_combination(self):
        rng = random.Random(61)
        f = PowerFn(3)
        shift = affine((Fraction(1), f),
                       (Fraction(rng.randint(-9, 9)), PowerFn(0)),
                       (Fraction(rng.randint(-9, 9)), PowerFn(1)))
        for m in (4, 7):
            part = uniform_partition(m)
            assert variation_sum(SLOPE_SYSTEM, f, part) \
                == variation_sum(SLOPE_SYSTEM, shift, part)


class TestEstimate:
    def test_refinement_sums_for_square(self):
        strategy = RefinementStrategy(initial_intervals=10, rounds=3,
                                      perturb_rounds=0)
        est = estimate_variation(SLOPE_SYSTEM, PowerFn(2), Fraction(0), Fraction(1),
                                 strategy)
        assert est.partial_sums == ((10, Fraction(9, 5)),
                                    (20, Fraction(19, 10)),
                                    (40, Fraction(39, 20)))
        assert est.best == Fraction(39, 20)
        assert not est.converged

    def test_best_is_running_max(self):
        strategy = RefinementStrategy(initial_intervals=8, rounds=3,
                                      perturb_rounds=3, seed=5)
        est = estimate_variation(SLOPE_SYSTEM, PowerFn(2), Fraction(0), Fraction(1),
                                 strategy)
        assert est.best == max(v for _, v in est.partial_sums)
        running = []
        best = None
        for _, v in est.partial_sums:
            best = v if best is None or v > best else best
            running.append(best)
        assert running == sorted(running)

    def test_converges_for_basis_function(self):
        strategy = RefinementStrategy(initial_intervals=4, rounds=3,
                                      perturb_rounds=0)
        est = estimate_variation(SLOPE_SYSTEM, PowerFn(1), Fraction(0), Fraction(1),
                                 strategy)
        assert est.best == 0 and est.converged

    def test_float_backend(self):
        strategy = RefinementStrategy(initial_intervals=8, rounds=2,
                                      perturb_rounds=1, seed=3)
        est = estimate_variation(SLOPE_SYSTEM, ExpFn(), 0.0, 1.0, strategy)
        # variation of exp' on [0,1] is e - 1
        assert est.best <= math.e - 1.0 + 1e-9
        assert est.best > 1.5

    def test_sampled_jump_has_growing_finite_sums(self):
        # a jump makes the slope variation diverge under refinement:
        # every finite partition still sums to a finite value, but the
        # convergence flag must stay off
        table = tuple(Fraction(i, 32) for i in range(33))
        values = tuple(Fraction(0) if x < Fraction(1, 2) else Fraction(1)
                       for x in table)
        f = SampledFn(table, values)
        strategy = RefinementStrategy(initial_intervals=8, rounds=3,
                                      perturb_rounds=0)
        est = estimate_variation(SLOPE_SYSTEM, f, Fraction(0), Fraction(1),
                                 strategy)
        sums = [v for _, v in est.partial_sums]
        assert sums == [16, 32, 64]
        assert not est.converged

    def test_requires_interval_domain(self):
        from chebconvex.core import FiniteSet, ChebyshevSystem
        system = ChebyshevSystem((PowerFn(0), PowerFn(1)), FiniteSet((0, 1, 2)))
        with pytest.raises(InputError):
            estimate_variation(system, PowerFn(2), 0, 2)

    def test_endpoints_checked(self):
        with pytest.raises(InputError):
            estimate_variation(SLOPE_SYSTEM, PowerFn(2), 1, 0)

    def test_negative_perturb_rounds_rejected(self):
        with pytest.raises(InputError, match="perturb_rounds"):
            RefinementStrategy(perturb_rounds=-1)


class TestBound:
    def test_square_bound_example(self):
        bound = variation_bound(SLOPE_SYSTEM, PowerFn(2), ConstFn(0),
                                (Fraction(-1, 2), Fraction(0)),
                                (Fraction(1), Fraction(3, 2)))
        assert bound == 3

    def test_zero_functions(self):
        bound = variation_bound(SLOPE_SYSTEM, ConstFn(0), ConstFn(0),
                                (-1, 0), (1, 2))
        assert bound == 0
        est = estimate_variation(SLOPE_SYSTEM, ConstFn(0), Fraction(0), Fraction(1))
        assert est.best == 0

    def test_last_basis_function_bound_zero(self):
        bound = variation_bound(SLOPE_SYSTEM, PowerFn(1), ConstFn(0),
                                (-1, 0), (1, 2))
        assert bound == 0

    def test_overflowing_bound_is_non_finite(self):
        with pytest.raises(NonFiniteValue, match=r"variation bound at .* is inf"):
            variation_bound(SLOPE_SYSTEM, affine((1.5e308, PowerFn(2))), ConstFn(0),
                            (-1.0, 0.0), (0.25, 0.75))

    def test_anchor_alignment_enforced(self):
        with pytest.raises(OrderingViolation):
            variation_bound(SLOPE_SYSTEM, PowerFn(2), ConstFn(0),
                            (0, 2), (1, 3))  # overlapping anchor ranges
        with pytest.raises(DimensionMismatch):
            variation_bound(SLOPE_SYSTEM, PowerFn(2), ConstFn(0),
                            (0,), (1, 2))


class TestDefaultAnchors:
    def test_unbounded_domain_spacing(self):
        a_t, b_t = default_anchors(SLOPE_SYSTEM, Fraction(0), Fraction(1))
        assert a_t == (Fraction(-1, 10), Fraction(0))
        assert b_t == (Fraction(1), Fraction(11, 10))

    def test_bounded_domain_margin(self):
        trig = trig_odd_system(1, -math.pi, 0.0)
        a_t, b_t = default_anchors(trig, -3.0, -0.5)
        assert len(a_t) == 3 and len(b_t) == 3
        assert a_t[-1] == -3.0 and b_t[0] == -0.5
        assert all(-math.pi < x < 0 for x in a_t + b_t)

    def test_infeasible_at_closed_boundary(self):
        from chebconvex.core import ChebyshevSystem
        system = ChebyshevSystem((PowerFn(0), PowerFn(1)),
                                 Interval(0, 10, lo_open=False))
        with pytest.raises(AnchorInfeasible):
            default_anchors(system, 0, 1)


class TestCheckBound:
    def test_square_and_cube_decomposition(self):
        report = check_variation_bound(
            SLOPE_SYSTEM, PowerFn(2), PowerFn(3), Fraction(0), Fraction(1),
            a_anchors=(Fraction(-1, 2), Fraction(0)),
            b_anchors=(Fraction(1), Fraction(3, 2)),
            strategy=RefinementStrategy(initial_intervals=8, rounds=2,
                                        perturb_rounds=1, seed=7))
        assert report.margin >= 0
        assert report.estimate.bound == report.bound

    def test_pure_convex_component(self):
        report = check_variation_bound(
            SLOPE_SYSTEM, PowerFn(2), ConstFn(0), Fraction(0), Fraction(1),
            a_anchors=(Fraction(-1, 2), Fraction(0)),
            b_anchors=(Fraction(1), Fraction(3, 2)))
        assert report.bound == 3
        assert report.margin >= 0

    def test_default_anchors_used(self):
        report = check_variation_bound(SLOPE_SYSTEM, PowerFn(2), ConstFn(0),
                                       Fraction(0), Fraction(1))
        assert report.a_anchors[-1] == 0 and report.b_anchors[0] == 1
        assert report.margin >= 0

    def test_anchor_misalignment_rejected(self):
        with pytest.raises(OrderingViolation):
            check_variation_bound(SLOPE_SYSTEM, PowerFn(2), ConstFn(0),
                                  Fraction(0), Fraction(1),
                                  a_anchors=(Fraction(-1), Fraction(-1, 2)),
                                  b_anchors=(Fraction(1), Fraction(2)))

    def test_non_convex_component_violates(self):
        with pytest.raises(BoundViolated) as err:
            check_variation_bound(
                SLOPE_SYSTEM, affine((-1, PowerFn(2))), ConstFn(0),
                Fraction(0), Fraction(1),
                a_anchors=(Fraction(-1, 2), Fraction(0)),
                b_anchors=(Fraction(1), Fraction(3, 2)))
        cert = err.value
        assert cert.bound == -3
        assert cert.best > cert.bound
        assert cert.partition and cert.anchors

    def test_seeded_random_convex_pairs(self):
        rng = random.Random(62)
        strategy = RefinementStrategy(initial_intervals=4, rounds=2,
                                      perturb_rounds=1, seed=8)
        for _ in range(20):
            g = affine((Fraction(rng.randint(0, 5)), PowerFn(2)),
                       (Fraction(rng.randint(0, 3)), PowerFn(4)),
                       (Fraction(rng.randint(-5, 5)), PowerFn(1)))
            h = affine((Fraction(rng.randint(0, 5)), PowerFn(2)),
                       (Fraction(rng.randint(0, 3)), PowerFn(4)))
            report = check_variation_bound(SLOPE_SYSTEM, g, h,
                                           Fraction(0), Fraction(1),
                                           strategy=strategy)
            assert report.margin >= 0


class TestPartitionType:
    def test_needs_two_points(self):
        with pytest.raises(InputError):
            Partition(validate_tuple([1], OrderingClass.STRICTLY_INCREASING))

    def test_accepts_raw_sequences(self):
        p = Partition((0, 1, 2))
        assert p.a == 0 and p.b == 2 and p.intervals == 2

    def test_ordering_enforced(self):
        with pytest.raises(OrderingViolation):
            Partition((1, 0))
