import itertools
import math
import random
from fractions import Fraction

import pytest

from chebconvex.core import (
    ChebyshevSystem,
    ExpFn,
    OrderingClass,
    PowerFn,
    SampledFn,
    SinFn,
    affine,
    evaluate,
    puncture,
    validate_tuple,
)
from chebconvex.convexity import (
    check_convex_direct,
    check_convex_induced,
    check_convex_interval,
    convexity_identity_check,
    cross_mode_agreement,
)
from chebconvex.determinant import det, is_positive_chebyshev
from chebconvex.divdiff import divided_difference
from chebconvex.errors import DimensionMismatch, InputError, OrderingViolation
from chebconvex.induced import DerivedFn
from chebconvex.systems import polynomial_system, trig_odd_system

from oracles import (
    collocation_matrix_per_value,
    rand_distinct_fractions,
    rand_increasing_floats,
    trig_induced_closed_form,
)


GRID4 = [Fraction(i) for i in (0, 1, 2, 3)]
GRID6 = [Fraction(i) for i in (0, 1, 2, 3, 4, 5)]


def induced_basis(parent, k, base):
    """``base`` as a strictly increasing point tuple, and the basis of
    the system that pinning it induces, built directly."""
    base = validate_tuple(base, OrderingClass.STRICTLY_INCREASING)
    return base, tuple(DerivedFn(parent, k, base, g) for g in parent.basis[k:])


class TestDirect:
    def test_square_is_convex(self):
        verdict = check_convex_direct(polynomial_system(2), PowerFn(2), GRID4)
        assert verdict.verdict == "convex_on_sample"
        assert verdict.tuples_checked == 4  # C(4, 3)

    def test_negated_square_is_violated(self):
        verdict = check_convex_direct(polynomial_system(2),
                                      affine((-1, PowerFn(2))), GRID4)
        assert verdict.verdict == "violated"
        assert verdict.witness == (0, 1, 2)
        assert verdict.witness_value < 0

    def test_witness_replays(self):
        system = polynomial_system(2)
        f = affine((-1, PowerFn(2)))
        verdict = check_convex_direct(system, f, GRID4)
        value = det(collocation_matrix_per_value(system.basis + (f,), verdict.witness))
        assert value == verdict.witness_value < 0

    def test_exp_is_third_order_convex(self):
        grid = [0.25 * i for i in range(1, 9)]
        verdict = check_convex_direct(polynomial_system(3), ExpFn(), grid)
        assert verdict.verdict == "convex_on_sample"

    def test_boundary_zero_counts_as_convex_exact(self):
        # f equal to a basis function: determinant identically zero
        verdict = check_convex_direct(polynomial_system(2), PowerFn(1), GRID4)
        assert verdict.verdict == "convex_on_sample"

    def test_insufficient_grid(self):
        from chebconvex.errors import InsufficientGrid
        with pytest.raises(InsufficientGrid):
            check_convex_direct(polynomial_system(3), PowerFn(3), [0, 1, 2])

    def test_float_points_closer_than_min_gap(self):
        # as in the induced and interval modes; the gap is found between
        # neighbours of the sorted grid
        for grid, pair in (([0.0, 1e-10, 1.0, 2.0, 3.0, 4.0], (0, 1)),
                           ([4.0, 3.0, 2.0 + 1e-10, 2.0, 1.0, 0.0], (2, 3))):
            with pytest.raises(OrderingViolation) as err:
                check_convex_direct(polynomial_system(3), PowerFn(4), grid)
            assert (err.value.i, err.value.j) == pair
        exact = [Fraction(0), Fraction(1, 10 ** 12), Fraction(1), Fraction(2), Fraction(3)]
        assert check_convex_direct(polynomial_system(3), PowerFn(4), exact).is_convex


class TestInduced:
    def test_square_convex_via_slopes(self):
        verdict = check_convex_induced(polynomial_system(2), 1, PowerFn(2), GRID6)
        assert verdict.verdict == "convex_on_sample"
        assert verdict.bases_checked == 6

    def test_violation_found_via_slopes(self):
        verdict = check_convex_induced(polynomial_system(2), 1,
                                       affine((-1, PowerFn(2))), GRID6)
        assert verdict.verdict == "violated"
        assert verdict.witness_base is not None

    def test_slope_monotonicity_characterization(self):
        # k = n-1: derived function is the slope map; convexity of f is
        # its nondecreasingness.  Check the derived values directly.
        system = polynomial_system(2)
        base = (Fraction(2),)
        slope = DerivedFn(system, 1, induced_basis(system, 1, base)[0], PowerFn(2))
        values = [evaluate(slope, Fraction(x)) for x in (0, 1, 3, 4)]
        assert values == sorted(values)

    def test_budget_below_one_is_rejected(self):
        with pytest.raises(InputError, match="tuple budget must be >= 1"):
            check_convex_induced(polynomial_system(2), 1, PowerFn(2), GRID6, budget=0)
        with pytest.raises(InputError, match="tuple budget must be >= 1"):
            check_convex_induced(polynomial_system(2), 1, PowerFn(2), GRID6, base_budget=0)

    def test_k_range_checked(self):
        with pytest.raises(DimensionMismatch):
            check_convex_induced(polynomial_system(2), 2, PowerFn(2), GRID6)


class TestInterval:
    def test_subsample_of_induced_passes(self):
        for ell in (0, 1):
            verdict = check_convex_interval(polynomial_system(2), 1, ell,
                                            PowerFn(2), GRID6)
            assert verdict.verdict == "convex_on_sample"
            assert verdict.bases_skipped > 0  # extreme bases have empty side

    def test_violation_flagged_for_every_ell(self):
        f = affine((-1, PowerFn(2)))
        for ell in (0, 1):
            verdict = check_convex_interval(polynomial_system(2), 1, ell, f, GRID6)
            assert verdict.verdict == "violated"

    def test_vacuous_restriction_reports_indeterminate(self):
        # two grid points: no base leaves 2 points below it for ell=0
        verdict = check_convex_interval(polynomial_system(2), 1, 0,
                                        PowerFn(2), [0, 1])
        assert verdict.verdict == "indeterminate"
        assert verdict.bases_checked == 0
        assert verdict.bases_skipped == 2

    def test_ell_range_checked(self):
        with pytest.raises(InputError):
            check_convex_interval(polynomial_system(3), 1, 2, PowerFn(2), GRID6)


class TestIdentity:
    def test_last_basis_function_gives_zero_both_sides(self):
        system = polynomial_system(3)
        f = system.basis[-1]
        rep = convexity_identity_check(system, 1, f,
                                       tuple(Fraction(i) for i in (0, 1, 2, 3)))
        assert rep.lhs == 0 and rep.rhs == 0 and rep.residual == 0

    def test_poly_exact_zero_residual(self):
        rng = random.Random(51)
        for _ in range(50):
            n = rng.randint(2, 5)
            k = rng.randint(1, n - 1)
            pts = rand_distinct_fractions(rng, n + 1)
            f = affine((Fraction(rng.randint(-5, 5)), PowerFn(rng.randint(0, n + 1))),
                       (Fraction(rng.randint(-5, 5)), PowerFn(rng.randint(0, n + 1))))
            rep = convexity_identity_check(polynomial_system(n), k, f, pts)
            assert rep.residual == 0

    def test_top_prefix_collapses_to_slope_difference(self):
        rng = random.Random(52)
        for _ in range(25):
            n = rng.randint(2, 5)
            pts = rand_distinct_fractions(rng, n + 1)
            f = PowerFn(n + 1)
            system = polynomial_system(n)
            rep = convexity_identity_check(system, n - 1, f, pts)
            head = pts[:n - 1]
            hi = divided_difference(system, n, f, head + (pts[n],)).value
            lo = divided_difference(system, n, f, head + (pts[n - 1],)).value
            assert rep.rhs == hi - lo
            assert rep.residual == 0

    def test_trig_float_residual(self):
        rng = random.Random(53)
        trig = trig_odd_system(1, -math.pi, 0.0)
        for _ in range(25):
            pts = list(rand_increasing_floats(rng, 4, -math.pi + 0.05, -0.05, 0.05))
            rng.shuffle(pts)
            for k in (1, 2):
                rep = convexity_identity_check(trig, k, ExpFn(), tuple(pts))
                assert rep.relative_residual <= 1e-8

    def test_point_count_checked(self):
        with pytest.raises(DimensionMismatch):
            convexity_identity_check(polynomial_system(3), 1, PowerFn(1), (0, 1, 2))


class TestCrossMode:
    def test_leading_power_all_convex(self):
        rep = cross_mode_agreement(polynomial_system(3), PowerFn(3), GRID6)
        assert rep.agreed
        assert all(v.verdict == "convex_on_sample" for _, v in rep.verdicts
                   if v.bases_checked or v.mode == "direct")

    def test_negated_leading_power_no_definite_disagreement(self):
        rep = cross_mode_agreement(polynomial_system(3),
                                   affine((-1, PowerFn(3))), GRID6)
        assert rep.agreed
        assert dict(rep.verdicts)["direct"].verdict == "violated"

    def test_random_sampled_functions_agree(self):
        rng = random.Random(54)
        grid = [0.25 * i for i in range(8)]
        system = polynomial_system(3)
        for _ in range(8):
            values = tuple(rng.uniform(-2, 2) for _ in grid)
            f = SampledFn(tuple(grid), values)
            rep = cross_mode_agreement(system, f, grid)
            assert rep.agreed, rep.disagreements

    @pytest.mark.parametrize("k_list", [[9], [1, 0], [2, 1, 3]])
    def test_every_k_is_checked_before_the_grid_is_read(self, k_list):
        """A k outside 1..n-1 is the induced mode's DimensionMismatch,
        for the first such k, before the direct mode reads a grid point:
        this grid fails if it is read at all."""
        def unread():
            raise AssertionError("the grid was read")
            yield
        bad = next(k for k in k_list if not 1 <= k <= 2)
        with pytest.raises(DimensionMismatch, match=rf"^base size {bad} outside 1\.\.2$"):
            cross_mode_agreement(polynomial_system(3), PowerFn(3), unread(), k_list=k_list)


class TestPolynomialReduction:
    def test_induced_determinant_equals_plain_power_determinant(self):
        # For the polynomial parent the induced basis spans the same
        # space as (1, x, ..., x^(d-1)) via a unitriangular change of
        # basis, so the extended determinants agree exactly.
        rng = random.Random(57)
        for _ in range(10):
            n = rng.randint(3, 5)
            k = rng.randint(1, n - 2)
            d = n - k
            pts = rand_distinct_fractions(rng, k + d + 1)
            base = tuple(sorted(pts[:k]))
            rest = tuple(sorted(pts[k:]))
            f = PowerFn(n + 1)
            parent = polynomial_system(n)
            base, basis = induced_basis(parent, k, base)
            g = DerivedFn(parent, k, base, f)
            induced_det = det(collocation_matrix_per_value(basis + (g,), rest))
            plain = tuple(PowerFn(i) for i in range(d)) + (g,)
            plain_det = det(collocation_matrix_per_value(plain, rest))
            assert induced_det == plain_det


class TestTrigExample:
    def test_derived_function_is_cosine_slope(self):
        trig = trig_odd_system(1, -math.pi, 0.0)
        x1 = -1.9
        derived = DerivedFn(trig, 1, induced_basis(trig, 1, (x1,))[0], ExpFn())
        for x in (-2.8, -1.2, -0.4):
            want = (math.exp(x) - math.exp(x1)) / (math.cos(x) - math.cos(x1))
            assert evaluate(derived, x) == pytest.approx(want, rel=1e-12)

    def test_closed_form_system_gives_same_verdicts(self):
        # Convexity of the derived function with respect to the generic
        # induced pair and to its closed form (1, -cot((x1+.)/2)) must
        # coincide; so must the pinned check and the direct one.
        rng = random.Random(56)
        trig = trig_odd_system(1, -math.pi, 0.0)
        grid = (-2.9, -2.4, -1.9, -1.5, -1.1, -0.7, -0.3)
        for trial in range(6):
            if trial % 2 == 0:
                f = SampledFn(grid, tuple(rng.uniform(-1, 1) for _ in grid))
            else:
                f = affine((rng.uniform(-1, 1), ExpFn()),
                           (rng.uniform(-1, 1), SinFn(2)))
            direct = check_convex_direct(trig, f, grid)
            pinned = check_convex_induced(trig, 1, f, grid)
            if "indeterminate" not in (direct.verdict, pinned.verdict):
                assert direct.verdict == pinned.verdict
            x1 = grid[2]
            rest = tuple(x for x in grid if x != x1)
            base, basis = induced_basis(trig, 1, (x1,))
            derived = DerivedFn(trig, 1, base, f)
            induced = ChebyshevSystem(basis, puncture(trig.domain, base.points))
            generic = check_convex_direct(induced, derived, rest)
            closed = check_convex_direct(trig_induced_closed_form(x1), derived, rest)
            if "indeterminate" not in (generic.verdict, closed.verdict):
                assert generic.verdict == closed.verdict


class TestStrictConvexity:
    """Strict convexity of f: the basis extended by f passes the strict
    grid positivity check as an (n+1)-dimensional system."""

    def test_square_is_strictly_convex(self):
        rep = is_positive_chebyshev(polynomial_system(2).with_appended(PowerFn(2)), 3, GRID4)
        assert rep.is_positive

    def test_affine_is_not_strict(self):
        f = affine((2, PowerFn(1)), (3, PowerFn(0)))
        rep = is_positive_chebyshev(polynomial_system(2).with_appended(f), 3, GRID4)
        assert rep.verdict == "violated"
        assert rep.witness_value == 0


class TestChordInequality:
    def test_direct_matches_chord_rule(self):
        rng = random.Random(55)
        system = polynomial_system(2)
        grid = [Fraction(i) for i in range(5)]
        for _ in range(10):
            values = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                           for _ in grid)
            f = SampledFn(tuple(grid), values)
            verdict = check_convex_direct(system, f, grid)
            chord_ok = all(
                evaluate(f, y) * (z - x) <= (z - y) * evaluate(f, x) + (y - x) * evaluate(f, z)
                for x, y, z in itertools.combinations(grid, 3))
            assert verdict.is_convex == chord_ok
