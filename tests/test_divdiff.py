import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebconvex.core import (
    ConstFn,
    ExpFn,
    Interval,
    PointTuple,
    PowerFn,
    affine,
    evaluate,
)
from chebconvex.convexity import check_convex_induced
from chebconvex.determinant import _PointTable
from chebconvex.divdiff import (
    _ratio,
    _scalar,
    classical_divided_difference,
    complete_homogeneous,
    divided_difference,
    power_divdiff_check,
)
from chebconvex.errors import (
    DimensionMismatch,
    InputError,
    NonFiniteValue,
    SingularDenominator,
)
from chebconvex.systems import one_xsq_system, polynomial_system, trig_odd_system

from oracles import (
    homogeneous_by_enumeration,
    power_divdiff_expansion,
    ratio_two_fractions,
    rand_distinct_fractions,
    rand_increasing_floats,
    recursive_divdiff,
)


class TestGeneralizedDivdiff:
    def test_poly_prefix_slope(self):
        system = polynomial_system(3)
        dd = divided_difference(system, 2, PowerFn(2), (1, 2))
        assert dd.value == 3
        assert dd.numerator == 3 and dd.denominator == 1
        assert dd.order == 1

    def test_last_basis_function_gives_one(self):
        poly = polynomial_system(4)
        dd = divided_difference(poly, 3, poly.basis[2], (0, 2, 5))
        assert dd.value == 1
        trig = trig_odd_system(1, -math.pi, 0.0)
        dd = divided_difference(trig, 3, trig.basis[2], (-2.5, -1.5, -0.5))
        assert dd.value == pytest.approx(1.0, rel=1e-12)

    def test_earlier_basis_function_gives_zero(self):
        poly = polynomial_system(4)
        for j in range(3):
            dd = divided_difference(poly, 4, poly.basis[j], (0, 1, 2, 3))
            assert dd.value == 0

    def test_value_times_denominator_is_numerator(self):
        rng = random.Random(21)
        system = polynomial_system(5)
        for _ in range(20):
            k = rng.randint(1, 5)
            pts = rand_distinct_fractions(rng, k)
            dd = divided_difference(system, k, PowerFn(k + 1), pts)
            assert dd.value * dd.denominator == dd.numerator

    def test_accepts_unsorted_points(self):
        system = polynomial_system(3)
        a = divided_difference(system, 3, PowerFn(4), (3, 1, 2)).value
        b = divided_difference(system, 3, PowerFn(4), (1, 2, 3)).value
        assert a == b

    def test_singular_denominator(self):
        wide = one_xsq_system(Interval(), allow_unsafe_domain=True)
        with pytest.raises(SingularDenominator):
            divided_difference(wide, 2, PowerFn(3), (-1, 1))

    @pytest.mark.parametrize("tol_factor", [-1.0, -1e-10, 0.0, 1e-10])
    def test_zero_float_denominator_is_singular_at_every_tol(self, tol_factor):
        # a negative factor once made the rule |den| <= tol miss 0.0, and
        # the ratio raised ZeroDivisionError
        wide = one_xsq_system(Interval(), allow_unsafe_domain=True)
        with pytest.raises(SingularDenominator, match=r"0\.0 within tolerance at \(-1\.0, 1\.0\)"):
            divided_difference(wide, 2, PowerFn(3), (-1.0, 1.0), tol_factor=tol_factor)
        with pytest.raises(SingularDenominator, match=r"0\.0 within tolerance at \(-1\.0, 1\.0\)"):
            check_convex_induced(wide, 1, PowerFn(3), [-1.0, 0.0, 1.0, 2.0],
                                 tol_factor=tol_factor)

    def test_non_finite_value(self):
        big = affine((1e308, PowerFn(3)))
        with pytest.raises(NonFiniteValue, match=r"divided difference at \(1.0, 2.0, 3.0\) is nan"):
            divided_difference(polynomial_system(3), 3, big, (1.0, 2.0, 3.0))
        with pytest.raises(NonFiniteValue, match="classical divided difference"):
            classical_divided_difference(big, (1.0, 2.0, 3.0))

    def test_dimension_checks(self):
        system = polynomial_system(3)
        with pytest.raises(DimensionMismatch):
            divided_difference(system, 4, PowerFn(1), (1, 2, 3, 4))
        with pytest.raises(DimensionMismatch):
            divided_difference(system, 2, PowerFn(1), (1, 2, 3))


class TestClassicalDivdiff:
    def test_cubic_example(self):
        assert classical_divided_difference(PowerFn(3), (1, 2, 3)) == 6

    def test_constants_annihilated(self):
        assert classical_divided_difference(PowerFn(0), (1, 5)) == 0
        assert classical_divided_difference(ConstFn(Fraction(9)), (1, 2, 7, 8)) == 0

    def test_leading_coefficient(self):
        for k in range(1, 6):
            pts = tuple(range(k + 1))
            assert classical_divided_difference(PowerFn(k), pts) == 1

    def test_matches_recursive_oracle(self):
        rng = random.Random(22)
        f = affine((Fraction(2), PowerFn(3)), (Fraction(-1, 2), PowerFn(1)))
        for _ in range(25):
            m = rng.randint(1, 6)
            pts = rand_distinct_fractions(rng, m)
            want = recursive_divdiff(lambda x: evaluate(f, x), pts)
            assert classical_divided_difference(f, pts) == want

    def test_symmetry_all_permutations(self):
        pts = (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3))
        base = classical_divided_difference(PowerFn(5), pts)
        for perm in itertools.permutations(pts):
            assert classical_divided_difference(PowerFn(5), perm) == base

    def test_single_point_is_value(self):
        assert classical_divided_difference(PowerFn(2), (Fraction(3, 2),)) == Fraction(9, 4)


class TestPolySystemAgreement:
    def test_exact_agreement_up_to_six(self):
        rng = random.Random(23)
        f = affine((Fraction(1), PowerFn(6)), (Fraction(3), PowerFn(2)))
        for k in range(1, 7):
            system = polynomial_system(k)
            for _ in range(10):
                pts = rand_distinct_fractions(rng, k)
                got = divided_difference(system, k, f, pts).value
                want = classical_divided_difference(f, pts)
                assert got == want

    def test_float_agreement(self):
        rng = random.Random(24)
        f = ExpFn()
        for k in range(1, 7):
            system = polynomial_system(k)
            for _ in range(10):
                pts = rand_increasing_floats(rng, k, -1.0, 1.0, 0.05)
                got = divided_difference(system, k, f, pts).value
                want = classical_divided_difference(f, pts)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        k = data.draw(st.integers(2, 5))
        a = Fraction(data.draw(st.integers(-9, 9)))
        b = Fraction(data.draw(st.integers(-9, 9)))
        system = polynomial_system(k)
        pts = rand_distinct_fractions(rng, k)
        f, g = PowerFn(k), PowerFn(k + 1)
        combo = affine((a, f), (b, g))
        lhs = divided_difference(system, k, combo, pts).value
        rhs = a * divided_difference(system, k, f, pts).value \
            + b * divided_difference(system, k, g, pts).value
        assert lhs == rhs

    def test_trig_annihilation(self):
        trig = trig_odd_system(1, -math.pi, 0.0)
        pts = (-2.9, -1.7, -0.4)
        assert divided_difference(trig, 3, trig.basis[0], pts).value == pytest.approx(0.0, abs=1e-12)
        assert divided_difference(trig, 3, trig.basis[1], pts).value == pytest.approx(0.0, abs=1e-12)


class TestCompleteHomogeneous:
    def test_degree_zero_is_one(self):
        assert complete_homogeneous(0, (5, 7, 11)) == 1

    def test_degree_one_is_sum(self):
        assert complete_homogeneous(1, (1, 2, 3)) == 6

    def test_degree_two_pair(self):
        assert complete_homogeneous(2, (1, 2)) == 7

    def test_matches_enumeration_oracle(self):
        rng = random.Random(25)
        for _ in range(30):
            k = rng.randint(1, 5)
            degree = rng.randint(0, 6)
            pts = rand_distinct_fractions(rng, k)
            assert complete_homogeneous(degree, pts) == \
                homogeneous_by_enumeration(degree, pts)

    def test_empty_points_rejected(self):
        with pytest.raises(InputError):
            complete_homogeneous(2, ())

    def test_negative_degree_rejected(self):
        with pytest.raises(InputError):
            complete_homogeneous(-1, (1,))


class TestPowerIdentity:
    def test_cubic_at_123(self):
        rep = power_divdiff_check(3, (1, 2, 3))
        assert rep.lhs == 6 and rep.rhs == 6 and rep.residual == 0

    def test_leading_case_both_one(self):
        # degree = k - 1: the complete homogeneous factor has degree 0
        rep = power_divdiff_check(4, (0, 1, 2, 3, 4))
        assert rep.lhs == 1 and rep.rhs == 1 and rep.residual == 0

    def test_random_rational_zero_residual(self):
        rng = random.Random(26)
        for _ in range(60):
            degree = rng.randint(0, 8)
            k = rng.randint(1, min(6, degree + 1))
            pts = rand_distinct_fractions(rng, k)
            assert power_divdiff_check(degree, pts).residual == 0

    def test_too_many_points_rejected(self):
        with pytest.raises(DimensionMismatch):
            power_divdiff_check(2, (1, 2, 3, 4))


class TestPowerExpansion:
    def test_degree_equals_base_size(self):
        assert power_divdiff_expansion((1, 2), 2, 5) == 1

    def test_pair_example(self):
        got = power_divdiff_expansion((1, 2), 3, 4)
        assert got == 7
        assert classical_divided_difference(PowerFn(3), (1, 2, 4)) == 7

    def test_matches_classical_oracle(self):
        base = (Fraction(0), Fraction(1, 2))
        got = power_divdiff_expansion(base, 4, Fraction(1))
        want = classical_divided_difference(PowerFn(4), base + (Fraction(1),))
        assert got == want

    def test_random_agreement(self):
        rng = random.Random(27)
        for _ in range(40):
            k = rng.randint(1, 4)
            degree = rng.randint(k, k + 4)
            pts = rand_distinct_fractions(rng, k + 1)
            base, x = pts[:k], pts[k]
            got = power_divdiff_expansion(base, degree, x)
            want = classical_divided_difference(PowerFn(degree), base + (x,))
            assert got == want

    def test_duplicate_extra_point_rejected(self):
        with pytest.raises(InputError):
            power_divdiff_expansion((1, 2), 3, 2)

    def test_degree_below_base_rejected(self):
        with pytest.raises(DimensionMismatch):
            power_divdiff_expansion((1, 2, 3), 2, 9)


# ---------------------------------------------------------------------------
# the ratio step: one Fraction of four integers on the exact backend,
# against both determinants made scalars and divided

def package_ratio(table, k, at, tol_factor):
    """divdiff._ratio at the points ``at``, read from ``table`` by position."""
    return _ratio(table, PointTuple(at), range(k), tol_factor)


def ratio_outcome(ratio, fns, k, xs, tol_factor=1e-10):
    """repr of (value, numerator, denominator) that ``ratio`` takes on a
    fresh table of ``fns``, or its error as "Class: message"."""
    table = _PointTable(tuple(fns))
    try:
        value, num, den = ratio(table, k, tuple(xs), tol_factor)
    except (InputError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((value, _scalar(num), _scalar(den)))


COEFS = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9),
                                                st.integers(1, 6)))
TERMS = st.lists(st.tuples(COEFS, st.integers(0, 6)), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(TERMS, min_size=2, max_size=5), st.data(), st.booleans())
def test_ratio_matches_two_fractions(polys, data, floats):
    """Polynomial bases, some dependent (a zero denominator), targets in
    their span (a zero numerator), and unsorted points (determinants of
    either sign), on both backends."""
    fns = [affine(*((c, PowerFn(k)) for c, k in terms)) for terms in polys]
    k = len(fns) - 1
    xs = data.draw(st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 5)),
                            min_size=k, max_size=k, unique=True))
    if floats:
        fns = [affine(*((float(c), PowerFn(j)) for c, j in terms)) for terms in polys]
        xs = [float(x) for x in xs]
    assert ratio_outcome(package_ratio, fns, k, xs) == \
        ratio_outcome(ratio_two_fractions, fns, k, xs)


@pytest.mark.parametrize("fns, xs", [
    ((PowerFn(0), PowerFn(1), PowerFn(2)), (Fraction(1, 2), 3)),        # positive
    ((PowerFn(0), PowerFn(1), PowerFn(2)), (3, Fraction(1, 2))),        # negative
    ((PowerFn(0), PowerFn(1), ConstFn(5)), (Fraction(-1, 3), 2)),       # zero numerator
    ((PowerFn(1), PowerFn(1), PowerFn(3)), (1, 2)),                     # zero denominator
    ((PowerFn(0), ExpFn()), (1,)),          # exact denominator, float numerator
    ((ExpFn(), PowerFn(3)), (2,)),          # float denominator, exact numerator
    ((PowerFn(0), PowerFn(1), PowerFn(3)), (0.5, 3.0)),
])
def test_ratio_signs_and_backends(fns, xs):
    assert ratio_outcome(package_ratio, fns, len(xs), xs) == \
        ratio_outcome(ratio_two_fractions, fns, len(xs), xs)
