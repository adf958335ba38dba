import itertools
import math
import random
from fractions import Fraction

import pytest

from chebconvex.core import OrderingClass, evaluate, validate_tuple
from chebconvex.errors import (
    BackendMismatch,
    DimensionMismatch,
    EvaluationOutsideSupport,
    InputError,
    OrderingViolation,
)
from chebconvex.induced import DerivedFn, verify_induced_system
from chebconvex.systems import polynomial_system, trig_odd_system

from oracles import (DuplicatePoint, collocation_det_per_value, induced_identity_loop,
                     oracle_induced, power_divdiff_expansion, rand_increasing_fractions,
                     sign_index)


def sigma(points, k):
    return validate_tuple(points[:k], OrderingClass.STRICTLY_INCREASING)


def derived(system, k, base, j):
    """The induced system's function of basis[j]: built directly."""
    return DerivedFn(system, k, sigma(base, k), system.basis[j])


def outcome(fn, *args):
    """What ``fn`` returns, by repr, or the error it raises as
    "Class: message"."""
    try:
        return repr(fn(*args))
    except InputError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestInducedConstruction:
    def test_top_prefix_gives_constant_one(self):
        for n in (2, 3, 4):
            system = polynomial_system(n)
            base = tuple(range(n - 1))
            grid = [Fraction(7), Fraction(-5, 2), Fraction(99)]
            # an induced system of dimension 1: one identity per grid point
            assert verify_induced_system(system, n - 1, base, grid).identity_checked == 3
            for x in grid:
                assert evaluate(derived(system, n - 1, base, n - 1), x) == 1

    def test_poly_basis_matches_power_expansion(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(3, 5)
            k = rng.randint(1, n - 1)
            pts = rand_increasing_fractions(rng, k + 1)
            base, x = pts[:k], pts[k]
            system = polynomial_system(n)
            for j in range(k, n):
                got = evaluate(derived(system, k, base, j), x)
                want = power_divdiff_expansion(base, j, x)
                assert got == want

    def test_trig_derived_negcot(self):
        trig = trig_odd_system(1, -math.pi, 0.0)
        x1 = -2.2
        grid = [-2.9, -1.4, -0.3]
        # an induced system of dimension 2: C(3, 2) identities
        assert verify_induced_system(trig, 1, (x1,), grid).identity_checked == 3
        for x in grid:
            got = evaluate(derived(trig, 1, (x1,), 2), x)
            want = -math.cos((x1 + x) / 2) / math.sin((x1 + x) / 2)
            assert got == pytest.approx(want, rel=1e-12)
            assert evaluate(derived(trig, 1, (x1,), 1), x) == pytest.approx(1.0, rel=1e-12)

    def test_punctured_domain(self):
        system = polynomial_system(3)
        base = (Fraction(2),)
        _, ind, _ = oracle_induced(system, 1, base)
        assert not ind.domain.contains(Fraction(2))
        assert ind.domain.contains(Fraction(3))
        grid = [Fraction(i) for i in (2, 3, 4)]
        with pytest.raises(EvaluationOutsideSupport, match="grid point 2 is outside"):
            verify_induced_system(system, 1, base, grid)
        assert verify_induced_system(system, 1, base, grid[1:]).positivity.is_positive

    def test_exact_base_of_a_float_only_system_is_refused(self):
        # every value of that system would raise BackendMismatch: the
        # check raises it on the base, as the oracle's checks do
        system = trig_odd_system(1, -math.pi, 0.0)
        with pytest.raises(BackendMismatch) as built:
            oracle_induced(system, 1, (Fraction(-3),))
        with pytest.raises(BackendMismatch) as verified:
            verify_induced_system(system, 1, (Fraction(-3),), [-2.0, -1.0])
        assert str(built.value) == str(verified.value)
        for base in ((-3.0,), (-3,)):
            assert evaluate(derived(system, 1, base, 1), -2.0) == 1.0

    def test_validation(self):
        from chebconvex.systems import one_xsq_system
        for error, system, k, base in (
                (DimensionMismatch, polynomial_system(3), 3, (0, 1, 2)),
                (OrderingViolation, polynomial_system(3), 2, (2, 1)),
                (InputError, one_xsq_system(), 1, (-5,))):
            with pytest.raises(error) as verified:
                verify_induced_system(system, k, base, [3, 4])
            with pytest.raises(error) as built:
                oracle_induced(system, k, base)
            assert str(built.value) == str(verified.value)


class TestSignIndex:
    def test_between(self):
        s = sign_index((1, 3), 2)
        assert s.ell == 1 and s.predicted_sign == -1

    def test_beyond(self):
        s = sign_index((1, 3), 4)
        assert s.ell == 2 and s.predicted_sign == 1

    def test_below(self):
        s = sign_index((1, 3), 0)
        assert s.ell == 0 and s.predicted_sign == 1

    def test_duplicate(self):
        with pytest.raises(DuplicatePoint):
            sign_index((1, 3), 3)

    def test_cross_check_vandermonde_signs(self):
        poly3 = polynomial_system(3)
        assert collocation_det_per_value(poly3, 3, (1, 3, 2)) < 0
        assert collocation_det_per_value(poly3, 3, (1, 3, 4)) > 0
        assert collocation_det_per_value(poly3, 3, (1, 3, 0)) > 0


class TestSignPrediction:
    def test_exhaustive_poly(self):
        grid = tuple(Fraction(i) for i in range(-3, 5))  # 8 points
        for k in range(1, 5):
            system = polynomial_system(k + 1)
            for base in itertools.combinations(grid, k):
                for x in grid:
                    if x in base:
                        continue
                    predicted = sign_index(base, x).predicted_sign
                    value = collocation_det_per_value(system, k + 1, base + (x,))
                    assert value != 0
                    assert (1 if value > 0 else -1) == predicted

    def test_exhaustive_trig(self):
        trig = trig_odd_system(1, -math.pi, 0.0)
        grid = tuple(-math.pi + (i + 1) * math.pi / 9 for i in range(8))
        for k in (1, 2):
            for base in itertools.combinations(grid, k):
                for x in grid:
                    if x in base:
                        continue
                    predicted = sign_index(base, x).predicted_sign
                    value = collocation_det_per_value(trig, k + 1, base + (x,))
                    assert (1 if value > 0 else -1) == predicted

    def test_product_sign_formula(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(3, 6)
            k = rng.randint(1, n - 1)
            pts = rand_increasing_fractions(rng, n)
            pick = sorted(rng.sample(range(n), k))
            base = tuple(pts[i] for i in pick)
            rest = tuple(pts[i] for i in range(n) if i not in pick)
            system = polynomial_system(k + 1)
            product = Fraction(1)
            ell_sum = 0
            for x in rest:
                product *= collocation_det_per_value(system, k + 1, base + (x,))
                ell_sum += sign_index(base, x).ell
            expected = (-1) ** ((n - k) * k - ell_sum)
            assert (1 if product > 0 else -1) == expected


class TestVerifyInduced:
    def test_poly_base_zero(self):
        system = polynomial_system(3)
        report = verify_induced_system(system, 1, (Fraction(0),),
                                       [Fraction(i) for i in (1, 2, 3, 4)])
        assert report.positivity.is_positive
        assert report.max_abs_residual == 0
        assert report.identity_checked == 6  # C(4, 2)

    def test_top_prefix_trivial(self):
        system = polynomial_system(4)
        report = verify_induced_system(system, 3, (0, 1, 2),
                                       [Fraction(i) for i in (3, 4, 5, 6, 7)])
        assert report.positivity.is_positive
        assert report.max_abs_residual == 0

    def test_trig_base(self):
        trig = trig_odd_system(1, -math.pi, 0.0)
        grid = [-2.9, -2.5, -2.0, -1.6, -1.1, -0.8, -0.4, -0.15]
        report = verify_induced_system(trig, 1, (-3.0,), grid)
        assert report.positivity.is_positive
        assert report.max_rel_residual <= 1e-8

    def test_identity_residual_sweep(self):
        # 500+ random rational configurations across n <= 6, k < n: the
        # factorization identity must be exact on the exact backend.
        rng = random.Random(43)
        checked = 0
        while checked < 500:
            n = rng.randint(2, 6)
            k = rng.randint(1, n - 1)
            pts = rand_increasing_fractions(rng, n)
            report = verify_induced_system(polynomial_system(n), k,
                                           pts[:k], pts[k:])
            assert report.max_abs_residual == 0
            checked += report.identity_checked
        assert checked >= 500

    @pytest.mark.parametrize("args", [
        (polynomial_system(3), 1, (Fraction(0),), [Fraction(i) for i in (1, 2, 3, 4)]),
        (trig_odd_system(1, -math.pi, 0.0), 1, (-3.0,), [-2.9, -2.5, -2.0, -1.6, -1.1]),
        (polynomial_system(4), 2, (0, 1), [2, 3, Fraction(7, 2), 5]),
        (polynomial_system(3), 3, (0, 1, 2), [3, 4]),                  # base too large
        (polynomial_system(3), 1, (0, 1), [3, 4]),                     # base of two points
        (polynomial_system(3), 2, (1, 0), [3, 4]),                     # base not increasing
        (trig_odd_system(1, -math.pi, 0.0), 1, (1.0,), [-2.0, -1.0]),  # base outside
    ])
    def test_builds_no_induced_system(self, args):
        """The check reads the base's checks, its dimension and punctured
        domain without building the induced system's derived functions:
        its report or error is the oracle's, which builds them."""
        assert outcome(verify_induced_system, *args) == outcome(induced_identity_loop, *args)
