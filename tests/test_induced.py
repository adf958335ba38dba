import itertools
import math
import random
from fractions import Fraction

import pytest

from chebconvex.core import OrderingClass, evaluate, validate_tuple
from chebconvex.determinant import collocation_det
from chebconvex.errors import (
    DimensionMismatch,
    DuplicatePoint,
    InputError,
    OrderingViolation,
)
from chebconvex.induced import (
    induced_system,
    verify_induced_system,
)
from chebconvex.systems import polynomial_system, trig_odd_system

from oracles import power_divdiff_expansion, rand_increasing_fractions, sign_index


def sigma(points, k):
    return validate_tuple(points[:k], OrderingClass.STRICTLY_INCREASING)


class TestInducedConstruction:
    def test_top_prefix_gives_constant_one(self):
        for n in (2, 3, 4):
            system = polynomial_system(n)
            ind = induced_system(system, n - 1, tuple(range(n - 1)))
            assert ind.dim == 1
            for x in (Fraction(7), Fraction(-5, 2), Fraction(99)):
                assert evaluate(ind.basis[0], x) == 1

    def test_poly_basis_matches_power_expansion(self):
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(3, 5)
            k = rng.randint(1, n - 1)
            pts = rand_increasing_fractions(rng, k + 1)
            base, x = pts[:k], pts[k]
            system = polynomial_system(n)
            ind = induced_system(system, k, base)
            for idx, j in enumerate(range(k, n)):
                got = evaluate(ind.basis[idx], x)
                want = power_divdiff_expansion(base, j, x)
                assert got == want

    def test_trig_derived_negcot(self):
        trig = trig_odd_system(1, -math.pi, 0.0)
        x1 = -2.2
        ind = induced_system(trig, 1, (x1,))
        assert ind.dim == 2
        for x in (-2.9, -1.4, -0.3):
            got = evaluate(ind.basis[1], x)
            want = -math.cos((x1 + x) / 2) / math.sin((x1 + x) / 2)
            assert got == pytest.approx(want, rel=1e-12)
            assert evaluate(ind.basis[0], x) == pytest.approx(1.0, rel=1e-12)

    def test_punctured_domain(self):
        system = polynomial_system(3)
        ind = induced_system(system, 1, (Fraction(2),))
        assert not ind.domain.contains(Fraction(2))
        assert ind.domain.contains(Fraction(3))

    def test_validation(self):
        system = polynomial_system(3)
        with pytest.raises(DimensionMismatch):
            induced_system(system, 3, (0, 1, 2))
        with pytest.raises(OrderingViolation):
            induced_system(system, 2, (2, 1))
        from chebconvex.systems import one_xsq_system
        with pytest.raises(InputError):
            induced_system(one_xsq_system(), 1, (-5,))


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
        assert collocation_det(poly3, 3, (1, 3, 2)) < 0
        assert collocation_det(poly3, 3, (1, 3, 4)) > 0
        assert collocation_det(poly3, 3, (1, 3, 0)) > 0


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
                    value = collocation_det(system, k + 1, base + (x,))
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
                    value = collocation_det(trig, k + 1, base + (x,))
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
                product *= collocation_det(system, k + 1, base + (x,))
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
