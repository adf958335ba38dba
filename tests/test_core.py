import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chebconvex.core import (
    AffineFn,
    Backend,
    ChebyshevSystem,
    ConstFn,
    CosFn,
    ExpFn,
    FiniteSet,
    Interval,
    NegCotFn,
    OrderingClass,
    PointTuple,
    PowerFn,
    PuncturedInterval,
    SampledFn,
    SinFn,
    affine,
    domain_from_json,
    domain_to_json,
    evaluate,
    function_from_json,
    function_to_json,
    puncture,
    scalar_from_json,
    scalar_to_json,
    system_from_json,
    system_to_json,
    validate_tuple,
)
from chebconvex.errors import (
    BackendMismatch,
    EvaluationOutsideSupport,
    InputError,
    OrderingViolation,
)


class TestEvaluate:
    def test_power_at_int(self):
        assert evaluate(PowerFn(2), 3) == 9

    def test_sampled_lookup(self):
        f = SampledFn((1, 2), (5, 7))
        assert evaluate(f, 2) == 7

    def test_cos_at_zero(self):
        assert evaluate(CosFn(2), 0) == 1

    def test_sampled_off_table(self):
        f = SampledFn((1, 2), (5, 7))
        with pytest.raises(EvaluationOutsideSupport):
            evaluate(f, 3)

    def test_exact_power_at_rational_is_exact(self):
        assert evaluate(PowerFn(3), Fraction(2, 3)) == Fraction(8, 27)

    def test_exact_backend_result_is_fraction(self):
        assert isinstance(evaluate(PowerFn(2), 3), Fraction)
        assert isinstance(evaluate(PowerFn(2), 0.5), float)

    def test_transcendental_rejects_exact(self):
        for f in (CosFn(1), SinFn(2), ExpFn(), NegCotFn(-1.0)):
            with pytest.raises(BackendMismatch):
                evaluate(f, Fraction(1, 3))

    def test_const_backend_consistency(self):
        assert evaluate(ConstFn(Fraction(1, 3)), Fraction(2)) == Fraction(1, 3)
        with pytest.raises(BackendMismatch):
            evaluate(ConstFn(Fraction(1, 3)), 0.5)
        with pytest.raises(BackendMismatch):
            evaluate(ConstFn(0.5), Fraction(2))

    def test_neutral_int_const_works_everywhere(self):
        assert evaluate(ConstFn(1), 0.5) == 1.0
        assert evaluate(ConstFn(1), Fraction(1, 2)) == 1

    def test_affine_combination(self):
        f = affine((2, PowerFn(2)), (-3, PowerFn(0)))
        assert evaluate(f, 5) == 2 * 25 - 3

    def test_affine_mixing_rejected_at_construction(self):
        with pytest.raises(BackendMismatch):
            affine((Fraction(1, 2), ExpFn()))

    def test_affine_of_exp_is_float(self):
        f = affine((1, ExpFn()), (1, PowerFn(1)))
        assert evaluate(f, 1.0) == pytest.approx(math.e + 1.0)

    def test_negcot_matches_trig_ratio(self):
        x1, x = -2.0, -0.7
        want = (math.sin(x) - math.sin(x1)) / (math.cos(x) - math.cos(x1))
        assert evaluate(NegCotFn(x1), x) == pytest.approx(want, rel=1e-12)

    def test_determinism_bit_identical(self):
        f = affine((1, ExpFn()), (Fraction(0).numerator, PowerFn(3)))
        a = evaluate(f, 0.377)
        b = evaluate(f, 0.377)
        assert a == b and repr(a) == repr(b)

    def test_sampled_mixed_backend_rejected(self):
        with pytest.raises(BackendMismatch):
            SampledFn((Fraction(1), 2.0), (1, 2))


class TestValidateTuple:
    def test_strictly_increasing_ok(self):
        t = validate_tuple([1, 2, 3], OrderingClass.STRICTLY_INCREASING)
        assert t.points == (1, 2, 3)

    def test_strictly_increasing_violation_indices(self):
        with pytest.raises(OrderingViolation) as err:
            validate_tuple([2, 1, 3], OrderingClass.STRICTLY_INCREASING)
        assert (err.value.i, err.value.j) == (0, 1)

    def test_pairwise_distinct_allows_unsorted(self):
        t = validate_tuple([2, 1, 3], "pairwise_distinct")
        assert t.ordering is OrderingClass.PAIRWISE_DISTINCT

    def test_duplicate_rejected(self):
        with pytest.raises(OrderingViolation):
            validate_tuple([1, 3, 1], OrderingClass.PAIRWISE_DISTINCT)

    def test_float_min_gap_guard(self):
        with pytest.raises(OrderingViolation):
            validate_tuple([0.0, 1e-12, 1.0], OrderingClass.STRICTLY_INCREASING)
        # explicit opt-out
        t = validate_tuple([0.0, 1e-12, 1.0], OrderingClass.STRICTLY_INCREASING,
                           min_gap=0.0)
        assert len(t) == 3

    def test_exact_tuples_skip_gap_guard(self):
        t = validate_tuple([Fraction(0), Fraction(1, 10 ** 12)],
                           OrderingClass.STRICTLY_INCREASING)
        assert len(t) == 2

    def test_mixed_backend_rejected(self):
        with pytest.raises(BackendMismatch):
            validate_tuple([Fraction(1), 2.0], OrderingClass.STRICTLY_INCREASING)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=8, unique=True))
    def test_increasing_accepted_as_distinct(self, values):
        values = sorted(values)
        t = validate_tuple(values, OrderingClass.STRICTLY_INCREASING)
        assert validate_tuple(t.points, OrderingClass.PAIRWISE_DISTINCT).points == t.points

    def test_unconstrained_accepts_anything(self):
        assert len(validate_tuple([1, 1, 0], OrderingClass.UNCONSTRAINED)) == 3


class TestDomains:
    def test_open_interval_membership(self):
        d = Interval(0, 1)
        assert d.contains(Fraction(1, 2))
        assert not d.contains(0)
        assert not d.contains(1)

    def test_closed_ends(self):
        d = Interval(0, 1, lo_open=False, hi_open=False)
        assert d.contains(0) and d.contains(1)

    def test_unbounded(self):
        assert Interval().contains(-10 ** 9)
        assert Interval(lo=0).contains(10 ** 9)
        assert not Interval(lo=0).contains(0)

    def test_finite_set(self):
        d = FiniteSet((1, 3, 5))
        assert d.contains(3) and not d.contains(2)

    def test_punctured(self):
        d = PuncturedInterval(Interval(0, 10), (3, 7))
        assert d.contains(5) and not d.contains(3) and not d.contains(11)

    def test_punctured_excluded_must_be_inside(self):
        with pytest.raises(InputError):
            PuncturedInterval(Interval(0, 1), (5,))

    def test_puncture_helper(self):
        d = puncture(Interval(0, 10), (4,))
        assert isinstance(d, PuncturedInterval) and not d.contains(4)
        d2 = puncture(d, (5,))
        assert not d2.contains(5) and not d2.contains(4)
        d3 = puncture(FiniteSet((1, 2, 3)), (2,))
        assert d3.points == (1, 3)
        with pytest.raises(InputError):
            puncture(Interval(0, 1), (9,))

    def test_empty_interval_rejected(self):
        with pytest.raises(InputError):
            Interval(2, 1)


class TestSystems:
    def test_prefix(self):
        s = ChebyshevSystem((PowerFn(0), PowerFn(1), PowerFn(2)), Interval())
        assert s.dim == 3
        assert s.prefix(2).basis == (PowerFn(0), PowerFn(1))
        with pytest.raises(InputError):
            s.prefix(4)

    def test_with_appended(self):
        s = ChebyshevSystem((PowerFn(0),), Interval())
        assert s.with_appended(PowerFn(1)).dim == 2

    def test_sampled_basis_needs_finite_domain(self):
        f = SampledFn((1, 2), (1, 4))
        ChebyshevSystem((f,), FiniteSet((1, 2)))
        with pytest.raises(InputError):
            ChebyshevSystem((f,), Interval(0, 3))
        with pytest.raises(InputError):
            ChebyshevSystem((f,), FiniteSet((1, 2, 3)))


SPECS = [
    PowerFn(0),
    PowerFn(7),
    CosFn(2),
    SinFn(1),
    ExpFn(),
    ConstFn(Fraction(-3, 7)),
    ConstFn(2.5),
    NegCotFn(-1.5),
    AffineFn(((Fraction(2), PowerFn(1)), (Fraction(-1, 3), PowerFn(4)))),
    SampledFn((Fraction(0), Fraction(1, 2), Fraction(2)), (Fraction(1), Fraction(3), Fraction(9))),
    SampledFn((0.5, 1.5), (2.25, 0.25)),
]

DOMAINS = [
    Interval(),
    Interval(lo=0),
    Interval(Fraction(-1, 2), Fraction(7, 2), lo_open=False),
    Interval(-math.pi, 0.0),
    FiniteSet((Fraction(1), Fraction(2), Fraction(42))),
    PuncturedInterval(Interval(0, 10), (Fraction(3), Fraction(4))),
]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("f", SPECS)
    def test_function_round_trip(self, f):
        assert function_from_json(function_to_json(f)) == f

    @pytest.mark.parametrize("dom", DOMAINS)
    def test_domain_round_trip(self, dom):
        assert domain_from_json(domain_to_json(dom)) == dom

    def test_system_round_trip(self):
        s = ChebyshevSystem((PowerFn(0), PowerFn(1), PowerFn(2)),
                            Interval(Fraction(0), Fraction(10)))
        assert system_from_json(system_to_json(s)) == s

    def test_system_json_has_no_sign_claim(self):
        s = ChebyshevSystem((PowerFn(0), PowerFn(1)), Interval())
        spec = system_to_json(s)
        assert set(spec) == {"basis", "domain"}
        # an old "claimed_sign" key is ignored like any unknown key, whatever its value
        assert system_from_json({**spec, "claimed_sign": "bogus"}) == s

    @given(st.one_of(
        st.integers(-10 ** 12, 10 ** 12),
        st.floats(allow_nan=False, allow_infinity=False),
        st.fractions(max_denominator=10 ** 6),
    ))
    def test_scalar_round_trip(self, x):
        assert scalar_from_json(scalar_to_json(x)) == x

    def test_float_round_trip_preserves_bits(self):
        x = 0.1 + 0.2
        assert scalar_from_json(scalar_to_json(x)) == x

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            function_from_json({"kind": "mystery"})
        with pytest.raises(InputError):
            domain_from_json({"kind": "mystery"})


class TestPointTuple:
    def test_iteration_and_indexing(self):
        t = PointTuple((1, 2, 3), OrderingClass.STRICTLY_INCREASING)
        assert list(t) == [1, 2, 3] and t[1] == 2 and len(t) == 3

    def test_backend_inference(self):
        assert PointTuple((1, 2)).backend() is None
        assert PointTuple((1, 2)).backend(default=Backend.EXACT) is Backend.EXACT
        assert PointTuple((Fraction(1), 2)).backend() is Backend.EXACT
        assert PointTuple((1.0, 2)).backend() is Backend.FLOAT

    def test_frozen(self):
        t = PointTuple((1, 2))
        with pytest.raises(AttributeError):
            t.points = (3, 4)
