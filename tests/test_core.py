import dataclasses
import json
import math
import re
from fractions import Fraction
from pathlib import Path

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
    evaluate,
    function_from_json,
    puncture,
    scalar_from_json,
    scalar_to_json,
    system_from_json,
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
        # an int point: the Fraction 9 exact, the float 9.0 on the float backend
        assert repr(evaluate(PowerFn(2), 3)) == "Fraction(9, 1)"
        assert repr(PowerFn(2)._eval(3, Backend.FLOAT)) == repr(evaluate(PowerFn(2), 3.0)) \
            == "9.0"

    def test_transcendental_rejects_exact(self):
        for f in (CosFn(1), SinFn(2), ExpFn(), NegCotFn(-1.0)):
            assert f.required_backend() is Backend.FLOAT
            with pytest.raises(BackendMismatch):
                evaluate(f, Fraction(1, 3))

    def test_trig_specs_keep_their_names_fields_and_equality(self):
        assert CosFn(1) != SinFn(1) and not isinstance(SinFn(), CosFn)
        assert CosFn(2) == CosFn(2) and hash(SinFn(3)) == hash(SinFn(3))
        assert repr(SinFn(2)) == "SinFn(freq=2)" and repr(CosFn()) == "CosFn(freq=1)"
        assert repr(ExpFn()) == "ExpFn()" and repr(NegCotFn(-1.0)) == "NegCotFn(shift=-1.0)"
        assert [f.name for f in dataclasses.fields(CosFn)] == ["freq"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            SinFn().freq = 2

    def test_const_backend_consistency(self):
        assert evaluate(ConstFn(Fraction(1, 3)), Fraction(2)) == Fraction(1, 3)
        with pytest.raises(BackendMismatch):
            evaluate(ConstFn(Fraction(1, 3)), 0.5)
        with pytest.raises(BackendMismatch, match="^exact and float scalars mixed"):
            evaluate(ConstFn(Fraction(1, 2)), 0.5)
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
        t = validate_tuple([2, 1, 3], OrderingClass.PAIRWISE_DISTINCT)
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

    def test_nan_is_in_no_interval(self):
        nan = float("nan")
        assert not Interval().contains(nan)
        assert not Interval(0, 1, lo_open=False, hi_open=False).contains(nan)
        assert not PuncturedInterval(Interval(), (0,)).contains(nan)

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

    @pytest.mark.parametrize("lo, hi", [(math.nan, None), (None, math.nan), (math.nan, 1),
                                        (0, math.nan), (math.nan, math.nan)])
    def test_a_nan_end_is_refused(self, lo, hi):
        """A NaN end is no bound: as an interval's end it once made that
        side unbounded.  A JSON NaN end is read the same way."""
        message = f"^empty interval: lo={lo}, hi={hi}$"
        with pytest.raises(InputError, match=message):
            Interval(lo, hi)
        with pytest.raises(InputError, match=message):
            domain_from_json({"kind": "interval", "lo": lo, "hi": hi})


class TestSystems:
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


# Each spec as literal JSON, and what the reader makes of it.
SPECS = [
    ({"kind": "power", "k": 0}, PowerFn(0)),
    ({"kind": "power", "k": 7}, PowerFn(7)),
    ({"kind": "cos", "freq": 2}, CosFn(2)),
    ({"kind": "sin"}, SinFn(1)),
    ({"kind": "exp"}, ExpFn()),
    ({"kind": "const", "c": "-3/7"}, ConstFn(Fraction(-3, 7))),
    ({"kind": "const", "c": 2.5}, ConstFn(2.5)),
    ({"kind": "negcot", "shift": -1.5}, NegCotFn(-1.5)),
    ({"kind": "affine", "terms": [{"coef": "2", "spec": {"kind": "power", "k": 1}},
                                  {"coef": "-1/3", "spec": {"kind": "power", "k": 4}}]},
     AffineFn(((Fraction(2), PowerFn(1)), (Fraction(-1, 3), PowerFn(4))))),
    ({"kind": "sampled", "points": ["0", "1/2", "2"], "values": ["1", "3", "9"]},
     SampledFn((Fraction(0), Fraction(1, 2), Fraction(2)),
               (Fraction(1), Fraction(3), Fraction(9)))),
    ({"kind": "sampled", "points": [0.5, 1.5], "values": [2.25, 0.25]},
     SampledFn((0.5, 1.5), (2.25, 0.25))),
]

DOMAINS = [
    ({"kind": "interval"}, Interval()),
    ({"kind": "interval", "lo": 0}, Interval(lo=0)),
    ({"kind": "interval", "lo": "-1/2", "hi": "7/2", "lo_open": False, "hi_open": True},
     Interval(Fraction(-1, 2), Fraction(7, 2), lo_open=False)),
    ({"kind": "interval", "lo": -3.141592653589793, "hi": 0.0}, Interval(-math.pi, 0.0)),
    ({"kind": "finite_set", "points": ["1", "2", "42"]},
     FiniteSet((Fraction(1), Fraction(2), Fraction(42)))),
    ({"kind": "punctured_interval", "base": {"kind": "interval", "lo": 0, "hi": 10},
      "excluded": ["3", "4"]},
     PuncturedInterval(Interval(0, 10), (Fraction(3), Fraction(4)))),
]

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_json_blocks() -> list:
    """The JSON values of each ```json block of README's "JSON formats"
    section, block by block."""
    section = README.read_text().split("### JSON formats", 1)[1].split("\n## ", 1)[0]
    decoder, blocks = json.JSONDecoder(), []
    for text in re.findall(r"```json\n(.*?)```", section, re.S):
        values, i = [], 0
        while text[i:].strip():
            i += len(text[i:]) - len(text[i:].lstrip())
            value, i = decoder.raw_decode(text, i)
            values.append(value)
        blocks.append(values)
    return blocks


POLY3_JSON = {"basis": [{"kind": "power", "k": k} for k in range(3)],
              "domain": {"kind": "interval", "lo": "0", "hi": "10"}}


class TestJsonRoundTrip:
    """The readers on literal specs (the package writes no specs), each
    compared by repr, so that a scalar's type counts too."""

    @pytest.mark.parametrize("spec, f", SPECS, ids=[f"f{i}" for i in range(len(SPECS))])
    def test_function_round_trip(self, spec, f):
        assert repr(function_from_json(spec)) == repr(f)

    @pytest.mark.parametrize("spec, dom", DOMAINS, ids=[f"dom{i}" for i in range(len(DOMAINS))])
    def test_domain_round_trip(self, spec, dom):
        assert repr(domain_from_json(spec)) == repr(dom)

    def test_system_round_trip(self):
        s = ChebyshevSystem((PowerFn(0), PowerFn(1), PowerFn(2)),
                            Interval(Fraction(0), Fraction(10)))
        assert repr(system_from_json(POLY3_JSON)) == repr(s)

    def test_system_json_has_no_sign_claim(self):
        # an old "claimed_sign" key is ignored like any unknown key, whatever its value
        assert system_from_json({**POLY3_JSON, "claimed_sign": "bogus"}) == \
            system_from_json(POLY3_JSON)

    def test_readme_specs_are_read(self):
        """Every function spec and the system that README documents."""
        functions, (system,) = readme_json_blocks()
        assert {spec["kind"] for spec in functions} == \
            {"power", "cos", "sin", "exp", "const", "negcot", "affine", "sampled"}
        for spec in functions:
            function_from_json(spec)
        assert system_from_json(system) == \
            ChebyshevSystem((PowerFn(0), PowerFn(1)), Interval())

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

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "power", "k": True}, "power exponent must be an int >= 0, got True"),
        ({"kind": "power", "k": False}, "power exponent must be an int >= 0, got False"),
        ({"kind": "cos", "freq": True}, "cos frequency must be an int >= 1, got True"),
        ({"kind": "sin", "freq": True}, "sin frequency must be an int >= 1, got True"),
        ({"kind": "sin", "freq": 0}, "sin frequency must be an int >= 1, got 0"),
        ({"kind": "cos", "freq": -1}, "cos frequency must be an int >= 1, got -1"),
    ])
    def test_bool_exponent_or_frequency_rejected(self, spec, message):
        # bool is a subclass of int: {"k": true} once read as x^1
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            function_from_json(spec)

    @pytest.mark.parametrize("key, value", [
        ("lo_open", "false"), ("hi_open", "false"), ("lo_open", 0), ("hi_open", 1),
        ("lo_open", None)])
    def test_interval_flags_are_json_booleans(self, key, value):
        # bool("false") is True: "false" once read as an open end
        message = f"domain spec field {key!r} must be true or false, got {value!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            domain_from_json({"kind": "interval", "lo": 0, "hi": 1, key: value})

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            function_from_json({"kind": "mystery"})
        with pytest.raises(InputError):
            domain_from_json({"kind": "mystery"})

    @pytest.mark.parametrize("read, spec, message", [
        (function_from_json, {"kind": "mystery"}, "unknown function kind 'mystery'"),
        (function_from_json, {"kind": ["power"]}, "unknown function kind ['power']"),
        (function_from_json, {"kind": {"k": 1}}, "unknown function kind {'k': 1}"),
        (function_from_json, {"kind": None}, "unknown function kind None"),
        (function_from_json, {"kind": "power"}, "function spec 'power' is missing field 'k'"),
        (function_from_json, {"kind": "affine", "terms": 3},
         "bad function spec 'affine': 'int' object is not iterable"),
        (function_from_json, {"kind": "affine", "terms": [{"coef": 1}]},
         "function spec 'affine' is missing field 'spec'"),
        (function_from_json, {"kind": "affine", "terms": [{"coef": 1, "spec": {"kind": "sin",
                                                                             "freq": 0}}]},
         "sin frequency must be an int >= 1, got 0"),
        (function_from_json, {"kind": "sampled", "points": [0]},
         "function spec 'sampled' is missing field 'values'"),
        (domain_from_json, {"points": [0]}, "unknown domain kind None"),
        (domain_from_json, {"kind": ["interval"]}, "unknown domain kind ['interval']"),
        (domain_from_json, {"kind": "finite_set"},
         "domain spec 'finite_set' is missing field 'points'"),
        (domain_from_json, {"kind": "interval", "lo": "x"},
         "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
        (domain_from_json, {"kind": "interval", "lo": 2, "hi": 1, "lo_open": 0},
         "domain spec field 'lo_open' must be true or false, got 0"),
        (domain_from_json, {"kind": "punctured_interval", "base": [], "excluded": []},
         "domain spec must be a JSON object, got list"),
        (domain_from_json, {"kind": "punctured_interval", "base": {"kind": "interval"}},
         "domain spec 'punctured_interval' is missing field 'excluded'"),
    ])
    def test_spec_errors_name_the_kind(self, read, spec, message):
        """Each kind's reader is found by its name alone, so a kind that is
        no string is unknown; a missing field or a value of the wrong JSON
        type is an input error naming the kind, raised in reading order."""
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            read(spec)

    @pytest.mark.parametrize("kind, field, spec", [
        ("function", "points", {"kind": "sampled", "points": "12", "values": ["3", "5"]}),
        ("function", "values", {"kind": "sampled", "points": ["1", "2"], "values": "35"}),
        ("domain", "points", {"kind": "finite_set", "points": "12"}),
        ("domain", "excluded", {"kind": "punctured_interval", "base": {"kind": "interval"},
                                "excluded": "12"}),
    ])
    @pytest.mark.parametrize("value, got", [("12", "str"), ({"1": 0, "2": 0}, "dict"),
                                            (7, "int"), (None, "NoneType")])
    def test_scalar_lists_are_json_arrays(self, kind, field, spec, value, got):
        """A string once gave its characters and an object its keys."""
        spec = {**spec, field: value}
        message = f"bad {kind} spec {spec['kind']!r}: expected a JSON array, got {got}"
        if kind == "function":
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                function_from_json(spec)
            system = {"basis": [spec], "domain": {"kind": "finite_set", "points": [1, 2]}}
        else:
            system = {"basis": [{"kind": "power", "k": 0}], "domain": spec}
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            system_from_json(system)


class TestPointTuple:
    def test_iteration_and_indexing(self):
        t = PointTuple((1, 2, 3), OrderingClass.STRICTLY_INCREASING)
        assert list(t) == [1, 2, 3] and t[1] == 2 and len(t) == 3

    def test_backend_inference(self):
        assert PointTuple((1, 2)).backend is None
        assert PointTuple((Fraction(1), 2)).backend is Backend.EXACT
        assert PointTuple((1.0, 2)).backend is Backend.FLOAT

    def test_frozen(self):
        t = PointTuple((1, 2))
        with pytest.raises(AttributeError):
            t.points = (3, 4)
