import math
import random
from fractions import Fraction

import pytest

from chebconvex.core import (
    ConstFn,
    CosFn,
    Interval,
    NegCotFn,
    PowerFn,
    SinFn,
    evaluate,
)
from chebconvex.determinant import is_positive_chebyshev
from chebconvex.errors import DomainTooLong, InputError
from chebconvex.systems import (
    CATALOG_IDS,
    _system_from_id,
    one_xsq_system,
    polynomial_system,
    trig_even_system,
    trig_odd_system,
)

from oracles import collocation_det_per_value, trig_induced_closed_form


def positive_prefixes(system, grid) -> int:
    """The largest k such that the 1..k prefixes of ``system`` all pass
    the grid positivity check; 0 if the 1-prefix fails."""
    depth = 0
    while depth < system.dim and is_positive_chebyshev(system, depth + 1, grid).is_positive:
        depth += 1
    return depth


class TestPolynomial:
    def test_basis(self):
        assert polynomial_system(2).basis == (PowerFn(0), PowerFn(1))
        assert polynomial_system(1).basis == (PowerFn(0),)

    def test_vandermonde_value(self):
        assert collocation_det_per_value(polynomial_system(3), 3, (0, 1, 2)) == 2

    def test_bad_dimension(self):
        with pytest.raises(InputError):
            polynomial_system(0)


class TestTrigOdd:
    def test_basis_order(self):
        s = trig_odd_system(1, -math.pi, 0.0)
        assert s.basis == (ConstFn(1), CosFn(1), SinFn(1))
        assert s.dim == 3
        s2 = trig_odd_system(2, -1.0, 1.0)
        assert s2.dim == 5
        assert s2.basis[3] == CosFn(2) and s2.basis[4] == SinFn(2)

    def test_interval_too_long(self):
        with pytest.raises(DomainTooLong):
            trig_odd_system(1, 0.0, 3 * math.pi)

    def test_length_exactly_two_pi_allowed(self):
        trig_odd_system(1, 0.0, 2 * math.pi)

    def test_grid_positivity(self):
        s = trig_odd_system(1, -math.pi, 0.0)
        grid = [-math.pi + math.pi * (i + 1) / 11 for i in range(10)]
        assert is_positive_chebyshev(s, 3, grid).is_positive


class TestTrigEven:
    def test_basis(self):
        s = trig_even_system(1, -1.5, 0.0)
        assert s.basis == (CosFn(1), SinFn(1))

    def test_interval_too_long(self):
        with pytest.raises(DomainTooLong):
            trig_even_system(1, 0.0, 1.5 * math.pi)

    def test_grid_positivity(self):
        s = trig_even_system(1, -1.5, 0.0)
        grid = [-1.5 + 1.5 * (i + 1) / 11 for i in range(10)]
        assert is_positive_chebyshev(s, 2, grid).is_positive


@pytest.mark.parametrize("build", [trig_odd_system, trig_even_system])
@pytest.mark.parametrize("lo, hi", [(1.0, 0.5), (0.5, 0.5), (math.nan, 0.5), (0.5, math.nan),
                                    (Fraction(1, 2), Fraction(1, 2)),
                                    (Fraction(10 ** 400), Fraction(0))])
def test_an_empty_trig_interval_is_named(build, lo, hi):
    with pytest.raises(InputError, match=f"^empty interval: lo={lo}, hi={hi}$"):
        build(1, lo, hi)


class TestOneXsq:
    def test_closed_form_value(self):
        assert collocation_det_per_value(one_xsq_system(), 2, (1, 2)) == 3

    def test_symmetric_pair_needs_override(self):
        with pytest.raises(InputError):
            one_xsq_system(Interval())
        wide = one_xsq_system(Interval(), allow_unsafe_domain=True)
        assert collocation_det_per_value(wide, 2, (-1, 1)) == 0

    def test_grid_positive_on_half_line(self):
        assert is_positive_chebyshev(one_xsq_system(), 2, [1, 2, 3]).is_positive


class TestCatalogMetadata:
    """Prefix positivity of the catalog systems, on the grids that each
    system's domain gets below: 12 points spaced evenly inside a bounded
    interval, the integers -6..5 on the real line and 1..12 on the
    positive half-line."""

    def test_poly_prefixes_all_positive(self):
        assert positive_prefixes(polynomial_system(3), [Fraction(i) for i in range(-6, 6)]) == 3

    def test_trig_odd_verified_depth(self):
        s = trig_odd_system(1, -math.pi, 0.0)
        grid = [-math.pi + math.pi * (i + 1) / 13 for i in range(12)]
        assert positive_prefixes(s, grid) == 3

    def test_trig_even_depth_depends_on_interval(self):
        # cos changes sign inside (-2.5, 0), so already the 1-prefix fails
        # even though the full pair is positive there.
        s = trig_even_system(1, -2.5, 0.0)
        grid = [-2.5 + 2.5 * (i + 1) / 13 for i in range(12)]
        assert positive_prefixes(s, grid) == 0
        assert is_positive_chebyshev(s, 2, grid).is_positive
        # inside (-1.5, 0) the cosine keeps its sign and both prefixes pass
        s2 = trig_even_system(1, -1.5, 0.0)
        assert positive_prefixes(s2, [-1.5 + 1.5 * (i + 1) / 13 for i in range(12)]) == 2

    def test_one_xsq_depth(self):
        assert positive_prefixes(one_xsq_system(), range(1, 13)) == 2

    def test_catalog_systems_pass_default_grid_checks(self):
        cases = [
            (polynomial_system(1), [Fraction(i) for i in range(-6, 6)], 1),
            (polynomial_system(4), [Fraction(i) for i in range(-6, 6)], 4),
            (trig_odd_system(1, -math.pi, 0.0),
             [-math.pi + math.pi * (i + 1) / 13 for i in range(12)], 3),
            (trig_even_system(1, -1.5, 0.0), [-1.5 + 1.5 * (i + 1) / 13 for i in range(12)], 2),
            (one_xsq_system(), range(1, 13), 2),
        ]
        for system, grid, depth in cases:
            for k in range(1, depth + 1):
                assert is_positive_chebyshev(system, k, grid).is_positive, (system, k)


class TestTrigIdentity:
    def test_slope_ratio_is_negcot(self):
        rng = random.Random(31)
        for _ in range(50):
            x = rng.uniform(-math.pi + 0.01, -0.01)
            y = rng.uniform(-math.pi + 0.01, -0.01)
            if abs(x - y) < 1e-3:
                continue
            lhs = (math.sin(x) - math.sin(y)) / (math.cos(x) - math.cos(y))
            rhs = evaluate(NegCotFn(y), x)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_closed_form_system_shape(self):
        s = trig_induced_closed_form(-2.0)
        assert s.basis == (ConstFn(1), NegCotFn(-2.0))
        assert not s.domain.contains(-2.0)
        assert s.domain.contains(-1.0)
        with pytest.raises(InputError):
            trig_induced_closed_form(3.0)


class TestVerifiedPrefixDepth:
    def test_explicit_grid(self):
        s = trig_odd_system(1, -math.pi, 0.0)
        grid = [-3.0, -2.5, -2.0, -1.5, -1.0, -0.5]
        assert positive_prefixes(s, grid) == 3


class TestCatalogIds:
    @pytest.mark.parametrize("spec, system", [
        ("poly:3", polynomial_system(3)),
        ("trig-odd:1", trig_odd_system(1, -math.pi, 0.0)),
        ("trig-odd:2:-2.5,-0.5", trig_odd_system(2, -2.5, -0.5)),
        ("trig-even:1", trig_even_system(1, -math.pi / 2, 0.0)),
        ("trig-even:1:-1.5,0", trig_even_system(1, -1.5, 0.0)),
        ("one-xsq", one_xsq_system()),
    ])
    def test_id_is_its_constructors_system(self, spec, system):
        assert _system_from_id(spec) == system
        assert repr(_system_from_id(spec)) == repr(system)

    def test_domain_override_is_one_xsq_only(self):
        wide = Interval()
        assert _system_from_id("one-xsq", wide) == \
            one_xsq_system(wide, allow_unsafe_domain=True)
        with pytest.raises(InputError, match="takes no domain override"):
            _system_from_id("poly:2", wide)

    @pytest.mark.parametrize("spec", ["poly", "poly:", "poly:2:3", "trig-odd", "trig-odd:1:2",
                                      "trig-odd:1:a,b", "trig-odd:1:-3,-2,-1", "trig-even:1:-1,0:x",
                                      "one-xsq:"])
    def test_malformed_id_names_spec_and_form(self, spec):
        with pytest.raises(InputError, match=f"malformed system spec '{spec}'; expected "):
            _system_from_id(spec)

    def test_constructor_errors_pass_through(self):
        with pytest.raises(InputError, match="dimension must be >= 1"):
            _system_from_id("poly:0")
        with pytest.raises(DomainTooLong):
            _system_from_id("trig-even:1:-4,0")

    def test_catalog_ids_are_the_parsed_ids(self):
        assert CATALOG_IDS == ("poly", "trig-odd", "trig-even", "one-xsq")
        with pytest.raises(InputError, match="unknown system spec 'mystery:1'"):
            _system_from_id("mystery:1")
