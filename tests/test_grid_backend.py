"""One backend per grid, read when the grid is made.

A grid's backend is float if any point is a float, exact if any is a
Fraction (or the grid holds integers over a scale), and neutral if
every point is an int; a neutral grid is read at float if a function
of the table requires float, else exact.  Every table, column, matrix,
scan and window on the grid takes that one backend.  The regressions
below are the library cases where that rule answers differently from
reading each point's own backend; the CLI cannot produce them,
since every grid it reads has a definite backend, which the last tests
check."""

import json
from fractions import Fraction

import pytest

from chebconvex.cli import _parse_anchors, _parse_grid, _parse_scalar
from chebconvex.convexity import (
    check_convex_direct,
    check_convex_induced,
    check_convex_interval,
    cross_mode_agreement,
)
from chebconvex.core import (
    Backend,
    ChebyshevSystem,
    CosFn,
    ExpFn,
    Interval,
    PointTuple,
    PowerFn,
    SampledFn,
    affine,
    puncture,
)
from chebconvex.determinant import _PointTable, is_positive_chebyshev
from chebconvex.errors import BackendMismatch
from chebconvex.induced import DerivedFn, verify_induced_system
from chebconvex.systems import polynomial_system, trig_odd_system
from chebconvex.variation import Partition, variation_sum


def float_twin(points) -> list:
    return [float(x) for x in points]


# ---------------------------------------------------------------------------
# (a) ints in a grid with floats evaluate as floats

MIXED = [0, 0.5, 1, 2, 3]


@pytest.mark.parametrize("k", [1, 2])
def test_mixed_grid_positivity_is_its_float_twins(k):
    got = is_positive_chebyshev(polynomial_system(2), k, MIXED)
    assert got.verdict == "positive_on_grid"
    assert got == is_positive_chebyshev(polynomial_system(2), k, float_twin(MIXED))


@pytest.mark.parametrize("f", [PowerFn(3), affine((-1, PowerFn(3)))], ids=["convex", "concave"])
def test_mixed_grid_convexity_is_its_float_twins(f):
    """Every mode gives its float twin's verdict and witness value; a
    witness shows the points as given."""
    system, twin = polynomial_system(2), float_twin(MIXED)
    checks = [lambda g: check_convex_direct(system, f, g),
              lambda g: check_convex_induced(system, 1, f, g),
              lambda g: check_convex_interval(system, 1, 0, f, g),
              lambda g: check_convex_interval(system, 1, 1, f, g)]
    for check in checks:
        got, want = check(MIXED), check(twin)
        assert got == want
        assert repr(got.witness_value) == repr(want.witness_value)
    agreement = cross_mode_agreement(system, f, MIXED)
    assert agreement.verdicts == cross_mode_agreement(system, f, twin).verdicts
    direct = dict(agreement.verdicts)["direct"]
    assert (direct.verdict, direct.witness) == \
        (("convex_on_sample", None) if f == PowerFn(3) else ("violated", (0, 0.5, 1)))


def test_mixed_partition_sums_as_its_float_twin():
    got = variation_sum(polynomial_system(2), PowerFn(4), Partition(MIXED))
    want = variation_sum(polynomial_system(2), PowerFn(4), Partition(float_twin(MIXED)))
    assert isinstance(got, float) and repr(got) == repr(want)


# ---------------------------------------------------------------------------
# (b) a neutral grid under a float-only function is read at float

TRIG = trig_odd_system(1, -3.2, 0.0)
INTS = [-3, -2, -1]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_int_grid_of_a_float_system_is_read_at_float(k):
    got = is_positive_chebyshev(TRIG, k, INTS)
    assert got == is_positive_chebyshev(TRIG, k, float_twin(INTS))
    assert _PointTable(TRIG.basis).backend(PointTuple(INTS)) is Backend.FLOAT


def test_int_grid_derived_values_are_floats():
    fn = DerivedFn(TRIG, 1, PointTuple((-3,)), PowerFn(2))
    twin = DerivedFn(TRIG, 1, PointTuple((-3.0,)), PowerFn(2))
    for x in (-2, -1):
        assert type(fn(x)) is float and repr(fn(x)) == repr(twin(float(x)))
    got = verify_induced_system(TRIG, 1, (-3,), [-2, -1])
    want = verify_induced_system(TRIG, 1, (-3.0,), [-2.0, -1.0])
    assert got.positivity == want.positivity and repr(got.worst) == repr(want.worst)


def test_int_grid_of_derived_functions_is_read_at_the_tables_backend():
    """A derived value reads its own grid of (base..., x) at the backend
    it is asked at: the x row, exact on its own, is read at float in a
    table with the cos row."""
    parent = ChebyshevSystem((PowerFn(0), PowerFn(1), CosFn()), Interval(-4, 0))

    def report(base, grid):
        basis = tuple(DerivedFn(parent, 1, PointTuple(base), g) for g in parent.basis[1:])
        return is_positive_chebyshev(ChebyshevSystem(basis, puncture(parent.domain, base)),
                                     2, grid)
    got = report((-3,), [-2, -1])
    assert got.verdict == "positive_on_grid"
    assert got == report((-3.0,), [-2.0, -1.0])


def test_int_grid_of_exact_functions_is_read_exact():
    assert _PointTable(polynomial_system(3).basis).backend(PointTuple(INTS)) is Backend.EXACT
    report = is_positive_chebyshev(polynomial_system(3), 3, [0, 1, 2])
    assert report == is_positive_chebyshev(polynomial_system(3), 3, [Fraction(x) for x in (0, 1, 2)])


# ---------------------------------------------------------------------------
# (c) a grid reads its points' backends before any value

def test_non_scalar_point_raises_before_any_value():
    """The sampled function has no value at 3, but the grid raises first."""
    table = _PointTable((SampledFn((1, 2), (3, 4)), PowerFn(0)))
    with pytest.raises(BackendMismatch, match=r"^bool is not a scalar: True$"):
        table.columns((0, 1), PointTuple((3, True)), range(2))


@pytest.mark.parametrize("points, backend", [
    ([0, 1], None), ([], None), ([0, Fraction(1, 2)], Backend.EXACT),
    ([0, 0.5], Backend.FLOAT), ([Fraction(1), 1, 2.0], BackendMismatch),
    ([0, [1]], BackendMismatch), ([0.5, None], BackendMismatch),
])
def test_grid_reads_its_backend_when_made(points, backend):
    if backend is BackendMismatch:
        with pytest.raises(BackendMismatch):
            PointTuple(points)
    else:
        grid = PointTuple(points)
        assert grid.backend is backend and list(grid) == points
        assert [type(x) for x in grid] == [type(x) for x in points]   # kept as given


def test_function_clashing_with_the_grid_raises_at_its_first_value():
    table = _PointTable((PowerFn(0), ExpFn()))
    grid = PointTuple([Fraction(1, 2), 1])
    assert [c.values for c in table.columns((0,), grid, (0, 1))] == [[1], [1]]
    with pytest.raises(BackendMismatch):
        table.columns((0, 1), grid, (0,))


# ---------------------------------------------------------------------------
# every grid the CLI reads has a definite backend, the one --backend names

def definite(grid, backend: Backend) -> bool:
    kind = float if backend is Backend.FLOAT else Fraction
    return grid.backend is backend and all(type(x) is kind for x in grid)


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
def test_every_cli_grid_reader_gives_a_definite_backend(backend, tmp_path):
    """Rational literals, which only the exact backend reads, make grids
    that keep Fractions when their denominators do not all divide the
    largest."""
    exact = backend is Backend.EXACT
    csv = tmp_path / "grid.csv"
    csv.write_text("x,value\n0,1\n0.5,2\n2,3\n")
    plain = tmp_path / "grid.json"
    plain.write_text(json.dumps([0, 0.5, 2] + (["1/3"] if exact else [])))
    specs = ["list:0,1,2", "list:0,0.5,2", "uniform:0,1,5", "uniform:-1,2.5,4", str(csv),
             str(plain)] + (["list:1/3,1/2", "uniform:-1/3,2,4"] if exact else [])
    for spec in specs:
        assert definite(_parse_grid(spec, backend), backend), spec


@pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
def test_cli_anchors_and_endpoints_are_definite(backend, tmp_path):
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps({"a": [-1, -0.5, 0], "b": [1, 1.5, 2]}))
    exact = backend is Backend.EXACT
    for spec in [str(anchors), "-1,-0.5,0;1,1.5,2"] + (["-1/3,0;1,2"] if exact else []):
        for side in _parse_anchors(spec, backend):
            assert definite(side, backend), spec
    for text in ["0", "2", "-0.5", "0.25"] + (["-1/2"] if exact else []):
        assert type(_parse_scalar(text, backend)) is (Fraction if exact else float)
