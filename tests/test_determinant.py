import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chebconvex.core import Interval
from chebconvex.determinant import (
    ResidualReport,
    det,
    increasing_tuples,
    is_positive_chebyshev,
    sorted_grid,
    sylvester_check,
)
from chebconvex.errors import (
    BackendMismatch,
    IndexOutOfRange,
    InputError,
    InsufficientGrid,
    NonSquareMatrix,
)
from chebconvex.systems import one_xsq_system, polynomial_system, trig_odd_system

from oracles import (
    cofactor_det,
    collocation_det_per_value,
    collocation_matrix_per_value,
    rand_fraction,
    rand_increasing_fractions,
    row_det,
    sorted_grid_formula,
    sylvester_by_rows,
)


def identity_rows(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def float_entry(rng: random.Random):
    """Small magnitudes, so pivot ties and exact zeros are common, mixed
    with ints and with unrounded floats."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((-2, -1, 0, 1, 2))
    if kind == 1:
        return float(rng.choice((-2, -1, 0, 1, 2)))
    if kind == 2:
        return rng.choice((-1.5, -0.5, 0.5, 1.5))
    return rng.uniform(-3.0, 3.0)


def exact_matrix(rng: random.Random, n: int) -> list:
    kind = rng.randrange(3)
    if kind == 0:       # int-only
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[rand_fraction(rng, 4, 4) if rng.random() < 0.7 else Fraction(0)
                 for _ in range(n)] for _ in range(n)]
    if kind == 2:       # a zero column
        j = rng.randrange(n)
        for row in rows:
            row[j] = Fraction(0)
    return rows


class TestDetMatchesRowElimination:
    """det against the row-wise elimination of oracles.py: floats equal
    by repr, exact results equal Fractions."""

    def test_float(self):
        rng = random.Random(11)
        for n in range(1, 8):
            for _ in range(300):
                rows = [[float_entry(rng) for _ in range(n)] for _ in range(n)]
                if all(isinstance(v, int) for row in rows for v in row):
                    rows[0][0] = float(rows[0][0])
                assert repr(det(rows)) == repr(row_det(rows)), rows

    def test_exact(self):
        rng = random.Random(12)
        for n in range(1, 8):
            for _ in range(300):
                m = exact_matrix(rng, n)
                got = det(m)
                assert isinstance(got, Fraction)
                assert got == row_det(m), m


class TestDet:
    def test_identity(self):
        assert det(identity_rows(3)) == 1

    def test_two_by_two(self):
        assert det([[1, 1], [1, 2]]) == 1

    def test_matches_cofactor_oracle_exact(self):
        rng = random.Random(101)
        for n in range(1, 7):
            for _ in range(12):
                rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
                assert det(rows) == cofactor_det(rows)

    def test_matches_cofactor_oracle_float(self):
        rng = random.Random(102)
        for n in range(1, 7):
            for _ in range(12):
                rows = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
                got = det(rows)
                want = cofactor_det(rows)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_singular_exact_zero(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert det(rows) == 0

    def test_zero_pivot_needs_row_swap(self):
        rows = [[0, 1], [1, 0]]
        assert det(rows) == -1

    def test_non_square_rejected(self):
        """Non-square, ragged and empty matrices alike, for det and for
        sylvester_check, before its k is read."""
        for rows in [[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]], []:
            with pytest.raises(NonSquareMatrix, match="not a square matrix"):
                det(rows)
            with pytest.raises(NonSquareMatrix, match="not a square matrix"):
                sylvester_check(rows, 0)

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariance(self, n, data):
        rows = [[Fraction(data.draw(st.integers(-5, 5))) for _ in range(n)]
                for _ in range(n)]
        t = [[rows[j][i] for j in range(n)] for i in range(n)]
        assert det(rows) == det(t)


class TestCollocation:
    def test_vandermonde_product_exact(self):
        rng = random.Random(7)
        for n in range(2, 6):
            system = polynomial_system(n)
            for _ in range(10):
                pts = rand_increasing_fractions(rng, n)
                expected = Fraction(1)
                for i in range(n):
                    for j in range(i + 1, n):
                        expected *= pts[j] - pts[i]
                assert collocation_det_per_value(system, n, pts) == expected

    def test_vandermonde_product_float(self):
        rng = random.Random(8)
        system = polynomial_system(4)
        for _ in range(20):
            pts = tuple(sorted(rng.uniform(-2, 2) for _ in range(4)))
            expected = 1.0
            for i in range(4):
                for j in range(i + 1, 4):
                    expected *= pts[j] - pts[i]
            assert collocation_det_per_value(system, 4, pts) == pytest.approx(expected, rel=1e-12)

    def test_one_xsq_closed_form(self):
        system = one_xsq_system()
        assert collocation_det_per_value(system, 2, (1, 2)) == 3
        wide = one_xsq_system(Interval(), allow_unsafe_domain=True)
        assert collocation_det_per_value(wide, 2, (-1, 1)) == 0

    def test_column_swap_antisymmetry(self):
        rng = random.Random(9)
        system = polynomial_system(3)
        for _ in range(20):
            pts = list(rand_increasing_fractions(rng, 3))
            base = det(collocation_matrix_per_value(system.basis, tuple(pts)))
            pts[0], pts[2] = pts[2], pts[0]
            swapped = det(collocation_matrix_per_value(system.basis, tuple(pts)))
            assert swapped == -base


class TestPositivity:
    def test_poly_positive_on_grid(self):
        report = is_positive_chebyshev(polynomial_system(3), 3, [0, 1, 2, 3, 4])
        assert report.verdict == "positive_on_grid"
        assert report.exhaustive and report.tuples_checked == 10

    def test_one_xsq_symmetric_pair_witness(self):
        wide = one_xsq_system(Interval(), allow_unsafe_domain=True)
        report = is_positive_chebyshev(wide, 2, [-1, 1])
        assert report.verdict == "violated"
        assert report.witness == (-1, 1)
        assert report.witness_value == 0

    def test_one_xsq_lex_smallest_witness(self):
        # On {-1, 0, 1} the pair (-1, 0) already violates and precedes
        # (-1, 1) lexicographically.
        wide = one_xsq_system(Interval(), allow_unsafe_domain=True)
        report = is_positive_chebyshev(wide, 2, [-1, 0, 1])
        assert report.verdict == "violated"
        assert report.witness == (-1, 0)
        assert report.witness_value == -1

    def test_trig_positive_on_grid(self):
        system = trig_odd_system(1, -math.pi, 0.0)
        grid = [-math.pi + (i + 1) * math.pi / 13 for i in range(12)]
        report = is_positive_chebyshev(system, 3, grid)
        assert report.verdict == "positive_on_grid"

    def test_insufficient_grid(self):
        with pytest.raises(InsufficientGrid):
            is_positive_chebyshev(polynomial_system(3), 3, [0, 1])

    def test_sampling_is_deterministic(self):
        system = polynomial_system(2)
        grid = list(range(30))
        a = is_positive_chebyshev(system, 2, grid, budget=10, seed=42)
        b = is_positive_chebyshev(system, 2, grid, budget=10, seed=42)
        assert not a.exhaustive and a == b

    def test_increasing_tuples_exhaustive_order(self):
        tuples, exhaustive = increasing_tuples((1, 2, 3), 2)
        assert exhaustive and tuples == [(1, 2), (1, 3), (2, 3)]

    def test_increasing_tuples_budget(self):
        tuples, exhaustive = increasing_tuples(tuple(range(30)), 3, budget=11, seed=5)
        assert not exhaustive and len(tuples) == 11
        assert all(a < b < c for a, b, c in tuples)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_checks_nothing_and_is_rejected(self, budget):
        with pytest.raises(InputError, match="tuple budget must be >= 1"):
            increasing_tuples((1, 2, 3), 2, budget=budget)
        with pytest.raises(InputError, match="tuple budget must be >= 1"):
            is_positive_chebyshev(polynomial_system(3), 3, (0, 1, 2, 3), budget=budget)


class TestSylvester:
    def test_identity_matrix(self):
        m = identity_rows(5)
        for k in range(1, 5):
            rep = sylvester_check(m, k)
            assert rep.lhs == 1 and rep.rhs == 1 and rep.residual == 0

    @staticmethod
    def bordered_minors(rows, k, monkeypatch):
        """The matrix of bordered minors that sylvester_check passes to det."""
        seen = []
        monkeypatch.setattr("chebconvex.determinant.det", lambda b: seen.append(b) or det(b))
        sylvester_check(rows, k)
        monkeypatch.undo()
        assert len(seen) == 1
        return seen[0]

    def test_bordered_minor_identity(self, monkeypatch):
        assert self.bordered_minors(identity_rows(4), 2, monkeypatch) == [[1, 0], [0, 1]]

    def test_bordered_minor_matches_cofactor(self, monkeypatch):
        rng = random.Random(11)
        rows = [[rand_fraction(rng) for _ in range(4)] for _ in range(4)]
        minors = self.bordered_minors(rows, 2, monkeypatch)
        for i in (2, 3):
            for j in (2, 3):
                sub = [[rows[r][c] for c in (0, 1, j)] for r in (0, 1, i)]
                assert minors[i - 2][j - 2] == cofactor_det(sub)

    @pytest.mark.parametrize("draw", [lambda rng: rand_fraction(rng),
                                      lambda rng: rng.uniform(-1, 1)], ids=["exact", "float"])
    def test_both_sides_match_row_determinants(self, draw):
        """Both sides equal, by repr, those of every minor taken as its
        own row-wise determinant (oracles.sylvester_by_rows); small
        entries of the float draws are exact zeros or ties too."""
        rng = random.Random(16)
        for n in range(2, 7):
            for _ in range(25):
                rows = [[draw(rng) if rng.random() < 0.8 else rng.choice((0, 1))
                         for _ in range(n)] for _ in range(n)]
                for k in range(1, n):
                    got, want = sylvester_check(rows, k), sylvester_by_rows(rows, k)
                    assert repr((got.lhs, got.rhs)) == repr((want.lhs, want.rhs)), (rows, k)

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_outside_range(self, k):
        with pytest.raises(IndexOutOfRange, match=f"k={k} outside 1..3"):
            sylvester_check(identity_rows(4), k)

    def test_random_rational_residual_exactly_zero(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(2, 6)
            rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
            for k in range(1, n):
                assert sylvester_check(rows, k).residual == 0

    def test_degenerate_leading_block(self):
        # Zero leading 2x2 block: both sides still computed, no division.
        rows = [[Fraction(0)] * 2 + [rand_fraction(random.Random(13 + i))
                                     for i in range(2)] for _ in range(2)]
        rows += [[rand_fraction(random.Random(17 + i + j)) for j in range(4)]
                 for i in range(2)]
        rep = sylvester_check(rows, 2)
        assert rep.residual == 0

    def test_float_relative_residual(self):
        rng = random.Random(14)
        for _ in range(20):
            n = rng.randint(2, 6)
            rows = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
            for k in range(1, n):
                assert sylvester_check(rows, k).relative_residual <= 1e-9

    def test_exact_relative_residual_past_the_float_range(self):
        rep = sylvester_check([[10 ** 400, 1], [2, 3]], 1)
        assert rep.residual == 0 and rep.relative_residual == 0.0

    def test_float_relative_residual_is_the_float_division(self):
        """Bit for bit: the residual over the larger of 1.0 and the two
        sides' sizes, each a float."""
        rng = random.Random(16)
        for _ in range(20):
            n = rng.randint(2, 6)
            rows = [[rng.uniform(-1, 1) * 10 ** rng.randint(-3, 3) for _ in range(n)]
                    for _ in range(n)]
            for k in range(1, n):
                rep = sylvester_check(rows, k)
                want = rep.residual / max(1.0, abs(rep.lhs), abs(rep.rhs))
                assert repr(rep.relative_residual) == repr(want)

    @pytest.mark.parametrize("draw", [lambda rng: rand_fraction(rng),
                                      lambda rng: rng.uniform(-1, 1)], ids=["exact", "float"])
    def test_the_report_is_a_residual_report_of_its_inputs(self, draw):
        rng = random.Random(15)
        for n in range(2, 6):
            m = [[draw(rng) for _ in range(n)] for _ in range(n)]
            for k in range(1, n):
                rep = sylvester_check(m, k)
                assert isinstance(rep, ResidualReport)
                assert (rep.n, rep.k) == (n, k)
                assert rep.residual == abs(rep.lhs - rep.rhs)
                assert rep.relative_residual == \
                    float(rep.residual) / max(1.0, abs(float(rep.lhs)), abs(float(rep.rhs)))

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_matrices_property(self, n, data):
        rows = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
        k = data.draw(st.integers(1, n - 1))
        assert sylvester_check(rows, k).residual == 0


class TestPhiExamples:
    def test_power_basis_prefix(self):
        system = polynomial_system(3)
        assert collocation_det_per_value(system, 3, (0, 1, 2)) == 2
        assert collocation_det_per_value(system, 2, (Fraction(1, 2), Fraction(3, 2))) == 1
        assert collocation_det_per_value(system, 1, (7,)) == 1

    def test_membership_enforced(self):
        from chebconvex.errors import EvaluationOutsideSupport
        with pytest.raises(EvaluationOutsideSupport):
            collocation_det_per_value(one_xsq_system(), 2, (-1, 1))

    def test_prefix_uses_first_k_functions(self):
        system = polynomial_system(4)
        # 2-prefix is (1, x): classical Vandermonde of two points
        assert collocation_det_per_value(system, 2, (3, 10)) == 7
        assert evaluate_det_equals(system)


def evaluate_det_equals(system):
    m = collocation_matrix_per_value(system.basis[:2], (3, 10))
    return det(m) == 7 and m[0][1] == 1 and m[1][0] == 3


class TestMatrixType:
    """A given matrix is its rows, whose entries det reads once."""

    def test_entry_count_checked(self):
        with pytest.raises(NonSquareMatrix):
            det([[1, 2], [3]])

    def test_mixed_backend_rejected(self):
        with pytest.raises(BackendMismatch):
            det([[Fraction(1), 2.0], [0, 1]])
        with pytest.raises(BackendMismatch):
            sylvester_check([[Fraction(1), 2.0], [0, 1]], 1)


# ---------------------------------------------------------------------------
# sorted_grid validates a grid as given and sorts only one that fails

def grid_outcome(fn, grid, min_gap):
    try:
        return repr(tuple(fn(grid, min_gap)))
    except (InputError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


EXACT_GRID = st.lists(st.one_of(st.integers(-4, 4),
                                st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))),
                      max_size=7)
FLOAT_GRID = st.lists(st.one_of(st.integers(-4, 4), st.floats(-3, 3, allow_nan=False),
                                st.sampled_from([0.5, 0.5 + 1e-12, 1.0, 1.0 + 2e-10])),
                      max_size=7)


@settings(max_examples=400, deadline=None)
@given(st.one_of(EXACT_GRID, FLOAT_GRID, st.lists(st.sampled_from(
           [0, 1, Fraction(1, 2), 0.5, True, 2.0]), max_size=5)),
       st.booleans(), st.sampled_from([0.0, 1e-9, 0.3]))
def test_sorted_grid_matches_formula(values, presorted, min_gap):
    """Increasing, unsorted, duplicate, too close and mixed-backend grids
    give the grid or the error and message of sorting first."""
    grid = sorted(values) if presorted else values
    assert grid_outcome(sorted_grid, grid, min_gap) == \
        grid_outcome(sorted_grid_formula, grid, min_gap)


@pytest.mark.parametrize("grid, min_gap, message", [
    ([0, Fraction(1, 2), 2], 0.0, None),
    ([2, 0, Fraction(1, 2)], 0.0, None),
    ([0, 1, 1, 2], 0.0, "points[1]=1 !< points[2]=1"),
    ([2, 1, 0, 1], 0.0, "points[1]=1 !< points[2]=1"),
    ([0.0, 0.5, 0.5 + 1e-12], 1e-9, "|points[1] - points[2]| < min gap 1e-09"),
    ([0.5 + 1e-12, 0.0, 0.5], 1e-9, "|points[1] - points[2]| < min gap 1e-09"),
])
def test_sorted_grid_errors(grid, min_gap, message):
    want = sorted_grid_formula(grid, min_gap) if message is None else f"OrderingViolation: {message}"
    assert grid_outcome(sorted_grid, grid, min_gap) == \
        (repr(want) if message is None else want)
