"""Float pinned verdicts read off the whole grid's window certificate.

When the windows of a float check's direct scan pass on the float values
taken as exact (determinant._dyadic and _certified), every (n+1)-minor
of the system extended by f is >= 0 and every k- and (k+1)-prefix minor
is > 0, so every induced and interval mode is convex: each reports
``convex_on_sample`` with no tuple near zero and its closed-form counts,
and no base is pinned.

* A random differential against ``oracles.pinned_loop`` (and
  ``direct_loop`` for agreement's direct mode) on certified grids of
  trig-odd:1 and (1, x, x^2): every definite verdict of the oracle is the
  check's, and every count is the one a loop over the bases gives.
  Where the oracle meets a float denominator inside the tolerance band,
  or counts tuples near zero, the check answers: a deliberate change.
* A grid whose windows fail at exactly one window is checked base by
  base, as before: every report equals the oracle's by repr.
* A single pinned check whose windows fail makes no walk of the whole
  grid: its scan reads the windows alone.
"""

import itertools
import math
import random

import pytest

from chebconvex import determinant
from chebconvex.convexity import (
    check_convex_direct,
    check_convex_induced,
    check_convex_interval,
    cross_mode_agreement,
)
from chebconvex.core import ExpFn, PowerFn, SampledFn, SinFn, affine
from chebconvex.determinant import _certified, _dyadic, _PointTable, _scan_columns, sorted_grid
from chebconvex.errors import InputError
from chebconvex.systems import polynomial_system, trig_odd_system

from oracles import direct_loop, pinned_loop

TRIG = trig_odd_system(1, -math.pi, 0.0)
POLY = polynomial_system(3)
CUBIC_EXP = affine((1.0, ExpFn()), (0.5, PowerFn(3)))   # convex for both systems
CASES = [(TRIG, (-3.1, -0.05), ExpFn()), (TRIG, (-3.1, -0.05), CUBIC_EXP),
         (POLY, (-2.0, 2.0), ExpFn()), (POLY, (1.6, 4.6), SinFn(1)), (POLY, (-2.0, 2.0), CUBIC_EXP)]


def result(fn, *args, **kwargs):
    """What ``fn`` returns, or the error it raises as "Class: message"."""
    try:
        return fn(*args, **kwargs)
    except (InputError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def failing_windows(system, f, grid, tol_factor) -> list | None:
    """The windows of consecutive columns of the direct scan of ``grid``
    that fail, by first position, or None where _dyadic refuses them."""
    table = _PointTable(system.basis + (f,), sorted_grid(grid))
    n, m = system.dim + 1, len(grid)
    forms = _scan_columns(table, tuple(range(n)), range(m), [range(m)])
    cols = [forms[j][0] for j in range(m)]
    return None if _dyadic(cols, n, False, tol_factor) is None else [
        s for s in range(m) if _certified([], n, False, cols[s:]) == 0]


def base_counts(m: int, n: int, k: int, ell) -> dict:
    """The counts of the loop over every base: a base is checked when
    its positions leave n - k + 1 or more in the mode's gap."""
    r, checked, tuples = n - k + 1, 0, 0
    for base in itertools.combinations(range(m), k):
        lo, hi = (-1, m) if ell is None else ((base[ell - 1] if ell else -1),
                                              (base[ell] if ell < k else m))
        gap = sum(1 for j in range(lo + 1, hi) if j not in base)
        if gap >= r:
            checked, tuples = checked + 1, tuples + math.comb(gap, r)
    return dict(tuples_checked=tuples, bases_checked=checked,
                bases_skipped=math.comb(m, k) - checked, indeterminate_count=0)


def random_case(rng: random.Random):
    """A float grid of 5-8 points of width 1e-3 to 2 inside one case's
    interval, and a tolerance factor from 1e-10 to 1."""
    system, (lo, hi), f = rng.choice(CASES)
    m, width = rng.randint(5, 8), 10 ** rng.uniform(-3, math.log10(2))
    start = rng.uniform(lo, hi - width)
    grid = sorted({start + width * rng.random() for _ in range(m)} | {start, start + width})
    return system, f, grid, 10 ** rng.uniform(-10, 0)


def certified_cases(rng: random.Random, count: int) -> list:
    cases = []
    while len(cases) < count:
        system, f, grid, tol = random_case(rng)
        if len(grid) >= system.dim + 1 and failing_windows(system, f, grid, tol) == []:
            cases.append((system, f, grid, tol))
    return cases


def test_certified_pinned_checks_match_every_definite_verdict():
    """Every mode of each case, alone and in agreement; two of them, at
    random, against the oracle, whose loop is slow."""
    met, rng = set(), random.Random(20)
    for system, f, grid, tol in certified_cases(rng, 30):
        n, m = system.dim, len(grid)
        pinned = [(k, ell) for k in range(1, n) for ell in (None, *range(k + 1))]
        asked = rng.sample(pinned, 2)
        labeled = dict(cross_mode_agreement(system, f, grid, tol_factor=tol).verdicts)
        oracle = result(direct_loop, system, f, grid, tol_factor=tol)
        if not isinstance(oracle, str) and oracle.verdict != "indeterminate":
            assert labeled["direct"].verdict == oracle.verdict
        for k, ell in pinned:
            alone = check_convex_induced(system, k, f, grid, tol_factor=tol) if ell is None \
                else check_convex_interval(system, k, ell, f, grid, tol_factor=tol)
            label = f"induced:k={k}" if ell is None else f"interval:k={k}:ell={ell}"
            assert labeled[label] == alone
            counts = base_counts(m, n, k, ell)
            assert (alone.verdict, alone.witness, alone.witness_base) == (
                "convex_on_sample", None, None)
            assert {key: getattr(alone, key) for key in counts} == counts
            if (k, ell) not in asked:
                continue
            oracle = result(pinned_loop, system, k, f, grid, ell, tol_factor=tol)
            if isinstance(oracle, str):
                met.add(oracle.split(":")[0])
                continue
            met.add(oracle.verdict)
            if oracle.verdict != "indeterminate":
                assert oracle.verdict == alone.verdict
            assert {key: getattr(oracle, key) for key in counts if key != "indeterminate_count"} \
                == {key: v for key, v in counts.items() if key != "indeterminate_count"}
    # the cases reach the oracle's definite verdicts and the deliberate change
    assert {"convex_on_sample", "SingularDenominator"} <= met


def kinked_exp(grid, at: int, drop: float) -> SampledFn:
    """e^x on ``grid``, convex for trig-odd:1, less ``drop`` at position
    ``at``, which fails the windows of 4 columns that it lowers."""
    return SampledFn(tuple(grid), tuple(math.exp(x) - (drop if j == at else 0)
                                        for j, x in enumerate(grid)))


GRID = [-3.0 + 0.4 * j for j in range(7)]
ONE_WINDOW = {      # the one failing window: (system, f, grid)
    0: (TRIG, kinked_exp(GRID, 1, 0.01), GRID),
    1: (TRIG, kinked_exp(GRID, 2, 0.01), GRID),
    2: (TRIG, kinked_exp(GRID, 5, 0.05), GRID),
    3: (TRIG, kinked_exp(GRID, 6, 0.05), GRID),
    "sin": (POLY, SinFn(1), [1.0, 1.6, 1.7, 1.8, 2.0, 2.2, 2.4]),
}


@pytest.mark.parametrize("case", list(ONE_WINDOW))
def test_one_failing_window_keeps_the_per_base_reports(case):
    """Every standalone pinned check and agreement equals the oracle by
    repr, float values included, or raises its error."""
    system, f, grid = ONE_WINDOW[case]
    assert failing_windows(system, f, grid, 1e-10) == [0 if case == "sin" else case]
    want = [result(check_convex_direct, system, f, grid)]
    for k in range(1, system.dim):
        for ell in (None, *range(k + 1)):
            oracle = result(pinned_loop, system, k, f, grid, ell)
            got = result(check_convex_induced, system, k, f, grid) if ell is None \
                else result(check_convex_interval, system, k, ell, f, grid)
            assert repr(got) == repr(oracle), (k, ell)
            want.append(oracle)
    assert any(getattr(v, "verdict", "error") != "convex_on_sample" for v in want[1:])
    errors = [r for r in want if isinstance(r, str)]
    got = result(cross_mode_agreement, system, f, grid)
    assert repr(errors[0] if errors else want) == repr(
        got if isinstance(got, str) else [v for _, v in got.verdicts])


@pytest.mark.parametrize("check", [
    lambda f, grid: check_convex_induced(TRIG, 1, f, grid),
    lambda f, grid: check_convex_interval(TRIG, 2, 1, f, grid)], ids=["induced", "interval"])
def test_a_failing_window_makes_no_direct_walk(monkeypatch, check):
    """The scans walked are the bases' alone, of m - k columns each."""
    walked, walk = [], determinant._walk
    monkeypatch.setattr(determinant, "_walk", lambda cols, *rest: walked.append(len(cols))
                        or walk(cols, *rest))
    f = kinked_exp(GRID, 1, 0.01)
    got = check(f, GRID)
    assert got.verdict != "convex_on_sample" and walked
    assert len(GRID) not in walked
