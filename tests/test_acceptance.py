"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every expected value is either computed by an independent oracle in
this file / oracles.py or asserted with the tolerance stated alongside.
"""

import itertools
import json
import math
import random
from fractions import Fraction

from chebconvex.cli import main as cli_main
from chebconvex.convexity import (
    convexity_identity_check,
    cross_mode_agreement,
)
from chebconvex.core import (
    ConstFn,
    ExpFn,
    Interval,
    OrderingClass,
    PowerFn,
    SampledFn,
    affine,
    evaluate,
    validate_tuple,
)
from chebconvex.determinant import (
    is_positive_chebyshev,
    sylvester_check,
)
from chebconvex.divdiff import (
    classical_divided_difference,
    divided_difference,
    power_divdiff_check,
)
from chebconvex.induced import DerivedFn, verify_induced_system
from chebconvex.systems import (
    one_xsq_system,
    polynomial_system,
    trig_odd_system,
)
from chebconvex.variation import (
    RefinementStrategy,
    check_variation_bound,
    estimate_variation,
    variation_bound,
)

from oracles import (
    collocation_det_per_value,
    rand_fraction,
    rand_distinct_fractions,
    rand_increasing_fractions,
    rand_increasing_floats,
    sign_index,
    trig_induced_closed_form,
)


def conclude(num: int, passed: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_1_sylvester_identity():
    rng = random.Random(1001)
    exact_bad = 0
    for trial in range(1000):
        n = 2 + trial % 7  # cycles through 2..8
        m = [[rand_fraction(rng) for _ in range(n)] for _ in range(n)]
        for k in range(1, n):
            if sylvester_check(m, k).residual != 0:
                exact_bad += 1

    worst_rel = 0.0
    for trial in range(200):
        n = 2 + trial % 5  # cycles through 2..6
        m = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        for k in range(1, n):
            worst_rel = max(worst_rel, sylvester_check(m, k).relative_residual)

    conclude(1, exact_bad == 0 and worst_rel <= 1e-9,
             f"1000 exact matrices residual-free ({exact_bad} bad), "
             f"float worst relative residual {worst_rel:.3e} <= 1e-9")


def test_criterion_2_power_divided_differences():
    spot = classical_divided_difference(PowerFn(3), (1, 2, 3))
    spot_ok = spot == 6

    rng = random.Random(1002)
    bad = 0
    checked = 0
    for degree in range(1, 9):
        for k in range(1, min(6, degree + 1) + 1):
            for _ in range(200):
                pts = rand_distinct_fractions(rng, k)
                rep = power_divdiff_check(degree, pts)
                checked += 1
                if rep.residual != 0:
                    bad += 1
    conclude(2, spot_ok and bad == 0,
             f"[1,2,3; x^3] = {spot} (expected 6); {checked} recursion-vs-"
             f"enumeration checks, {bad} nonzero residuals")


def test_criterion_3_factorization_identities():
    rng = random.Random(1003)
    bad = 0

    # induced-system identity, polynomial systems, exact backend
    for _ in range(200):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        pts = rand_increasing_fractions(rng, n)
        rep = verify_induced_system(polynomial_system(n), k, pts[:k], pts[k:])
        if rep.max_abs_residual != 0:
            bad += 1

    # extended-determinant identity, exact backend, random polynomial f
    for _ in range(200):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        pts = rand_distinct_fractions(rng, n + 1)
        f = affine((rand_fraction(rng), PowerFn(rng.randint(0, n + 1))),
                   (rand_fraction(rng), PowerFn(rng.randint(0, n + 1))))
        if convexity_identity_check(polynomial_system(n), k, f, pts).residual != 0:
            bad += 1

    # top-prefix collapse: right side equals the slope difference
    for _ in range(200):
        n = rng.randint(2, 5)
        pts = rand_distinct_fractions(rng, n + 1)
        f = PowerFn(rng.randint(0, n + 1))
        system = polynomial_system(n)
        rep = convexity_identity_check(system, n - 1, f, pts)
        head = pts[:n - 1]
        hi = divided_difference(system, n, f, head + (pts[n],)).value
        lo = divided_difference(system, n, f, head + (pts[n - 1],)).value
        if rep.residual != 0 or rep.rhs != hi - lo:
            bad += 1

    # trigonometric system, float backend, minimum gap 0.05
    trig = trig_odd_system(1, -math.pi, 0.0)
    worst_rel = 0.0
    for _ in range(100):
        pts = list(rand_increasing_floats(rng, 4, -math.pi + 0.05, -0.05, 0.05))
        rng.shuffle(pts)
        k = rng.randint(1, 2)
        rep = convexity_identity_check(trig, k, ExpFn(), tuple(pts))
        worst_rel = max(worst_rel, rep.relative_residual)
    for _ in range(100):
        base_and_rest = rand_increasing_floats(rng, 3, -math.pi + 0.05, -0.05, 0.05)
        k = rng.randint(1, 2)
        rep = verify_induced_system(trig, k, base_and_rest[:k], base_and_rest[k:])
        worst_rel = max(worst_rel, rep.max_rel_residual)

    conclude(3, bad == 0 and worst_rel <= 1e-8,
             f"600 exact configurations residual-free ({bad} bad); trig float "
             f"worst relative residual {worst_rel:.3e} <= 1e-8")


def test_criterion_4_sign_formula_exhaustive():
    cases = 0
    mismatches = 0

    grid = tuple(Fraction(i) for i in range(-3, 5))  # 8 points
    for k in range(1, 5):
        system = polynomial_system(k + 1)
        for base in itertools.combinations(grid, k):
            for x in grid:
                if x in base:
                    continue
                cases += 1
                predicted = sign_index(base, x).predicted_sign
                value = collocation_det_per_value(system, k + 1, base + (x,))
                if value == 0 or (1 if value > 0 else -1) != predicted:
                    mismatches += 1

    trig = trig_odd_system(1, -math.pi, 0.0)
    tgrid = tuple(-math.pi + (i + 1) * math.pi / 9 for i in range(8))
    for k in (1, 2):
        for base in itertools.combinations(tgrid, k):
            for x in tgrid:
                if x in base:
                    continue
                cases += 1
                predicted = sign_index(base, x).predicted_sign
                value = collocation_det_per_value(trig, k + 1, base + (x,))
                if (1 if value > 0 else -1) != predicted:
                    mismatches += 1

    conclude(4, mismatches == 0 and cases > 1000,
             f"{cases} exhaustive sign predictions, {mismatches} mismatches")


def test_criterion_5_induced_systems_positive():
    rng = random.Random(1005)
    bases_checked = 0
    failures = 0

    # polynomial parents, dimensions 2..5, exact backend
    half_grid = tuple(Fraction(2 * j + 1, 2) for j in range(10))   # bases
    int_grid = tuple(Fraction(j) for j in range(1, 11))            # 10 points
    for n in range(2, 6):
        system = polynomial_system(n)
        for k in range(1, n):
            for _ in range(4):
                base = tuple(sorted(rng.sample(half_grid, k)))
                report = verify_induced_system(system, k, base, int_grid).positivity
                bases_checked += 1
                if not report.is_positive:
                    failures += 1

    # trigonometric parent of dimension 3, float backend
    trig = trig_odd_system(1, -math.pi, 0.0)
    coarse = [-3.0, -2.6, -2.2, -1.8, -1.4, -1.0]
    fine = tuple(-math.pi + (i + 1) * (math.pi - 0.2) / 11 + 0.05 for i in range(10))
    for k in (1, 2):
        for _ in range(6):
            base = tuple(sorted(rng.sample(coarse, k)))
            grid = tuple(x for x in fine if all(abs(x - b) > 1e-6 for b in base))
            report = verify_induced_system(trig, k, base, grid).positivity
            bases_checked += 1
            if not report.is_positive:
                failures += 1

    conclude(5, failures == 0 and bases_checked >= 50,
             f"{bases_checked} sampled bases (>= 50), {failures} induced systems "
             "failed the 10-point positivity check")


def test_criterion_6_cross_mode_equivalence():
    rng = random.Random(1006)
    system = polynomial_system(3)
    grid = tuple(0.3 * i for i in range(8))
    disagreements = 0
    for trial in range(50):
        family = trial % 3
        if family == 0:
            f = affine((rng.uniform(-2, 2), PowerFn(rng.randint(0, 4))),
                       (rng.uniform(-2, 2), PowerFn(rng.randint(0, 4))),
                       (rng.uniform(-2, 2), PowerFn(rng.randint(0, 4))))
        elif family == 1:
            f = affine((rng.uniform(-2, 2), ExpFn()),
                       (rng.uniform(-2, 2), PowerFn(2)),
                       (rng.uniform(-2, 2), PowerFn(1)))
        else:
            f = SampledFn(grid, tuple(rng.uniform(-2, 2) for _ in grid))
        report = cross_mode_agreement(system, f, grid)
        if not report.agreed:
            disagreements += 1

    # closed-form induced basis of the trig system vs the generic one
    trig = trig_odd_system(1, -math.pi, 0.0)
    worst_rel = 0.0
    for x1 in (-2.5, -1.8, -0.9):
        base = validate_tuple((x1,), OrderingClass.STRICTLY_INCREASING)
        generic = [DerivedFn(trig, 1, base, g) for g in trig.basis[1:]]
        closed = trig_induced_closed_form(x1)
        for x in (-2.9, -2.1, -1.3, -0.5, -0.2):
            if abs(x - x1) < 0.1:
                continue
            for generic_fn, closed_fn in zip(generic, closed.basis):
                g = evaluate(generic_fn, x)
                c = evaluate(closed_fn, x)
                worst_rel = max(worst_rel, abs(g - c) / max(1.0, abs(c)))

    conclude(6, disagreements == 0 and worst_rel <= 1e-12,
             f"50 random functions, {disagreements} cross-mode disagreements; "
             f"closed-form vs generic induced basis worst rel {worst_rel:.3e} <= 1e-12")


def test_criterion_7_degenerate_pair_reproduced():
    wide = one_xsq_system(Interval(), allow_unsafe_domain=True)
    value = collocation_det_per_value(wide, 2, (-1, 1))
    report = is_positive_chebyshev(wide, 2, [-1, 1])
    conclude(7, value == 0 and report.verdict == "violated"
             and report.witness == (-1, 1) and report.witness_value == 0,
             f"det at (-1, 1) = {value} exactly; symmetric grid check reports "
             f"witness {report.witness} with value {report.witness_value}")


def test_criterion_8_variation():
    system = polynomial_system(2)
    square = PowerFn(2)

    uniform = estimate_variation(system, square, Fraction(0), Fraction(1),
                                 RefinementStrategy(initial_intervals=10, rounds=3,
                                                    perturb_rounds=0))
    sums_ok = uniform.partial_sums == tuple((m, 2 - Fraction(2, m)) for m in (10, 20, 40))

    est = estimate_variation(system, square, Fraction(0), Fraction(1),
                             RefinementStrategy(initial_intervals=10, rounds=3,
                                                perturb_rounds=2, seed=88))
    running = []
    best = None
    for _, v in est.partial_sums:
        best = v if best is None or v > best else best
        running.append(best)
    monotone_ok = running == sorted(running)

    bound = variation_bound(system, square, ConstFn(0),
                            (Fraction(-1, 2), Fraction(0)),
                            (Fraction(1), Fraction(3, 2)))
    bound_ok = bound == 3 and all(v <= bound for _, v in est.partial_sums)

    rng = random.Random(1008)
    strategy = RefinementStrategy(initial_intervals=4, rounds=2,
                                  perturb_rounds=1, seed=9)
    trials_ok = True
    convex_grid = [Fraction(i, 2) for i in range(-2, 5)]  # covers anchors
    from chebconvex.convexity import check_convex_direct
    for trial in range(100):
        if trial % 2 == 0:
            g = affine((Fraction(rng.randint(0, 5)), PowerFn(2)),
                       (Fraction(rng.randint(0, 3)), PowerFn(4)),
                       (rand_fraction(rng), PowerFn(1)))
            h = affine((Fraction(rng.randint(0, 5)), PowerFn(2)),
                       (Fraction(rng.randint(0, 3)), PowerFn(4)),
                       (rand_fraction(rng), PowerFn(0)))
            a, b = Fraction(0), Fraction(1)
            grid = convex_grid
        else:
            g = affine((rng.uniform(0, 3), ExpFn()),
                       (rng.uniform(0, 3), PowerFn(2)))
            h = affine((rng.uniform(0, 3), PowerFn(2)),
                       (rng.uniform(0, 2), PowerFn(4)))
            a, b = 0.0, 1.0
            grid = [0.5 * i for i in range(-2, 5)]
        # pre-check the decomposition really is convex on a covering grid
        assert check_convex_direct(system, g, grid).verdict != "violated"
        assert check_convex_direct(system, h, grid).verdict != "violated"
        report = check_variation_bound(system, g, h, a, b, strategy=strategy)
        scale = max(1.0, abs(float(report.bound)))
        if float(report.margin) < -1e-9 * scale:
            trials_ok = False

    conclude(8, sums_ok and monotone_ok and bound_ok and trials_ok,
             f"uniform sums equal 2 - 2/m for m in (10,20,40): {sums_ok}; "
             f"running maximum nondecreasing: {monotone_ok}; bound {bound} == 3 "
             f"dominates all estimates: {bound_ok}; 100 seeded decomposition "
             f"trials nonnegative margin: {trials_ok}")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        report = json.loads(out)
        report.pop("timing_seconds", None)
        return code, json.dumps(report, sort_keys=True)

    commands = [
        ["identities", "--suite", "all", "--trials", "5", "--seed", "21"],
        ["chebcheck", "--system", "poly:2", "--grid", "uniform:0,50,40",
         "--budget", "13", "--seed", "2"],
        ["convexity", "--system", "poly:2", "--function", "power:2",
         "--grid", "uniform:0,3,4", "--mode", "agreement", "--seed", "4"],
        ["variation", "--system", "poly:2", "--g", "power:2", "--a", "0",
         "--b", "1", "--anchors=-1/2,0;1,3/2", "--m0", "4", "--rounds", "2",
         "--seed", "6"],
        ["divdiff", "--system", "poly:3", "--function", "power:4",
         "--grid", "list:1,2,5"],
    ]
    stable = True
    for argv in commands:
        code1, text1 = run(argv)
        code2, text2 = run(argv)
        if code1 != code2 or text1 != text2:
            stable = False
    conclude(9, stable,
             f"{len(commands)} CLI commands rerun with fixed seeds are "
             "byte-identical apart from the timing field")
