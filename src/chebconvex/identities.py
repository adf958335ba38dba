"""Seeded fuzz suites over the determinant identities.

Each suite is one trial function: from the suite's random stream it
draws an instance, checks one identity on it and returns whether it
held, its absolute and relative residuals and the details a failure
reports.  Exact trials must hold with residual zero; float ones within
a relative tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import partial

from .convexity import _convexity_identity
from .core import IDENTITY_SUITES, Backend, PowerFn
from .determinant import Matrix, matrix_from_rows, sylvester_check
from .divdiff import power_divdiff_check
from .errors import InputError
from .induced import verify_induced_system
from .systems import polynomial_system


def run_suite(suite: str, trials: int, seed: int, backend: Backend) -> dict:
    """``trials`` trials of ``suite`` drawn with ``seed``: the largest
    residuals and the details of at most ten failed trials."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if suite not in _TRIALS:
        raise InputError(f"unknown suite {suite!r}")
    rng = random.Random(seed)
    failures: list[dict] = []
    max_abs = 0.0
    max_rel = 0.0
    for trial in range(trials):
        ok, abs_res, rel_res, detail = _TRIALS[suite](rng, backend, seed)
        max_abs = max(max_abs, abs_res)
        max_rel = max(max_rel, rel_res)
        if not ok and len(failures) < 10:
            failures.append({"trial": trial, **detail})
    return {"trials": trials, "failures": failures,
            "max_abs_residual": max_abs, "max_rel_residual": max_rel}


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_matrix(rng: random.Random, n: int, backend: Backend) -> Matrix:
    draw = (lambda: _rand_fraction(rng)) if backend is Backend.EXACT \
        else (lambda: rng.uniform(-1.0, 1.0))
    return matrix_from_rows([[draw() for _ in range(n)] for _ in range(n)])


def _rand_distinct_fractions(rng: random.Random, count: int) -> tuple:
    pool: set[Fraction] = set()
    while len(pool) < count:
        pool.add(_rand_fraction(rng))
    return tuple(pool)


def _holds(residual, relative: float, backend: Backend, tol: float) -> bool:
    return residual == 0 if backend is Backend.EXACT else relative <= tol


def _sylvester(rng, backend, seed):
    n = rng.randint(2, 6)
    k = rng.randint(1, n - 1)
    rep = sylvester_check(_rand_matrix(rng, n, backend), k)
    return (_holds(rep.residual, rep.relative_residual, backend, 1e-9), float(rep.residual),
            rep.relative_residual, {"n": n, "k": k, "residual": rep.residual})


def _power_sum(rng, backend, seed):
    degree = rng.randint(1, 8)
    k = rng.randint(1, min(6, degree + 1))
    pts = _rand_distinct_fractions(rng, k)
    if backend is Backend.FLOAT:
        pts = tuple(float(p) for p in pts)
    rep = power_divdiff_check(degree, pts)
    return (_holds(rep.residual, rep.relative_residual, backend, 1e-9), float(rep.residual),
            rep.relative_residual, {"degree": degree, "points": pts, "residual": rep.residual})


def _induced_det(rng, backend, seed):
    n = rng.randint(3, 5)
    k = rng.randint(1, n - 1)
    pts = sorted(_rand_distinct_fractions(rng, n))
    if backend is Backend.FLOAT:
        pts = [float(p) for p in pts]
    rep = verify_induced_system(polynomial_system(n), k, tuple(pts[:k]), tuple(pts[k:]),
                                seed=seed)
    return (_holds(rep.max_abs_residual, rep.max_rel_residual, backend, 1e-8),
            rep.max_abs_residual, rep.max_rel_residual, {"n": n, "k": k, "base": pts[:k]})


def _convexity_det(rng, backend, seed, slopes: bool = False):
    """The convexity identity at shuffled distinct points; with
    ``slopes`` (k = n-1), its right side must also equal the difference
    of f's two divided differences over the first n-1 points and one of
    the last two, read from the identity's cells."""
    n = rng.randint(2, 5)
    k = n - 1 if slopes else rng.randint(1, n - 1)
    pts = list(_rand_distinct_fractions(rng, n + 1))
    rng.shuffle(pts)
    if backend is Backend.FLOAT:
        pts = [float(p) for p in pts]
    degree = rng.randint(0, n + 1)
    rep, cells = _convexity_identity(polynomial_system(n), k, PowerFn(degree), tuple(pts))
    ok = _holds(rep.residual, rep.relative_residual, backend, 1e-8)
    detail = {"n": n, "k": k, "degree": degree, "points": pts, "residual": rep.residual}
    if ok and slopes:
        diff = cells[1][-1] - cells[0][-1]
        res2 = abs(rep.rhs - diff)
        ok = res2 == 0 if backend is Backend.EXACT \
            else float(res2) <= 1e-8 * max(1.0, abs(float(diff)))
        detail["slope_difference"] = diff
    return ok, float(rep.residual), rep.relative_residual, detail


def _trig_cot(rng, backend, seed):
    while True:
        x = rng.uniform(-math.pi + 0.05, -0.05)
        y = rng.uniform(-math.pi + 0.05, -0.05)
        if abs(x - y) >= 0.05:
            break
    lhs = (math.sin(x) - math.sin(y)) / (math.cos(x) - math.cos(y))
    u = (x + y) / 2.0
    rhs = -math.cos(u) / math.sin(u)
    rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return rel <= 1e-12, abs(lhs - rhs), rel, {"x": x, "y": y, "lhs": lhs, "rhs": rhs}


#: Each suite's trial function, by the suite's name in core.IDENTITY_SUITES.
_TRIALS = dict(zip(IDENTITY_SUITES, (
    _sylvester, _induced_det, _convexity_det, partial(_convexity_det, slopes=True),
    _power_sum, _trig_cot), strict=True))
