"""Command-line front end.

Five subcommands wrap the library: ``chebcheck`` (grid positivity),
``divdiff`` (generalized and classical divided differences),
``convexity`` (the three equivalent checks plus cross-mode agreement),
``identities`` (seeded fuzz suites over the determinant identities) and
``variation`` (refinement estimates and decomposition bounds).

Every run emits a single JSON report (stdout or --out).  Exit codes:
0 = pass, 1 = a violation was found, 2 = input error.  Reports are
reproducible: the same config and seed give byte-identical output
except for the timing field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .core import (
    Backend,
    ChebyshevSystem,
    ConstFn,
    CosFn,
    ExpFn,
    FunctionSpec,
    Interval,
    NegCotFn,
    PowerFn,
    SampledFn,
    SinFn,
    function_from_json,
    scalar_to_json,
    system_from_json,
)
from .determinant import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    is_positive_chebyshev,
)
from .divdiff import classical_divided_difference, divided_difference
from .convexity import (
    check_convex_direct,
    check_convex_induced,
    check_convex_interval,
    cross_mode_agreement,
)
from .errors import BoundViolated, ChebconvexError, InputError
from .identities import IDENTITY_SUITES, run_suite
from .systems import one_xsq_system, polynomial_system, trig_even_system, trig_odd_system
from .variation import (
    RefinementStrategy,
    check_variation_bound,
    estimate_variation,
)

class _JsonArgumentParser(argparse.ArgumentParser):
    """Argument errors come back as structured JSON, never bare text."""

    def error(self, message):
        _emit({"version": __version__, "command": "argparse",
               "error": {"type": "ArgumentError", "message": message}}, None)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# input parsing

def _parse_scalar(text: str, backend: Backend):
    text = text.strip()
    if backend is Backend.EXACT:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad exact scalar {text!r}: {exc}") from None
    try:
        return float(text)
    except ValueError as exc:
        raise InputError(f"bad float scalar {text!r}: {exc}") from None


def _parse_system(spec: str, backend: Backend, unsafe_domain: str | None) -> ChebyshevSystem:
    if spec is None:
        raise InputError("--system is required")
    if os.path.exists(spec):
        with open(spec) as fh:
            return system_from_json(json.load(fh))
    parts = spec.split(":")
    kind = parts[0]
    if kind == "poly":
        if len(parts) != 2:
            raise InputError("poly system spec is poly:N")
        return polynomial_system(int(parts[1]))
    if kind in ("trig-odd", "trig-even"):
        if len(parts) == 2:
            lo, hi = (-math.pi, 0.0) if kind == "trig-odd" else (-math.pi / 2, 0.0)
        elif len(parts) == 3:
            lo_s, hi_s = parts[2].split(",")
            lo, hi = float(lo_s), float(hi_s)
        else:
            raise InputError(f"{kind} system spec is {kind}:N[:lo,hi]")
        n = int(parts[1])
        return trig_odd_system(n, lo, hi) if kind == "trig-odd" \
            else trig_even_system(n, lo, hi)
    if kind == "one-xsq":
        if unsafe_domain is None:
            return one_xsq_system()
        if unsafe_domain == "full":
            domain = Interval()
        else:
            lo_s, hi_s = unsafe_domain.split(",")
            domain = Interval(None if not lo_s else _parse_scalar(lo_s, backend),
                              None if not hi_s else _parse_scalar(hi_s, backend))
        return one_xsq_system(domain, allow_unsafe_domain=True)
    raise InputError(f"unknown system spec {spec!r} "
                     "(expected a JSON path or poly:N / trig-odd:N[:lo,hi] / "
                     "trig-even:N[:lo,hi] / one-xsq)")


def _parse_function(spec: str, backend: Backend) -> FunctionSpec:
    if spec is None:
        raise InputError("--function is required")
    if os.path.exists(spec):
        if spec.endswith(".csv"):
            return _sampled_from_csv(spec, backend)
        with open(spec) as fh:
            return function_from_json(json.load(fh))
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "power":
            return PowerFn(int(parts[1]))
        if kind == "cos":
            return CosFn(int(parts[1]) if len(parts) > 1 else 1)
        if kind == "sin":
            return SinFn(int(parts[1]) if len(parts) > 1 else 1)
        if kind == "exp":
            return ExpFn()
        if kind == "const":
            return ConstFn(_parse_scalar(parts[1], backend))
        if kind == "negcot":
            return NegCotFn(_parse_scalar(parts[1], Backend.FLOAT))
    except IndexError:
        raise InputError(f"function spec {spec!r} is missing its parameter") from None
    raise InputError(f"unknown function spec {spec!r} "
                     "(expected a JSON/CSV path or power:k / cos[:m] / sin[:m] / "
                     "exp / const:c / negcot:shift)")


def _sampled_from_csv(path: str, backend: Backend) -> SampledFn:
    """Two columns point,value; a non-numeric first row is a header."""
    points, values = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise InputError(f"sampled CSV row needs two columns: {row!r}")
            try:
                p = _parse_scalar(row[0], backend)
                v = _parse_scalar(row[1], backend)
            except InputError:
                if not points:  # header row
                    continue
                raise
            points.append(p)
            values.append(v)
    if not points:
        raise InputError(f"no data rows in {path}")
    return SampledFn(tuple(points), tuple(values))


def _parse_grid(spec: str, backend: Backend) -> tuple:
    if spec is None:
        raise InputError("--grid is required")
    if spec.startswith("uniform:"):
        try:
            a_s, b_s, m_s = spec[len("uniform:"):].split(",")
            a = _parse_scalar(a_s, backend)
            b = _parse_scalar(b_s, backend)
            m = int(m_s)
        except (ValueError, InputError) as exc:
            raise InputError(f"bad uniform grid {spec!r}: {exc}") from None
        if m < 2 or not a < b:
            raise InputError(f"uniform grid needs a < b and m >= 2, got {spec!r}")
        if backend is Backend.EXACT:
            return tuple(Fraction(a) + (Fraction(b) - Fraction(a)) * Fraction(i, m - 1)
                         for i in range(m))
        return tuple(float(a) + (float(b) - float(a)) * (i / (m - 1)) for i in range(m))
    if spec.startswith("list:"):
        return tuple(_parse_scalar(s, backend) for s in spec[len("list:"):].split(","))
    if os.path.exists(spec):
        if spec.endswith(".csv"):
            pts = []
            with open(spec, newline="") as fh:
                for row in csv.reader(fh):
                    if row and row[0].strip():
                        try:
                            pts.append(_parse_scalar(row[0], backend))
                        except InputError:
                            if pts:
                                raise
            return tuple(pts)
        with open(spec) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise InputError(f"grid JSON must be a list, got {type(data).__name__}")
        # JSON floats in an exact grid are read as decimal literals
        return tuple(_parse_scalar(v if isinstance(v, str) else repr(v), backend)
                     for v in data)
    raise InputError(f"grid {spec!r} is neither a file nor uniform:a,b,m nor list:v1,v2,...")


def _parse_anchors(spec: str, backend: Backend) -> tuple[tuple, tuple]:
    """Either a JSON file {"a": [...], "b": [...]} or inline a1,a2;b1,b2."""
    if os.path.exists(spec):
        with open(spec) as fh:
            data = json.load(fh)
        try:
            a = tuple(_parse_scalar(str(v), backend) for v in data["a"])
            b = tuple(_parse_scalar(str(v), backend) for v in data["b"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"anchor JSON needs lists 'a' and 'b': {exc}") from None
        return a, b
    try:
        a_s, b_s = spec.split(";")
        return (tuple(_parse_scalar(s, backend) for s in a_s.split(",")),
                tuple(_parse_scalar(s, backend) for s in b_s.split(",")))
    except ValueError as exc:
        raise InputError(f"bad anchors {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# report plumbing

def _jsonify(value):
    """JSON form of a report value; a report dataclass becomes the dict
    of all its fields."""
    if value is None or isinstance(value, (bool, str, int, float)):
        return scalar_to_json(value) if isinstance(value, (int, float)) \
            and not isinstance(value, bool) else value
    if isinstance(value, Fraction):
        return scalar_to_json(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return str(value)


def _estimate_dict(est) -> dict:
    return {"partial_sums": _jsonify(est.partial_sums), "best": _jsonify(est.best),
            "converged": est.converged}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: _jsonify(v) for k, v in sorted(vars(args).items()) if k not in skip}


# ---------------------------------------------------------------------------
# subcommands; each returns (results dict, exit code)

def _cmd_chebcheck(args) -> tuple[dict, int]:
    backend = Backend(args.backend)
    system = _parse_system(args.system, backend, args.unsafe_domain)
    grid = _parse_grid(args.grid, backend)
    k = args.k if args.k is not None else system.dim
    report = is_positive_chebyshev(system, k, grid, budget=args.budget,
                                   seed=args.seed, tol_factor=args.tol)
    return {"positivity": _jsonify(report)}, 0 if report.is_positive else 1


def _cmd_divdiff(args) -> tuple[dict, int]:
    backend = Backend(args.backend)
    system = _parse_system(args.system, backend, args.unsafe_domain)
    f = _parse_function(args.function, backend)
    points = _parse_grid(args.grid, backend)
    k = args.k if args.k is not None else len(points)
    dd = divided_difference(system, k, f, points, tol_factor=args.tol)
    classical = classical_divided_difference(f, points)
    return {
        "order": dd.order,
        "points": _jsonify(dd.points.points),
        "value": _jsonify(dd.value),
        "numerator": _jsonify(dd.numerator),
        "denominator": _jsonify(dd.denominator),
        "classical_value": _jsonify(classical),
    }, 0


def _cmd_convexity(args) -> tuple[dict, int]:
    backend = Backend(args.backend)
    system = _parse_system(args.system, backend, args.unsafe_domain)
    f = _parse_function(args.function, backend)
    grid = _parse_grid(args.grid, backend)
    common = dict(budget=args.budget, seed=args.seed, tol_factor=args.tol)
    if args.mode == "agreement":
        k_list = [args.k] if args.k is not None else None
        rep = cross_mode_agreement(system, f, grid, k_list=k_list, **common)
        results = {
            "verdicts": {label: _jsonify(v) for label, v in rep.verdicts},
            "disagreements": _jsonify(rep.disagreements),
            "agreed": rep.agreed,
        }
        any_violated = any(v.verdict == "violated" for _, v in rep.verdicts)
        return results, 1 if (rep.disagreements or any_violated) else 0
    if args.mode == "direct":
        verdict = check_convex_direct(system, f, grid, **common)
    elif args.mode == "induced":
        if args.k is None:
            raise InputError("--k is required for mode induced")
        verdict = check_convex_induced(system, args.k, f, grid, **common)
    elif args.mode == "interval":
        if args.k is None or args.ell is None:
            raise InputError("--k and --ell are required for mode interval")
        verdict = check_convex_interval(system, args.k, args.ell, f, grid, **common)
    else:
        raise InputError(f"unknown mode {args.mode!r}")
    return {"check": _jsonify(verdict)}, 1 if verdict.verdict == "violated" else 0


def _cmd_identities(args) -> tuple[dict, int]:
    backend = Backend(args.backend)
    suites = IDENTITY_SUITES if args.suite == "all" else (args.suite,)
    for s in suites:
        if s not in IDENTITY_SUITES:
            raise InputError(f"unknown suite {s!r}; known: {IDENTITY_SUITES} or all")
    results = {suite: run_suite(suite, args.trials, args.seed, backend) for suite in suites}
    failures_total = sum(len(rep["failures"]) for rep in results.values())
    return {"suites": _jsonify(results), "failed": failures_total}, 1 if failures_total else 0


def _cmd_variation(args) -> tuple[dict, int]:
    backend = Backend(args.backend)
    system = _parse_system(args.system, backend, args.unsafe_domain)
    if args.a is None or args.b is None:
        raise InputError("--a and --b are required")
    a = _parse_scalar(args.a, backend)
    b = _parse_scalar(args.b, backend)
    strategy = RefinementStrategy(initial_intervals=args.m0, rounds=args.rounds,
                                  perturb_rounds=args.perturb_rounds, seed=args.seed)

    if args.g is not None or args.h is not None:
        g = _parse_function(args.g, backend) if args.g else ConstFn(0)
        h = _parse_function(args.h, backend) if args.h else ConstFn(0)
        anchors = _parse_anchors(args.anchors, backend) if args.anchors else (None, None)
        try:
            report = check_variation_bound(system, g, h, a, b,
                                           a_anchors=anchors[0], b_anchors=anchors[1],
                                           strategy=strategy, tol_factor=args.tol)
        except BoundViolated as exc:
            return {
                "bound_holds": False,
                "best": _jsonify(exc.best),
                "bound": _jsonify(exc.bound),
                "certificate": {
                    "partition": _jsonify(exc.partition),
                    "anchors": _jsonify(exc.anchors),
                },
            }, 1
        return {
            "bound_holds": True,
            "estimate": _estimate_dict(report.estimate),
            "bound": _jsonify(report.bound),
            "margin": _jsonify(report.margin),
            "anchors": {"a": _jsonify(report.a_anchors), "b": _jsonify(report.b_anchors)},
        }, 0

    if args.function is None:
        raise InputError("--function (or --g/--h) is required")
    f = _parse_function(args.function, backend)
    est = estimate_variation(system, f, a, b, strategy=strategy, tol_factor=args.tol)
    return {"estimate": _estimate_dict(est)}, 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every main() call reuses it.  A plain function over
    the cached builder, so that bench/tracer.py, which wraps only plain
    functions, traces it."""
    return _cached_parser()


@functools.cache
def _cached_parser() -> argparse.ArgumentParser:
    parser = _JsonArgumentParser(prog="chebconvex")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", help="catalog id (poly:N, trig-odd:N[:lo,hi], "
                                        "trig-even:N[:lo,hi], one-xsq) or JSON path")
        p.add_argument("--function", help="builtin (power:k, cos[:m], sin[:m], exp, "
                                          "const:c, negcot:s) or JSON/CSV path")
        p.add_argument("--grid", help="uniform:a,b,m or list:v1,v2,... or JSON/CSV path")
        p.add_argument("--backend", choices=["exact", "float"], default="exact")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--budget", type=int, default=DEFAULT_TUPLE_BUDGET)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL_FACTOR,
                       help="tolerance scale factor for float verdicts")
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--unsafe-domain", default=None,
                       help="override the one-xsq domain: 'full' or 'lo,hi'")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("chebcheck", help="grid positivity of a system prefix")
    common(p)
    p.set_defaults(func=_cmd_chebcheck)

    p = sub.add_parser("divdiff", help="generalized and classical divided differences")
    common(p)
    p.set_defaults(func=_cmd_divdiff)

    p = sub.add_parser("convexity", help="convexity with respect to a system")
    common(p)
    p.add_argument("--mode", choices=["direct", "induced", "interval", "agreement"],
                   default="direct")
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser("identities", help="seeded fuzz suites over the identities")
    common(p)
    p.add_argument("--suite", default="all",
                   help=f"one of {', '.join(IDENTITY_SUITES)} or all")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("variation", help="variation estimates and bounds")
    common(p)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--g", default=None, help="first convex component")
    p.add_argument("--h", default=None, help="second convex component")
    p.add_argument("--anchors", default=None,
                   help="JSON path {\"a\": [...], \"b\": [...]} or inline a1,a2;b1,b2")
    p.add_argument("--m0", type=int, default=None, help="initial partition intervals")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--perturb-rounds", type=int, default=2)
    p.set_defaults(func=_cmd_variation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    report = {"version": __version__, "command": args.command,
              "config": _config_echo(args)}
    try:
        report["results"], code = args.func(args)
    except (ChebconvexError, OSError, json.JSONDecodeError, ValueError,
            OverflowError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 1 if isinstance(exc, BoundViolated) else 2
    report["timing_seconds"] = time.perf_counter() - started
    _emit(report, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
