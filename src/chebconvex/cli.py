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
import contextlib
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .core import (
    DEFAULT_SEED,
    DEFAULT_TOL_FACTOR,
    DEFAULT_TUPLE_BUDGET,
    IDENTITY_SUITES,
    Backend,
    ChebyshevSystem,
    ConstFn,
    FunctionSpec,
    Interval,
    PointTuple,
    SampledFn,
    function_from_json,
    scalar_to_json,
    system_from_json,
)
from .errors import BoundViolated, ChebconvexError, InputError

# The engine's modules are imported where a command or a reader first
# calls them, not here: building the parser, and a command, loads only
# what that command runs.

class _JsonArgumentParser(argparse.ArgumentParser):
    """Argument errors come back as structured JSON, never bare text."""

    def error(self, message):
        _emit({"version": __version__, "command": "argparse",
               "error": {"type": "ArgumentError", "message": message}}, None)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# input parsing

#: A plain decimal literal [-]digits[.digits], in ASCII digits only.
_DECIMAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]+))?").fullmatch


def _read(texts: list, backend: Backend) -> list:
    """The scalars of ``backend`` that the stripped ``texts`` spell, an
    exact one as p/q in two integers, in one pass: a plain decimal is the
    integer of its digits over a power of ten, read without Fraction's
    parser.  Where any text does not read so, each is read on its own,
    so that the first that does not read raises; a single text that does
    not read is float(text)'s error, or Fraction(text)'s value or error."""
    try:
        if backend is Backend.FLOAT:
            return [float(t) for t in texts]
        return [(int(w + f), 10 ** len(f)) for w, f in (_DECIMAL(t).groups("") for t in texts)]
    except (AttributeError, ValueError) as exc:     # no decimal, no float, past int's limit
        if len(texts) > 1:
            return [_read([t], backend)[0] for t in texts]
        if backend is Backend.FLOAT:
            raise InputError(f"bad float scalar {texts[0]!r}: {exc}") from None
    try:
        return [Fraction(texts[0]).as_integer_ratio()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad exact scalar {texts[0]!r}: {exc}") from None


def _parse_scalar(text: str, backend: Backend):
    """The scalar of ``backend`` that ``text`` spells, read as the one
    point of a grid is (:func:`_read`), so with the grid readers' value
    and error."""
    (value,) = _read([text.strip()], backend)
    return value if backend is Backend.FLOAT else Fraction(*value)


def _read_grid(items, backend: Backend, header: bool = False) -> PointTuple:
    """The grid of the scalars of ``backend`` that ``items`` spell, as
    strings (a JSON number with a fraction or an exponent among them, as
    written) or as other JSON values, in their order, read in one pass
    (:func:`_read`).  With ``header``, items that do not read before the
    first one that does are a header, and skipped.  Exact points p/q
    are the integers over one scale, the largest q, when every other q
    divides it (a power of ten for decimals), else Fractions."""
    texts, out, i = [str(item).strip() for item in items], [], 0
    while header and not out and i < len(texts):
        with contextlib.suppress(InputError):
            out = _read(texts[i:i + 1], backend)
        i += 1
    out += _read(texts[i:], backend)
    if backend is Backend.FLOAT:
        return PointTuple(out)
    q = max((d for _, d in out), default=1)
    if all(q % d == 0 for _, d in out):
        return PointTuple(nums=[p * (q // d) for p, d in out], q=q)
    return PointTuple([Fraction(p, d) for p, d in out])


def _load_json(path: str, parse_float=float):
    """The JSON value in the file at ``path``, each number with a
    fraction or an exponent read by ``parse_float`` from its literal
    (``str`` keeps a grid's or an anchor's as written); one nested past
    the decoder's recursion limit is an input error naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_float=parse_float)
        except RecursionError:
            raise InputError(f"JSON in {path!r} is nested too deeply to read") from None


def _csv_rows(path: str):
    """The rows of the CSV file at ``path``, read lazily; an error of the
    CSV reader (a field past its size limit) is an input error naming
    the file, raised when its row is reached."""
    with open(path, newline="") as fh:
        try:
            yield from csv.reader(fh)
        except csv.Error as exc:
            raise InputError(f"bad CSV file {path!r}: {exc}") from None


def _parse_system(spec: str, backend: Backend, unsafe_domain: str | None) -> ChebyshevSystem:
    from .systems import _system_from_id
    if spec is None:
        raise InputError("--system is required")
    if os.path.exists(spec):
        if unsafe_domain is not None:
            raise InputError(f"--unsafe-domain overrides the one-xsq domain only, "
                             f"not the system in {spec!r}")
        return system_from_json(_load_json(spec))
    if unsafe_domain is None:
        return _system_from_id(spec)
    if unsafe_domain == "full":
        return _system_from_id(spec, Interval())
    try:
        lo_s, hi_s = unsafe_domain.split(",")
    except ValueError:
        raise InputError(f"--unsafe-domain is 'full' or 'lo,hi', got {unsafe_domain!r}") from None
    return _system_from_id(spec, Interval(None if not lo_s else _parse_scalar(lo_s, backend),
                                          None if not hi_s else _parse_scalar(hi_s, backend)))


#: Builtin function ids kind[:param]: each kind's form, the field of its
#: JSON spec that the parameter fills (None: it takes none) and the
#: parameter's reader.  A parameter in brackets may be left out.
_FUNCTION_IDS = {
    "power": ("power:k", "k", lambda s, backend: int(s)),
    "cos": ("cos[:m]", "freq", lambda s, backend: int(s)),
    "sin": ("sin[:m]", "freq", lambda s, backend: int(s)),
    "exp": ("exp", None, None),
    "const": ("const:c", "c", lambda s, backend: scalar_to_json(_parse_scalar(s, backend))),
    "negcot": ("negcot:shift", "shift", lambda s, backend: _parse_scalar(s, Backend.FLOAT)),
}


def _parse_function(spec: str, backend: Backend) -> FunctionSpec:
    if spec is None:
        raise InputError("--function is required")
    if os.path.exists(spec):
        if spec.endswith(".csv"):
            return _sampled_from_csv(spec, backend)
        return function_from_json(_load_json(spec))
    return function_from_json(_function_id_spec(spec, backend))


def _function_id_spec(spec: str, backend: Backend) -> dict:
    """The JSON spec that the builtin function id ``spec`` stands for,
    e.g. {"kind": "power", "k": 3} for power:3."""
    kind, *params = spec.split(":")
    if kind not in _FUNCTION_IDS:
        raise InputError(f"unknown function spec {spec!r} (expected a JSON/CSV path or "
                         f"{' / '.join(form for form, _, _ in _FUNCTION_IDS.values())})")
    form, field, read = _FUNCTION_IDS[kind]
    if len(params) > (field is not None):
        raise InputError(f"malformed function spec {spec!r}; expected {form}")
    if not params:
        if field is not None and "[" not in form:
            raise InputError(f"function spec {spec!r} is missing its parameter")
        return {"kind": kind}
    try:
        return {"kind": kind, field: read(params[0], backend)}
    except ValueError:
        raise InputError(f"malformed function spec {spec!r}; expected {form}") from None


def _sampled_from_csv(path: str, backend: Backend) -> SampledFn:
    """Two columns point,value; non-numeric rows before the first data
    row are a header."""
    pairs = []
    for row in _csv_rows(path):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise InputError(f"sampled CSV row needs two columns: {row!r}")
        try:
            p = _parse_scalar(row[0], backend)
            v = _parse_scalar(row[1], backend)
        except InputError:
            if not pairs:   # header row
                continue
            raise
        pairs.append((p, v))
    if not pairs:
        raise InputError(f"no data rows in {path}")
    return SampledFn(*zip(*pairs))


def _parse_grid(spec: str, backend: Backend) -> PointTuple:
    from .determinant import _check_points, _uniform_grid
    if spec is None:
        raise InputError("--grid is required")
    if spec.startswith("uniform:"):
        try:
            a_s, b_s, m_s = spec[len("uniform:"):].split(",")
            a, b, m = _parse_scalar(a_s, backend), _parse_scalar(b_s, backend), int(m_s)
        except (ValueError, InputError) as exc:
            raise InputError(f"bad uniform grid {spec!r}: {exc}") from None
        if m < 2 or not a < b:
            raise InputError(f"uniform grid needs a < b and m >= 2, got {spec!r}")
        _check_points(m, f"uniform grid {spec!r} of {m} points")
        if backend is Backend.EXACT:
            return _uniform_grid(a, b, m - 1)
        return PointTuple([a + (b - a) * (i / (m - 1)) for i in range(m)])
    if spec.startswith("list:"):
        return _read_grid(spec[len("list:"):].split(","), backend)
    if os.path.exists(spec):
        if spec.endswith(".csv"):
            firsts = []
            try:
                firsts.extend(row[0] for row in _csv_rows(spec) if row and row[0].strip())
            finally:    # what the items before a reader error raise is raised first
                grid = _read_grid(firsts, backend, header=True)
            return grid
        data = _load_json(spec, str)
        if not isinstance(data, list):
            raise InputError(f"grid JSON must be a list, got {type(data).__name__}")
        return _read_grid(data, backend)
    raise InputError(f"grid {spec!r} is neither a file nor uniform:a,b,m nor list:v1,v2,...")


def _parse_anchors(spec: str, backend: Backend) -> tuple[tuple, tuple]:
    """Either a JSON file {"a": [...], "b": [...]} or inline a1,a2;b1,b2."""
    if os.path.exists(spec):
        data = _load_json(spec, str)
        try:
            if not all(isinstance(data[side], list) for side in "ab"):
                raise TypeError("each must be a JSON array")
            return _read_grid(data["a"], backend), _read_grid(data["b"], backend)
        except (KeyError, TypeError) as exc:
            raise InputError(f"anchor JSON needs lists 'a' and 'b': {exc}") from None
    try:
        a_s, b_s = spec.split(";")
        return _read_grid(a_s.split(","), backend), _read_grid(b_s.split(","), backend)
    except ValueError as exc:
        raise InputError(f"bad anchors {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# report plumbing

def _jsonify(value):
    """JSON form of a report value; a report dataclass becomes the dict
    of all its fields, and a NaN or infinite float, which strict JSON has
    no number for, or a Fraction, its str() ("nan", "inf", "-inf",
    "p/q", as :func:`core.scalar_to_json` spells a Fraction)."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if value is None or isinstance(value, (bool, str, int, float)):
        return value
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


def _emit(report: dict, out_path: str | None) -> int | None:
    """Write ``report`` to ``out_path``, else to stdout.  When out_path
    cannot be written, the report goes to stdout with that error in place
    of its results or error, and the exit code 2 is returned."""
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return None
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        report.pop("results", None)
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _emit(report, None)
        return 2
    return None


# ---------------------------------------------------------------------------
# subcommands; each takes the parsed arguments and their backend, read once
# by main, and returns (results dict, exit code)

def _cmd_chebcheck(args, backend: Backend) -> tuple[dict, int]:
    from .determinant import is_positive_chebyshev
    system = _parse_system(args.system, backend, args.unsafe_domain)
    grid = _parse_grid(args.grid, backend)
    k = args.k if args.k is not None else system.dim
    report = is_positive_chebyshev(system, k, grid, budget=args.budget,
                                   seed=args.seed, tol_factor=args.tol)
    return {"positivity": _jsonify(report)}, 0 if report.is_positive else 1


def _cmd_divdiff(args, backend: Backend) -> tuple[dict, int]:
    from .divdiff import classical_divided_difference, divided_difference
    system = _parse_system(args.system, backend, args.unsafe_domain)
    f = _parse_function(args.function, backend)
    points = _parse_grid(args.grid, backend)
    k = args.k if args.k is not None else len(points)
    dd = divided_difference(system, k, f, points, tol_factor=args.tol)
    return {
        "order": dd.order,
        "points": _jsonify(dd.points.points),
        "value": _jsonify(dd.value),
        "numerator": _jsonify(dd.numerator),
        "denominator": _jsonify(dd.denominator),
        "classical_value": _jsonify(classical_divided_difference(f, points)),
    }, 0


def _cmd_convexity(args, backend: Backend) -> tuple[dict, int]:
    from .convexity import (check_convex_direct, check_convex_induced, check_convex_interval,
                            cross_mode_agreement)
    if args.ell is not None and args.mode != "interval":
        raise InputError(f"--ell is read by mode interval only, not {args.mode}")
    if args.k is not None and args.mode == "direct":
        raise InputError("--k is not read by mode direct")
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
    else:       # interval: argparse's choices admit no other mode
        if args.k is None or args.ell is None:
            raise InputError("--k and --ell are required for mode interval")
        verdict = check_convex_interval(system, args.k, args.ell, f, grid, **common)
    return {"check": _jsonify(verdict)}, 1 if verdict.verdict == "violated" else 0


def _cmd_identities(args, backend: Backend) -> tuple[dict, int]:
    from .identities import run_suite
    suites = IDENTITY_SUITES if args.suite == "all" else (args.suite,)
    if args.suite != "all" and args.suite not in IDENTITY_SUITES:
        raise InputError(f"unknown suite {args.suite!r}; known: {IDENTITY_SUITES} or all")
    results = {suite: run_suite(suite, args.trials, args.seed, backend) for suite in suites}
    failures_total = sum(len(rep["failures"]) for rep in results.values())
    return {"suites": _jsonify(results), "failed": failures_total}, 1 if failures_total else 0


def _cmd_variation(args, backend: Backend) -> tuple[dict, int]:
    from .variation import RefinementStrategy, check_variation_bound, estimate_variation
    decomposed = args.g is not None or args.h is not None
    if args.anchors is not None and not decomposed:
        raise InputError("--anchors is read with --g/--h only")
    if args.function is not None and decomposed:
        raise InputError("--function is not read with --g/--h, whose f is g - h")
    system = _parse_system(args.system, backend, args.unsafe_domain)
    if args.a is None or args.b is None:
        raise InputError("--a and --b are required")
    a = _parse_scalar(args.a, backend)
    b = _parse_scalar(args.b, backend)
    strategy = RefinementStrategy(initial_intervals=args.m0, rounds=args.rounds,
                                  perturb_rounds=args.perturb_rounds, seed=args.seed)

    if decomposed:
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

    def command(name, func, text):
        """The subparser of ``name``, with the arguments every subcommand takes."""
        p = sub.add_parser(name, help=text)
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
        p.set_defaults(func=func)
        return p

    command("chebcheck", _cmd_chebcheck, "grid positivity of a system prefix")
    command("divdiff", _cmd_divdiff, "generalized and classical divided differences")
    p = command("convexity", _cmd_convexity, "convexity with respect to a system")
    p.add_argument("--mode", choices=["direct", "induced", "interval", "agreement"],
                   default="direct")

    p = command("identities", _cmd_identities, "seeded fuzz suites over the identities")
    p.add_argument("--suite", default="all",
                   help=f"one of {', '.join(IDENTITY_SUITES)} or all")
    p.add_argument("--trials", type=int, default=100)

    p = command("variation", _cmd_variation, "variation estimates and bounds")
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--g", default=None, help="first convex component")
    p.add_argument("--h", default=None, help="second convex component")
    p.add_argument("--anchors", default=None,
                   help="JSON path {\"a\": [...], \"b\": [...]} or inline a1,a2;b1,b2")
    p.add_argument("--m0", type=int, default=None, help="initial partition intervals")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--perturb-rounds", type=int, default=2)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    report = {"version": __version__, "command": args.command,
              "config": {k: _jsonify(v) for k, v in sorted(vars(args).items()) if k != "func"}}
    try:
        report["results"], code = args.func(args, Backend(args.backend))
    except (ChebconvexError, OSError, ValueError, OverflowError, MemoryError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 2
    report["timing_seconds"] = time.perf_counter() - started
    return _emit(report, args.out) or code


if __name__ == "__main__":
    sys.exit(main())
