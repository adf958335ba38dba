"""List the code lines of the package that no benchmark request runs.

The script writes the requests of rounds 0..ROUNDS-1 of one seed of a
workload (see bench/workloads.py, which it only reads), runs each
through ``cli.main`` in this process under ``sys.settrace``, and prints,
for each function of the package with a line that no request executed,
those lines.  Module-level lines (imports, definitions, class bodies)
run at import and are not listed.

    python3 tools/traffic.py --workload short --seed 1 --rounds 6

Given ``--workload`` more than once, it runs the requests of every
workload named and lists the lines that none of them runs; its last
line then also counts those lines.

    python3 tools/traffic.py --workload scan --workload pinned --workload short --rounds 2

Each output line is ``module.qualified_name: lines``, with ``(never
called)`` for a function that no request entered.  Lambdas and
comprehensions are listed under their own qualified names.
"""

import argparse
import contextlib
import importlib
import inspect
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

PACKAGE = "chebconvex"


def functions(package_dir: Path) -> dict:
    """For each function of the modules in ``package_dir``, keyed by
    (file, first line, qualified name), its module name and the lines
    its own code spans (not those of functions nested in it)."""
    out = {}
    for path in sorted(package_dir.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_OPTIMIZED:     # a function, not a module or class body
                lines = {line for _, _, line in code.co_lines() if line is not None}
                out[str(path), code.co_firstlineno, code.co_qualname] = (path.stem, lines)
    return out


def executed(cli, requests: list, package_dir: Path) -> dict:
    """The lines each package function executed while ``cli.main`` ran
    ``requests``, keyed as :func:`functions` keys them."""
    files: dict = {}    # a code object's file name -> its real path if in the package, else None
    seen: dict = {}

    def key(code):
        if code.co_filename not in files:
            path = os.path.realpath(code.co_filename)
            files[code.co_filename] = path if Path(path).parent == package_dir else None
        path = files[code.co_filename]
        return path and (path, code.co_firstlineno, code.co_qualname)

    def lines(frame, event, arg):
        if event == "line":
            seen[key(frame.f_code)].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        code_key = key(frame.f_code)
        if code_key is None:
            return None
        seen.setdefault(code_key, set()).add(frame.f_code.co_firstlineno)
        return lines

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for req in requests:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    cli.main(list(req.argv))
                except SystemExit:
                    pass
    finally:
        sys.settrace(previous)
    return seen


def unexecuted(requests: list) -> dict:
    """For each package function with a line that no request in
    ``requests`` executed, keyed by ``module.qualified_name``: those
    lines, sorted, and whether the function was called at all."""
    cli = importlib.import_module(f"{PACKAGE}.cli")
    package_dir = Path(cli.__file__).resolve().parent
    seen = executed(cli, requests, package_dir)
    out = {}
    for fn_key, (module, lines) in sorted(functions(package_dir).items()):
        missed = sorted(lines - seen.get(fn_key, set()))
        if missed:
            out[f"{module}.{fn_key[2]}"] = (missed, fn_key in seen)
    return out


def spans(lines: list) -> str:
    """Sorted line numbers as ranges: [3, 4, 5, 9] -> '3-5, 9'."""
    out, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(out)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        requests = [req for i, name in enumerate(args.workload)
                    for req in workloads.generate(workloads.WORKLOADS[name], args.seed,
                                                  range(args.rounds), os.path.join(work, str(i)))]
        missed = unexecuted(requests)
    for name, (lines, called) in missed.items():
        print(f"{name}: {spans(lines)}" + ("" if called else " (never called)"))
    summary = f"{len(requests)} requests, {len(missed)} functions with lines not run"
    if len(args.workload) > 1:
        summary += (f", {sum(len(lines) for lines, _ in missed.values())} lines run by none"
                    f" of {', '.join(args.workload)}")
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
