"""Time fresh interpreters: the benchmark's set-up and one small request
per subcommand, on one or two source trees.

Each case is one new interpreter: ``setup`` runs bench/run.py's
``SETUP_CODE`` (import ``chebconvex.cli`` and build the parser, which
the benchmark's ``setup_s`` times), and each subcommand runs ``python
-m chebconvex.cli`` on one small request, which takes a few
milliseconds, so its time is that process's start-up and the modules
the command loads.  Every run times each case on each tree, the trees
in alternating order from one case to the next; before the timed runs
each case runs once on each tree, unmeasured.  For each case and tree
the script prints the median and the interquartile range (inclusive
quartiles) of the runs' wall times in milliseconds; with two trees,
also the ratio of the second tree's median to the first's:

    python3 tools/startup.py --runs 21 PARENT_TREE .

TREE is the root of a checkout (default: this one).  The times are of
this machine, unscaled; runs alternate so that two trees compare.
"""

import argparse
import importlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

bench_run = importlib.import_module("run")      # bench/run.py

#: Each case's interpreter arguments.
CASES = {
    "setup": ["-c", bench_run.SETUP_CODE],
    "chebcheck": ["-m", "chebconvex.cli", "chebcheck", "--system", "poly:3",
                  "--grid", "uniform:0,2,6"],
    "divdiff": ["-m", "chebconvex.cli", "divdiff", "--system", "poly:3",
                "--function", "power:3", "--grid", "list:0,1/2,2"],
    "convexity": ["-m", "chebconvex.cli", "convexity", "--system", "poly:3",
                  "--function", "power:4", "--grid", "uniform:0,2,6"],
    "identities": ["-m", "chebconvex.cli", "identities", "--suite", "power-sum",
                   "--trials", "3"],
    "variation": ["-m", "chebconvex.cli", "variation", "--system", "poly:2",
                  "--function", "power:3", "--a", "0", "--b", "1"],
}


def timed(tree: Path, args: list) -> float:
    """Wall seconds of one interpreter with ``args`` on the package of
    ``tree``, its output discarded; a nonzero exit other than 1 (a
    violation) raises."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    code = subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL).returncode
    seconds = time.perf_counter() - t0
    if code not in (0, 1):
        raise SystemExit(f"startup: {' '.join(args)} exited {code} on {tree}")
    return seconds


def times(trees: list, runs: int) -> dict:
    """{case: [[seconds of each run] for each tree]}."""
    found = {case: [[] for _ in trees] for case in CASES}
    for case, args in CASES.items():
        for tree in trees:
            timed(tree, args)       # unmeasured
    flip = False
    for _ in range(runs):
        for case, args in CASES.items():
            order = list(enumerate(trees))
            for t, tree in order[::-1] if flip else order:
                found[case][t].append(timed(tree, args))
            flip = not flip
    return found


def spread(values: list) -> tuple:
    """(median, interquartile range) of ``values``; one value has no spread."""
    if len(values) == 1:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def report(trees: list, found: dict, runs: int) -> None:
    print(f"{'case':<12}" + "".join(f" {'median ' + str(i):>9} {'iqr ' + str(i):>7}"
                                    for i in range(len(trees)))
          + ("    ratio" if len(trees) == 2 else "") + "   (ms)")
    for case, per_tree in found.items():
        medians, iqrs = zip(*map(spread, per_tree))
        cells = "".join(f" {m * 1e3:>9.1f} {r * 1e3:>7.1f}" for m, r in zip(medians, iqrs))
        ratio = f" {medians[1] / medians[0]:>8.3f}" if len(medians) == 2 else ""
        print(f"{case:<12}{cells}{ratio}")
    print(f"{runs} runs of each case on each tree")
    for i, tree in enumerate(trees):
        print(f"tree {i}: {tree}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=11, help="timed runs of each case")
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    args = parser.parse_args(argv)
    if not 1 <= len(args.trees) <= 2 or args.runs < 1:
        parser.error("one or two trees, and at least one run")
    trees = [t.resolve() for t in args.trees]
    report(trees, times(trees, args.runs), args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
