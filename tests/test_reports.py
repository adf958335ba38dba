"""Golden whole reports: fixed command lines replayed through ``cli.main``.

Each case's report (without ``timing_seconds``) and exit code must equal
its line in ``tests/data/reports.jsonl``.  The cases cover every
subcommand, all four convexity modes, all six identity suites on both
backends, each form of the catalog and builtin function ids, each grid
file format, and each family of input error (exit 2).  File inputs live in
``tests/data`` and the commands run from there, so the echoed config
names them the same way on every machine.

Re-record the goldens, after a deliberate report change only, with

    PYTHONPATH=src python tests/test_reports.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from chebconvex.cli import IDENTITY_SUITES, main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "reports.jsonl"

CASES = [
    # chebcheck
    ["chebcheck", "--system", "poly:3", "--grid", "uniform:0,4,8"],
    ["chebcheck", "--system", "one-xsq", "--unsafe-domain", "full", "--grid", "list:-1,1"],
    ["chebcheck", "--system", "trig-odd:1", "--backend", "float", "--grid",
     "uniform:-3,-0.2,10"],
    ["chebcheck", "--system", "poly:4", "--grid", "uniform:0,1,30", "--budget", "300",
     "--seed", "3"],
    ["chebcheck", "--system", "line_system.json", "--grid", "grid.json", "--k", "2"],
    # divdiff
    ["divdiff", "--system", "poly:2", "--function", "power:2", "--grid", "list:1,2"],
    ["divdiff", "--system", "poly:4", "--function", "power:3", "--grid", "list:3,1/2,2"],
    ["divdiff", "--system", "trig-odd:1", "--function", "sin:2", "--backend", "float",
     "--grid", "list:-2.5,-1.0,-0.3"],
    ["divdiff", "--system", "poly:3", "--function", "cubic_table.csv", "--grid",
     "list:0,1,3"],
    # convexity, all four modes
    ["convexity", "--system", "poly:2", "--function", "power:2", "--grid", "uniform:0,3,4"],
    ["convexity", "--system", "poly:2", "--function", "neg_square.json", "--grid",
     "uniform:0,3,4"],
    ["convexity", "--system", "poly:3", "--function", "quartic_minus_cube.json",
     "--backend", "float", "--grid", "uniform:-1,3,9"],
    ["convexity", "--system", "poly:3", "--function", "power:4", "--grid", "uniform:0,2,7",
     "--mode", "induced", "--k", "1"],
    ["convexity", "--system", "poly:3", "--function", "quartic_minus_cube.json",
     "--backend", "float", "--grid", "uniform:-1,3,8", "--mode", "induced", "--k", "2"],
    ["convexity", "--system", "trig-odd:1", "--function", "cos:2", "--backend", "float",
     "--grid", "uniform:-3,-0.2,7", "--mode", "induced", "--k", "1"],
    ["convexity", "--system", "poly:3", "--function", "power:5", "--grid", "uniform:0,3,10",
     "--mode", "induced", "--k", "1", "--budget", "15", "--seed", "4"],
    ["convexity", "--system", "poly:3", "--function", "power:4", "--grid", "uniform:0,2,8",
     "--mode", "interval", "--k", "2", "--ell", "1"],
    ["convexity", "--system", "poly:2", "--function", "power:2", "--grid", "uniform:0,5,6",
     "--mode", "interval", "--k", "1", "--ell", "0"],
    ["convexity", "--system", "poly:2", "--function", "power:3", "--grid", "list:0,1,2,3,4",
     "--mode", "agreement"],
    ["convexity", "--system", "poly:3", "--function", "quartic_minus_cube.json",
     "--grid", "uniform:-1,3,7", "--mode", "agreement"],
    ["convexity", "--system", "poly:2", "--function", "sampled_gap.csv", "--grid",
     "list:0,1,2,3,4,5", "--mode", "agreement"],
    # identity suites on both backends
    *(["identities", "--suite", suite, "--trials", "12", "--seed", "5", "--backend", backend]
      for suite in IDENTITY_SUITES for backend in ("exact", "float")),
    ["identities", "--trials", "8", "--seed", "4", "--backend", "float"],
    # variation
    ["variation", "--system", "poly:2", "--g", "power:2", "--a", "0", "--b", "1",
     "--anchors=-1/2,0;1,3/2", "--m0", "10", "--rounds", "3", "--perturb-rounds", "0"],
    ["variation", "--system", "poly:3", "--function", "power:4", "--a", "0", "--b", "1",
     "--m0", "6", "--rounds", "2", "--perturb-rounds", "1", "--seed", "2"],
    ["variation", "--system", "trig-odd:1", "--function", "sin:2", "--backend", "float",
     "--a", "-2.5", "--b", "-0.5", "--m0", "6", "--rounds", "2"],
    ["variation", "--system", "poly:2", "--g", "neg_square.json", "--h", "const:0",
     "--a", "0", "--b", "1", "--anchors", "anchors.json", "--m0", "4", "--rounds", "2",
     "--perturb-rounds", "0"],
    ["variation", "--system", "poly:2", "--g", "power:2", "--h", "power:4", "--a", "0",
     "--b", "1", "--m0", "4", "--rounds", "2", "--perturb-rounds", "0"],
    # input errors, exit 2
    ["chebcheck", "--system", "poly:3", "--backend", "float", "--grid",
     "list:1e150,2e150,3e150"],
    ["chebcheck", "--system", "poly:3", "--grid", "list:0,1", "--k", "3"],
    ["chebcheck", "--system", "poly:3", "--grid", "list:0,1,2", "--k", "4"],
    ["chebcheck", "--system", "trig-odd:1", "--grid", "list:-2,-1,-1/2"],
    ["chebcheck", "--system", "nope:3", "--grid", "uniform:0,1,5"],
    ["chebcheck", "--system", "bad.json", "--grid", "uniform:0,1,5"],
    ["chebcheck", "--system", "poly:3", "--grid", "list:0,1,2,3", "--budget", "0"],
    ["divdiff", "--system", "one-xsq", "--unsafe-domain", "full", "--function", "power:3",
     "--grid", "list:-1,1"],
    ["divdiff", "--system", "poly:2", "--function", "exp", "--grid", "list:1,800",
     "--backend", "float"],
    ["divdiff", "--system", "poly:3", "--function", "sampled_gap.csv", "--grid",
     "list:0,1,3"],
    ["divdiff", "--system", "poly:2", "--function", "power:2", "--grid", "list:1,1"],
    ["convexity", "--system", "poly:3", "--function", "power:4", "--backend", "float",
     "--grid", "list:0.0,1e-10,1.0,2.0,3.0,4.0", "--mode", "induced", "--k", "1"],
    ["convexity", "--system", "poly:2", "--function", "power:2", "--grid", "uniform:0,3,4",
     "--mode", "induced"],
    ["convexity", "--system", "trig-odd:1", "--function", "cos:2", "--grid",
     "uniform:-3,-0.2,7", "--backend", "float", "--mode", "interval", "--k", "1",
     "--ell", "3"],
    ["identities", "--suite", "bogus"],
    ["identities", "--suite", "sylvester", "--trials", "0"],
    ["variation", "--system", "poly:2", "--function", "power:2"],
    ["variation", "--system", "poly:2", "--function", "power:2", "--a", "0", "--b", "1",
     "--m0", "1"],
    ["chebcheck", "--backend", "bogus"],
    # catalog ids with their optional parts
    ["chebcheck", "--system", "trig-odd:1:-2.5,-0.5", "--backend", "float", "--grid",
     "uniform:-2.4,-0.6,6"],
    ["chebcheck", "--system", "trig-even:1", "--backend", "float", "--grid",
     "uniform:-1.5,-0.1,6"],
    ["divdiff", "--system", "trig-even:1:-1.5,0", "--function", "sin:2", "--backend",
     "float", "--grid", "list:-1.2,-0.4"],
    ["chebcheck", "--system", "one-xsq", "--grid", "uniform:1,3,5"],
    ["convexity", "--system", "one-xsq", "--unsafe-domain", "0,5", "--function", "power:4",
     "--grid", "uniform:1,4,5"],
    ["convexity", "--system", "one-xsq", "--unsafe-domain", "0,5", "--function", "power:4",
     "--grid", "uniform:1,4,5", "--mode", "agreement"],
    ["convexity", "--system", "one-xsq", "--function", "power:4", "--grid", "list:-1,1,2,3",
     "--mode", "induced", "--k", "1"],
    ["convexity", "--system", "one-xsq", "--function", "power:4", "--grid", "list:1,2,3,-1",
     "--mode", "interval", "--k", "1", "--ell", "0"],
    # function ids with default and scalar parameters
    ["divdiff", "--system", "trig-odd:1", "--function", "cos", "--backend", "float",
     "--grid", "list:-2.5,-1.5,-0.5"],
    ["convexity", "--system", "poly:2", "--function", "sin", "--backend", "float",
     "--grid", "uniform:-3,-0.5,6"],
    ["divdiff", "--system", "poly:2", "--function", "const:1/2", "--grid", "list:1/2,3/2"],
    ["divdiff", "--system", "poly:1", "--function", "const:0.5", "--backend", "float",
     "--grid", "list:2.0"],
    ["convexity", "--system", "poly:2", "--function", "negcot:-1", "--backend", "float",
     "--grid", "uniform:-3,-0.5,6"],
    # grid files
    ["chebcheck", "--system", "poly:3", "--grid", "grid_column.csv"],
    ["divdiff", "--system", "poly:4", "--function", "power:3", "--grid", "float_grid.json"],
    # input errors of the spec readers, exit 2
    ["divdiff", "--system", "poly:2", "--function", "bogus:1", "--grid", "list:0,1"],
    ["divdiff", "--system", "poly:2", "--function", "power", "--grid", "list:0,1"],
    ["divdiff", "--system", "poly:2", "--function", "sampled_one_column.csv", "--grid",
     "list:0,2"],
    ["chebcheck", "--system", "poly:2", "--grid", "grid_object.json"],
    ["variation", "--system", "poly:2", "--g", "power:2", "--a", "0", "--b", "1",
     "--anchors", "anchors_no_b.json", "--m0", "4", "--rounds", "1"],
    # a sampled scan over a CSV grid, and decimal literal forms, on both backends
    *(["chebcheck", "--system", "poly:5", "--grid", "grid_200.csv", "--budget", "50",
       "--seed", "9", "--backend", backend] for backend in ("exact", "float")),
    *(["chebcheck", "--system", "poly:3", "--grid",
       "list:-0,.5,+1,5.,007.50, 2.5 ,1e3,1_500,-2.000", "--backend", backend]
      for backend in ("exact", "float")),
    ["divdiff", "--system", "poly:3", "--function", "power:4", "--grid", "list:1/3,٣,-2.50"],
    ["chebcheck", "--system", "poly:2", "--grid", "list:1,²"],
    # polynomial columns: nested affine and const functions on both backends
    *(["divdiff", "--system", "poly:3", "--function", "affine_nested.json", "--grid", grid,
       "--backend", backend]
      for grid, backend in (("list:1/2,2,3", "exact"), ("list:0.5,2,3", "float"))),
    *(["divdiff", "--system", "poly:3", "--function", "affine_halves.json", "--grid", grid,
       "--backend", backend]
      for grid, backend in (("list:1/3,2,-1", "exact"), ("list:0.5,2,-1", "float"))),
    *(["divdiff", "--system", "poly:3", "--function", "const:-2", "--grid", grid,
       "--backend", backend]
      for grid, backend in (("list:-1,1/2,2", "exact"), ("list:-1,0.5,2", "float"))),
    *(["variation", "--system", "poly:2", "--g", "convex_g.json", "--h", "convex_h.json",
       "--a", "0", "--b", "1", "--m0", "4", "--rounds", "3", "--perturb-rounds", "2",
       "--backend", backend] for backend in ("exact", "float")),
    ["variation", "--system", "poly:3", "--function", "affine_halves.json", "--a", "1/3",
     "--b", "2", "--m0", "5", "--rounds", "2", "--perturb-rounds", "1", "--seed", "3"],
    # --tol reaches the denominators of divdiff and of the pinned modes alike
    ["divdiff", "--system", "poly:3", "--function", "power:3", "--grid", "list:1,2,3",
     "--backend", "float", "--tol", "1"],
    ["convexity", "--mode", "induced", "--k", "1", "--system", "poly:3", "--function",
     "power:3", "--grid", "list:1,2,3,4", "--backend", "float", "--tol", "1"],
    # pinned modes on float grids: non-power targets, and a close pair inside the grid
    ["convexity", "--system", "trig-odd:1", "--function", "exp", "--backend", "float",
     "--grid", "uniform:-3,-0.2,7", "--mode", "agreement"],
    ["convexity", "--system", "poly:3", "--function", "affine_nested.json", "--backend",
     "float", "--grid", "uniform:-1,3,8", "--mode", "interval", "--k", "1", "--ell", "1"],
    ["convexity", "--system", "poly:3", "--function", "power:4", "--backend", "float",
     "--grid", "list:0.0,1.0,2.0,2.0000000001,3.0,4.0", "--mode", "induced", "--k", "2"],
    # exact walks that stop at their first violation: a zero pivot at the prefix
    # (-1, 1) of (1, x^2, x^4), 13 points, an induced check and an interval check
    # with ell = k; an interval check with ell < k keeps a cut that is no prefix
    ["chebcheck", "--system", "even_system.json", "--grid", "list:-1,1,2,3,4,5,6"],
    ["convexity", "--system", "poly:4", "--function", "power:5", "--grid", "uniform:-3,1,13"],
    ["convexity", "--system", "poly:3", "--function", "power:4", "--grid", "uniform:-2,1,9",
     "--mode", "induced", "--k", "2"],
    ["convexity", "--system", "poly:3", "--function", "power:4", "--grid", "uniform:-2,1,9",
     "--mode", "interval", "--k", "1", "--ell", "1"],
    ["convexity", "--system", "poly:3", "--function", "power:4", "--grid", "uniform:-2,1,9",
     "--mode", "interval", "--k", "2", "--ell", "0"],
    # exact per-tuple scans, which tally integer determinants and scale the witness's
    # value alone: a violated sampled direct scan, and violated one-point scans of a
    # first function that changes sign, exhaustive and sampled
    ["convexity", "--system", "poly:3", "--function", "quartic_minus_cube.json", "--grid",
     "uniform:-1,3/2,9", "--budget", "20", "--seed", "2"],
    ["chebcheck", "--system", "odd_first_system.json", "--grid", "list:-1/2,1/3,2", "--k", "1"],
    ["chebcheck", "--system", "odd_first_system.json", "--grid", "list:2,-1/2,1/3,-3/7",
     "--k", "1", "--budget", "2", "--seed", "1"],
    # a float slope-diff suite that passes, so its cells' values are read
    ["identities", "--suite", "slope-diff", "--trials", "12", "--seed", "2", "--backend",
     "float"],
    # a float check of rational input answers on the exact engine; past the exact
    # image's bit bound, or with a function of no exact value, it keeps the float
    # walk, whose determinant overflows and whose pinned denominators --tol reaches
    ["chebcheck", "--system", "poly:4", "--backend", "float", "--grid", "uniform:0,1000,8"],
    ["chebcheck", "--system", "poly:3", "--backend", "float", "--grid",
     "list:1e-300,1e150,2e150,3e150"],
    ["convexity", "--mode", "induced", "--k", "1", "--system", "poly:3", "--function",
     "sin", "--grid", "list:1,2,3,4", "--backend", "float", "--tol", "1"],
    # a float nonnegative scan of transcendental input passes by its windows,
    # computed exactly on its float values; at --tol 0, and on a positivity
    # scan, it walks; an agreement's pinned bases each pass by their windows
    *(["convexity", "--mode", "direct", "--system", "trig-odd:1", "--function", "exp",
       "--backend", "float", "--grid", "uniform:-3,-0.2,12", *tol] for tol in ([], ["--tol", "0"])),
    ["chebcheck", "--system", "trig-odd:1", "--backend", "float", "--grid",
     "uniform:-3,-0.2,12"],
    ["convexity", "--mode", "agreement", "--system", "trig-odd:1", "--function", "exp",
     "--backend", "float", "--grid", "uniform:-3,-0.2,9"],
    # exact pinned modes read their witness, value and base off the direct walk: x^3
    # with its value at 5 lowered, so the first violated bases are not the first
    # bases; an agreement whose modes share first violated bases, with cuts that
    # are no prefix (ell < k), an interval check with 0 < ell < k, and the float
    # agreement of the same rational input, which answers on the exact engine
    *(["convexity", "--system", "poly:3", "--function", "cubic_dip.json", "--grid",
       "list:0,1,2,3,4,5,6", *mode] for mode in (
        ["--mode", "agreement"], ["--mode", "interval", "--k", "2", "--ell", "1"],
        ["--mode", "agreement", "--backend", "float"])),
    # the first error that a directly built float column meets: -inf before a
    # power of 1e200 that overflows, in an exhaustive and a sampled scan; a
    # window's singular denominator before a later point's square overflows
    ["chebcheck", "--system", "poly:3", "--backend", "float", "--grid", "list:-inf,1,2,1e200"],
    ["chebcheck", "--system", "poly:3", "--backend", "float", "--budget", "3", "--seed", "1",
     "--grid", "list:-inf,1,2,3,4,5,1e200"],
    ["variation", "--system", "poly:2", "--function", "power:2", "--backend", "float",
     "--a", "0", "--b", "6.4e154"],
]


def replay(argv: list) -> tuple[int, dict]:
    """(exit code, report without timing_seconds) of one command run from
    the data directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out):
            try:
                code = main(list(argv))
            except SystemExit as exc:     # argparse errors
                code = exc.code
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue())
    report.pop("timing_seconds", None)
    return code, report


def _goldens() -> list:
    with open(GOLDEN) as fh:
        return [json.loads(line) for line in fh]


def test_goldens_cover_the_cases():
    assert [g["argv"] for g in _goldens()] == CASES


@pytest.mark.parametrize("i", range(len(CASES)), ids=lambda i: f"{i}-{CASES[i][0]}")
def test_report_matches_golden(i):
    golden = _goldens()[i]
    code, report = replay(golden["argv"])
    assert (code, report) == (golden["code"], golden["report"])


def record() -> None:
    with open(GOLDEN, "w") as fh:
        for argv in CASES:
            code, report = replay(argv)
            fh.write(json.dumps({"argv": argv, "code": code, "report": report},
                                sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
