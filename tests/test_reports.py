"""Golden whole reports: fixed command lines replayed through ``cli.main``.

Each case's report (without ``timing_seconds``) and exit code must equal
its line in ``tests/data/reports.jsonl``.  The cases cover every
subcommand, all four convexity modes, all six identity suites on both
backends, and each family of input error (exit 2).  File inputs live in
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
