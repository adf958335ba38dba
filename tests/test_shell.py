"""The request shell around the engine: the one-pass report writer
(``cli._json``) against the report tree that ``json.dumps`` wrote before
(``oracles.jsonify``), and a command's own parser, which ``main`` hands
the arguments after a command name, against the main parser, which
parses every other argv."""

import contextlib
import dataclasses
import io
import json
import math
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import test_reports
from chebconvex import cli
from chebconvex.convexity import ConvexityVerdict
from chebconvex.determinant import PositivityReport


def old_text(value) -> str:
    return json.dumps(oracles.jsonify(value), sort_keys=True, indent=2)


@dataclasses.dataclass(frozen=True)
class Nested:
    """A report dataclass whose fields hold other report values."""

    first: object
    second: object = None


SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 400, 2 ** 400)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16, 5e-324])
           | st.text() | st.sampled_from(["", "é", " ", "\x00\"\\/", "\U0001f600"])
           | st.fractions())


def dataclasses_of(children):
    return st.one_of(*(st.builds(cls, **{f.name: children for f in dataclasses.fields(cls)})
                       for cls in (Nested, PositivityReport, ConvexityVerdict)))


VALUES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), children, max_size=4), dataclasses_of(children)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_writer_writes_what_json_dumps_wrote(value):
    assert cli._json(value) == old_text(value)


@pytest.mark.parametrize("value", [
    [], (), {}, {"b": [], "a": {}}, [[[]]], Nested(None), Nested(first=()),
    {"z": Fraction(-3, 4), "é": math.nan, "": (1, 2.5, True, None)},
    PositivityReport("violated", 2, 3, True, 0, witness=(Fraction(1, 2), 1.0),
                     witness_value=-math.inf)])
def test_writer_edge_values(value):
    assert cli._json(value) == old_text(value)


def test_every_golden_report_is_written_as_json_dumps_wrote_it(monkeypatch):
    """The report objects of every golden case, as main hands them to the
    writer, errors and argparse reports included."""
    reports, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, *args: reports.append(report)
                        or emit(report, *args))
    monkeypatch.chdir(test_reports.DATA)
    for argv in test_reports.CASES:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            cli.main(list(argv))
    assert len(reports) == len(test_reports.CASES)
    for report in reports:
        assert cli._json(report) == old_text(report)


# ---------------------------------------------------------------------------
# a command's own parser against the main parser

GRID = ["--grid", "list:0,1,2,3"]

ARGVS = [
    # every command
    ["chebcheck", "--system", "poly:2", *GRID],
    ["divdiff", "--system", "poly:2", "--function", "power:2", "--grid", "list:1,2"],
    ["convexity", "--system", "poly:2", "--function", "power:3", *GRID, "--mode", "agreement"],
    ["identities", "--suite", "sylvester", "--trials", "2", "--backend", "float"],
    ["variation", "--system", "poly:2", "--function", "power:2", "--a", "0", "--b", "1",
     "--m0", "4", "--rounds", "1"],
    ["chebcheck"],
    # option forms
    ["chebcheck", "--system=poly:2", "--grid=list:0,1,2"],
    ["chebcheck", "--sys", "poly:2", "--gr", "list:0,1,2", "--back", "float"],
    ["chebcheck", "--k=1", "--k", "2", "--system", "poly:2", *GRID],
    ["variation", "--anchors=-1,0;1,2", "--system", "poly:2", "--g", "power:2", "--a", "0",
     "--b", "1", "--m0", "4", "--rounds", "1"],
    ["chebcheck", "--system", "poly:2", *GRID, "--"],
    ["chebcheck", "--", "--system", "poly:2"],
    # help and version after a command
    ["chebcheck", "-h"], ["variation", "--help"], ["variation", "--he"],
    ["chebcheck", "--version"], ["chebcheck", "--ver"],
    # argument errors
    ["chebcheck", "--bogus", "1"], ["chebcheck", "-x"], ["chebcheck", "extra"],
    ["chebcheck", "--sy", "poly:2"], ["chebcheck", "--k", "x"], ["chebcheck", "--seed", "1.5"],
    ["convexity", "--mode", "bad"], ["chebcheck", "--backend", "bogus"],
    ["variation", "--anchors", "-1,0;1,2"], ["chebcheck", "--out"],
    # no command, an unknown command, options before the command
    [], ["bogus"], ["Chebcheck"], ["-h"], ["--version"], ["--backend", "float", "chebcheck"],
    ["--", "chebcheck"], ["-h", "chebcheck"],
]


def outcome(argv: list) -> tuple:
    """(exit code, stdout without its timing_seconds line, stderr) of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(None if argv is None else list(argv))
        except SystemExit as exc:
            code = exc.code
    lines = [line for line in out.getvalue().splitlines(keepends=True)
             if not line.lstrip().startswith('"timing_seconds":')]
    return code, "".join(lines), err.getvalue()


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_commands_own_parser_answers_as_the_main_parser(argv, monkeypatch):
    """The same stdout, outside timing_seconds, stderr and exit code as
    when main finds no command's own parser and passes the main parser
    every argv, as it did before it parsed a command's arguments itself."""
    direct = outcome(argv)
    main_parser_only = types.SimpleNamespace(commands=types.SimpleNamespace(choices={}),
                                             parse_args=cli.build_parser().parse_args)
    monkeypatch.setattr(cli, "build_parser", lambda: main_parser_only)
    assert outcome(argv) == direct
    assert direct[1] or direct[2]


def test_main_reads_sys_argv_through_the_main_parser(monkeypatch):
    monkeypatch.setattr("sys.argv", ["chebconvex", "chebcheck", "--system", "poly:2", *GRID])
    assert outcome(None) == outcome(["chebcheck", "--system", "poly:2", *GRID])
