"""Start-up: the command line loads only what a command runs.

Building the parser loads no module of the engine; each command loads
the modules it calls when it runs, and answers in a fresh interpreter
as it does in a process that loaded everything before.  The help texts
are the ones the package printed when it loaded the whole engine at
import (recorded in ``data/help.json`` with 80 columns, on Python
3.11).  The package resolves each public name in its module at each
use."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chebconvex
from chebconvex.cli import main
from test_cli import run_cli, run_fresh, without_timing

SRC = str(Path(chebconvex.__file__).resolve().parent.parent)
HELP = Path(__file__).resolve().parent / "data" / "help.json"
ENGINE = ("determinant", "divdiff", "induced", "convexity", "variation", "identities", "systems")

#: A small request of each subcommand, and the engine modules it loads.
COMMANDS = {
    "chebcheck": (["chebcheck", "--system", "poly:3", "--grid", "uniform:0,2,6"],
                  {"determinant", "systems"}),
    "divdiff": (["divdiff", "--system", "poly:3", "--function", "power:3",
                 "--grid", "list:0,1/2,2"], {"determinant", "systems", "divdiff"}),
    "convexity": (["convexity", "--mode", "agreement", "--system", "poly:3", "--function",
                   "power:4", "--grid", "uniform:0,2,5", "--backend", "float"],
                  {"determinant", "systems", "divdiff", "induced", "convexity"}),
    "variation": (["variation", "--system", "poly:2", "--g", "power:2", "--h", "power:3",
                   "--a", "1/2", "--b", "1"], {"determinant", "systems", "divdiff", "variation"}),
    "identities": (["identities", "--suite", "induced-det", "--trials", "3"],
                   set(ENGINE) - {"variation"}),
}


def loaded_after(code: str) -> set:
    """The engine modules loaded in a fresh interpreter after ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    probe = (f"{code}\nimport sys\n"
             f"print(' '.join(m for m in {ENGINE!r} if 'chebconvex.' + m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_building_the_parser_loads_no_engine_module():
    assert loaded_after("import chebconvex.cli as cli; cli.build_parser()") == set()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_loads_only_the_modules_it_calls(command):
    argv, modules = COMMANDS[command]
    code = ("import contextlib, io, chebconvex.cli as cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({argv!r})")
    assert loaded_after(code) == modules


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_fresh_process_gives_the_in_process_report(capsys, command):
    argv, _ = COMMANDS[command]
    code, report = run_cli(capsys, *argv)
    fresh_code, fresh_report = run_fresh(*argv)
    assert code == fresh_code
    assert without_timing(report) == without_timing(fresh_report)
    assert "error" not in report


@pytest.mark.parametrize("argv", [[], *([name] for name in sorted(COMMANDS))])
def test_the_help_texts_are_unchanged(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == json.loads(HELP.read_text())[" ".join(["chebconvex", *argv])]


def test_every_public_name_resolves_in_its_module_and_is_listed():
    names = chebconvex.__all__
    assert len(names) == 59 and set(names) <= set(dir(chebconvex))     # the errors module too
    for name in names:
        module = chebconvex._MODULE_OF[name]
        value = getattr(chebconvex, name)
        if name == module:
            assert value is sys.modules[f"chebconvex.{module}"]
        else:
            assert value is getattr(sys.modules[f"chebconvex.{module}"], name)
            assert name not in vars(chebconvex)     # looked up at each use, never kept
    namespace = {}
    exec("from chebconvex import *", namespace)
    assert set(names) <= set(namespace)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'chebconvex' has no attribute 'nope'"):
        chebconvex.nope    # noqa: B018


def test_the_startup_tool_times_every_case_in_one_pass(capsys):
    """``tools/startup.py --runs 1`` on this tree: one median for each
    case, the benchmark's set-up and a request of every subcommand."""
    spec = importlib.util.spec_from_file_location(
        "startup", Path(__file__).resolve().parent.parent / "tools" / "startup.py")
    startup = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(startup)
    assert set(startup.CASES) == {"setup", *COMMANDS}
    assert startup.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:1 + len(startup.CASES)]}
    assert rows.keys() == startup.CASES.keys()
    assert all(float(median) > 0 and float(iqr) == 0 for median, iqr in rows.values())
    assert lines[-2] == "1 runs of each case on each tree"
