"""``tools/traffic.py``, which lists the package's code lines that no
benchmark request runs: on one round of ``short``, the anchors reader,
which no request of that round reaches, is listed, and ``cli.main``,
which every request runs through, is not.  It reads bench/workloads.py
only."""

import importlib.util
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic)


def test_one_round_of_short_lists_the_anchors_reader_and_not_main():
    with tempfile.TemporaryDirectory() as work:
        requests = traffic.workloads.generate(traffic.workloads.WORKLOADS["short"], 1,
                                              range(1), work)
        missed = traffic.unexecuted(requests)
    assert "cli._parse_anchors" in missed
    assert "cli.main" not in missed
    assert "cli._cmd_variation" in missed and missed["cli._cmd_variation"][1]   # called, in part


def test_spans():
    assert traffic.spans([3, 4, 5, 9]) == "3-5, 9"
    assert traffic.spans([7]) == "7"


def test_several_workloads_count_the_lines_none_runs(capsys):
    """Given --workload more than once, the last line also counts the
    lines that none of the workloads runs; for one, it is as before."""
    traffic.main(["--workload", "short", "--rounds", "0"])
    one = capsys.readouterr().out.splitlines()
    traffic.main(["--workload", "short", "--workload", "scan", "--rounds", "0"])
    both = capsys.readouterr().out.splitlines()
    assert one[:-1] == both[:-1]        # no request runs: every function is listed
    assert one[-1] == f"0 requests, {len(one) - 1} functions with lines not run"
    assert both[-1].startswith(one[-1] + ", ")
    assert both[-1].endswith(" lines run by none of short, scan")
