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
