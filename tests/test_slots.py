"""``tools/slots.py --compare``, the check that two source trees give
the same report and exit code on every benchmark request: the same tree
twice agrees on a round of ``short``, and a tree whose report differs in
one field is caught, by request id.  It reads bench/workloads.py only."""

import contextlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("slots", ROOT / "tools" / "slots.py")
slots = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(slots)


class OneFieldOff:
    """A cli whose report for the request ``argv`` carries one field more."""

    def __init__(self, cli, argv: list):
        self.cli, self.argv = cli, argv

    def main(self, argv: list) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        report = json.loads(out.getvalue())
        if argv == self.argv:
            report["results"]["extra"] = 1
        print(json.dumps(report))
        return code


def test_compare_finds_only_the_request_that_differs(capsys):
    with tempfile.TemporaryDirectory() as work:
        requests = slots.workloads.generate(slots.workloads.WORKLOADS["short"], 1, range(1),
                                            work)
        clis = [slots.load_cli(ROOT, f"chebconvex_same{i}") for i in range(2)]
        assert slots.compare(clis, requests) == 0
        assert capsys.readouterr().out.endswith(f"{len(requests)} requests, 0 differ\n")
        odd = requests[len(requests) // 2]
        assert slots.compare([clis[0], OneFieldOff(clis[1], odd.argv)], requests) == 1
    out = capsys.readouterr().out
    assert f"differs on tree 1: {odd.id} " in out
    assert out.endswith(f"{len(requests)} requests, 1 differ\n")
