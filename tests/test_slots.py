"""``tools/slots.py --compare``, the check that two source trees give
the same report and exit code on every benchmark request: the same tree
twice agrees on a round of ``short``, and of several workloads and seeds
in one command, and a tree whose report differs in one field is caught,
by request id; ``--slot``, which times only the slots it names; and
``--metrics``, which judges every request of a timed run's rounds on
each tree as bench/run.py does and prints its latency metrics and
``requests_per_s``, over ``--repeat`` passes with each tree's spread and
wins in each of them, and the slots whose requests lie within 5% of p50
and of p90.  It reads bench/ only."""

import collections
import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("slots", ROOT / "tools" / "slots.py")
slots = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(slots)


class Edited:
    """A cli whose report for the request ``argv`` is edited in place by
    ``edit``; by default it carries one field more."""

    def __init__(self, cli, argv: list, edit=lambda report: report["results"].update(extra=1)):
        self.cli, self.argv, self.edit = cli, argv, edit

    def main(self, argv: list) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        report = json.loads(out.getvalue())
        if argv == self.argv:
            self.edit(report)
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
        assert slots.compare([clis[0], Edited(clis[1], odd.argv)], requests) == 1
    out = capsys.readouterr().out
    assert f"differs on tree 1: {odd.id} " in out
    assert "\n    results.extra (absent) -> 1\n" in out
    assert out.endswith(f"{len(requests)} requests, 1 differ\n")


def test_compare_prints_the_fields_that_differ(capsys):
    """A request whose verdict and count moved, as a certified float scan's
    may, is printed with each field that moved, by its path."""
    def settled(report):
        report["results"]["positivity"].update(verdict="edited", indeterminate_count=-1)
    with tempfile.TemporaryDirectory() as work:
        requests = slots.workloads.generate(slots.workloads.WORKLOADS["short"], 1, range(1),
                                            work)
        req = next(r for r in requests if r.argv[0] == "chebcheck" and r.backend == "float")
        cli = slots.load_cli(ROOT, "chebconvex_fields")
        before = json.loads(slots.run(cli, req.argv)[2])["results"]["positivity"]
        capsys.readouterr()
        assert slots.compare([cli, Edited(cli, req.argv, settled)], [req]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (f"    results.positivity.indeterminate_count "
                        f"{before['indeterminate_count']} -> -1, "
                        f"results.positivity.verdict {before['verdict']} -> edited")


def test_changes_compares_objects_key_by_key():
    a = {"code": 0, "results": {"check": {"verdict": "indeterminate", "witness": [1, 2]}}}
    b = {"code": 1, "results": {"check": {"verdict": "violated", "witness": [1, 3]}},
         "error": None}
    assert slots.changes(a, b) == ["code 0 -> 1", "error (absent) -> null",
                                   "results.check.verdict indeterminate -> violated",
                                   "results.check.witness [1, 2] -> [1, 3]"]
    assert slots.changes(a, a) == []


def test_compare_takes_every_workload_and_seed_given(capsys, monkeypatch):
    """One command checks the requests of each workload and seed given,
    each named by both, each run reading its own input files."""
    files: dict = {}      # workload.seed -> the input files its requests read
    compare = slots.compare

    def recorded(clis, requests):
        for r in requests:
            run = r.id.split(".r0.", 1)[0]
            files.setdefault(run, set()).update(a for a in r.argv if Path(a).is_file())
        recorded.requests = len(requests)
        return compare(clis, requests)
    monkeypatch.setattr(slots, "compare", recorded)
    argv = ["--compare", "--rounds", "1", "--workload", "short", "--workload", "pinned",
            "--seed", "1", "--seed", "2", str(ROOT), str(ROOT)]
    assert slots.main(argv) == 0
    assert set(files) == {"short.s1", "short.s2", "pinned.s1", "pinned.s2"}
    assert all(files.values())
    assert sum(map(len, files.values())) == len(set().union(*files.values()))
    assert capsys.readouterr().out.endswith(f"{recorded.requests} requests, 0 differ\n")


def test_timing_takes_one_workload_and_one_seed(capsys):
    with pytest.raises(SystemExit) as exited:
        slots.main(["--workload", "short", "--seed", "1", "--seed", "2", str(ROOT)])
    assert exited.value.code == 2
    assert "timing takes one --workload and one --seed" in capsys.readouterr().err


def test_slot_times_only_the_named_slots(capsys):
    argv = ["--workload", "short", "--seed", "1", "--rounds", "1", "--repeat", "1",
            "--slot", "D1.exact", "--slot", "V1.exact", str(ROOT)]
    assert slots.main(argv) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]
            if not line.startswith("tree ")]
    assert rows == ["D1.exact", "V1.exact", "round"]


def test_slot_names_a_slot_of_the_workload(capsys):
    with pytest.raises(SystemExit) as exited:
        slots.main(["--workload", "short", "--rounds", "1", "--slot", "S6.exact", str(ROOT)])
    assert exited.value.code == 2
    assert "no request of slot S6.exact" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# --metrics: bench/run.py's latency metrics of one workload on each tree

def test_metrics_judge_each_tree_as_bench_run_does(monkeypatch):
    """Each tree's rounds are judged against the goldens by bench/check.py,
    a failed request takes +inf seconds, and the metrics are bench/run.py's
    ``percentile`` of the request times, here made deterministic."""
    times, real = iter(range(1, 10 ** 6)), slots.bench_run.run_request

    def timed(cli, req):
        out = real(cli, req)
        out.seconds = next(times) / 1000
        return out
    with tempfile.TemporaryDirectory() as work:
        w = slots.workloads.WORKLOADS["short"]
        rounds = [w.make_round(1, 0, work)]
        req = next(r for r in rounds[0] if r.argv[0] == "chebcheck" and r.backend == "float")
        cli = slots.load_cli(ROOT, "chebconvex_metrics")
        edited = Edited(cli, req.argv,
                        lambda report: report["results"]["positivity"].update(verdict="edited"))
        monkeypatch.setattr(slots.bench_run, "run_request", timed)
        found = slots.metrics([cli, edited], [], rounds,
                              slots.bench_run.golden_rounds("short", 1))
        requests = rounds[0]
        failed = slots.check.judge(requests, [slots.check.decision(r, real(edited, r))
                                              for r in requests],
                                   next(slots.bench_run.golden_rounds("short", 1))).failed
    assert found[1]["failed"] == found[0]["failed"] + 1 == len(failed)
    # request i ran on tree i % 2 first, so took 2i + 1 ms there and 2i + 2 on the other
    own = [[(2 * i + 1 + (i % 2 != t)) / 1000 for i in range(len(requests))] for t in (0, 1)]
    for tree, seconds in zip(found, own):
        assert tree["busy_s"] == pytest.approx(sum(seconds))
    for tree, seconds in zip(found, own):   # bench/run.py's (attempted - failed) / busy seconds
        assert tree["requests_per_s"] == (len(requests) - tree["failed"]) / sum(seconds)
    latency = [math.inf if r.id in failed else s for r, s in zip(requests, own[1])]
    assert found[1]["request_s.p90"] == slots.bench_run.percentile(latency, 0.9)
    assert found[1]["float.request_s.p50"] == slots.bench_run.percentile(
        [s for s, r in zip(latency, requests) if r.backend == "float"], 0.5)


#: The bands of one tree in one pass, as --metrics' mocked metrics give them.
BANDS = {"p50": collections.Counter({"P1.exact": 1, "P6.float": 3}),
         "p90": collections.Counter()}


def test_bands_count_each_slots_requests_near_p50_and_p90():
    """A synthetic timing list of 40 requests: bench/run.py's windowed
    percentiles read 1.0 (p50) and 3.0 (p90); a request within 5% of one
    counts for its slot, a failed one (+inf) for none."""
    Request = dataclasses.make_dataclass("Request", ["id"])
    times = {"A.float": [1.0] * 24, "B.exact": [1.04] * 2, "D.float": [2.9],
             "C.exact": [3.0] * 12, "E.float": [3.0]}
    requests = [Request(f"r{i}.{slot}") for slot, ts in times.items() for i in range(len(ts))]
    seconds = [t for ts in times.values() for t in ts]
    found = slots.bands(requests, seconds, {"r0.E.float"})
    assert slots.bench_run.percentile([*seconds[:-1], math.inf], 0.5) == 1.0
    assert slots.bench_run.percentile([*seconds[:-1], math.inf], 0.9) == 3.0
    assert found == {"p50": {"A.float": 24, "B.exact": 2}, "p90": {"C.exact": 12, "D.float": 1}}


def test_metrics_run_the_rounds_of_a_timed_run(capsys, monkeypatch):
    """Without --rounds, every round that bench/run.py generates for a
    timed run (``Workload.max_rounds``); each tree's metrics are printed,
    with the ratio of the second tree to the first."""
    seen = {}

    def recorded(clis, warmup, rounds, goldens):
        seen.update(trees=len(clis), warmup=len(warmup), rounds=len(rounds))
        return [dict.fromkeys((*slots.LATENCIES, "busy_s", "failed", "requests_per_s"), 1.0 + t)
                | {"bands": BANDS} for t in range(len(clis))]
    short = slots.workloads.WORKLOADS["short"]
    monkeypatch.setitem(slots.workloads.WORKLOADS, "short",
                        dataclasses.replace(short, max_rounds=2))
    monkeypatch.setattr(slots, "metrics", recorded)
    assert slots.main(["--metrics", "--workload", "short", str(ROOT), str(ROOT)]) == 0
    assert seen == {"trees": 2, "warmup": 2, "rounds": 2}
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[-3:] for line in lines}
    assert rows["request_s.p90"] == ["1000", "2000", "2.000"]
    assert lines[-4:] == ["tree 0: within 5% of p50: P6.float 3, P1.exact 1",
                          "tree 0: within 5% of p90: no request",
                          "tree 1: within 5% of p50: P6.float 3, P1.exact 1",
                          "tree 1: within 5% of p90: no request"]
    assert rows["busy_s"] == ["1", "2", "2.000"]
    assert rows["requests_per_s"] == ["1", "2", "2.000"]


def test_metrics_repeat_reports_the_spread_and_the_wins(capsys, monkeypatch):
    """``--repeat N`` makes N passes, the first tree alternating pass by
    pass; each metric is the median over the passes, and each tree gets
    its median, interquartile range and wins in every latency metric (in
    ms, the lowest winning) and in requests_per_s (the highest winning)."""
    rates = {0: [10, 11, 14, 12, 30], 1: [12, 10, 15, 13, 20]}      # by tree, by pass
    p90s = {0: [10, 12, 9, 11, 30], 1: [9, 10, 10, 8, 10]}          # ms
    orders = []

    def recorded(clis, warmup, rounds, goldens):
        trees = [int(cli.__name__.split(".")[0][-1]) for cli in clis]   # chebconvex_tree<i>.cli
        orders.append(trees)
        return [dict.fromkeys((*slots.LATENCIES, "busy_s", "failed"), 1.0 + t)
                | {"request_s.p90": p90s[t][len(orders) - 1] / 1e3,
                   "requests_per_s": rates[t][len(orders) - 1], "bands": BANDS} for t in trees]
    short = slots.workloads.WORKLOADS["short"]
    monkeypatch.setitem(slots.workloads.WORKLOADS, "short",
                        dataclasses.replace(short, max_rounds=1))
    monkeypatch.setattr(slots, "metrics", recorded)
    argv = ["--metrics", "--repeat", "5", "--workload", "short", str(ROOT), str(ROOT)]
    assert slots.main(argv) == 0
    assert orders == [[0, 1], [1, 0], [0, 1], [1, 0], [0, 1]]
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[-3:] for line in lines}
    assert rows["requests_per_s"] == ["12", "13", "1.083"]
    assert rows["busy_s"] == ["1", "2", "2.000"]
    assert rows["request_s.p90"] == ["11", "10", "0.909"]
    # inclusive quartiles: tree 0 reads 11 and 14, tree 1 reads 12 and 15
    # the bands, summed over the passes, come before the spreads
    assert lines[-14:-10] == ["tree 0: within 5% of p50: P6.float 15, P1.exact 5",
                              "tree 0: within 5% of p90: no request",
                              "tree 1: within 5% of p50: P6.float 15, P1.exact 5",
                              "tree 1: within 5% of p90: no request"]
    assert lines[-2:] == [
        "tree 0: requests_per_s median 12, interquartile range 3, won 2 of 5 passes",
        "tree 1: requests_per_s median 13, interquartile range 3, won 3 of 5 passes"]
    # p90: tree 0 reads 10 and 12, tree 1 reads 9 and 10; equal latencies are
    # the first tree's win
    assert lines[-8:-4] == [
        "tree 0: request_s.p90 (ms) median 11, interquartile range 2, won 1 of 5 passes",
        "tree 1: request_s.p90 (ms) median 10, interquartile range 1, won 4 of 5 passes",
        "tree 0: exact.request_s.p50 (ms) median 1000, interquartile range 0, won 5 of 5 passes",
        "tree 1: exact.request_s.p50 (ms) median 2000, interquartile range 0, won 0 of 5 passes"]


def test_metrics_take_neither_compare_nor_slot(capsys):
    for extra in (["--compare"], ["--slot", "C1.exact"]):
        with pytest.raises(SystemExit) as exited:
            slots.main(["--metrics", "--workload", "short", *extra, str(ROOT)])
        assert exited.value.code == 2
    assert "--metrics takes neither --compare nor --slot" in capsys.readouterr().err
