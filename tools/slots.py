"""Time each request slot of a benchmark workload in process.

A slot is a request shape of a workload round, such as ``V1b.exact`` of
``short`` (see bench/workloads.py, which this script only reads).  The
script writes the requests of rounds 0..ROUNDS-1 of one seed, loads the
package of each source tree given into one process (each under its own
module name), and runs every request through each tree's ``cli.main``,
the trees in alternating order from one request to the next.  For
each tree it prints every slot's median time per round over the
repetitions and the slot's share of the round; with two trees, also the
ratio of the second to the first.

    python3 tools/slots.py --workload short --seed 1 --rounds 6 --repeat 5 [TREE ...]

TREE is the root of a checkout (default: this one).  ``--compare``
instead checks that every request gives the same exit code and report,
outside ``timing_seconds``, on each tree as on the first, field by field
and byte by byte; it takes ``--workload`` and ``--seed`` more than once,
and checks the requests of every workload and seed given; for each
request that differs it prints the fields that differ, such as
``results.check.verdict indeterminate -> convex_on_sample,
results.check.indeterminate_count 3 -> 0``, or, where every field
agrees, ``text differs at line N``, the first line of the report text
that differs, the value of the ``timing_seconds`` line aside:

    python3 tools/slots.py --compare --workload scan --workload pinned \
        --workload short --seed 1 --seed 2 PARENT_TREE .

``--slot NAME`` (repeatable, e.g. ``--slot S6.exact --slot S7.exact``)
keeps only the requests of the named slots, so a change can time just
the slots it touches; a slot's share is then of the named slots' round.
``--slot`` narrows ``--compare`` alike.

``--metrics`` instead runs every request of the rounds a timed run of
bench/run.py generates (``Workload.max_rounds``, or ``--rounds``) of one
workload and seed once on each tree, the trees in alternating order from
one request to the next, and judges each tree's rounds as bench/run.py
does (bench/check.py; a failed request, the recorded defect included,
takes +inf seconds).  For each tree it prints bench/run.py's latency
metrics, through its own ``percentile``, in milliseconds (unscaled wall
times, which the alternation keeps comparable), the busy seconds, the
failed requests and ``requests_per_s`` as bench/run.py computes it,
(attempted - failed) / busy seconds; with two trees, also the ratio of
the second to the first.  For each tree it also prints, by slot, how
many requests took within 5% (``BAND``) of its p50 and of its p90,
summed over the passes: which slots hold each percentile:

    python3 tools/slots.py --metrics --workload short --seed 1 PARENT_TREE .

With ``--repeat N`` it makes N such passes, the tree that runs first
alternating from one pass to the next, and prints each metric's median
over the passes; then, for each latency metric and ``requests_per_s``
and each tree, the median and interquartile range (inclusive quartiles)
over the passes and the number of passes in which it read best (lowest
latency, highest rate), so that a gain in any of them can be set
against the spread of a tree's own passes before the benchmark runs:

    python3 tools/slots.py --metrics --repeat 10 --workload short --seed 1 PARENT_TREE .
"""

import argparse
import collections
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import check  # noqa: E402
import workloads  # noqa: E402

bench_run = importlib.import_module("run")      # bench/run.py


def load_cli(tree: Path, alias: str):
    """The ``cli`` module of the package under ``tree``/src, imported
    as the package ``alias``."""
    pkg = tree / "src" / "chebconvex"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def run(cli, argv: list) -> tuple:
    """(seconds, exit code, stdout) of one request."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return time.perf_counter() - t0, code, out.getvalue()


def slot_of(request) -> str:
    """The request id without its round: r3.V1b.exact -> V1b.exact."""
    return request.id.split(".", 1)[1]


def timings(clis: list, requests: list, rounds: int, repeat: int) -> list:
    """For each tree, each slot's median seconds per round.  Each request
    runs on every tree in turn, the first tree alternating from one
    request to the next, so that a drift in machine speed reaches every
    tree alike."""
    per_round = [{} for _ in clis]      # tree -> slot -> [seconds per round, by repetition]
    for rep in range(repeat):
        totals = [{} for _ in clis]
        for i, req in enumerate(requests):
            order = list(range(len(clis)))
            for t in order if (rep + i) % 2 == 0 else reversed(order):
                seconds = run(clis[t], req.argv)[0]
                totals[t][slot_of(req)] = totals[t].get(slot_of(req), 0.0) + seconds
        for t, tree in enumerate(totals):
            for slot, total in tree.items():
                per_round[t].setdefault(slot, []).append(total / rounds)
    return [{slot: statistics.median(v) for slot, v in tree.items()} for tree in per_round]


def report(trees: list, medians: list) -> None:
    slots = list(medians[0])
    rounds = [sum(m.values()) for m in medians]
    head = "".join(f" {'ms':>9} {'share':>6}" for _ in trees)
    print(f"{'slot':<24}{head}" + ("   ratio" if len(trees) == 2 else ""))
    for slot in slots + ["round"]:
        cells, values = "", []
        for m, total in zip(medians, rounds):
            v = total if slot == "round" else m[slot]
            values.append(v)
            cells += f" {v * 1e3:>9.2f} {v / total:>6.1%}"
        ratio = f" {values[1] / values[0]:>7.3f}" if len(values) == 2 else ""
        print(f"{slot:<24}{cells}{ratio}")
    for i, tree in enumerate(trees):
        print(f"tree {i}: {tree}")


_ABSENT = "(absent)"

#: How the line of a report's timing field begins, past its indentation;
#: :func:`compare` reads the line as this alone.
TIMING = '"timing_seconds":'


def changes(a, b, path: str = "") -> list:
    """Each field, by its dotted path, where the JSON values ``a`` and
    ``b`` differ, as "path a -> b": objects are compared key by key, an
    absent key reading "(absent)", any other value whole, and a string
    shown bare."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [c for key in sorted(a.keys() | b.keys())
                for c in changes(a.get(key, _ABSENT), b.get(key, _ABSENT),
                                 f"{path}.{key}" if path else key)]
    if a == b:
        return []
    shown = [v if isinstance(v, str) else json.dumps(v) for v in (a, b)]
    return [f"{path} {shown[0]} -> {shown[1]}"]


def first_difference(a: list, b: list) -> int:
    """The index of the first line where the lists of lines ``a`` and
    ``b`` differ, or the length of the shorter where one extends the
    other."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def compare(clis: list, requests: list) -> int:
    """The number of requests whose exit code or report, outside
    timing_seconds, differs from the first tree's, in its fields or in
    its text.  Each such request is printed, with the fields that differ
    (see :func:`changes`), or where they all agree, the first line of
    the text that differs."""
    def outcome(cli, argv):
        _, code, text = run(cli, argv)
        doc = json.loads(text)
        doc.pop("timing_seconds", None)
        lines = [TIMING if line.lstrip().startswith(TIMING) else line
                 for line in text.splitlines()]
        return {"code": code, **doc}, lines
    differ = 0
    for req in requests:
        first, first_lines = outcome(clis[0], req.argv)
        for i, cli in enumerate(clis[1:], 1):
            got, lines = outcome(cli, req.argv)
            if got != first or lines != first_lines:
                differ += 1
                print(f"differs on tree {i}: {req.id} {' '.join(req.argv)}")
                print(f"    {', '.join(changes(first, got))}" if got != first else
                      f"    text differs at line {first_difference(first_lines, lines) + 1}")
    print(f"{len(requests)} requests, {differ} differ")
    return 1 if differ else 0


#: The end-to-end metrics of bench/run.py that --metrics prints, in ms.
LATENCIES = ("request_s.p50", "request_s.p90", "exact.request_s.p50", "float.request_s.p50")

#: The half-width of a percentile's band (:func:`bands`), as a share of
#: the percentile.
BAND = 0.05


def bands(requests: list, seconds: list, failed: set) -> dict:
    """For ``p50`` and ``p90`` of the requests' times, as bench/run.py
    computes ``request_s`` (its ``percentile``, a failed request taking
    +inf seconds), a Counter of the slots of the requests whose time lies
    within BAND of that percentile."""
    latency = [math.inf if r.id in failed else t for r, t in zip(requests, seconds)]
    out = {}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        p = bench_run.percentile(latency, q)
        out[name] = collections.Counter(slot_of(r) for r, t in zip(requests, latency)
                                        if abs(t - p) <= BAND * p)
    return out


def metrics(clis: list, warmup: list, rounds: list, goldens) -> list:
    """For each tree, bench/run.py's latency metrics (seconds) and
    ``requests_per_s``, its busy seconds, its failed requests and its
    percentile :func:`bands` over the requests of ``rounds`` (one
    list of requests per round), each run once on every tree, the first
    tree alternating from one request to the next, after the ``warmup``
    requests, which are not measured, and judged round by round against
    ``goldens`` (one dict per round, or None past them)."""
    for cli in clis:
        for req in warmup:
            bench_run.run_request(cli, req)
    seconds, failed = [[] for _ in clis], [set() for _ in clis]
    for requests in rounds:
        decisions = [[] for _ in clis]
        for i, req in enumerate(requests):
            order = list(range(len(clis)))
            for t in order if i % 2 == 0 else reversed(order):
                out = bench_run.run_request(clis[t], req)
                seconds[t].append(out.seconds)
                decisions[t].append(check.decision(req, out))
        golden = next(goldens, None)
        for t, tree in enumerate(decisions):
            failed[t] |= check.judge(requests, tree, golden).failed
    done = [req for requests in rounds for req in requests]
    out = []
    for tree_seconds, tree_failed in zip(seconds, failed):
        found = bench_run.end_to_end_metrics(done, tree_seconds, tree_failed, 0.0, 0.0)
        out.append({**{name: found[name][0] for name in (*LATENCIES, "requests_per_s")},
                    "busy_s": sum(tree_seconds), "failed": len(tree_failed),
                    "bands": bands(done, tree_seconds, tree_failed)})
    return out


def report_metrics(trees: list, passes: list, requests: int) -> None:
    """Each metric's median over ``passes`` (each a list of each tree's
    metrics), and with more than one pass, each tree's spread and wins
    in each latency metric (ms) and in ``requests_per_s``; and each
    tree's percentile bands, by slot, the most requests first, summed
    over the passes."""
    print(f"{'metric':<24}" + "".join(f" {'tree ' + str(i):>10}" for i in range(len(trees)))
          + ("    ratio" if len(trees) == 2 else ""))
    for name in (*LATENCIES, "busy_s", "failed", "requests_per_s"):
        scale = 1e3 if name in LATENCIES else 1
        unit = {"busy_s": " (s)", "failed": "", "requests_per_s": " (1/s)"}.get(name, " (ms)")
        values = [statistics.median(found[t][name] for found in passes)
                  for t in range(len(trees))]
        cells = "".join(f" {v * scale:>10.4g}" for v in values)
        ratio = f" {values[1] / values[0]:>8.3f}" if len(values) == 2 and values[0] else ""
        print(f"{name + unit:<24}{cells}{ratio}")
    print(f"{requests} requests on each tree, {len(passes)} passes")
    for i, tree in enumerate(trees):
        print(f"tree {i}: {tree}")
    for t in range(len(trees)):
        for name in ("p50", "p90"):
            held = sum((found[t]["bands"][name] for found in passes), collections.Counter())
            print(f"tree {t}: within {BAND:.0%} of {name}: "
                  + (", ".join(f"{slot} {count}" for slot, count in held.most_common())
                     or "no request"))
    for name in (*LATENCIES, "requests_per_s") if len(passes) > 1 else ():
        best, scale, unit = (max, 1, "") if name == "requests_per_s" else (min, 1e3, " (ms)")
        for t in range(len(trees)):
            values = [found[t][name] * scale for found in passes]
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            won = sum(best(range(len(trees)), key=lambda i: found[i][name]) == t
                      for found in passes)
            print(f"tree {t}: {name}{unit} median {q2:.4g}, interquartile range "
                  f"{q3 - q1:.4g}, won {won} of {len(passes)} passes")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--rounds", type=int,
                        help="rounds 0..ROUNDS-1 (default 6; with --metrics, max_rounds)")
    parser.add_argument("--repeat", type=int,
                        help="repetitions (default 5; with --metrics, passes, default 1)")
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--metrics", action="store_true")
    parser.add_argument("--slot", action="append", metavar="NAME",
                        help="time only this slot, such as S6.exact (repeatable)")
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    args = parser.parse_args(argv)
    seeds = args.seed or [workloads.DEFAULT_SEED]
    if not args.compare and len(args.workload) * len(seeds) > 1:
        parser.error("timing takes one --workload and one --seed")
    if args.metrics and (args.compare or args.slot):
        parser.error("--metrics takes neither --compare nor --slot")
    trees = [t.resolve() for t in args.trees]
    clis = [load_cli(tree, f"chebconvex_tree{i}") for i, tree in enumerate(trees)]
    if args.metrics:
        w = workloads.WORKLOADS[args.workload[0]]
        with tempfile.TemporaryDirectory() as work:
            rounds = [w.make_round(seeds[0], r, work)
                      for r in range(w.max_rounds if args.rounds is None else args.rounds)]
            warmup = w.make_round(seeds[0], -1, work)[:2]     # as bench/run.py warms up
            passes = []
            for r in range(args.repeat or 1):       # the first tree alternates pass by pass
                order = clis if r % 2 == 0 else clis[::-1]
                found = metrics(order, warmup, rounds, bench_run.golden_rounds(w.name, seeds[0]))
                passes.append(found if r % 2 == 0 else found[::-1])
        report_metrics(trees, passes, sum(map(len, rounds)))
        return 0
    args.rounds = 6 if args.rounds is None else args.rounds
    args.repeat = 5 if args.repeat is None else args.repeat
    with tempfile.TemporaryDirectory() as work:
        # each workload and seed writes its input files under its own directory
        runs = [(name, seed, workloads.generate(workloads.WORKLOADS[name], seed,
                                                range(args.rounds),
                                                str(Path(work, f"{name}-{seed}"))))
                for name in args.workload for seed in seeds]
        if args.slot:
            runs = [(name, seed, [req for req in requests if slot_of(req) in args.slot])
                    for name, seed, requests in runs]
        missing = set(args.slot or ()) - {slot_of(req) for *_, requests in runs
                                          for req in requests}
        if missing:
            parser.error(f"no request of slot {', '.join(sorted(missing))}")
        if args.compare:
            return compare(clis, [dataclasses.replace(req, id=f"{name}.s{seed}.{req.id}")
                                  for name, seed, requests in runs for req in requests])
        (_, _, requests), = runs
        report(trees, timings(clis, requests, args.rounds, args.repeat))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
