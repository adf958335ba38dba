"""chebconvex benchmark: seeded CLI workloads driven in process.

Run from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

One client calls ``chebconvex.cli.main`` in a closed loop over the
workload's seeded requests (see workloads.py), round after round, until
``--seconds`` have passed and at least MIN_REQUESTS requests are done.
Request wall times are rescaled to one reference machine speed, probed
every half second of requests (see reference()).  Every report is then
checked (see check.py).  ``--trace 1`` instead runs
the workload's fixed traced request set once plainly and once under the
layer tracer (see tracer.py), and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import check
import workloads

MIN_REQUESTS = 160   # at least 10 samples lie above the p90 window
#: Request times are reported at the machine speed at which one
#: reference() kernel takes this long (see reference()).
REFERENCE_S = 0.002
PROBE_EVERY_S = 0.5
SETUP_RUNS = 8
SETUP_CODE = "import chebconvex.cli as cli; cli.build_parser()"
GOLDENS = Path(__file__).resolve().parent / "goldens"
WORK_DIR = ".bench_tmp"
TRACE_DIR = ".bench_out"


def log(*parts) -> None:
    print("bench:", *parts, file=sys.stderr, flush=True)


def program_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "chebconvex" / "cli.py").is_file():
        raise SystemExit("bench: no src/chebconvex here; run from the root of a checkout")
    return src


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    import chebconvex.cli
    return chebconvex.cli


def setup_times(src: Path, count: int) -> list:
    """Wall times of fresh interpreters that import chebconvex.cli and
    build the parser, at the reference speed probed around them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    before = speed_probe()
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls and rounds times up to 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        times.append(time.perf_counter() - t0)
    scale = 2 * REFERENCE_S / (before + speed_probe())
    return [t * scale for t in times]


@dataclass(frozen=True)
class _Power:
    k: int

    def value(self, x):
        return x ** self.k


def reference() -> float:
    """Seconds of a fixed pure-Python kernel shaped like the program's
    hot loop: a grid positivity scan of (1, x, x^2, x^3) over 35 tuples,
    with Fraction-free integer elimination and pivoted float elimination.
    A shared virtual machine's speed drifts by a fifth or more over tens
    of seconds; timing this kernel between requests lets each request's
    wall time be rescaled to one reference speed, so runs made at
    different moments compare.  It runs no program code, so a change to
    the program cannot move it."""
    t0 = time.perf_counter()
    basis = [_Power(k) for k in range(4)]
    grid = [Fraction(3 * i + 1, 16) for i in range(7)]
    for pts in itertools.combinations(grid, 4):
        rows = [[f.value(x) for x in pts] for f in basis]
        a = [[int(v * 16 ** 3) for v in row] for row in rows]
        prev = 1
        for k in range(3):
            for i in range(k + 1, 4):
                for j in range(k + 1, 4):
                    a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        b = [[float(v) for v in row] for row in rows]
        for k in range(4):
            p = max(range(k, 4), key=lambda r: abs(b[r][k]))
            b[k], b[p] = b[p], b[k]
            for i in range(k + 1, 4):
                f = b[i][k] / b[k][k]
                for j in range(k + 1, 4):
                    b[i][j] -= f * b[k][j]
    return time.perf_counter() - t0


def speed_probe() -> float:
    return statistics.mean(reference() for _ in range(5))


def run_request(cli, req) -> check.Outcome:
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(req.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        code, error = None, f"{type(exc).__name__}: {exc}"
    return check.Outcome(time.perf_counter() - t0, code, buf.getvalue(), error)


def measure(cli, req) -> tuple:
    """(wall seconds, decision) of one request.  Only the small decision
    is kept, so the harness's memory does not grow with the report text
    of the requests a run gets through."""
    out = run_request(cli, req)
    return out.seconds, check.decision(req, out)


def golden_path(workload: str, seed: int) -> Path:
    return GOLDENS / f"{workload}-{seed}.jsonl"


def read_goldens(workload: str, seed: int):
    """(request id, golden decision) pairs in request order, read line by
    line, so that a timed run holds one round's goldens at a time and its
    peak RSS does not depend on whether its seed has goldens."""
    path = golden_path(workload, seed)
    if not path.is_file():
        return
    with open(path) as fh:
        next(fh)   # header: workload, seed, rounds
        for line in fh:
            yield tuple(json.loads(line))


def golden_rounds(workload: str, seed: int):
    """The goldens of round 0, 1, ... as one dict per round."""
    pairs = read_goldens(workload, seed)
    return (dict(group) for _, group in
            itertools.groupby(pairs, key=lambda pair: pair[0].split(".", 1)[0]))


def percentile(values, q: float) -> float:
    """Windowed quantile: the mean of the order statistics within
    floor(sqrt(n)/2) ranks of the nearest rank.  Request costs cluster by
    kind and grid size, and a bare order statistic that falls between
    two clusters jumps from run to run; the window smooths that.  With
    n >= MIN_REQUESTS at least 10 samples lie above the p90 window."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, math.ceil(q * n) - 1)
    w = math.isqrt(n) // 2
    window = ordered[max(0, k - w):k + w + 1]
    return sum(window) / len(window)


def report_failures(judgement: check.Judgement) -> None:
    if judgement.failed:
        log(f"{len(judgement.failed)} not correct: "
            f"{len(judgement.failed) - len(judgement.unexpected)} hit the recorded defect, "
            f"{len(judgement.unexpected)} failed")
    for rid, reason in judgement.unexpected[:10]:
        log(f"unexpected failure {rid}: {reason}")


def timed_run(w, seed: int, seconds: float, src: Path, work: str) -> dict:
    setup_times(src, 1)   # writes the bytecode caches; not measured
    setups = setup_times(src, SETUP_RUNS // 2)
    cli = import_cli(src)
    rounds = [w.make_round(seed, r, work) for r in range(w.max_rounds)]
    for req in w.make_round(seed, -1, work)[:2]:   # warm-up, never measured
        run_request(cli, req)

    goldens_of_round = golden_rounds(w.name, seed)
    judgement = check.Judgement({}, set(), [])
    done, raw, scales = [], [], []
    probes = [speed_probe()]
    busy = 0.0
    deadline = time.perf_counter() + seconds
    for requests in rounds:
        decisions = []
        for req in requests:
            t, dec = measure(cli, req)
            raw.append(t)
            decisions.append(dec)
            busy += t
            if busy >= PROBE_EVERY_S or req is requests[-1]:
                # requests since the last probe run at the mean of the
                # speeds probed before and after them
                probes.append(speed_probe())
                scale = 2 * REFERENCE_S / (probes[-2] + probes[-1])
                scales += [scale] * (len(raw) - len(scales))
                busy = 0.0
        # judged round by round (twins share a round), so that only the
        # failures outlive their round
        verdict = check.judge(requests, decisions, next(goldens_of_round, None))
        judgement.failed |= verdict.failed
        judgement.unexpected += verdict.unexpected
        done.extend(requests)
        if time.perf_counter() >= deadline and len(done) >= MIN_REQUESTS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the other half of the set-ups after the loop, so that their median
    # samples the machine over the whole run
    setup_s = statistics.median(setups + setup_times(src, SETUP_RUNS - len(setups)))

    report_failures(judgement)
    log(f"{len(done)} requests in {len(done) // len(rounds[0])} rounds, "
        f"{sum(raw):.2f} s busy, reference "
        f"{min(probes) * 1e3:.2f}-{max(probes) * 1e3:.2f} ms")
    seconds = [t * scale for t, scale in zip(raw, scales)]
    metrics = end_to_end_metrics(done, seconds, judgement.failed, setup_s, peak_rss_mb)
    return result(judgement, len(done), metrics)


def end_to_end_metrics(requests, seconds, failed: set, setup_s: float,
                       peak_rss_mb: float) -> dict:
    """``seconds`` are the requests' wall times at the reference speed;
    ``failed`` are the requests that did not report what a correct
    program reports, the recorded defect included."""
    latency = [math.inf if r.id in failed else t for r, t in zip(requests, seconds)]
    by_backend = {b: [t for r, t in zip(requests, latency) if r.backend == b]
                  for b in ("exact", "float")}
    attempted = len(requests)
    return {
        "request_s.p50": (percentile(latency, 0.5), "s"),
        "request_s.p90": (percentile(latency, 0.9), "s"),
        "exact.request_s.p50": (percentile(by_backend["exact"], 0.5), "s"),
        "float.request_s.p50": (percentile(by_backend["float"], 0.5), "s"),
        # one client, no think time: the loop is busy for the sum of the
        # request times
        "requests_per_s": ((attempted - len(failed)) / sum(seconds), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def traced_run(w, seed: int, src: Path, work: str, root: Path) -> dict:
    import tracer
    cli = import_cli(src)
    requests = workloads.generate(w, seed, range(w.trace_rounds), work)
    for req in w.make_round(seed, -1, work)[:2]:
        run_request(cli, req)
    plain = [measure(cli, req) for req in requests]
    t = tracer.Tracer()
    t.install()
    try:
        traced = []
        for i, req in enumerate(requests):
            with t.request(i, req.backend):
                traced.append(measure(cli, req))
    finally:
        t.remove()
    goldens = dict(read_goldens(w.name, seed))
    plain_judgement = check.judge(requests, [d for _, d in plain], goldens)
    judgement = check.judge(requests, [d for _, d in traced], goldens)
    report_failures(judgement)
    overhead = sum(s for s, _ in traced) / sum(s for s, _ in plain)
    log(f"{len(requests)} traced requests, {len(t.span_start)} spans, "
        f"overhead x{overhead:.2f}")
    out_dir = root / TRACE_DIR
    out_dir.mkdir(exist_ok=True)
    t.write(str(out_dir / f"spans-{w.name}-{seed}.bin"))
    metrics = t.metrics()
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    defects = len(judgement.failed) - len(judgement.unexpected)
    metrics["cli.main.defect_ratio"] = (defects / len(requests), "ratio")
    judgement.unexpected += plain_judgement.unexpected
    return result(judgement, len(requests), metrics)


def result(judgement: check.Judgement, attempted: int, metrics: dict) -> dict:
    """``failed`` counts the failures outside the recorded defect, which
    is measured by ``cli.main.defect_ratio`` and the +inf latencies."""
    failed = len({rid for rid, _ in judgement.unexpected})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = program_source(root)
    w = workloads.WORKLOADS[args.workload]
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=root / WORK_DIR)
    try:
        if args.trace:
            out = traced_run(w, args.seed, src, work, root)
        else:
            out = timed_run(w, args.seed, args.seconds, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
