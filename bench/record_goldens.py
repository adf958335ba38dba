"""Record the golden decisions of the default and held-out seeds.

Run from the root of a checkout, at the commit whose behaviour the
goldens pin:

    python3 bench/record_goldens.py

Every request of a workload's first ``golden_rounds`` rounds runs once
and its decision is stored in goldens/<workload>-<seed>.jsonl.  A request
that hit the recorded defect stores what a correct program reports
instead (check.golden_decision); for a float identity suite that is a
pass, so the suite is run again on the exact backend, which must pass
every trial.  Nothing is written for a workload with any other failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def exact_rerun_passes(cli, req) -> bool:
    exact = dataclasses.replace(req, argv=req.argv[:-1] + ["exact"], backend="exact")
    return run.measure(cli, exact)[1] == {"exit": 0, "failed": 0}


def record(w, seed: int, cli, work: str) -> bool:
    requests = workloads.generate(w, seed, range(w.golden_rounds), work)
    judgement = check.judge(requests, [run.measure(cli, req)[1] for req in requests], None)
    run.report_failures(judgement)
    unproven = [req.id for req in requests if req.id in judgement.failed
                and req.expect["kind"] == "identities" and not exact_rerun_passes(cli, req)]
    for rid in unproven:
        run.log(f"{rid}: the exact backend fails the suite too")
    if judgement.unexpected or unproven:
        return False
    goldens = {req.id: check.golden_decision(req, judgement.decisions[req.id])
               for req in requests}
    run.GOLDENS.mkdir(exist_ok=True)
    path = run.golden_path(w.name, seed)
    with open(path, "w") as fh:   # one request per line, in request order (run.read_goldens)
        fh.write(json.dumps({"workload": w.name, "seed": seed,
                             "rounds": w.golden_rounds}) + "\n")
        for rid, d in goldens.items():
            fh.write(json.dumps([rid, d], sort_keys=True) + "\n")
    run.log(f"{path.name}: {len(requests)} requests, "
            f"{len(judgement.failed)} hit the recorded defect")
    return True


def main() -> int:
    root = Path.cwd()
    cli = run.import_cli(run.program_source(root))
    (root / run.WORK_DIR).mkdir(exist_ok=True)
    ok = True
    for name in sorted(workloads.WORKLOADS):
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            work = tempfile.mkdtemp(prefix="goldens-", dir=root / run.WORK_DIR)
            try:
                ok &= record(workloads.WORKLOADS[name], seed, cli, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
