"""Tests of the benchmark's tracer and correctness rule.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chebconvex  # noqa: E402
import chebconvex.cli  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    ["chebcheck", "--system", "poly:3", "--grid", "uniform:0,2,6"],
    ["convexity", "--mode", "agreement", "--system", "poly:3", "--function", "power:4",
     "--grid", "uniform:0,2,5"],
    ["convexity", "--mode", "interval", "--k", "1", "--ell", "1", "--system", "poly:3",
     "--function", "exp", "--grid", "uniform:0,2,6", "--backend", "float"],
    ["divdiff", "--system", "poly:3", "--function", "power:3", "--grid", "list:0,1/2,2"],
    ["variation", "--system", "poly:2", "--g", "power:2", "--h", "power:3",
     "--a", "1/2", "--b", "1"],
    ["identities", "--suite", "induced-det", "--trials", "3"],
]


def function_attributes() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "chebconvex" or name.startswith("chebconvex.")):
            for attr, value in vars(module).items():
                if callable(value) and not isinstance(value, type):
                    out[(name, attr)] = value
    return out


def traced(argvs) -> tracer.Tracer:
    t = tracer.Tracer()
    t.install()
    try:
        for i, argv in enumerate(argvs):
            backend = argv[argv.index("--backend") + 1] if "--backend" in argv else "exact"
            with t.request(i, backend):
                out = run.run_request(chebconvex.cli, workloads.Request(str(i), argv, backend))
            assert out.error is None and out.code in (0, 1)
    finally:
        t.remove()
    return t


def test_wrappers_reach_every_importer_and_are_removed():
    before = function_attributes()
    t = tracer.Tracer()
    t.install()
    try:
        during = function_attributes()
    finally:
        t.remove()
    changed = {key for key, value in before.items() if during[key] is not value}
    originals = {id(before[key]) for key in changed}
    missed = [key for key, value in before.items()
              if id(value) in originals and key not in changed]
    assert not missed
    for layer in tracer.LAYERS:
        module = sys.modules[f"chebconvex.{layer}"]
        for attr, value in vars(module).items():
            if not attr.startswith("_") and callable(value) and not isinstance(value, type) \
                    and getattr(value, "__module__", None) == module.__name__:
                assert (module.__name__, attr) in changed
    for key in [("chebconvex.convexity", "det"), ("chebconvex.cli", "is_positive_chebyshev"),
                ("chebconvex.determinant", "evaluate"), ("chebconvex", "det")]:
        assert key in changed
    assert during[("chebconvex.convexity", "det")] is during[("chebconvex.determinant", "det")]
    after = function_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_spans_nest_and_self_times_add_up_to_request_time():
    t = traced(SMALL)
    own = t.self_times()
    starts, ends, parents = t.span_start, t.span_end, t.span_parent
    for rid in range(len(SMALL)):
        spans = [i for i, r in enumerate(t.span_request) if r == rid]
        roots = [i for i in spans if parents[i] < 0]
        assert [t.names[t.span_name[i]] for i in roots] == ["cli.main"]
        root = roots[0]
        assert math.isclose(sum(own[i] for i in spans), ends[root] - starts[root],
                            rel_tol=1e-9, abs_tol=1e-12)
        for i in spans:
            assert own[i] > -1e-12
            p = parents[i]
            if p >= 0:
                assert t.span_request[p] == rid
                assert starts[p] <= starts[i] <= ends[i] <= ends[p]


def test_traced_runs_repeat_counts_and_ratios():
    first, second = traced(SMALL).metrics(), traced(SMALL).metrics()
    assert first.keys() == second.keys()
    for name, (value, unit) in first.items():
        if unit != "s":
            assert second[name] == (value, unit), name
    assert first["induced.derived_eval.calls"][0] > 0
    assert first["determinant.det.exact.calls"][0] > 0
    assert first["determinant.det.float.calls"][0] > 0
    assert first["cli.main.calls"][0] == len(SMALL)


def test_float_indeterminate_golden_passes_when_equal_to_exact_twin():
    req = workloads.Request("r0.S1.float", [], "float", twin="r0.S1.exact")
    golden = {"exit": 1, "checks": {"positivity": {"verdict": "indeterminate"}}}
    twin = {"exit": 0, "checks": {"positivity": {"verdict": "positive_on_grid",
                                                 "witness": None}}}
    fixed = {"exit": 0, "checks": {"positivity": {"verdict": "positive_on_grid"}}}
    wrong = {"exit": 1, "checks": {"positivity": {"verdict": "violated"}}}
    assert check.matches_golden(req, golden, golden, twin)
    assert check.matches_golden(req, fixed, golden, twin)
    assert not check.matches_golden(req, wrong, golden, twin)
    exact = workloads.Request("r0.S1.exact", [], "exact")
    assert not check.matches_golden(exact, fixed, golden, twin)


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    reqs = [workloads.Request(f"r0.{i}.{b}", [], b) for i, b in enumerate(("exact", "float") * 60)]
    e2e = run.end_to_end_metrics(reqs, [0.01 * (i + 1) for i in range(len(reqs))],
                                 {reqs[0].id}, 0.1, 20.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
    layers = traced(SMALL[:1]).metrics()
    layers["trace.overhead_ratio"] = (1.0, "ratio")
    layers["cli.main.defect_ratio"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}


def test_recorded_defect_is_not_counted_as_failed():
    defect = workloads.Request("r0.Ir.float", [], "float",
                               expect={"kind": "identities", "defect": True})
    other = workloads.Request("r0.I.float", [], "float", expect={"kind": "identities"})
    singular = {"exit": 2, "error": "SingularDenominator"}
    judgement = check.judge([defect, other], [singular, singular], None)
    assert judgement.failed == {defect.id, other.id}
    out = run.result(judgement, 2, {})
    assert (out["correct"], out["failed"]) == (False, 1)
    out = run.result(check.judge([defect], [singular], None), 1, {})
    assert (out["correct"], out["failed"]) == (True, 0)


def test_goldens_are_read_one_round_at_a_time_in_order():
    for name, w in workloads.WORKLOADS.items():
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            rounds = list(run.golden_rounds(name, seed))
            assert len(rounds) == w.golden_rounds
            for r, goldens in enumerate(rounds):
                assert goldens and all(rid.startswith(f"r{r}.") for rid in goldens)
