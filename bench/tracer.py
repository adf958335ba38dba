"""Outside-in layer tracing of chebconvex.

:meth:`Tracer.install` wraps every public function of the layer modules
and puts the wrapper into every ``chebconvex`` module that holds the
function under any name (``convexity`` does ``from .determinant import
det``, so patching ``determinant.det`` alone would miss its calls).
:meth:`Tracer.remove` puts the originals back.

Each timed call records a span: name, start, end, parent span and
request id, kept in memory in flat arrays.  A span's self time is its
duration minus the durations of its child spans; children run inside
their parent on one thread and do not overlap, so the self times of
all spans of a request add up to the duration of its root span
(``cli.main``), with nothing counted twice.

The per-scalar helpers in ``COUNT_ONLY`` are counted but not timed:
timing them would cost more than the work they do, and their time stays
in the self time of their caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

PACKAGE = "chebconvex"
LAYERS = ("core", "determinant", "divdiff", "induced", "convexity", "variation", "cli")
COUNT_ONLY = frozenset({
    "core.scalar_backend", "core.combine_backends", "core.as_backend",
    "core.collection_backend", "core.scalar_to_json", "core.scalar_from_json",
})
#: Layers reported by inclusive time of their outermost calls.
TOTAL_TIMED = (
    "convexity.check_convex_induced", "convexity.check_convex_interval",
    "convexity.cross_mode_agreement", "variation.estimate_variation",
    "variation.check_variation_bound",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._request = -1
        self._float = False
        self._evaluated: list = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from chebconvex.induced import DerivedFn
        self._derived = DerivedFn
        hooks = {
            "core.evaluate": self._after_evaluate,
            "determinant.det": self._after_det,
            "determinant.is_positive_chebyshev": self._after_scan,
            "convexity.check_convex_direct": self._after_scan,
            "convexity.check_convex_induced": self._after_pinned,
            "convexity.check_convex_interval": self._after_pinned,
        }
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._counted(name, fn) if name in COUNT_ONLY \
                    else self._timed(name, fn, hooks.get(name))
                wrappers[id(fn)] = (fn, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE
                                      or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, name, fn, after):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer._request)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return timed

    # -- counters at layer boundaries ----------------------------------------

    @contextlib.contextmanager
    def request(self, request_id: int, backend: str):
        self._request = request_id
        self._float = backend == "float"
        self._evaluated = []
        try:
            yield
        finally:
            # outside every span: hashing a DerivedFn is costly, and the
            # hooks run after their span has ended, in the caller's time
            evaluated = self._evaluated
            self.counts["core.evaluate.distinct"] += len(set(evaluated))
            self.counts["induced.derived_eval.calls"] += sum(
                type(f) is self._derived for f, _ in evaluated)
            self._request = -1

    def _after_evaluate(self, args, result):
        self._evaluated.append(args[:2])

    def _after_det(self, args, result):
        self.counts["det.float" if isinstance(result, float) else "det.exact"] += 1

    def _after_scan(self, args, result):
        self.counts["tuples"] += result.tuples_checked
        if self._float:
            self.counts["float_tuples"] += result.tuples_checked
            self.counts["float_indeterminate"] += result.indeterminate_count

    def _after_pinned(self, args, result):
        self.counts["bases_checked"] += result.bases_checked
        self.counts["bases_skipped"] += result.bases_skipped

    # -- aggregation ------------------------------------------------------------

    def self_times(self) -> list:
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(len(starts))]

    def layer_stats(self) -> dict:
        """name -> {"calls", "self_s", "total_s"}; total_s sums the
        outermost calls only, so recursion is not counted twice."""
        own = self.self_times()
        total_ids = {self._ids[n] for n in TOTAL_TIMED if n in self._ids}
        names, parents = self.span_name, self.span_parent
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        for i, nid in enumerate(names):
            calls[nid] += 1
            self_s[nid] += own[i]
            if nid in total_ids:
                p = parents[i]
                while p >= 0 and names[p] != nid:
                    p = parents[p]
                if p < 0:
                    total_s[nid] += self.span_end[i] - self.span_start[i]
        return {self.names[nid]: {"calls": calls[nid], "self_s": self_s[nid],
                                  "total_s": total_s[nid]} for nid in calls}

    def metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}."""
        stats = self.layer_stats()
        c = self.counts

        def stat(name, key):
            return stats.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        dets = c["det.exact"] + c["det.float"]
        bases = c["bases_checked"] + c["bases_skipped"]
        out = {
            "core.evaluate.calls": (stat("core.evaluate", "calls"), "count"),
            "core.evaluate.self_s": (stat("core.evaluate", "self_s"), "s"),
            "core.evaluate.distinct_ratio": (
                ratio(c["core.evaluate.distinct"], stat("core.evaluate", "calls")), "ratio"),
            "core.scalar_backend.calls": (c["core.scalar_backend"], "count"),
            "core.validate_tuple.calls": (stat("core.validate_tuple", "calls"), "count"),
            "core.validate_tuple.self_s": (stat("core.validate_tuple", "self_s"), "s"),
            "determinant.det.exact.calls": (c["det.exact"], "count"),
            "determinant.det.float.calls": (c["det.float"], "count"),
            "determinant.det.self_s": (stat("determinant.det", "self_s"), "s"),
            "determinant.collocation_matrix.calls": (
                stat("determinant.collocation_matrix", "calls"), "count"),
            "determinant.collocation_matrix.self_s": (
                stat("determinant.collocation_matrix", "self_s"), "s"),
            "determinant.is_positive_chebyshev.self_s": (
                stat("determinant.is_positive_chebyshev", "self_s"), "s"),
            "determinant.increasing_tuples.self_s": (
                stat("determinant.increasing_tuples", "self_s"), "s"),
            "determinant.tuples_checked": (c["tuples"], "count"),
            "determinant.det_per_tuple": (ratio(dets, c["tuples"]), "det/tuple"),
            "determinant.indeterminate_ratio": (
                ratio(c["float_indeterminate"], c["float_tuples"]), "ratio"),
            "divdiff.divided_difference.calls": (
                stat("divdiff.divided_difference", "calls"), "count"),
            "divdiff.divided_difference.self_s": (
                stat("divdiff.divided_difference", "self_s"), "s"),
            "induced.derived_eval.calls": (c["induced.derived_eval.calls"], "count"),
            "induced.induced_system.calls": (stat("induced.induced_system", "calls"), "count"),
            "induced.verify_induced_system.self_s": (
                stat("induced.verify_induced_system", "self_s"), "s"),
            "convexity.check_convex_direct.calls": (
                stat("convexity.check_convex_direct", "calls"), "count"),
            "convexity.check_convex_direct.self_s": (
                stat("convexity.check_convex_direct", "self_s"), "s"),
            "convexity.check_convex_induced.total_s": (
                stat("convexity.check_convex_induced", "total_s"), "s"),
            "convexity.check_convex_interval.total_s": (
                stat("convexity.check_convex_interval", "total_s"), "s"),
            "convexity.cross_mode_agreement.total_s": (
                stat("convexity.cross_mode_agreement", "total_s"), "s"),
            "convexity.bases_checked_ratio": (ratio(c["bases_checked"], bases), "ratio"),
            "variation.estimate_variation.total_s": (
                stat("variation.estimate_variation", "total_s"), "s"),
            "variation.variation_sum.calls": (stat("variation.variation_sum", "calls"), "count"),
            "variation.variation_sum.self_s": (stat("variation.variation_sum", "self_s"), "s"),
            "variation.check_variation_bound.total_s": (
                stat("variation.check_variation_bound", "total_s"), "s"),
            "cli.main.calls": (stat("cli.main", "calls"), "count"),
            "cli.main.self_s": (stat("cli.main", "self_s"), "s"),
        }
        return out

    def write(self, path: str) -> None:
        """Spans as one JSON header line (names, span count) followed by
        the arrays name, parent, request (int32) and start, end
        (float64, perf_counter seconds), each span_count long."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.span_start),
                                 "arrays": ["name", "parent", "request", "start", "end"]})
                     .encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_request,
                        self.span_start, self.span_end):
                arr.tofile(fh)
