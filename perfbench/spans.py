"""Per-layer spans recorded from the benchmark's own files.

:class:`Tracer` replaces a public function or method with a timing
wrapper in the namespace its caller looks it up in, keeps one span per
call in memory (name, start, end, parent), and puts every original back
on :meth:`Tracer.remove`.  A layer's self time is its spans' durations
minus the parts covered by nested wrapped spans on the same thread.
Coroutine functions get an async wrapper whose span is a root: awaits
interleave, so such a span is never the parent of another.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Spans kept for the written trace; later spans still count in the totals.
MAX_KEPT_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self.observers: Dict[str, List[Callable]] = defaultdict(list)
        #: Work counters read from the results of wrapped calls.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Engines created while installed (none answers queries in set-up).
        self.engines: list = []

    def reset(self) -> Dict[str, Dict[str, float]]:
        """Start a new phase; return the finished phase's totals and calls."""
        with self._lock:
            finished = {"total": dict(self.total), "calls": dict(self.calls)}
            self.total.clear()
            self.self_time.clear()
            self.calls.clear()
            self.counts.clear()
        return finished

    # -- recording --------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_id: int, name: str, start: float, end: float, parent: int, child_time: float) -> None:
        with self._lock:
            duration = end - start
            self.total[name] += duration
            self.self_time[name] += duration - child_time
            self.calls[name] += 1
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((span_id, name, start, end, parent))
            else:
                self.dropped += 1

    def wrap(self, name: str, function: Callable) -> Callable:
        observers = self.observers[name]
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span_id = next(self._ids)
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._record(span_id, name, start, end, -1, 0.0)
                for observe in observers:
                    observe(args, kwargs, result, end - start)
                return result

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][1] if stack else -1
            frame = [0.0, next(self._ids)]  # time covered by nested spans, span id
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                self._record(frame[1], name, start, end, parent, frame[0])
            for observe in observers:
                observe(args, kwargs, result, end - start)
            return result

        return traced

    # -- installing -------------------------------------------------------
    def patch(self, owner: object, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` (a module function or a class method)."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def observe(self, name: str, callback: Callable) -> None:
        """Call ``callback(args, kwargs, result, seconds)`` after each ``name`` call."""
        self.observers[name].append(callback)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines, plus a summary line."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps([span_id, name, start, end, parent]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls where its callers look them up.

    ``tracer.counts`` receives the work counters read from the public
    result objects the wrapped calls return.
    """
    # Module objects by name: ``repro.core.preprocess`` as an attribute is
    # the function the package re-exports, not the module.
    import importlib

    import repro
    from repro import DominanceCache, DynamicSkylineEngine, SkylineProbabilityEngine

    (coalescer, dominance, dynamic, engine, io, preprocess, restricted) = (
        importlib.import_module(f"repro.{name}")
        for name in ("serve.coalescer", "core.dominance", "core.dynamic", "core.engine", "io",
                     "core.preprocess", "core.restricted")
    )

    counts = tracer.counts
    engines = tracer.engines

    def add(key: str, amount: float) -> None:
        counts[key] += amount

    def on_det(args, kwargs, result, seconds):
        add("exact.terms", result.terms_evaluated)

    def on_absorb(args, kwargs, result, seconds):
        add("absorb.input", len(args[0]))
        add("absorb.removed", result.removed_count)

    def on_partition(args, kwargs, result, seconds):
        add("partition.components", len(result))
        largest = max((len(part) for part in result), default=0)
        counts["partition.largest"] = max(counts.get("partition.largest", 0), largest)

    def on_sample(args, kwargs, result, seconds):
        add("sampling.samples", result.samples)
        add("sampling.checks", result.checks)

    def on_restricted(args, kwargs, result, seconds):
        add("restricted.factor_passes", result.factor_passes)
        add("restricted.component_solves", result.component_solves)
        add("restricted.component_hits", result.component_hits)

    def on_edit(args, kwargs, result, seconds):
        add("dynamic.edits", 1)
        add("dynamic.partitions_recomputed", result.partitions_recomputed)
        add("dynamic.partitions_reused", result.partitions_reused)

    def on_batch(args, kwargs, result, seconds):
        add("dominance.hits", result.cache_hits)
        add("dominance.lookups", result.cache_hits + result.cache_misses)

    def on_compute(args, kwargs, result, seconds):
        add("serve.compute_weighted_s", seconds * len(result.indices))

    targets = [
        ("exact.det", engine, "skyline_probability_det", on_det),
        ("exact.det", dynamic, "skyline_probability_det", on_det),
        ("exact.det", restricted, "det_from_factor_lists", on_det),
        ("dominance.factors", DominanceCache, "dominance_factors", None),
        ("dominance.factors", dominance, "dominance_factors", None),
        ("preprocess.pipeline", engine, "preprocess", None),
        ("preprocess.pipeline", dynamic, "preprocess", None),
        ("preprocess.absorb", preprocess, "absorb", on_absorb),
        ("preprocess.absorb", restricted, "absorb_keys", on_absorb),
        ("preprocess.drop", preprocess, "drop_never_dominators", None),
        ("preprocess.partition", preprocess, "partition", on_partition),
        ("preprocess.partition", restricted, "partition_keys", on_partition),
        ("preprocess.partition", dynamic, "partition", on_partition),
        ("sampling.sam", engine, "skyline_probability_sampled", on_sample),
        ("sampling.sam", restricted, "skyline_probability_sampled", on_sample),
        ("engine.query", SkylineProbabilityEngine, "skyline_probability", None),
        ("engine.init", SkylineProbabilityEngine, "__init__", lambda a, k, r, s: engines.append(a[0])),
        ("batch", repro, "batch_skyline_probabilities", on_batch),
        ("batch", coalescer, "batch_skyline_probabilities", on_batch),
        ("serve.compute", coalescer, "batch_skyline_probabilities", on_compute),
        ("restricted", repro, "restricted_skyline_probabilities", on_restricted),
        ("dynamic.view_build", DynamicSkylineEngine, "__init__", None),
        ("dynamic.edit", DynamicSkylineEngine, "update_preference", on_edit),
        ("dynamic.edit", DynamicSkylineEngine, "insert_object", on_edit),
        ("dynamic.edit", DynamicSkylineEngine, "remove_object", on_edit),
        ("serve.submit", coalescer.QueryCoalescer, "submit", None),
        ("io.load", io, "load_dataset", None),
        ("io.load", io, "load_preferences", None),
    ]
    for name, owner, attribute, callback in targets:
        if callback is not None and callback not in tracer.observers[name]:
            tracer.observe(name, callback)
        tracer.patch(owner, attribute, name)


#: ``(name, unit, better)`` of every per-layer metric, in report order.
LAYER_METRICS = [
    ("exact.det_s", "s", "lower"),
    ("exact.det_calls", "count", "lower"),
    ("exact.terms", "count", "lower"),
    ("dominance.factors_s", "s", "lower"),
    ("dominance.factor_calls", "count", "lower"),
    ("dominance.hit_ratio", "ratio", "higher"),
    ("preprocess.self_s", "s", "lower"),
    ("preprocess.absorb_s", "s", "lower"),
    ("preprocess.absorbed_ratio", "ratio", "higher"),
    ("preprocess.drop_s", "s", "lower"),
    ("preprocess.partition_s", "s", "lower"),
    ("preprocess.components", "count", "lower"),
    ("preprocess.largest_component", "count", "lower"),
    ("sampling.sam_s", "s", "lower"),
    ("sampling.samples", "count", "lower"),
    ("sampling.checks", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.memo_hit_ratio", "ratio", "higher"),
    ("engine.memo_entries", "count", "lower"),
    ("batch.self_s", "s", "lower"),
    ("restricted.self_s", "s", "lower"),
    ("restricted.factor_passes", "count", "lower"),
    ("restricted.component_solves", "count", "lower"),
    ("restricted.component_hit_ratio", "ratio", "higher"),
    ("dynamic.view_build_s", "s", "lower"),
    ("dynamic.edit_s", "s", "lower"),
    ("dynamic.partitions_recomputed", "count", "lower"),
    ("dynamic.partitions_reused", "count", "higher"),
    ("serve.compute_s", "s", "lower"),
    ("serve.wait_s", "s", "lower"),
    ("serve.http_s", "s", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("io.load_s", "s", "lower"),
    ("traced.ops_per_s", "1/s", "higher"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, setup: Dict[str, Dict[str, float]], run: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one traced run.

    ``setup`` is what :meth:`Tracer.reset` returned at the end of the
    set-up phase; ``run`` holds the workload's own counts of the timed
    phase (``ops``, ``ops_per_s`` as the untraced run computes it,
    ``setups`` and the served-query sums).
    Times and counts are per operation of the timed phase and ratios are
    over it, except: ``dynamic.view_build_s`` is per view build and
    ``io.load_s`` per set-up (both set-up work), the other ``dynamic.*``
    are per edit, ``serve.*`` per query, and
    ``preprocess.largest_component`` and ``engine.memo_entries`` are
    maxima.
    """
    counts = dict(tracer.counts)
    ops = run["ops"]
    own = tracer.self_time
    memo_hits = memo_lookups = 0
    memo_entries = 0
    for engine in tracer.engines:
        info = engine.cache_info()
        memo_hits += info["hits"]
        memo_lookups += info["hits"] + info["misses"]
        memo_entries = max(memo_entries, info["entries"])
    edits = counts.get("dynamic.edits", 0)
    queries = run.get("serve.queries", 0)
    solves = counts.get("restricted.component_solves", 0)
    hits = counts.get("restricted.component_hits", 0)
    values = {
        "exact.det_s": own["exact.det"] / ops,
        "exact.det_calls": tracer.calls["exact.det"] / ops,
        "exact.terms": counts.get("exact.terms", 0) / ops,
        "dominance.factors_s": own["dominance.factors"] / ops,
        "dominance.factor_calls": tracer.calls["dominance.factors"] / ops,
        "dominance.hit_ratio": _ratio(counts.get("dominance.hits", 0), counts.get("dominance.lookups", 0)),
        "preprocess.self_s": own["preprocess.pipeline"] / ops,
        "preprocess.absorb_s": own["preprocess.absorb"] / ops,
        "preprocess.absorbed_ratio": _ratio(counts.get("absorb.removed", 0), counts.get("absorb.input", 0)),
        "preprocess.drop_s": own["preprocess.drop"] / ops,
        "preprocess.partition_s": own["preprocess.partition"] / ops,
        "preprocess.components": counts.get("partition.components", 0) / ops,
        "preprocess.largest_component": counts.get("partition.largest", 0),
        "sampling.sam_s": own["sampling.sam"] / ops,
        "sampling.samples": counts.get("sampling.samples", 0) / ops,
        "sampling.checks": counts.get("sampling.checks", 0) / ops,
        "engine.self_s": own["engine.query"] / ops,
        "engine.memo_hit_ratio": _ratio(memo_hits, memo_lookups),
        "engine.memo_entries": memo_entries,
        "batch.self_s": own["batch"] / ops,
        "restricted.self_s": own["restricted"] / ops,
        "restricted.factor_passes": counts.get("restricted.factor_passes", 0) / ops,
        "restricted.component_solves": solves / ops,
        "restricted.component_hit_ratio": _ratio(hits, solves + hits),
        "dynamic.view_build_s": _ratio(
            setup["total"].get("dynamic.view_build", 0.0), setup["calls"].get("dynamic.view_build", 0)
        ),
        "dynamic.edit_s": _ratio(tracer.total["dynamic.edit"], edits),
        "dynamic.partitions_recomputed": _ratio(counts.get("dynamic.partitions_recomputed", 0), edits),
        "dynamic.partitions_reused": _ratio(counts.get("dynamic.partitions_reused", 0), edits),
        "serve.compute_s": _ratio(tracer.total["serve.compute"], queries),
        "serve.wait_s": _ratio(tracer.total["serve.submit"] - counts.get("serve.compute_weighted_s", 0), queries),
        "serve.http_s": _ratio(run.get("serve.roundtrip_s", 0) - tracer.total["serve.submit"], queries),
        "serve.batch_size_mean": _ratio(run.get("serve.batch_size_sum", 0), queries),
        "io.load_s": _ratio(setup["total"].get("io.load", 0.0), run["setups"]),
        "traced.ops_per_s": run["ops_per_s"],
    }
    return values
