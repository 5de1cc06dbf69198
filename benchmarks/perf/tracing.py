"""Out-of-program tracing for the benchmark: timing wrappers and span maths.

The traced repetition swaps timing wrappers onto the public methods of the
objects :class:`~repro.api.engine.Engine` builds (and onto the backbone's
leaf modules), so no file of the program changes.  Every wrapped call
becomes one span ``(name, start_ns, end_ns, span_id, parent_id)`` kept in
memory; :func:`layer_metrics` folds the spans into the per-layer metrics
named in ``BENCHMARK.json`` and :meth:`Tracer.write` dumps them as
``spans.jsonl`` once the run is over.  Untraced repetitions never import
this module's installers, so they run the program exactly as users do.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

#: Leaf-module types of the backbone that get their own ``nn.*_s`` metric;
#: every other leaf type (pooling, flatten, ...) sums into ``nn.other_s``.
NN_OPS = frozenset({"Conv2d", "BatchNorm2d", "ReLU", "Linear"})

#: Name of the span around the measured window (trace build -> report).
ROOT = "serve"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    span_id: int
    parent_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects nested spans from wrapped calls on one thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        # Input shapes of every backbone forward, for the FLOP and hwsim joins.
        self.forward_shapes: list[tuple[int, ...]] = []
        self.bytes_read_base = 0
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def timed(*args, **kwargs):
            span_id = next(ids)
            parent_id = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(name, start, end, span_id, parent_id))

        return timed

    def write(self, path) -> None:
        """Dump the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    f'{{"name": "{span.name}", "start_ns": {span.start_ns}, '
                    f'"end_ns": {span.end_ns}, "span_id": {span.span_id}, '
                    f'"parent_id": {span.parent_id}, "run_id": "{self.run_id}"}}\n'
                )


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Span id -> self time: its duration minus the part its children cover.

    Children may overlap one another; the covered part is the union of
    their intervals clipped to the parent's, so no nanosecond is
    subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append((span.start_ns, span.end_ns))
    result = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, cursor)
            end = min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration_ns - covered
    return result


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def install(engine, tracer: Tracer) -> None:
    """Wrap the engine's builders so every object it builds is traced.

    Call after set-up: the store and backbone already exist (they are
    memoized on the engine), so their wrappers go on now; servers, fleets
    and elastic fleets are wrapped as the builders return them.
    """
    import repro.serving.elastic
    import repro.serving.fleet
    import repro.serving.server

    wrap = tracer.wrap
    store = engine.build_store()
    store.read = wrap("storage.read", store.read)
    store.read_additional = wrap("storage.read", store.read_additional)
    for key in store.keys():
        encoded = store.metadata(key).encoded
        encoded.decode = wrap("codec.decode", encoded.decode)
    tracer.bytes_read_base = store.total_bytes_read

    backbone = engine.build_backbone()
    for module in backbone.modules():
        if not list(module.children()):
            op = type(module).__name__
            module.forward = wrap(f"nn.{op}", module.forward)
    timed_forward = wrap("backbone.forward", backbone.forward)

    def forward(x):
        tracer.forward_shapes.append(tuple(x.shape))
        return timed_forward(x)

    backbone.forward = forward

    # build_report is a module-level function the server and both fleets
    # imported by name, so it is rebound in each (this process only).
    for module in (repro.serving.server, repro.serving.fleet, repro.serving.elastic):
        module.build_report = wrap("report.build", module.build_report)

    build_server = engine.build_server

    def traced_server(*args, **kwargs):
        return _wrap_server(build_server(*args, **kwargs), tracer)

    engine.build_server = wrap("engine.build_server", traced_server)

    build_fleet = engine.build_fleet

    def traced_fleet():
        fleet = build_fleet()
        fleet.partition = wrap("fleet.partition", fleet.partition)
        fleet.run = wrap("fleet.run", fleet.run)
        return fleet

    engine.build_fleet = wrap("engine.build_fleet", traced_fleet)

    build_elastic = engine.build_elastic_fleet

    def traced_elastic():
        fleet = build_elastic()
        fleet.run = wrap("elastic.run", fleet.run)
        return fleet

    engine.build_elastic_fleet = wrap("engine.build_elastic_fleet", traced_elastic)
    engine.build_trace = wrap("workload.build_trace", engine.build_trace)
    engine.serve = wrap(ROOT, engine.serve)


def _wrap_server(server, tracer: Tracer):
    """Wrap one freshly built server's run, cache, policy, preprocess, pricing."""
    wrap = tracer.wrap
    if server.cache is not None:
        server.cache.read_through = wrap("cache.read_through", server.cache.read_through)
    policy = server.policy
    policy.select = wrap("policy.select", policy.select)
    policy.select_cached = wrap("policy.select", policy.select_cached)
    # The scale model sits behind the (optionally load-adaptive) policy.
    inner = getattr(policy, "inner", policy)
    predictor = getattr(inner, "predictor", None)
    if predictor is not None:
        predictor.choose_resolution = wrap(
            "scale_model.forward", predictor.choose_resolution
        )
    server.preprocessor = wrap("preprocess", server.preprocessor)
    server.batch_cost.batch_seconds = wrap("batch_pricing", server.batch_cost.batch_seconds)

    timed_run = wrap("server.run", server.run)
    counters = tracer.counters

    def run(trace):
        report = timed_run(trace)
        # Cache tallies reset at every run, so bank them after each one.
        if server.cache is not None:
            stats = server.cache.stats
            counters["cache.lookups"] += stats.lookups
            counters["cache.hits"] += stats.hits + stats.partial_hits
            counters["cache.evictions"] += stats.evictions
        return report

    server.run = run
    return server


# ---------------------------------------------------------------------------
# Folding spans into the per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    store,
    conv_flops: Callable[[tuple[int, ...]], int],
    predicted_seconds: Callable[[tuple[int, ...]], float],
) -> dict[str, float]:
    """The serving-layer metrics of one traced repetition.

    ``conv_flops`` and ``predicted_seconds`` map a backbone input shape to
    its analytic Conv2d FLOPs and its hwsim-priced batch seconds.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        count[span.name] += 1
        total[span.name] += span.duration_ns / 1e9
        own[span.name] += selfs[span.span_id] / 1e9

    def under(name: str, parent: str) -> list[Span]:
        return [
            span
            for span in spans
            if span.name == name
            and span.parent_id in by_id
            and by_id[span.parent_id].name == parent
        ]

    shard_runs = [span.duration_ns / 1e9 for span in under("server.run", "fleet.run")]
    root_s = total[ROOT]
    named_self = sum(own.values()) - own[ROOT]
    nn_other = sum(
        total[name]
        for name in total
        if name.startswith("nn.") and name[3:] not in NN_OPS
    )
    conv_s = total["nn.Conv2d"]
    shapes = tracer.forward_shapes
    flops = sum(conv_flops(shape) for shape in shapes)
    predicted = sum(predicted_seconds(shape) for shape in shapes)
    counters = tracer.counters

    return {
        "engine.server_build_s": total["engine.build_server"],
        "workload.build_trace_s": total["workload.build_trace"],
        "server.runs": count["server.run"],
        "server.loop_self_s": own["server.run"],
        "fleet.partition_s": total["fleet.partition"],
        "fleet.merge_s": own["fleet.run"],
        "fleet.shard_run_sum_s": sum(shard_runs),
        "fleet.slowest_shard_s": max(shard_runs, default=0.0),
        "elastic.self_s": own["elastic.run"],
        "elastic.segments": len(under("server.run", "elastic.run")),
        "elastic.servers_built": len(under("engine.build_server", "elastic.run")),
        "storage.read_calls": count["storage.read"],
        "storage.read_self_s": own["storage.read"],
        "storage.bytes_read": store.total_bytes_read - tracer.bytes_read_base,
        "codec.decode_calls": count["codec.decode"],
        "codec.decode_self_s": own["codec.decode"],
        "cache.lookups": counters["cache.lookups"],
        "cache.hit_ratio": _ratio(counters["cache.hits"], counters["cache.lookups"]),
        "cache.evictions": counters["cache.evictions"],
        "cache.self_s": own["cache.read_through"],
        "policy.select_calls": count["policy.select"],
        "policy.select_self_s": own["policy.select"],
        "scale_model.forward_calls": count["scale_model.forward"],
        "scale_model.forward_s": total["scale_model.forward"],
        "scale_model.memo_hit_ratio": (
            1.0 - _ratio(count["scale_model.forward"], count["policy.select"])
            if count["policy.select"]
            else 0.0
        ),
        "preprocess.calls": count["preprocess"],
        "preprocess.self_s": own["preprocess"],
        "batch_pricing.calls": count["batch_pricing"],
        "batch_pricing.self_s": own["batch_pricing"],
        "backbone.forward_calls": count["backbone.forward"],
        "backbone.memo_hit_ratio": (
            1.0 - _ratio(count["backbone.forward"], count["batch_pricing"])
            if count["batch_pricing"]
            else 0.0
        ),
        "backbone.self_s": own["backbone.forward"],
        "nn.conv2d_s": conv_s,
        "nn.batchnorm2d_s": total["nn.BatchNorm2d"],
        "nn.relu_s": total["nn.ReLU"],
        "nn.linear_s": total["nn.Linear"],
        "nn.other_s": nn_other,
        "nn.conv2d_gflops_per_s": _ratio(flops / 1e9, conv_s),
        "hwsim.predicted_over_measured": _ratio(predicted, total["backbone.forward"]),
        "report.build_s": total["report.build"],
        "trace.coverage": _ratio(named_self, root_s),
    }


def sweep_metrics(pool_wall_s: float, cell_seconds: list[float], workers: int) -> dict[str, float]:
    """The sweep layer: pool wall against the serial per-cell cost."""
    serial_total = sum(cell_seconds)
    return {
        "sweep.pool_wall_s": pool_wall_s,
        "sweep.cell_serial_median_s": statistics.median(cell_seconds),
        "sweep.pool_efficiency": _ratio(serial_total, pool_wall_s * workers),
        "sweep.overhead_s": pool_wall_s - serial_total / workers,
    }
