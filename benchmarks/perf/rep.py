"""One benchmark repetition, run in a fresh process by ``bench.py``.

    python benchmarks/perf/rep.py '<task json>'

The task carries the config path, its dotted overrides (seed already
substituted), the mode (``serve`` or ``sweep``), whether to trace, and
where to write spans.  The repetition drives the program only through its
public API — ``load_config`` -> ``with_overrides`` -> ``Engine.serve`` /
``Engine.sweep`` -> ``to_json`` — and prints its result as one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """Largest resident set of this process or of any pool worker it reaped."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def _set_up(task: dict):
    """Import, load the config and build the shared pieces, timing each step.

    A sweep builds nothing more here: as with ``repro sweep``, the pool
    workers build their own store and backbone inside ``Engine.sweep``.
    """
    start = time.perf_counter()
    from repro.api.config import load_config
    from repro.api.engine import Engine

    times = {"setup.import_s": time.perf_counter() - start}
    start = time.perf_counter()
    config = load_config(str(Path(task["root"]) / task["config"]))
    engine = Engine(config.with_overrides(task["overrides"]))
    config_s = time.perf_counter() - start
    if task["mode"] == "sweep":
        return engine, times, sum(times.values()) + config_s
    start = time.perf_counter()
    engine.build_store()
    times["setup.store_build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    engine.build_backbone()
    times["setup.backbone_build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    engine.build_read_policy()
    read_policy_s = time.perf_counter() - start
    return engine, times, sum(times.values()) + config_s + read_policy_s


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    engine, setup_layers, setup_s = _set_up(task)
    traced = bool(task["trace"])
    sweeping = task["mode"] == "sweep"
    offered = engine.config.serving.num_requests

    tracer = None
    if traced and not sweeping:
        from tracing import Tracer, install

        tracer = Tracer(task["run_id"])
        install(engine, tracer)

    problems = []
    scratch = Path(task["scratch"])
    start = time.perf_counter()
    if sweeping:
        from repro.sweep.results import combine_output_dir

        points = engine.sweep(workers=task["workers"], output_dir=str(scratch))
        table = scratch / "results.jsonl"
        combine_output_dir(scratch).to_jsonl(table)
        text = table.read_text(encoding="utf-8")
        reports = [point.report for point in points]
    else:
        report = engine.serve()
        text = report.to_json()
        reports = [report]
    window_s = time.perf_counter() - start
    shutil.rmtree(scratch, ignore_errors=True)

    for report in reports:
        if report.num_requests + report.dropped_requests != offered:
            problems.append(
                f"served {report.num_requests} + dropped {report.dropped_requests} "
                f"!= offered {offered}"
            )
    layers = dict(setup_layers)
    if tracer is not None:
        layers.update(_serving_layers(engine, tracer))
        tracer.write(Path(task["spans"]))
    elif traced:
        layers.update(_sweep_layers(engine, task, points, window_s, problems))

    result = {
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "problems": problems,
        "offered": offered * len(reports),
        "cells": len(reports),
        "window_s": window_s,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


def _serving_layers(engine, tracer) -> dict:
    """Fold the spans, joining forwards with analytic FLOPs and hwsim prices."""
    from repro.nn.flops import trace_model
    from tracing import layer_metrics

    backbone = engine.build_backbone()
    pricing = engine.build_batch_cost()
    flops: dict = {}

    def conv_flops(shape):
        if shape not in flops:
            flops[shape] = sum(
                record.flops
                for record in trace_model(backbone, shape)
                if record.layer_type == "Conv2d"
            )
        return flops[shape]

    def predicted_seconds(shape):
        return pricing.batch_seconds(shape[2], shape[0])

    return layer_metrics(tracer, engine.build_store(), conv_flops, predicted_seconds)


def _sweep_layers(engine, task, points, pool_wall_s: float, problems: list) -> dict:
    """Time each cell in an in-process ``workers=1`` pass over the same grid.

    The serial pass must reproduce the pool's reports exactly.
    """
    from repro.api.engine import Engine
    from tracing import Tracer, sweep_metrics

    tracer = Tracer(task["run_id"])
    Engine.serve = tracer.wrap("sweep.cell", Engine.serve)
    serial = tracer.wrap("sweep.serial", engine.sweep)(workers=1)
    tracer.write(Path(task["spans"]))
    if [point.report.to_json() for point in serial] != [
        point.report.to_json() for point in points
    ]:
        problems.append("the serial sweep's reports differ from the pool's")
    cells = [span.duration_ns / 1e9 for span in tracer.spans if span.name == "sweep.cell"]
    (serial_span,) = [span for span in tracer.spans if span.name == "sweep.serial"]
    metrics = sweep_metrics(pool_wall_s, cells, task["workers"])
    metrics["trace.coverage"] = sum(cells) / (serial_span.duration_ns / 1e9)
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv))
