"""Checks of the benchmark harness itself, on tiny request counts.

The timed workloads are too slow for tier-1; these tests pin what the
numbers rest on instead: the self-time arithmetic, that tracing changes
no result, that the benchmark's config path reproduces a golden report,
that ``--seed`` reaches the program, and that ``BENCHMARK.json`` and
``spec.json`` agree.
"""

from __future__ import annotations

import hashlib
import re
import shutil
import subprocess
import sys

import pytest

import bench
from tracing import Span, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0, 100, 1, 0),
        Span("a", 10, 30, 2, 1),
        Span("b", 20, 50, 3, 1),  # overlaps a: 10..50 is covered once
        Span("c", 90, 120, 4, 1),  # clipped to the parent's end
        Span("leaf", 12, 18, 5, 2),  # a grandchild never counts against root
    ]
    assert self_times(spans) == {1: 50, 2: 14, 3: 30, 4: 30, 5: 6}


@pytest.mark.parametrize(
    "config, traced",
    [("serving_chaos", False), ("serving_chaos", True), ("serving_sharded", True)],
)
def test_config_path_reproduces_the_golden_report(config, traced, tmp_path):
    """Plain and traced repetitions give the golden bytes (elastic and static fleets)."""
    golden = (bench.ROOT / "tests" / "golden" / f"{config}.json").read_text()
    workload = {"config": f"examples/configs/{config}.json", "mode": "serve", "overrides": {}}
    result = bench.run_rep(config, workload, 7, traced, tmp_path, 0)
    assert "error" not in result, result
    assert result["problems"] == []
    # Goldens are report.to_json() plus a newline.
    assert result["digest"] == hashlib.sha256(golden[:-1].encode("utf-8")).hexdigest()
    if traced:
        layers = result["layers"]
        assert layers["trace.coverage"] >= 0.95
        assert layers["server.runs"] > 0
        assert (tmp_path / config / "spans.jsonl").stat().st_size > 0


def test_traced_sweep_matches_its_serial_pass(tmp_path):
    workload = dict(bench.load_spec()["workloads"]["sweep-grid"])
    workload["overrides"] = {**workload["overrides"], "serving.num_requests": 8}
    result = bench.run_rep("sweep-grid", workload, 7, True, tmp_path, 0)
    assert "error" not in result, result
    assert result["problems"] == []
    assert result["cells"] == 8
    assert result["layers"]["sweep.pool_efficiency"] > 0
    assert not any(path.name.startswith("scratch-") for path in tmp_path.iterdir())


def test_seed_reaches_the_program():
    from repro.api.config import load_config
    from repro.api.engine import Engine

    spec = bench.load_spec()
    chaos = bench.with_seed(spec["workloads"]["elastic-chaos"]["overrides"], 11)
    assert chaos["serving.arrivals.options.seed"] == 11
    workload = spec["workloads"]["fleet-hot"]

    def trace(seed):
        overrides = {**bench.with_seed(workload["overrides"], seed), "serving.num_requests": 64}
        config = load_config(str(bench.ROOT / workload["config"])).with_overrides(overrides)
        stream = Engine(config).build_trace()
        return [request.key for request in stream], [request.arrival_time for request in stream]

    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_failures_are_judged_per_repetition():
    workload = {"digest_seed7": "a" * 64}
    ok = {"problems": [], "digest": "a" * 64}
    results = [dict(ok), dict(ok, digest="b" * 64), {"error": "boom"}]
    assert len(bench.judge(results, workload, 7)) == 2
    assert [result["failed"] for result in results] == [False, True, True]
    # Other seeds have no pinned digest: the set must agree with itself.
    results = [dict(ok, digest="c" * 64), dict(ok, digest="c" * 64), dict(ok, problems=["lost"])]
    assert len(bench.judge(results, workload, 8)) == 1


def test_benchmark_json_agrees_with_the_spec():
    benchmark = bench.load_benchmark()
    spec = bench.load_spec()
    end_to_end = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    per_layer = {metric["name"] for metric in benchmark["per_layer"]}
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    for name in [*end_to_end, *per_layer, *workloads]:
        assert NAME.fullmatch(name), name
    assert workloads == set(spec["workloads"])
    listed = set()
    for row in spec["layers"]:
        assert row["moves"] is None or row["moves"] in end_to_end, row
        assert set(row["on"]) <= workloads, row
        listed.update(row["metrics"])
    assert listed == per_layer
    bounds = [metric["bound"] for metric in end_to_end.values()]
    assert end_to_end["setup_s"]["bound"] == max(bounds) <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        bench.HERE,
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/bench.py", "--workload", "fleet-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
