"""The repository benchmark: four offline batch workloads, timed from outside.

Run from the repository root::

    python3 benchmarks/perf/bench.py --seed 7 [--out DIR]
    python3 benchmarks/perf/bench.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload (round-robin untraced repetitions, then
one traced repetition each), prints every end-to-end and per-layer metric
with its unit, and writes ``results.json`` plus one ``spans.jsonl`` per
workload under ``--out`` (default ``benchmarks/perf/out/``).  The second
form repeats one workload for ``S`` seconds and prints, as its last line,
one JSON object with ``correct``/``attempted``/``failed`` and the medians
of the end-to-end metrics (``--trace 0``) or of the per-layer metrics
(``--trace 1``).

Every repetition is a fresh process (``rep.py``), so memos and caches start
cold exactly as each ``repro serve`` does.  The benchmark sets no thread
variable; it records them, the CPU count, the Python and numpy versions
and the commit in every result.  A repetition fails when it raises, when
served + dropped != offered, or when its output digest differs from the
one pinned for seed 7 in ``spec.json`` (other seeds: from the first
repetition of the set).  Any failure makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PINNED_SEED = 7
#: A repetition killed after this long counts as failed (the slowest
#: workload takes a few seconds on a 2-CPU host).
REP_TIMEOUT_S = 120
#: Fewest repetitions a timed run makes, however long each one takes.
MIN_REPS = 3
#: Untraced repetitions per workload in the all-workload run.
REPETITIONS = 5
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def load_spec() -> dict:
    with open(HERE / "spec.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def with_seed(value, seed: int):
    """``value`` with every ``"$seed"`` placeholder replaced by ``seed``."""
    if value == "$seed":
        return seed
    if isinstance(value, dict):
        return {key: with_seed(item, seed) for key, item in value.items()}
    if isinstance(value, list):
        return [with_seed(item, seed) for item in value]
    return value


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Never report the commit of some repository above the checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_info() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def run_rep(name: str, workload: dict, seed: int, traced: bool, out: Path, index: int) -> dict:
    """Run one repetition in a fresh process; returns its result or error."""
    run_id = f"{name}-s{seed}-{'t' if traced else 'u'}{index}-{os.getpid()}"
    (out / name).mkdir(parents=True, exist_ok=True)
    task = {
        "root": str(ROOT),
        "config": workload["config"],
        "overrides": with_seed(workload["overrides"], seed),
        "mode": workload["mode"],
        "workers": workload.get("workers", 1),
        "trace": traced,
        "run_id": run_id,
        "scratch": str(out / f"scratch-{run_id}"),
        "spans": str(out / name / "spans.jsonl"),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    command = [sys.executable, str(HERE / "rep.py"), json.dumps(task)]
    start = time.perf_counter()
    # A session of its own lets a timeout kill the pool workers too.
    with subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as process:
        try:
            stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return {"traced": traced, "error": f"timed out after {REP_TIMEOUT_S} s"}
    wall_s = time.perf_counter() - start
    if process.returncode != 0:
        return {"traced": traced, "error": stderr.strip().splitlines()[-1:] or "crashed"}
    result = json.loads(stdout.strip().splitlines()[-1])
    result.update(traced=traced, wall_s=wall_s, run_id=run_id)
    return result


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "wall_s": result["wall_s"],
        "req_per_s": result["offered"] / result["window_s"],
        "cells_per_s": result["cells"] / result["window_s"],
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def judge(results: list[dict], workload: dict, seed: int) -> list[str]:
    """Mark failed repetitions in place; returns one line per failure."""
    expected = workload["digest_seed7"] if seed == PINNED_SEED else None
    failures = []
    for result in results:
        if "error" in result:
            reason = f"raised: {result['error']}"
        elif result["problems"]:
            reason = "; ".join(result["problems"])
        else:
            expected = expected or result["digest"]
            reason = None
            if result["digest"] != expected:
                reason = f"digest {result['digest'][:12]} != expected {expected[:12]}"
        result["failed"] = reason is not None
        if reason:
            failures.append(f"{result.get('run_id', '?')}: {reason}")
    return failures


def summary(values: list[float]) -> dict:
    """Median with quartiles and the sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def medians(results: list[dict], pick) -> dict[str, float]:
    """Per-metric medians over the repetitions that did not fail."""
    good = [pick(result) for result in results if not result["failed"]]
    if not good:
        return {}
    return {name: statistics.median(values[name] for values in good) for name in good[0]}


def overhead_ratio(pairs) -> float:
    """Median over back-to-back (untraced, traced) pairs of traced ÷ untraced window.

    Pairing keeps the host's slow drifts in speed out of the ratio; it is
    0 when no pair has two good repetitions.
    """
    ratios = [
        traced["window_s"] / untraced["window_s"]
        for untraced, traced in pairs
        if not untraced["failed"] and not traced["failed"]
    ]
    return statistics.median(ratios) if ratios else 0.0


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------


def timed_run(args, spec: dict, benchmark: dict) -> int:
    """Repeat one workload for ``--seconds``; the last line is the JSON result."""
    workload = spec["workloads"][args.workload]
    print(json.dumps({"host": host_info()}))
    pattern = [False, True] if args.trace else [False]
    results: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while len(results) < MIN_REPS or time.perf_counter() < deadline:
        for traced in pattern:
            results.append(run_rep(args.workload, workload, args.seed, traced, args.out, len(results)))
    failures = judge(results, workload, args.seed)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        values = medians([r for r in results if r["traced"]], lambda r: r["layers"])
        if values:
            values["trace.overhead_ratio"] = overhead_ratio(zip(results[0::2], results[1::2]))
        specs = benchmark["per_layer"]
    else:
        values = medians(results, end_to_end)
        specs = benchmark["end_to_end"]
    # A layer the workload never enters (the fleet on one server, the
    # serving layers in a sweep) reads 0.
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in specs
        if values
    }
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(results),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


def full_run(args, spec: dict, benchmark: dict) -> int:
    """Every workload: round-robin untraced repetitions, then one traced each.

    In the last round each workload's traced repetition runs right after
    its untraced one, so the pair gives ``trace.overhead_ratio``.
    """
    host = host_info()
    print(json.dumps({"host": host}))
    names = list(spec["workloads"])
    results: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(REPETITIONS):
        for name in names:
            result = run_rep(name, spec["workloads"][name], args.seed, False, args.out, index)
            results[name].append(result)
            print(f"  {name:<14} rep {index + 1}/{REPETITIONS} "
                  f"{result.get('wall_s', float('nan')):6.2f} s", flush=True)
            if index == REPETITIONS - 1:
                results[name].append(
                    run_rep(name, spec["workloads"][name], args.seed, True, args.out, index + 1)
                )

    units = {entry["name"]: entry["unit"] for entry in benchmark["end_to_end"]}
    units.update({entry["name"]: entry["unit"] for entry in benchmark["per_layer"]})
    document = {"host": host, "seed": args.seed, "workloads": {}}
    any_failed = False
    for name in names:
        failures = judge(results[name], spec["workloads"][name], args.seed)
        any_failed = any_failed or bool(failures)
        untraced = [r for r in results[name] if not r["traced"] and not r["failed"]]
        traced = [r for r in results[name] if r["traced"] and not r["failed"]]
        e2e = {}
        if untraced:
            samples = [end_to_end(result) for result in untraced]
            e2e = {metric: summary([s[metric] for s in samples]) for metric in samples[0]}
        layers = dict(traced[0]["layers"]) if traced else {}
        if layers:
            layers["trace.overhead_ratio"] = overhead_ratio([results[name][-2:]])
        attempted = len(results[name])
        print(f"\n== {name}: {attempted - len(failures)}/{attempted} repetitions correct")
        for line in failures:
            print(f"   FAILED {line}")
        print(f"   {'metric':<30}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
        for metric, stats in e2e.items():
            print(f"   {metric:<30}{stats['median']:>14.4f}{stats['q1']:>14.4f}"
                  f"{stats['q3']:>14.4f}{stats['n']:>4}  {units[metric]}")
        if layers:
            print(f"   per-layer (traced repetition, cpu_count={os.cpu_count()}):")
            for layer in spec["layers"]:
                for metric in layer["metrics"]:
                    # "-": the workload never enters this layer.
                    value = layers.get(metric)
                    shown = "-" if value is None else f"{value:.4f}"
                    print(f"   {metric:<30}{shown:>14}  {units[metric]:<10} {layer['layer']}")
        document["workloads"][name] = {
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures,
            "end_to_end": e2e,
            "per_layer": layers,
            "repetitions": results[name],
        }
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "results.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nresults -> {args.out / 'results.json'}")
    return 1 if any_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--workload", default=None, help="run one workload for --seconds")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    benchmark = load_benchmark()
    if args.workload is not None:
        if args.workload not in spec["workloads"]:
            print(f"error: unknown workload {args.workload!r}; known: "
                  f"{', '.join(spec['workloads'])}", file=sys.stderr)
            return 2
        return timed_run(args, spec, benchmark)
    return full_run(args, spec, benchmark)


if __name__ == "__main__":
    sys.exit(main())
