"""The ``repro`` command line: run experiments and serving scenarios from JSON.

Usage (``python -m repro ...``):

* ``run <config.json> [--experiment NAME]`` — run the config's named
  experiment (a paper table/figure) and print its deterministic table;
* ``serve <config.json>`` — build the serving tier and drive the configured
  traffic through the discrete-event simulator; prints the SLO report;
  ``--telemetry DIR`` attaches the observability pipeline (even when the
  config omits the section) and writes ``metrics.jsonl`` / ``spans.jsonl``
  / ``telemetry.json`` into DIR;
* ``telemetry summarize <dir>`` — print (or ``--json``-emit) the
  :class:`~repro.obs.exporters.TelemetryReport` a previous
  ``serve --telemetry`` run wrote;
* ``run``/``serve`` accept ``--json`` to emit the report through the
  unified :class:`~repro.api.reports.Report` schema instead of plain text
  (``Report.from_dict`` round-trips the output);
* ``sweep <config.json> [--param path=v1,v2,...] [--workers N] [--out DIR]``
  — serve every point of the override grid (from the config's ``sweep``
  section and/or ``--param`` flags) and print one summary row per point;
  ``--workers N`` fans cells across a process pool, ``--out DIR`` persists
  per-cell results (killed sweeps resume by skipping completed cells) and
  writes the combined ``results.csv`` / ``results.jsonl`` plus
  ``pareto.json``;
* ``sweep combine --out DIR`` / ``sweep pareto --out DIR [--objective
  COLUMN=min|max ...]`` — re-run just the combine or Pareto-analysis stage
  over an existing sweep output directory;
* ``trace record <config.json> --out t.jsonl`` — run the configured
  scenario with a :class:`~repro.serving.traces.TraceRecorder` attached and
  export the arrival stream to the trace schema;
* ``trace replay <config.json> --trace t.jsonl [--speedup F]`` — serve the
  config with its arrivals replaced by empirical-trace replay;
* ``trace fit --trace t.jsonl | --dataset NAME`` — maximum-likelihood Zipf
  exponent of a trace's keys or of a bundled CDN popularity dataset;
* ``docs [--check]`` — regenerate ``docs/reference.md`` from the
  registries (``--check`` fails when the committed file is stale); always
  fails if any registered component is missing a docstring;
* ``lint [--json] [--baseline PATH] [--update-baseline] [--root DIR]`` —
  run the determinism/contract static analyzer (:mod:`repro.lint`) over
  the repo tree; exits non-zero on any finding not covered by the
  committed suppression baseline, printing ``path:line: rule-id`` lines;
  ``--update-baseline`` atomically re-records the ledger instead;
* ``list-components`` — print every registry and its registered names.

All output is deterministic under the config's seeds, so runs are diffable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence, cast

from repro.api import components  # noqa: F401  (populates the registries)
from repro.api.config import Direction, load_config
from repro.api.engine import Engine
from repro.api.registry import all_registries
from repro.analysis.report import format_table


def _parse_param(text: str) -> tuple[str, list]:
    """Parse ``path=v1,v2,...`` into a sweep grid entry (values via JSON)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"--param wants path=v1,v2,... got {text!r}"
        )
    path, _, raw_values = text.partition("=")
    values = []
    for raw in raw_values.split(","):
        try:
            values.append(json.loads(raw))
        except json.JSONDecodeError:
            values.append(raw)  # bare strings are allowed unquoted
    return path, values


def _parse_objective(text: str):
    """Parse ``COLUMN[=min|max]`` into a sweep analysis objective."""
    from repro.sweep.analysis import Objective

    column, _, direction = text.partition("=")
    try:
        return Objective(column, cast(Direction, direction or "min"))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def cmd_run(args: argparse.Namespace) -> int:
    engine = Engine(load_config(args.config))
    result = engine.run_experiment(args.experiment)
    if args.json:
        print(result.to_json())
        return 0
    print(result.format())
    return 0


def _print_serve_report(engine: Engine, report, config_path: str) -> None:
    config = engine.config
    print(f"config                 {config_path}")
    print(f"policy                 {config.policy.name}")
    serving = config.serving
    arrivals = serving.arrivals if serving else None
    if arrivals is not None:
        print(f"traffic                {arrivals.name}")
        if arrivals.name == "replay":
            print(f"trace                  {arrivals.trace_path} (x{arrivals.speedup:g})")
        if arrivals.diurnal is not None:
            print(f"diurnal period         {arrivals.diurnal.period_s:g} s")
        if arrivals.popularity is not None:
            print(f"popularity             {arrivals.popularity.name}")
    if serving is not None and serving.admission is not None:
        print(f"admission              {serving.admission.name}")
    if serving is not None and serving.prefetch is not None:
        print(f"prefetch               {serving.prefetch.name}")
    fleet = serving.fleet if serving else None
    if fleet is not None:
        router = "replica" if fleet.replicas > 1 else "consistent-hash"
        print(f"router                 {router} ({fleet.virtual_nodes} vnodes)")
        if fleet.autoscale is not None and fleet.autoscale.name != "none":
            print(
                f"autoscale              {fleet.autoscale.name} "
                f"(every {fleet.autoscale.interval_s:g} s, "
                f"{fleet.autoscale.min_shards}-{fleet.autoscale.max_shards} shards)"
            )
        if fleet.faults:
            names = ", ".join(fault.name for fault in fleet.faults)
            print(f"faults                 {names}")
    print(report.format())


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.config import EngineConfig

    config = load_config(args.config)
    if args.telemetry is not None and config.serving is not None:
        # --telemetry turns the pipeline on even when the config omits the
        # observability section (the section's defaults apply).
        data = config.to_dict()
        if data["serving"].get("observability") is None:
            data["serving"]["observability"] = {}
        config = EngineConfig.from_dict(data)
    engine = Engine(config)
    report = engine.serve()
    if args.telemetry is not None:
        paths = engine.last_telemetry.write(args.telemetry)
        telemetry = engine.last_telemetry.report()
        if not args.json:
            print(f"telemetry              {args.telemetry} "
                  f"({telemetry.num_windows} windows, "
                  f"{telemetry.sampled_traces} span trees)")
            for kind in sorted(paths):
                print(f"  {kind:<21}{paths[kind]}")
    if args.json:
        print(report.to_json())
        return 0
    _print_serve_report(engine, report, args.config)
    return 0


def cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    from repro.obs.exporters import load_telemetry

    report = load_telemetry(args.dir)
    if args.json:
        print(report.to_json())
        return 0
    print(f"telemetry dir          {args.dir}")
    print(report.format())
    return 0


def _chosen_objectives(args: argparse.Namespace, config=None):
    """Objectives for the analysis stage: --objective flags beat the config."""
    from repro.sweep.analysis import Objective

    if getattr(args, "objective", None):
        return tuple(args.objective)
    if config is not None and config.sweep.objectives:
        return tuple(
            Objective(entry.column, entry.direction)
            for entry in config.sweep.objectives
        )
    return None  # fall back to DEFAULT_OBJECTIVES inside pareto_analysis


def _sweep_combine(args: argparse.Namespace) -> int:
    """The standalone combine sub-step: fold cell files into results.csv/jsonl."""
    from repro.sweep.results import combine_output_dir, write_table

    if args.out is None:
        print("error: sweep combine requires --out DIR", file=sys.stderr)
        return 2
    table = combine_output_dir(args.out)
    paths = write_table(table, args.out)
    print(f"combined               {table.num_rows} cells, {len(table.columns)} columns")
    for kind in sorted(paths):
        print(f"  {kind:<21}{paths[kind]}")
    return 0


def _sweep_pareto(args: argparse.Namespace) -> int:
    """The standalone analysis sub-step: Pareto frontiers over results.jsonl."""
    from repro.sweep.analysis import format_analysis, pareto_analysis, write_pareto
    from repro.sweep.results import load_table

    if args.out is None:
        print("error: sweep pareto requires --out DIR", file=sys.stderr)
        return 2
    table = load_table(args.out)
    analysis = pareto_analysis(table, _chosen_objectives(args))
    path = write_pareto(analysis, args.out)
    if args.json:
        print(json.dumps(analysis, indent=2, sort_keys=True))
        return 0
    print(format_analysis(analysis))
    print(f"pareto                 {path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # The config positional doubles as a sub-step selector so the combine
    # and analysis stages can be re-run on an existing output directory.
    if args.config == "combine":
        return _sweep_combine(args)
    if args.config == "pareto":
        return _sweep_pareto(args)
    engine = Engine(load_config(args.config))
    grid = dict(engine.config.sweep.grid)
    for path, values in args.param or []:
        grid[path] = values
    points = engine.sweep(grid, workers=args.workers, output_dir=args.out)
    paths = sorted(grid)
    rows = [
        [
            *[point.overrides[path] for path in paths],
            point.report.throughput_rps,
            point.report.p50_latency_ms,
            point.report.p99_latency_ms,
            point.report.bytes_from_store / 1e3,
            100.0 * point.report.relative_bytes_saved,
        ]
        for point in points
    ]
    print(
        format_table(
            [*paths, "req/s", "p50 ms", "p99 ms", "store KB", "bytes saved %"],
            rows,
            float_format="{:.1f}",
        )
    )
    if args.out is not None:
        from repro.sweep.analysis import pareto_analysis, write_pareto
        from repro.sweep.results import combine_output_dir, write_table

        table = combine_output_dir(args.out)
        written = write_table(table, args.out)
        analysis = pareto_analysis(table, _chosen_objectives(args, engine.config))
        written["pareto"] = write_pareto(analysis, args.out)
        for kind in sorted(written):
            print(f"  {kind:<21}{written[kind]}")
    return 0


def cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.serving.traces import TraceRecorder

    engine = Engine(load_config(args.config))
    serving = engine.config.serving
    if serving is None:
        print("error: this config has no 'serving' section to record", file=sys.stderr)
        return 2
    if serving.fleet is not None:
        print(
            "error: trace record attaches to a single server; drop the "
            "'serving.fleet' section (the recorded trace can still be "
            "replayed through a fleet)",
            file=sys.stderr,
        )
        return 2
    recorder = TraceRecorder()
    server = engine.build_server()
    server.subscribe(recorder)
    server.run(engine.build_trace())
    count = recorder.save(args.out)
    records = recorder.records
    span = records[-1].timestamp - records[0].timestamp if count > 1 else 0.0
    print(f"recorded               {count} arrivals")
    print(f"span                   {span:.4f} s")
    print(f"trace                  {args.out}")
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.api.config import EngineConfig

    if args.num_requests is not None and args.num_requests <= 0:
        raise ValueError("--num-requests must be positive")
    if not (math.isfinite(args.speedup) and args.speedup > 0):
        raise ValueError("--speedup must be a finite positive number")
    config = load_config(args.config)
    if config.serving is None:
        print("error: this config has no 'serving' section to serve", file=sys.stderr)
        return 2
    data = config.to_dict()
    data["serving"]["arrivals"] = {
        "name": "replay",
        "trace_path": args.trace,
        "speedup": args.speedup,
    }
    if args.loop:
        data["serving"]["arrivals"]["options"] = {"mode": "loop"}
    engine = Engine(EngineConfig.from_dict(data))
    # Build the replay process once and hand its trace to serve() directly:
    # the record count defaults num_requests, and memoized load_records
    # means the file is parsed a single time.
    process = engine.build_arrivals()
    count = len(process.load_records()) if args.num_requests is None else args.num_requests
    report = engine.serve(process.stream(engine.build_store().keys(), count))
    if args.json:
        print(report.to_json())
        return 0
    _print_serve_report(engine, report, args.config)
    return 0


def cmd_trace_fit(args: argparse.Namespace) -> int:
    from repro.serving.popularity import (
        CDN_POPULARITY_CDFS,
        fit_zipf_to_dataset,
        fit_zipf_to_keys,
    )
    from repro.serving.traces import load_trace

    if (args.trace is None) == (args.dataset is None):
        print("error: pass exactly one of --trace or --dataset", file=sys.stderr)
        return 2
    if args.dataset is not None:
        alpha = fit_zipf_to_dataset(args.dataset)
        spec = CDN_POPULARITY_CDFS[args.dataset]
        print(f"dataset                {args.dataset}")
        print(f"source                 {spec['description']}")
    else:
        records = load_trace(args.trace)
        alpha = fit_zipf_to_keys([record.key for record in records])
        print(f"trace                  {args.trace}")
        print(f"records                {len(records)}")
    print(f"fitted zipf alpha      {alpha:.4f}")
    return 0


def cmd_docs(args: argparse.Namespace) -> int:
    from repro.api.docs import generate_reference, lint_docstrings

    problems = lint_docstrings()
    if problems:
        print(
            f"error: {len(problems)} missing docstring(s) — the generated "
            "reference would have empty entries:",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    text = generate_reference()
    if args.check:
        try:
            with open(args.output, "r", encoding="utf-8") as handle:
                committed = handle.read()
        except FileNotFoundError:
            print(f"error: {args.output} does not exist; run: python -m repro docs",
                  file=sys.stderr)
            return 1
        if committed != text:
            print(
                f"error: {args.output} is stale; regenerate with: python -m repro docs",
                file=sys.stderr,
            )
            return 1
        print(f"{args.output} is up to date")
        return 0
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.output}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.engine import LintEngine

    root = args.root
    baseline = args.baseline
    if baseline is None:
        # The committed ledger is the default when it exists, so a bare
        # `python -m repro lint` matches what CI enforces.
        from repro.lint.engine import default_root
        from pathlib import Path

        candidate = (Path(root) if root else default_root()) / "lint/baseline.json"
        if candidate.is_file():
            baseline = str(candidate)
    engine = LintEngine(root=root, baseline=baseline)
    if args.update_baseline:
        if engine.baseline_path is None:
            print(
                "error: --update-baseline needs --baseline PATH (no committed "
                "lint/baseline.json found)",
                file=sys.stderr,
            )
            return 2
        path = engine.update_baseline()
        print(f"wrote {path}")
        return 0
    report = engine.run()
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    return 0 if report.ok else 1


def cmd_list_components(args: argparse.Namespace) -> int:
    for key, registry in sorted(all_registries().items()):
        names = ", ".join(registry.names()) or "<none>"
        print(f"{key:<20} {names}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments and serving scenarios from JSON configs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a named experiment from a config")
    run.add_argument("config", help="path to an EngineConfig JSON file")
    run.add_argument(
        "--experiment",
        default=None,
        help="experiment name (default: the config's experiment section)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the result through the unified Report JSON schema",
    )
    run.set_defaults(func=cmd_run)

    serve = commands.add_parser("serve", help="serve the configured traffic")
    serve.add_argument("config", help="path to an EngineConfig JSON file")
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the report through the unified Report JSON schema",
    )
    serve.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="attach the telemetry pipeline and write metrics.jsonl / "
        "spans.jsonl / telemetry.json into DIR",
    )
    serve.set_defaults(func=cmd_serve)

    telemetry = commands.add_parser(
        "telemetry", help="inspect telemetry written by serve --telemetry"
    )
    telemetry_commands = telemetry.add_subparsers(
        dest="telemetry_command", required=True
    )
    summarize = telemetry_commands.add_parser(
        "summarize", help="print the summary of a telemetry output directory"
    )
    summarize.add_argument("dir", help="directory written by serve --telemetry")
    summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the TelemetryReport through the unified Report JSON schema",
    )
    summarize.set_defaults(func=cmd_telemetry_summarize)

    sweep = commands.add_parser("sweep", help="serve a grid of config overrides")
    sweep.add_argument(
        "config",
        help="path to an EngineConfig JSON file, or the literal 'combine' / "
        "'pareto' to re-run that stage on an existing --out directory",
    )
    sweep.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        metavar="PATH=V1,V2,...",
        help="add/override one sweep dimension (dotted config path)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: the config's sweep.workers, i.e. serial)",
    )
    sweep.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="persist per-cell results under DIR/cells/ (resumable) and write "
        "results.csv / results.jsonl / pareto.json",
    )
    sweep.add_argument(
        "--objective",
        action="append",
        type=_parse_objective,
        metavar="COLUMN[=min|max]",
        help="analysis objective over the combined table (repeatable; default: "
        "p99 latency, drop rate, transfer dollars — all minimized)",
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="with 'pareto': emit the analysis document as JSON",
    )
    sweep.set_defaults(func=cmd_sweep)

    trace = commands.add_parser(
        "trace", help="record, replay, or fit empirical arrival traces"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_commands.add_parser(
        "record", help="run a config and export its arrival stream to a trace file"
    )
    record.add_argument("config", help="path to an EngineConfig JSON file")
    record.add_argument(
        "--out", required=True, help="trace file to write (.jsonl/.ndjson or .csv)"
    )
    record.set_defaults(func=cmd_trace_record)

    replay = trace_commands.add_parser(
        "replay", help="serve a config with its arrivals replaced by trace replay"
    )
    replay.add_argument("config", help="path to an EngineConfig JSON file")
    replay.add_argument(
        "--trace", required=True, help="trace file to replay (.jsonl/.ndjson or .csv)"
    )
    replay.add_argument(
        "--speedup",
        type=float,
        default=1.0,
        help="time-warp factor: divide every timestamp by this (default 1.0)",
    )
    replay.add_argument(
        "--num-requests",
        type=int,
        default=None,
        help="how many requests to serve (default: the whole trace once)",
    )
    replay.add_argument(
        "--loop",
        action="store_true",
        help="wrap around past the end of the trace instead of truncating",
    )
    replay.add_argument(
        "--json",
        action="store_true",
        help="emit the report through the unified Report JSON schema",
    )
    replay.set_defaults(func=cmd_trace_replay)

    fit = trace_commands.add_parser(
        "fit", help="fit a Zipf popularity exponent by maximum likelihood"
    )
    fit.add_argument("--trace", default=None, help="fit the keys of this trace file")
    fit.add_argument(
        "--dataset",
        default=None,
        help="fit a bundled CDN popularity dataset (see docs/reference.md)",
    )
    fit.set_defaults(func=cmd_trace_fit)

    docs = commands.add_parser(
        "docs", help="regenerate docs/reference.md from the component registries"
    )
    docs.add_argument(
        "--output",
        default="docs/reference.md",
        help="path of the generated reference (default docs/reference.md)",
    )
    docs.add_argument(
        "--check",
        action="store_true",
        help="fail instead of writing when the committed file is stale",
    )
    docs.set_defaults(func=cmd_docs)

    lint = commands.add_parser(
        "lint",
        help="run the determinism/contract static analyzer over the repo tree",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="repository root to lint (default: the repo this install "
        "was imported from)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="suppression ledger (default: <root>/lint/baseline.json when "
        "it exists)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-record the ledger from the current tree (atomic, "
        "deterministic write; preserves existing reason strings)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the LintReport through the unified Report JSON schema",
    )
    lint.set_defaults(func=cmd_lint)

    list_components = commands.add_parser(
        "list-components", help="print every registry and its names"
    )
    list_components.set_defaults(func=cmd_list_components)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
