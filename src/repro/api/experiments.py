"""Named experiments: one registry entry per paper table/figure.

Each experiment is ``fn(engine, options) -> ExperimentResult`` — a thin
adapter over the builders in :mod:`repro.analysis.experiments` that turns
their rows into the deterministic plain-text tables the CLI prints.  The
``options`` dict comes from the config's ``experiment.options`` section
(merged with any keyword overrides), so a config file fully describes an
experiment run.

Defaults mirror the benchmark harness under ``benchmarks/``; the heavier
experiments (fig6, fig7, table2–4) expose the same knobs the benchmarks
use (``tuning_trials``, ``num_images``, ...) so CI and quick looks can
shrink them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.experiments import (
    build_fig2_rows,
    build_fig6_curves,
    build_fig7_series,
    build_fig8_fig9_points,
    build_read_savings_table,
    build_table1_rows,
    build_table2_rows,
)
from repro.analysis.report import format_table
from repro.api.registry import EXPERIMENTS, MACHINES
from repro.api.reports import Report, report_type
from repro.api.schema import decode
from repro.surrogate.anchors import RESOLUTIONS

if TYPE_CHECKING:  # the engine imports this module; avoid the cycle at runtime
    from repro.api.engine import Engine


def _restore_int_keys(value):
    """Undo JSON's key stringification: digit-string dict keys become ints.

    Experiment ``data`` dicts key on resolutions and seeds (ints); JSON
    turns those into strings, so the from_json round-trip restores them.
    Experiments must therefore not use *genuinely string* digit keys.
    """
    if isinstance(value, dict):
        return {
            (int(key) if isinstance(key, str) and key.isdigit() else key):
                _restore_int_keys(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_restore_int_keys(item) for item in value]
    return value


@report_type("experiment")
@dataclass(frozen=True)
class ExperimentResult(Report):
    """What a named experiment returns: a deterministic table plus raw data."""

    name: str
    table: str
    data: dict

    @classmethod
    def _decode(cls, data: dict) -> "ExperimentResult":
        return decode(cls, {**data, "data": _restore_int_keys(data.get("data", {}))})

    def format(self) -> str:
        return f"===== {self.name} =====\n{self.table}"


def _resolutions(options: dict) -> tuple[int, ...]:
    return tuple(options.get("resolutions", RESOLUTIONS))


@EXPERIMENTS.register("fig2")
def fig2(engine: Engine, options: dict) -> ExperimentResult:
    """Fig 2: progressive scans vs cumulative bytes and decoded quality."""
    rows = build_fig2_rows(
        profile=options.get("profile", "imagenet-like"),
        render_resolution=options.get("render_resolution", 448),
        quality=options.get("quality", 85),
        seed=options.get("seed", 3),
    )
    table = format_table(
        ["Scan", "Cumulative bytes", "Relative read", "SSIM", "PSNR (dB)"],
        [
            [f"scan {r.scans}", r.cumulative_bytes, r.relative_read_size, r.ssim, r.psnr_db]
            for r in rows
        ],
        float_format="{:.3f}",
    )
    data = {
        "cumulative_bytes": [r.cumulative_bytes for r in rows],
        "ssim": [r.ssim for r in rows],
        "psnr_db": [r.psnr_db for r in rows],
    }
    return ExperimentResult(name="fig2", table=table, data=data)


@EXPERIMENTS.register("table1")
def table1(engine: Engine, options: dict) -> ExperimentResult:
    """Table I: GFLOPs and accuracy per inference resolution."""
    rows = build_table1_rows(
        model=options.get("model", "resnet18"),
        dataset=options.get("dataset", "imagenet"),
        crop_ratio=options.get("crop_ratio", 0.75),
        resolutions=_resolutions(options),
    )
    table = format_table(
        ["Model", "Resolution", "GFLOPs", "Accuracy %"],
        [[r.model, r.resolution, r.gflops, r.accuracy] for r in rows],
        float_format="{:.2f}",
    )
    data = {r.resolution: {"gflops": r.gflops, "accuracy": r.accuracy} for r in rows}
    return ExperimentResult(name="table1", table=table, data=data)


@EXPERIMENTS.register("fig7")
def fig7(engine: Engine, options: dict) -> ExperimentResult:
    """Fig 7: achieved GFLOP/s per resolution, tuned vs library kernels."""
    machine = MACHINES.get(options.get("machine", "4790K"))
    series = build_fig7_series(
        model=options.get("model", "resnet18"),
        machine=machine,
        resolutions=_resolutions(options),
        tuning_trials=options.get("tuning_trials", 160),
        seed=options.get("seed", 0),
    )
    resolutions = sorted(series["tuned"])
    table = format_table(
        ["Resolution", "Tuned GFLOP/s", "Library GFLOP/s"],
        [[r, series["tuned"][r], series["library"][r]] for r in resolutions],
        float_format="{:.1f}",
    )
    return ExperimentResult(name="fig7", table=table, data=series)


@EXPERIMENTS.register("table2")
def table2(engine: Engine, options: dict) -> ExperimentResult:
    """Table II: per-resolution latency with tuned and library kernels."""
    machines = tuple(
        MACHINES.get(name) for name in options.get("machines", ("4790K", "2990WX"))
    )
    result = build_table2_rows(
        machines,
        model=options.get("model", "resnet50"),
        resolutions=_resolutions(options),
        tuning_trials=options.get("tuning_trials", 160),
    )
    rows = []
    data: dict = {}
    for machine_name, per_resolution in result.items():
        data[machine_name] = {}
        for resolution, breakdowns in sorted(per_resolution.items()):
            rows.append(
                [
                    machine_name,
                    resolution,
                    breakdowns["tuned"].latency_ms,
                    breakdowns["library"].latency_ms,
                ]
            )
            data[machine_name][resolution] = {
                source: b.latency_ms for source, b in breakdowns.items()
            }
    table = format_table(
        ["Machine", "Resolution", "Tuned ms", "Library ms"], rows, float_format="{:.2f}"
    )
    return ExperimentResult(name="table2", table=table, data=data)


@EXPERIMENTS.register("fig6")
def fig6(engine: Engine, options: dict) -> ExperimentResult:
    """Fig 6: accuracy change vs relative read size per resolution."""
    curves = build_fig6_curves(
        dataset=options.get("dataset", "imagenet"),
        model=options.get("model", "resnet18"),
        resolutions=_resolutions(options),
        seeds=tuple(options.get("seeds", (1,))),
        crop_ratio=options.get("crop_ratio", 0.75),
        num_images=options.get("num_images", 8),
        sweep_points=options.get("sweep_points", 5),
    )
    rows = [
        [
            curve.resolution,
            curve.seed,
            min(curve.relative_read_sizes),
            max(curve.accuracy_changes),
            min(curve.accuracy_changes),
        ]
        for curve in curves
    ]
    table = format_table(
        ["Resolution", "Seed", "Min rel. read", "Max Δacc", "Min Δacc"],
        rows,
        float_format="{:.3f}",
    )
    data = {
        f"{curve.resolution}px/seed{curve.seed}": {
            "relative_read_sizes": list(curve.relative_read_sizes),
            "accuracy_changes": list(curve.accuracy_changes),
        }
        for curve in curves
    }
    return ExperimentResult(name="fig6", table=table, data=data)


def _read_savings(name: str, dataset: str, default_model: str):
    """Build a per-resolution read-savings experiment (paper Tables 3/4)."""

    def run(engine: Engine, options: dict) -> ExperimentResult:
        """Read savings of calibrated scan reads vs default-quality reads."""
        rows = build_read_savings_table(
            dataset,
            options.get("model", default_model),
            resolutions=_resolutions(options),
            num_images=options.get("num_images", 8),
            seed=options.get("seed", 1),
            oracle_images=options.get("oracle_images", 400),
        )
        table = format_table(
            ["Resolution", "Default acc %", "Calibrated acc %", "Read savings %"],
            [
                [
                    row.resolution,
                    max(row.default_accuracy.values()),
                    max(row.calibrated_accuracy.values()),
                    row.read_savings_percent,
                ]
                for row in rows
            ],
            float_format="{:.1f}",
        )
        data = {row.resolution: row.read_savings_percent for row in rows}
        return ExperimentResult(name=name, table=table, data=data)

    return run


EXPERIMENTS.register("table3", _read_savings("table3", "imagenet", "resnet18"))
EXPERIMENTS.register("table4", _read_savings("table4", "cars", "resnet18"))


def _accuracy_flops(name: str, dataset: str):
    """Build an accuracy-vs-FLOPs frontier experiment (paper Figs 8/9)."""

    def run(engine: Engine, options: dict) -> ExperimentResult:
        """Static-resolution frontier vs the dynamic scale-model policy."""
        points = build_fig8_fig9_points(
            dataset,
            options.get("model", "resnet18"),
            options.get("crop_ratio", 0.75),
            resolutions=_resolutions(options),
            scale_model_noise=options.get("scale_model_noise", 0.2),
            num_images=options.get("num_images", 400),
            seed=options.get("seed", 0),
        )
        table = format_table(
            ["Method", "Resolution", "GFLOPs", "Accuracy %"],
            [
                [p.method, p.resolution if p.resolution is not None else "-", p.gflops, p.accuracy]
                for p in points
            ],
            float_format="{:.2f}",
        )
        data = {
            "static": {p.resolution: p.accuracy for p in points if p.method == "static"},
            "dynamic": next(
                {"gflops": p.gflops, "accuracy": p.accuracy}
                for p in points
                if p.method == "dynamic"
            ),
        }
        return ExperimentResult(name=name, table=table, data=data)

    return run


EXPERIMENTS.register("fig8", _accuracy_flops("fig8", "imagenet"))
EXPERIMENTS.register("fig9", _accuracy_flops("fig9", "cars"))


@EXPERIMENTS.register("serving")
def serving(engine: Engine, options: dict) -> ExperimentResult:
    """Serve the config's traffic and report SLOs (the config must have serving)."""
    report = engine.serve()
    return ExperimentResult(
        name="serving",
        table=report.format(),
        data={
            "throughput_rps": report.throughput_rps,
            "p99_latency_ms": report.p99_latency_ms,
            "bytes_from_store": report.bytes_from_store,
            "relative_bytes_saved": report.relative_bytes_saved,
        },
    )
