"""CLI smoke tests: ``python -m repro`` as a subprocess, plus parser units."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG_DIR = REPO_ROOT / "examples" / "configs"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=300,
    )


class TestSubprocessSmoke:
    def test_list_components(self):
        result = run_cli("list-components")
        assert result.returncode == 0, result.stderr
        for key in ("backbones", "arrivals", "caches", "machines", "experiments"):
            assert key in result.stdout
        assert "resnet18" in result.stdout
        assert "scan-lru" in result.stdout

    def test_run_fig2_is_deterministic(self):
        first = run_cli("run", str(CONFIG_DIR / "fig2.json"))
        second = run_cli("run", str(CONFIG_DIR / "fig2.json"))
        assert first.returncode == 0, first.stderr
        assert "===== fig2 =====" in first.stdout
        assert first.stdout == second.stdout

    def test_serve_bursty_is_deterministic(self):
        first = run_cli("serve", str(CONFIG_DIR / "serving_bursty.json"))
        second = run_cli("serve", str(CONFIG_DIR / "serving_bursty.json"))
        assert first.returncode == 0, first.stderr
        assert "requests served" in first.stdout
        assert "cache hit rate" in first.stdout
        assert first.stdout == second.stdout

    def test_serve_admission_reports_drops(self):
        result = run_cli("serve", str(CONFIG_DIR / "serving_admission.json"))
        assert result.returncode == 0, result.stderr
        assert "admission              ewma" in result.stdout
        assert "dropped requests" in result.stdout

    def test_serve_prefetch_reports_prefetch_bytes(self):
        result = run_cli("serve", str(CONFIG_DIR / "serving_prefetch.json"))
        assert result.returncode == 0, result.stderr
        assert "prefetch               next-scan" in result.stdout
        assert "prefetch bytes" in result.stdout

    def test_serve_json_emits_the_unified_report_schema(self):
        result = run_cli("serve", "--json", str(CONFIG_DIR / "serving_admission.json"))
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["kind"] == "slo"
        assert data["dropped_requests"] > 0
        assert data["num_requests"] + data["dropped_requests"] == 160

    def test_run_json_emits_the_experiment_schema(self):
        result = run_cli("run", "--json", str(CONFIG_DIR / "fig2.json"))
        assert result.returncode == 0, result.stderr
        data = json.loads(result.stdout)
        assert data["kind"] == "experiment"
        assert data["name"] == "fig2"

    def test_missing_config_file_fails_cleanly(self):
        result = run_cli("run", "no/such/config.json")
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_invalid_config_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"resolutions": [24, -1]}))
        result = run_cli("serve", str(bad))
        assert result.returncode == 2
        assert "positive" in result.stderr


class TestTraceSubcommands:
    def test_record_then_replay_reproduces_the_report(self, tmp_path):
        trace_path = tmp_path / "capture.jsonl"
        recorded = run_cli(
            "trace",
            "record",
            str(CONFIG_DIR / "serving_bursty.json"),
            "--out",
            str(trace_path),
        )
        assert recorded.returncode == 0, recorded.stderr
        assert "recorded               120 arrivals" in recorded.stdout
        assert trace_path.exists()

        original = run_cli("serve", "--json", str(CONFIG_DIR / "serving_bursty.json"))
        replayed = run_cli(
            "trace",
            "replay",
            "--json",
            str(CONFIG_DIR / "serving_bursty.json"),
            "--trace",
            str(trace_path),
        )
        assert replayed.returncode == 0, replayed.stderr
        assert json.loads(replayed.stdout) == json.loads(original.stdout)

    def test_fit_dataset_prints_a_calibrated_alpha(self):
        result = run_cli("trace", "fit", "--dataset", "web-proxy-breslau99")
        assert result.returncode == 0, result.stderr
        assert "fitted zipf alpha" in result.stdout
        alpha = float(result.stdout.rsplit(None, 1)[-1])
        assert 0.64 <= alpha <= 0.83

    def test_fit_requires_exactly_one_source(self):
        result = run_cli("trace", "fit")
        assert result.returncode == 2
        assert "exactly one" in result.stderr

    def test_serve_replay_config_is_deterministic(self):
        first = run_cli("serve", str(CONFIG_DIR / "serving_replay.json"))
        second = run_cli("serve", str(CONFIG_DIR / "serving_replay.json"))
        assert first.returncode == 0, first.stderr
        assert "traffic                replay" in first.stdout
        assert first.stdout == second.stdout

    def test_serve_diurnal_config_is_deterministic(self):
        first = run_cli("serve", str(CONFIG_DIR / "serving_diurnal.json"))
        second = run_cli("serve", str(CONFIG_DIR / "serving_diurnal.json"))
        assert first.returncode == 0, first.stderr
        assert "diurnal period" in first.stdout
        assert "popularity             cdn-calibrated" in first.stdout
        assert first.stdout == second.stdout

    def test_record_refuses_fleet_configs(self, tmp_path):
        result = run_cli(
            "trace",
            "record",
            str(CONFIG_DIR / "serving_sharded.json"),
            "--out",
            str(tmp_path / "t.jsonl"),
        )
        assert result.returncode == 2
        assert "fleet" in result.stderr

    def test_malformed_trace_fails_cleanly(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"timestamp": -1.0, "key": "img0"}\n')
        result = run_cli(
            "trace",
            "replay",
            str(CONFIG_DIR / "serving_bursty.json"),
            "--trace",
            str(bad),
        )
        assert result.returncode == 2
        assert "error:" in result.stderr

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_replay_refuses_a_non_positive_request_count(self, count, capsys):
        status = main(
            [
                "trace",
                "replay",
                str(CONFIG_DIR / "serving_bursty.json"),
                "--trace",
                str(REPO_ROOT / "examples" / "traces" / "bursty_sample.jsonl"),
                "--num-requests",
                count,
            ]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --num-requests must be positive"]

    @pytest.mark.parametrize("speedup", ["0", "-1", "nan", "inf"])
    def test_replay_refuses_a_speedup_that_is_not_finite_and_positive(self, speedup, capsys):
        # inf used to be accepted and divided every timestamp to 0.
        status = main(
            [
                "trace",
                "replay",
                str(CONFIG_DIR / "serving_bursty.json"),
                "--trace",
                str(REPO_ROOT / "examples" / "traces" / "bursty_sample.jsonl"),
                "--speedup",
                speedup,
            ]
        )
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --speedup must be a finite positive number"]


class TestDocsSubcommand:
    def test_docs_check_passes_on_the_committed_reference(self):
        result = run_cli("docs", "--check")
        assert result.returncode == 0, result.stderr
        assert "up to date" in result.stdout

    def test_docs_check_fails_on_a_stale_file(self, tmp_path):
        stale = tmp_path / "reference.md"
        stale.write_text("# old\n")
        result = run_cli("docs", "--check", "--output", str(stale))
        assert result.returncode == 1
        assert "stale" in result.stderr

    def test_docs_writes_the_reference(self, tmp_path):
        out = tmp_path / "reference.md"
        result = run_cli("docs", "--output", str(out))
        assert result.returncode == 0, result.stderr
        assert out.read_text().startswith("# Component reference")


class TestInProcess:
    """Cheaper checks that don't need a subprocess per case."""

    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_param_parsing(self):
        args = build_parser().parse_args(
            ["sweep", "config.json", "--param", "serving.num_workers=1,2"]
        )
        assert args.param == [("serving.num_workers", [1, 2])]

    def test_sweep_param_accepts_bare_strings(self):
        args = build_parser().parse_args(
            ["sweep", "config.json", "--param", "policy.name=static,dynamic"]
        )
        assert args.param == [("policy.name", ["static", "dynamic"])]

    def test_main_reports_config_errors_as_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"crop_ratio": 2.0}))
        assert main(["run", str(bad)]) == 2
        assert "crop_ratio" in capsys.readouterr().err

    def test_sweep_accepts_workers_and_out(self):
        args = build_parser().parse_args(
            ["sweep", "config.json", "--workers", "4", "--out", "results"]
        )
        assert args.workers == 4
        assert args.out == "results"

    def test_sweep_objective_parsing(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "pareto",
                "--out",
                "results",
                "--objective",
                "report.p99_latency_ms",
                "--objective",
                "report.accuracy=max",
            ]
        )
        assert [(o.column, o.direction) for o in args.objective] == [
            ("report.p99_latency_ms", "min"),
            ("report.accuracy", "max"),
        ]

    def test_sweep_objective_rejects_bad_direction(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "pareto", "--objective", "report.accuracy=sideways"]
            )

    def test_sweep_combine_requires_out(self, capsys):
        assert main(["sweep", "combine"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_sweep_pareto_on_an_uncombined_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["sweep", "pareto", "--out", str(tmp_path)]) == 2
        assert "combine stage" in capsys.readouterr().err


class TestSweepSubcommand:
    def test_sweep_out_writes_cells_table_and_pareto(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep",
            str(CONFIG_DIR / "serving_admission.json"),
            "--param",
            "serving.cache.capacity_bytes=5000,300000",
            "--out",
            str(out),
        )
        assert result.returncode == 0, result.stderr
        assert "serving.cache.capacity_bytes" in result.stdout
        cells = sorted(path.name for path in (out / "cells").glob("cell_*.json"))
        assert cells == ["cell_00000.json", "cell_00001.json"]
        rows = [
            json.loads(line)
            for line in (out / "results.jsonl").read_text().splitlines()
        ]
        assert [row["cell.index"] for row in rows] == [0, 1]
        assert [row["serving.cache.capacity_bytes"] for row in rows] == [5000, 300000]
        pareto = json.loads((out / "pareto.json").read_text())
        assert pareto["num_cells"] == 2

        # The sub-steps re-run standalone on the same directory.
        combined = run_cli("sweep", "combine", "--out", str(out))
        assert combined.returncode == 0, combined.stderr
        assert "combined               2 cells" in combined.stdout
        analysis = run_cli("sweep", "pareto", "--out", str(out), "--json")
        assert analysis.returncode == 0, analysis.stderr
        assert json.loads(analysis.stdout) == pareto

    def test_sweep_workers_flag_matches_serial_output(self, tmp_path):
        args = (
            "sweep",
            str(CONFIG_DIR / "serving_admission.json"),
            "--param",
            "serving.num_workers=1,2",
        )
        serial = run_cli(*args)
        parallel = run_cli(*args, "--workers", "2")
        assert serial.returncode == 0, serial.stderr
        assert parallel.returncode == 0, parallel.stderr
        assert parallel.stdout == serial.stdout


class TestTelemetrySubcommands:
    def test_serve_with_telemetry_writes_the_dump_files(self, tmp_path):
        out = tmp_path / "telemetry"
        result = run_cli(
            "serve", str(CONFIG_DIR / "serving_diurnal.json"), "--telemetry", str(out)
        )
        assert result.returncode == 0, result.stderr
        assert "telemetry              " in result.stdout
        for name in ("metrics.jsonl", "spans.jsonl", "telemetry.json"):
            assert (out / name).exists(), name
        windows = [
            json.loads(line)
            for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        assert windows and all("drop_rate" in row for row in windows)
        report = json.loads((out / "telemetry.json").read_text())
        assert report["kind"] == "telemetry"
        assert report["counters"]["arrivals"] == 200

    def test_telemetry_does_not_change_the_serve_report(self, tmp_path):
        bare = run_cli("serve", str(CONFIG_DIR / "serving_admission.json"))
        observed = run_cli(
            "serve",
            str(CONFIG_DIR / "serving_admission.json"),
            "--telemetry",
            str(tmp_path / "telemetry"),
        )
        assert bare.returncode == observed.returncode == 0
        # The observed run prints the telemetry paths, then the same report.
        assert observed.stdout.endswith(bare.stdout)
        assert observed.stdout.startswith("telemetry              ")

    def test_summarize_round_trips_the_directory(self, tmp_path):
        out = tmp_path / "telemetry"
        serve = run_cli(
            "serve", str(CONFIG_DIR / "serving_diurnal.json"), "--telemetry", str(out)
        )
        assert serve.returncode == 0, serve.stderr
        summary = run_cli("telemetry", "summarize", str(out))
        assert summary.returncode == 0, summary.stderr
        for needle in ("telemetry windows", "window series", "critical stage"):
            assert needle in summary.stdout
        as_json = run_cli("telemetry", "summarize", str(out), "--json")
        assert as_json.returncode == 0, as_json.stderr
        data = json.loads(as_json.stdout)
        assert data["kind"] == "telemetry"
        assert data == json.loads((out / "telemetry.json").read_text())

    def test_summarize_fails_cleanly_on_a_missing_dir(self, tmp_path):
        result = run_cli("telemetry", "summarize", str(tmp_path / "nothing"))
        assert result.returncode != 0

    def test_fleet_serve_with_telemetry(self, tmp_path):
        out = tmp_path / "telemetry"
        result = run_cli(
            "serve", str(CONFIG_DIR / "serving_sharded.json"), "--telemetry", str(out)
        )
        assert result.returncode == 0, result.stderr
        report = json.loads((out / "telemetry.json").read_text())
        assert report["counters"]["arrivals"] == 160
