"""Golden-parity differential harness for the example configurations.

Every config under ``examples/configs`` that produces a report has its
canonical ``--json`` output committed under ``tests/golden``; these tests
re-run each config through the :class:`~repro.api.engine.Engine` and
byte-compare against the pinned file.  This is the refactor gate for the
event loop: the goldens were captured from the original scalar loop, so
they are the specification.  Serving configs run twice — once bare (event
objects elided) and once with a recording observer on every server (event
objects built) — and both must reproduce the goldens exactly.  Any drift
in a simulated value, a float reduction order, or the JSON encoding fails
here with the first divergent report key named.

To intentionally re-pin after a behaviour change::

    PYTHONPATH=src python -m pytest tests/integration/test_golden_parity.py \
        --update-golden

then review the resulting ``tests/golden`` diff before committing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import Engine
from repro.serving.events import RequestCompleted, ServerEvent, ServerObserver

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG_DIR = REPO_ROOT / "examples" / "configs"
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: Configs whose report comes from ``run_experiment`` (no serving section).
EXPERIMENT_CONFIGS = ("fig2", "table1")
#: Configs whose report comes from ``serve`` (these exercise the event loop).
SERVING_CONFIGS = (
    "serving_admission",
    "serving_autoscale",
    "serving_bursty",
    "serving_chaos",
    "serving_diurnal",
    "serving_prefetch",
    "serving_replay",
    "serving_sharded",
)
ALL_CONFIGS = EXPERIMENT_CONFIGS + SERVING_CONFIGS


class _Recorder(ServerObserver):
    """Collect every event; subscribing it turns event elision off."""

    def __init__(self) -> None:
        self.events: list[ServerEvent] = []

    def on_event(self, event: ServerEvent) -> None:
        self.events.append(event)


def _engine(name: str) -> Engine:
    data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    return Engine(EngineConfig.from_dict(data))


def _render(name: str, engine: Engine, observer: ServerObserver | None = None) -> str:
    """One config's canonical report text (``to_json`` plus newline).

    ``observer``, when given, is subscribed to every server the engine
    builds (single server, fleet shards, elastic scale-outs and recoveries).
    """
    if observer is not None:
        build_server = engine.build_server

        def observed_server(*args, **kwargs):
            server = build_server(*args, **kwargs)
            server.subscribe(observer)
            return server

        engine.build_server = observed_server
    if name in EXPERIMENT_CONFIGS:
        report = engine.run_experiment()
    else:
        report = engine.serve()
    return report.to_json() + "\n"


def _first_divergence(expected, actual, path: str = "$") -> str:
    """The path of the first differing key between two decoded reports."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                return f"{path}.{key} (unexpected key)"
            if key not in actual:
                return f"{path}.{key} (missing key)"
            if expected[key] != actual[key]:
                return _first_divergence(expected[key], actual[key], f"{path}.{key}")
        return f"{path} (dicts equal but text differs)"
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path} (length {len(expected)} != {len(actual)})"
        for index, (left, right) in enumerate(zip(expected, actual)):
            if left != right:
                return _first_divergence(left, right, f"{path}[{index}]")
        return f"{path} (lists equal but text differs)"
    return f"{path}: expected {expected!r}, got {actual!r}"


def _assert_matches_golden(name: str, text: str, label: str) -> None:
    golden_path = GOLDEN_DIR / f"{name}.json"
    expected = golden_path.read_text()
    if text == expected:
        return
    divergence = _first_divergence(json.loads(expected), json.loads(text))
    pytest.fail(
        f"{name} ({label}) diverged from {golden_path.relative_to(REPO_ROOT)}\n"
        f"first divergent key: {divergence}\n"
        "If the change is intentional, re-pin with --update-golden and "
        "review the diff."
    )


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_report_matches_golden(name: str, update_golden: bool) -> None:
    """A bare run (events elided) reproduces the pinned report exactly."""
    text = _render(name, _engine(name))
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        (GOLDEN_DIR / f"{name}.json").write_text(text)
        return
    _assert_matches_golden(name, text, "bare run")


@pytest.mark.parametrize("name", SERVING_CONFIGS)
def test_observed_run_matches_golden(name: str, update_golden: bool) -> None:
    """A fully observed run (every event built) agrees byte-for-byte.

    Event elision is the one branch left in the event loop; together with
    ``test_report_matches_golden`` this pins both sides of it to the
    committed artifact, so a regression in either cannot hide behind the
    other.  Every completion the run emits must also conserve its bytes:
    what came from the store plus what came from the cache is exactly the
    scan prefix it read, which is at most the whole object.
    """
    if update_golden:
        pytest.skip("goldens are pinned from the bare run")
    recorder = _Recorder()
    engine = _engine(name)
    _assert_matches_golden(name, _render(name, engine, observer=recorder), "observed run")
    records = [
        event.record for event in recorder.events if isinstance(event, RequestCompleted)
    ]
    assert records
    store = engine.build_store()
    for record in records:
        encoded = store.metadata(record.key).encoded
        prefix = encoded.cumulative_bytes(record.scans_read)
        assert record.bytes_from_store + record.bytes_from_cache == prefix, record
        assert prefix <= record.total_bytes == encoded.total_bytes, record


def test_every_golden_has_a_config() -> None:
    """No stale golden files: each pinned report maps to a live config."""
    pinned = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert pinned == set(ALL_CONFIGS)


def test_disabled_elastic_sections_match_the_static_golden() -> None:
    """Elastic sections configured but *disabled* are byte-invisible.

    ``replicas: 1``, ``autoscale.name: "none"`` and ``faults: []`` must
    leave the fleet without a segment boundary — the report is
    byte-identical to the pinned ``serving_sharded`` golden, which is the
    differential gate that the elastic features cannot perturb existing
    configs.
    """
    data = json.loads((CONFIG_DIR / "serving_sharded.json").read_text())
    fleet = data["serving"]["fleet"]
    fleet["replicas"] = 1
    fleet["autoscale"] = {"name": "none"}
    fleet["faults"] = []
    report = Engine(EngineConfig.from_dict(data)).serve()
    assert report.kind == "fleet"  # not elastic-fleet: nothing elastic ran
    expected = (GOLDEN_DIR / "serving_sharded.json").read_text()
    assert report.to_json() + "\n" == expected
