"""Malformed config input fails at load with an error naming the field.

A config file is outside input: a wrong type anywhere in it must raise a
``ValueError`` from ``EngineConfig.from_dict`` whose message contains the
offending value's dotted path, and ``repro serve`` must turn that into one
``error:`` line and exit status 2 instead of a traceback.  The property
walks every example config by the config classes' annotations, swaps one
typed value for a value of the wrong JSON type, and checks the message.
The ``options`` of the arrivals, popularity, admission, prefetch,
autoscale and batch-cost sections are typed by the annotations of the
component their ``name`` selects, so the walk swaps those too.  The contents of the other
free-form mappings (other sections' ``options``, ``store.overrides``,
sweep-grid value lists, per-shard patches) are not typed, so they are not
swapped; those ``options`` are checked when the engine builds the
component instead, and ``repro serve`` must fail the same clean way on
them.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import types
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.cli import main
from repro.api.config import ArrivalsConfig, EngineConfig
from repro.api.schema import Options
from repro.serving.traces import TraceRecord
from repro.serving.workload import TraceReplayArrivals

CONFIG_DIR = Path(__file__).resolve().parents[2] / "examples" / "configs"
CONFIGS = {
    path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))
}

#: One of each JSON type a field can wrongly hold.
WRONG_VALUES = ("oops", 2.5, True, [1, 2], None)


def _optional(annotation: typing.Any) -> tuple[typing.Any, bool]:
    """``(X, True)`` for ``X | None``, ``(annotation, False)`` otherwise."""
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) in (typing.Union, types.UnionType) and type(None) in args:
        return next(arg for arg in args if arg is not type(None)), True
    return annotation, False


def _accepts(annotation: typing.Any, value: typing.Any) -> bool:
    """Whether a field annotated ``annotation`` may hold the JSON ``value``."""
    base, optional = _optional(annotation)
    if value is None:
        return optional
    origin = typing.get_origin(base) or base
    if dataclasses.is_dataclass(base) or origin is dict:
        return isinstance(value, dict)
    if origin in (tuple, list):
        return isinstance(value, list)
    if origin is typing.Literal:
        return value in typing.get_args(base)
    if base is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if base is int:
        return isinstance(value, int)
    if base is float:
        return isinstance(value, (int, float))
    return isinstance(value, base)


def _typed_values(annotation, value, keys, path):
    """``(keys, dotted path, annotation)`` of ``value`` and every typed value in it."""
    if path:
        yield keys, path, annotation
    base, _ = _optional(annotation)
    args = typing.get_args(base)
    if dataclasses.is_dataclass(base) and isinstance(value, dict):
        hints = typing.get_type_hints(base)
        for field in dataclasses.fields(base):
            if field.name in value:
                dotted = f"{path}.{field.name}" if path else field.name
                yield from _typed_values(
                    hints[field.name], value[field.name], keys + (field.name,), dotted
                )
                factory = _options_factory(base, field.name, value)
                if factory is not None and isinstance(value[field.name], dict):
                    parameters = _parameter_types(factory)
                    for option, item in value[field.name].items():
                        if option in parameters:
                            yield from _typed_values(
                                parameters[option],
                                item,
                                keys + (field.name, option),
                                f"{dotted}.{option}",
                            )
    elif typing.get_origin(base) is tuple and isinstance(value, list):
        for index, item in enumerate(value):
            yield from _typed_values(args[0], item, keys + (index,), f"{path}[{index}]")
    elif typing.get_origin(base) is dict and isinstance(value, dict):
        for key, item in value.items():
            yield from _typed_values(args[1], item, keys + (key,), f"{path}.{key}")


def _options_factory(section: type, field_name: str, value: dict):
    """The component whose parameters type ``section.field_name``, if any."""
    annotation = typing.get_type_hints(section, include_extras=True)[field_name]
    markers = getattr(annotation, "__metadata__", ())
    default = {field.name: field.default for field in dataclasses.fields(section)}
    for marker in markers:
        if isinstance(marker, Options):
            return marker.resolve(value.get("name", default.get("name")))
    return None


def _parameter_types(factory) -> dict:
    return typing.get_type_hints(factory.__init__)


CASES = [
    (name, keys, path, annotation)
    for name, data in CONFIGS.items()
    for keys, path, annotation in _typed_values(EngineConfig, data, (), "")
]


def test_the_walk_reaches_nested_sections_lists_and_int_keyed_maps():
    paths = {path for _, _, path, _ in CASES}
    for path in (
        "serving.arrivals.options",
        "serving.arrivals.options.mean_off_s",
        "serving.arrivals.popularity.options.dataset",
        "serving.admission.options.alpha",
        "serving.prefetch.options.max_keys_per_gap",
        "serving.fleet.autoscale.options.high_rps_per_shard",
        "serving.fleet.faults[0].name",
        "serving.fleet.overrides.0",
        "ssim_thresholds.24",
        "resolutions[2]",
        "sweep.grid.serving.fleet.num_shards",
        "sweep.objectives[0].column",
    ):
        assert path in paths


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), draw=st.data())
def test_a_wrong_typed_value_fails_at_load_naming_its_path(case, draw):
    name, keys, path, annotation = case
    value = draw.draw(
        st.sampled_from([wrong for wrong in WRONG_VALUES if not _accepts(annotation, wrong)])
    )
    data = copy.deepcopy(CONFIGS[name])
    cursor = data
    for key in keys[:-1]:
        cursor = cursor[key]
    cursor[keys[-1]] = value
    with pytest.raises(ValueError) as error:
        EngineConfig.from_dict(data)
    assert path in str(error.value)


#: Inputs that crashed with a TypeError, failed naming no field, or were
#: silently accepted before configs were read through the annotations:
#: (dotted path to set, value, path the error names[, example config, by
#: default serving_bursty]).
PROBES = [
    ("serving.num_workers", "two", "serving.num_workers"),
    ("serving.num_requests", None, "serving.num_requests"),
    ("serving.max_wait_s", "0.01", "serving.max_wait_s"),
    ("resolutions", ["24", 32], "resolutions[0]"),
    ("crop_ratio", "0.5", "crop_ratio"),
    ("policy.tie_tolerance", [0.1], "policy.tie_tolerance"),
    ("serving.arrivals.speedup", None, "serving.arrivals.speedup"),
    ("ssim_thresholds", {"x": 0.9}, "ssim_thresholds"),
    ("serving.max_batch_size", 2.5, "serving.max_batch_size"),
    ("store.num_images", 4.0, "store.num_images"),
    ("store.quality", True, "store.quality"),
    ("serving.observability.metrics", 1, "serving.observability.metrics"),
    (
        "sweep",
        {"grid": {"serving.num_workers": "abc"}},
        "sweep.grid.serving.num_workers",
    ),
    ("serving.cache", [1, 2], "serving.cache"),
    # Numbers no float can hold (JSON carries 10**400 as an int) crashed
    # mid-run with an OverflowError; an infinite wait ran and reported
    # `duration inf s`.
    ("serving.max_wait_s", 10**400, "serving.max_wait_s"),
    ("serving.max_wait_s", math.inf, "serving.max_wait_s"),
    ("serving.scale_model_seconds", 10**400, "serving.scale_model_seconds"),
    ("serving.scale_model_seconds", math.inf, "serving.scale_model_seconds"),
    ("serving.arrivals.speedup", 10**400, "serving.arrivals.speedup"),
    ("serving.arrivals.options.on_rate_rps", 10**400, "arrivals.options.on_rate_rps"),
    # Options the arrival process and the autoscaler take, checked at load
    # against their annotations: an OverflowError traceback, a hang, a run
    # whose first ON phase never ended, an error naming no field, and a
    # NaN watermark that ran.
    (
        "serving.arrivals.options.off_rate_rps",
        10**400,
        "serving.arrivals.options.off_rate_rps",
    ),
    ("serving.arrivals.options.mean_off_s", math.inf, "serving.arrivals.options.mean_off_s"),
    ("serving.arrivals.options.mean_on_s", math.nan, "serving.arrivals.options.mean_on_s"),
    ("serving.arrivals.options.zipf_alpha", math.nan, "serving.arrivals.options.zipf_alpha"),
    (
        "serving.fleet.autoscale.options.high_rps_per_shard",
        math.nan,
        "serving.fleet.autoscale.options.high_rps_per_shard",
        "serving_autoscale",
    ),
    # A NaN linear batch cost ran and reported every shard at `req/s inf`.
    (
        "serving.batch_cost",
        {"name": "linear", "options": {"per_item_seconds": math.nan}},
        "serving.batch_cost.options.per_item_seconds",
        "serving_sharded",
    ),
]
PROBE_ARGS = [(*probe, "serving_bursty")[:4] for probe in PROBES]


def _probe_id(path: str, value, names: str, config: str = "serving_bursty") -> str:
    """The probed path; a probe of an out-of-range number also names it."""
    if isinstance(value, float) and math.isinf(value):
        return f"{path}=inf"
    if isinstance(value, int) and value == 10**400:
        return f"{path}=10**400"
    return path


PROBE_IDS = [_probe_id(*probe) for probe in PROBES]


def _with(path: str, value, config: str = "serving_bursty") -> dict:
    data = copy.deepcopy(CONFIGS[config])
    *sections, leaf = path.split(".")
    cursor = data
    for section in sections:
        cursor = cursor.setdefault(section, {})
    cursor[leaf] = value
    return data


@pytest.mark.parametrize("path, value, names, config", PROBE_ARGS, ids=PROBE_IDS)
def test_probed_input_fails_at_load_naming_the_field(path, value, names, config):
    with pytest.raises(ValueError) as error:
        EngineConfig.from_dict(_with(path, value, config))
    assert names in str(error.value)


def _assert_serve_fails_cleanly(data: dict, names: str, tmp_path, capsys) -> None:
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(data))
    assert main(["serve", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and names in lines[0]


@pytest.mark.parametrize("path, value, names, config", PROBE_ARGS, ids=PROBE_IDS)
def test_repro_serve_exits_2_with_one_error_line(path, value, names, config, tmp_path, capsys):
    _assert_serve_fails_cleanly(_with(path, value, config), names, tmp_path, capsys)


def test_an_infinite_speedup_fails_at_load_naming_the_field(tmp_path, capsys):
    # A well-typed float that used to load: replay divided every timestamp
    # by it, so every arrival landed at t = 0.  JSON carries it as Infinity.
    data = _with("serving.arrivals.speedup", float("inf"))
    with pytest.raises(ValueError, match="arrivals.speedup"):
        EngineConfig.from_dict(data)
    _assert_serve_fails_cleanly(data, "arrivals.speedup", tmp_path, capsys)


def test_a_replay_speedup_beyond_the_float_range_fails_cleanly(tmp_path, capsys):
    data = copy.deepcopy(CONFIGS["serving_replay"])
    data["serving"]["arrivals"]["speedup"] = 10**400
    _assert_serve_fails_cleanly(data, "serving.arrivals.speedup", tmp_path, capsys)


@pytest.mark.parametrize("value", [10**400, math.inf, math.nan], ids=["10**400", "inf", "nan"])
def test_directly_built_rate_and_speedup_checks_refuse_non_finite_numbers(value):
    # Built without the schema reader, the checks themselves must not raise
    # OverflowError on an int beyond the float range.
    with pytest.raises(ValueError, match="arrivals.speedup"):
        ArrivalsConfig(name="replay", trace_path="trace.jsonl", speedup=value)
    with pytest.raises(ValueError, match="arrivals.options.rate_rps"):
        ArrivalsConfig(options={"rate_rps": value})
    with pytest.raises(ValueError, match="speedup"):
        TraceReplayArrivals(records=(TraceRecord(timestamp=0.0, key="k"),), speedup=value)


def test_a_nan_fault_time_fails_at_build_naming_the_field(tmp_path, capsys):
    # NaN passes every `<` check: an outage of NaN seconds used to run as a
    # crash that never recovers, and exit 0.  JSON carries it as NaN.
    data = copy.deepcopy(CONFIGS["serving_chaos"])
    data["serving"]["fleet"]["faults"][0]["options"]["crashes"][0]["down_s"] = float("nan")
    _assert_serve_fails_cleanly(data, "crashes[0].down_s", tmp_path, capsys)


#: Component ``options`` that crashed with a traceback or ran with a wrong
#: result: ``Registry.build`` binds them against the factory's signature,
#: the layers check their sizes, and the engine gives the scale model one
#: output per resolution.  (path, value, text the error names).
BUILD_PROBES = [
    ("backbone.options.base_widht", 4, "unknown option(s) base_widht; accepted options:"),
    ("serving.arrivals.options.sead", 3, "unknown option(s) sead; accepted options:"),
    ("backbone.options.base_width", 0, "Conv2d out_channels must be"),
    ("backbone.options.num_classes", 0, "Linear out_features must be"),
    ("policy.scale_model.options.num_classes", 5, "policy.scale_model.options.num_classes"),
    ("policy.scale_model.options.num_classes", 2, "policy.scale_model.options.num_classes"),
]


@pytest.mark.parametrize(
    "path, value, names", BUILD_PROBES, ids=[f"{p[0]}={p[1]}" for p in BUILD_PROBES]
)
def test_bad_component_options_fail_at_build_with_one_error_line(
    path, value, names, tmp_path, capsys
):
    _assert_serve_fails_cleanly(_with(path, value), names, tmp_path, capsys)
