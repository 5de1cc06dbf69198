"""Every declared input constraint holds at load and at direct construction.

``EXPECTED`` lists each constrained field of every config section and each
constrained parameter of every component a section feeds, with the
constraint its annotation must carry.  The table is compared with the
annotations both ways, so deleting an annotation, or adding one nobody
listed, fails here.  Then, for every entry, NaN, ±inf, ``10**400``, each
excluded bound and each value one past an included bound must raise a
``ValueError`` naming the field, both when the class is built directly and
when an example config carrying the value is loaded, where the message must
name the full dotted path; each included bound and each choice must be
accepted both ways.  A fault injector's descriptors are read by the
injector itself, so there the "load" is the injector reading them.
"""

from __future__ import annotations

import collections.abc
import copy
import json
import math
import re
import types
import typing
from pathlib import Path
from typing import Annotated, Any, Literal

import pytest

from repro.api import config as cfg
from repro.api.registry import (
    ADMISSION_POLICIES,
    ARRIVALS,
    AUTOSCALE_POLICIES,
    BATCH_COSTS,
    BATCHERS,
    CACHES,
    FAULTS,
    POPULARITY,
    PREFETCH_POLICIES,
)
from repro.api.schema import (
    Amplitude,
    Finite,
    Fraction,
    Name,
    NonEmpty,
    NonNegative,
    NonNegativeInt,
    Positive,
    PositiveInt,
    Range,
    Resolutions,
    parameter_hints,
)
from repro.data.profiles import DatasetProfile
from repro.serving.arrivals import ClosedLoopClients, OnOffArrivals, PoissonArrivals
from repro.serving.autoscale import EwmaQueueAutoscaler, ThresholdAutoscaler
from repro.serving.batcher import DynamicBatcher, LinearBatchCost
from repro.serving.cache import ScanCache
from repro.serving.control import EwmaAdmissionController, NextScanPrefetcher
from repro.serving.faults import (
    Crash,
    CrashSchedule,
    DegradedStorage,
    FaultEvent,
    RandomCrashes,
    StorageWindow,
)
from repro.serving.fleet import ConsistentHashRouter, ShardedFleet
from repro.serving.policies import LoadAdaptiveResolutionPolicy
from repro.serving.popularity import ZipfMandelbrotPopularity, ZipfPopularity
from repro.serving.server import ServerConfig
from repro.serving.traces import TraceRecord
from repro.serving.workload import DiurnalArrivals, TraceReplayArrivals
from repro.storage.bandwidth import StorageBandwidthModel
from repro.storage.policy import ScanReadPolicy
from repro.sweep.analysis import Objective

Quality = Annotated[int, Range(ge=1, le=100)]
Thresholds = dict[PositiveInt, Fraction]
Direction = Literal["min", "max"]

#: target -> {field: the constraint its annotation declares}.
EXPECTED: dict[Any, dict[str, Any]] = {
    # Config sections.
    cfg.StoreConfig: {"profile": Name, "num_images": PositiveInt, "quality": Quality | None},
    cfg.BackboneConfig: {"name": Name},
    cfg.AdaptiveConfig: {
        "queue_threshold": PositiveInt,
        "max_degradation_steps": NonNegativeInt | None,
    },
    cfg.PolicyConfig: {
        "name": Name,
        "resolution": PositiveInt | None,
        "tie_tolerance": NonNegative,
    },
    cfg.DiurnalConfig: {
        "period_s": Positive,
        "amplitude": Amplitude,
        "phase": Finite,
        "envelope": tuple[Positive, ...],
    },
    cfg.PopularityConfig: {"name": Name},
    cfg.ArrivalsConfig: {"name": Name, "speedup": Positive},
    cfg.CacheConfig: {"name": Name, "capacity_bytes": PositiveInt},
    cfg.AdmissionConfig: {"name": Name},
    cfg.PrefetchConfig: {"name": Name},
    cfg.BatchCostConfig: {"name": Name, "kernel_source": Literal["library", "tuned"]},
    cfg.ObservabilityConfig: {"window_s": Positive, "sample_rate": Fraction},
    cfg.AutoscaleConfig: {
        "name": Name,
        "interval_s": Positive,
        "min_shards": PositiveInt,
        "max_shards": PositiveInt,
    },
    cfg.FaultConfig: {"name": Name},
    cfg.FleetConfig: {
        "num_shards": PositiveInt,
        "virtual_nodes": PositiveInt,
        "replicas": PositiveInt,
    },
    cfg.ServingConfig: {
        "num_requests": PositiveInt,
        "num_workers": PositiveInt,
        "max_batch_size": PositiveInt,
        "max_wait_s": NonNegative,
        "scale_model_seconds": NonNegative,
    },
    cfg.ObjectiveConfig: {"column": Name, "direction": Direction},
    cfg.SweepConfig: {"grid": dict[str, Annotated[list, NonEmpty]], "workers": PositiveInt},
    cfg.ExperimentConfig: {"name": Name},
    cfg.EngineConfig: {
        "resolutions": Resolutions,
        "crop_ratio": Fraction,
        "ssim_thresholds": Thresholds,
    },
    # The components the sections feed.
    ServerConfig: {
        "resolutions": Resolutions,
        "num_workers": PositiveInt,
        "max_batch_size": PositiveInt,
        "max_wait_s": NonNegative,
        "scale_model_seconds": NonNegative,
        "crop_ratio": Fraction,
    },
    DynamicBatcher: {"max_batch_size": PositiveInt, "max_wait_s": NonNegative},
    LinearBatchCost: {"per_item_seconds": NonNegative, "fixed_seconds": NonNegative},
    ScanReadPolicy: {"ssim_thresholds": Thresholds},
    LoadAdaptiveResolutionPolicy: {
        "resolutions": Resolutions,
        "queue_threshold": PositiveInt,
        "max_degradation_steps": NonNegativeInt | None,
    },
    PoissonArrivals: {"rate_rps": Positive, "zipf_alpha": NonNegative},
    OnOffArrivals: {
        "on_rate_rps": Positive,
        "off_rate_rps": NonNegative,
        "mean_on_s": Positive,
        "mean_off_s": Positive,
        "zipf_alpha": NonNegative,
    },
    ClosedLoopClients: {
        "num_clients": PositiveInt,
        "think_time_s": NonNegative,
        "requests_per_client": PositiveInt,
        "zipf_alpha": NonNegative,
    },
    TraceReplayArrivals: {
        "speedup": Positive,
        "mode": Literal["truncate", "loop"],
        "records": Annotated[tuple[TraceRecord, ...], NonEmpty] | None,
    },
    DiurnalArrivals: {
        "period_s": Positive,
        "amplitude": Amplitude,
        "phase": Finite,
        "envelope": tuple[Positive, ...],
        "grid_per_period": Annotated[int, Range(ge=16)],
    },
    ZipfPopularity: {"alpha": NonNegative},
    ZipfMandelbrotPopularity: {"alpha": NonNegative, "shift": NonNegative},
    EwmaAdmissionController: {
        "alpha": Fraction,
        "depth_threshold": Positive,
        "deadline_s": Positive | None,
        "latency_alpha": Fraction,
    },
    NextScanPrefetcher: {"idle_threshold_s": Positive, "max_keys_per_gap": PositiveInt},
    ScanCache: {"capacity_bytes": PositiveInt},
    ConsistentHashRouter: {"virtual_nodes": PositiveInt, "replicas": PositiveInt},
    ShardedFleet: {
        "autoscale_interval_s": Positive,
        "min_shards": PositiveInt,
        "max_shards": PositiveInt,
    },
    ThresholdAutoscaler: {
        "high_rps_per_shard": Positive,
        "low_rps_per_shard": Positive,
        "step": PositiveInt,
    },
    EwmaQueueAutoscaler: {
        "alpha": Fraction,
        "high_backlog_per_shard": Positive,
        "low_backlog_per_shard": Positive,
        "step": PositiveInt,
    },
    FaultEvent: {
        "time": NonNegative,
        "kind": Literal["crash", "recover", "degrade-end", "degrade-start"],
        "factor": Fraction,
    },
    Crash: {"shard": NonNegativeInt, "at_s": NonNegative, "down_s": Positive | None},
    StorageWindow: {
        "shard": NonNegativeInt,
        "at_s": NonNegative,
        "duration_s": Positive,
        "factor": Fraction,
    },
    RandomCrashes: {"num_crashes": PositiveInt, "mean_down_s": Positive},
    Objective: {"column": Name, "direction": Direction},
    # What the store section's profile and the replay process's records are.
    DatasetProfile: {
        "num_classes": Annotated[int, Range(ge=2)],
        "storage_resolution_mean": Annotated[int, Range(ge=32)],
        "texture_weight": Annotated[float, Range(ge=0, le=1)],
    },
    TraceRecord: {
        "timestamp": NonNegative,
        "key": Name,
        "size_bytes": NonNegativeInt | None,
        "deadline_s": Positive | None,
    },
    StorageBandwidthModel: {
        "link_gbps": Positive,
        "per_request_latency_s": NonNegative,
        "dollars_per_gb": NonNegative,
        "dollars_per_1k_requests": NonNegative,
    },
}

#: Required arguments of each directly built target (the probed field wins).
BASE: dict[Any, dict[str, Any]] = {
    cfg.FaultConfig: {"name": "crash-schedule"},
    cfg.ObjectiveConfig: {"column": "report.p99_latency_ms"},
    ServerConfig: {"resolutions": (24,)},
    DynamicBatcher: {"max_batch_size": 1, "max_wait_s": 0.0},
    LoadAdaptiveResolutionPolicy: {
        "inner": types.SimpleNamespace(name="static"),
        "resolutions": (24,),
    },
    PoissonArrivals: {"rate_rps": 1.0},
    OnOffArrivals: {"on_rate_rps": 1.0},
    ClosedLoopClients: {"num_clients": 1},
    TraceReplayArrivals: {"trace_path": "trace.jsonl"},
    DiurnalArrivals: {"base": PoissonArrivals(rate_rps=1.0)},
    ScanCache: {"capacity_bytes": 1},
    ConsistentHashRouter: {"shard_ids": [0]},
    ShardedFleet: {"servers": [types.SimpleNamespace(bandwidth=None)]},
    FaultEvent: {"time": 0.0, "kind": "crash", "shard_id": 0},
    Crash: {"shard": 0, "at_s": 0.0},
    StorageWindow: {"shard": 0, "at_s": 0.0, "duration_s": 1.0},
    Objective: {"column": "report.p99_latency_ms"},
    DatasetProfile: {
        "name": "tiny",
        "num_classes": 2,
        "storage_resolution_mean": 32,
        "storage_resolution_std": 4,
        "object_scale_mean": 0.5,
        "object_scale_std": 0.1,
        "texture_weight": 0.5,
        "detail_sensitivity": 1.0,
    },
    TraceRecord: {"timestamp": 0.0, "key": "img0"},
}

#: Where a target's fields sit in an example config: (example, dotted path
#: of the section, patches applied first).  A component's entry is the
#: ``options`` of the section that selects it, checked at load against its
#: annotations.
LOAD: dict[Any, tuple[str, str, dict[str, Any]]] = {
    cfg.StoreConfig: ("serving_bursty", "store", {}),
    cfg.BackboneConfig: ("serving_bursty", "backbone", {}),
    cfg.AdaptiveConfig: ("serving_bursty", "policy.adaptive", {}),
    cfg.PolicyConfig: ("serving_bursty", "policy", {}),
    cfg.DiurnalConfig: ("serving_diurnal", "serving.arrivals.diurnal", {}),
    cfg.PopularityConfig: ("serving_diurnal", "serving.arrivals.popularity", {}),
    cfg.ArrivalsConfig: ("serving_bursty", "serving.arrivals", {}),
    cfg.CacheConfig: ("serving_bursty", "serving.cache", {}),
    cfg.AdmissionConfig: ("serving_admission", "serving.admission", {}),
    cfg.PrefetchConfig: ("serving_prefetch", "serving.prefetch", {}),
    cfg.BatchCostConfig: ("serving_bursty", "serving.batch_cost", {}),
    cfg.ObservabilityConfig: ("serving_bursty", "serving.observability", {}),
    cfg.AutoscaleConfig: ("serving_autoscale", "serving.fleet.autoscale", {}),
    cfg.FaultConfig: ("serving_chaos", "serving.fleet.faults[0]", {}),
    cfg.FleetConfig: ("serving_sharded", "serving.fleet", {}),
    cfg.ServingConfig: ("serving_bursty", "serving", {}),
    cfg.ObjectiveConfig: ("sweep_policy_grid", "sweep.objectives[0]", {}),
    cfg.SweepConfig: ("sweep_policy_grid", "sweep", {}),
    cfg.ExperimentConfig: ("fig2", "experiment", {}),
    cfg.EngineConfig: ("serving_bursty", "", {}),
    PoissonArrivals: ("serving_sharded", "serving.arrivals.options", {}),
    OnOffArrivals: ("serving_bursty", "serving.arrivals.options", {}),
    ClosedLoopClients: (
        "serving_bursty",
        "serving.arrivals.options",
        {"serving.arrivals": {"name": "closed-loop", "options": {"num_clients": 2}}},
    ),
    TraceReplayArrivals: ("serving_replay", "serving.arrivals.options", {}),
    ZipfPopularity: (
        "serving_bursty",
        "serving.arrivals.popularity.options",
        {"serving.arrivals.popularity": {"name": "zipf"}},
    ),
    ZipfMandelbrotPopularity: (
        "serving_bursty",
        "serving.arrivals.popularity.options",
        {"serving.arrivals.popularity": {"name": "zipf-mandelbrot"}},
    ),
    LinearBatchCost: (
        "serving_sharded",
        "serving.batch_cost.options",
        {"serving.batch_cost": {"name": "linear"}},
    ),
    EwmaAdmissionController: ("serving_admission", "serving.admission.options", {}),
    NextScanPrefetcher: ("serving_prefetch", "serving.prefetch.options", {}),
    ThresholdAutoscaler: ("serving_autoscale", "serving.fleet.autoscale.options", {}),
    EwmaQueueAutoscaler: (
        "serving_autoscale",
        "serving.fleet.autoscale.options",
        {"serving.fleet.autoscale": {"name": "ewma-queue"}},
    ),
}

#: The injectors that read descriptor lists themselves: (reader, the list's
#: name, a valid descriptor).
DESCRIPTORS = {
    Crash: (CrashSchedule, "crashes", {"shard": 0, "at_s": 0.0}),
    StorageWindow: (DegradedStorage, "windows", {"shard": 0, "at_s": 0.0, "duration_s": 1.0}),
}

#: Registries whose components' constraints must all appear in EXPECTED.
REGISTRIES = (
    ARRIVALS,
    POPULARITY,
    ADMISSION_POLICIES,
    PREFETCH_POLICIES,
    AUTOSCALE_POLICIES,
    FAULTS,
    CACHES,
    BATCHERS,
    BATCH_COSTS,
)

#: A key for a constrained-key mapping: a candidate resolution of every
#: example and of the default config, so thresholds keyed by it load.
SAMPLE_KEY = 24

CONFIG_DIR = Path(__file__).resolve().parents[2] / "examples" / "configs"


def _constrained(annotation) -> bool:
    """Whether an annotation carries a range, a choice or a non-empty rule."""
    if typing.get_origin(annotation) is Annotated:
        if any(isinstance(m, Range) or m is NonEmpty for m in annotation.__metadata__):
            return True
    if typing.get_origin(annotation) is Literal:
        return True
    return any(_constrained(arg) for arg in typing.get_args(annotation))


def _number_cases(bounds: Range) -> list[tuple[Any, bool]]:
    cases: list[tuple[Any, bool]] = [
        (math.nan, False),
        (math.inf, False),
        (-math.inf, False),
        (10**400, False),
    ]
    for excluded in (bounds.gt, bounds.lt):
        if excluded is not None:
            cases.append((excluded, False))
    if bounds.ge is not None:
        cases += [(bounds.ge, True), (bounds.ge - 1, False)]
    if bounds.le is not None:
        cases += [(bounds.le, True), (bounds.le + 1, False)]
    return cases


def _cases(annotation) -> list[tuple[Any, bool]]:
    """``(value, accepted)`` pairs probing the constraint an annotation declares."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        inner = next(arg for arg in args if arg is not type(None))
        return [(None, True), *_cases(inner)]
    if origin is Literal:
        return [("bogus", False), *((choice, True) for choice in args)]
    if origin is Annotated:
        cases = []
        for marker in annotation.__metadata__:
            if isinstance(marker, Range):
                cases += _number_cases(marker)
            elif marker is NonEmpty:
                cases.append(("" if args[0] is str else (), False))
        return cases + _cases(args[0])
    if origin in (tuple, list, collections.abc.Sequence) and args:
        return [((value,), accepted) for value, accepted in _cases(args[0])]
    if origin is dict:
        sample_key = "serving.num_workers" if args[0] is str else SAMPLE_KEY
        keys = [({key: 1}, accepted) for key, accepted in _cases(args[0])]
        values = [({sample_key: value}, accepted) for value, accepted in _cases(args[1])]
        return keys + values
    return []


def _label(value) -> str:
    return re.sub(r"\d{30,}", "10**400", repr(value))


CASES = [
    pytest.param(target, field, value, accepted, id=f"{target.__name__}.{field}={_label(value)}")
    for target, fields in EXPECTED.items()
    for field, annotation in fields.items()
    for value, accepted in _cases(annotation)
]


def test_the_table_lists_exactly_the_annotated_constraints():
    for target, expected in EXPECTED.items():
        declared = {
            name: hint for name, hint in parameter_hints(target).items() if _constrained(hint)
        }
        assert declared == expected, target.__name__


def test_every_registered_component_with_a_constraint_is_listed():
    for registry in REGISTRIES:
        for name in registry.names():
            component = registry.get(name)
            if any(_constrained(hint) for hint in parameter_hints(component).values()):
                assert component in EXPECTED, f"{registry.kind} {name!r}"


def test_every_case_list_probes_both_sides():
    assert any(accepted for *_, accepted in (case.values for case in CASES))
    for target, fields in EXPECTED.items():
        for field, annotation in fields.items():
            assert any(not ok for _, ok in _cases(annotation)), (target, field)


@pytest.mark.parametrize("target, field, value, accepted", CASES)
def test_direct_construction_enforces_the_annotation(target, field, value, accepted):
    kwargs = {**BASE.get(target, {}), field: value}
    if accepted:
        target(**kwargs)
        return
    with pytest.raises(ValueError) as error:
        target(**kwargs)
    assert field in str(error.value)


def _as_json(value):
    return json.loads(json.dumps(value))


def _set(data: dict, path: str, value) -> None:
    """Set ``path`` (dots and ``[i]`` indices) in ``data``, making sections."""
    keys: list = []
    for part in path.split("."):
        name, *indices = re.split(r"\[(\d+)\]", part)
        keys += [name, *(int(index) for index in indices if index)]
    cursor = data
    for key in keys[:-1]:
        if isinstance(key, str) and key not in cursor:
            cursor[key] = {}
        cursor = cursor[key]
    cursor[keys[-1]] = value


LOAD_CASES = [
    pytest.param(target, field, value, accepted, id=f"{target.__name__}.{field}={_label(value)}")
    for target, fields in EXPECTED.items()
    if target in LOAD
    for field, annotation in fields.items()
    for value, accepted in _cases(annotation)
]


@pytest.mark.parametrize("target, field, value, accepted", LOAD_CASES)
def test_loading_an_example_enforces_the_annotation_naming_the_path(
    target, field, value, accepted
):
    example, section, patches = LOAD[target]
    data = json.loads((CONFIG_DIR / f"{example}.json").read_text())
    for path, patch in patches.items():
        _set(data, path, copy.deepcopy(patch))
    dotted = f"{section}.{field}" if section else field
    _set(data, dotted, _as_json(value))
    if accepted:
        cfg.EngineConfig.from_dict(data)
        return
    with pytest.raises(ValueError) as error:
        cfg.EngineConfig.from_dict(data)
    assert dotted in str(error.value)


DESCRIPTOR_CASES = [
    pytest.param(target, field, value, accepted, id=f"{target.__name__}.{field}={_label(value)}")
    for target in DESCRIPTORS
    for field, annotation in EXPECTED[target].items()
    for value, accepted in _cases(annotation)
]


@pytest.mark.parametrize("target, field, value, accepted", DESCRIPTOR_CASES)
def test_an_injector_reading_its_descriptors_names_the_path(target, field, value, accepted):
    injector, name, valid = DESCRIPTORS[target]
    descriptors = [{**valid, field: value}]
    if accepted:
        injector(descriptors)
        return
    with pytest.raises(ValueError) as error:
        injector(descriptors)
    assert f"{name}[0].{field}" in str(error.value)
