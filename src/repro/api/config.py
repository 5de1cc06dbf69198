"""Declarative, validated, JSON-round-trippable scenario configs.

A config describes a complete scenario — which components to use (by their
registry names) and with what parameters — without constructing anything.
The :class:`~repro.api.engine.Engine` turns a config into live objects.

Every config class supports ``to_dict()`` / ``from_dict()`` and JSON
round-trips: ``EngineConfig.from_dict(config.to_dict()) == config`` and
``EngineConfig.from_json(config.to_json()) == config``.  Both directions
go through :mod:`repro.api.schema`, which reads each section field by
field from its annotations: a wrong type, an unknown key, a missing
required field or a value outside the range its annotation declares
(``max_wait_s: NonNegative``) raises :class:`ValueError` naming the dotted
field (``serving.max_wait_s``), so a bad config file fails at load time,
not mid-run.  A directly built section checks the same annotations, and
``__post_init__`` holds only the cross-field rules they cannot state.

Component *names* are resolved at build time, except that the arrivals,
popularity, admission, prefetch, autoscale and batch-cost sections resolve
theirs at load (importing the components) to read their ``options``
through the component's own annotations; an unregistered name, an unknown
option and every other section's options fail when the engine builds the
component.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Annotated, Any, Literal, TypeVar

from repro.api.schema import (
    Amplitude,
    Finite,
    Fraction,
    Name,
    NonEmpty,
    NonNegative,
    NonNegativeInt,
    Options,
    Positive,
    PositiveInt,
    Range,
    Resolutions,
    check,
    decode,
    encode,
)

_Config = TypeVar("_Config", bound="_DictMixin")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _component(registry: str, name: str) -> Any:
    """The component registered as ``name``, or None; options are read through it."""
    from repro.api import components  # noqa: F401  (populates the registries)
    from repro.api.registry import all_registries

    entries = all_registries()[registry]
    return entries.get(name) if name in entries else None


_ArrivalOptions = Annotated[dict, Options(partial(_component, "arrivals"))]
_PopularityOptions = Annotated[dict, Options(partial(_component, "popularity"))]
_AdmissionOptions = Annotated[dict, Options(partial(_component, "admission-policies"))]
_PrefetchOptions = Annotated[dict, Options(partial(_component, "prefetch-policies"))]
_AutoscaleOptions = Annotated[dict, Options(partial(_component, "autoscale-policies"))]
_BatchCostOptions = Annotated[dict, Options(partial(_component, "batch-costs"))]

#: A sweep axis: the values one dotted path takes.
_GridValues = Annotated[list, NonEmpty]

#: Which way an objective's column wins.
Direction = Literal["min", "max"]


class _DictMixin:
    """Shared ``to_dict``/``from_dict``/JSON plumbing for every config class,
    and its constraint check, which names fields by the section's name
    (``BatchCostConfig`` checks ``batch_cost.kernel_source``)."""

    def __post_init__(self) -> None:
        section = type(self).__name__.removesuffix("Config")
        check(self, re.sub(r"(?<!^)(?=[A-Z])", "_", section).lower())

    def to_dict(self) -> dict:
        return encode(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls: type[_Config], data: dict) -> _Config:
        return decode(cls, data)

    @classmethod
    def from_json(cls: type[_Config], text: str) -> _Config:
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Component sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreConfig(_DictMixin):
    """A synthetic progressive image store: dataset profile + encoder knobs.

    ``overrides`` patches fields of the named preset profile
    (``dataclasses.replace``), which is how scenarios shrink images for a
    fast demo without defining whole new presets.
    """

    profile: Name = "imagenet-like"
    overrides: dict = field(default_factory=dict)
    num_images: PositiveInt = 16
    seed: int = 0
    quality: Annotated[int, Range(ge=1, le=100)] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        from repro.data.profiles import DatasetProfile

        known = {f.name for f in fields(DatasetProfile)}
        unknown = sorted(set(self.overrides) - known)
        _require(
            not unknown,
            f"unknown store.overrides field(s): {', '.join(unknown)}; "
            f"DatasetProfile fields are: {', '.join(sorted(known))}",
        )


@dataclass(frozen=True)
class BackboneConfig(_DictMixin):
    """A model by registry name plus factory keyword arguments."""

    name: Name = "resnet-tiny"
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AdaptiveConfig(_DictMixin):
    """Load-adaptive degradation wrapped around the per-image policy."""

    queue_threshold: PositiveInt = 8
    max_degradation_steps: NonNegativeInt | None = None


@dataclass(frozen=True)
class PolicyConfig(_DictMixin):
    """Resolution selection: static or dynamic, optionally load-adaptive.

    ``resolution`` (static only) defaults to the highest candidate
    resolution; ``scale_model`` (dynamic only) names the scale-model
    backbone, whose ``num_classes`` defaults to the number of candidate
    resolutions.
    """

    name: Name = "static"
    resolution: PositiveInt | None = None
    scale_model: BackboneConfig = field(
        default_factory=lambda: BackboneConfig(name="mobilenet-tiny")
    )
    tie_tolerance: NonNegative = 0.02
    adaptive: AdaptiveConfig | None = None


@dataclass(frozen=True)
class DiurnalConfig(_DictMixin):
    """Diurnal modulation wrapped around the base arrival process.

    The base process's trace is time-warped so its instantaneous rate
    follows ``(1 + amplitude·sin) × envelope`` over a ``period_s`` cycle
    (see :class:`~repro.serving.workload.DiurnalArrivals`).  ``envelope``
    is a list of positive piecewise multipliers over equal segments of the
    period (empty = flat).
    """

    period_s: Positive = 86_400.0
    amplitude: Amplitude = 0.5
    phase: Finite = 0.0
    envelope: tuple[Positive, ...] = ()


@dataclass(frozen=True)
class PopularityConfig(_DictMixin):
    """Key-popularity model by registry name plus model keyword arguments.

    Absent, processes fall back to their bare ``zipf_alpha`` option; when
    present, the built :class:`~repro.serving.popularity.PopularityModel`
    drives key sampling instead (e.g. ``{"name": "cdn-calibrated",
    "options": {"dataset": "web-proxy-breslau99"}}``).
    """

    name: Name = "zipf"
    options: _PopularityOptions = field(default_factory=dict)


@dataclass(frozen=True)
class ArrivalsConfig(_DictMixin):
    """Traffic shape by registry name plus process keyword arguments.

    Workload-realism knobs ride alongside the name/options pair:

    * ``trace_path``/``speedup`` configure the ``replay`` process — the
      path of an empirical trace (JSONL/CSV) and its time-warp factor;
    * ``diurnal`` wraps the base process in a day/night rate envelope;
    * ``popularity`` selects a calibrated key-popularity model for the
      synthetic processes (replay traces carry their own keys).
    """

    name: Name = "poisson"
    options: _ArrivalOptions = field(default_factory=dict)
    trace_path: str | None = None
    speedup: Positive = 1.0
    diurnal: DiurnalConfig | None = None
    popularity: PopularityConfig | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.name != "diurnal",
            "diurnal modulation wraps a base process: set arrivals.name to the "
            "base (e.g. 'poisson') and add an arrivals.diurnal section",
        )
        if self.name == "replay":
            _require(
                bool(self.trace_path),
                "arrivals.trace_path is required for the 'replay' process",
            )
            _require(
                self.popularity is None,
                "arrivals.popularity does not apply to 'replay' (the trace "
                "already carries its keys)",
            )
            duplicated = {"trace_path", "speedup"} & set(self.options)
            _require(
                not duplicated,
                f"arrivals.options duplicates dedicated field(s): "
                f"{', '.join(sorted(duplicated))}; set them on the arrivals "
                "section itself",
            )
        else:
            _require(
                self.trace_path is None,
                "arrivals.trace_path only applies to the 'replay' process",
            )
            _require(
                self.speedup == 1.0,
                "arrivals.speedup only applies to the 'replay' process",
            )
        if self.diurnal is not None:
            _require(
                self.name != "closed-loop",
                "arrivals.diurnal needs an open-loop base process; closed-loop "
                "clients pace themselves off completions",
            )


@dataclass(frozen=True)
class CacheConfig(_DictMixin):
    """Cache tier by registry name plus its byte capacity."""

    name: Name = "scan-lru"
    capacity_bytes: PositiveInt = 1_000_000


@dataclass(frozen=True)
class AdmissionConfig(_DictMixin):
    """Admission control by registry name plus policy keyword arguments.

    The default (section absent) is the no-op ``always-admit`` policy, which
    reproduces the pre-control-plane server byte-for-byte.  Options are
    checked against the annotations of the policy the *name* selects, so a
    custom registered policy's option that happens to be called ``alpha``
    is held to that policy's own range, not the built-in controller's.
    """

    name: Name = "always-admit"
    options: _AdmissionOptions = field(default_factory=dict)


@dataclass(frozen=True)
class PrefetchConfig(_DictMixin):
    """Cache prefetching by registry name plus policy keyword arguments.

    The default (section absent) is the no-op ``none`` policy: the cache
    tier stays purely demand-fill.  As with admission, options are checked
    against the annotations of the policy the name selects.
    """

    name: Name = "none"
    options: _PrefetchOptions = field(default_factory=dict)


@dataclass(frozen=True)
class BatchCostConfig(_DictMixin):
    """Batch execution pricing: linear (tests) or hwsim (analytical model).

    Options are checked against the annotations of the model the name
    selects (``linear``'s ``per_item_seconds: NonNegative``).
    """

    name: Name = "linear"
    machine: str = "4790K"
    kernel_source: Literal["library", "tuned"] = "library"
    options: _BatchCostOptions = field(default_factory=dict)


@dataclass(frozen=True)
class ObservabilityConfig(_DictMixin):
    """Telemetry over the serving event stream (absent section = off).

    When the section is present, the engine attaches a
    :class:`~repro.obs.exporters.TelemetryPipeline` to the run: sim-time
    windowed metrics (``metrics``, window width ``window_s``), per-request
    span trees (``tracing``, retained at the seeded deterministic
    ``sample_rate``), and wall-clock profiling of the simulator itself
    (``profiling``).  Telemetry is read-only — the run's own reports are
    byte-for-byte identical with the section present or absent.
    """

    metrics: bool = True
    tracing: bool = True
    profiling: bool = True
    window_s: Positive = 0.01
    sample_rate: Fraction = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.metrics or self.tracing or self.profiling,
            "observability needs at least one of metrics/tracing/profiling "
            "enabled (drop the section to turn telemetry off)",
        )


@dataclass(frozen=True)
class AutoscaleConfig(_DictMixin):
    """Mid-run fleet resizing by a named autoscale policy.

    ``name`` picks a policy from the ``autoscale-policies`` registry
    (``none`` keeps the section inert: the fleet never resizes and its
    report is byte-identical to one without the section); ``options`` are
    its keyword arguments.  The fleet
    evaluates the policy every ``interval_s`` of simulated time and clamps
    its shard delta toward ``min_shards`` (scale-in) or ``max_shards``
    (scale-out).  With a policy other than ``none``, the fleet's
    ``num_shards`` must lie within those bounds.
    """

    name: Name = "none"
    interval_s: Positive = 0.05
    min_shards: PositiveInt = 1
    max_shards: PositiveInt = 16
    options: _AutoscaleOptions = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.max_shards >= self.min_shards,
            "autoscale.max_shards must be an integer >= autoscale.min_shards",
        )


@dataclass(frozen=True)
class FaultConfig(_DictMixin):
    """One seeded fault injector: a name from the ``faults`` registry.

    ``options`` are the injector's keyword arguments (crash schedules,
    degraded-bandwidth windows, ...).  A fleet's ``faults`` list composes
    injectors; an empty list injects nothing.
    """

    name: Name
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FleetConfig(_DictMixin):
    """Multi-node sharding of the serving tier.

    ``num_shards`` servers share the request key space through a seeded
    consistent-hash ring with ``virtual_nodes`` points per shard; each key
    is held by ``replicas`` shards.  ``overrides`` patches the serving
    section per shard — a mapping from shard index to ``ServingConfig``
    field patches (nested dicts such as ``cache`` merge field-wise), which
    is how a fleet mixes, say, one big-cache shard with several small ones.

    The elastic extensions are ``replicas`` > 1 (per-request replica-group
    routing), a non-``none`` ``autoscale`` section and a non-empty
    ``faults`` list.  Any of them makes the report an ``elastic-fleet``
    one; with all three at their defaults the fleet has no segment
    boundary and its report is byte-identical to a config without the
    sections at all.
    """

    num_shards: PositiveInt = 2
    virtual_nodes: PositiveInt = 64
    seed: int = 0
    overrides: dict[int, dict] = field(default_factory=dict)
    replicas: PositiveInt = 1
    autoscale: AutoscaleConfig | None = None
    faults: tuple[FaultConfig, ...] = ()

    @property
    def is_elastic(self) -> bool:
        """True when any elastic feature is actually enabled."""
        return (
            self.replicas > 1
            or (self.autoscale is not None and self.autoscale.name != "none")
            or bool(self.faults)
        )

    def __post_init__(self) -> None:
        super().__post_init__()
        scaling = self.autoscale
        if scaling is not None and scaling.name != "none":
            _require(
                self.num_shards >= scaling.min_shards,
                f"serving.fleet.num_shards ({self.num_shards}) is below "
                f"serving.fleet.autoscale.min_shards ({scaling.min_shards})",
            )
            _require(
                self.num_shards <= scaling.max_shards,
                f"serving.fleet.num_shards ({self.num_shards}) is above "
                f"serving.fleet.autoscale.max_shards ({scaling.max_shards})",
            )
        for shard, patch in self.overrides.items():
            _require(
                0 <= shard < self.num_shards,
                f"fleet.overrides key {shard!r} is not a shard index in "
                f"[0, {self.num_shards})",
            )
            _require(
                "fleet" not in patch and "arrivals" not in patch
                and "num_requests" not in patch,
                f"fleet.overrides[{shard}] cannot override fleet/arrivals/"
                "num_requests (traffic is fleet-wide)",
            )
            _require(
                "observability" not in patch,
                f"fleet.overrides[{shard}] cannot override observability "
                "(telemetry attaches fleet-wide and merges shard-wise)",
            )


@dataclass(frozen=True)
class ServingConfig(_DictMixin):
    """The serving tier: traffic, worker pool, batching, cache, pricing.

    Optional ``admission`` and ``prefetch`` sections plug control-plane
    policies into the event loop (absent sections mean the no-op defaults).
    An optional ``fleet`` section shards this tier across several servers
    (each with its own cache, worker pool and control-plane policies)
    behind a key router.  An optional ``observability`` section attaches
    the telemetry pipeline (absent = telemetry off, zero overhead).
    """

    arrivals: ArrivalsConfig = field(default_factory=ArrivalsConfig)
    num_requests: PositiveInt = 100
    num_workers: PositiveInt = 2
    max_batch_size: PositiveInt = 4
    max_wait_s: NonNegative = 0.005
    scale_model_seconds: NonNegative = 0.0
    cache: CacheConfig | None = None
    batch_cost: BatchCostConfig = field(default_factory=BatchCostConfig)
    admission: AdmissionConfig | None = None
    prefetch: PrefetchConfig | None = None
    fleet: FleetConfig | None = None
    observability: ObservabilityConfig | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fleet is None:
            return
        for shard in self.fleet.overrides:
            try:
                self.for_shard(shard)
            except ValueError as error:
                raise ValueError(f"serving.fleet.overrides.{shard}: {error}") from error

    def for_shard(self, shard: int) -> "ServingConfig":
        """This section specialized to one shard: fleet stripped, patch applied.

        The result is decoded like a config file's ``serving`` section, and
        ``__post_init__`` specializes every overridden shard once, so a bad
        per-shard override fails at load with the error a bad config file
        would raise, prefixed by the shard's ``serving.fleet.overrides`` path.
        """
        if self.fleet is None:
            raise ValueError("serving config has no fleet section to shard")
        data = self.to_dict()
        data.pop("fleet")
        for key, value in self.fleet.overrides.get(shard, {}).items():
            if isinstance(value, dict) and isinstance(data.get(key), dict):
                data[key] = {**data[key], **value}
            else:
                data[key] = value
        return decode(ServingConfig, data, "serving")


@dataclass(frozen=True)
class ObjectiveConfig(_DictMixin):
    """One sweep-analysis objective: a results-table column and a direction.

    ``column`` names a column of the combined sweep table (grid paths or
    ``report.*`` metrics, e.g. ``report.p99_latency_ms``); ``direction``
    says which way wins (``min`` or ``max``).  Pairs of objectives define
    the Pareto frontiers the analysis stage emits.
    """

    column: Name
    direction: Direction = "min"


@dataclass(frozen=True)
class SweepConfig(_DictMixin):
    """Sweep orchestration: the override grid plus how to run and analyze it.

    ``grid`` maps dotted config paths to non-empty value lists (the cross
    product is the cell set); ``workers`` sizes the multiprocessing pool
    (1 = the byte-identical in-process serial path); ``output_dir`` makes
    runs crash-tolerant/resumable by persisting per-cell results (the CLI's
    ``--out`` overrides it); ``base_seed`` derives every cell's recorded
    seed; ``objectives`` drive the Pareto stage (empty = the built-in
    latency/drop-rate/cost triple).

    For backward compatibility a bare ``{"dotted.path": [values, ...]}``
    mapping — the original ``sweep`` section shape — is accepted anywhere a
    ``SweepConfig`` is, and means "that grid with default orchestration".
    """

    grid: dict[str, _GridValues] = field(default_factory=dict)
    workers: PositiveInt = 1
    output_dir: str | None = None
    base_seed: int = 0
    objectives: tuple[ObjectiveConfig, ...] = ()

    @classmethod
    def _prepare(cls, data: Any) -> Any:
        """Read the legacy bare-grid form as ``{"grid": data}``.

        Every key of a bare grid is a dotted override path; the dots make a
        collision with the section's field names impossible.  The entries
        are checked here, so an error names the path the file spells
        (``sweep.serving.num_workers``), not ``sweep.grid.serving.num_workers``.
        """
        if isinstance(data, dict) and data and not set(data) & {f.name for f in fields(cls)}:
            decode(dict[str, _GridValues], data, "sweep")
            return {"grid": data}
        return data


@dataclass(frozen=True)
class ExperimentConfig(_DictMixin):
    """A named experiment (registry name) plus builder options."""

    name: Name = "fig2"
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The top-level config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineConfig(_DictMixin):
    """Everything an :class:`~repro.api.engine.Engine` needs for a scenario.

    ``resolutions`` is the candidate ladder shared by the policy, the read
    calibration and the server; ``ssim_thresholds`` maps a subset of those
    resolutions to calibrated read thresholds (absent resolutions read all
    scans).  ``serving`` and ``experiment`` are optional sections — a config
    may describe either or both.  ``sweep`` is a :class:`SweepConfig`
    (grid + workers + output dir + Pareto objectives) for
    :meth:`Engine.sweep`; a bare ``{"dotted.path": [values]}`` mapping is
    still accepted as the grid-only shorthand.
    """

    resolutions: Resolutions = (24, 32, 48)
    scale_resolution: int | None = None
    crop_ratio: Fraction = 0.75
    store: StoreConfig = field(default_factory=StoreConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    ssim_thresholds: dict[PositiveInt, Fraction] = field(default_factory=dict)
    serving: ServingConfig | None = None
    experiment: ExperimentConfig | None = None
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self) -> None:
        check(self)
        _require(
            len(set(self.resolutions)) == len(self.resolutions),
            "resolutions must be unique",
        )
        _require(
            self.scale_resolution is None or self.scale_resolution in self.resolutions,
            f"scale_resolution {self.scale_resolution} is not one of the "
            f"candidate resolutions {tuple(sorted(self.resolutions))}",
        )
        _require(
            self.policy.resolution is None
            or self.policy.resolution in self.resolutions,
            f"policy.resolution {self.policy.resolution} is not one of the "
            f"candidate resolutions {tuple(sorted(self.resolutions))}",
        )
        unknown = sorted(set(self.ssim_thresholds) - set(self.resolutions))
        _require(
            not unknown,
            f"ssim_thresholds name unknown resolution(s) {unknown}; "
            f"candidates are {tuple(sorted(self.resolutions))}",
        )
        if isinstance(self.sweep, dict):
            # Constructor convenience mirroring from_dict: a bare grid (or a
            # plain section dict) normalizes into a SweepConfig.
            object.__setattr__(self, "sweep", SweepConfig.from_dict(self.sweep))
        _require(
            isinstance(self.sweep, SweepConfig),
            "sweep must be a SweepConfig section (or a bare grid mapping)",
        )

    def with_overrides(self, overrides: dict[str, Any]) -> "EngineConfig":
        """A new config with dotted-path overrides applied (used by sweeps).

        Paths walk the config's JSON form, where every key is a string, so
        int-keyed maps are addressable too (``ssim_thresholds.24``,
        ``serving.fleet.overrides.0.num_workers``).
        """
        data = json.loads(self.to_json(indent=None))
        for path, value in overrides.items():
            cursor = data
            parts = path.split(".")
            for part in parts[:-1]:
                if not isinstance(cursor.get(part), dict):
                    raise KeyError(f"no config section {part!r} along path {path!r}")
                cursor = cursor[part]
            if parts[-1] not in cursor:
                raise KeyError(f"no config field {parts[-1]!r} along path {path!r}")
            cursor[parts[-1]] = value
        return EngineConfig.from_dict(data)


def load_config(path: str) -> EngineConfig:
    """Read an :class:`EngineConfig` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return EngineConfig.from_dict(json.load(handle))
