"""Declarative, validated, JSON-round-trippable scenario configs.

A config describes a complete scenario — which components to use (by their
registry names) and with what parameters — without constructing anything.
The :class:`~repro.api.engine.Engine` turns a config into live objects.

Every config class supports ``to_dict()`` / ``from_dict()`` and JSON
round-trips: ``EngineConfig.from_dict(config.to_dict()) == config`` and
``EngineConfig.from_json(config.to_json()) == config``.  Validation happens
in ``__post_init__`` and raises :class:`ValueError` with a message naming
the offending field, so a bad config file fails at load time, not mid-run.

Component *names* (backbone, arrivals, cache, ...) are validated against
the registries by the engine at build time, where the registries are
guaranteed to be populated; configs validate everything that can be checked
without imports — positivity, ranges, and cross-field consistency such as
unknown resolutions.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from typing import Any


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _clean_dict(value: Any) -> Any:
    """Recursively convert a config object into plain dicts/lists/scalars."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _clean_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _clean_dict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean_dict(item) for item in value]
    return value


def _is_int(value: Any) -> bool:
    """Whether ``value`` can fill an integer field (``bool`` cannot)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _pop_section(data: dict, name: str, cls: type, default: Any = None) -> Any:
    section = data.pop(name, None)
    if section is None:
        return default
    if isinstance(section, cls):
        return section
    _require(
        isinstance(section, dict),
        f"{name} must be a mapping of section fields, got {type(section).__name__}",
    )
    return cls.from_dict(section)


def _reject_unknown_keys(cls: type, data: dict) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}; "
            f"known fields: {', '.join(sorted(known))}"
        )


class _DictMixin:
    """Shared ``to_dict``/``to_json`` plumbing for every config class."""

    def to_dict(self) -> dict:
        return _clean_dict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
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

    profile: str = "imagenet-like"
    overrides: dict = field(default_factory=dict)
    num_images: int = 16
    seed: int = 0
    quality: int | None = None

    def __post_init__(self) -> None:
        from repro.data.profiles import DatasetProfile

        known = {f.name for f in fields(DatasetProfile)}
        unknown = sorted(set(self.overrides) - known)
        _require(
            not unknown,
            f"unknown store.overrides field(s): {', '.join(unknown)}; "
            f"DatasetProfile fields are: {', '.join(sorted(known))}",
        )
        _require(self.num_images > 0, "store.num_images must be positive")
        _require(
            self.quality is None or 1 <= self.quality <= 100,
            "store.quality must be in [1, 100]",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "StoreConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class BackboneConfig(_DictMixin):
    """A model by registry name plus factory keyword arguments."""

    name: str = "resnet-tiny"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name), "backbone.name must be non-empty")

    @classmethod
    def from_dict(cls, data: dict) -> "BackboneConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class AdaptiveConfig(_DictMixin):
    """Load-adaptive degradation wrapped around the per-image policy."""

    queue_threshold: int = 8
    max_degradation_steps: int | None = None

    def __post_init__(self) -> None:
        _require(self.queue_threshold > 0, "adaptive.queue_threshold must be positive")
        _require(
            self.max_degradation_steps is None or self.max_degradation_steps >= 0,
            "adaptive.max_degradation_steps must be non-negative",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class PolicyConfig(_DictMixin):
    """Resolution selection: static or dynamic, optionally load-adaptive.

    ``resolution`` (static only) defaults to the highest candidate
    resolution; ``scale_model`` (dynamic only) names the scale-model
    backbone, whose ``num_classes`` defaults to the number of candidate
    resolutions.
    """

    name: str = "static"
    resolution: int | None = None
    scale_model: BackboneConfig = field(
        default_factory=lambda: BackboneConfig(name="mobilenet-tiny")
    )
    tie_tolerance: float = 0.02
    adaptive: AdaptiveConfig | None = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "policy.name must be non-empty")
        _require(
            self.resolution is None or self.resolution > 0,
            "policy.resolution must be positive",
        )
        _require(self.tie_tolerance >= 0, "policy.tie_tolerance must be non-negative")

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        data["scale_model"] = _pop_section(
            data, "scale_model", BackboneConfig, BackboneConfig(name="mobilenet-tiny")
        )
        data["adaptive"] = _pop_section(data, "adaptive", AdaptiveConfig)
        return cls(**data)


@dataclass(frozen=True)
class DiurnalConfig(_DictMixin):
    """Diurnal modulation wrapped around the base arrival process.

    The base process's trace is time-warped so its instantaneous rate
    follows ``(1 + amplitude·sin) × envelope`` over a ``period_s`` cycle
    (see :class:`~repro.serving.workload.DiurnalArrivals`).  ``envelope``
    is a list of positive piecewise multipliers over equal segments of the
    period (empty = flat).
    """

    period_s: float = 86_400.0
    amplitude: float = 0.5
    phase: float = 0.0
    envelope: tuple = ()

    def __post_init__(self) -> None:
        _require(self.period_s > 0, "diurnal.period_s must be positive")
        _require(0.0 <= self.amplitude < 1.0, "diurnal.amplitude must be in [0, 1)")
        _require(
            all(
                isinstance(value, (int, float)) and value > 0
                for value in self.envelope
            ),
            "diurnal.envelope multipliers must be positive numbers",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "DiurnalConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        if "envelope" in data:
            data["envelope"] = tuple(data["envelope"])
        return cls(**data)


@dataclass(frozen=True)
class PopularityConfig(_DictMixin):
    """Key-popularity model by registry name plus model keyword arguments.

    Absent, processes fall back to their bare ``zipf_alpha`` option; when
    present, the built :class:`~repro.serving.popularity.PopularityModel`
    drives key sampling instead (e.g. ``{"name": "cdn-calibrated",
    "options": {"dataset": "web-proxy-breslau99"}}``).
    """

    name: str = "zipf"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name), "popularity.name must be non-empty")
        _require(isinstance(self.options, dict), "popularity.options must be a mapping")
        if self.name in ("zipf", "zipf-mandelbrot"):
            for option in ("alpha", "shift"):
                value = self.options.get(option)
                _require(
                    value is None or (isinstance(value, (int, float)) and value >= 0),
                    f"popularity.options.{option} must be a non-negative number",
                )

    @classmethod
    def from_dict(cls, data: dict) -> "PopularityConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


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

    name: str = "poisson"
    options: dict = field(default_factory=dict)
    trace_path: str | None = None
    speedup: float = 1.0
    diurnal: DiurnalConfig | None = None
    popularity: PopularityConfig | None = None

    def __post_init__(self) -> None:
        _require(bool(self.name), "arrivals.name must be non-empty")
        _require(
            self.name != "diurnal",
            "diurnal modulation wraps a base process: set arrivals.name to the "
            "base (e.g. 'poisson') and add an arrivals.diurnal section",
        )
        for option in ("rate_rps", "on_rate_rps", "num_clients"):
            value = self.options.get(option)
            _require(
                value is None or (isinstance(value, (int, float)) and value > 0),
                f"arrivals.options.{option} must be a positive number",
            )
        _require(self.speedup > 0, "arrivals.speedup must be positive")
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

    @classmethod
    def from_dict(cls, data: dict) -> "ArrivalsConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        data["diurnal"] = _pop_section(data, "diurnal", DiurnalConfig)
        data["popularity"] = _pop_section(data, "popularity", PopularityConfig)
        return cls(**data)


@dataclass(frozen=True)
class CacheConfig(_DictMixin):
    """Cache tier by registry name plus its byte capacity."""

    name: str = "scan-lru"
    capacity_bytes: int = 1_000_000

    def __post_init__(self) -> None:
        _require(bool(self.name), "cache.name must be non-empty")
        _require(self.capacity_bytes > 0, "cache.capacity_bytes must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "CacheConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class AdmissionConfig(_DictMixin):
    """Admission control by registry name plus policy keyword arguments.

    The default (section absent) is the no-op ``always-admit`` policy, which
    reproduces the pre-control-plane server byte-for-byte.  Option checks
    are gated on the policy *name*: custom registered policies own their
    option semantics (their constructors validate at build time), so a
    custom option that happens to be called ``alpha`` is not constrained
    by the built-in controller's range.
    """

    name: str = "always-admit"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name), "admission.name must be non-empty")
        _require(
            isinstance(self.options, dict), "admission.options must be a mapping"
        )
        if self.name != "ewma":
            return
        for option in ("alpha", "latency_alpha"):
            value = self.options.get(option)
            _require(
                value is None
                or (isinstance(value, (int, float)) and 0.0 < value <= 1.0),
                f"admission.options.{option} must be in (0, 1]",
            )
        for option in ("depth_threshold", "deadline_s"):
            value = self.options.get(option)
            _require(
                value is None or (isinstance(value, (int, float)) and value > 0),
                f"admission.options.{option} must be a positive number",
            )

    @classmethod
    def from_dict(cls, data: dict) -> "AdmissionConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class PrefetchConfig(_DictMixin):
    """Cache prefetching by registry name plus policy keyword arguments.

    The default (section absent) is the no-op ``none`` policy: the cache
    tier stays purely demand-fill.  As with admission, option checks are
    gated on the policy name — custom policies validate their own options
    at build time.
    """

    name: str = "none"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name), "prefetch.name must be non-empty")
        _require(isinstance(self.options, dict), "prefetch.options must be a mapping")
        if self.name != "next-scan":
            return
        threshold = self.options.get("idle_threshold_s")
        _require(
            threshold is None
            or (isinstance(threshold, (int, float)) and threshold > 0),
            "prefetch.options.idle_threshold_s must be a positive number",
        )
        per_gap = self.options.get("max_keys_per_gap")
        _require(
            per_gap is None or (isinstance(per_gap, int) and per_gap > 0),
            "prefetch.options.max_keys_per_gap must be a positive integer",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "PrefetchConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class BatchCostConfig(_DictMixin):
    """Batch execution pricing: linear (tests) or hwsim (analytical model)."""

    name: str = "linear"
    machine: str = "4790K"
    kernel_source: str = "library"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name), "batch_cost.name must be non-empty")
        _require(
            self.kernel_source in ("library", "tuned"),
            "batch_cost.kernel_source must be 'library' or 'tuned'",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "BatchCostConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


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
    window_s: float = 0.01
    sample_rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(
            self.metrics or self.tracing or self.profiling,
            "observability needs at least one of metrics/tracing/profiling "
            "enabled (drop the section to turn telemetry off)",
        )
        _require(self.window_s > 0, "observability.window_s must be positive")
        _require(
            0.0 < self.sample_rate <= 1.0,
            "observability.sample_rate must be in (0, 1]",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ObservabilityConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class AutoscaleConfig(_DictMixin):
    """Mid-run fleet resizing by a named autoscale policy.

    ``name`` picks a policy from the ``autoscale-policies`` registry
    (``none`` keeps the section inert: the fleet never resizes and its
    report is byte-identical to one without the section); ``options`` are
    its keyword arguments.  The fleet
    evaluates the policy every ``interval_s`` of simulated time and clamps
    its shard delta to ``[min_shards, max_shards]``.
    """

    name: str = "none"
    interval_s: float = 0.05
    min_shards: int = 1
    max_shards: int = 16
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            "autoscale.name must be a non-empty string",
        )
        _require(
            isinstance(self.interval_s, (int, float))
            and not isinstance(self.interval_s, bool)
            and self.interval_s > 0,
            "autoscale.interval_s must be a positive number",
        )
        _require(
            _is_int(self.min_shards) and self.min_shards > 0,
            "autoscale.min_shards must be a positive integer",
        )
        _require(
            _is_int(self.max_shards) and self.max_shards >= self.min_shards,
            "autoscale.max_shards must be an integer >= autoscale.min_shards",
        )
        _require(isinstance(self.options, dict), "autoscale.options must be a mapping")

    @classmethod
    def from_dict(cls, data: dict) -> "AutoscaleConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class FaultConfig(_DictMixin):
    """One seeded fault injector: a name from the ``faults`` registry.

    ``options`` are the injector's keyword arguments (crash schedules,
    degraded-bandwidth windows, ...).  A fleet's ``faults`` list composes
    injectors; an empty list injects nothing.
    """

    name: str
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name),
            "fault.name must be a non-empty string",
        )
        _require(isinstance(self.options, dict), "fault.options must be a mapping")

    @classmethod
    def from_dict(cls, data: dict) -> "FaultConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class FleetConfig(_DictMixin):
    """Multi-node sharding of the serving tier.

    ``num_shards`` servers share the request key space through the named
    router (a seeded ``virtual_nodes``-per-shard consistent-hash ring).
    ``overrides`` patches the serving section per shard — a mapping from
    shard index to ``ServingConfig`` field patches (nested dicts such as
    ``cache`` merge field-wise), which is how a fleet mixes, say, one
    big-cache shard with several small ones.

    The elastic extensions are ``replicas`` > 1 (per-request replica-group
    routing), a non-``none`` ``autoscale`` section and a non-empty
    ``faults`` list.  Any of them makes the report an ``elastic-fleet``
    one; with all three at their defaults the fleet has no segment
    boundary and its report is byte-identical to a config without the
    sections at all.
    """

    num_shards: int = 2
    router: str = "consistent-hash"
    virtual_nodes: int = 64
    seed: int = 0
    overrides: dict[int, dict] = field(default_factory=dict)
    replicas: int = 1
    autoscale: AutoscaleConfig | None = None
    faults: tuple = ()

    @property
    def is_elastic(self) -> bool:
        """True when any elastic feature is actually enabled."""
        return (
            self.replicas > 1
            or (self.autoscale is not None and self.autoscale.name != "none")
            or bool(self.faults)
        )

    def __post_init__(self) -> None:
        for name in ("num_shards", "virtual_nodes", "replicas"):
            value = getattr(self, name)
            _require(
                _is_int(value) and value > 0, f"fleet.{name} must be a positive integer"
            )
        _require(_is_int(self.seed), "fleet.seed must be an integer")
        _require(
            isinstance(self.router, str) and bool(self.router),
            "fleet.router must be a non-empty string",
        )
        _require(
            isinstance(self.faults, (list, tuple))
            and all(isinstance(fault, FaultConfig) for fault in self.faults),
            "fleet.faults must be a list of fault sections",
        )
        _require(
            isinstance(self.overrides, dict),
            "fleet.overrides must be a mapping from shard index to ServingConfig "
            "field patches",
        )
        for shard, patch in self.overrides.items():
            _require(
                isinstance(shard, int) and 0 <= shard < self.num_shards,
                f"fleet.overrides key {shard!r} is not a shard index in "
                f"[0, {self.num_shards})",
            )
            _require(
                isinstance(patch, dict),
                f"fleet.overrides[{shard}] must be a dict of ServingConfig fields",
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

    @classmethod
    def from_dict(cls, data: dict) -> "FleetConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        overrides = data.pop("overrides", None)
        if isinstance(overrides, dict):
            # JSON object keys are strings; config keys are shard indices
            # (a key that is no index stays as is for __post_init__ to name).
            overrides = {
                int(shard) if isinstance(shard, str) and shard.isdigit() else shard: patch
                for shard, patch in overrides.items()
            }
        if overrides is not None:
            data["overrides"] = overrides
        data["autoscale"] = _pop_section(data, "autoscale", AutoscaleConfig)
        faults = data.pop("faults", None)
        if isinstance(faults, (list, tuple)):
            for index, fault in enumerate(faults):
                _require(
                    isinstance(fault, (dict, FaultConfig)),
                    f"fleet.faults[{index}] must be a fault section mapping, "
                    f"got {type(fault).__name__}",
                )
            faults = tuple(
                fault if isinstance(fault, FaultConfig) else FaultConfig.from_dict(fault)
                for fault in faults
            )
        if faults is not None:
            data["faults"] = faults
        return cls(**data)


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
    num_requests: int = 100
    num_workers: int = 2
    max_batch_size: int = 4
    max_wait_s: float = 0.005
    scale_model_seconds: float = 0.0
    cache: CacheConfig | None = None
    batch_cost: BatchCostConfig = field(default_factory=BatchCostConfig)
    admission: AdmissionConfig | None = None
    prefetch: PrefetchConfig | None = None
    fleet: FleetConfig | None = None
    observability: ObservabilityConfig | None = None

    def __post_init__(self) -> None:
        _require(self.num_requests > 0, "serving.num_requests must be positive")
        _require(self.num_workers > 0, "serving.num_workers must be positive")
        _require(self.max_batch_size > 0, "serving.max_batch_size must be positive")
        _require(self.max_wait_s >= 0, "serving.max_wait_s must be non-negative")
        _require(
            self.scale_model_seconds >= 0,
            "serving.scale_model_seconds must be non-negative",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ServingConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        data["arrivals"] = _pop_section(data, "arrivals", ArrivalsConfig, ArrivalsConfig())
        data["cache"] = _pop_section(data, "cache", CacheConfig)
        data["batch_cost"] = _pop_section(
            data, "batch_cost", BatchCostConfig, BatchCostConfig()
        )
        data["admission"] = _pop_section(data, "admission", AdmissionConfig)
        data["prefetch"] = _pop_section(data, "prefetch", PrefetchConfig)
        data["fleet"] = _pop_section(data, "fleet", FleetConfig)
        data["observability"] = _pop_section(
            data, "observability", ObservabilityConfig
        )
        return cls(**data)

    def for_shard(self, shard: int) -> "ServingConfig":
        """This section specialized to one shard: fleet stripped, patch applied.

        The result is re-validated through :meth:`from_dict`, so a bad
        per-shard override fails with the same error a bad config file would.
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
        return ServingConfig.from_dict(data)


@dataclass(frozen=True)
class ObjectiveConfig(_DictMixin):
    """One sweep-analysis objective: a results-table column and a direction.

    ``column`` names a column of the combined sweep table (grid paths or
    ``report.*`` metrics, e.g. ``report.p99_latency_ms``); ``direction``
    says which way wins (``min`` or ``max``).  Pairs of objectives define
    the Pareto frontiers the analysis stage emits.
    """

    column: str
    direction: str = "min"

    def __post_init__(self) -> None:
        _require(bool(self.column), "objective.column must be non-empty")
        _require(
            self.direction in ("min", "max"),
            f"objective.direction must be 'min' or 'max', got {self.direction!r}",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectiveConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


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

    grid: dict[str, list] = field(default_factory=dict)
    workers: int = 1
    output_dir: str | None = None
    base_seed: int = 0
    objectives: tuple[ObjectiveConfig, ...] = ()

    def __post_init__(self) -> None:
        _require(isinstance(self.grid, dict), "sweep.grid must be a mapping")
        for path, values in self.grid.items():
            _require(
                isinstance(values, (list, tuple)) and len(values) > 0,
                f"sweep.grid[{path!r}] must be a non-empty list of values",
            )
        _require(self.workers >= 1, "sweep.workers must be >= 1")
        _require(
            all(isinstance(o, ObjectiveConfig) for o in self.objectives),
            "sweep.objectives must be objective sections",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        data = dict(data)
        known = {f.name for f in fields(cls)}
        if data and not (set(data) & known):
            # Legacy bare-grid form: every key is a dotted override path
            # (dots make collision with section field names impossible).
            return cls(grid={path: list(values) for path, values in data.items()})
        _reject_unknown_keys(cls, data)
        if "grid" in data:
            data["grid"] = {
                path: list(values) for path, values in data["grid"].items()
            }
        objectives = data.pop("objectives", None)
        if objectives is not None:
            data["objectives"] = tuple(
                entry
                if isinstance(entry, ObjectiveConfig)
                else ObjectiveConfig.from_dict(entry)
                for entry in objectives
            )
        return cls(**data)


@dataclass(frozen=True)
class ExperimentConfig(_DictMixin):
    """A named experiment (registry name) plus builder options."""

    name: str = "fig2"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require(bool(self.name), "experiment.name must be non-empty")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        return cls(**data)


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

    resolutions: tuple[int, ...] = (24, 32, 48)
    scale_resolution: int | None = None
    crop_ratio: float = 0.75
    store: StoreConfig = field(default_factory=StoreConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    ssim_thresholds: dict[int, float] = field(default_factory=dict)
    serving: ServingConfig | None = None
    experiment: ExperimentConfig | None = None
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self) -> None:
        _require(bool(self.resolutions), "resolutions must be non-empty")
        _require(
            all(resolution > 0 for resolution in self.resolutions),
            "resolutions must be positive",
        )
        _require(
            len(set(self.resolutions)) == len(self.resolutions),
            "resolutions must be unique",
        )
        _require(
            self.scale_resolution is None or self.scale_resolution in self.resolutions,
            f"scale_resolution {self.scale_resolution} is not one of the "
            f"candidate resolutions {tuple(sorted(self.resolutions))}",
        )
        _require(0.0 < self.crop_ratio <= 1.0, "crop_ratio must be in (0, 1]")
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
        for resolution, threshold in self.ssim_thresholds.items():
            _require(
                0.0 < threshold <= 1.0,
                f"ssim_thresholds[{resolution}] must be in (0, 1], got {threshold}",
            )
        if isinstance(self.sweep, dict):
            # Constructor convenience mirroring from_dict: a bare grid (or a
            # plain section dict) normalizes into a SweepConfig.
            object.__setattr__(self, "sweep", SweepConfig.from_dict(self.sweep))
        _require(
            isinstance(self.sweep, SweepConfig),
            "sweep must be a SweepConfig section (or a bare grid mapping)",
        )

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        data = dict(data)
        _reject_unknown_keys(cls, data)
        if "resolutions" in data:
            data["resolutions"] = tuple(data["resolutions"])
        data["store"] = _pop_section(data, "store", StoreConfig, StoreConfig())
        data["backbone"] = _pop_section(data, "backbone", BackboneConfig, BackboneConfig())
        data["policy"] = _pop_section(data, "policy", PolicyConfig, PolicyConfig())
        data["serving"] = _pop_section(data, "serving", ServingConfig)
        data["experiment"] = _pop_section(data, "experiment", ExperimentConfig)
        thresholds = data.pop("ssim_thresholds", None)
        if thresholds is not None:
            # JSON object keys are strings; config keys are resolutions.
            data["ssim_thresholds"] = {
                int(resolution): float(threshold)
                for resolution, threshold in thresholds.items()
            }
        data["sweep"] = _pop_section(data, "sweep", SweepConfig, SweepConfig())
        return cls(**data)

    def with_overrides(self, overrides: dict[str, Any]) -> "EngineConfig":
        """A new config with dotted-path overrides applied (used by sweeps)."""
        data = self.to_dict()
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
