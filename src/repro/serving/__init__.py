"""Online serving: a deterministic discrete-event inference simulator.

The paper's pipeline saves bytes and FLOPs *per request*; this package
answers what that buys an online service under concurrent load.  It
composes every existing layer under one simulated clock:

* :mod:`repro.serving.arrivals` — seeded Poisson, bursty ON/OFF, and
  closed-loop request processes over :class:`~repro.storage.store.ImageStore`
  keys;
* :mod:`repro.serving.workload` — workload realism: empirical-trace replay
  (time-warp, loop/truncate) and diurnal sinusoid-plus-envelope rate
  modulation of any open-loop base process;
* :mod:`repro.serving.traces` — the on-disk trace schema (JSONL/CSV), its
  validating loader/saver, and the :class:`TraceRecorder` observer that
  exports any run back to the schema (record → replay round-trips);
* :mod:`repro.serving.popularity` — pluggable key-popularity models
  (Zipf, Zipf–Mandelbrot) with an MLE :func:`fit_zipf` calibrated against
  bundled published CDN object-popularity CDFs;
* :mod:`repro.serving.cache` — a scan-granular LRU cache tier in front of
  the store (a hit on a shorter prefix pays only the incremental scans);
* :mod:`repro.serving.batcher` — dynamic size-or-deadline batching by
  resolution, priced by :mod:`repro.hwsim.latency`;
* :mod:`repro.serving.policies` — a load-adaptive wrapper that degrades
  resolution choices when the serving queue is deep;
* :mod:`repro.serving.events` — the frozen lifecycle-event hierarchy the
  event loop narrates itself with (arrival → cache probe → admission/drop →
  batch flush → completion) and the observer interface;
* :mod:`repro.serving.control` — the pluggable control plane: admission
  and prefetch policy protocols with no-op defaults, an EWMA queue-depth
  admission controller with deadlines and drop accounting, and a seeded
  next-scan-level prefetcher for OFF phases of bursty traffic;
* :mod:`repro.serving.server` — the event loop: arrivals → admission →
  cache/store reads → scale-model resolution choice → batched backbone
  execution on a bounded worker pool;
* :mod:`repro.serving.metrics` — per-run SLO reports (throughput, latency
  percentiles, cache effectiveness, bytes and dollars saved);
* :mod:`repro.serving.fleet` — multi-node composition: a seeded
  consistent-hash router partitions the request key space across several
  servers (each with its own cache tier and worker pool) and merges their
  reports into per-shard + fleet-wide SLOs; replica groups, autoscaling
  (:mod:`repro.serving.autoscale`) and fault injection
  (:mod:`repro.serving.faults`) run through the same fleet loop, whose
  topology steps live in :mod:`repro.serving.elastic`.

Runs are fully deterministic under a fixed seed: identical configurations
produce identical :class:`~repro.serving.metrics.SLOReport` objects.
"""

from repro.serving.arrivals import (
    ArrivalProcess,
    ClosedLoopClients,
    OnOffArrivals,
    PoissonArrivals,
    Request,
)
from repro.serving.batcher import (
    BatchCostModel,
    BatchTimer,
    DynamicBatcher,
    HwSimBatchCost,
    LinearBatchCost,
)
from repro.serving.cache import CacheRead, CacheStats, ScanCache
from repro.serving.control import (
    AdmissionDecision,
    AdmissionPolicy,
    AlwaysAdmit,
    EwmaAdmissionController,
    NextScanPrefetcher,
    NoPrefetch,
    PrefetchAction,
    PrefetchPolicy,
)
from repro.serving.events import (
    BatchFlushed,
    CacheProbed,
    EventLog,
    PrefetchIssued,
    RequestAdmitted,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    ServerEvent,
    ServerObserver,
)
from repro.serving.fleet import (
    ConsistentHashRouter,
    FleetReport,
    ShardedFleet,
    ShardReport,
)
from repro.serving.metrics import ServedRequest, SLOReport, build_report
from repro.serving.policies import LoadAdaptiveResolutionPolicy
from repro.serving.popularity import (
    CalibratedPopularity,
    PopularityModel,
    UniformPopularity,
    ZipfMandelbrotPopularity,
    ZipfPopularity,
    fit_zipf,
)
from repro.serving.server import InferenceServer, ServerConfig
from repro.serving.traces import (
    TraceFormatError,
    TraceRecord,
    TraceRecorder,
    load_trace,
    save_trace,
)
from repro.serving.workload import DiurnalArrivals, TraceReplayArrivals

__all__ = [
    "Request",
    "ArrivalProcess",
    "PoissonArrivals",
    "OnOffArrivals",
    "ClosedLoopClients",
    "TraceReplayArrivals",
    "DiurnalArrivals",
    "TraceRecord",
    "TraceRecorder",
    "TraceFormatError",
    "load_trace",
    "save_trace",
    "PopularityModel",
    "UniformPopularity",
    "ZipfPopularity",
    "ZipfMandelbrotPopularity",
    "CalibratedPopularity",
    "fit_zipf",
    "ScanCache",
    "CacheStats",
    "CacheRead",
    "DynamicBatcher",
    "BatchTimer",
    "BatchCostModel",
    "LinearBatchCost",
    "HwSimBatchCost",
    "LoadAdaptiveResolutionPolicy",
    "ServerEvent",
    "RequestArrived",
    "CacheProbed",
    "RequestAdmitted",
    "RequestDropped",
    "PrefetchIssued",
    "BatchFlushed",
    "RequestCompleted",
    "ServerObserver",
    "EventLog",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "EwmaAdmissionController",
    "PrefetchAction",
    "PrefetchPolicy",
    "NoPrefetch",
    "NextScanPrefetcher",
    "InferenceServer",
    "ServerConfig",
    "ConsistentHashRouter",
    "ShardedFleet",
    "ShardReport",
    "FleetReport",
    "ServedRequest",
    "SLOReport",
    "build_report",
]
