"""The pluggable serving control plane: admission and prefetch policies.

The event loop in :mod:`repro.serving.server` makes three kinds of control
decisions; each lives behind its own protocol so scenarios swap strategies
by registry name instead of patching the loop:

* **admission** — :class:`AdmissionPolicy` decides, per arrival, whether
  the request enters the pipeline or is dropped (with a reason that feeds
  drop accounting).  The default :class:`AlwaysAdmit` never drops, which
  reproduces the pre-control-plane server byte-for-byte.
* **prefetch** — :class:`PrefetchPolicy` proposes cache top-ups during
  idle gaps in the arrival stream.  The default :class:`NoPrefetch` keeps
  the cache tier purely demand-fill.
* **resolution degradation** — already pluggable via
  :class:`~repro.serving.policies.LoadAdaptiveResolutionPolicy` in the
  :data:`~repro.api.registry.RESOLUTION_POLICIES` registry.

Both policy protocols extend :class:`~repro.serving.events.ServerObserver`:
the server feeds every policy the full event stream, so stateful
controllers (EWMA smoothing, prefetch hit accounting) update themselves
from the same events any passive observer sees.

Two real controllers prove the API:

* :class:`EwmaAdmissionController` — admission on EWMA-smoothed queue
  depth with optional per-request latency deadlines and per-reason drop
  tallies (ROADMAP: "smarter admission/degradation control");
* :class:`NextScanPrefetcher` — a seeded prefetcher that tops up resident
  cache prefixes to the next calibrated scan level during OFF phases of
  bursty traffic, with hit and wasted-byte accounting (ROADMAP:
  "prefetching policies").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.api.registry import ADMISSION_POLICIES, PREFETCH_POLICIES
from repro.api.schema import Fraction, Positive, PositiveInt, checked
from repro.serving.arrivals import Request
from repro.serving.events import (
    CacheProbed,
    PrefetchIssued,
    RequestCompleted,
    ServerEvent,
    ServerObserver,
)

if TYPE_CHECKING:  # the server imports this module; avoid the cycle at runtime
    from repro.serving.server import InferenceServer


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check; ``reason`` names the drop cause."""

    admitted: bool
    reason: str = "admitted"

    @staticmethod
    def admit() -> "AdmissionDecision":
        return AdmissionDecision(admitted=True)

    @staticmethod
    def drop(reason: str) -> "AdmissionDecision":
        return AdmissionDecision(admitted=False, reason=reason)


class AdmissionPolicy(ServerObserver):
    """Interface: decide per arrival whether the request enters the pipeline.

    The server tallies drops authoritatively from the returned decisions
    (``SLOReport.dropped_requests`` never depends on policy bookkeeping).
    Implementations may keep richer tallies of their own (per-reason
    counts, smoothing state) and must zero them in :meth:`reset_counters`,
    which the server calls once per run; they may also observe the event
    stream to maintain state between decisions.
    """

    dropped_requests: int = 0

    def admit(self, request: Request, now: float, queue_depth: int) -> AdmissionDecision:
        raise NotImplementedError

    def reset_counters(self) -> None:
        """Zero per-run tallies and smoothing state (called once per run)."""

    def bind_metrics(self, registry) -> None:
        """Receive the telemetry :class:`~repro.obs.metrics.MetricsRegistry`.

        Called by the server when a telemetry pipeline attaches (and with
        ``None`` when it detaches).  Policies may publish their internal
        state as gauges and read windowed signals back via
        ``registry.latest(name)`` — the hook future autoscaling policies
        build on.  The default ignores the registry.
        """


@ADMISSION_POLICIES.register("always-admit")
class AlwaysAdmit(AdmissionPolicy):
    """The no-op default: every request is admitted (the historical behaviour)."""

    def admit(self, request: Request, now: float, queue_depth: int) -> AdmissionDecision:
        return AdmissionDecision.admit()


@ADMISSION_POLICIES.register("ewma")
class EwmaAdmissionController(AdmissionPolicy):
    """Admission on EWMA-smoothed queue depth with optional latency deadlines.

    The instantaneous queue depth the load-adaptive resolution policy reacts
    to is noisy under bursty traffic; this controller smooths it
    (``s ← α·depth + (1-α)·s``, seeded with the first observation) and
    drops arrivals while the smoothed depth exceeds ``depth_threshold``.

    With ``deadline_s`` set, each request also carries an implicit latency
    deadline: the controller tracks an EWMA of completed-request latencies
    (via :class:`~repro.serving.events.RequestCompleted` events, weight
    ``latency_alpha``) and drops arrivals whose expected latency already
    exceeds the deadline — shedding work that would miss its SLO anyway,
    which is cheaper than serving it late.  The deadline check only applies
    while work is queued: an idle server always admits, so its completions
    keep refreshing the latency EWMA (otherwise a congested estimate could
    freeze above the deadline and lock out all traffic forever).

    Drops are tallied overall and per reason (``"queue-depth"`` /
    ``"deadline"``).
    """

    @checked
    def __init__(
        self,
        alpha: Fraction = 0.3,
        depth_threshold: Positive = 16.0,
        deadline_s: Positive | None = None,
        latency_alpha: Fraction = 0.2,
    ) -> None:
        self.alpha = alpha
        self.depth_threshold = depth_threshold
        self.deadline_s = deadline_s
        self.latency_alpha = latency_alpha
        self.smoothed_depth: float | None = None
        self.smoothed_latency_s: float | None = None
        self.admitted_requests = 0
        self.dropped_requests = 0
        self.drops_by_reason: dict[str, int] = {}
        self._metrics = None
        self._now = 0.0

    def bind_metrics(self, registry) -> None:
        self._metrics = registry

    def _observe_depth(self, depth: int) -> float:
        if self.smoothed_depth is None:
            self.smoothed_depth = float(depth)
        else:
            self.smoothed_depth = (
                self.alpha * depth + (1.0 - self.alpha) * self.smoothed_depth
            )
        if self._metrics is not None:
            # Publish the controller's internal estimate so telemetry (and
            # tests) can compare it against the windowed queue-depth gauge.
            self._metrics.set_gauge(
                "admission.smoothed_queue_depth", self._now, self.smoothed_depth
            )
        return self.smoothed_depth

    def _drop(self, reason: str) -> AdmissionDecision:
        self.dropped_requests += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        return AdmissionDecision.drop(reason)

    def admit(self, request: Request, now: float, queue_depth: int) -> AdmissionDecision:
        self._now = now
        smoothed = self._observe_depth(queue_depth)
        if smoothed > self.depth_threshold:
            return self._drop("queue-depth")
        if (
            self.deadline_s is not None
            and queue_depth > 0
            and self.smoothed_latency_s is not None
            and self.smoothed_latency_s > self.deadline_s
        ):
            return self._drop("deadline")
        self.admitted_requests += 1
        return AdmissionDecision.admit()

    def on_event(self, event: ServerEvent) -> None:
        if isinstance(event, RequestCompleted):
            latency = event.record.latency
            if self.smoothed_latency_s is None:
                self.smoothed_latency_s = latency
            else:
                self.smoothed_latency_s = (
                    self.latency_alpha * latency
                    + (1.0 - self.latency_alpha) * self.smoothed_latency_s
                )

    def reset_counters(self) -> None:
        self.smoothed_depth = None
        self.smoothed_latency_s = None
        self.admitted_requests = 0
        self.dropped_requests = 0
        self.drops_by_reason = {}
        self._now = 0.0


# ---------------------------------------------------------------------------
# Prefetch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrefetchAction:
    """One proposed cache top-up: extend ``key``'s prefix to ``num_scans``."""

    key: str
    num_scans: int


class PrefetchPolicy(ServerObserver):
    """Interface: propose cache top-ups when the arrival stream goes idle.

    The server calls :meth:`plan` while processing each arrival, passing the
    idle gap since the previous one; returned actions are executed against
    the cache tier *before* that arrival is admitted (the fetches happen
    during the gap, so they cost bytes but no request latency).  The server
    emits one :class:`~repro.serving.events.PrefetchIssued` event per
    executed action, which is how implementations account their own bytes.
    """

    prefetched_bytes: int = 0
    prefetch_hits: int = 0
    wasted_bytes: int = 0

    def plan(
        self, now: float, idle_s: float, server: "InferenceServer"
    ) -> list[PrefetchAction]:
        return []

    def reset_counters(self) -> None:
        """Zero per-run tallies (called once per run)."""


@PREFETCH_POLICIES.register("none")
class NoPrefetch(PrefetchPolicy):
    """The no-op default: the cache tier stays purely demand-fill."""


@PREFETCH_POLICIES.register("next-scan")
class NextScanPrefetcher(PrefetchPolicy):
    """Top up resident cache prefixes to the next calibrated scan level.

    Bursty (ON/OFF) traffic leaves the storage path idle between bursts;
    this policy spends those gaps upgrading what the cache already holds.
    When an idle gap of at least ``idle_threshold_s`` precedes an arrival,
    it picks up to ``max_keys_per_gap`` resident keys (seeded shuffle, so
    runs are deterministic) whose cached prefix sits below the highest
    calibrated scan level, and extends each to the *next* calibrated level
    — the next prefix length the read policy could actually ask for, rather
    than blindly fetching whole objects.

    Accounting distinguishes bytes that paid off from bytes that did not:
    a *hit* is a later cache probe that found a prefetched key resident
    (its outstanding bytes count as used); ``wasted_bytes`` is whatever
    was prefetched but never probed before the run ended.
    """

    @checked
    def __init__(
        self,
        idle_threshold_s: Positive = 0.05,
        max_keys_per_gap: PositiveInt = 4,
        seed: int = 0,
    ) -> None:
        self.idle_threshold_s = idle_threshold_s
        self.max_keys_per_gap = max_keys_per_gap
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.prefetches_issued = 0
        self.prefetched_bytes = 0
        self.prefetch_hits = 0
        self.used_bytes = 0
        self._outstanding: dict[str, int] = {}

    @property
    def wasted_bytes(self) -> int:
        """Prefetched bytes never touched by a later cache probe."""
        return self.prefetched_bytes - self.used_bytes

    def _next_level(self, server: "InferenceServer", key: str, resident: int) -> int | None:
        """The smallest calibrated scan level strictly above ``resident``."""
        encoded = server.store.metadata(key).encoded
        levels = sorted(
            {
                server.read_policy.scans_for(encoded, resolution, key=key)
                for resolution in server.resolutions
            }
        )
        for level in levels:
            if level > resident:
                return level
        return None

    def plan(
        self, now: float, idle_s: float, server: "InferenceServer"
    ) -> list[PrefetchAction]:
        if server.cache is None or idle_s < self.idle_threshold_s:
            return []
        keys = server.cache.lru_keys()
        if not keys:
            return []
        # Shuffle first, compute scan levels lazily: with a large warm cache
        # this stops after max_keys_per_gap upgradable keys instead of
        # pricing the next level of every resident entry per gap.
        actions: list[PrefetchAction] = []
        for index in self._rng.permutation(len(keys)):
            key = keys[int(index)]
            target = self._next_level(server, key, server.cache.cached_scans(key))
            if target is not None:
                actions.append(PrefetchAction(key=key, num_scans=target))
                if len(actions) >= self.max_keys_per_gap:
                    break
        return actions

    def on_event(self, event: ServerEvent) -> None:
        if isinstance(event, PrefetchIssued):
            self.prefetches_issued += 1
            self.prefetched_bytes += event.bytes_fetched
            self._outstanding[event.key] = (
                self._outstanding.get(event.key, 0) + event.bytes_fetched
            )
        elif isinstance(event, CacheProbed):
            outstanding = self._outstanding.pop(event.request.key, None)
            if outstanding is not None and event.resident_scans > 0:
                self.prefetch_hits += 1
                self.used_bytes += outstanding

    def reset_counters(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self.prefetches_issued = 0
        self.prefetched_bytes = 0
        self.prefetch_hits = 0
        self.used_bytes = 0
        self._outstanding = {}
