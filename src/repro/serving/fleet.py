"""Multi-node sharded serving: consistent-hash routing over a server fleet.

One :class:`~repro.serving.server.InferenceServer` is one node; the paper's
progressive-resolution pipeline pays off at scale when many such nodes share
the request key space.  This module composes them:

* :class:`ConsistentHashRouter` — a seeded virtual-node hash ring over
  request keys, the fleet's one router.  Every key maps to exactly one
  live owner, ring balance improves with the virtual-node count, and
  adding or removing a shard remaps only the keys that ring segment owned
  (the classic consistent-hashing stability property, which is what keeps
  per-shard caches warm across fleet resizes).  With ``replicas`` R > 1 a
  key's group is its owner plus the next R - 1 distinct shards on the
  ring, and each request picks a member by a seeded hash;
* :class:`ShardedFleet` — partitions an open-loop arrival trace across N
  servers by routed key.  Each shard owns its own cache tier, batcher and
  worker pool and runs its sub-trace on its own simulated clock (shards
  share no state, so they serve concurrently in simulated time).  Replica
  groups, autoscaling and fault injection run through the same loop: it
  serves the trace in segments cut at each fault edge and autoscale
  epoch, and :mod:`repro.serving.elastic` applies the topology steps at
  the boundaries — a fleet with none of them serves one segment;
* :class:`FleetReport` — per-shard :class:`~repro.serving.metrics.SLOReport`
  objects plus fleet-wide aggregates (throughput over the whole fleet
  timeline, latency percentiles over every served request, merged cache
  stats, and a load-imbalance factor); :class:`ElasticFleetReport` adds
  topology and disruption columns when an elastic feature is configured.

This is *request* sharding for online serving.  It is unrelated to
:mod:`repro.core.sharding`, which shards *training data* across
cross-validated backbones (paper Fig 5) to produce unbiased scale-model
labels.

Everything here is deterministic: the ring is seeded (blake2b, not
Python's randomized ``hash``), shards run deterministic event loops, and
reports merge in shard order — so two runs with the same configuration
produce identical :class:`FleetReport` objects.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.api.reports import Report, report_type
from repro.api.schema import Positive, PositiveInt, checked
from repro.serving.arrivals import Request
from repro.serving.autoscale import AutoscalePolicy, NoAutoscale
from repro.serving.elastic import (
    COUNTERS,
    FLEET_DOWN,
    Topology,
    merge_cache_stats,
)
from repro.serving.faults import FaultInjector, sort_schedule
from repro.serving.metrics import RequestRecords, ServedRequest, SLOReport, build_report
from repro.serving.server import InferenceServer
from repro.serving.workload import ArrivalStream, in_time_order

_HASH_BITS = 64
_HASH_SPACE = 1 << _HASH_BITS


def _hash64(text: str) -> int:
    """Stable 64-bit hash (blake2b) — independent of PYTHONHASHSEED."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRouter:
    """A seeded consistent-hash ring with virtual nodes and replica groups.

    Each shard owns ``virtual_nodes`` points on a 64-bit ring; a key routes
    to the shard owning the first point at or after the key's hash
    (wrapping).  More virtual nodes smooth the arc lengths, bounding the
    load imbalance; removing a shard hands its arcs to the ring successors
    and leaves every other key's mapping untouched.

    A key's replica group is the first ``replicas`` distinct shards in ring
    order from its hash position, so groups keep the ring's minimal-remap
    property — membership changes only disturb groups that gained or lost
    the changed shard.  Per-request selection inside the group is a seeded
    blake2b hash of ``(key, request_id)``: hot keys spread across their
    whole group, cold keys still land mostly on one shard's cache, and a
    crashed shard's share flows to the survivors of each group.  With
    ``replicas=1`` the group is the key's single owner, :meth:`route`.
    """

    @checked
    def __init__(
        self,
        shard_ids: Iterable[Any],
        virtual_nodes: PositiveInt = 64,
        seed: int = 0,
        replicas: PositiveInt = 1,
    ) -> None:
        self.virtual_nodes = virtual_nodes
        self.seed = seed
        self.replicas = replicas
        self._shards: set[Any] = set()
        self._ring: list[tuple[int, Any]] = []
        self._points: list[int] = []
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # -- membership --------------------------------------------------------------
    @property
    def shard_ids(self) -> list[Any]:
        """Live shards, sorted by their string form (stable across runs)."""
        return sorted(self._shards, key=str)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def _node_positions(self, shard_id: Any) -> list[int]:
        return [
            _hash64(f"{self.seed}|node|{shard_id}|{replica}")
            for replica in range(self.virtual_nodes)
        ]

    def _rebuild(self) -> None:
        # Ties (astronomically rare on a 64-bit ring) break by shard name so
        # the ring order never depends on insertion history.
        self._ring.sort(key=lambda node: (node[0], str(node[1])))
        self._points = [position for position, _ in self._ring]

    def add_shard(self, shard_id: Any) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} is already on the ring")
        self._shards.add(shard_id)
        self._ring.extend(
            (position, shard_id) for position in self._node_positions(shard_id)
        )
        self._rebuild()

    def remove_shard(self, shard_id: Any) -> None:
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id!r} is not on the ring")
        self._shards.discard(shard_id)
        self._ring = [node for node in self._ring if node[1] != shard_id]
        self._rebuild()

    # -- routing -----------------------------------------------------------------
    def _start(self, key: str) -> int:
        """Ring index of the first point at or after ``key``'s hash (wrapping)."""
        index = bisect.bisect_left(self._points, _hash64(f"{self.seed}|key|{key}"))
        return index if index < len(self._ring) else 0

    def route(self, key: str) -> Any:
        """The live shard owning ``key`` (deterministic for a given ring)."""
        if not self._ring:
            raise ValueError("cannot route on an empty ring; add a shard first")
        return self._ring[self._start(key)][1]

    def replica_set(self, key: str) -> list[Any]:
        """The ``min(replicas, live)`` shards holding ``key``, in ring order.

        The first entry is :meth:`route`'s answer; an empty ring has none.
        """
        if not self._ring:
            return []
        size = min(self.replicas, len(self._shards))
        start = self._start(key)
        group: list[Any] = []
        for step in range(len(self._ring)):
            shard_id = self._ring[(start + step) % len(self._ring)][1]
            if shard_id not in group:
                group.append(shard_id)
                if len(group) == size:
                    break
        return group

    def route_request(self, key: str, request_id: int) -> Any:
        """Seeded per-request pick inside the key's replica group."""
        group = self.replica_set(key)
        if not group:
            raise ValueError("cannot route on an empty ring; add a shard first")
        pick = _hash64(f"{self.seed}|pick|{key}|{request_id}") % len(group)
        return group[pick]

    def shard_shares(self) -> dict[Any, float]:
        """Fraction of the hash space each live shard owns (sums to 1.0)."""
        if not self._ring:
            return {}
        shares: dict[Any, float] = {shard_id: 0.0 for shard_id in self._shards}
        previous = self._points[-1] - _HASH_SPACE  # wraparound arc
        for position, shard_id in self._ring:
            shares[shard_id] += (position - previous) / _HASH_SPACE
            previous = position
        return shares


def load_imbalance_factor(offered: Sequence[int]) -> float:
    """Busiest shard's offered load over the per-shard mean (guarded).

    Returns 1.0 — a perfectly even split — when nothing was offered at all,
    so a shard left with zero requests after a mid-run remap can never turn
    the report's imbalance column into a division by zero.
    """
    if not offered:
        return 1.0
    mean_offered = sum(offered) / len(offered)
    if mean_offered <= 0:
        return 1.0
    return max(offered) / mean_offered


# ---------------------------------------------------------------------------
# Fleet reports
# ---------------------------------------------------------------------------


@report_type("shard")
@dataclass(frozen=True)
class ShardReport(Report):
    """One shard's slice of a fleet run (``report`` is None for idle shards)."""

    shard_id: int
    num_requests: int
    report: SLOReport | None


@report_type("fleet")
@dataclass(frozen=True)
class FleetReport(Report):
    """Per-shard and fleet-wide SLOs for one sharded serving run.

    ``fleet`` aggregates every served request across shards: throughput over
    the fleet-wide timeline (first arrival to last completion anywhere),
    latency percentiles over the merged population, summed byte provenance
    and merged cache stats.  ``load_imbalance`` is the busiest shard's
    request count over the per-shard mean (1.0 is a perfectly even split).
    """

    num_shards: int
    shards: tuple[ShardReport, ...]
    fleet: SLOReport
    load_imbalance: float
    idle_shards: int

    # Convenience delegates so sweeps and tables can treat a FleetReport
    # like a single-server SLOReport.
    @property
    def num_requests(self) -> int:
        return self.fleet.num_requests

    @property
    def dropped_requests(self) -> int:
        return self.fleet.dropped_requests

    @property
    def drop_rate(self) -> float:
        return self.fleet.drop_rate

    @property
    def throughput_rps(self) -> float:
        return self.fleet.throughput_rps

    @property
    def p50_latency_ms(self) -> float:
        return self.fleet.p50_latency_ms

    @property
    def p95_latency_ms(self) -> float:
        return self.fleet.p95_latency_ms

    @property
    def p99_latency_ms(self) -> float:
        return self.fleet.p99_latency_ms

    @property
    def bytes_from_store(self) -> int:
        return self.fleet.bytes_from_store

    @property
    def relative_bytes_saved(self) -> float:
        return self.fleet.relative_bytes_saved

    def format(self) -> str:
        """Deterministic plain-text rendering: shard table + fleet totals."""
        lines = [
            f"shards                 {self.num_shards}"
            + (f" ({self.idle_shards} idle)" if self.idle_shards else ""),
            f"load imbalance         {self.load_imbalance:.2f}x (busiest/mean requests)",
            "per-shard SLOs         id  reqs   req/s   p50 ms   p99 ms   store KB   hit %",
        ]
        for shard in self.shards:
            if shard.report is None:
                lines.append(f"                       {shard.shard_id:>2}     0    idle")
                continue
            report = shard.report
            if report.num_requests == 0:
                lines.append(
                    f"                       {shard.shard_id:>2}     0    "
                    f"all {report.dropped_requests} dropped"
                )
                continue
            hit = (
                f"{100.0 * report.cache_hit_rate:7.1f}"
                if report.cache_hit_rate is not None
                else "      -"
            )
            lines.append(
                f"                       {shard.shard_id:>2} {report.num_requests:>5} "
                f"{report.throughput_rps:>7.1f} {report.p50_latency_ms:>8.2f} "
                f"{report.p99_latency_ms:>8.2f} {report.bytes_from_store / 1e3:>10.1f} {hit}"
            )
        lines.append("fleet-wide:")
        lines.append(self.fleet.format())
        return "\n".join(lines)


@report_type("elastic-fleet")
@dataclass(frozen=True)
class ElasticFleetReport(FleetReport):
    """A :class:`FleetReport` plus elasticity columns.

    The inherited fields aggregate exactly as for any fleet (per ever-live
    shard, fleet-wide merge, offered-load imbalance) — ``num_shards``
    counts every shard that was ever live.  The extra columns describe the
    run's dynamics: topology churn (``shards_added``/``shards_removed``),
    chaos impact (``crashes``, ``recoveries``, ``crash_rerouted_requests``,
    ``mean_time_to_recover_s``), the remap re-warm bill (``rewarm_bytes``),
    and the SLO split between requests arriving inside a fault window — a
    shard's downtime or degraded-bandwidth span — (``disrupted_p99_ms``)
    and outside every window (``steady_p99_ms``); the split percentiles are
    ``None`` when their population is empty, and ``mean_time_to_recover_s``
    is ``None`` when nothing recovered.
    """

    replicas: int = 1
    final_num_shards: int = 0
    shards_added: int = 0
    shards_removed: int = 0
    crashes: int = 0
    recoveries: int = 0
    crash_rerouted_requests: int = 0
    rewarm_bytes: int = 0
    mean_time_to_recover_s: float | None = None
    disrupted_p99_ms: float | None = None
    steady_p99_ms: float | None = None

    def format(self) -> str:
        """An elasticity block on top of the fleet rendering."""
        mttr = (
            f"{self.mean_time_to_recover_s * 1e3:.2f} ms"
            if self.mean_time_to_recover_s is not None
            else "-"
        )
        disrupted = (
            f"{self.disrupted_p99_ms:.2f}" if self.disrupted_p99_ms is not None else "-"
        )
        steady = f"{self.steady_p99_ms:.2f}" if self.steady_p99_ms is not None else "-"
        lines = [
            f"replicas               {self.replicas}",
            f"final shards           {self.final_num_shards} "
            f"(+{self.shards_added}/-{self.shards_removed} autoscale)",
            f"crashes                {self.crashes} "
            f"({self.recoveries} recovered, mttr {mttr})",
            f"crash re-routed        {self.crash_rerouted_requests}",
            f"rewarm bytes           {self.rewarm_bytes}",
            f"p99 disrupted/steady   {disrupted} / {steady} ms",
        ]
        return "\n".join(lines) + "\n" + super().format()


def _p99_ms(latencies_ms: np.ndarray) -> float | None:
    return float(np.percentile(latencies_ms, 99)) if len(latencies_ms) else None


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


class ShardedFleet:
    """Serve an open-loop trace across a fleet of independent inference servers.

    ``servers`` are the initial shards, identified by their index; the
    router must cover exactly those indices.  Each shard serves its routed
    sub-trace on its own event loop (shards share the store's *contents*
    but nothing mutable), and the per-shard tallies fold into one
    :class:`FleetReport`.  A single-shard fleet is behaviourally identical
    to calling ``servers[0].run(trace)`` directly.

    The fleet becomes elastic when any of these is configured: a router
    with ``replicas`` > 1 (each request then picks a shard inside its key's
    replica group), an ``autoscale`` policy (evaluated every
    ``autoscale_interval_s`` of simulated time; the fleet must start with
    ``min_shards`` to ``max_shards`` servers, and each delta is clamped
    only toward the bound on its own side), or fault
    ``injectors``.  ``server_factory`` builds one fresh server per
    shard id for scale-outs (ids increase and are never reused) and for
    post-crash recoveries, both with a cold cache.  An elastic run returns
    an :class:`ElasticFleetReport`; every other run returns a plain
    :class:`FleetReport`.

    After :meth:`run`, :attr:`last_records` (all completions, shard by
    shard), :attr:`last_served` (the same as id-sorted objects),
    :attr:`last_dropped` (``(request, reason)`` pairs) and
    :attr:`last_events` (topology events in order) expose the raw outcome
    of every arrival.
    """

    @checked
    def __init__(
        self,
        servers: Sequence[InferenceServer],
        router: ConsistentHashRouter | None = None,
        *,
        server_factory: Callable[[int], InferenceServer] | None = None,
        autoscale: AutoscalePolicy | None = None,
        autoscale_interval_s: Positive = 0.05,
        min_shards: PositiveInt = 1,
        max_shards: PositiveInt = 16,
        injectors: Sequence[FaultInjector] = (),
    ) -> None:
        if not servers:
            raise ValueError("a fleet needs at least one server")
        self.servers = list(servers)
        self.router = router or ConsistentHashRouter(range(len(self.servers)))
        expected = set(range(len(self.servers)))
        if set(self.router.shard_ids) != expected:
            raise ValueError(
                f"router shards {self.router.shard_ids} do not match the "
                f"server indices {sorted(expected)}"
            )
        # The fleet-wide report prices all bytes with one bandwidth model, so
        # a heterogeneous fleet would make the fleet row contradict the
        # per-shard rows it aggregates.
        bandwidths = {server.bandwidth for server in self.servers}
        if len(bandwidths) > 1:
            raise ValueError(
                "fleet servers must share one StorageBandwidthModel; "
                f"got {len(bandwidths)} distinct models"
            )
        if max_shards < min_shards:
            raise ValueError("need min_shards <= max_shards")
        if isinstance(autoscale, NoAutoscale):
            autoscale = None  # the no-op policy never changes anything
        if autoscale is not None and not min_shards <= len(self.servers) <= max_shards:
            raise ValueError(
                f"an autoscaled fleet must start with min_shards={min_shards} to "
                f"max_shards={max_shards} servers; got {len(self.servers)}"
            )
        if (autoscale is not None or injectors) and server_factory is None:
            raise ValueError(
                "autoscaling and fault injection need a server_factory to "
                "build scale-outs and recovered shards"
            )
        self.server_factory = server_factory
        self.autoscale = autoscale
        self.autoscale_interval_s = autoscale_interval_s
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.injectors = list(injectors)
        self.last_records = RequestRecords()
        self.last_dropped: list[tuple[Request, str]] = []
        self.last_events: list = []
        # The merged per-shard telemetry of the most recent run() with a
        # telemetry_factory (a repro.obs.exporters.TelemetryPipeline).
        self.last_telemetry = None

    @property
    def num_shards(self) -> int:
        return len(self.servers)

    @property
    def is_elastic(self) -> bool:
        """True when replicas, an autoscaler or a fault injector is configured."""
        return (
            self.router.replicas > 1 or self.autoscale is not None or bool(self.injectors)
        )

    @property
    def last_served(self) -> list[ServedRequest]:
        """The most recent run's completions as objects, in request-id order."""
        return sorted(self.last_records.materialize(), key=lambda r: r.request_id)

    def partition(self, stream: ArrivalStream) -> dict[int, ArrivalStream]:
        """Split a trace by routed shard, preserving arrival order per shard.

        Returns one sub-stream per live shard, keyed by shard id in id
        order.  With one replica, routing is a pure function of the key and
        is computed once per distinct key; a replica group picks per
        request.  Sub-streams are columnar, so each shard's event loop
        merges them through its arrival cursor.
        """
        router = self.router
        if router.replicas == 1:
            route_of = {key: router.route(key) for key in dict.fromkeys(stream.keys)}
            shards = (route_of[key] for key in stream.keys)
        else:
            shards = (
                router.route_request(key, int(request_id))
                for key, request_id in zip(stream.keys, stream.request_ids)
            )
        shard_of = np.fromiter(shards, dtype=np.int64, count=len(stream))
        return {
            shard_id: stream.take(np.flatnonzero(shard_of == shard_id))
            for shard_id in sorted(router.shard_ids)
        }

    # -- the run -----------------------------------------------------------------
    def run(self, trace: ArrivalStream, telemetry_factory=None) -> FleetReport:
        """Serve the trace across the fleet and fold the shard tallies.

        The trace is served in segments cut at every fault edge and
        autoscale epoch (a fleet with neither serves one segment): each
        live shard serves its routed slice of a segment through
        ``server.run``, then the boundary's topology steps apply.

        ``telemetry_factory``, when given, is a zero-argument callable
        producing one fresh :class:`~repro.obs.exporters.TelemetryPipeline`
        per active shard; each pipeline observes its shard's runs, and the
        shard-wise merge (raw histograms and span sets, not derived stats —
        percentiles cannot merge post hoc) lands in :attr:`last_telemetry`.
        Shards share one simulated timeline, so merged windows align by
        index and fleet-wide per-window percentiles are true merges.
        """
        pending = in_time_order(trace)
        if not len(pending):
            raise ValueError("cannot serve an empty trace")
        horizon = float(pending.times[-1])
        topology = Topology(self.servers, self.router, self.server_factory)
        faults = sort_schedule(
            event
            for injector in self.injectors
            for event in injector.schedule(horizon, self.num_shards)
        )
        epochs: set[float] = set()
        if self.autoscale is not None:
            self.autoscale.reset()
            count = 1
            while count * self.autoscale_interval_s < horizon:
                epochs.add(count * self.autoscale_interval_s)
                count += 1
        self.last_dropped = []
        pipelines: dict[int, Any] = {}
        cursor = 0

        def serve_until(until: float) -> None:
            """Route and serve every pending arrival before ``until``."""
            nonlocal cursor
            if not topology.live:
                return  # nothing live: arrivals wait for a recovery
            end = int(np.searchsorted(pending.times, until, side="left"))
            if end <= cursor:
                return
            segment = pending
            if (cursor, end) != (0, len(pending)):
                segment = ArrivalStream(
                    pending.times[cursor:end],
                    pending.keys[cursor:end],
                    pending.request_ids[cursor:end],
                )
            cursor = end
            topology.seen_keys.update(segment.keys)
            topology.routed += len(segment)
            for shard_id, sub_trace in self.partition(segment).items():
                if not len(sub_trace):
                    continue
                if telemetry_factory is not None and shard_id not in pipelines:
                    pipelines[shard_id] = telemetry_factory()
                state = topology.live[shard_id]
                state.serve(sub_trace, pipelines.get(shard_id))
                self.last_dropped.extend(state.server.last_dropped)

        fault_index = 0
        for boundary in sorted({event.time for event in faults} | epochs):
            serve_until(boundary)
            while fault_index < len(faults) and faults[fault_index].time <= boundary:
                event = faults[fault_index]
                fault_index += 1
                doomed = topology.apply(event)
                if doomed:
                    # Re-inject the failed work at the crash time, in id
                    # order, after the arrivals still pending at that time.
                    doomed_ids = doomed.column("request_ids")
                    by_id = np.argsort(doomed_ids, kind="stable")
                    times = np.concatenate(
                        [pending.times[cursor:], np.full(len(doomed), event.time)]
                    )
                    ids = np.concatenate([pending.request_ids[cursor:], doomed_ids[by_id]])
                    keys = pending.keys[cursor:] + [doomed.keys[index] for index in by_id]
                    pending = in_time_order(ArrivalStream(times, keys, ids))
                    cursor = 0
            if boundary in epochs:
                topology.autoscale_epoch(
                    boundary, self.autoscale, self.min_shards, self.max_shards
                )
        serve_until(math.inf)
        # Whatever is still pending never found a live shard: the fleet is down.
        fleet_down = len(pending) - cursor
        self.last_dropped.extend(
            (Request(int(request_id), key, float(time)), FLEET_DOWN)
            for request_id, key, time in zip(
                pending.request_ids[cursor:], pending.keys[cursor:], pending.times[cursor:]
            )
        )
        self.last_events = topology.events
        self.last_telemetry = None
        if pipelines:
            merged_telemetry, *rest = pipelines.values()
            for pipeline in rest:
                merged_telemetry.merge(pipeline)
            self.last_telemetry = merged_telemetry
        return self._fold(topology, fleet_down)

    # -- reporting ---------------------------------------------------------------
    def _fold(self, topology: Topology, fleet_down: int) -> FleetReport:
        """Merge every ever-live shard's tallies into the fleet report."""
        states = sorted(topology.states().items())
        shard_reports: list[ShardReport] = []
        # build_report sorts by request id, so concatenating the shards'
        # records in shard order yields the fleet-wide statistics directly.
        merged = RequestRecords()
        for shard_id, state in states:
            merged.extend(state.served)
            report = state.report()
            shard_reports.append(
                ShardReport(shard_id, report.num_requests if report else 0, report)
            )
        active = [state for _, state in states if state.offered]
        counts = {name: sum(state.counts[name] for state in active) for name in COUNTERS}
        counts["dropped_requests"] += fleet_down
        fleet = build_report(
            merged,
            bandwidth=states[0][1].base_bandwidth,  # shard 0 is always among them
            store_requests=sum(state.store_requests for state in active),
            cache_stats=merge_cache_stats(
                [stats for state in active for stats in state.cache_stats]
            ),
            **counts,
        )
        self.last_records = merged
        # Imbalance is over *offered* (routed) per-shard load: what the
        # router dealt each shard, before any admission policy shed work.
        offered = [state.offered for _, state in states]
        columns = dict(
            num_shards=len(states),
            shards=tuple(shard_reports),
            fleet=fleet,
            load_imbalance=load_imbalance_factor(offered),
            idle_shards=sum(1 for count in offered if count == 0),
        )
        if not self.is_elastic:
            return FleetReport(**columns)

        arrivals = merged.column("arrival_times")
        latencies_ms = 1e3 * (merged.column("completion_times") - arrivals)
        disrupted = np.zeros(len(merged), dtype=bool)
        for start, end in topology.fault_windows:
            disrupted |= (start <= arrivals) & (arrivals <= end)
        downtimes = topology.downtimes
        return ElasticFleetReport(
            **columns,
            replicas=self.router.replicas,
            final_num_shards=len(topology.live),
            shards_added=topology.shards_added,
            shards_removed=topology.shards_removed,
            crashes=topology.crashes,
            recoveries=topology.recoveries,
            crash_rerouted_requests=topology.crash_rerouted,
            rewarm_bytes=topology.rewarm_bytes,
            mean_time_to_recover_s=sum(downtimes) / len(downtimes) if downtimes else None,
            disrupted_p99_ms=_p99_ms(latencies_ms[disrupted]),
            steady_p99_ms=_p99_ms(latencies_ms[~disrupted]),
        )
