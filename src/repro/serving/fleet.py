"""Multi-node sharded serving: consistent-hash routing over a server fleet.

One :class:`~repro.serving.server.InferenceServer` is one node; the paper's
progressive-resolution pipeline pays off at scale when many such nodes share
the request key space.  This module composes them:

* :class:`ConsistentHashRouter` — a seeded virtual-node hash ring over
  request keys.  Every key maps to exactly one live shard, ring balance
  improves with the virtual-node count, and adding or removing a shard
  remaps only the keys that ring segment owned (the classic consistent-
  hashing stability property, which is what keeps per-shard caches warm
  across fleet resizes);
* :class:`ShardedFleet` — partitions an open-loop arrival trace across N
  servers by routed key.  Each shard owns its own cache tier, batcher and
  worker pool and runs its sub-trace on its own simulated clock (shards
  share no state, so they serve concurrently in simulated time);
* :class:`FleetReport` — per-shard :class:`~repro.serving.metrics.SLOReport`
  objects plus fleet-wide aggregates (throughput over the whole fleet
  timeline, latency percentiles over every served request, merged cache
  stats, and a load-imbalance factor).

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
from dataclasses import dataclass, fields
from typing import Any, Iterable, Sequence

import numpy as np

from repro.api.registry import ROUTERS
from repro.api.reports import Report, report_type
from repro.serving.arrivals import Request
from repro.serving.cache import CacheStats
from repro.serving.metrics import RequestRecords, SLOReport, build_report
from repro.serving.server import InferenceServer
from repro.serving.workload import ArrivalStream

_HASH_BITS = 64
_HASH_SPACE = 1 << _HASH_BITS


def _hash64(text: str) -> int:
    """Stable 64-bit hash (blake2b) — independent of PYTHONHASHSEED."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@ROUTERS.register("consistent-hash")
class ConsistentHashRouter:
    """A seeded consistent-hash ring with virtual nodes.

    Each shard owns ``virtual_nodes`` points on a 64-bit ring; a key routes
    to the shard owning the first point at or after the key's hash
    (wrapping).  More virtual nodes smooth the arc lengths, bounding the
    load imbalance; removing a shard hands its arcs to the ring successors
    and leaves every other key's mapping untouched.
    """

    def __init__(
        self,
        shard_ids: Iterable[Any],
        virtual_nodes: int = 64,
        seed: int = 0,
    ) -> None:
        if virtual_nodes <= 0:
            raise ValueError("virtual_nodes must be positive")
        self.virtual_nodes = virtual_nodes
        self.seed = seed
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

    @property
    def ring_size(self) -> int:
        return len(self._ring)

    def __contains__(self, shard_id: Any) -> bool:
        return shard_id in self._shards

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
    def route(self, key: str) -> Any:
        """The live shard owning ``key`` (deterministic for a given ring)."""
        if not self._ring:
            raise ValueError("cannot route on an empty ring; add a shard first")
        position = _hash64(f"{self.seed}|key|{key}")
        index = bisect.bisect_left(self._points, position)
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def route_request(self, key: str, request_id: int) -> Any:
        """Per-request routing hook; the plain ring ignores ``request_id``.

        :class:`ReplicaRouter` overrides this with seeded replica selection;
        having it here lets the elastic fleet route per request through
        either router without type checks.
        """
        return self.route(key)

    def successors(self, key: str) -> list[Any]:
        """Distinct live shards in ring order from ``key``'s position.

        The first entry is :meth:`route`'s answer; the rest are the shards a
        replica group spills onto, in the deterministic order consistent
        hashing already defines — so replica sets inherit the ring's
        minimal-remap property.
        """
        if not self._ring:
            return []
        position = _hash64(f"{self.seed}|key|{key}")
        index = bisect.bisect_left(self._points, position)
        seen: set[Any] = set()
        ordered: list[Any] = []
        ring_size = len(self._ring)
        for step in range(ring_size):
            shard_id = self._ring[(index + step) % ring_size][1]
            if shard_id not in seen:
                seen.add(shard_id)
                ordered.append(shard_id)
        return ordered

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


@ROUTERS.register("replica")
class ReplicaRouter:
    """A replica-group router: one key maps onto ``replicas`` shards.

    Wraps a :class:`ConsistentHashRouter`; a key's replica set is the first
    ``replicas`` distinct shards in ring order from its hash position
    (:meth:`ConsistentHashRouter.successors`), so replica sets keep the
    ring's minimal-remap property — membership changes only disturb sets
    that gained or lost the changed shard.  Per-request selection inside
    the set is a seeded blake2b hash of ``(key, request_id)``: hot keys
    spread across their whole replica group, cold keys still land mostly
    on one shard's cache, and a crashed shard's share flows to the
    survivors of each set.

    With ``replicas=1`` every method degenerates to the wrapped ring
    exactly, which is what keeps static fleets byte-identical.
    """

    def __init__(
        self,
        shard_ids: Iterable[Any],
        replicas: int = 2,
        virtual_nodes: int = 64,
        seed: int = 0,
    ) -> None:
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.replicas = replicas
        self.ring = ConsistentHashRouter(
            shard_ids, virtual_nodes=virtual_nodes, seed=seed
        )

    # -- membership (delegated) --------------------------------------------------
    @property
    def seed(self) -> int:
        return self.ring.seed

    @property
    def virtual_nodes(self) -> int:
        return self.ring.virtual_nodes

    @property
    def shard_ids(self) -> list[Any]:
        return self.ring.shard_ids

    @property
    def num_shards(self) -> int:
        return self.ring.num_shards

    def __contains__(self, shard_id: Any) -> bool:
        return shard_id in self.ring

    def add_shard(self, shard_id: Any) -> None:
        self.ring.add_shard(shard_id)

    def remove_shard(self, shard_id: Any) -> None:
        self.ring.remove_shard(shard_id)

    def shard_shares(self) -> dict[Any, float]:
        return self.ring.shard_shares()

    def successors(self, key: str) -> list[Any]:
        return self.ring.successors(key)

    # -- routing -----------------------------------------------------------------
    def replica_set(self, key: str) -> list[Any]:
        """The ``min(replicas, live)`` shards holding ``key``, in ring order."""
        return self.ring.successors(key)[: self.replicas]

    def route(self, key: str) -> Any:
        """The primary replica (identical to the wrapped ring's answer)."""
        return self.ring.route(key)

    def route_request(self, key: str, request_id: int) -> Any:
        """Seeded per-request pick inside the key's replica group."""
        group = self.replica_set(key)
        if not group:
            raise ValueError("cannot route on an empty ring; add a shard first")
        if len(group) == 1:
            return group[0]
        pick = _hash64(f"{self.ring.seed}|pick|{key}|{request_id}") % len(group)
        return group[pick]


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

    @classmethod
    def _decode(cls, data: dict) -> "ShardReport":
        data = dict(data)
        if data.get("report") is not None:
            data["report"] = Report.from_dict(data["report"])
        return cls(**data)


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

    @classmethod
    def _decode(cls, data: dict) -> "FleetReport":
        data = dict(data)
        data["shards"] = tuple(
            Report.from_dict(shard) for shard in data.get("shards", [])
        )
        data["fleet"] = Report.from_dict(data["fleet"])
        return cls(**data)

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


def _merge_cache_stats(stats: Sequence[CacheStats]) -> CacheStats | None:
    if not stats:
        return None
    merged = CacheStats()
    for shard_stats in stats:
        for stat_field in fields(CacheStats):
            setattr(
                merged,
                stat_field.name,
                getattr(merged, stat_field.name) + getattr(shard_stats, stat_field.name),
            )
    return merged


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


class ShardedFleet:
    """Partition an open-loop trace across N independent inference servers.

    Shards are identified by their index in ``servers``; the router must
    cover exactly those indices.  Each shard serves its routed sub-trace on
    its own event loop (shards share the store's *contents* but nothing
    mutable), and the per-shard reports merge into one :class:`FleetReport`.
    A single-shard fleet is behaviourally identical to calling
    ``servers[0].run(trace)`` directly.
    """

    def __init__(
        self,
        servers: Sequence[InferenceServer],
        router: ConsistentHashRouter | None = None,
        virtual_nodes: int = 64,
        seed: int = 0,
    ) -> None:
        if not servers:
            raise ValueError("a fleet needs at least one server")
        self.servers = list(servers)
        self.router = router or ConsistentHashRouter(
            range(len(self.servers)), virtual_nodes=virtual_nodes, seed=seed
        )
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
        # The merged per-shard telemetry of the most recent run() with a
        # telemetry_factory (a repro.obs.exporters.TelemetryPipeline).
        self.last_telemetry = None

    @property
    def num_shards(self) -> int:
        return len(self.servers)

    def partition(self, trace: Sequence[Request]) -> list[Sequence[Request]]:
        """Split a trace by routed key, preserving arrival order per shard.

        Routing is memoized per key (the ring hash is pure), and a columnar
        :class:`~repro.serving.workload.ArrivalStream` partitions into
        sub-streams by index — no per-request objects — so each shard's
        event loop receives a cursor-mergeable stream.
        """
        route_of: dict[str, int] = {}

        def route(key: str) -> int:
            shard = route_of.get(key)
            if shard is None:
                shard = route_of[key] = self.router.route(key)
            return shard

        if isinstance(trace, ArrivalStream):
            shard_of = np.fromiter(
                (route(key) for key in trace.keys), dtype=np.int64, count=len(trace)
            )
            return [
                trace.take(np.flatnonzero(shard_of == shard_id))
                for shard_id in range(len(self.servers))
            ]
        shards: list[list[Request]] = [[] for _ in self.servers]
        for request in trace:
            shards[route(request.key)].append(request)
        return shards

    def run(self, trace: Sequence[Request], telemetry_factory=None) -> FleetReport:
        """Serve the trace across the fleet and merge the shard reports.

        ``telemetry_factory``, when given, is a zero-argument callable
        producing one fresh :class:`~repro.obs.exporters.TelemetryPipeline`
        per active shard; each pipeline observes its shard's run, and the
        shard-wise merge (raw histograms and span sets, not derived stats —
        percentiles cannot merge post hoc) lands in :attr:`last_telemetry`.
        Shards share one simulated timeline, so merged windows align by
        index and fleet-wide per-window percentiles are true merges.
        """
        if not trace:
            raise ValueError("cannot serve an empty trace")
        sub_traces = self.partition(trace)

        self.last_telemetry = None
        pipelines = []
        shard_reports: list[ShardReport] = []
        # build_report sorts by request id, so concatenating the shards'
        # records in shard order yields the fleet-wide statistics directly.
        merged = RequestRecords()
        store_requests = 0
        degraded = 0
        dropped = 0
        prefetch_bytes = 0
        prefetch_hits = 0
        prefetch_wasted = 0
        cache_stats = []
        for shard_id, (server, sub_trace) in enumerate(zip(self.servers, sub_traces)):
            if not sub_trace:
                shard_reports.append(ShardReport(shard_id, 0, None))
                continue
            pipeline = telemetry_factory() if telemetry_factory is not None else None
            if pipeline is not None:
                pipeline.attach(server)
            try:
                report = server.run(sub_trace)
            finally:
                if pipeline is not None:
                    pipeline.detach(server)
            if pipeline is not None:
                pipelines.append(pipeline)
            shard_reports.append(ShardReport(shard_id, report.num_requests, report))
            merged.extend(server.last_records)
            store_requests += server.store_requests
            degraded += report.degraded_requests
            dropped += report.dropped_requests
            prefetch_bytes += report.prefetch_bytes
            prefetch_hits += report.prefetch_hits
            prefetch_wasted += report.prefetch_wasted_bytes
            if server.cache is not None:
                cache_stats.append(server.cache.stats)

        fleet = build_report(
            merged,
            bandwidth=self.servers[0].bandwidth,
            store_requests=store_requests,
            cache_stats=_merge_cache_stats(cache_stats),
            degraded_requests=degraded,
            dropped_requests=dropped,
            prefetch_bytes=prefetch_bytes,
            prefetch_hits=prefetch_hits,
            prefetch_wasted_bytes=prefetch_wasted,
        )
        if pipelines:
            merged_telemetry = pipelines[0]
            for pipeline in pipelines[1:]:
                merged_telemetry.merge(pipeline)
            self.last_telemetry = merged_telemetry

        # Imbalance is over *offered* (routed) per-shard load: what the
        # router dealt each shard, before any admission policy shed work.
        offered = [len(sub_trace) for sub_trace in sub_traces]
        return FleetReport(
            num_shards=self.num_shards,
            shards=tuple(shard_reports),
            fleet=fleet,
            load_imbalance=load_imbalance_factor(offered),
            idle_shards=sum(1 for count in offered if count == 0),
        )
