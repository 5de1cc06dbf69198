"""Per-request span trees assembled from the serving event stream.

A request's life is already narrated by frozen events (arrival → cache
probe → admission/drop → batch queue → completion); the
:class:`RequestTracer` observer stitches each request's events into one
:class:`RequestTrace` — a small span tree with per-stage durations:

* ``request`` (root) — arrival to completion (or to the drop decision);
* ``ingest`` — arrival to ready: the cache probe (an instant child span),
  the store/cache reads and the scale-model resolution choice;
* ``batch-wait`` — ready to dispatch: time queued in the dynamic batcher
  and behind the worker pool;
* ``execute`` — dispatch to completion: the priced batch execution.

Trace *retention* is sampled — a seeded hash of the request id decides
whether the assembled tree is kept, so sampling is deterministic, stable
across shards, and independent of event order — but the per-stage totals
feeding :class:`StageBreakdown` cover **every** completed request, so the
run-level breakdown is exact regardless of the sampling rate.  A request
whose tree never closes (arrival without terminal event) is an *orphan*;
:meth:`RequestTracer.orphans` lists them so tests can fail on stream gaps.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.api.registry import OBSERVERS
from repro.serving.events import (
    BatchFlushed,
    CacheProbed,
    PrefetchIssued,
    RequestAdmitted,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    ServerEvent,
    ServerObserver,
    ShardAdded,
    ShardCrashed,
    ShardRecovered,
    ShardRemoved,
)

#: The per-request pipeline stages, in lifecycle order.
STAGES = ("ingest", "batch-wait", "execute")


@dataclass(frozen=True)
class Span:
    """One named interval of simulated time, with optional child spans."""

    name: str
    start_s: float
    end_s: float
    children: tuple["Span", ...] = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        data = {"name": self.name, "start_s": self.start_s, "end_s": self.end_s}
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            name=data["name"],
            start_s=data["start_s"],
            end_s=data["end_s"],
            children=tuple(
                cls.from_dict(child) for child in data.get("children", [])
            ),
        )


@dataclass(frozen=True)
class RequestTrace:
    """The span tree of one request, tagged with its outcome."""

    request_id: int
    key: str
    outcome: str  # "served" or "dropped"
    reason: str | None
    root: Span

    def stage(self, name: str) -> Span | None:
        """The direct child span called ``name``, if present."""
        for child in self.root.children:
            if child.name == name:
                return child
        return None

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "key": self.key,
            "outcome": self.outcome,
            "reason": self.reason,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RequestTrace":
        return cls(
            request_id=data["request_id"],
            key=data["key"],
            outcome=data["outcome"],
            reason=data.get("reason"),
            root=Span.from_dict(data["root"]),
        )


@dataclass(frozen=True)
class StageStats:
    """Aggregate timing of one pipeline stage over a run."""

    name: str
    count: int
    total_s: float
    mean_ms: float
    share: float  # fraction of the summed end-to-end latency


@dataclass(frozen=True)
class StageBreakdown:
    """Where served requests spent their time, stage by stage.

    ``critical_stage`` is the stage with the largest total — the one whose
    optimisation moves end-to-end latency most (the "which stage dominates
    a slow request?" answer); ``total_latency_s`` is the summed end-to-end
    latency the shares are fractions of.
    """

    stages: tuple[StageStats, ...]
    critical_stage: str | None
    total_latency_s: float

    @classmethod
    def from_totals(
        cls, totals: dict[str, float], counts: dict[str, int]
    ) -> "StageBreakdown":
        """Derive the breakdown from per-stage total-seconds and counts."""
        total_latency = sum(totals.get(stage, 0.0) for stage in STAGES)
        stages = []
        for stage in STAGES:
            count = counts.get(stage, 0)
            total = totals.get(stage, 0.0)
            stages.append(
                StageStats(
                    name=stage,
                    count=count,
                    total_s=total,
                    mean_ms=(total / count) * 1e3 if count else 0.0,
                    share=total / total_latency if total_latency > 0 else 0.0,
                )
            )
        critical = None
        if total_latency > 0:
            critical = max(stages, key=lambda s: s.total_s).name
        return cls(
            stages=tuple(stages),
            critical_stage=critical,
            total_latency_s=total_latency,
        )


def sampled(seed: int, request_id: int, sample_rate: float) -> bool:
    """Deterministic sampling decision for one request id.

    A blake2b hash of ``(seed, request_id)`` maps to [0, 1); the request is
    sampled when that point falls below ``sample_rate``.  The decision
    depends only on the seed and the id — not on event order, shard
    placement, or Python's randomized ``hash`` — so sampled sets are
    identical across runs and across fleet layouts.
    """
    if sample_rate >= 1.0:
        return True
    digest = hashlib.blake2b(
        f"{seed}|trace|{request_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64) < sample_rate


@dataclass
class _Pending:
    """A request between its arrival event and its terminal event."""

    key: str
    arrival_s: float
    probe_s: float | None = None


@OBSERVERS.register("tracer")
class RequestTracer(ServerObserver):
    """Assemble per-request span trees from the server event stream.

    ``sample_rate`` bounds memory on million-request runs: only the seeded
    ``sampled`` fraction of trees is retained in :attr:`traces`, while the
    stage totals behind :meth:`breakdown` always cover every completed
    request.  Tracers merge shard-wise via :meth:`merge` (request ids are
    globally unique within one generated trace, so shard streams are
    disjoint).
    """

    def __init__(self, sample_rate: float = 1.0, seed: int = 0) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.sample_rate = sample_rate
        self.seed = seed
        self.traces: list[RequestTrace] = []
        self.completed_requests = 0
        self.dropped_requests = 0
        self.stage_totals: dict[str, float] = {}
        self.stage_counts: dict[str, int] = {}
        self._pending: dict[int, _Pending] = {}

    def on_event(self, event: ServerEvent) -> None:
        if isinstance(event, RequestArrived):
            self._pending[event.request.request_id] = _Pending(
                key=event.request.key, arrival_s=event.time
            )
        elif isinstance(event, CacheProbed):
            pending = self._pending.get(event.request.request_id)
            if pending is not None:
                pending.probe_s = event.time
        elif isinstance(event, RequestDropped):
            pending = self._pending.pop(event.request.request_id, None)
            if pending is None:
                return
            self.dropped_requests += 1
            if sampled(self.seed, event.request.request_id, self.sample_rate):
                root = Span(
                    name="request", start_s=pending.arrival_s, end_s=event.time
                )
                self.traces.append(
                    RequestTrace(
                        request_id=event.request.request_id,
                        key=pending.key,
                        outcome="dropped",
                        reason=event.reason,
                        root=root,
                    )
                )
        elif isinstance(event, RequestCompleted):
            record = event.record
            pending = self._pending.pop(record.request_id, None)
            if pending is None:
                return
            self.completed_requests += 1
            durations = {
                "ingest": record.ready_time - record.arrival_time,
                "batch-wait": record.dispatch_time - record.ready_time,
                "execute": record.completion_time - record.dispatch_time,
            }
            for stage, duration in durations.items():
                self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + duration
                self.stage_counts[stage] = self.stage_counts.get(stage, 0) + 1
            if sampled(self.seed, record.request_id, self.sample_rate):
                probe_children = ()
                if pending.probe_s is not None:
                    probe_children = (
                        Span(
                            name="cache-probe",
                            start_s=pending.probe_s,
                            end_s=pending.probe_s,
                        ),
                    )
                root = Span(
                    name="request",
                    start_s=record.arrival_time,
                    end_s=record.completion_time,
                    children=(
                        Span(
                            name="ingest",
                            start_s=record.arrival_time,
                            end_s=record.ready_time,
                            children=probe_children,
                        ),
                        Span(
                            name="batch-wait",
                            start_s=record.ready_time,
                            end_s=record.dispatch_time,
                        ),
                        Span(
                            name="execute",
                            start_s=record.dispatch_time,
                            end_s=record.completion_time,
                        ),
                    ),
                )
                self.traces.append(
                    RequestTrace(
                        request_id=record.request_id,
                        key=record.key,
                        outcome="served",
                        reason=None,
                        root=root,
                    )
                )
        elif isinstance(event, (RequestAdmitted, PrefetchIssued, BatchFlushed)):
            # Deliberately not part of span trees: admission and prefetch are
            # already visible as the ingest span, and batch flushes are
            # batch-level (no single request to attach them to).
            return
        elif isinstance(
            event, (ShardAdded, ShardRemoved, ShardCrashed, ShardRecovered)
        ):
            # Fleet topology events carry no request to trace; they matter to
            # the elastic-fleet report, not to per-request span trees.
            return

    def orphans(self) -> list[int]:
        """Request ids that arrived but never reached a terminal event."""
        return sorted(self._pending)

    def breakdown(self) -> StageBreakdown:
        """The per-stage timing breakdown over every completed request."""
        return StageBreakdown.from_totals(self.stage_totals, self.stage_counts)

    def merge(self, other: "RequestTracer") -> None:
        """Fold another shard's tracer into this one (disjoint request ids)."""
        self.traces.extend(other.traces)
        self.traces.sort(key=lambda trace: trace.request_id)
        self.completed_requests += other.completed_requests
        self.dropped_requests += other.dropped_requests
        for stage, total in other.stage_totals.items():
            self.stage_totals[stage] = self.stage_totals.get(stage, 0.0) + total
        for stage, count in other.stage_counts.items():
            self.stage_counts[stage] = self.stage_counts.get(stage, 0) + count
        self._pending.update(other._pending)
