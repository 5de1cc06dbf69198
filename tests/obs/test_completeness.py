"""Event-stream completeness: every request's story closes, even when hard.

The tracer treats an arrival without a terminal event as an orphan, so
these tests drive the nastiest stream shapes — admission drops under
overload, prefetch activity between arrivals, shard-partitioned traces,
and a ring-buffered event log — and fail if any span tree is left open or
any lifecycle stage goes missing.
"""

from repro.core.policies import StaticResolutionPolicy
from repro.obs.exporters import TelemetryPipeline
from repro.obs.tracing import RequestTracer
from repro.serving.arrivals import OnOffArrivals
from repro.serving.control import EwmaAdmissionController, NextScanPrefetcher
from repro.serving.events import (
    EventLog,
    PrefetchIssued,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
)
from repro.serving.fleet import ConsistentHashRouter, ShardedFleet


def stress_server(make_server, tracer, log=None):
    """A server under admission pressure with prefetch enabled.

    Serving at the lowest resolution leaves upgrade headroom above every
    demand-filled cache prefix, so idle gaps really do trigger prefetch.
    """
    observers = [tracer] if log is None else [tracer, log]
    return make_server(
        observers=observers,
        policy=StaticResolutionPolicy(24),
        admission=EwmaAdmissionController(alpha=0.5, depth_threshold=3.0),
        prefetch=NextScanPrefetcher(
            idle_threshold_s=0.05, max_keys_per_gap=4, seed=3
        ),
    )


def bursty_trace(keys, n=48, seed=2):
    """ON/OFF traffic: overload bursts (drops) between idle lulls (prefetch)."""
    return OnOffArrivals(
        on_rate_rps=2000.0, mean_on_s=0.03, mean_off_s=0.15, seed=seed, zipf_alpha=1.0
    ).stream(keys, n)


class TestSingleServerCompleteness:
    def test_every_request_reaches_a_terminal_event(
        self, make_server, obs_store
    ):
        tracer = RequestTracer()
        log = EventLog()
        server = stress_server(make_server, tracer, log)
        trace = bursty_trace(obs_store.keys(), n=48)
        report = server.run(trace)
        # The stream exercised all the hard paths, not a quiet run.
        assert report.dropped_requests > 0
        assert any(isinstance(e, PrefetchIssued) for e in log.events)
        # Every arrival closed: no request is stuck between events.
        assert tracer.orphans() == []
        assert tracer.completed_requests + tracer.dropped_requests == len(trace)
        terminal = sum(
            isinstance(e, (RequestCompleted, RequestDropped)) for e in log.events
        )
        arrivals = sum(isinstance(e, RequestArrived) for e in log.events)
        assert arrivals == terminal == len(trace)

    def test_outcomes_partition_the_trace(self, make_server, obs_store):
        tracer = RequestTracer()
        server = stress_server(make_server, tracer)
        trace = bursty_trace(obs_store.keys(), n=48)
        server.run(trace)
        by_outcome = {"served": set(), "dropped": set()}
        for span_tree in tracer.traces:
            by_outcome[span_tree.outcome].add(span_tree.request_id)
        assert not (by_outcome["served"] & by_outcome["dropped"])
        assert by_outcome["served"] | by_outcome["dropped"] == set(trace.request_ids.tolist())

    def test_ring_buffered_log_does_not_hide_orphans(self, make_server, obs_store):
        """Dropping old events from the log must not break the tracer."""
        tracer = RequestTracer()
        log = EventLog(max_events=16)
        server = stress_server(make_server, tracer, log)
        server.run(bursty_trace(obs_store.keys(), n=48))
        assert log.dropped_events > 0
        assert len(log.events) == 16
        assert tracer.orphans() == []


class TestFleetCompleteness:
    def test_sharded_run_closes_every_span_tree(self, make_server, obs_store):
        """Prefetch + drops + multi-shard: the union of streams is complete."""
        servers = [
            stress_server(make_server, RequestTracer()) for _ in range(3)
        ]
        tracers = []
        pipelines = []
        for server in servers:
            pipeline = TelemetryPipeline(sample_rate=1.0)
            pipeline.attach(server)
            pipelines.append(pipeline)
            tracers.append(pipeline.tracer)
        fleet = ShardedFleet(servers, router=ConsistentHashRouter([0, 1, 2], seed=7))
        trace = bursty_trace(obs_store.keys(), n=60)
        report = fleet.run(trace)
        assert report.fleet.dropped_requests > 0
        merged = pipelines[0]
        for pipeline in pipelines[1:]:
            merged.merge(pipeline)
        tracer = merged.tracer
        assert tracer.orphans() == []
        assert tracer.completed_requests == report.fleet.num_requests
        assert tracer.dropped_requests == report.fleet.dropped_requests
        # Every request in the trace shows up in exactly one shard's stream.
        assert {t.request_id for t in tracer.traces} == set(trace.request_ids.tolist())
        ids = [t.request_id for t in tracer.traces]
        assert len(ids) == len(set(ids))

    def test_engine_fleet_telemetry_is_complete(self, make_server, obs_store):
        """The fleet's own telemetry_factory path closes every tree too."""
        servers = [stress_server(make_server, RequestTracer()) for _ in range(2)]
        fleet = ShardedFleet(servers, router=ConsistentHashRouter([0, 1], seed=7))
        trace = bursty_trace(obs_store.keys(), n=40)
        report = fleet.run(trace, telemetry_factory=TelemetryPipeline)
        telemetry = fleet.last_telemetry
        assert telemetry is not None
        assert telemetry.tracer.orphans() == []
        assert telemetry.tracer.completed_requests == report.fleet.num_requests
        assert (
            telemetry.collector.registry.counter("drops")
            == report.fleet.dropped_requests
        )
