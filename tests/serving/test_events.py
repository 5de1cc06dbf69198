"""Lifecycle-event stream tests: completeness, ordering, determinism.

The event stream is the control plane's substrate, so these pin down its
contract: every request's life is narrated exactly once (arrival → cache
probe → admission/drop → batch flush → completion), observers see events in
simulated-time order, and two identical runs produce identical streams.
"""

import pytest

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import StaticResolutionPolicy
from repro.nn.resnet import resnet_tiny
from repro.serving import (
    EventLog,
    EwmaAdmissionController,
    InferenceServer,
    PoissonArrivals,
    ScanCache,
    ServerConfig,
)
from repro.serving.batcher import LinearBatchCost
from repro.serving.events import (
    BatchFlushed,
    CacheProbed,
    RequestAdmitted,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
)
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)


@pytest.fixture(scope="module")
def event_store(tiny_imagenet_like):
    store = ImageStore(encoder=ProgressiveEncoder(quality=85))
    for sample in list(tiny_imagenet_like)[:8]:
        store.put(f"img{sample.index}", sample.render(), label=sample.label)
    return store


@pytest.fixture(scope="module")
def backbone():
    return resnet_tiny(num_classes=4, base_width=4, seed=0)


def make_server(store, backbone, log=None, admission=None, **config):
    defaults = dict(
        resolutions=RESOLUTIONS,
        scale_resolution=24,
        num_workers=2,
        max_batch_size=4,
        max_wait_s=0.004,
    )
    defaults.update(config)
    return InferenceServer(
        store,
        backbone,
        StaticResolutionPolicy(32),
        ServerConfig(**defaults),
        read_policy=ScanReadPolicy(ssim_thresholds={24: 0.90, 32: 0.92, 48: 0.95}),
        cache=ScanCache(300_000),
        batch_cost=LinearBatchCost(per_item_seconds=0.002, fixed_seconds=0.002),
        admission=admission,
        observers=[log] if log is not None else (),
    )


def trace_for(store, n=20):
    return PoissonArrivals(rate_rps=800.0, seed=5, zipf_alpha=1.0).stream(store.keys(), n)


class TestStreamCompleteness:
    def test_every_request_is_narrated_exactly_once(self, event_store, backbone):
        log = EventLog()
        trace = trace_for(event_store)
        report = make_server(event_store, backbone, log=log).run(trace)

        arrivals = log.of_type(RequestArrived)
        probes = log.of_type(CacheProbed)
        admitted = log.of_type(RequestAdmitted)
        completed = log.of_type(RequestCompleted)
        assert len(arrivals) == len(trace)
        assert len(probes) == len(trace)  # no drops: every arrival probed
        assert len(admitted) == len(trace)
        assert len(completed) == report.num_requests == len(trace)
        assert log.of_type(RequestDropped) == []
        # Flushed batch sizes account for every admitted request.
        flushed = log.of_type(BatchFlushed)
        assert sum(event.batch_size for event in flushed) == len(trace)

    def test_stream_matches_the_report(self, event_store, backbone):
        log = EventLog()
        trace = trace_for(event_store)
        server = make_server(event_store, backbone, log=log)
        report = server.run(trace)
        records = [event.record for event in log.of_type(RequestCompleted)]
        # The narrated completions are exactly the records the report folds.
        assert sorted(records, key=lambda r: r.request_id) == sorted(
            server.last_served, key=lambda r: r.request_id
        )
        assert sum(r.bytes_from_store for r in records) == report.bytes_from_store
        histogram = {}
        for record in records:
            histogram[record.resolution] = histogram.get(record.resolution, 0) + 1
        assert histogram == report.resolution_histogram

    def test_drops_are_narrated_with_reasons(self, event_store, backbone):
        log = EventLog()
        trace = PoissonArrivals(rate_rps=4000.0, seed=4, zipf_alpha=1.0).stream(
            event_store.keys(), 30
        )
        report = make_server(
            event_store,
            backbone,
            log=log,
            admission=EwmaAdmissionController(alpha=0.5, depth_threshold=3.0),
            num_workers=1,
        ).run(trace)
        drops = log.of_type(RequestDropped)
        assert len(drops) == report.dropped_requests > 0
        assert all(event.reason == "queue-depth" for event in drops)
        # Dropped requests are never probed, admitted, or completed.
        dropped_ids = {event.request.request_id for event in drops}
        admitted_ids = {e.request.request_id for e in log.of_type(RequestAdmitted)}
        completed_ids = {e.record.request_id for e in log.of_type(RequestCompleted)}
        assert dropped_ids.isdisjoint(admitted_ids)
        assert dropped_ids.isdisjoint(completed_ids)
        assert len(admitted_ids) + len(dropped_ids) == len(trace)


class TestStreamOrdering:
    def test_events_are_time_ordered(self, event_store, backbone):
        log = EventLog()
        make_server(event_store, backbone, log=log).run(trace_for(event_store))
        times = [event.time for event in log.events]
        assert times == sorted(times)

    def test_per_request_lifecycle_order(self, event_store, backbone):
        log = EventLog()
        make_server(event_store, backbone, log=log).run(trace_for(event_store))
        for request_id in range(5):
            kinds = [
                type(event)
                for event in log.events
                if (
                    isinstance(event, (RequestArrived, CacheProbed, RequestAdmitted))
                    and event.request.request_id == request_id
                )
                or (
                    isinstance(event, RequestCompleted)
                    and event.record.request_id == request_id
                )
            ]
            assert kinds == [RequestArrived, CacheProbed, RequestAdmitted, RequestCompleted]


class TestStreamDeterminism:
    def test_identical_runs_produce_identical_streams(self, event_store, backbone):
        trace = trace_for(event_store)
        first, second = EventLog(), EventLog()
        make_server(event_store, backbone, log=first).run(trace)
        make_server(event_store, backbone, log=second).run(trace)
        assert first.events == second.events

    def test_subscribe_registers_a_live_observer(self, event_store, backbone):
        server = make_server(event_store, backbone)
        log = EventLog()
        server.subscribe(log)
        server.run(trace_for(event_store, n=8))
        assert len(log.of_type(RequestCompleted)) == 8
        log.clear()
        assert log.events == []


class TestRingBuffer:
    def test_unbounded_log_never_drops(self, event_store, backbone):
        log = EventLog()
        make_server(event_store, backbone, log=log).run(trace_for(event_store))
        assert log.dropped_events == 0

    def test_bounded_log_keeps_the_newest_events(self, event_store, backbone):
        trace = trace_for(event_store)
        full, ring = EventLog(), EventLog(max_events=10)
        make_server(event_store, backbone, log=full).run(trace)
        make_server(event_store, backbone, log=ring).run(trace)
        assert len(ring.events) == 10
        assert ring.dropped_events == len(full.events) - 10
        # The ring holds exactly the tail of the unbounded stream.
        assert ring.events == full.events[-10:]

    def test_of_type_respects_the_window(self, event_store, backbone):
        ring = EventLog(max_events=10)
        make_server(event_store, backbone, log=ring).run(trace_for(event_store))
        assert ring.of_type(RequestCompleted) == [
            event for event in ring.events if isinstance(event, RequestCompleted)
        ]

    def test_clear_resets_the_drop_counter(self, event_store, backbone):
        ring = EventLog(max_events=5)
        make_server(event_store, backbone, log=ring).run(trace_for(event_store, n=8))
        assert ring.dropped_events > 0
        ring.clear()
        assert ring.events == []
        assert ring.dropped_events == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)
        with pytest.raises(ValueError):
            EventLog(max_events=-3)
