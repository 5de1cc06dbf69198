"""Property-based invariants of the serving event loop.

The golden suite pins eight fixed configurations; hypothesis explores the
traffic/batching parameter space around them and checks the properties no
configuration may violate:

* a bare run (event objects elided) and an observed run (event objects
  built) produce *equal* ``SLOReport`` objects and equal completions for
  the same traffic — the differential over the loop's one branch;
* every arrival process streams sorted arrivals with ids ``0..n-1`` and
  keys drawn from the store;
* observed event timestamps are non-decreasing within a run;
* conservation: every arrival is either completed or dropped, exactly once;
* every flushed batch respects ``max_batch_size``.

Events are collected through a subscribed observer, which deliberately
forces the loop's emit path on — so the invariants hold with event
elision disabled; the differential property also covers the fully-elided
loop, where the report itself is the only observable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import StaticResolutionPolicy
from repro.data.dataset import SyntheticDataset
from repro.data.profiles import IMAGENET_LIKE
from repro.nn.resnet import resnet_tiny
from repro.serving.arrivals import OnOffArrivals, PoissonArrivals
from repro.serving.autoscale import ThresholdAutoscaler
from repro.serving.batcher import LinearBatchCost
from repro.serving.cache import ScanCache
from repro.serving.events import (
    BatchFlushed,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    ServerEvent,
    ServerObserver,
    ShardAdded,
    ShardRemoved,
)
from repro.serving.fleet import ConsistentHashRouter, ShardedFleet
from repro.serving.server import InferenceServer, ServerConfig
from repro.serving.traces import TraceRecord
from repro.serving.workload import ArrivalStream, DiurnalArrivals, TraceReplayArrivals
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)

#: Shared store/backbone: rendering and encoding images dominates example
#: runtime, so every hypothesis example reuses one small catalogue.  Runs
#: that are compared build their own stores (the decode cache is per-store
#: state the two runs must not share).
_FIXTURES: dict = {}


def _profile():
    profile = IMAGENET_LIKE
    return type(profile)(
        name="property-tiny",
        num_classes=4,
        storage_resolution_mean=72,
        storage_resolution_std=6,
        object_scale_mean=profile.object_scale_mean,
        object_scale_std=profile.object_scale_std,
        texture_weight=profile.texture_weight,
        detail_sensitivity=profile.detail_sensitivity,
    )


def _samples():
    if "samples" not in _FIXTURES:
        dataset = SyntheticDataset(_profile(), size=6, seed=13)
        _FIXTURES["samples"] = [
            (f"img{sample.index}", sample.render(), sample.label) for sample in dataset
        ]
    return _FIXTURES["samples"]


def _fresh_store() -> ImageStore:
    store = ImageStore(encoder=ProgressiveEncoder(quality=85))
    for key, image, label in _samples():
        store.put(key, image, label=label)
    return store


def _backbone():
    if "backbone" not in _FIXTURES:
        _FIXTURES["backbone"] = resnet_tiny(num_classes=4, base_width=4, seed=0)
    return _FIXTURES["backbone"]


def _server(store: ImageStore, **config) -> InferenceServer:
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
        _backbone(),
        StaticResolutionPolicy(32),
        ServerConfig(**defaults),
        read_policy=ScanReadPolicy(),
        cache=ScanCache(capacity_bytes=150_000),
        batch_cost=LinearBatchCost(),
    )


class _Recorder(ServerObserver):
    """Collect the raw event stream for invariant checks."""

    def __init__(self) -> None:
        self.events: list[ServerEvent] = []

    def on_event(self, event: ServerEvent) -> None:
        self.events.append(event)


traffic = st.fixed_dictionaries(
    {
        "rate_rps": st.floats(min_value=50.0, max_value=3000.0),
        "seed": st.integers(min_value=0, max_value=2**16),
        "zipf_alpha": st.floats(min_value=0.0, max_value=1.5),
        "num_requests": st.integers(min_value=1, max_value=48),
    }
)

knobs = st.fixed_dictionaries(
    {
        "max_batch_size": st.integers(min_value=1, max_value=6),
        "num_workers": st.integers(min_value=1, max_value=3),
        "max_wait_s": st.floats(min_value=0.0, max_value=0.01),
    }
)

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(params=traffic, config=knobs)
@_SETTINGS
def test_elided_and_observed_runs_agree(params, config) -> None:
    """The differential property: building events changes no result."""
    process = PoissonArrivals(
        rate_rps=params["rate_rps"],
        seed=params["seed"],
        zipf_alpha=params["zipf_alpha"],
    )
    runs = {}
    for observed in (False, True):
        store = _fresh_store()
        server = _server(store, **config)
        recorder = _Recorder()
        if observed:
            server.subscribe(recorder)
        report = server.run(process.stream(store.keys(), params["num_requests"]))
        completions = [e for e in recorder.events if isinstance(e, RequestCompleted)]
        assert len(completions) == (report.num_requests if observed else 0)
        runs[observed] = (report, server.last_served)
    assert runs[True] == runs[False]


@given(params=traffic)
@_SETTINGS
def test_stream_shape(params) -> None:
    """Every process streams sorted arrivals: ids ``0..n-1``, store keys."""
    keys = [key for key, _, _ in _samples()]
    poisson = PoissonArrivals(
        rate_rps=params["rate_rps"],
        seed=params["seed"],
        zipf_alpha=params["zipf_alpha"],
    )
    gaps = np.random.default_rng(params["seed"]).exponential(1.0, size=len(keys))
    processes = [
        poisson,
        OnOffArrivals(
            on_rate_rps=params["rate_rps"],
            mean_on_s=0.05,
            mean_off_s=0.1,
            seed=params["seed"],
            zipf_alpha=params["zipf_alpha"],
        ),
        DiurnalArrivals(base=poisson, period_s=5.0, amplitude=0.4),
        TraceReplayArrivals(
            records=tuple(
                TraceRecord(timestamp=float(t), key=key)
                for t, key in zip(np.cumsum(gaps), keys)
            ),
            mode="loop",
        ),
    ]
    count = params["num_requests"]
    for process in processes:
        stream = process.stream(keys, count)
        assert isinstance(stream, ArrivalStream)
        assert len(stream) == count
        assert (np.diff(stream.times) >= 0).all()
        assert stream.request_ids.tolist() == list(range(count))
        assert set(stream.keys) <= set(keys)


@given(params=traffic, config=knobs)
@_SETTINGS
def test_event_stream_invariants(params, config) -> None:
    """Ordering, conservation and batch bounds hold under observation."""
    process = PoissonArrivals(
        rate_rps=params["rate_rps"],
        seed=params["seed"],
        zipf_alpha=params["zipf_alpha"],
    )
    store = _fresh_store()
    recorder = _Recorder()
    server = _server(store, **config)
    server.subscribe(recorder)
    trace = process.stream(store.keys(), params["num_requests"])
    report = server.run(trace)

    times = [event.time for event in recorder.events]
    assert times == sorted(times), "events must be time-ordered"

    arrivals = sum(1 for e in recorder.events if isinstance(e, RequestArrived))
    completions = sum(1 for e in recorder.events if isinstance(e, RequestCompleted))
    drops = sum(1 for e in recorder.events if isinstance(e, RequestDropped))
    assert arrivals == params["num_requests"]
    assert arrivals == completions + drops
    assert report.num_requests == completions
    assert report.dropped_requests == drops

    for event in recorder.events:
        if isinstance(event, BatchFlushed):
            assert 1 <= event.batch_size <= config["max_batch_size"]
        if isinstance(event, RequestCompleted):
            record = event.record
            assert record.arrival_time <= record.ready_time
            assert record.ready_time <= record.dispatch_time
            assert record.dispatch_time <= record.completion_time

    stats = server.cache.stats
    assert stats.hits + stats.misses >= 0
    assert report.num_requests == len(server.last_served)


elastic_traffic = st.fixed_dictionaries(
    {
        "rate_rps": st.floats(min_value=500.0, max_value=4000.0),
        "seed": st.integers(min_value=0, max_value=2**16),
        "num_requests": st.integers(min_value=12, max_value=40),
    }
)


@given(params=elastic_traffic)
@_SETTINGS
def test_invariants_hold_across_dynamic_topology_boundaries(params) -> None:
    """Ordering and conservation survive mid-run ShardAdded/ShardRemoved.

    An aggressive threshold autoscaler forces topology changes while traffic
    is in flight; the topology event stream must stay time-ordered, every
    resize must move the live shard count by exactly one, and the arrival
    conservation law (served + dropped == offered, no duplicates) must hold
    across every boundary.
    """
    horizon = params["num_requests"] / params["rate_rps"]

    def server_factory(shard_id):
        return _server(_fresh_store())

    fleet = ShardedFleet(
        [server_factory(0), server_factory(1)],
        ConsistentHashRouter(range(2), seed=11),
        server_factory=server_factory,
        autoscale=ThresholdAutoscaler(
            high_rps_per_shard=params["rate_rps"] / 4.0,
            low_rps_per_shard=params["rate_rps"] / 32.0,
        ),
        autoscale_interval_s=max(horizon / 8.0, 1e-4),
        min_shards=1,
        max_shards=6,
    )
    process = PoissonArrivals(rate_rps=params["rate_rps"], seed=params["seed"])
    store_keys = [key for key, _, _ in _samples()]
    report = fleet.run(process.stream(store_keys, params["num_requests"]))

    times = [event.time for event in fleet.last_events]
    assert times == sorted(times), "topology events must be time-ordered"
    live = 2
    for event in fleet.last_events:
        if isinstance(event, ShardAdded):
            live += 1
            assert event.num_shards == live
        elif isinstance(event, ShardRemoved):
            live -= 1
            assert event.num_shards == live
        assert 1 <= live <= 6
    assert report.final_num_shards == live

    served = [record.request_id for record in fleet.last_served]
    dropped = [request.request_id for request, _ in fleet.last_dropped]
    assert len(served) == len(set(served))
    assert set(served) | set(dropped) == set(range(params["num_requests"]))
    assert set(served) & set(dropped) == set()
    assert report.shards_added == sum(
        isinstance(e, ShardAdded) for e in fleet.last_events
    )
    assert report.shards_removed == sum(
        isinstance(e, ShardRemoved) for e in fleet.last_events
    )


@pytest.mark.parametrize("observed", [False, True])
def test_conservation_with_drops(observed: bool) -> None:
    """Admission drops conserve requests, events elided or built."""
    from repro.serving.control import EwmaAdmissionController

    store = _fresh_store()
    server = InferenceServer(
        store,
        _backbone(),
        StaticResolutionPolicy(32),
        ServerConfig(
            resolutions=RESOLUTIONS,
            scale_resolution=24,
            num_workers=1,
            max_batch_size=2,
            max_wait_s=0.002,
        ),
        read_policy=ScanReadPolicy(),
        batch_cost=LinearBatchCost(),
        admission=EwmaAdmissionController(alpha=0.5, depth_threshold=2.0),
    )
    recorder = _Recorder()
    if observed:
        server.subscribe(recorder)
    trace = PoissonArrivals(rate_rps=5000.0, seed=3, zipf_alpha=0.8).stream(
        store.keys(), 80
    )
    report = server.run(trace)
    assert report.dropped_requests > 0
    assert report.num_requests + report.dropped_requests == 80
    drops = [e for e in recorder.events if isinstance(e, RequestDropped)]
    assert len(drops) == (report.dropped_requests if observed else 0)
