"""Event-loop integration tests: determinism, cache savings, load adaptation.

These drive the real pipeline pieces (progressive store, tiny numpy models,
calibrated scan reads) through the serving simulator, so they double as the
acceptance tests of the subsystem: identical configurations must produce
identical SLO reports, and the scan-prefix cache must demonstrably cut the
bytes read from the store on the same trace.
"""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import (
    DynamicResolutionPolicy,
    StaticResolutionPolicy,
)
from repro.core.scale_model import ScaleModelPredictor
from repro.imaging.transforms import InferencePreprocessor
from repro.nn.mobilenet import mobilenet_tiny
from repro.nn.resnet import resnet_tiny
from repro.serving import (
    ClosedLoopClients,
    InferenceServer,
    LoadAdaptiveResolutionPolicy,
    OnOffArrivals,
    PoissonArrivals,
    ScanCache,
    ServerConfig,
)
from repro.serving import server as server_module
from repro.serving.arrivals import Request
from repro.serving.batcher import LinearBatchCost
from repro.serving.control import AdmissionDecision, AdmissionPolicy
from repro.serving.events import RequestCompleted, ServerEvent, ServerObserver
from repro.serving.metrics import RequestRecords
from repro.serving.server import _RECORD_BUFFER_ROWS
from repro.serving.workload import ArrivalStream
from repro.storage.bandwidth import StorageBandwidthModel
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)


@pytest.fixture(scope="module")
def serving_store(tiny_imagenet_like):
    """A progressive store over a dozen tiny synthetic images."""
    store = ImageStore(encoder=ProgressiveEncoder(quality=85))
    for sample in list(tiny_imagenet_like)[:12]:
        store.put(f"img{sample.index}", sample.render(), label=sample.label)
    return store


@pytest.fixture(scope="module")
def backbone():
    return resnet_tiny(num_classes=4, base_width=4, seed=0)


@pytest.fixture(scope="module")
def read_policy():
    return ScanReadPolicy(ssim_thresholds={24: 0.90, 32: 0.92, 48: 0.95})


def make_dynamic_policy():
    """Fresh policy per run so mutable policy state cannot leak across runs."""
    scale_model = mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=1)
    predictor = ScaleModelPredictor(scale_model, RESOLUTIONS, scale_resolution=24)
    return DynamicResolutionPolicy(predictor)


def make_config(**overrides):
    defaults = dict(
        resolutions=RESOLUTIONS,
        scale_resolution=24,
        num_workers=2,
        max_batch_size=4,
        max_wait_s=0.004,
        scale_model_seconds=0.0004,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def run_trace(store, backbone, read_policy, trace, cache=None, policy=None, **config):
    server = InferenceServer(
        store,
        backbone,
        policy or make_dynamic_policy(),
        make_config(**config),
        read_policy=read_policy,
        cache=cache,
    )
    return server.run(trace)


class TestDeterminism:
    def test_identical_configs_produce_identical_reports(
        self, serving_store, backbone, read_policy
    ):
        trace = PoissonArrivals(rate_rps=400.0, seed=5, zipf_alpha=1.0).trace(
            serving_store.keys(), 40
        )
        first = run_trace(
            serving_store, backbone, read_policy, trace, cache=ScanCache(300_000)
        )
        second = run_trace(
            serving_store, backbone, read_policy, trace, cache=ScanCache(300_000)
        )
        assert first == second
        assert first.format() == second.format()

    def test_different_traffic_seeds_change_the_report(
        self, serving_store, backbone, read_policy
    ):
        keys = serving_store.keys()
        a = PoissonArrivals(rate_rps=400.0, seed=5).trace(keys, 30)
        b = PoissonArrivals(rate_rps=400.0, seed=6).trace(keys, 30)
        report_a = run_trace(serving_store, backbone, read_policy, a)
        report_b = run_trace(serving_store, backbone, read_policy, b)
        assert report_a != report_b


class TestCacheEffect:
    def test_cache_reduces_bytes_read_from_store(
        self, serving_store, backbone, read_policy
    ):
        """Acceptance criterion: same trace, with and without the cache tier."""
        trace = PoissonArrivals(rate_rps=400.0, seed=5, zipf_alpha=1.0).trace(
            serving_store.keys(), 40
        )
        cached = run_trace(
            serving_store, backbone, read_policy, trace, cache=ScanCache(300_000)
        )
        cacheless = run_trace(serving_store, backbone, read_policy, trace, cache=None)
        assert cached.bytes_from_store < cacheless.bytes_from_store
        assert cached.bytes_from_cache > 0
        assert cacheless.bytes_from_cache == 0
        assert cached.cache_hit_rate > 0.0
        assert cacheless.cache_hit_rate is None
        # The cache changes byte provenance, not what was served.
        assert cached.num_requests == cacheless.num_requests == len(trace)
        assert cached.resolution_histogram == cacheless.resolution_histogram
        assert cached.accuracy == cacheless.accuracy

    def test_warm_cache_serves_exactly_the_consumed_bytes(
        self, serving_store, backbone, read_policy
    ):
        """Regression: stage-2 hits on pre-warmed keys must count as cache bytes.

        A fully warm cache serves every byte a request consumes, so the warm
        run's cache bytes must equal the bytes a cache-less run of the same
        trace pulls from the store.
        """
        trace = PoissonArrivals(rate_rps=400.0, seed=5, zipf_alpha=1.0).trace(
            serving_store.keys(), 20
        )
        cacheless = run_trace(serving_store, backbone, read_policy, trace, cache=None)
        cache = ScanCache(500_000)  # big enough that nothing is evicted
        run_trace(serving_store, backbone, read_policy, trace, cache=cache)  # warm it
        warm = run_trace(serving_store, backbone, read_policy, trace, cache=cache)
        assert warm.bytes_from_store == 0
        assert warm.bytes_from_cache == cacheless.bytes_from_store

    def test_reused_server_reports_per_run_metrics(
        self, serving_store, backbone, read_policy
    ):
        """Regression: a second run() must not inherit the first run's tallies."""
        trace = PoissonArrivals(rate_rps=400.0, seed=5, zipf_alpha=1.0).trace(
            serving_store.keys(), 20
        )
        policy = LoadAdaptiveResolutionPolicy(
            make_dynamic_policy(), RESOLUTIONS, queue_threshold=4
        )
        server = InferenceServer(
            serving_store,
            backbone,
            policy,
            make_config(),
            read_policy=read_policy,
            cache=ScanCache(500_000),
        )
        first = server.run(trace)
        second = server.run(trace)
        assert second.num_requests == len(trace)
        assert second.degraded_requests <= second.num_requests
        # The cache stays warm across runs, so the second run fetches less...
        assert second.bytes_from_store <= first.bytes_from_store
        # ...and its hit rate reflects this run only (never above 100%).
        assert 0.0 <= second.cache_hit_rate <= 1.0

    def test_transfer_cost_tracks_store_bytes(self, serving_store, backbone, read_policy):
        trace = PoissonArrivals(rate_rps=400.0, seed=5, zipf_alpha=1.0).trace(
            serving_store.keys(), 30
        )
        cached = run_trace(
            serving_store, backbone, read_policy, trace, cache=ScanCache(300_000)
        )
        cacheless = run_trace(serving_store, backbone, read_policy, trace, cache=None)
        assert cached.transfer_dollars < cacheless.transfer_dollars


class TestServingBehaviour:
    def test_every_request_is_served_exactly_once(
        self, serving_store, backbone, read_policy
    ):
        trace = OnOffArrivals(
            on_rate_rps=800.0, mean_on_s=0.03, mean_off_s=0.1, seed=2
        ).trace(serving_store.keys(), 30)
        report = run_trace(serving_store, backbone, read_policy, trace)
        assert report.num_requests == len(trace)
        assert sum(report.resolution_histogram.values()) == len(trace)

    def test_batches_respect_max_batch_size(self, serving_store, backbone, read_policy):
        trace = PoissonArrivals(rate_rps=2000.0, seed=1).trace(serving_store.keys(), 24)
        server = InferenceServer(
            serving_store,
            backbone,
            StaticResolutionPolicy(32),
            make_config(max_batch_size=3, num_workers=1),
            read_policy=read_policy,
        )
        report = server.run(trace)
        assert 1.0 <= report.mean_batch_size <= 3.0

    def test_latency_percentiles_are_ordered(self, serving_store, backbone, read_policy):
        trace = PoissonArrivals(rate_rps=600.0, seed=3).trace(serving_store.keys(), 30)
        report = run_trace(serving_store, backbone, read_policy, trace)
        assert 0 < report.p50_latency_ms <= report.p95_latency_ms <= report.p99_latency_ms
        assert report.throughput_rps > 0
        assert report.duration_s > 0

    def test_closed_loop_serves_the_full_quota(self, serving_store, backbone, read_policy):
        clients = ClosedLoopClients(
            num_clients=3, think_time_s=0.002, requests_per_client=4, seed=9
        )
        server = InferenceServer(
            serving_store,
            backbone,
            StaticResolutionPolicy(32),
            make_config(num_workers=1),
            read_policy=read_policy,
        )
        report = server.run_closed_loop(clients, serving_store.keys())
        assert report.num_requests == clients.total_requests

    def test_empty_trace_is_rejected(self, serving_store, backbone, read_policy):
        server = InferenceServer(
            serving_store,
            backbone,
            StaticResolutionPolicy(32),
            make_config(),
            read_policy=read_policy,
        )
        with pytest.raises(ValueError):
            server.run([])


class TestLoadAdaptation:
    def test_overload_degrades_resolution_and_sheds_bytes(
        self, serving_store, backbone, read_policy
    ):
        """A slow single worker builds a deep queue; the adaptive policy sheds."""
        trace = PoissonArrivals(rate_rps=2000.0, seed=4).trace(serving_store.keys(), 30)

        def run(policy):
            server = InferenceServer(
                serving_store,
                backbone,
                policy,
                make_config(num_workers=1, max_batch_size=4, max_wait_s=0.002),
                read_policy=read_policy,
                batch_cost=LinearBatchCost(per_item_seconds=0.01, fixed_seconds=0.01),
            )
            return server.run(trace)

        rigid = run(StaticResolutionPolicy(48))
        adaptive_policy = LoadAdaptiveResolutionPolicy(
            StaticResolutionPolicy(48), RESOLUTIONS, queue_threshold=4
        )
        adaptive = run(adaptive_policy)

        assert adaptive_policy.degraded_requests > 0
        assert adaptive.degraded_requests == adaptive_policy.degraded_requests
        assert min(adaptive.resolution_histogram) < 48
        assert rigid.resolution_histogram == {48: len(trace)}

    def test_no_degradation_below_threshold(self):
        inner = StaticResolutionPolicy(48)
        policy = LoadAdaptiveResolutionPolicy(inner, RESOLUTIONS, queue_threshold=8)
        policy.observe_queue_depth(8)
        assert policy.select(np.empty(0)) == 48
        assert policy.degraded_requests == 0

    def test_degradation_scales_with_overload_and_is_capped(self):
        inner = StaticResolutionPolicy(48)
        policy = LoadAdaptiveResolutionPolicy(inner, RESOLUTIONS, queue_threshold=4)
        policy.observe_queue_depth(5)  # one threshold multiple -> one step
        assert policy.select(np.empty(0)) == 32
        policy.observe_queue_depth(9)  # two multiples -> two steps
        assert policy.select(np.empty(0)) == 24
        policy.observe_queue_depth(1000)  # cannot go below the ladder floor
        assert policy.select(np.empty(0)) == 24

    def test_overload_never_raises_a_below_ladder_choice(self):
        """Shedding load must not upgrade a choice below the ladder floor."""
        inner = StaticResolutionPolicy(16)  # below the (24, 32, 48) ladder
        policy = LoadAdaptiveResolutionPolicy(inner, RESOLUTIONS, queue_threshold=2)
        policy.observe_queue_depth(100)
        assert policy.select(np.empty(0)) == 16
        assert policy.degraded_requests == 0


# ---------------------------------------------------------------------------
# Zero-load parity with the paper's Fig-4 steps
# ---------------------------------------------------------------------------


def fig4_steps(store, backbone, policy, read_policy, key):
    """The paper's Fig-4 steps for one request, with no memo, batcher or cache.

    A dynamic policy reads the scale model's calibrated scan prefix, chooses
    the backbone resolution from those pixels, and tops the read up to the
    chosen resolution's prefix; a static policy makes its one read.  The
    image is then cropped, resized and classified by the backbone.
    """
    stored = store.metadata(key)
    encoded = stored.encoded
    if isinstance(policy, StaticResolutionPolicy):
        resolution = policy.select(np.empty(0))
        scans = read_policy.scans_for(encoded, resolution, key=key)
        image, receipt = store.read(key, scans)
        bytes_read = receipt.bytes_read
    else:
        stage1 = read_policy.scans_for(encoded, 24, key=key)
        image, receipt = store.read(key, stage1)
        bytes_read = receipt.bytes_read
        resolution = policy.select(image)
        scans = max(stage1, read_policy.scans_for(encoded, resolution, key=key))
        if scans > stage1:
            image, top_up = store.read_additional(key, stage1, scans)
            bytes_read += top_up.bytes_read
    inputs = InferencePreprocessor(crop_ratio=0.75)(image, resolution)
    backbone.eval()
    return dict(
        prediction=int(np.argmax(backbone(inputs)[0])),
        resolution=resolution,
        scans_read=scans,
        bytes_from_store=bytes_read,
        total_bytes=encoded.total_bytes,
        label=stored.label,
    )


def zero_load_policy(name):
    """The quickstart's three policies; ``dynamic-<seed>-<mode>`` varies the
    (untrained) scale model and whether it prefers the cheaper resolution."""
    if name.startswith("static-"):
        return StaticResolutionPolicy(int(name.split("-")[1])), ScanReadPolicy()
    _, seed, mode = name.split("-")
    predictor = ScaleModelPredictor(
        mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=int(seed)),
        RESOLUTIONS,
        scale_resolution=24,
    )
    policy = DynamicResolutionPolicy(predictor, prefer_cheaper=mode == "cheaper")
    return policy, ScanReadPolicy(ssim_thresholds={r: 0.96 for r in RESOLUTIONS})


class TestZeroLoadParity:
    """At zero load the server is the paper's two-model pipeline, step for step.

    One worker, one-item batches, no batching wait, no cache and arrivals a
    second apart: every request is served alone, so each record must equal
    what :func:`fig4_steps` computes for its key.  The dynamic scale models
    are seeded so that some of their choices need a stage-2 top-up.
    """

    @pytest.mark.parametrize(
        "name",
        [
            "static-32",
            "static-48",
            *(
                f"dynamic-{seed}-{mode}"
                for seed in (0, 1, 5)
                for mode in ("cheaper", "argmax")
            ),
        ],
    )
    def test_every_record_matches_the_fig4_steps(self, serving_store, backbone, name):
        policy, read_policy = zero_load_policy(name)
        server = InferenceServer(
            serving_store,
            backbone,
            policy,
            make_config(num_workers=1, max_batch_size=1, max_wait_s=0.0),
            read_policy=read_policy,
        )
        # Every key three times: the later passes replay memoized read plans.
        keys = serving_store.keys() * 3
        server.run(ArrivalStream(np.arange(len(keys), dtype=np.float64), keys))
        served = sorted(server.last_served, key=lambda record: record.request_id)
        assert [record.key for record in served] == keys
        for record in served:
            expected = fig4_steps(serving_store, backbone, policy, read_policy, record.key)
            observed = {field: getattr(record, field) for field in expected}
            assert observed == expected, record.key
            assert record.bytes_from_cache == 0
            assert record.batch_size == 1 and record.queue_wait == 0.0
        if server.is_dynamic:
            stage1 = [
                read_policy.scans_for(serving_store.metadata(key).encoded, 24, key=key)
                for key in keys
            ]
            assert any(r.scans_read > s for r, s in zip(served, stage1))


# ---------------------------------------------------------------------------
# Read plans: a cacheless server against the unmemoized read path
# ---------------------------------------------------------------------------


class _Recorder(ServerObserver):
    """Collect every event; subscribing it turns event elision off."""

    def __init__(self) -> None:
        self.events: list[ServerEvent] = []

    def on_event(self, event: ServerEvent) -> None:
        self.events.append(event)


def plan_policy(name):
    """A fresh ``static-<r>``, ``dynamic`` or ``adaptive-<inner>`` policy."""
    if name.startswith("adaptive-"):
        inner = plan_policy(name[len("adaptive-") :])
        return LoadAdaptiveResolutionPolicy(inner, RESOLUTIONS, queue_threshold=2)
    if name == "dynamic":
        return make_dynamic_policy()
    return StaticResolutionPolicy(int(name.split("-")[1]))


def record_columns(records: RequestRecords) -> dict:
    """All fourteen record columns, as plain lists."""
    return {name: list(getattr(records, name)) for name in RequestRecords.__slots__}


def serve_twice(store, backbone, read_policy, policy_name, trace, observed, **options):
    """Run one fresh server twice over ``trace``; what each run read and served."""
    recorder = _Recorder()
    server = InferenceServer(
        store,
        backbone,
        plan_policy(policy_name),
        make_config(),
        read_policy=read_policy,
        observers=[recorder] if observed else (),
        **options,
    )
    runs = []
    for _ in range(2):
        reads, bytes_read = store.read_count, store.total_bytes_read
        report = server.run(trace)
        runs.append(
            dict(
                records=record_columns(server.last_records),
                store_requests=server.store_requests,
                store_reads=store.read_count - reads,
                store_bytes=store.total_bytes_read - bytes_read,
                degraded=report.degraded_requests,
                events=recorder.events,
            )
        )
        recorder.events = []
    return runs


class TestReadPlans:
    """Without a cache tier the server replays memoized read plans.

    The oracle is a server whose cache admits nothing: every prefix includes
    the codec header, so ``ScanCache(capacity_bytes=1)`` never holds a scan
    and that server makes every read through ``store.read`` /
    ``read_additional``.  A cacheless server must serve, count and narrate
    exactly what it does, on the run that builds the plans and on the run
    that replays them.
    """

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        policy_name=st.sampled_from(
            ["static-24", "static-48", "dynamic", "adaptive-dynamic", "adaptive-static-48"]
        ),
        observed=st.booleans(),
        seed=st.integers(0, 2**16),
        rate_rps=st.sampled_from([300.0, 3000.0, 30000.0]),
        num_requests=st.integers(1, 30),
    )
    def test_plans_serve_and_count_what_the_reads_do(
        self,
        serving_store,
        backbone,
        read_policy,
        policy_name,
        observed,
        seed,
        rate_rps,
        num_requests,
    ):
        trace = PoissonArrivals(rate_rps=rate_rps, seed=seed, zipf_alpha=1.0).trace(
            serving_store.keys(), num_requests
        )
        args = (serving_store, backbone, read_policy, policy_name, trace, observed)
        planned = serve_twice(*args)
        unmemoized = serve_twice(*args, cache=ScanCache(capacity_bytes=1))
        for replayed, read in zip(planned, unmemoized):
            assert replayed == read

    @pytest.mark.parametrize("policy_name", ["static-48", "dynamic"])
    def test_an_overwritten_key_is_planned_again(
        self, tiny_imagenet_like, backbone, policy_name
    ):
        """A plan belongs to the object it read: once ``ImageStore.put``
        replaces a key, the next request reads the new object."""
        samples = list(tiny_imagenet_like)
        store = ImageStore(encoder=ProgressiveEncoder(quality=85))
        for sample in samples[:3]:
            store.put(f"img{sample.index}", sample.render(), label=sample.label)
        keys = store.keys()
        trace = ArrivalStream(np.arange(len(keys), dtype=np.float64), keys)
        # Shared by both servers, so only the read plans can differ.
        policy = plan_policy(policy_name)
        scan_policy = ScanReadPolicy(ssim_thresholds={24: 0.90, 32: 0.92, 48: 0.95})

        def server():
            return InferenceServer(
                store, backbone, policy, make_config(), read_policy=scan_policy
            )

        reused = server()
        reused.run(trace)
        before = record_columns(reused.last_records)
        store.put(keys[0], samples[7].render(), label=samples[7].label)
        reused.run(trace)
        fresh = server()
        fresh.run(trace)
        # Read columns only: the preprocess and batch memos are keyed by the
        # store key as well, so predictions are outside what plans decide.
        reads = ("resolutions", "scans_read", "bytes_from_store", "total_bytes", "ready_times")
        after = record_columns(reused.last_records)
        expected = record_columns(fresh.last_records)
        assert {name: after[name] for name in reads} == {name: expected[name] for name in reads}
        assert before["total_bytes"] != expected["total_bytes"]

    def test_a_swapped_link_gets_its_own_plans(self, serving_store, backbone, read_policy):
        """Degraded storage swaps ``server.bandwidth`` mid-life; plans made on
        the old link must not price reads on the new one."""
        trace = PoissonArrivals(rate_rps=400.0, seed=5, zipf_alpha=1.0).trace(
            serving_store.keys(), 30
        )
        base = StorageBandwidthModel()
        slow = replace(base, link_gbps=base.link_gbps / 4)

        def server(bandwidth):
            return InferenceServer(
                serving_store,
                backbone,
                make_dynamic_policy(),
                make_config(),
                read_policy=read_policy,
                bandwidth=bandwidth,
            )

        swapped = server(base)
        swapped.run(trace)
        fast = record_columns(swapped.last_records)
        swapped.bandwidth = slow
        swapped.run(trace)
        fresh = server(slow)
        fresh.run(trace)
        assert record_columns(swapped.last_records) == record_columns(fresh.last_records)
        assert fast["ready_times"] != record_columns(fresh.last_records)["ready_times"]


# ---------------------------------------------------------------------------
# The lean per-request path: elided runs against observed ones
# ---------------------------------------------------------------------------


class _DropSome(AdmissionPolicy):
    """Drops every fourth request id and any arrival that finds a deep queue.

    It does not override ``on_event``, so an unobserved run still elides
    its events while the policy takes a ``Request`` per arrival.
    """

    def admit(self, request, now, queue_depth):
        if request.request_id % 4 == 3:
            return AdmissionDecision.drop("every-fourth")
        if queue_depth > 6:
            return AdmissionDecision.drop("queue-depth")
        return AdmissionDecision.admit()


def serve_once(store, backbone, read_policy, feed, cache, policy_name, drops, seed, observed):
    """One fresh server's run: the server, its report, the records its
    ``RequestCompleted`` events carried, and the ``Request`` objects the
    loop itself built."""
    built = []

    def counting_request(*args, **kwargs):
        built.append(Request(*args, **kwargs))
        return built[-1]

    recorder = _Recorder()
    server = InferenceServer(
        store,
        backbone,
        plan_policy(policy_name),
        make_config(),
        read_policy=read_policy,
        cache=ScanCache(capacity_bytes=60_000) if cache else None,
        admission=_DropSome() if drops else None,
        observers=[recorder] if observed else (),
    )
    keys = store.keys()
    with mock.patch.object(server_module, "Request", counting_request):
        if feed == "closed-loop":
            clients = ClosedLoopClients(
                num_clients=4,
                think_time_s=0.002,
                requests_per_client=5,
                seed=seed,
                zipf_alpha=1.0,
            )
            report = server.run_closed_loop(clients, keys)
        else:
            stream = PoissonArrivals(rate_rps=3000.0, seed=seed, zipf_alpha=1.0).stream(keys, 24)
            report = server.run(stream if feed == "stream" else list(stream))
    completed = [e.record for e in recorder.events if isinstance(e, RequestCompleted)]
    return server, report, completed, built


class TestLeanPath:
    """Eliding events, ``Request`` objects and record appends changes nothing.

    A run with no active observer builds no ``Request`` for a cursor-fed
    arrival (unless an admission policy takes one), carries the arrival's
    identity in the in-flight record, and buffers its completions as rows.
    The same run observed by a recorder builds every object; both must
    record, drop and report the same thing.
    """

    @pytest.mark.parametrize(
        "feed, cache, policy_name, drops",
        list(
            itertools.product(
                ["stream", "requests", "closed-loop"],
                [False, True],
                ["static-48", "dynamic", "adaptive-dynamic"],
                [False, True],
            )
        ),
    )
    @settings(max_examples=2, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_elided_and_observed_runs_agree(
        self, serving_store, backbone, read_policy, feed, cache, policy_name, drops, seed
    ):
        args = (serving_store, backbone, read_policy, feed, cache, policy_name, drops, seed)
        elided, elided_report, _, elided_built = serve_once(*args, observed=False)
        observed, observed_report, completed, observed_built = serve_once(*args, observed=True)
        assert record_columns(elided.last_records) == record_columns(observed.last_records)
        assert elided.last_dropped == observed.last_dropped
        assert elided_report.to_json() == observed_report.to_json()
        # The k-th RequestCompleted carries the k-th record.
        assert completed == observed.last_records.materialize()
        if drops:
            assert elided.last_dropped
        # Only the cursor builds Requests: one per arrival when something
        # takes them (events, a real admission policy), else none.
        if feed == "stream":
            assert len(observed_built) == 24
            assert len(elided_built) == (24 if drops else 0)
        else:
            assert elided_built == observed_built == []

    @pytest.mark.parametrize("observed", [False, True])
    def test_each_completion_answers_the_client_that_sent_it(
        self, serving_store, backbone, read_policy, observed
    ):
        """A closed-loop client has one request in flight: its next arrival
        follows its own previous completion, whichever client finishes first."""
        clients = ClosedLoopClients(
            num_clients=6, think_time_s=0.001, requests_per_client=8, seed=4, zipf_alpha=1.0
        )
        issued = []
        next_request = clients.next_request

        def recording_next_request(client_id, completion_time):
            follow_up = next_request(client_id, completion_time)
            if follow_up is not None:
                issued.append(follow_up)
            return follow_up

        clients.next_request = recording_next_request
        server = InferenceServer(
            serving_store,
            backbone,
            make_dynamic_policy(),
            make_config(num_workers=2),
            read_policy=read_policy,
            observers=[_Recorder()] if observed else (),
        )
        report = server.run_closed_loop(clients, serving_store.keys())
        assert report.num_requests == clients.total_requests
        completed = {r.request_id: r.completion_time for r in server.last_served}
        # start() replays the same first round, so it names the first requests.
        requests = clients.start(serving_store.keys()) + issued
        for client in range(clients.num_clients):
            own = sorted(
                (r for r in requests if r.client_id == client), key=lambda r: r.arrival_time
            )
            assert len(own) == clients.requests_per_client
            for previous, current in zip(own, own[1:]):
                assert current.arrival_time >= completed[previous.request_id]

    def test_a_run_longer_than_the_record_buffer_folds_every_completion(
        self, serving_store, backbone, read_policy
    ):
        count = 2 * _RECORD_BUFFER_ROWS + 7
        keys = serving_store.keys()
        stream = PoissonArrivals(rate_rps=2000.0, seed=3, zipf_alpha=1.0).stream(keys, count)
        server = InferenceServer(
            serving_store,
            backbone,
            StaticResolutionPolicy(24),
            make_config(max_batch_size=1, num_workers=4),
            read_policy=read_policy,
        )
        report = server.run(stream)
        assert report.num_requests == count == len(server.last_records)
        assert sorted(server.last_records.request_ids) == list(range(count))
        by_id = dict(zip(server.last_records.request_ids, server.last_records.keys))
        assert [by_id[i] for i in range(count)] == stream.keys
