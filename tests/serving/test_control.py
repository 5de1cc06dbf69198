"""Control-plane tests: admission protocols, EWMA smoothing, prefetch accounting.

The contract under test is the ISSUE's acceptance criterion: the control
plane is a *seam*, so any admission policy that never drops must leave the
serving pipeline's output byte-identical to the no-op default, while the
real controllers (EWMA admission, next-scan prefetch) must demonstrably
shed load and pre-warm the cache with honest accounting.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import StaticResolutionPolicy
from repro.nn.resnet import resnet_tiny
from repro.serving import (
    AdmissionDecision,
    AdmissionPolicy,
    AlwaysAdmit,
    EwmaAdmissionController,
    InferenceServer,
    NextScanPrefetcher,
    NoPrefetch,
    OnOffArrivals,
    PoissonArrivals,
    ScanCache,
    ServerConfig,
)
from repro.serving.batcher import LinearBatchCost
from repro.serving.events import CacheProbed, PrefetchIssued, RequestCompleted
from repro.serving.metrics import ServedRequest
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)


@pytest.fixture(scope="module")
def control_store(tiny_imagenet_like):
    store = ImageStore(encoder=ProgressiveEncoder(quality=85))
    for sample in list(tiny_imagenet_like)[:10]:
        store.put(f"img{sample.index}", sample.render(), label=sample.label)
    return store


@pytest.fixture(scope="module")
def backbone():
    return resnet_tiny(num_classes=4, base_width=4, seed=0)


@pytest.fixture(scope="module")
def read_policy():
    return ScanReadPolicy(ssim_thresholds={24: 0.90, 32: 0.92, 48: 0.95})


def make_server(store, backbone, read_policy, admission=None, prefetch=None, cache=None, **config):
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
        read_policy=read_policy,
        cache=cache,
        batch_cost=LinearBatchCost(per_item_seconds=0.002, fixed_seconds=0.002),
        admission=admission,
        prefetch=prefetch,
    )


def completed(latency: float) -> RequestCompleted:
    """A completion event with the given latency, for feeding controllers."""
    return RequestCompleted(
        time=latency,
        record=ServedRequest(
            request_id=0,
            key="img0",
            arrival_time=0.0,
            ready_time=0.1 * latency,
            dispatch_time=0.5 * latency,
            completion_time=latency,
            resolution=32,
            scans_read=3,
            bytes_from_store=100,
            bytes_from_cache=0,
            total_bytes=400,
            batch_size=1,
            prediction=1,
            label=1,
        ),
    )


class TestEwmaSmoothing:
    def test_first_observation_seeds_the_average(self):
        controller = EwmaAdmissionController(alpha=0.25, depth_threshold=100.0)
        controller.admit(None, 0.0, 8)
        assert controller.smoothed_depth == pytest.approx(8.0)

    def test_smoothing_follows_the_ewma_recurrence(self):
        controller = EwmaAdmissionController(alpha=0.25, depth_threshold=100.0)
        smoothed = None
        for depth in (4, 12, 0, 20):
            controller.admit(None, 0.0, depth)
            smoothed = depth if smoothed is None else 0.25 * depth + 0.75 * smoothed
            assert controller.smoothed_depth == pytest.approx(smoothed)

    def test_alpha_one_tracks_the_instantaneous_depth(self):
        controller = EwmaAdmissionController(alpha=1.0, depth_threshold=100.0)
        for depth in (3, 17, 5):
            controller.admit(None, 0.0, depth)
            assert controller.smoothed_depth == pytest.approx(float(depth))

    def test_drops_only_when_smoothed_depth_crosses_threshold(self):
        controller = EwmaAdmissionController(alpha=0.5, depth_threshold=10.0)
        # Instantaneous spike above threshold, smoothed from 0: 0.5*30 = 15 > 10
        controller.admit(None, 0.0, 0)
        decision = controller.admit(None, 0.0, 30)
        assert not decision.admitted
        assert decision.reason == "queue-depth"
        # A single spike through a heavy average does not drop.
        calm = EwmaAdmissionController(alpha=0.1, depth_threshold=10.0)
        calm.admit(None, 0.0, 0)
        assert calm.admit(None, 0.0, 30).admitted  # 0.1*30 = 3 <= 10

    def test_latency_ewma_and_deadline_drops(self):
        controller = EwmaAdmissionController(
            alpha=0.5, depth_threshold=1000.0, deadline_s=0.05, latency_alpha=0.5
        )
        # No completions yet: deadline cannot be evaluated, so admit.
        assert controller.admit(None, 0.0, 1).admitted
        controller.on_event(completed(0.2))
        assert controller.smoothed_latency_s == pytest.approx(0.2)
        decision = controller.admit(None, 0.0, 4)
        assert not decision.admitted and decision.reason == "deadline"
        # Fast completions pull the EWMA back under the deadline.
        for _ in range(5):
            controller.on_event(completed(0.001))
        assert controller.admit(None, 0.0, 4).admitted

    def test_idle_server_escapes_a_frozen_deadline_estimate(self):
        """Regression: with the queue empty the deadline check must not
        apply, otherwise a congested latency EWMA (which only completions
        can refresh) would lock out all traffic forever."""
        controller = EwmaAdmissionController(
            alpha=0.5, depth_threshold=1000.0, deadline_s=0.05, latency_alpha=0.5
        )
        controller.on_event(completed(0.5))  # estimate far above the deadline
        assert not controller.admit(None, 0.0, 3).admitted  # queued: shed
        decision = controller.admit(None, 1.0, 0)  # idle: always attempt
        assert decision.admitted
        assert controller.drops_by_reason == {"deadline": 1}

    def test_drop_accounting_by_reason(self):
        controller = EwmaAdmissionController(
            alpha=1.0, depth_threshold=5.0, deadline_s=0.01, latency_alpha=1.0
        )
        controller.admit(None, 0.0, 20)  # queue-depth drop
        controller.on_event(completed(0.5))
        controller.admit(None, 0.0, 2)  # under the depth bound: deadline drop
        controller.admit(None, 0.0, 20)  # queue-depth drop again
        assert controller.dropped_requests == 3
        assert controller.drops_by_reason == {"queue-depth": 2, "deadline": 1}

    def test_reset_counters_clears_tallies_and_smoothing(self):
        controller = EwmaAdmissionController(alpha=0.5, depth_threshold=1.0)
        controller.admit(None, 0.0, 50)
        controller.on_event(completed(0.5))
        controller.reset_counters()
        assert controller.dropped_requests == 0
        assert controller.drops_by_reason == {}
        assert controller.smoothed_depth is None
        assert controller.smoothed_latency_s is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EwmaAdmissionController(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaAdmissionController(alpha=1.5)
        with pytest.raises(ValueError):
            EwmaAdmissionController(depth_threshold=0)
        with pytest.raises(ValueError):
            EwmaAdmissionController(deadline_s=0.0)
        with pytest.raises(ValueError):
            EwmaAdmissionController(latency_alpha=0.0)


class TestAdmissionInTheLoop:
    def test_overload_drops_and_conserves_offered_requests(
        self, control_store, backbone, read_policy
    ):
        trace = PoissonArrivals(rate_rps=3000.0, seed=4, zipf_alpha=1.0).stream(
            control_store.keys(), 40
        )
        admission = EwmaAdmissionController(alpha=0.5, depth_threshold=3.0)
        server = make_server(
            control_store, backbone, read_policy, admission=admission, num_workers=1
        )
        report = server.run(trace)
        assert report.dropped_requests > 0
        assert report.dropped_requests == admission.dropped_requests
        assert report.num_requests + report.dropped_requests == len(trace)
        assert report.offered_requests == len(trace)
        assert 0.0 < report.drop_rate < 1.0
        assert len(server.last_dropped) == report.dropped_requests
        assert all(reason == "queue-depth" for _, reason in server.last_dropped)

    def test_shedding_load_tightens_the_report_against_no_op(
        self, control_store, backbone, read_policy
    ):
        trace = PoissonArrivals(rate_rps=3000.0, seed=4, zipf_alpha=1.0).stream(
            control_store.keys(), 40
        )
        rigid = make_server(
            control_store, backbone, read_policy, num_workers=1
        ).run(trace)
        shed = make_server(
            control_store,
            backbone,
            read_policy,
            admission=EwmaAdmissionController(alpha=0.5, depth_threshold=3.0),
            num_workers=1,
        ).run(trace)
        assert rigid.dropped_requests == 0
        assert shed.num_requests < rigid.num_requests
        # Shedding work must cut the bytes read along with the queueing.
        assert shed.bytes_from_store < rigid.bytes_from_store
        assert shed.p99_latency_ms < rigid.p99_latency_ms

    def test_all_dropped_is_a_well_defined_report(
        self, control_store, backbone, read_policy
    ):
        class DropEverything(AdmissionPolicy):
            dropped_requests = 0

            def admit(self, request, now, queue_depth):
                self.dropped_requests += 1
                return AdmissionDecision.drop("unconditional")

            def reset_counters(self):
                self.dropped_requests = 0

        trace = PoissonArrivals(rate_rps=500.0, seed=1).stream(control_store.keys(), 10)
        report = make_server(
            control_store, backbone, read_policy, admission=DropEverything()
        ).run(trace)
        assert report.num_requests == 0
        assert report.dropped_requests == 10
        assert report.drop_rate == 1.0
        assert report.p99_latency_ms is None
        assert "requests dropped       10" in report.format()


class TestNeverDropEquivalence:
    """Any admission policy that never drops is indistinguishable from the default."""

    @settings(max_examples=6, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=1.0),
        threshold=st.floats(min_value=1e6, max_value=1e9),
        latency_alpha=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_non_dropping_ewma_matches_the_no_op_default(
        self, control_store, backbone, read_policy, alpha, threshold, latency_alpha
    ):
        trace = PoissonArrivals(rate_rps=1500.0, seed=6, zipf_alpha=1.0).stream(
            control_store.keys(), 16
        )
        baseline = make_server(
            control_store, backbone, read_policy, admission=AlwaysAdmit()
        ).run(trace)
        # A threshold this high never trips, so the controller admits all —
        # and must therefore reproduce the default report byte-for-byte.
        lenient = EwmaAdmissionController(
            alpha=alpha, depth_threshold=threshold, latency_alpha=latency_alpha
        )
        report = make_server(
            control_store, backbone, read_policy, admission=lenient
        ).run(trace)
        assert lenient.dropped_requests == 0
        assert report == baseline
        assert report.format() == baseline.format()
        assert report.to_dict() == baseline.to_dict()


class TestPrefetchPlanning:
    def test_short_gap_or_no_cache_plans_nothing(
        self, control_store, backbone, read_policy
    ):
        prefetcher = NextScanPrefetcher(idle_threshold_s=0.05)
        cacheless = make_server(control_store, backbone, read_policy)
        assert prefetcher.plan(1.0, 10.0, cacheless) == []
        cached = make_server(
            control_store, backbone, read_policy, cache=ScanCache(300_000)
        )
        assert prefetcher.plan(1.0, 0.01, cached) == []

    def test_plans_target_the_next_calibrated_level_of_resident_keys(
        self, control_store, backbone, read_policy
    ):
        cache = ScanCache(500_000)
        server = make_server(
            control_store, backbone, read_policy, cache=cache
        )
        key = control_store.keys()[0]
        encoded = control_store.metadata(key).encoded
        levels = sorted(
            {read_policy.scans_for(encoded, r, key=key) for r in RESOLUTIONS}
        )
        cache.read_through(control_store, key, levels[0])  # make the key resident
        prefetcher = NextScanPrefetcher(idle_threshold_s=0.05, max_keys_per_gap=8)
        actions = prefetcher.plan(1.0, 1.0, server)
        assert [a.key for a in actions] == [key]
        next_levels = [level for level in levels if level > levels[0]]
        assert actions[0].num_scans == next_levels[0]

    def test_fully_topped_up_keys_are_not_replanned(
        self, control_store, backbone, read_policy
    ):
        cache = ScanCache(500_000)
        server = make_server(control_store, backbone, read_policy, cache=cache)
        key = control_store.keys()[0]
        encoded = control_store.metadata(key).encoded
        top = max(read_policy.scans_for(encoded, r, key=key) for r in RESOLUTIONS)
        cache.read_through(control_store, key, top)
        prefetcher = NextScanPrefetcher(idle_threshold_s=0.05)
        assert prefetcher.plan(1.0, 1.0, server) == []

    def test_plan_is_seeded_and_bounded(self, control_store, backbone, read_policy):
        cache = ScanCache(500_000)
        server = make_server(control_store, backbone, read_policy, cache=cache)
        for key in control_store.keys()[:6]:
            cache.read_through(control_store, key, 1)
        first = NextScanPrefetcher(idle_threshold_s=0.05, max_keys_per_gap=3, seed=2)
        second = NextScanPrefetcher(idle_threshold_s=0.05, max_keys_per_gap=3, seed=2)
        plan_a = first.plan(1.0, 1.0, server)
        plan_b = second.plan(1.0, 1.0, server)
        assert plan_a == plan_b
        assert len(plan_a) == 3


class TestPrefetchAccounting:
    def probe(self, key: str, resident: int) -> CacheProbed:
        from repro.serving.arrivals import Request

        return CacheProbed(
            time=0.0,
            request=Request(request_id=0, key=key, arrival_time=0.0),
            requested_scans=3,
            resident_scans=resident,
        )

    def test_hits_and_wasted_bytes(self):
        prefetcher = NextScanPrefetcher()
        prefetcher.on_event(PrefetchIssued(time=0.0, key="a", num_scans=3, bytes_fetched=100))
        prefetcher.on_event(PrefetchIssued(time=0.0, key="b", num_scans=3, bytes_fetched=40))
        assert prefetcher.prefetched_bytes == 140
        assert prefetcher.wasted_bytes == 140  # nothing probed yet
        prefetcher.on_event(self.probe("a", resident=3))
        assert prefetcher.prefetch_hits == 1
        assert prefetcher.used_bytes == 100
        assert prefetcher.wasted_bytes == 40

    def test_evicted_prefetches_count_as_wasted(self):
        prefetcher = NextScanPrefetcher()
        prefetcher.on_event(PrefetchIssued(time=0.0, key="a", num_scans=3, bytes_fetched=100))
        # The key was evicted before the probe: resident_scans == 0.
        prefetcher.on_event(self.probe("a", resident=0))
        assert prefetcher.prefetch_hits == 0
        assert prefetcher.wasted_bytes == 100

    def test_repeat_probes_do_not_double_count(self):
        prefetcher = NextScanPrefetcher()
        prefetcher.on_event(PrefetchIssued(time=0.0, key="a", num_scans=3, bytes_fetched=100))
        prefetcher.on_event(self.probe("a", resident=3))
        prefetcher.on_event(self.probe("a", resident=3))
        assert prefetcher.prefetch_hits == 1
        assert prefetcher.used_bytes == 100

    def test_reset_counters_restores_the_seeded_stream(self):
        prefetcher = NextScanPrefetcher(seed=5)
        first = list(prefetcher._rng.permutation(8))
        prefetcher.on_event(PrefetchIssued(time=0.0, key="a", num_scans=3, bytes_fetched=9))
        prefetcher.reset_counters()
        assert prefetcher.prefetched_bytes == 0
        assert prefetcher.wasted_bytes == 0
        assert list(prefetcher._rng.permutation(8)) == first

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NextScanPrefetcher(idle_threshold_s=0.0)
        with pytest.raises(ValueError):
            NextScanPrefetcher(max_keys_per_gap=0)
        # A float cap would silently unbound the per-gap batch.
        with pytest.raises(ValueError):
            NextScanPrefetcher(max_keys_per_gap=2.5)


class TestPrefetchInTheLoop:
    def bursty_trace(self, store, n=40):
        return OnOffArrivals(
            on_rate_rps=2000.0, mean_on_s=0.03, mean_off_s=0.15, seed=2, zipf_alpha=1.0
        ).stream(store.keys(), n)

    def test_off_phase_prefetch_trades_store_bytes_for_prefetch_bytes(
        self, control_store, backbone, read_policy
    ):
        trace = self.bursty_trace(control_store)
        demand_only = make_server(
            control_store, backbone, read_policy, cache=ScanCache(300_000),
            prefetch=NoPrefetch(),
        ).run(trace)
        prefetcher = NextScanPrefetcher(idle_threshold_s=0.05, max_keys_per_gap=4, seed=3)
        prefetched = make_server(
            control_store, backbone, read_policy, cache=ScanCache(300_000),
            prefetch=prefetcher,
        ).run(trace)
        assert prefetched.prefetch_bytes > 0
        assert prefetched.prefetch_bytes == prefetcher.prefetched_bytes
        assert prefetched.prefetch_hits == prefetcher.prefetch_hits
        assert prefetched.prefetch_wasted_bytes == prefetcher.wasted_bytes
        assert prefetched.prefetch_wasted_bytes <= prefetched.prefetch_bytes
        # Pre-warmed prefixes shift demand bytes from the store to the cache...
        assert prefetched.bytes_from_store <= demand_only.bytes_from_store
        # ...without changing what was served.
        assert prefetched.num_requests == demand_only.num_requests
        assert prefetched.resolution_histogram == demand_only.resolution_histogram
        assert prefetched.accuracy == demand_only.accuracy

    def test_no_op_prefetch_matches_the_bare_server(
        self, control_store, backbone, read_policy
    ):
        trace = self.bursty_trace(control_store, n=24)
        bare = make_server(
            control_store, backbone, read_policy, cache=ScanCache(300_000)
        ).run(trace)
        explicit = make_server(
            control_store, backbone, read_policy, cache=ScanCache(300_000),
            prefetch=NoPrefetch(),
        ).run(trace)
        assert bare == explicit
        assert bare.prefetch_bytes == 0
