"""Sharded-fleet tests: determinism, merge correctness, single-shard equivalence.

The fleet is a composition layer, so its contract is conservation: it must
serve exactly the trace it was given, its fleet-wide totals must be the sum
of its shards, and collapsing it to one shard must reproduce the plain
:class:`~repro.serving.server.InferenceServer` report byte for byte.
"""

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Engine, EngineConfig
from repro.api.config import (
    AdmissionConfig,
    ArrivalsConfig,
    BackboneConfig,
    CacheConfig,
    FleetConfig,
    PolicyConfig,
    ServingConfig,
    StoreConfig,
)
from repro.serving.cache import CacheStats
from repro.serving.fleet import (
    ConsistentHashRouter,
    FleetReport,
    ShardedFleet,
    load_imbalance_factor,
)
from repro.serving.metrics import RequestRecords, build_report
from repro.serving.workload import ArrivalStream

NUM_REQUESTS = 32


def arrivals(stream):
    """A stream's arrivals as ``(request id, key, time)`` tuples."""
    return list(zip(stream.request_ids.tolist(), stream.keys, stream.times.tolist()))


def fleet_config(num_shards=3, cache_bytes=150_000, overrides=None, **fleet_kwargs):
    """A small, fast sharded scenario over an 8-image store."""
    return EngineConfig(
        resolutions=(24, 32, 48),
        scale_resolution=24,
        store=StoreConfig(
            profile="imagenet-like",
            overrides={
                "name": "fleet-test",
                "num_classes": 4,
                "storage_resolution_mean": 96,
                "storage_resolution_std": 10,
            },
            num_images=8,
            seed=3,
        ),
        backbone=BackboneConfig(
            name="resnet-tiny", options={"num_classes": 4, "base_width": 4, "seed": 0}
        ),
        policy=PolicyConfig(name="static", resolution=32),
        ssim_thresholds={24: 0.9, 32: 0.92, 48: 0.95},
        serving=ServingConfig(
            arrivals=ArrivalsConfig(
                name="poisson", options={"rate_rps": 800.0, "seed": 5, "zipf_alpha": 1.0}
            ),
            num_requests=NUM_REQUESTS,
            cache=CacheConfig(capacity_bytes=cache_bytes) if cache_bytes else None,
            fleet=FleetConfig(
                num_shards=num_shards, overrides=overrides or {}, **fleet_kwargs
            ),
        ),
    )


class TestDeterminism:
    def test_same_seed_produces_identical_fleet_reports(self):
        first = Engine(fleet_config()).serve()
        second = Engine(fleet_config()).serve()
        assert isinstance(first, FleetReport)
        assert first == second
        assert first.format() == second.format()

    def test_router_seed_changes_the_partition(self):
        base = Engine(fleet_config(seed=7)).serve()
        reseeded = Engine(fleet_config(seed=8)).serve()
        counts = lambda report: [shard.num_requests for shard in report.shards]  # noqa: E731
        assert counts(base) != counts(reseeded)
        # ... but never the workload itself.
        assert base.num_requests == reseeded.num_requests == NUM_REQUESTS


class TestMergeCorrectness:
    @pytest.fixture(scope="class")
    def report(self) -> FleetReport:
        return Engine(fleet_config()).serve()

    def test_request_count_equals_sum_over_shards(self, report):
        assert report.num_requests == NUM_REQUESTS
        assert sum(shard.num_requests for shard in report.shards) == NUM_REQUESTS
        for shard in report.shards:
            if shard.report is not None:
                assert shard.report.num_requests == shard.num_requests

    def test_byte_totals_equal_the_sum_over_shards(self, report):
        live = [shard.report for shard in report.shards if shard.report is not None]
        assert report.fleet.bytes_from_store == sum(r.bytes_from_store for r in live)
        assert report.fleet.bytes_from_cache == sum(r.bytes_from_cache for r in live)
        assert report.fleet.baseline_bytes == sum(r.baseline_bytes for r in live)
        histogram: dict[int, int] = {}
        for shard_report in live:
            for resolution, count in shard_report.resolution_histogram.items():
                histogram[resolution] = histogram.get(resolution, 0) + count
        assert report.fleet.resolution_histogram == histogram

    def test_fleet_duration_spans_every_shard_timeline(self, report):
        live = [shard.report for shard in report.shards if shard.report is not None]
        # The fleet timeline (first arrival anywhere to last completion
        # anywhere) contains every shard's own timeline.
        assert all(report.fleet.duration_s >= r.duration_s for r in live)
        assert report.fleet.throughput_rps == pytest.approx(
            report.num_requests / report.fleet.duration_s
        )

    def test_load_imbalance_is_busiest_over_mean(self, report):
        counts = [shard.num_requests for shard in report.shards]
        mean = NUM_REQUESTS / report.num_shards
        assert report.load_imbalance == pytest.approx(max(counts) / mean)
        assert report.load_imbalance >= 1.0
        assert report.idle_shards == sum(1 for count in counts if count == 0)


class TestSingleShardEquivalence:
    def test_single_shard_fleet_reproduces_the_server_report(self):
        config = fleet_config(num_shards=1)
        engine = Engine(config)
        store, backbone = engine.build_store(), engine.build_backbone()
        trace = engine.build_trace()

        fleet_report = Engine(config, store=store, backbone=backbone).serve(trace)

        unsharded = replace(config, serving=replace(config.serving, fleet=None))
        server_report = Engine(unsharded, store=store, backbone=backbone).serve(trace)

        assert isinstance(fleet_report, FleetReport)
        assert fleet_report.num_shards == 1
        assert fleet_report.shards[0].report == server_report
        assert fleet_report.fleet == server_report
        assert fleet_report.fleet.format() == server_report.format()
        assert fleet_report.load_imbalance == 1.0


#: One store and backbone for every hypothesis example (rendering and
#: encoding the catalogue dominates runtime; serving never mutates them).
_SHARED: dict = {}


def _shared_engine(config: EngineConfig) -> Engine:
    if not _SHARED:
        engine = Engine(fleet_config())
        _SHARED.update(store=engine.build_store(), backbone=engine.build_backbone())
    return Engine(config, store=_SHARED["store"], backbone=_SHARED["backbone"])


class TestStaticFleetSemantics:
    """A fleet with nothing elastic is its shards served independently.

    Pinned against freshly built servers and a hand fold, not against the
    fleet's own loop: every shard report equals an identical new server's
    ``run`` over that shard's partition, and the fleet row is
    ``build_report`` over the shards' concatenated records.
    """

    @given(
        num_shards=st.integers(min_value=1, max_value=4),
        router_seed=st.integers(min_value=0, max_value=2**16),
        rate_rps=st.floats(min_value=200.0, max_value=4000.0),
        override_shard=st.integers(min_value=0, max_value=3),
        override=st.sampled_from(
            [
                {"num_workers": 1},
                {"num_workers": 3, "cache": {"capacity_bytes": 40_000}},
                {"cache": None},
            ]
        ),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_shards_serve_their_partition_independently(
        self, num_shards, router_seed, rate_rps, override_shard, override
    ):
        config = fleet_config(
            num_shards=num_shards,
            overrides={override_shard % num_shards: override},
            seed=router_seed,
        )
        arrivals = replace(
            config.serving.arrivals,
            options={**config.serving.arrivals.options, "rate_rps": rate_rps},
        )
        config = replace(config, serving=replace(config.serving, arrivals=arrivals))
        engine = _shared_engine(config)
        fleet = engine.build_fleet()
        trace = engine.build_trace()
        report = fleet.run(trace)
        assert report.kind == "fleet"
        assert fleet.last_events == []

        fresh = _shared_engine(config)
        records = RequestRecords()
        store_requests = 0
        cache_stats = []
        for shard, sub_trace in fleet.partition(trace).items():
            shard_report = report.shards[shard]
            assert shard_report.shard_id == shard
            if not len(sub_trace):
                assert shard_report.report is None
                continue
            server = fresh.build_server(config.serving.for_shard(shard))
            assert shard_report.report == server.run(sub_trace)
            records.extend(server.last_records)
            store_requests += server.store_requests
            if server.cache is not None:
                cache_stats.append(server.cache.stats)
        live = [shard.report for shard in report.shards if shard.report is not None]
        merged_stats = None
        if cache_stats:
            merged_stats = CacheStats(
                **{
                    stat.name: sum(getattr(stats, stat.name) for stats in cache_stats)
                    for stat in fields(CacheStats)
                }
            )
        assert report.fleet == build_report(
            records,
            bandwidth=fleet.servers[0].bandwidth,
            store_requests=store_requests,
            cache_stats=merged_stats,
            degraded_requests=sum(r.degraded_requests for r in live),
            dropped_requests=sum(r.dropped_requests for r in live),
            prefetch_bytes=sum(r.prefetch_bytes for r in live),
            prefetch_hits=sum(r.prefetch_hits for r in live),
            prefetch_wasted_bytes=sum(r.prefetch_wasted_bytes for r in live),
        )


SHARDED_CONFIG = (
    Path(__file__).resolve().parents[2] / "examples" / "configs" / "serving_sharded.json"
)


class TestNoOpBoundaries:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "known boundary defect: every segment boundary restarts each shard's "
            "server.run with an empty DynamicBatcher and all workers free, so a "
            "no-op window still moves latencies; the ROADMAP item 'Make the "
            "fleet exact' makes this pass"
        ),
    )
    def test_a_no_op_degraded_window_changes_nothing(self):
        """A factor-1.0 degraded window leaves every SLO as the static run's."""
        data = json.loads(SHARDED_CONFIG.read_text())
        static = Engine(EngineConfig.from_dict(data)).serve()
        data["serving"]["fleet"]["faults"] = [
            {
                "name": "degraded-storage",
                "options": {
                    "windows": [
                        {"shard": 0, "at_s": 0.02, "duration_s": 0.02, "factor": 1.0}
                    ]
                },
            }
        ]
        windowed = Engine(EngineConfig.from_dict(data)).serve()
        assert windowed.kind == "elastic-fleet"
        assert windowed.shards == static.shards
        assert windowed.fleet == static.fleet


class TestFleetMechanics:
    def test_partition_preserves_order_and_covers_the_trace(self):
        engine = Engine(fleet_config())
        fleet = engine.build_fleet()
        trace = engine.build_trace()
        sub_traces = fleet.partition(trace)  # shard id -> sub-stream
        assert list(sub_traces) == list(range(fleet.num_shards))
        merged = sorted(
            (arrival for sub in sub_traces.values() for arrival in arrivals(sub)),
            key=lambda arrival: arrival[0],
        )
        assert merged == arrivals(trace)
        for shard, sub in sub_traces.items():
            # Arrival order survives the split and keys route to this shard.
            assert (np.diff(sub.times) >= 0).all()
            assert all(fleet.router.route(key) == shard for key in sub.keys)

    def test_per_shard_overrides_specialize_servers(self):
        config = fleet_config(
            num_shards=2,
            overrides={1: {"num_workers": 5, "cache": {"capacity_bytes": 60_000}}},
        )
        fleet = Engine(config).build_fleet()
        assert fleet.servers[0].config.num_workers == 2
        assert fleet.servers[0].cache.capacity_bytes == 150_000
        assert fleet.servers[1].config.num_workers == 5
        assert fleet.servers[1].cache.capacity_bytes == 60_000

    def test_shards_do_not_share_mutable_state(self):
        fleet = Engine(fleet_config()).build_fleet()
        caches = [server.cache for server in fleet.servers]
        policies = [server.policy for server in fleet.servers]
        assert len(set(map(id, caches))) == len(caches)
        assert len(set(map(id, policies))) == len(policies)
        # The store contents are immutable under serving, so sharing is safe.
        assert len({id(server.store) for server in fleet.servers}) == 1

    def test_empty_trace_and_empty_fleet_raise(self):
        engine = Engine(fleet_config())
        fleet = engine.build_fleet()
        with pytest.raises(ValueError, match="empty trace"):
            fleet.run(ArrivalStream(np.empty(0), []))
        with pytest.raises(ValueError, match="at least one server"):
            ShardedFleet([])

    def test_router_shard_mismatch_raises(self):
        engine = Engine(fleet_config(num_shards=2))
        servers = engine.build_fleet().servers
        with pytest.raises(ValueError, match="do not match"):
            ShardedFleet(servers, router=ConsistentHashRouter([0, 1, 2]))

    def test_closed_loop_traffic_rejects_sharding(self):
        config = fleet_config()
        config = replace(
            config,
            serving=replace(
                config.serving,
                arrivals=ArrivalsConfig(
                    name="closed-loop",
                    options={"num_clients": 2, "requests_per_client": 2, "seed": 0},
                ),
            ),
        )
        with pytest.raises(ValueError, match="open-loop"):
            Engine(config).serve()


class TestFleetConfigValidation:
    def test_round_trips_through_json(self):
        config = fleet_config(overrides={0: {"num_workers": 4}})
        assert EngineConfig.from_json(config.to_json()) == config

    def test_bad_shard_index_rejected(self):
        with pytest.raises(ValueError, match="shard index"):
            FleetConfig(num_shards=2, overrides={5: {"num_workers": 1}})

    def test_traffic_overrides_rejected(self):
        with pytest.raises(ValueError, match="fleet-wide"):
            FleetConfig(num_shards=2, overrides={0: {"num_requests": 5}})

    def test_unknown_override_field_fails_at_build_time(self):
        # The config's own build specializes every patched shard, so the
        # error comes before any store or fleet is built.
        with pytest.raises(ValueError, match="no_such_field"):
            fleet_config(overrides={0: {"no_such_field": 1}})


class TestFleetControlPlane:
    def saturated_config(self, **serving_patch):
        config = fleet_config(num_shards=3)
        return replace(
            config,
            serving=replace(
                config.serving,
                arrivals=ArrivalsConfig(
                    name="poisson",
                    options={"rate_rps": 6000.0, "seed": 5, "zipf_alpha": 1.0},
                ),
                num_workers=1,
                **serving_patch,
            ),
        )

    def test_fleet_aggregates_drop_counters_across_shards(self):
        config = self.saturated_config(
            admission=AdmissionConfig(
                name="ewma", options={"alpha": 0.5, "depth_threshold": 2.0}
            )
        )
        report = Engine(config).serve()
        assert report.dropped_requests > 0
        assert report.dropped_requests == sum(
            shard.report.dropped_requests
            for shard in report.shards
            if shard.report is not None
        )
        served = sum(shard.num_requests for shard in report.shards)
        assert served + report.dropped_requests == NUM_REQUESTS
        assert report.fleet.num_requests == served
        assert 0.0 < report.drop_rate < 1.0

    def test_each_shard_gets_its_own_admission_policy(self):
        config = self.saturated_config(
            admission=AdmissionConfig(
                name="ewma", options={"alpha": 0.5, "depth_threshold": 2.0}
            )
        )
        fleet = Engine(config).build_fleet()
        policies = [server.admission for server in fleet.servers]
        assert len({id(policy) for policy in policies}) == len(policies)

    def test_per_shard_admission_override(self):
        config = fleet_config(
            num_shards=2,
            overrides={
                0: {"admission": {"name": "ewma", "options": {"depth_threshold": 5.0}}}
            },
        )
        fleet = Engine(config).build_fleet()
        assert type(fleet.servers[0].admission).__name__ == "EwmaAdmissionController"
        assert type(fleet.servers[1].admission).__name__ == "AlwaysAdmit"


class _EverythingToShardZero(ConsistentHashRouter):
    """Degenerate router: every key lands on shard 0 (others stay idle)."""

    def route(self, key):
        return 0


class TestLoadImbalanceGuard:
    def test_factor_unit_cases(self):
        assert load_imbalance_factor([]) == 1.0
        assert load_imbalance_factor([0, 0, 0]) == 1.0  # zero offered everywhere
        assert load_imbalance_factor([8]) == 1.0
        assert load_imbalance_factor([4, 2]) == pytest.approx(4 / 3)
        assert load_imbalance_factor([6, 0, 0]) == pytest.approx(3.0)

    def test_fleet_with_zero_offered_shards_reports_finite_imbalance(self):
        """Idle shards (zero offered requests) never blow up the imbalance
        column — the guard that matters once elastic remaps can leave a
        freshly added shard with no traffic at all."""
        import math

        engine = Engine(fleet_config(num_shards=3))
        servers = engine.build_fleet().servers
        fleet = ShardedFleet(servers, router=_EverythingToShardZero(range(3)))
        report = fleet.run(engine.build_trace())

        assert report.idle_shards == 2
        counts = [shard.num_requests for shard in report.shards]
        assert counts[1] == counts[2] == 0
        assert math.isfinite(report.load_imbalance)
        assert report.load_imbalance == pytest.approx(3.0)  # all load on 1 of 3
