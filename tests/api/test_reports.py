"""Unified Report schema: tagged dicts, JSON round-trips, nested reports."""

import json

import pytest

from repro.api import Engine, ExperimentResult  # noqa: F401  (registers report types)
from repro.api.reports import REPORT_TYPES, Report, report_type
from repro.api.schema import decode, encode
from repro.serving.cache import CacheStats
from repro.serving.faults import FaultEvent
from repro.serving.fleet import FleetReport, ShardReport
from repro.serving.metrics import ServedRequest, SLOReport, build_report
from repro.storage.bandwidth import StorageBandwidthModel

from test_engine import serving_config

BANDWIDTH = StorageBandwidthModel()


def make_record(request_id: int, arrival: float) -> ServedRequest:
    latency = 0.010 + 0.001 * request_id
    return ServedRequest(
        request_id=request_id,
        key=f"img{request_id % 3}",
        arrival_time=arrival,
        ready_time=arrival + 0.25 * latency,
        dispatch_time=arrival + 0.5 * latency,
        completion_time=arrival + latency,
        resolution=24 if request_id % 2 else 48,
        scans_read=3,
        bytes_from_store=1000,
        bytes_from_cache=200,
        total_bytes=4000,
        batch_size=2,
        prediction=1,
        label=request_id % 2,
    )


def sample_slo(**kwargs) -> SLOReport:
    records = [make_record(request_id=i, arrival=0.001 * i) for i in range(5)]
    return build_report(records, bandwidth=BANDWIDTH, store_requests=5, **kwargs)


class TestRegistry:
    def test_core_kinds_are_registered(self):
        for kind in ("slo", "fleet", "shard", "experiment"):
            assert kind in REPORT_TYPES

    def test_duplicate_kind_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @report_type("slo")
            class Clashing(Report):
                pass

    def test_unknown_kind_fails_with_known_kinds(self):
        with pytest.raises(KeyError, match="slo"):
            Report.from_dict({"kind": "no-such-report"})
        with pytest.raises(KeyError):
            Report.from_dict({"num_requests": 3})  # untagged


class TestSLORoundTrip:
    def test_dict_round_trip(self):
        report = sample_slo(
            cache_stats=CacheStats(lookups=4, hits=2, misses=2),
            degraded_requests=1,
            dropped_requests=3,
            prefetch_bytes=128,
            prefetch_hits=2,
            prefetch_wasted_bytes=16,
        )
        data = report.to_dict()
        assert data["kind"] == "slo"
        assert Report.from_dict(data) == report

    def test_json_round_trip_restores_int_histogram_keys(self):
        report = sample_slo()
        rebuilt = Report.from_json(report.to_json())
        assert rebuilt == report
        assert all(isinstance(k, int) for k in rebuilt.resolution_histogram)

    def test_empty_report_round_trips_through_json(self):
        report = build_report([], bandwidth=BANDWIDTH, store_requests=0, dropped_requests=4)
        rebuilt = Report.from_json(report.to_json())
        assert rebuilt == report
        assert rebuilt.p99_latency_ms is None
        assert rebuilt.dropped_requests == 4

    def test_to_json_is_valid_sorted_json(self):
        parsed = json.loads(sample_slo().to_json())
        assert parsed["kind"] == "slo"
        assert parsed["num_requests"] == 5


class TestNestedRoundTrip:
    def fleet_report(self) -> FleetReport:
        slo = sample_slo()
        return FleetReport(
            num_shards=2,
            shards=(
                ShardReport(shard_id=0, num_requests=5, report=slo),
                ShardReport(shard_id=1, num_requests=0, report=None),
            ),
            fleet=slo,
            load_imbalance=2.0,
            idle_shards=1,
        )

    def test_fleet_report_round_trips_with_nested_shards(self):
        report = self.fleet_report()
        data = report.to_dict()
        assert data["kind"] == "fleet"
        assert data["shards"][0]["kind"] == "shard"
        assert data["shards"][0]["report"]["kind"] == "slo"
        assert data["shards"][1]["report"] is None
        rebuilt = Report.from_dict(data)
        assert rebuilt == report
        assert isinstance(rebuilt.shards, tuple)
        assert isinstance(rebuilt.shards[0].report, SLOReport)

    def test_fleet_report_json_round_trip(self):
        report = self.fleet_report()
        assert Report.from_json(report.to_json()) == report

    def test_a_nested_report_decodes_by_its_field_annotation(self):
        data = self.fleet_report().to_dict()
        del data["fleet"]["kind"]
        assert Report.from_dict(data) == self.fleet_report()
        data["shards"][0]["kind"] = "slo"
        with pytest.raises(ValueError, match=r"shards\[0\] must be a 'shard' report"):
            Report.from_dict(data)

    def test_malformed_fields_fail_naming_their_path(self):
        data = self.fleet_report().to_dict()
        data["shards"][0]["report"]["num_requests"] = 2.5
        with pytest.raises(
            ValueError, match=r"shards\[0\]\.report\.num_requests must be an integer"
        ):
            Report.from_dict(data)
        data = self.fleet_report().to_dict()
        del data["num_shards"]
        with pytest.raises(ValueError, match="missing required FleetReport field.*num_shards"):
            Report.from_dict(data)

    def test_only_reports_carry_a_kind_tag(self):
        # FaultEvent's own ``kind`` field is data, not a report tag.
        event = FaultEvent(time=0.5, kind="crash", shard_id=1)
        assert encode(event) == {"time": 0.5, "kind": "crash", "shard_id": 1, "factor": 1.0}
        assert decode(FaultEvent, encode(event)) == event

    def test_live_fleet_report_round_trips(self):
        from repro.api.config import FleetConfig
        from dataclasses import replace

        config = serving_config()
        config = replace(
            config, serving=replace(config.serving, fleet=FleetConfig(num_shards=2, seed=3))
        )
        report = Engine(config).serve()
        assert isinstance(report, FleetReport)
        assert Report.from_json(report.to_json()) == report


class TestExperimentRoundTrip:
    def test_experiment_result_round_trips(self):
        result = ExperimentResult(name="demo", table="a | b", data={"rows": [1, 2]})
        data = result.to_dict()
        assert data["kind"] == "experiment"
        assert Report.from_dict(data) == result

    def test_live_experiment_round_trips(self):
        from repro.api import EngineConfig

        result = Engine(EngineConfig()).run_experiment("fig2", render_resolution=224)
        rebuilt = Report.from_dict(result.to_dict())
        assert rebuilt == result

    def test_int_keyed_experiment_data_survives_json(self):
        from repro.api import EngineConfig

        # table1 keys its data on integer resolutions; JSON stringifies
        # object keys, so from_json must restore them for == to hold.
        result = Engine(EngineConfig()).run_experiment("table1", resolutions=[112, 224])
        rebuilt = Report.from_json(result.to_json())
        assert rebuilt == result
        assert sorted(rebuilt.data) == [112, 224]
