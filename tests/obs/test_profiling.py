"""Profiler tests: self-time accounting, merging, and server integration."""

import time

import numpy as np
import pytest

from repro.obs.profiling import Profiler, ProfileStats
from repro.serving.arrivals import ClosedLoopClients
from repro.serving.control import AdmissionDecision, AdmissionPolicy


class _DropEveryThird(AdmissionPolicy):
    def admit(self, request, now, queue_depth):
        if request.request_id % 3 == 2:
            return AdmissionDecision.drop("every-third")
        return AdmissionDecision.admit()


class TestScopes:
    def test_nested_scopes_report_self_time(self):
        profiler = Profiler()
        with profiler.scope("outer"):
            time.sleep(0.02)
            with profiler.scope("inner"):
                time.sleep(0.02)
        inner = profiler.self_seconds["inner"]
        outer = profiler.self_seconds["outer"]
        assert inner >= 0.02
        # The child's elapsed time was subtracted from the parent's slot.
        assert outer >= 0.015
        assert outer < 0.04

    def test_repeated_scopes_accumulate(self):
        profiler = Profiler()
        for _ in range(3):
            with profiler.scope("work"):
                time.sleep(0.005)
        assert profiler.self_seconds["work"] >= 0.015

    def test_scope_survives_exceptions(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.scope("boom"):
                raise RuntimeError("boom")
        assert "boom" in profiler.self_seconds
        assert profiler._stack == []

    def test_self_times_sum_to_at_most_wall_time(self):
        profiler = Profiler()
        profiler.start_run()
        with profiler.scope("a"):
            time.sleep(0.01)
            with profiler.scope("b"):
                time.sleep(0.01)
        profiler.stop_run(sim_seconds=1.0)
        assert sum(profiler.self_seconds.values()) <= profiler.wall_seconds + 1e-6


class TestStats:
    def test_zero_length_run_has_none_rates(self):
        stats = Profiler().stats()
        assert stats.events_per_sec is None
        assert stats.requests_per_sec is None
        assert stats.sim_time_ratio is None
        assert stats.self_seconds == {}

    def test_stats_rates(self):
        profiler = Profiler()
        profiler.start_run()
        time.sleep(0.01)
        profiler.events = 100
        profiler.completed_requests = 10
        profiler.stop_run(sim_seconds=0.5)
        stats = profiler.stats()
        assert stats.events == 100
        assert stats.events_per_sec == pytest.approx(100 / stats.wall_seconds)
        assert stats.requests_per_sec == pytest.approx(10 / stats.wall_seconds)
        assert stats.sim_time_ratio == pytest.approx(0.5 / stats.wall_seconds)
        assert isinstance(stats, ProfileStats)

    def test_merge_sums_everything(self):
        left, right = Profiler(), Profiler()
        for profiler, events in ((left, 10), (right, 30)):
            profiler.start_run()
            profiler.events = events
            profiler.completed_requests = events // 2
            profiler.stop_run(sim_seconds=0.1)
            profiler.self_seconds["storage-read"] = 0.01
        left.merge(right)
        assert left.events == 40
        assert left.completed_requests == 20
        assert left.sim_seconds == pytest.approx(0.2)
        assert left.self_seconds["storage-read"] == pytest.approx(0.02)


class TestServerIntegration:
    def test_server_run_populates_the_profiler(self, make_server, make_trace):
        profiler = Profiler()
        server = make_server(profiler=profiler)
        report = server.run(make_trace(n=24))
        stats = profiler.stats()
        assert stats.completed_requests == report.num_requests
        # Every completion is at least one heap pop, plus batch/flush events.
        assert stats.events > report.num_requests
        assert stats.wall_seconds > 0
        assert stats.events_per_sec > 0
        assert stats.sim_seconds == pytest.approx(report.duration_s, rel=0.2)
        for name in ("storage-read", "batch-pricing", "backbone-execute"):
            assert name in stats.self_seconds, name
            assert stats.self_seconds[name] >= 0.0

    @pytest.mark.parametrize("drops", [False, True])
    @pytest.mark.parametrize("traffic", ["stream", "closed-loop"])
    @pytest.mark.parametrize("max_batch_size", [1, 4])
    def test_events_are_arrivals_enqueues_completions_and_timers(
        self, make_server, make_trace, max_batch_size, traffic, drops
    ):
        """One event per arrival, per admitted request's enqueue and per
        batch's completion, plus one flush timer per batch when a batch
        can hold more than one request."""
        profiler = Profiler()
        server = make_server(
            profiler=profiler,
            max_batch_size=max_batch_size,
            admission=_DropEveryThird() if drops else None,
        )
        if traffic == "stream":
            arrivals = make_trace(n=40)
        else:
            arrivals = ClosedLoopClients(
                num_clients=5, think_time_s=0.001, requests_per_client=6, seed=2
            )
        report = server.run(arrivals)
        served = report.num_requests
        offered = served + report.dropped_requests
        batches = round(float(np.sum(1.0 / server.last_records.column("batch_sizes"))))
        timers = batches if max_batch_size > 1 else 0
        assert offered == (40 if traffic == "stream" else 30)
        assert (report.dropped_requests > 0) == drops
        assert profiler.events == offered + served + batches + timers

    def test_profiler_resets_between_runs(self, make_server, make_trace):
        profiler = Profiler()
        server = make_server(profiler=profiler)
        trace = make_trace(n=16)
        server.run(trace)
        first = profiler.stats()
        server.run(trace)
        second = profiler.stats()
        # Counters cover one run at a time, not the cumulative history.
        assert second.events == first.events
        assert second.completed_requests == first.completed_requests

    def test_profiled_run_report_is_unchanged(self, make_server, make_trace):
        trace = make_trace(n=24)
        bare = make_server().run(trace)
        profiled = make_server(profiler=Profiler()).run(trace)
        assert bare.to_json() == profiled.to_json()
