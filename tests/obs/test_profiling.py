"""Profiler tests: self-time accounting, merging, attach/detach, and server integration."""

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


def _boom():
    raise RuntimeError("boom")


class TestWrap:
    def test_nested_calls_report_self_time(self):
        profiler = Profiler()
        inner = profiler.wrap("inner", lambda: time.sleep(0.02))

        def outer():
            time.sleep(0.02)
            inner()

        profiler.wrap("outer", outer)()
        inner_s = profiler.self_seconds["inner"]
        outer_s = profiler.self_seconds["outer"]
        assert inner_s >= 0.02
        # The child's elapsed time was subtracted from the parent's slot.
        assert outer_s >= 0.015
        assert outer_s < 0.04

    def test_repeated_calls_accumulate(self):
        profiler = Profiler()
        work = profiler.wrap("work", lambda: time.sleep(0.005))
        for _ in range(3):
            work()
        assert profiler.self_seconds["work"] >= 0.015

    def test_wrap_survives_exceptions(self):
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            profiler.wrap("boom", _boom)()
        assert "boom" in profiler.self_seconds
        assert profiler._stack == []

    def test_arguments_and_keywords_pass_through(self):
        call = Profiler().wrap("call", lambda *args, **kwargs: (args, kwargs))
        assert call(1, 2, record=False) == ((1, 2), {"record": False})


class TestStats:
    def test_zero_length_run_has_none_rates(self):
        stats = Profiler().stats()
        assert stats.events_per_sec is None
        assert stats.requests_per_sec is None
        assert stats.sim_time_ratio is None
        assert stats.self_seconds == {}

    def test_stats_rates(self):
        profiler = Profiler()
        profiler.wall_seconds = 0.01
        profiler.events = 100
        profiler.completed_requests = 10
        profiler.sim_seconds = 0.5
        stats = profiler.stats()
        assert stats.events == 100
        assert stats.events_per_sec == pytest.approx(100 / stats.wall_seconds)
        assert stats.requests_per_sec == pytest.approx(10 / stats.wall_seconds)
        assert stats.sim_time_ratio == pytest.approx(0.5 / stats.wall_seconds)
        assert isinstance(stats, ProfileStats)

    def test_merge_sums_everything(self):
        left, right = Profiler(), Profiler()
        for profiler, events in ((left, 10), (right, 30)):
            profiler.wall_seconds = 0.5
            profiler.events = events
            profiler.completed_requests = events // 2
            profiler.sim_seconds = 0.1
            profiler.self_seconds["storage-read"] = 0.01
        left.merge(right)
        assert left.wall_seconds == pytest.approx(1.0)
        assert left.events == 40
        assert left.completed_requests == 20
        assert left.sim_seconds == pytest.approx(0.2)
        assert left.self_seconds["storage-read"] == pytest.approx(0.02)


@pytest.fixture
def attach():
    """Attach a fresh profiler to a server; each is detached at teardown, so
    no wrapper outlives its test on the shared store."""
    attached = []

    def _attach(server) -> Profiler:
        profiler = Profiler()
        profiler.attach(server)
        attached.append((profiler, server))
        return profiler

    yield _attach
    for profiler, server in reversed(attached):
        profiler.detach(server)


class TestAttach:
    def test_detach_restores_every_instance_dict(self, make_server, attach):
        server = make_server()
        owners = (server, server.store, server.cache, server.batch_cost)
        before = [dict(vars(owner)) for owner in owners]
        profiler = attach(server)
        assert [dict(vars(owner)) for owner in owners] != before
        profiler.detach(server)
        assert [dict(vars(owner)) for owner in owners] == before

    def test_a_wrapper_already_in_place_comes_back(self, make_server, make_trace, attach):
        server = make_server()
        store = server.store
        outer = Profiler()
        store.read = earlier = outer.wrap("earlier-read", store.read)
        try:
            profiler = attach(server)
            server.run(make_trace(n=16))
            profiler.detach(server)
            assert vars(store)["read"] is earlier
        finally:
            del store.read
        # The profiler wrapped the earlier wrapper; it did not replace it.
        assert "earlier-read" in outer.self_seconds
        assert "storage-read" in profiler.self_seconds

    def test_attaching_twice_raises(self, make_server, attach):
        server = make_server()
        profiler = attach(server)
        with pytest.raises(RuntimeError, match="already attached"):
            profiler.attach(make_server())
        profiler.detach(server)
        profiler.attach(server)

    def test_detach_from_another_server_is_a_no_op(self, make_server, attach):
        server, other = make_server(), make_server()
        profiler = attach(server)
        profiler.detach(other)
        assert "run" in vars(server)
        profiler.detach(server)
        assert "run" not in vars(server)


class TestServerIntegration:
    def test_server_run_populates_the_profiler(self, make_server, make_trace, attach):
        server = make_server()
        profiler = attach(server)
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
        assert sum(stats.self_seconds.values()) <= stats.wall_seconds

    @pytest.mark.parametrize("drops", [False, True])
    @pytest.mark.parametrize("traffic", ["stream", "closed-loop"])
    @pytest.mark.parametrize("max_batch_size", [1, 4])
    def test_events_are_arrivals_enqueues_completions_and_timers(
        self, make_server, make_trace, attach, max_batch_size, traffic, drops
    ):
        """One event per arrival, per admitted request's enqueue and per
        batch's completion, plus one flush timer per batch when a batch
        can hold more than one request."""
        server = make_server(
            max_batch_size=max_batch_size,
            admission=_DropEveryThird() if drops else None,
        )
        profiler = attach(server)
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

    def test_profiler_resets_between_runs(self, make_server, make_trace, attach):
        server = make_server()
        profiler = attach(server)
        trace = make_trace(n=16)
        server.run(trace)
        first = profiler.stats()
        server.run(trace)
        second = profiler.stats()
        # Counters cover one run at a time, not the cumulative history.
        assert second.events == first.events
        assert second.completed_requests == first.completed_requests

    def test_profiled_run_report_is_unchanged(self, make_server, make_trace, attach):
        trace = make_trace(n=24)
        bare = make_server().run(trace)
        server = make_server()
        attach(server)
        profiled = server.run(trace)
        assert bare.to_json() == profiled.to_json()
