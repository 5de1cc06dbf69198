"""Arrival-process tests: determinism, shape, and closed-loop bookkeeping."""

import signal

import numpy as np
import pytest

from repro.serving.arrivals import (
    ClosedLoopClients,
    OnOffArrivals,
    PoissonArrivals,
    key_popularity,
)

KEYS = [f"img{i}" for i in range(8)]


class TestPoissonArrivals:
    def test_trace_is_deterministic_under_seed(self):
        a = PoissonArrivals(rate_rps=100.0, seed=7).trace(KEYS, 50)
        b = PoissonArrivals(rate_rps=100.0, seed=7).trace(KEYS, 50)
        assert a == b

    def test_different_seeds_differ(self):
        a = PoissonArrivals(rate_rps=100.0, seed=7).trace(KEYS, 50)
        b = PoissonArrivals(rate_rps=100.0, seed=8).trace(KEYS, 50)
        assert a != b

    def test_times_increase_and_ids_are_sequential(self):
        trace = PoissonArrivals(rate_rps=250.0, seed=0).trace(KEYS, 40)
        times = [r.arrival_time for r in trace]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        assert [r.request_id for r in trace] == list(range(40))
        assert all(r.key in KEYS for r in trace)

    def test_mean_rate_is_approximately_honoured(self):
        trace = PoissonArrivals(rate_rps=1000.0, seed=3).trace(KEYS, 2000)
        span = trace[-1].arrival_time
        assert 800 < len(trace) / span < 1200

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_rps=0.0)


class TestOnOffArrivals:
    def test_trace_is_deterministic_under_seed(self):
        process = OnOffArrivals(on_rate_rps=500.0, mean_on_s=0.05, mean_off_s=0.2, seed=4)
        assert process.trace(KEYS, 60) == process.trace(KEYS, 60)

    def test_burstier_than_poisson(self):
        """ON/OFF gaps have a higher coefficient of variation than exponential."""
        bursty = OnOffArrivals(
            on_rate_rps=2000.0, mean_on_s=0.02, mean_off_s=0.5, seed=1
        ).trace(KEYS, 400)
        gaps = np.diff([r.arrival_time for r in bursty])
        cv = gaps.std() / gaps.mean()
        assert cv > 1.5  # exponential inter-arrivals have cv == 1

    def test_off_phase_can_carry_traffic(self):
        trace = OnOffArrivals(
            on_rate_rps=500.0, off_rate_rps=50.0, mean_on_s=0.05, mean_off_s=0.5, seed=2
        ).trace(KEYS, 100)
        assert len(trace) == 100

    @pytest.mark.parametrize("mean_off_s", [1e16, 1e300])
    def test_a_phase_the_clock_cannot_resolve_fails_instead_of_looping(self, mean_off_s):
        """After one long OFF phase the clock sits where ``clock + gap ==
        clock`` for every ON-phase draw, so no arrival can ever fit: the walk
        must raise, naming the phase means, not spin.  The alarm turns a
        regression into a failure instead of a hung suite."""

        def hung(signum, frame):
            raise TimeoutError("OnOffArrivals.stream is still looping after 20 s")

        process = OnOffArrivals(
            on_rate_rps=2500.0, mean_on_s=0.05, mean_off_s=mean_off_s, seed=7
        )
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(ValueError, match="mean_off_s.*mean_on_s"):
                process.stream(KEYS, 120)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestZipfSampling:
    def test_skew_concentrates_on_low_ranks(self):
        rng = np.random.default_rng(0)
        uniform = key_popularity(0.0, None).sample(rng, KEYS, 4000)
        rng = np.random.default_rng(0)
        skewed = key_popularity(1.5, None).sample(rng, KEYS, 4000)
        assert skewed.count(KEYS[0]) > 2 * uniform.count(KEYS[0])


class TestClosedLoopClients:
    def test_start_issues_one_request_per_client(self):
        clients = ClosedLoopClients(num_clients=5, think_time_s=0.01, seed=0)
        initial = clients.start(KEYS)
        assert len(initial) == 5
        assert sorted(r.client_id for r in initial) == list(range(5))
        assert len({r.request_id for r in initial}) == 5

    def test_quota_is_enforced_per_client(self):
        clients = ClosedLoopClients(
            num_clients=2, think_time_s=0.0, requests_per_client=3, seed=1
        )
        clients.start(KEYS)
        issued = 2
        clock = 1.0
        while True:
            follow_up = clients.next_request(0, clock)
            if follow_up is None:
                break
            assert follow_up.arrival_time >= clock
            issued += 1
            clock += 1.0
        # client 0 reached its quota of 3; client 1 still owes 2 more
        assert issued == 2 + 2
        assert clients.next_request(1, clock) is not None

    def test_restart_resets_state_deterministically(self):
        clients = ClosedLoopClients(num_clients=3, think_time_s=0.01, seed=5)
        first = clients.start(KEYS)
        second = clients.start(KEYS)
        assert first == second
