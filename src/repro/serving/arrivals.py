"""Seeded request-arrival processes for the serving simulator.

Three traffic shapes cover the serving evaluation:

* :class:`PoissonArrivals` — memoryless open-loop traffic at a fixed rate,
  the standard "steady cloud frontend" assumption;
* :class:`OnOffArrivals` — bursty open-loop traffic alternating between a
  high-rate ON phase and a low-rate OFF phase (Markov-modulated Poisson),
  which is what stresses the batcher and the load-adaptive policy;
* :class:`ClosedLoopClients` — a fixed population of clients that each wait
  for their previous response plus an exponential think time before issuing
  the next request (interactive-user traffic; throughput is self-limiting).

Open-loop processes pre-generate an :class:`~repro.serving.workload.ArrivalStream`;
closed-loop clients go to ``InferenceServer.run`` as they are.
All processes are seeded and fully deterministic: the same seed produces
byte-identical traces, which is what makes serving runs reproducible.
Keys are drawn from the store's key set either uniformly, with a bare Zipf
popularity skew (``zipf_alpha > 0`` makes low-index keys hot, which is what
gives a cache tier something to work with), or through a pluggable
:class:`~repro.serving.popularity.PopularityModel` (``popularity=...``),
which is how calibrated CDN-like skews plug in without new process code.

Empirical-trace replay and diurnal rate modulation live in
:mod:`repro.serving.workload`; the on-disk trace schema and the run
recorder live in :mod:`repro.serving.traces`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.api.registry import ARRIVALS
from repro.api.schema import NonNegative, Positive, PositiveInt, check, checked
from repro.serving.popularity import PopularityModel, ZipfPopularity

if TYPE_CHECKING:
    from repro.serving.workload import ArrivalStream


@dataclass(frozen=True)
class Request:
    """One inference request against a stored image key."""

    request_id: int
    key: str
    arrival_time: float
    client_id: int | None = None


def key_popularity(zipf_alpha: float, popularity: PopularityModel | None) -> PopularityModel:
    """The model a process draws keys by, rank 0 the hottest key.

    A ``popularity`` model takes precedence; the bare ``zipf_alpha``
    shorthand (kept for quick configs) is ``ZipfPopularity(alpha=zipf_alpha)``,
    where 0 is uniform.
    """
    return popularity if popularity is not None else ZipfPopularity(alpha=zipf_alpha)


class ArrivalProcess:
    """Interface: produce a deterministic open-loop trace over store keys."""

    def stream(self, keys: Sequence[str], num_requests: int) -> "ArrivalStream":
        """The trace in columnar form (an ``ArrivalStream``)."""
        raise NotImplementedError


@ARRIVALS.register("poisson")
@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson traffic at ``rate_rps`` requests per second."""

    rate_rps: Positive
    seed: int = 0
    zipf_alpha: NonNegative = 0.0
    popularity: PopularityModel | None = None

    def __post_init__(self) -> None:
        check(self)

    def stream(self, keys: Sequence[str], num_requests: int) -> "ArrivalStream":
        # Local import: workload.py imports this module for the base class.
        from repro.serving.workload import ArrivalStream

        rng = np.random.default_rng(self.seed)
        gaps = rng.exponential(1.0 / self.rate_rps, size=num_requests)
        times = np.cumsum(gaps)
        chosen = key_popularity(self.zipf_alpha, self.popularity).sample(rng, keys, num_requests)
        return ArrivalStream(times, chosen)


@ARRIVALS.register("onoff")
@dataclass(frozen=True)
class OnOffArrivals(ArrivalProcess):
    """Bursty traffic: Poisson bursts at ``on_rate_rps`` separated by lulls.

    Phase durations are exponential with means ``mean_on_s`` / ``mean_off_s``;
    within the OFF phase requests arrive at ``off_rate_rps`` (0 for silence).
    OFF phases so long that ``clock + mean_on_s == clock`` raise
    ``ValueError``: no arrival could fit in an ON phase any more.
    """

    on_rate_rps: Positive
    off_rate_rps: NonNegative = 0.0
    mean_on_s: Positive = 0.1
    mean_off_s: Positive = 0.3
    seed: int = 0
    zipf_alpha: NonNegative = 0.0
    popularity: PopularityModel | None = None

    def __post_init__(self) -> None:
        check(self)

    def stream(self, keys: Sequence[str], num_requests: int) -> "ArrivalStream":
        # The phase walk is inherently sequential: each burst boundary
        # depends on the previous draw.
        from repro.serving.workload import ArrivalStream

        rng = np.random.default_rng(self.seed)
        times: list[float] = []
        clock = 0.0
        on_phase = True
        while len(times) < num_requests:
            mean = self.mean_on_s if on_phase else self.mean_off_s
            rate = self.on_rate_rps if on_phase else self.off_rate_rps
            if rate > 0 and clock + mean == clock:  # else this loops forever
                raise ValueError(
                    f"on/off arrivals stop at t = {clock:g} s, where a {mean:g} s phase no "
                    f"longer moves the clock (mean_off_s = {self.mean_off_s:g}, "
                    f"mean_on_s = {self.mean_on_s:g}): no arrival can fit"
                )
            phase_end = clock + float(rng.exponential(mean))
            if rate > 0:
                cursor = clock
                while len(times) < num_requests:
                    cursor += float(rng.exponential(1.0 / rate))
                    if cursor >= phase_end:
                        break
                    times.append(cursor)
            clock = phase_end
            on_phase = not on_phase
        chosen = key_popularity(self.zipf_alpha, self.popularity).sample(rng, keys, num_requests)
        return ArrivalStream(np.array(times), chosen)


@ARRIVALS.register("closed-loop")
class ClosedLoopClients:
    """A fixed client population with exponential think times.

    Unlike the open-loop processes, the next arrival of a client depends on
    when its previous request *completed*, so the trace cannot be
    pre-generated: the server calls :meth:`next_request` from its completion
    handler.  Determinism holds because the event loop itself is
    deterministic, so the call order (and hence the RNG stream) is too.
    """

    @checked
    def __init__(
        self,
        num_clients: PositiveInt,
        think_time_s: NonNegative = 0.01,
        requests_per_client: PositiveInt = 10,
        seed: int = 0,
        zipf_alpha: NonNegative = 0.0,
        popularity: PopularityModel | None = None,
    ) -> None:
        self.num_clients = num_clients
        self.think_time_s = think_time_s
        self.requests_per_client = requests_per_client
        self.zipf_alpha = zipf_alpha
        self.popularity = popularity
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._keys: list[str] = []
        self._key_probabilities: np.ndarray | None = None
        self._issued: dict[int, int] = {}
        self._next_id = 0

    @property
    def total_requests(self) -> int:
        return self.num_clients * self.requests_per_client

    def _think(self) -> float:
        if self.think_time_s == 0:
            return 0.0
        return float(self._rng.exponential(self.think_time_s))

    def _make_request(self, client_id: int, arrival_time: float) -> Request:
        key = self._keys[int(self._rng.choice(len(self._keys), p=self._key_probabilities))]
        request = Request(
            request_id=self._next_id,
            key=key,
            arrival_time=arrival_time,
            client_id=client_id,
        )
        self._next_id += 1
        self._issued[client_id] = self._issued.get(client_id, 0) + 1
        return request

    def start(self, keys: Sequence[str]) -> list[Request]:
        """Initial request of every client, staggered by one think time each.

        Re-seeds the RNG, so calling ``start`` again replays the same
        population from scratch.
        """
        self._keys = list(keys)
        self._key_probabilities = key_popularity(
            self.zipf_alpha, self.popularity
        ).probabilities(len(self._keys))
        self._rng = np.random.default_rng(self._seed)
        self._issued = {}
        self._next_id = 0
        return [self._make_request(client, self._think()) for client in range(self.num_clients)]

    def next_request(self, client_id: int, completion_time: float) -> Request | None:
        """The client's next request after a completion, or None when done."""
        if self._issued.get(client_id, 0) >= self.requests_per_client:
            return None
        return self._make_request(client_id, completion_time + self._think())
