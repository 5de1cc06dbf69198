"""Transfer time and monetary cost of storage reads.

The paper motivates byte savings with cloud economics: storage capacity,
GET requests and cross-tier network transfer are all metered (§I, §VIII.b).
This model converts bytes read into transfer time on a provisioned link and
into a simple $ figure, so benchmarks can report the operational impact of
the calibrated read policy alongside raw byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.schema import NonNegative, Positive, check


@dataclass(frozen=True)
class TransferEstimate:
    """Time and cost of moving a number of bytes from storage to compute."""

    bytes_moved: int
    seconds: float
    dollars: float


@dataclass(frozen=True)
class StorageBandwidthModel:
    """Provisioned-link and price model for image reads.

    Defaults approximate a cloud object store read path: a 10 Gb/s
    provisioned link shared by the inference tier, 0.5 ms per-request
    latency, $0.09/GB egress and $0.0004 per 1000 GET requests.
    """

    link_gbps: Positive = 10.0
    per_request_latency_s: NonNegative = 0.0005
    dollars_per_gb: NonNegative = 0.09
    dollars_per_1k_requests: NonNegative = 0.0004

    def __post_init__(self) -> None:
        check(self)

    @property
    def bytes_per_second(self) -> float:
        return self.link_gbps * 1e9 / 8.0

    def estimate(self, bytes_moved: int, num_requests: int = 1) -> TransferEstimate:
        """Estimate transfer time and cost for ``bytes_moved`` over ``num_requests``."""
        if bytes_moved < 0 or num_requests < 0:
            raise ValueError("bytes and request counts must be non-negative")
        seconds = bytes_moved / self.bytes_per_second + num_requests * self.per_request_latency_s
        dollars = (
            bytes_moved / 1e9 * self.dollars_per_gb
            + num_requests / 1000.0 * self.dollars_per_1k_requests
        )
        return TransferEstimate(bytes_moved=bytes_moved, seconds=seconds, dollars=dollars)

    def savings(
        self, baseline_bytes: int, observed_bytes: int, num_requests: int = 1
    ) -> dict[str, float]:
        """Relative savings of an observed read pattern versus the all-data baseline."""
        if baseline_bytes <= 0:
            raise ValueError("baseline_bytes must be positive")
        baseline = self.estimate(baseline_bytes, num_requests)
        observed = self.estimate(observed_bytes, num_requests)
        return {
            "bytes_saved": float(baseline_bytes - observed_bytes),
            "relative_bytes_saved": 1.0 - observed_bytes / baseline_bytes,
            "seconds_saved": baseline.seconds - observed.seconds,
            "dollars_saved": baseline.dollars - observed.dollars,
        }
