"""Key-popularity models calibrated against published CDN measurements.

The arrival processes draw *which* key each request touches from a
popularity model over key ranks (rank 0 is the hottest object).  The seed
repo hard-coded a bare Zipf exponent; this module makes popularity a
first-class, pluggable component:

* :class:`UniformPopularity` — every key equally likely (the null model);
* :class:`ZipfPopularity` — the classic power law ``p(r) ∝ (r+1)^-alpha``
  that web and CDN object popularity famously follows;
* :class:`ZipfMandelbrotPopularity` — the shifted power law
  ``p(r) ∝ (r+1+q)^-alpha`` whose plateau parameter ``q`` flattens the
  head, matching measured CDN curves better than pure Zipf for small ranks;
* :class:`CalibratedPopularity` — a Zipf model whose exponent is *fitted*
  (maximum likelihood, :func:`fit_zipf`) against one of the bundled
  published object-popularity CDFs in :data:`CDN_POPULARITY_CDFS`.

All models are frozen dataclasses registered in
:data:`~repro.api.registry.POPULARITY`, so configs select them by name
(``"serving": {"arrivals": {"popularity": {"name": "zipf-mandelbrot",
"options": {"alpha": 0.9, "shift": 8.0}}}}``) and the docs generator can
catalogue them.  Sampling is driven by the caller's seeded RNG, so runs
stay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.api.registry import POPULARITY
from repro.api.schema import NonNegative, check


class PopularityModel:
    """Interface: a probability distribution over key ranks.

    ``probabilities(num_keys)`` returns a length-``num_keys`` vector that
    sums to 1, with rank 0 the hottest key; ``sample`` draws keys with
    replacement using the caller's RNG (which is what keeps arrival
    processes deterministic under their own seeds).
    """

    def probabilities(self, num_keys: int) -> np.ndarray:
        raise NotImplementedError

    def sample(
        self, rng: np.random.Generator, keys: Sequence[str], count: int
    ) -> list[str]:
        """Draw ``count`` keys with replacement under this distribution."""
        probabilities = self.probabilities(len(keys))
        chosen = rng.choice(len(keys), size=count, p=probabilities)
        return [keys[int(index)] for index in chosen]


def _validated_num_keys(num_keys: int) -> int:
    if num_keys <= 0:
        raise ValueError("need at least one key")
    return num_keys


@POPULARITY.register("uniform")
@dataclass(frozen=True)
class UniformPopularity(PopularityModel):
    """The null model: every key is equally likely."""

    def probabilities(self, num_keys: int) -> np.ndarray:
        num_keys = _validated_num_keys(num_keys)
        return np.full(num_keys, 1.0 / num_keys)


@POPULARITY.register("zipf")
@dataclass(frozen=True)
class ZipfPopularity(PopularityModel):
    """Pure Zipf: ``p(rank) ∝ (rank+1)^-alpha`` (``alpha=0`` is uniform)."""

    alpha: NonNegative = 1.0

    def __post_init__(self) -> None:
        check(self)

    def probabilities(self, num_keys: int) -> np.ndarray:
        num_keys = _validated_num_keys(num_keys)
        weights = (np.arange(num_keys) + 1.0) ** -self.alpha
        return weights / weights.sum()


@POPULARITY.register("zipf-mandelbrot")
@dataclass(frozen=True)
class ZipfMandelbrotPopularity(PopularityModel):
    """Shifted Zipf: ``p(rank) ∝ (rank+1+shift)^-alpha``.

    The ``shift`` (Mandelbrot's ``q``) flattens the head of the curve —
    measured CDN popularity usually shows the top handful of objects
    closer in popularity than a pure power law predicts.
    """

    alpha: NonNegative = 1.0
    shift: NonNegative = 0.0

    def __post_init__(self) -> None:
        check(self)

    def probabilities(self, num_keys: int) -> np.ndarray:
        num_keys = _validated_num_keys(num_keys)
        weights = (np.arange(num_keys) + 1.0 + self.shift) ** -self.alpha
        return weights / weights.sum()


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

#: Published object-popularity CDFs: fraction of requests absorbed by the
#: top ``rank`` objects, at a handful of measured ranks over the named
#: catalogue size.  Values are rounded the way the source plots report
#: them, so a fit against these points is a genuine calibration, not a
#: tautology.  Sources: Breslau et al., "Web Caching and Zipf-like
#: Distributions" (INFOCOM 1999) report alpha in 0.64–0.83 across six
#: proxy traces; VoD/CDN studies (e.g. Yu et al., EuroSys 2006; Imbrenda
#: et al., CoNEXT 2014) report alpha near 0.8–1.0 with a flattened head.
CDN_POPULARITY_CDFS: dict[str, dict] = {
    "web-proxy-breslau99": {
        "description": "Aggregate web-proxy object popularity, Zipf-like "
        "with alpha ≈ 0.75 (Breslau et al., INFOCOM 1999).",
        "catalogue_size": 1000,
        "ranks": (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
        "cdf": (0.036, 0.057, 0.098, 0.138, 0.185, 0.261, 0.330, 0.411, 0.540, 0.655),
    },
    "cdn-vod-longtail": {
        "description": "Video-on-demand CDN popularity, steeper head with "
        "alpha ≈ 0.9 (after Yu et al., EuroSys 2006).",
        "catalogue_size": 1000,
        "ranks": (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
        "cdf": (0.074, 0.113, 0.179, 0.237, 0.301, 0.395, 0.472, 0.553, 0.668, 0.760),
    },
    "cdn-web-objects": {
        "description": "Small-object CDN cache popularity, near-unit "
        "exponent alpha ≈ 1.0 (after Imbrenda et al., CoNEXT 2014).",
        "catalogue_size": 1000,
        "ranks": (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
        "cdf": (0.134, 0.201, 0.291, 0.363, 0.436, 0.537, 0.615, 0.694, 0.796, 0.866),
    },
}


def counts_from_cdf(
    ranks: Sequence[int], cdf: Sequence[float], total_requests: int = 100_000
) -> np.ndarray:
    """Expand a measured CDF into per-rank pseudo request counts.

    The CDF gives cumulative request share at a few measured ranks; the
    mass of each bucket is spread evenly across the ranks it covers, which
    is the standard way to un-bin a published popularity plot before
    fitting.  Returns integer counts over ranks ``1..max(ranks)``.
    """
    if len(ranks) != len(cdf):
        raise ValueError("ranks and cdf must have the same length")
    if not ranks or int(ranks[0]) < 1 or list(ranks) != sorted(
        set(int(rank) for rank in ranks)
    ):
        raise ValueError("ranks must be strictly increasing positive integers")
    if any(not 0.0 < value <= 1.0 for value in cdf):
        raise ValueError("cdf values must be in (0, 1]")
    if any(later <= earlier for earlier, later in zip(cdf, cdf[1:])):
        raise ValueError("cdf must be strictly increasing")
    counts = np.zeros(int(ranks[-1]))
    previous_rank, previous_cdf = 0, 0.0
    for rank, value in zip(ranks, cdf):
        bucket = int(rank) - previous_rank
        share = (value - previous_cdf) / bucket
        counts[previous_rank : int(rank)] = share * total_requests
        previous_rank, previous_cdf = int(rank), value
    return np.round(counts).astype(int)


def fit_zipf(
    counts: Sequence[int] | np.ndarray,
    low: float = 0.0,
    high: float = 4.0,
    tolerance: float = 1e-6,
) -> float:
    """Maximum-likelihood Zipf exponent for per-rank request counts.

    ``counts[r]`` is how many requests hit the rank-``r`` key (rank 0
    hottest).  The log-likelihood of a bounded Zipf with exponent ``a`` is
    ``-a·Σ c_r·ln(r+1) - C·ln H(a)`` with ``H(a) = Σ (r+1)^-a``; it is
    strictly concave in ``a``, so a golden-section search over
    ``[low, high]`` finds the MLE deterministically.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1 or len(counts) < 2:
        raise ValueError("need counts over at least two ranks")
    if np.any(counts < 0) or counts.sum() <= 0:
        raise ValueError("counts must be non-negative with a positive total")
    if not low < high:
        raise ValueError("need low < high")
    log_ranks = np.log(np.arange(len(counts)) + 1.0)
    total = counts.sum()
    weighted = float(np.dot(counts, log_ranks))

    def negative_log_likelihood(alpha: float) -> float:
        normalizer = float(np.exp(-alpha * log_ranks).sum())
        return alpha * weighted + total * math.log(normalizer)

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = low, high
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = negative_log_likelihood(c), negative_log_likelihood(d)
    while b - a > tolerance:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = negative_log_likelihood(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = negative_log_likelihood(d)
    return (a + b) / 2.0


def fit_zipf_to_dataset(dataset: str) -> float:
    """MLE Zipf exponent for one bundled CDN CDF (KeyError lists names)."""
    try:
        spec = CDN_POPULARITY_CDFS[dataset]
    except KeyError:
        known = ", ".join(sorted(CDN_POPULARITY_CDFS))
        raise KeyError(f"unknown popularity dataset {dataset!r}; known: {known}") from None
    return fit_zipf(counts_from_cdf(spec["ranks"], spec["cdf"]))


def fit_zipf_to_keys(keys: Sequence[str]) -> float:
    """MLE Zipf exponent for an observed key sequence (e.g. a trace's keys).

    Keys are ranked by observed frequency (most frequent first); the fit is
    over those empirical rank counts.
    """
    if len(keys) == 0:
        raise ValueError("need at least one observed key")
    frequencies: dict[str, int] = {}
    for key in keys:
        frequencies[key] = frequencies.get(key, 0) + 1
    counts = sorted(frequencies.values(), reverse=True)
    if len(counts) < 2:
        raise ValueError("need observations of at least two distinct keys to fit")
    return fit_zipf(counts)


@POPULARITY.register("cdn-calibrated")
class CalibratedPopularity(ZipfPopularity):
    """A Zipf model whose exponent is fitted to a bundled CDN dataset.

    ``CalibratedPopularity(dataset="web-proxy-breslau99")`` runs
    :func:`fit_zipf` against the named published CDF at construction time
    and behaves like the resulting :class:`ZipfPopularity` — so a config
    can ask for "traffic skewed like measured web-proxy load" without
    hard-coding an exponent.
    """

    def __init__(self, dataset: str = "web-proxy-breslau99") -> None:
        object.__setattr__(self, "dataset", dataset)
        super().__init__(alpha=fit_zipf_to_dataset(dataset))


__all__ = [
    "CDN_POPULARITY_CDFS",
    "CalibratedPopularity",
    "PopularityModel",
    "UniformPopularity",
    "ZipfMandelbrotPopularity",
    "ZipfPopularity",
    "counts_from_cdf",
    "fit_zipf",
    "fit_zipf_to_dataset",
    "fit_zipf_to_keys",
]
