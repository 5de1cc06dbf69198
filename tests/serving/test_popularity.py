"""Popularity-model and Zipf-calibration tests.

The MLE fit is checked two ways: it must recover a known exponent from
synthetic power-law counts, and it must land the bundled published CDFs in
the alpha ranges their source papers report (Breslau et al. 1999: 0.64–0.83
for web proxies; CDN/VoD studies: roughly 0.8–1.1).
"""

import numpy as np
import pytest

from repro.api.config import PopularityConfig
from repro.api.registry import POPULARITY
from repro.serving.arrivals import PoissonArrivals, key_popularity
from repro.serving.popularity import (
    CDN_POPULARITY_CDFS,
    CalibratedPopularity,
    UniformPopularity,
    ZipfMandelbrotPopularity,
    ZipfPopularity,
    counts_from_cdf,
    fit_zipf,
    fit_zipf_to_dataset,
    fit_zipf_to_keys,
)

KEYS = [f"img{i}" for i in range(16)]


class TestModels:
    @pytest.mark.parametrize(
        "model",
        [
            UniformPopularity(),
            ZipfPopularity(alpha=0.8),
            ZipfMandelbrotPopularity(alpha=1.0, shift=5.0),
            CalibratedPopularity(),
        ],
    )
    def test_probabilities_are_a_distribution(self, model):
        probabilities = model.probabilities(50)
        assert probabilities.shape == (50,)
        assert probabilities.sum() == pytest.approx(1.0)
        assert np.all(probabilities > 0)
        # Rank 0 is always the hottest (weakly, for uniform).
        assert np.all(np.diff(probabilities) <= 1e-15)

    def test_zipf_alpha_zero_is_uniform(self):
        assert np.allclose(
            ZipfPopularity(alpha=0.0).probabilities(10),
            UniformPopularity().probabilities(10),
        )

    def test_mandelbrot_shift_flattens_the_head(self):
        pure = ZipfPopularity(alpha=1.0).probabilities(100)
        shifted = ZipfMandelbrotPopularity(alpha=1.0, shift=10.0).probabilities(100)
        assert shifted[0] / shifted[1] < pure[0] / pure[1]

    def test_sampling_is_deterministic_under_a_seeded_rng(self):
        model = ZipfPopularity(alpha=1.2)
        first = model.sample(np.random.default_rng(7), KEYS, 100)
        second = model.sample(np.random.default_rng(7), KEYS, 100)
        assert first == second

    def test_sampling_prefers_hot_ranks(self):
        chosen = ZipfPopularity(alpha=1.5).sample(
            np.random.default_rng(0), KEYS, 2000
        )
        counts = {key: chosen.count(key) for key in KEYS}
        assert counts["img0"] > counts["img8"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity(alpha=-0.5)
        with pytest.raises(ValueError):
            ZipfMandelbrotPopularity(shift=-1.0)
        with pytest.raises(ValueError):
            UniformPopularity().probabilities(0)


class TestFit:
    @pytest.mark.parametrize("alpha", [0.4, 0.8, 1.3])
    def test_recovers_a_known_exponent_from_exact_counts(self, alpha):
        ranks = np.arange(500) + 1.0
        counts = 1e6 * ranks**-alpha
        assert fit_zipf(counts) == pytest.approx(alpha, abs=0.01)

    def test_recovers_the_exponent_from_sampled_keys(self):
        keys = [f"k{i}" for i in range(200)]
        chosen = ZipfPopularity(alpha=0.9).sample(
            np.random.default_rng(0), keys, 20000
        )
        assert fit_zipf_to_keys(chosen) == pytest.approx(0.9, abs=0.1)

    def test_fit_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_zipf([5.0])
        with pytest.raises(ValueError):
            fit_zipf([0.0, 0.0])
        with pytest.raises(ValueError):
            fit_zipf_to_keys([])
        with pytest.raises(ValueError):
            fit_zipf_to_keys(["only-one-key"] * 10)

    def test_counts_from_cdf_conserves_total_mass(self):
        counts = counts_from_cdf((1, 10, 100), (0.2, 0.5, 1.0), total_requests=10_000)
        assert len(counts) == 100
        assert counts.sum() == pytest.approx(10_000, rel=0.01)

    def test_counts_from_cdf_validates_shape(self):
        with pytest.raises(ValueError):
            counts_from_cdf((1, 10), (0.2,))
        with pytest.raises(ValueError):
            counts_from_cdf((10, 1), (0.2, 0.5))
        with pytest.raises(ValueError):
            counts_from_cdf((1, 10), (0.5, 0.2))
        with pytest.raises(ValueError, match="positive"):
            counts_from_cdf((0, 10), (0.1, 0.5))
        with pytest.raises(ValueError):
            counts_from_cdf((), ())


class TestBundledDatasets:
    def test_bundled_alphas_land_in_published_ranges(self):
        assert 0.64 <= fit_zipf_to_dataset("web-proxy-breslau99") <= 0.83
        assert 0.80 <= fit_zipf_to_dataset("cdn-vod-longtail") <= 1.00
        assert 0.90 <= fit_zipf_to_dataset("cdn-web-objects") <= 1.10

    def test_unknown_dataset_lists_the_known_ones(self):
        with pytest.raises(KeyError, match="web-proxy-breslau99"):
            fit_zipf_to_dataset("nope")

    def test_every_dataset_has_a_description_and_consistent_shape(self):
        for name, spec in CDN_POPULARITY_CDFS.items():
            assert spec["description"], name
            assert len(spec["ranks"]) == len(spec["cdf"])


class TestFacadeWiring:
    def test_models_are_registered(self):
        for name in ("uniform", "zipf", "zipf-mandelbrot", "cdn-calibrated"):
            assert name in POPULARITY

    def test_registry_build_produces_a_working_model(self):
        model = POPULARITY.build("zipf-mandelbrot", alpha=0.9, shift=4.0)
        assert model.probabilities(10).sum() == pytest.approx(1.0)

    def test_calibrated_model_equals_the_fitted_zipf(self):
        model = CalibratedPopularity(dataset="cdn-vod-longtail")
        assert model.alpha == pytest.approx(fit_zipf_to_dataset("cdn-vod-longtail"))

    def test_arrival_processes_accept_a_popularity_model(self):
        skewed = PoissonArrivals(
            rate_rps=500.0, seed=1, popularity=ZipfPopularity(alpha=2.0)
        ).trace(KEYS, 500)
        flat = PoissonArrivals(rate_rps=500.0, seed=1).trace(KEYS, 500)
        hot = sum(1 for request in skewed if request.key == "img0")
        assert hot > sum(1 for request in flat if request.key == "img0")

    def test_a_model_takes_precedence_over_alpha(self):
        rng = np.random.default_rng(3)
        chosen = key_popularity(0.0, ZipfPopularity(alpha=3.0)).sample(rng, KEYS, 200)
        assert chosen.count("img0") > 100

    def test_popularity_config_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            PopularityConfig(name="zipf", options={"alpha": -1.0})
        config = PopularityConfig(name="cdn-calibrated", options={"dataset": "x"})
        assert PopularityConfig.from_dict(config.to_dict()) == config
