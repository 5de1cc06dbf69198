"""Validation guards on the existing config-like dataclasses the facade builds.

One test per guard added in this PR; the pre-existing guards (cache
capacity, arrival rates, worker count) are covered by their own suites.
"""

import pytest

from repro.serving.server import ServerConfig
from repro.storage.bandwidth import StorageBandwidthModel
from repro.storage.policy import ScanReadPolicy


class TestServerConfigGuards:
    def test_accepts_the_standard_shape(self):
        config = ServerConfig(resolutions=(24, 32, 48), scale_resolution=24)
        assert config.num_workers == 2

    def test_rejects_non_positive_resolution(self):
        with pytest.raises(ValueError, match="positive"):
            ServerConfig(resolutions=(24, 0))

    def test_rejects_scale_resolution_outside_the_ladder(self):
        with pytest.raises(ValueError, match="scale_resolution"):
            ServerConfig(resolutions=(24, 32, 48), scale_resolution=16)

    def test_rejects_non_positive_batch_size(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServerConfig(resolutions=(24,), max_batch_size=0)

    def test_rejects_negative_wait(self):
        with pytest.raises(ValueError, match="wait"):
            ServerConfig(resolutions=(24,), max_wait_s=-0.001)

    def test_rejects_negative_scale_model_time(self):
        with pytest.raises(ValueError, match="scale_model_seconds"):
            ServerConfig(resolutions=(24,), scale_model_seconds=-1.0)

    def test_rejects_out_of_range_crop_ratio(self):
        with pytest.raises(ValueError, match="crop_ratio"):
            ServerConfig(resolutions=(24,), crop_ratio=0.0)
        with pytest.raises(ValueError, match="crop_ratio"):
            ServerConfig(resolutions=(24,), crop_ratio=1.5)


class TestScanReadPolicyGuards:
    def test_accepts_calibrated_thresholds(self):
        policy = ScanReadPolicy(ssim_thresholds={24: 0.9, 48: 1.0})
        assert policy.ssim_thresholds[48] == 1.0

    def test_rejects_non_positive_resolution_key(self):
        with pytest.raises(ValueError, match="ssim_thresholds key 0"):
            ScanReadPolicy(ssim_thresholds={0: 0.9})

    def test_rejects_threshold_above_one(self):
        with pytest.raises(ValueError, match="ssim_thresholds"):
            ScanReadPolicy(ssim_thresholds={24: 1.2})

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError, match="ssim_thresholds"):
            ScanReadPolicy(ssim_thresholds={24: 0.0})


class TestBandwidthModelGuards:
    def test_rejects_negative_request_latency(self):
        with pytest.raises(ValueError, match="latency"):
            StorageBandwidthModel(per_request_latency_s=-0.1)

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError, match="dollars_per_gb"):
            StorageBandwidthModel(dollars_per_gb=-0.01)
        with pytest.raises(ValueError, match="dollars_per_1k_requests"):
            StorageBandwidthModel(dollars_per_1k_requests=-0.01)
