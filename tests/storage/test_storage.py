"""Image store, bandwidth model and read-policy tests."""

import numpy as np
import pytest

from repro.codec.progressive import ProgressiveEncoder
from repro.imaging.metrics import ssim
from repro.storage.bandwidth import StorageBandwidthModel
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore, ReadReceipt


@pytest.fixture
def store_with_image(sample_image):
    store = ImageStore(encoder=ProgressiveEncoder(quality=85))
    store.put("img0", sample_image, label=3)
    return store


class TestImageStore:
    def test_put_and_metadata(self, store_with_image):
        assert "img0" in store_with_image
        assert len(store_with_image) == 1
        assert store_with_image.metadata("img0").label == 3

    def test_full_read_returns_faithful_image(self, store_with_image, sample_image):
        image, receipt = store_with_image.read("img0")
        assert image.shape == sample_image.shape
        assert receipt.relative_read_size == pytest.approx(1.0)
        assert ssim(sample_image, image) > 0.85

    def test_partial_read_costs_fewer_bytes(self, store_with_image):
        _, full = store_with_image.read("img0")
        _, partial = store_with_image.read("img0", num_scans=1)
        assert partial.bytes_read < full.bytes_read
        assert partial.bytes_saved > 0

    def test_read_accounting_accumulates(self, store_with_image):
        store_with_image.reset_counters()
        store_with_image.read("img0", 1)
        store_with_image.read("img0", 2)
        assert store_with_image.read_count == 2
        assert store_with_image.total_bytes_read > 0

    def test_incremental_read_never_double_charges(self, store_with_image):
        encoded = store_with_image.metadata("img0").encoded
        _, first = store_with_image.read("img0", 2)
        _, top_up = store_with_image.read_additional("img0", 2, 4)
        assert first.bytes_read + top_up.bytes_read == encoded.cumulative_bytes(4)

    def test_read_additional_rejects_unreading(self, store_with_image):
        with pytest.raises(ValueError):
            store_with_image.read_additional("img0", 3, 2)

    def test_missing_key_rejected(self, store_with_image):
        with pytest.raises(KeyError):
            store_with_image.read("missing")

    def test_overwrite_updates_stored_bytes(self, sample_image):
        store = ImageStore()
        store.put("a", sample_image)
        before = store.total_bytes_stored
        store.put("a", sample_image)
        assert store.total_bytes_stored == before

    def test_mean_object_bytes(self, store_with_image):
        assert store_with_image.mean_object_bytes == store_with_image.total_bytes_stored


class TestReadReceipt:
    def test_zero_byte_encoding_has_zero_relative_read_size(self):
        """Regression: degenerate zero-byte objects used to raise ZeroDivisionError."""
        receipt = ReadReceipt(key="empty", scans_read=0, bytes_read=0, total_bytes=0)
        assert receipt.relative_read_size == 0.0
        assert receipt.bytes_saved == 0

    def test_nonzero_encoding_unaffected(self):
        receipt = ReadReceipt(key="img", scans_read=2, bytes_read=250, total_bytes=1000)
        assert receipt.relative_read_size == pytest.approx(0.25)
        assert receipt.bytes_saved == 750


class TestBandwidthModel:
    def test_transfer_time_scales_with_bytes(self):
        model = StorageBandwidthModel(link_gbps=10.0)
        small = model.estimate(10_000)
        large = model.estimate(10_000_000)
        assert large.seconds > small.seconds

    def test_known_transfer_time(self):
        model = StorageBandwidthModel(link_gbps=8.0, per_request_latency_s=0.0)
        estimate = model.estimate(1_000_000_000)  # 1 GB over 1 GB/s
        assert estimate.seconds == pytest.approx(1.0)

    def test_cost_includes_egress_and_requests(self):
        model = StorageBandwidthModel(dollars_per_gb=0.1, dollars_per_1k_requests=1.0)
        estimate = model.estimate(2_000_000_000, num_requests=1000)
        assert estimate.dollars == pytest.approx(0.2 + 1.0)

    def test_savings_relative(self):
        model = StorageBandwidthModel()
        savings = model.savings(baseline_bytes=1000, observed_bytes=700)
        assert savings["relative_bytes_saved"] == pytest.approx(0.3)
        assert savings["bytes_saved"] == 300

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            StorageBandwidthModel(link_gbps=0.0)
        with pytest.raises(ValueError):
            StorageBandwidthModel().estimate(-1)
        with pytest.raises(ValueError):
            StorageBandwidthModel().savings(0, 0)


class TestScanReadPolicy:
    def test_no_threshold_reads_everything(self, encoded_image):
        policy = ScanReadPolicy()
        assert policy.scans_for(encoded_image, 64) == encoded_image.num_scans

    def test_low_threshold_reads_less_than_high_threshold(self, encoded_image):
        relaxed = ScanReadPolicy(ssim_thresholds={64: 0.5})
        strict = ScanReadPolicy(ssim_thresholds={64: 0.999})
        assert relaxed.scans_for(encoded_image, 64) <= strict.scans_for(encoded_image, 64)

    def test_threshold_is_respected(self, encoded_image):
        from repro.imaging.resize import resize

        threshold = 0.96
        policy = ScanReadPolicy(ssim_thresholds={64: threshold})
        scans = policy.scans_for(encoded_image, 64)
        reference = resize(encoded_image.decode(), (64, 64))
        achieved = ssim(reference, resize(encoded_image.decode(scans), (64, 64)))
        assert achieved >= threshold or scans == encoded_image.num_scans

    def test_cache_avoids_recomputation(self, encoded_image):
        policy = ScanReadPolicy(ssim_thresholds={64: 0.97})
        first = policy.scans_for(encoded_image, 64, key="k")
        assert ("k", 64) in policy.cache
        assert policy.scans_for(encoded_image, 64, key="k") == first

    def test_a_replaced_object_gets_its_own_scan_count(self):
        """A smooth ramp meets the threshold in fewer scans than noise: once
        the key holds the noise, a reused policy must count again."""
        ramp = np.tile(np.linspace(0.0, 1.0, 64), (64, 1))[..., None].repeat(3, axis=2)
        noise = np.random.default_rng(0).random((64, 64, 3))
        store = ImageStore(encoder=ProgressiveEncoder(quality=85))
        policy = ScanReadPolicy(ssim_thresholds={32: 0.92})
        store.put("k", ramp)
        smooth = policy.scans_for(store.metadata("k").encoded, 32, key="k")
        store.put("k", noise)
        replaced = store.metadata("k").encoded
        fresh = ScanReadPolicy(ssim_thresholds={32: 0.92}).scans_for(replaced, 32, key="k")
        assert fresh > smooth
        assert policy.scans_for(replaced, 32, key="k") == fresh

    def test_expected_relative_read(self, encoded_image):
        policy = ScanReadPolicy(ssim_thresholds={64: 0.9})
        value = policy.expected_relative_read([encoded_image], 64)
        assert 0.0 < value <= 1.0
        with pytest.raises(ValueError):
            policy.expected_relative_read([], 64)
