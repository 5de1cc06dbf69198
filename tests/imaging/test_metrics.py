"""PSNR and SSIM tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.metrics import _box_filter, mse, psnr, ssim

REPO_ROOT = Path(__file__).resolve().parents[2]

#: SSIM of tiny images (shorter side under the default 8 px window), as
#: the scipy ``uniform_filter`` implementation computed them, repr-exact.
#: Inputs: ``a = default_rng(0).random(shape)`` then
#: ``b = clip(a + normal(0, 0.1, shape), 0, 1)`` from the same generator,
#: in this order.
TINY_IMAGE_SSIM = [
    ((1, 1), 0.9997804502739609),
    ((2, 2), 0.6737770885194857),
    ((3, 5), 0.9725100103242795),
    ((5, 3), 0.9158752590199323),
    ((7, 7), 0.9527768822252742),
    ((4, 9), 0.9302097476808182),
    ((6, 6, 3), 0.9358516312418588),
]


@pytest.fixture(scope="module")
def ndimage():
    """scipy's filters, the oracle for the box filter (a test-only dependency)."""
    return pytest.importorskip("scipy.ndimage")


class TestMSEAndPSNR:
    def test_identical_images(self, sample_image):
        assert mse(sample_image, sample_image) == 0.0
        assert psnr(sample_image, sample_image) == float("inf")

    def test_known_mse(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.5)
        assert mse(a, b) == pytest.approx(0.25)

    def test_psnr_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_psnr_decreases_with_noise(self, sample_image, rng):
        small = np.clip(sample_image + rng.normal(0, 0.01, sample_image.shape), 0, 1)
        large = np.clip(sample_image + rng.normal(0, 0.10, sample_image.shape), 0, 1)
        assert psnr(sample_image, small) > psnr(sample_image, large)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((5, 5)))


class TestSSIM:
    def test_identical_images_score_one(self, sample_image):
        assert ssim(sample_image, sample_image) == pytest.approx(1.0)

    def test_range_and_monotonic_degradation(self, sample_image, rng):
        values = []
        for sigma in (0.02, 0.08, 0.2):
            noisy = np.clip(sample_image + rng.normal(0, sigma, sample_image.shape), 0, 1)
            values.append(ssim(sample_image, noisy))
        assert all(-1.0 <= v <= 1.0 for v in values)
        assert values[0] > values[1] > values[2]

    def test_symmetry(self, sample_image, rng):
        other = np.clip(sample_image + rng.normal(0, 0.05, sample_image.shape), 0, 1)
        assert ssim(sample_image, other) == pytest.approx(ssim(other, sample_image), abs=1e-9)

    def test_constant_shift_scores_high_but_below_one(self):
        a = np.tile(np.linspace(0, 1, 32), (32, 1))
        b = np.clip(a + 0.05, 0, 1)
        value = ssim(a, b)
        assert 0.7 < value < 1.0

    def test_structural_destruction_scores_low(self, rng):
        structured = np.tile(np.linspace(0, 1, 64), (64, 1))
        noise = rng.random((64, 64))
        assert ssim(structured, noise) < 0.3

    def test_tiny_image_does_not_crash(self):
        a = np.random.default_rng(0).random((4, 4))
        assert -1.0 <= ssim(a, a) <= 1.0

    def test_blur_scores_lower_than_original(self, sample_image):
        # A 7x7 box blur of each channel, edges mirrored.
        padded = np.pad(sample_image, ((3, 3), (3, 3), (0, 0)), mode="symmetric")
        height, width = sample_image.shape[:2]
        blurred = sum(
            padded[i : i + height, j : j + width] for i in range(7) for j in range(7)
        ) / 49.0
        assert ssim(sample_image, blurred) < 0.98

    def test_shape_mismatch_rejected(self, sample_image):
        with pytest.raises(ValueError):
            ssim(sample_image, sample_image[:-1])

    def test_tiny_images_keep_their_scores(self):
        # Images under 8 px a side shrink the window to their shorter side,
        # so odd windows reach the filter; their scores are pinned exactly.
        rng = np.random.default_rng(0)
        for shape, expected in TINY_IMAGE_SSIM:
            a = rng.random(shape)
            b = np.clip(a + rng.normal(0, 0.1, shape), 0, 1)
            assert ssim(a, b) == expected, shape

    @pytest.mark.parametrize("shape", [(16,), (2, 16, 16, 3)])
    def test_non_image_shapes_rejected(self, shape):
        # The box filter runs over the last two axes of a 2-D gray image.
        a = np.random.default_rng(0).random(shape)
        with pytest.raises(ValueError, match="image"):
            ssim(a, a)

    @pytest.mark.parametrize("window_size", [0, -3, 2.5])
    def test_meaningless_window_rejected(self, window_size):
        a = np.random.default_rng(0).random((16, 16))
        with pytest.raises(ValueError, match="window_size"):
            ssim(a, 0.9 * a, window_size=window_size)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    depth=st.integers(1, 5),
    height=st.integers(1, 24),
    width=st.integers(1, 24),
    size=st.integers(1, 9),
    scale=st.sampled_from([1.0, 255.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_filter_matches_scipy_bit_for_bit(ndimage, depth, height, width, size, scale, seed):
    images = scale * np.random.default_rng(seed).random((depth, height, width))
    expected = np.stack(
        [ndimage.uniform_filter(image, size=size, mode="reflect") for image in images]
    )
    assert np.array_equal(_box_filter(images, size), expected)


def test_importing_the_engine_leaves_scipy_unloaded():
    code = (
        "import sys, repro.api.engine; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
