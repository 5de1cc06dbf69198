"""Full-reference image quality metrics.

The paper's storage calibration (§V) uses SSIM (Wang et al., 2004) as a
fast proxy for downstream model accuracy: for each inference resolution it
binary-searches the minimum SSIM threshold (against the full-quality resized
image) that keeps accuracy within 0.05%.  PSNR is included for completeness
and ablations.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.color import rgb_to_grayscale


def mse(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean squared error between two images of identical shape."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    return float(np.mean((reference - test) ** 2))


def psnr(reference: np.ndarray, test: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for identical images)."""
    error = mse(reference, test)
    if error == 0.0:
        return float("inf")
    return float(10.0 * np.log10((data_range**2) / error))


def _box_filter(images: np.ndarray, size: int) -> np.ndarray:
    """Mean over a ``size``×``size`` window of the last two axes, edges mirrored.

    Keeps the arithmetic of ``scipy.ndimage.uniform_filter(mode="reflect")``
    so results are bit-identical: per axis (rows, then columns), one
    sequential running sum of the unscaled window, divided once per output.
    A one-pixel window returns the input, as scipy does.
    """
    if size == 1:
        return images
    for axis in (-2, -1):
        n = images.shape[axis]
        pad = [(0, 0)] * images.ndim
        pad[axis] = (size // 2, size - size // 2 - 1)
        # numpy's "symmetric" (d c b a | a b c d | d c b a) is scipy's "reflect".
        sums = np.swapaxes(np.pad(images, pad, mode="symmetric"), axis, -1)
        # The first window's values, then what each step adds and drops
        # (numpy buffers the overlapping operands); accumulated in place,
        # entry size-1 onwards is the running window sum.
        sums[..., size:] -= sums[..., : n - 1]
        np.cumsum(sums, axis=-1, out=sums)
        images = np.swapaxes(sums[..., size - 1 :] / size, axis, -1)
    return images


def _ssim_single_channel(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float,
    window_size: int,
    k1: float,
    k2: float,
) -> float:
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    # Uniform window is the classic Wang et al. 8x8 variant; it is separable
    # and fast, which matters because calibration computes SSIM per image
    # per scan prefix.
    mu_x, mu_y, mean_xx, mean_yy, mean_xy = _box_filter(
        np.stack([reference, test, reference * reference, test * test, reference * test]),
        window_size,
    )
    mu_x_sq = mu_x * mu_x
    mu_y_sq = mu_y * mu_y
    mu_xy = mu_x * mu_y

    sigma_x_sq = np.maximum(mean_xx - mu_x_sq, 0.0)
    sigma_y_sq = np.maximum(mean_yy - mu_y_sq, 0.0)
    sigma_xy = mean_xy - mu_xy

    numerator = (2.0 * mu_xy + c1) * (2.0 * sigma_xy + c2)
    denominator = (mu_x_sq + mu_y_sq + c1) * (sigma_x_sq + sigma_y_sq + c2)
    return float(np.mean(numerator / denominator))


def ssim(
    reference: np.ndarray,
    test: np.ndarray,
    data_range: float = 1.0,
    window_size: int = 8,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Structural similarity index between two images.

    Color images are converted to luma first (the standard practice and what
    keeps the metric cheap enough to sit in front of the vision model —
    paper §III.a).  Returns a value in ``[-1, 1]`` with 1 meaning identical.
    ``window_size`` must be an int >= 1; images smaller than the window are
    scored with a window as wide as their shorter side.
    """
    if (
        isinstance(window_size, bool)
        or not isinstance(window_size, (int, np.integer))
        or window_size < 1
    ):
        raise ValueError(f"window_size must be an int >= 1, got {window_size!r}")
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    if reference.ndim != 2:
        reference = rgb_to_grayscale(reference)
        test = rgb_to_grayscale(test)
    if min(reference.shape[:2]) < window_size:
        window_size = max(1, min(reference.shape[:2]))
    return _ssim_single_channel(reference, test, data_range, window_size, k1, k2)
