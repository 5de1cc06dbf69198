"""Low-level tensor helpers shared by layers.

The convolution layers use the classic im2col/col2im lowering: a convolution
over an NCHW tensor becomes a single matrix multiplication against an
unfolded patch matrix.  This is how many CPU libraries implement convolution
and it keeps the numpy implementation both simple and reasonably fast.
"""

from __future__ import annotations

import numpy as np


def require_sizes(layer: str, minimum: int = 1, **sizes: int) -> None:
    """Raise ``ValueError`` naming the first of ``sizes`` not an integer ``>= minimum``.

    Layers check their sizes before drawing any weights, so a zero width
    or a stray float from a config fails at build naming the argument.
    """
    for name, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
            raise ValueError(f"{layer} {name} must be an integer >= {minimum}, got {value!r}")


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad an NCHW tensor's spatial dims: ``np.pad``'s result without its set-up cost."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    padded[:, :, padding:-padding, padding:-padding] = x
    return padded


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """Unfold an NCHW tensor into patch columns.

    Returns an array of shape ``(N, C * kernel_h * kernel_w, out_h * out_w)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    x_padded = pad_nchw(x, padding)

    cols = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x_padded[:, :, i:i_max:stride, j:j_max:stride]
    return cols.reshape(n, c * kernel_h * kernel_w, out_h * out_w)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch columns back into an NCHW tensor (adjoint of :func:`im2col`)."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    cols = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)

    h_padded, w_padded = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, h_padded, w_padded), dtype=cols.dtype)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding == 0:
        return x_padded
    return x_padded[:, :, padding:-padding, padding:-padding]
