"""2-D convolution (including depthwise / grouped convolution)."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.functional import col2im, conv_output_size, im2col, require_sizes
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """2-D convolution over NCHW tensors via im2col lowering.

    Supports grouped convolution (``groups > 1``), which MobileNetV2's
    depthwise convolutions require (``groups == in_channels``).  Every
    convolution is one unfold over all input channels and one ``np.matmul``
    batched over images and groups: one in the forward pass, two in the backward.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.  Both must be divisible by ``groups``.
    kernel_size:
        Square kernel size.
    stride, padding:
        Spatial stride and symmetric zero padding.
    bias:
        Whether to add a learned per-output-channel bias.  The reference
        architectures use ``bias=False`` before batch normalization.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        require_sizes(
            "Conv2d", in_channels=in_channels, out_channels=out_channels,
            kernel_size=kernel_size, stride=stride, groups=groups,
        )
        require_sizes("Conv2d", minimum=0, padding=padding)
        if in_channels % groups or out_channels % groups:
            raise ValueError("in_channels and out_channels must be divisible by groups")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.has_bias = bias

        rng = rng or np.random.default_rng(0)
        weight_shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(initializers.kaiming_normal(weight_shape, rng))
        if bias:
            self.bias = Parameter(initializers.zeros((out_channels,)))
        self._cache: tuple | None = None

    # -- shape inference ----------------------------------------------------
    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        n, c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {c}"
            )
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (n, self.out_channels, out_h, out_w)

    # -- forward ------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        n, out_c, out_h, out_w = self.output_shape(x.shape)
        k = self.kernel_size
        # One unfold over all channels.  Its rows are channel-major, so
        # group g owns the g-th block of ``in_channels // groups * k * k`` rows.
        cols = im2col(x, k, k, self.stride, self.padding)
        cols = cols.reshape(n, self.groups, -1, cols.shape[-1])
        weight = self.weight.value.reshape(self.groups, out_c // self.groups, -1)
        # (G, go, gi·k·k) @ (n, G, gi·k·k, L) is one GEMM per image and group;
        # its C-contiguous (n, G, go, L) result reshapes to NCHW without a copy.
        out = np.matmul(weight, cols).reshape(n, out_c, out_h, out_w)
        if self.has_bias:
            out += self.bias.value.reshape(1, -1, 1, 1)
        self._cache = (x.shape, cols)
        return out

    # -- backward -----------------------------------------------------------
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        input_shape, cols = self._cache
        n, out_c, out_h, out_w = grad_output.shape
        k = self.kernel_size

        if self.has_bias:
            self.bias.grad += grad_output.sum(axis=(0, 2, 3))

        grad_out = grad_output.reshape(n, self.groups, out_c // self.groups, out_h * out_w)
        grad_w = np.matmul(grad_out, cols.swapaxes(-1, -2)).sum(axis=0)
        self.weight.grad += grad_w.reshape(self.weight.grad.shape)

        # input gradient: W^T @ grad_out, folded back with col2im
        weight = self.weight.value.reshape(self.groups, out_c // self.groups, -1)
        grad_cols = np.matmul(weight.swapaxes(-1, -2), grad_out)
        return col2im(
            grad_cols.reshape(n, -1, out_h * out_w), input_shape, k, k, self.stride, self.padding
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, groups={self.groups}, bias={self.has_bias})"
        )
