"""Analytic FLOP / MAC counting.

The paper reports compute cost in "billions of floating-point operations"
(Table I: ResNet-18 at 224x224 = 1.8, ResNet-50 at 224x224 = 4.1), which is
the *multiply-accumulate* (MAC) convention most papers use.  The counter
here follows the same convention by default (``convention="macs"``) and can
also report true FLOPs (2 x MACs) with ``convention="flops"``.

Counting is done by shape traversal (no forward pass is executed), so it is
exact and fast even for ResNet-50 at 448x448.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers.activations import LeakyReLU, ReLU, ReLU6, Sigmoid
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.mobilenet import ConvBNReLU, InvertedResidual, MobileNetV2
from repro.nn.module import Module, Sequential
from repro.nn.resnet import BasicBlock, Bottleneck, ResNet

_ELEMENTWISE = (ReLU, ReLU6, LeakyReLU, Sigmoid, Dropout, Flatten)


@dataclass(frozen=True)
class LayerFlops:
    """Per-layer cost record produced by :func:`trace_model`.

    ``detail`` carries layer-type specific attributes (for convolutions:
    kernel size, stride, padding, groups) so downstream consumers such as
    the kernel autotuner can rebuild the exact operator workload.
    """

    name: str
    layer_type: str
    macs: int
    params: int
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    detail: tuple[tuple[str, int], ...] = ()

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def detail_dict(self) -> dict[str, int]:
        return dict(self.detail)


def conv2d_macs(layer: Conv2d, input_shape: tuple[int, ...]) -> int:
    """MACs of a (possibly grouped) convolution for a given input shape."""
    out_shape = layer.output_shape(input_shape)
    n, out_c, out_h, out_w = out_shape
    kernel_ops = layer.kernel_size * layer.kernel_size * (layer.in_channels // layer.groups)
    macs = n * out_c * out_h * out_w * kernel_ops
    if layer.has_bias:
        macs += n * out_c * out_h * out_w
    return int(macs)


def linear_macs(layer: Linear, input_shape: tuple[int, ...]) -> int:
    n = int(np.prod(input_shape[:-1]))
    macs = n * layer.in_features * layer.out_features
    if layer.has_bias:
        macs += n * layer.out_features
    return int(macs)


def _param_count(module: Module) -> int:
    return sum(p.size for p in module._parameters.values())


def _trace(
    module: Module,
    input_shape: tuple[int, ...],
    name: str,
    records: list[LayerFlops],
) -> tuple[int, ...]:
    """Recursively trace ``module`` and append per-leaf-layer records.

    Returns the output shape of the module.
    """
    # ---- leaf layers -------------------------------------------------------
    if isinstance(module, Conv2d):
        out_shape = module.output_shape(input_shape)
        detail = (
            ("kernel_size", module.kernel_size),
            ("stride", module.stride),
            ("padding", module.padding),
            ("groups", module.groups),
        )
        records.append(
            LayerFlops(name, "Conv2d", conv2d_macs(module, input_shape),
                       _param_count(module), input_shape, out_shape, detail)
        )
        return out_shape
    if isinstance(module, Linear):
        out_shape = module.output_shape(input_shape)
        records.append(
            LayerFlops(name, "Linear", linear_macs(module, input_shape),
                       _param_count(module), input_shape, out_shape)
        )
        return out_shape
    if isinstance(module, BatchNorm2d):
        # Folded at inference time in practice; count one MAC per element.
        macs = int(np.prod(input_shape))
        records.append(
            LayerFlops(name, "BatchNorm2d", macs, _param_count(module),
                       input_shape, input_shape)
        )
        return input_shape
    if isinstance(module, (MaxPool2d, AvgPool2d, GlobalAvgPool2d)):
        out_shape = module.output_shape(input_shape)
        records.append(
            LayerFlops(name, type(module).__name__, 0, 0, input_shape, out_shape)
        )
        return out_shape
    if isinstance(module, _ELEMENTWISE):
        out_shape = (
            module.output_shape(input_shape)
            if hasattr(module, "output_shape")
            else input_shape
        )
        records.append(
            LayerFlops(name, type(module).__name__, 0, 0, input_shape, out_shape)
        )
        return out_shape

    # ---- containers / composite blocks -------------------------------------
    if isinstance(module, Sequential):
        shape = input_shape
        for index, child in enumerate(module):
            shape = _trace(child, shape, f"{name}.{index}", records)
        return shape
    if isinstance(module, BasicBlock):
        shape = _trace(module.conv1, input_shape, f"{name}.conv1", records)
        shape = _trace(module.bn1, shape, f"{name}.bn1", records)
        shape = _trace(module.conv2, shape, f"{name}.conv2", records)
        shape = _trace(module.bn2, shape, f"{name}.bn2", records)
        if module.has_downsample:
            _trace(module.down_conv, input_shape, f"{name}.down_conv", records)
            _trace(module.down_bn, shape, f"{name}.down_bn", records)
        return shape
    if isinstance(module, Bottleneck):
        shape = _trace(module.conv1, input_shape, f"{name}.conv1", records)
        shape = _trace(module.bn1, shape, f"{name}.bn1", records)
        shape = _trace(module.conv2, shape, f"{name}.conv2", records)
        shape = _trace(module.bn2, shape, f"{name}.bn2", records)
        shape = _trace(module.conv3, shape, f"{name}.conv3", records)
        shape = _trace(module.bn3, shape, f"{name}.bn3", records)
        if module.has_downsample:
            _trace(module.down_conv, input_shape, f"{name}.down_conv", records)
            _trace(module.down_bn, shape, f"{name}.down_bn", records)
        return shape
    if isinstance(module, ConvBNReLU):
        shape = _trace(module.conv, input_shape, f"{name}.conv", records)
        shape = _trace(module.bn, shape, f"{name}.bn", records)
        return shape
    if isinstance(module, InvertedResidual):
        shape = input_shape
        if module.has_expand:
            shape = _trace(module.expand, shape, f"{name}.expand", records)
        shape = _trace(module.depthwise, shape, f"{name}.depthwise", records)
        shape = _trace(module.project_conv, shape, f"{name}.project_conv", records)
        shape = _trace(module.project_bn, shape, f"{name}.project_bn", records)
        return shape
    if isinstance(module, ResNet):
        shape = _trace(module.stem_conv, input_shape, f"{name}.stem_conv", records)
        shape = _trace(module.stem_bn, shape, f"{name}.stem_bn", records)
        if module.has_stem_pool:
            shape = _trace(module.stem_pool, shape, f"{name}.stem_pool", records)
        shape = _trace(module.stage1, shape, f"{name}.stage1", records)
        shape = _trace(module.stage2, shape, f"{name}.stage2", records)
        shape = _trace(module.stage3, shape, f"{name}.stage3", records)
        shape = _trace(module.stage4, shape, f"{name}.stage4", records)
        shape = _trace(module.avgpool, shape, f"{name}.avgpool", records)
        return _trace(module.fc, shape, f"{name}.fc", records)
    if isinstance(module, MobileNetV2):
        shape = _trace(module.stem, input_shape, f"{name}.stem", records)
        shape = _trace(module.features, shape, f"{name}.features", records)
        shape = _trace(module.head, shape, f"{name}.head", records)
        shape = _trace(module.avgpool, shape, f"{name}.avgpool", records)
        return _trace(module.classifier, shape, f"{name}.classifier", records)

    raise TypeError(f"flop counting does not know how to trace {type(module).__name__}")


def trace_model(
    model: Module, input_shape: tuple[int, int, int, int]
) -> list[LayerFlops]:
    """Trace ``model`` for ``input_shape`` (NCHW) and return per-layer records."""
    if len(input_shape) != 4:
        raise ValueError("input_shape must be (N, C, H, W)")
    records: list[LayerFlops] = []
    _trace(model, tuple(int(d) for d in input_shape), type(model).__name__, records)
    return records


def count_model_flops(
    model: Module,
    resolution: int,
    batch_size: int = 1,
    channels: int = 3,
    convention: str = "macs",
) -> int:
    """Total compute cost of ``model`` at a square ``resolution``.

    ``convention="macs"`` matches the paper's "FLOPs" numbers; use
    ``convention="flops"`` for true floating-point operations (2 x MACs).
    """
    records = trace_model(model, (batch_size, channels, resolution, resolution))
    total_macs = sum(r.macs for r in records)
    if convention == "macs":
        return total_macs
    if convention == "flops":
        return 2 * total_macs
    raise ValueError(f"unknown convention {convention!r}")


def count_model_gflops(
    model: Module,
    resolution: int,
    batch_size: int = 1,
    convention: str = "macs",
) -> float:
    """Compute cost in units of 1e9 (the unit used throughout the paper)."""
    return count_model_flops(model, resolution, batch_size, convention=convention) / 1e9
