"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.functional import require_sizes
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x W^T + b`` over 2-D inputs ``(N, in_features)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        require_sizes("Linear", in_features=in_features, out_features=out_features)
        self.in_features = in_features
        self.out_features = out_features
        self.has_bias = bias
        rng = rng or np.random.default_rng(0)
        self.weight = Parameter(
            initializers.kaiming_uniform((out_features, in_features), rng)
        )
        if bias:
            self.bias = Parameter(
                initializers.uniform_fan_in_bias(
                    (out_features, in_features), out_features, rng
                )
            )
        self._cache: np.ndarray | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape[-1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} input features, got {input_shape[-1]}"
            )
        return (*input_shape[:-1], self.out_features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Linear expects a 2-D input, got shape {x.shape}")
        self._cache = x
        out = x @ self.weight.value.T
        if self.has_bias:
            out = out + self.bias.value
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache
        self.weight.grad += grad_output.T @ x
        if self.has_bias:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Linear({self.in_features}, {self.out_features}, bias={self.has_bias})"
