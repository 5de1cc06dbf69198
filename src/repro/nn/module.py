"""Module and parameter abstractions for the numpy CNN substrate.

The design intentionally mirrors a very small subset of ``torch.nn``:

* a :class:`Parameter` couples a value array with its gradient;
* a :class:`Module` owns parameters and child modules, exposes
  ``forward``/``backward`` and bookkeeping (train/eval mode, parameter
  iteration, state dicts);
* a :class:`Sequential` chains modules.

Backward passes are written explicitly per layer (no autograd tape); each
layer caches whatever it needs during ``forward`` and consumes it in
``backward``.  This keeps the framework small, easy to test with numerical
gradient checks, and fast enough for the small models trained in the
examples and integration tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np


class Parameter:
    """A trainable tensor: value plus accumulated gradient."""

    def __init__(self, value: np.ndarray, requires_grad: bool = True) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.value.shape}, requires_grad={self.requires_grad})"


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- attribute plumbing -------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- forward/backward ---------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- mode ---------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- parameter access ---------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def num_parameters(self, trainable_only: bool = False) -> int:
        return sum(
            p.size
            for p in self.parameters()
            if (p.requires_grad or not trainable_only)
        )

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- children -----------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.value.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        for name, value in state.items():
            if name in params:
                if params[name].value.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{params[name].value.shape} vs {value.shape}"
                    )
                params[name].value[...] = value
            elif name in buffers:
                buffers[name][...] = value
            else:
                raise KeyError(f"unexpected key in state dict: {name}")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Non-trainable state (e.g. batch-norm running statistics)."""
        for name, buf in getattr(self, "_buffers", {}).items():
            yield (f"{prefix}{name}", buf)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        if "_buffers" not in self.__dict__:
            object.__setattr__(self, "_buffers", OrderedDict())
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child_repr = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({child_repr})"


class Sequential(Module):
    """Chain modules; forward applies them in order, backward in reverse."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = f"layer{len(self._order)}"
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Module]:
        for name in self._order:
            yield self._modules[name]

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self:
            x = module(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for module in reversed(list(self)):
            grad_output = module.backward(grad_output)
        return grad_output
