"""Layer and module abstractions for the neural substrate.

Only the pieces the deep clustering models need are provided: trainable
:class:`Parameter`, a :class:`Module` base with parameter discovery, dense
:class:`Linear` layers and :class:`Sequential` composition.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..config import make_rng
from .init import xavier_uniform, zeros
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "Sequential"]


class Parameter(Tensor):
    """A tensor that is always trainable."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class providing recursive parameter discovery."""

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters reachable from this module."""
        found: list[Parameter] = []
        seen: set[int] = set()
        self._collect(found, seen)
        return found

    def _collect(self, found: list[Parameter], seen: set[int]) -> None:
        for value in vars(self).values():
            self._collect_value(value, found, seen)

    def _collect_value(self, value, found: list[Parameter], seen: set[int]) -> None:
        if isinstance(value, Parameter):
            if id(value) not in seen:
                seen.add(id(value))
                found.append(value)
        elif isinstance(value, Module):
            value._collect(found, seen)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._collect_value(item, found, seen)
        elif isinstance(value, dict):
            for item in value.values():
                self._collect_value(item, found, seen)

    def zero_grad(self) -> None:
        """Reset the gradient of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        """Compute the module's output (implemented by subclasses)."""
        raise NotImplementedError

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of parameter index to its value (not a copy).

        The optimisers replace ``param.data`` rather than writing into
        it, so a state taken before more training keeps its values.
        """
        return {f"param_{i}": p.data for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict` (same architecture).

        The arrays are adopted, not copied: a checkpoint's read-only
        mapped views stay shared with every process that maps the file.
        """
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} entries, module has {len(params)} parameters")
        for i, param in enumerate(params):
            value = state[f"param_{i}"]
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {i}: "
                    f"{value.shape} vs {param.data.shape}")
            param.data = np.asarray(value, dtype=np.float64)


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, *,
                 bias: bool = True, seed: int | None = None,
                 init: Callable[[tuple[int, ...], np.random.Generator], np.ndarray]
                 = xavier_uniform) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("Linear layer dimensions must be positive")
        rng = make_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init((out_features, in_features), rng),
                                name=f"linear_w_{in_features}x{out_features}")
        self.bias = (Parameter(zeros((out_features,)), name="linear_b")
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        """Affine transform of ``(n, in_features)`` to ``(n, out_features)``."""
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Sequential(Module):
    """Apply a sequence of modules / callables in order."""

    def __init__(self, *stages) -> None:
        self.stages = list(stages)

    def forward(self, x: Tensor) -> Tensor:
        """Feed ``x`` through every stage in order."""
        for stage in self.stages:
            x = stage(x)
        return x

    def __iter__(self) -> Iterator:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def append(self, stage) -> None:
        """Add a stage to the end of the pipeline."""
        self.stages.append(stage)
