"""Base ``Module`` and ``Parameter`` classes.

Modules auto-register parameters, buffers, and submodules through attribute
assignment, mirroring the PyTorch idiom the original toolkit is written in.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.autograd import Tensor


class Parameter(Tensor):
    """A tensor that is a learnable leaf of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network components.

    Subclasses define ``forward`` and assign :class:`Parameter`,
    :class:`Module`, or buffer (plain ``numpy`` array via
    :meth:`register_buffer`) attributes in ``__init__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a registered buffer's contents."""
        if name not in self._buffers:
            raise KeyError(f"unknown buffer {name!r}")
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield (f"{prefix}{name}", buf)
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total learnable scalar count — used by throughput/FLOP models."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Train / eval, gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Freeze/unfreeze — used by fine-tuning (encoder freezing ablation)."""
        for param in self.parameters():
            param.requires_grad = flag
        return self

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[f"{name}"] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Restore parameters and buffers from ``state``.

        Every key and shape is checked before anything is assigned, so a
        load that raises leaves the module as it was.
        """
        own_params = dict(self.named_parameters())
        own_buffers = dict(self._iter_buffer_owners())
        shapes = {name: param.data.shape for name, param in own_params.items()}
        for name, (module, local) in own_buffers.items():
            shapes[name] = module._buffers[local].shape
        arrays = {}
        for name, shape in shapes.items():
            if name in state:
                arrays[name] = np.asarray(state[name], dtype=np.float64)
                if arrays[name].shape != shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {arrays[name].shape} vs {shape}"
                    )
        missing = [name for name in shapes if name not in arrays]
        if strict and missing:
            raise KeyError(f"missing keys in state dict: {missing}")
        for name, param in own_params.items():
            if name in arrays:
                param.data = arrays[name].copy()
        for name, (module, local) in own_buffers.items():
            if name in arrays:
                module.set_buffer(local, arrays[name])

    def _iter_buffer_owners(self, prefix: str = ""):
        for local, _ in self._buffers.items():
            yield f"{prefix}{local}", (self, local)
        for name, module in self._modules.items():
            yield from module._iter_buffer_owners(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [self.__class__.__name__ + "("]
        for name, module in self._modules.items():
            sub = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {sub}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{self.__class__.__name__}()"
