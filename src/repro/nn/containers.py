"""Module containers: Sequential, ModuleList, ModuleDict."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.autograd import Tensor
from repro.kernels import dispatch as K
from repro.nn.module import Module


class Sequential(Module):
    """Apply modules in order.

    When fused kernels are enabled, adjacent (Linear, activation) pairs are
    collapsed into one fused ``linear_act`` tape node; any other module —
    and the reference path — runs exactly as written.
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        self._steps = None
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
            self._order.append(f"layer{i}")

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if isinstance(value, Module):
            # A layer was added or replaced: re-resolve the steps lazily.
            self._steps = None

    def _resolve_steps(self) -> List[Tuple[Module, Optional[str], Optional[Module]]]:
        """``(module, None, None)`` or ``(linear, act_key, act_module)`` per step.

        Which adjacent pairs *can* fuse depends only on the layer types, so
        it is worked out once; whether they *do* is decided per call.
        """
        modules = [getattr(self, name) for name in self._order]
        steps = []
        i = 0
        while i < len(modules):
            module = modules[i]
            act = None
            if type(module).__name__ == "Linear" and i + 1 < len(modules):
                act = K.activation_key(modules[i + 1])
            if act is not None:
                steps.append((module, act, modules[i + 1]))
                i += 2
            else:
                steps.append((module, None, None))
                i += 1
        self._steps = steps
        return steps

    def forward(self, x):
        steps = self._steps
        if steps is None:
            steps = self._resolve_steps()
        fused = K.fused_enabled()
        for module, act, act_module in steps:
            if act is None:
                x = module(x)
            elif fused and isinstance(x, Tensor) and x.data.ndim >= 2:
                x = K.linear_act(x, module.weight, module.bias, act=act)
            else:
                x = act_module(module(x))
        return x

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])


class ModuleList(Module):
    """An indexable list of submodules (e.g. the stack of EGNN layers)."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = f"item{len(self._order)}"
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")


class ModuleDict(Module):
    """A string-keyed mapping of submodules (e.g. per-target output heads)."""

    def __init__(self, modules: Dict[str, Module] | None = None) -> None:
        super().__init__()
        self._keys: List[str] = []
        if modules:
            for key, module in modules.items():
                self[key] = module

    def __setitem__(self, key: str, module: Module) -> None:
        attr = f"entry_{key}"
        setattr(self, attr, module)
        if key not in self._keys:
            self._keys.append(key)

    def __getitem__(self, key: str) -> Module:
        if key not in self._keys:
            raise KeyError(key)
        return getattr(self, f"entry_{key}")

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def keys(self) -> List[str]:
        return list(self._keys)

    def items(self):
        return [(k, self[k]) for k in self._keys]

    def values(self):
        return [self[k] for k in self._keys]

    def __len__(self) -> int:
        return len(self._keys)

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleDict is a container and cannot be called")
