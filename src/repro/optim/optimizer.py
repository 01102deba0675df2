"""Optimizer base class."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Holds parameter references and per-parameter state.

    Parameters are identified by position; ``state`` maps parameter index to
    a dict of numpy arrays (e.g. Adam moments), so optimizer state can be
    captured and restored for checkpointing.
    """

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if not (lr > 0 and math.isfinite(lr)):
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.state: Dict[int, Dict[str, np.ndarray]] = {}
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "step_count": self.step_count,
            "state": {
                k: {name: arr.copy() for name, arr in sub.items()}
                for k, sub in self.state.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Everything is checked before anything is assigned: a snapshot
        with no ``lr`` or ``step_count``, an index that names no
        parameter, or a moment that is not a named array shaped like its
        parameter raises and leaves the optimizer as it was.
        """
        lr, step_count = state["lr"], state["step_count"]
        moments: Dict[int, Dict[str, np.ndarray]] = {}
        for k, sub in state["state"].items():
            idx = int(k)
            if not 0 <= idx < len(self.params) or not isinstance(sub, dict):
                raise ValueError(
                    f"optimizer state entry {k!r} is not a moment map of one "
                    f"of {len(self.params)} parameters"
                )
            shape = self.params[idx].data.shape
            for name, arr in sub.items():
                if not (isinstance(name, str) and name) or np.shape(arr) != shape:
                    raise ValueError(
                        f"optimizer state {k!r}/{name!r} must be a named array "
                        f"of shape {shape}, got {np.shape(arr)}"
                    )
            moments[idx] = {name: np.array(arr) for name, arr in sub.items()}
        self.lr, self.step_count, self.state = lr, step_count, moments
