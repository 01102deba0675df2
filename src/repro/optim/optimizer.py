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
        self.lr = state["lr"]
        self.step_count = state["step_count"]
        self.state = {
            int(k): {name: np.asarray(arr).copy() for name, arr in sub.items()}
            for k, sub in state["state"].items()
        }
