"""Parameter-group optimizer wrapper for discriminative fine-tuning.

The paper's fine-tuning recipe scales the base learning rate down by ten to
mitigate catastrophic forgetting.  Forgetting is a property of the
*pretrained encoder*; the freshly initialized output head has nothing to
forget, so the reproduction applies the rule per group: encoder parameters
at ``base_lr / 10``, head parameters at ``base_lr`` (see EXPERIMENTS.md for
the discussion).  ``MultiGroupOptimizer`` composes per-group optimizers
behind the single ``lr`` attribute the schedulers drive, preserving each
group's relative scale as the schedule moves.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.optim.optimizer import Optimizer


class MultiGroupOptimizer:
    """Compose optimizers with fixed lr ratios under one schedule.

    Parameters
    ----------
    groups:
        ``(optimizer, scale)`` pairs.  Setting ``self.lr = x`` drives each
        member at ``x * scale``; schedulers interact with this object
        exactly as with a plain optimizer.
    """

    def __init__(self, groups: Sequence[Tuple[Optimizer, float]]):
        if not groups:
            raise ValueError("need at least one optimizer group")
        for _, scale in groups:
            if not scale > 0:
                raise ValueError(f"group scale must be positive, got {scale}")
        self.groups: List[Tuple[Optimizer, float]] = list(groups)
        self._base_lr = self.groups[0][0].lr / self.groups[0][1]
        self._apply()

    # ------------------------------------------------------------------ #
    @property
    def lr(self) -> float:
        return self._base_lr

    @lr.setter
    def lr(self, value: float) -> None:
        self._base_lr = float(value)
        self._apply()

    def _apply(self) -> None:
        for opt, scale in self.groups:
            opt.lr = self._base_lr * scale

    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        for opt, _ in self.groups:
            opt.zero_grad()

    def step(self) -> None:
        for opt, _ in self.groups:
            opt.step()

    @property
    def step_count(self) -> int:
        return self.groups[0][0].step_count
