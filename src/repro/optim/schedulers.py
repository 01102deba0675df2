"""Learning-rate schedules.

The paper's schedule (Sec. 4.2, Fig. 6): linearly ramp the learning rate
over a warmup period (8 epochs for the scale-out study, 5 for the final
pretraining run) up to ``eta_base * N`` where ``N`` is the number of DDP
workers (Goyal et al.'s constant-gradient-variance rule), then decay
exponentially with gamma = 0.8 per epoch.  Fine-tuning divides the base rate
by ten to mitigate forgetting.
"""

from __future__ import annotations

from repro.optim.optimizer import Optimizer


def scale_lr_for_ddp(base_lr: float, world_size: int) -> float:
    """Goyal et al. linear scaling rule: lr = base_lr * world_size."""
    if world_size < 1:
        raise ValueError(f"world size must be >= 1, got {world_size}")
    return base_lr * world_size


class LRScheduler:
    """Base class: epoch-indexed multiplicative schedule over a target lr.

    ``step()`` advances one scheduling period (an epoch in the paper's
    configuration, though nothing prevents per-step schedules) and writes the
    new learning rate into the bound optimizer.
    """

    def __init__(self, optimizer: Optimizer, target_lr: float | None = None) -> None:
        self.optimizer = optimizer
        self.target_lr = float(target_lr if target_lr is not None else optimizer.lr)
        self.epoch = 0
        self._apply()

    def lr_at(self, epoch: int) -> float:
        raise NotImplementedError

    def _apply(self) -> None:
        self.optimizer.lr = self.lr_at(self.epoch)

    def step(self) -> None:
        self.epoch += 1
        self._apply()

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr


class WarmupExponential(LRScheduler):
    """The paper's schedule in one object: linear warmup, then gamma-decay.

    ``lr(e) = target * (e+1)/warmup``   for e < warmup
    ``lr(e) = target * gamma^(e - warmup + 1)``   afterwards
    """

    def __init__(
        self,
        optimizer: Optimizer,
        warmup_epochs: int = 8,
        gamma: float = 0.8,
        target_lr: float | None = None,
    ):
        if warmup_epochs < 1:
            raise ValueError("warmup_epochs must be >= 1")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.warmup_epochs = warmup_epochs
        self.gamma = gamma
        super().__init__(optimizer, target_lr)

    def lr_at(self, epoch: int) -> float:
        if epoch < self.warmup_epochs:
            return self.target_lr * (epoch + 1) / self.warmup_epochs
        return self.target_lr * self.gamma ** (epoch - self.warmup_epochs + 1)
