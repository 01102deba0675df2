"""Trainer callbacks.

The spike detector implements the quantitative handle on the paper's
large-batch Adam instability discussion: a *spike* is a validation-loss
sample exceeding the best loss seen so far by a multiplicative factor,
after an initial grace period.  Fig. 3's qualitative story ("spike
prevalence increases with worker count; the largest run never recovers")
becomes measurable via ``spike_count`` and ``recovered``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


class Callback:
    """Hooks around the training loop.  All default to no-ops."""

    def on_train_start(self, trainer, task) -> None: ...

    def on_step_end(self, trainer, task, step: int, loss: float, metrics: Dict) -> None: ...

    def on_validation_end(self, trainer, task, step: int, metrics: Dict) -> None: ...

    def on_epoch_end(self, trainer, task, epoch: int) -> None: ...

    def on_train_end(self, trainer, task) -> None: ...


class ModelCheckpoint(Callback):
    """Keep the best model state (in memory) by a monitored metric."""

    def __init__(self, monitor: str, mode: str = "min"):
        self.monitor = monitor
        self.mode = mode
        self.best_value: Optional[float] = None
        self.best_state: Optional[dict] = None
        self.best_step: Optional[int] = None

    def on_validation_end(self, trainer, task, step: int, metrics: Dict) -> None:
        if self.monitor not in metrics:
            return
        value = metrics[self.monitor]
        better = (
            self.best_value is None
            or (self.mode == "min" and value < self.best_value)
            or (self.mode == "max" and value > self.best_value)
        )
        if better:
            self.best_value = value
            self.best_state = task.state_dict()
            self.best_step = step

    def restore_best(self, task) -> None:
        if self.best_state is None:
            raise RuntimeError("no checkpoint captured yet")
        task.load_state_dict(self.best_state)


class LRMonitor(Callback):
    """Log the optimizer's learning rate each epoch (Fig. 6's dashed trace).

    Without an optimizer attached there is no learning rate to report, so
    nothing is logged — a ``lr=nan`` record would poison downstream
    aggregations (``History`` means, plot axes) for the whole run.
    """

    def __init__(self):
        self.trace: List[tuple] = []

    def on_epoch_end(self, trainer, task, epoch: int) -> None:
        if trainer.optimizer is None:
            return
        lr = trainer.optimizer.lr
        self.trace.append((epoch, lr))
        trainer.history.log(trainer.global_step, epoch, "lr", lr=lr)


class ThroughputMeter(Callback):
    """Measure end-to-end training samples/second (feeds the Fig. 2 model)."""

    def __init__(self):
        self.samples = 0
        self.start: Optional[float] = None
        self.elapsed = 0.0

    def on_train_start(self, trainer, task) -> None:
        self.start = time.perf_counter()

    def on_step_end(self, trainer, task, step: int, loss: float, metrics: Dict) -> None:
        self.samples += trainer.last_batch_size

    def on_train_end(self, trainer, task) -> None:
        if self.start is not None:
            self.elapsed = time.perf_counter() - self.start

    @property
    def samples_per_second(self) -> float:
        if self.start is None:
            return 0.0
        elapsed = self.elapsed or (time.perf_counter() - self.start)
        return self.samples / max(elapsed, 1e-9)


class SpikeDetector(Callback):
    """Detect validation-loss spikes (the Fig. 3 instability signature).

    A spike is logged when the monitored loss exceeds
    ``factor * best_so_far`` after ``warmup_evals`` evaluations.
    ``recovered`` reports whether the final loss returned to within
    ``recovery_factor`` of the best — the 512-rank run in the paper does not.
    """

    def __init__(
        self,
        monitor: str,
        factor: float = 1.5,
        warmup_evals: int = 3,
        recovery_factor: float = 1.25,
    ):
        if not factor > 1.0:
            raise ValueError(f"factor must be > 1, got {factor}")
        if warmup_evals < 0:
            raise ValueError(f"warmup_evals must be >= 0, got {warmup_evals}")
        if not recovery_factor >= 1.0:
            raise ValueError(f"recovery_factor must be >= 1, got {recovery_factor}")
        self.monitor = monitor
        self.factor = factor
        self.warmup_evals = warmup_evals
        self.recovery_factor = recovery_factor
        self.best: Optional[float] = None
        self.evals = 0
        self.spike_steps: List[int] = []
        self.spike_magnitudes: List[float] = []
        self.last_value: Optional[float] = None

    def on_validation_end(self, trainer, task, step: int, metrics: Dict) -> None:
        if self.monitor not in metrics:
            return
        value = float(metrics[self.monitor])
        self.evals += 1
        self.last_value = value
        if self.best is None or value < self.best:
            self.best = value
        elif self.evals > self.warmup_evals and value > self.factor * self.best:
            self.spike_steps.append(step)
            self.spike_magnitudes.append(value / self.best)

    @property
    def spike_count(self) -> int:
        return len(self.spike_steps)

    @property
    def recovered(self) -> bool:
        """True when the run ended near its best loss again."""
        if self.best is None or self.last_value is None:
            return True
        return self.last_value <= self.recovery_factor * self.best

