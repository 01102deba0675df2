"""The training loop.

``Trainer.fit`` consumes loaders that yield *lists of samples* (use
``collate_fn=list`` on the DataLoader): the distributed strategy decides
how a global batch becomes gradients — one collated batch for a single
worker, N rank shards for simulated DDP.  Validation always runs
single-process (it is metric aggregation, not gradient work).

Numerical stability: the Fig. 3 remedy is an optimizer option,
``Adam(update_clip=)``.  Under ``TrainerConfig.detect_anomaly`` the first
non-finite value on the autograd tape raises a
:class:`~repro.autograd.NumericalAnomalyError` naming its op, and the
error propagates out of ``fit``.  With a
:class:`~repro.stability.StabilityGuard` attached, every completed
forward/backward is scored *before* ``optimizer.step``; a spike skips the
step (gradients dropped, no clipping, no optimizer step) while the guard
halves the LR through :meth:`Trainer.scale_lr`.  The skipped step still
counts toward ``max_steps``, and its loss never enters the history's
train series.

An exception from the strategy propagates out of ``fit`` unchanged: a
step either completes or ends the run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.data.batching import collate_graphs
from repro.distributed.ddp import SingleProcessStrategy, Strategy
from repro.autograd.anomaly import detect_anomaly
from repro.domains import Knobs, knob
from repro.optim.clip import clip_grad_norm
from repro.optim.optimizer import Optimizer
from repro.optim.schedulers import LRScheduler
from repro.tasks.base import Task, finalize_val_results, merge_val_results
from repro.training.callbacks import Callback
from repro.training.history import History

#: Shared no-op context for un-observed runs (stateless, reusable).
_NULL_SPAN = contextlib.nullcontext()


@dataclass
class TrainerConfig(Knobs):
    """Loop configuration.

    ``val_every_n_steps`` enables the dense validation cadence the early-
    dynamics study needs (Fig. 3 evaluates every few steps); when None,
    validation runs at every epoch boundary.
    """

    # Every count is a step or epoch budget or a modulus: 0 would train
    # nothing or divide by zero at the first step.
    max_epochs: int = knob(10, ge=1)
    max_steps: Optional[int] = knob(None, ge=1)
    val_every_n_steps: Optional[int] = knob(None, ge=1)
    #: A NaN/Inf global norm zeroes the gradients (``clip_grad_norm``'s
    #: ``nonfinite="zero"``), skipping the poisoned update instead of
    #: aborting the run.
    grad_clip_norm: Optional[float] = knob(None, gt=0)
    #: Run every strategy execution under ``repro.autograd.detect_anomaly``
    #: so the first non-finite forward value or gradient raises a
    #: NumericalAnomalyError naming the offending op.
    detect_anomaly: bool = False
    log_every_n_steps: int = knob(10, ge=1)


class Trainer:
    """Fit a task against train/validation loaders."""

    def __init__(
        self,
        config: TrainerConfig,
        strategy: Optional[Strategy] = None,
        callbacks: Optional[Sequence[Callback]] = None,
        stability=None,
        observer=None,
    ):
        self.config = config
        self.strategy = strategy if strategy is not None else SingleProcessStrategy()
        self.callbacks: List[Callback] = list(callbacks or [])
        #: Optional :class:`~repro.stability.StabilityGuard`; duck-typed so
        #: the training layer does not import the stability package.
        self.stability = stability
        #: Optional :class:`~repro.observability.Observer`; duck-typed (only
        #: ``.span``/``.tracer`` are used).  When attached, the loop emits
        #: fit > data/step(forward/backward/comm)/optim/val spans and hands
        #: the tracer to the strategy.
        self.observer = observer
        if observer is not None:
            self.strategy.tracer = observer.tracer
        self.history = History()
        self.global_step = 0
        self.current_epoch = 0
        self.should_stop = False
        self.optimizer: Optional[Optimizer] = None
        self.scheduler: Optional[LRScheduler] = None
        self.last_batch_size = 0

    # ------------------------------------------------------------------ #
    def _emit(self, hook: str, *args) -> None:
        for cb in self.callbacks:
            getattr(cb, hook)(self, *args)

    def _span(self, name: str, **attrs):
        obs = self.observer
        return obs.span(name, **attrs) if obs is not None else _NULL_SPAN

    def _iter_observed(self, loader):
        """Yield loader batches, timing each fetch as a ``data`` span."""
        if self.observer is None:
            yield from loader
            return
        it = iter(loader)
        while True:
            with self._span("data", source="loader"):
                try:
                    samples = next(it)
                except StopIteration:
                    return
            yield samples

    # ------------------------------------------------------------------ #
    def validate(self, task: Task, val_loader) -> Dict[str, float]:
        """Aggregate validation metrics over every validation batch."""
        task.eval()
        acc: dict = {}
        for samples in val_loader:
            with self._span("data", source="val_collate"):
                batch = collate_graphs(list(samples))
            with self._span("forward", mode="val"):
                results = task.validation_step(batch)
            acc = merge_val_results(acc, results)
        task.train()
        return finalize_val_results(acc)

    def _run_validation(self, task: Task, val_loader, epoch: int) -> Dict[str, float]:
        with self._span("val", step=self.global_step):
            metrics = self.validate(task, val_loader)
        self.history.log(self.global_step, epoch, "val", **metrics)
        self._emit("on_validation_end", task, self.global_step, metrics)
        return metrics

    # ------------------------------------------------------------------ #
    def _execute_step(self, task: Task, samples: Sequence):
        """One strategy execution, under anomaly detection when configured."""
        if self.config.detect_anomaly:
            with detect_anomaly():
                return self.strategy.execute(task, samples)
        return self.strategy.execute(task, samples)

    def scale_lr(self, factor: float) -> None:
        """Scale the live LR and the scheduler's target, so the next
        epoch-boundary scheduler step keeps the change."""
        self.optimizer.lr *= factor
        if self.scheduler is not None:
            self.scheduler.target_lr *= factor

    # ------------------------------------------------------------------ #
    def fit(
        self,
        task: Task,
        train_loader,
        val_loader=None,
        optimizer: Optional[Optimizer] = None,
        scheduler: Optional[LRScheduler] = None,
    ) -> History:
        with self._span("fit"):
            return self._fit(task, train_loader, val_loader, optimizer, scheduler)

    def _fit(
        self,
        task: Task,
        train_loader,
        val_loader,
        optimizer: Optional[Optimizer],
        scheduler: Optional[LRScheduler],
    ) -> History:
        if optimizer is None:
            raise ValueError("Trainer.fit requires an optimizer")
        self.optimizer = optimizer
        self.scheduler = scheduler
        self.should_stop = False
        task.train()
        self._emit("on_train_start", task)

        for epoch in range(self.config.max_epochs):
            self.current_epoch = epoch
            for samples in self._iter_observed(train_loader):
                samples = list(samples)
                self.last_batch_size = len(samples)
                with self._span("step", step=self.global_step):
                    optimizer.zero_grad()
                    loss, metrics = self._execute_step(task, samples)
                    skipped = self.stability is not None and self.stability.guard_step(
                        self, loss
                    )
                    if skipped:
                        optimizer.zero_grad()
                    else:
                        with self._span("optim"):
                            if self.config.grad_clip_norm is not None:
                                clip_grad_norm(
                                    task.parameters(),
                                    self.config.grad_clip_norm,
                                    nonfinite="zero",
                                )
                            optimizer.step()
                    self.global_step += 1

                if (
                    not skipped
                    and self.global_step % self.config.log_every_n_steps == 0
                ):
                    self.history.log(
                        self.global_step, epoch, "train", loss=loss, **metrics
                    )
                self._emit("on_step_end", task, self.global_step, loss, metrics)

                if (
                    val_loader is not None
                    and self.config.val_every_n_steps is not None
                    and self.global_step % self.config.val_every_n_steps == 0
                ):
                    self._run_validation(task, val_loader, epoch)

                if (
                    self.config.max_steps is not None
                    and self.global_step >= self.config.max_steps
                ):
                    self.should_stop = True
                if self.should_stop:
                    break

            if scheduler is not None:
                scheduler.step()
            if (
                val_loader is not None
                and self.config.val_every_n_steps is None
            ):
                self._run_validation(task, val_loader, epoch)
            self._emit("on_epoch_end", task, epoch)
            if self.should_stop:
                break

        self._emit("on_train_end", task)
        return self.history
