"""The loss-spike guard: skip the step, halve the LR, re-warm.

The Fig. 3 remedy is an optimizer option, ``Adam(update_clip=)``
(DESIGN.md §8).  This guard is the one runtime recovery the remedy grid
did not retire: on the diverging cell it ends below chance on every seed,
including one where ``update_clip`` does not.  Its behaviour is fixed.

* **Detection.**  Each simulated DDP rank's shard loss
  (``Strategy.last_rank_losses``) is scored against that rank's own
  window of recent healthy losses, before ``optimizer.step``.  A
  non-finite loss is a spike.  So is a loss above ``SPIKE_FACTOR`` times
  the window median whose robust z-score (MADs above that median) exceeds
  ``THRESHOLD``; both conditions are needed, because the z-score alone
  explodes on a flat window.  One flagging rank makes the step a spike
  for every rank, so the windows stay identical in length.  The first
  ``WARMUP`` losses of a baseline are absorbed unconditionally.  Scoring
  the mean loss instead fires too late: on the diverging cell it ends
  above chance on four of five seeds.
* **Recovery.**  A spike skips the step: the trainer drops its gradients.
  The LR and the scheduler's target are halved, and every window is
  re-baselined.  The parameters did not move, so the next loss is as high
  as the spike; scored against the old window it would be flagged again,
  and the run would freeze with the cut never acting.  Every healthy step
  then re-warms the LR by ``2 ** (1 / REWARM_STEPS)`` until the
  schedule's rate is back.
* **Budget.**  After ``MAX_INTERVENTIONS`` the guard records ``give_up``
  once and lets every later step through.

Spikes, cuts, the completed re-warm and ``give_up`` are recorded in the
run's :class:`~repro.distributed.events.EventLog`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Optional

import numpy as np

from repro.distributed.events import GIVE_UP, LR_BACKOFF, LR_REWARM, SPIKE, EventLog

#: Healthy losses each rank's median is taken over.
WINDOW = 16
#: Losses absorbed unconditionally at the start and after every cut.
WARMUP = 5
#: A finite spike exceeds this multiple of the window median ...
SPIKE_FACTOR = 10.0
#: ... and this many MADs above it.
THRESHOLD = 6.0
#: Scale turning a MAD into a sigma estimate for normal data.
MAD_SIGMA = 1.4826
#: LR multiplier applied by every cut.
BACKOFF = 0.5
#: Healthy steps over which one cut is re-warmed.
REWARM_STEPS = 20
#: Cuts before the guard gives up and passes steps through.
MAX_INTERVENTIONS = 32


class StabilityGuard:
    """Loss-spike detection with one recovery: skip, halve the LR, re-warm."""

    def __init__(self, events: Optional[EventLog] = None) -> None:
        self.events = events if events is not None else EventLog()
        #: One window of healthy losses per rank, grown with the world.
        self.windows: List[deque] = []
        #: Steps scored since the last (re-)baseline.
        self.seen = 0
        #: Current multiplicative LR deficit (1.0 = the schedule's rate).
        self.deficit = 1.0
        self.interventions = 0
        self.exhausted = False

    def _is_spike(self, window: deque, loss: float) -> bool:
        if not math.isfinite(loss):
            return True
        if self.seen <= WARMUP or len(window) < 2:
            return False
        values = np.asarray(window)
        median = float(np.median(values))
        mad = float(np.median(np.abs(values - median)))
        sigma = max(MAD_SIGMA * mad, 1e-12, 1e-3 * abs(median))
        return (loss - median) / sigma > THRESHOLD and loss > SPIKE_FACTOR * median > 0

    def guard_step(self, trainer, loss: float) -> bool:
        """Score one completed step; True means skip its ``optimizer.step``.

        ``trainer`` supplies ``global_step``, ``strategy``, ``optimizer.lr``
        and ``scale_lr``, the LR change that also moves the scheduler's
        target.  ``loss`` is the step's global loss, scored alone when the
        strategy reports no per-rank losses.
        """
        rank_losses = [
            float(v) for v in getattr(trainer.strategy, "last_rank_losses", None) or [loss]
        ]
        while len(self.windows) < len(rank_losses):
            self.windows.append(deque(maxlen=WINDOW))
        windows = self.windows[: len(rank_losses)]
        step = trainer.global_step
        self.seen += 1
        flagged = [r for r, (w, v) in enumerate(zip(windows, rank_losses)) if self._is_spike(w, v)]
        if not flagged:
            for window, value in zip(windows, rank_losses):
                window.append(value)
            self._rewarm(trainer, step)
            return False
        loss = float(loss)
        self.events.record(
            SPIKE, step=step, loss=loss if math.isfinite(loss) else None, ranks=flagged
        )
        if self.interventions >= MAX_INTERVENTIONS:
            if not self.exhausted:
                self.exhausted = True
                self.events.record(GIVE_UP, step=step, guard=True, interventions=self.interventions)
            return False
        self.interventions += 1
        self.deficit *= BACKOFF
        trainer.scale_lr(BACKOFF)
        self.events.record(LR_BACKOFF, step=step, lr=trainer.optimizer.lr, deficit=self.deficit)
        for window in self.windows:
            window.clear()
        self.seen = 0
        return True

    def _rewarm(self, trainer, step: int) -> None:
        if self.deficit >= 1.0:
            return
        factor = min(2.0 ** (1.0 / REWARM_STEPS), 1.0 / self.deficit)
        trainer.scale_lr(factor)
        self.deficit = min(self.deficit * factor, 1.0)
        if self.deficit >= 1.0:
            self.events.record(LR_REWARM, step=step, lr=trainer.optimizer.lr)

    def summary(self) -> dict:
        """Counters for CLI and bench reporting."""
        return {
            "spikes": self.events.count(SPIKE),
            "interventions": self.interventions,
            "lr_deficit": self.deficit,
            "exhausted": self.exhausted,
        }
