"""Task base class and validation-result bookkeeping."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.autograd import Tensor
from repro.data.structures import GraphBatch
from repro.models.encoder import Encoder
from repro.nn.module import Module

#: metric name -> (sum, count); the trainer divides after aggregation so
#: unevenly sized batches average correctly.
ValResult = Dict[str, Tuple[float, int]]


def merge_val_results(a: ValResult, b: ValResult) -> ValResult:
    """Merge two (sum, count) accumulator maps."""
    out = dict(a)
    for key, (total, count) in b.items():
        prev_total, prev_count = out.get(key, (0.0, 0))
        out[key] = (prev_total + total, prev_count + count)
    return out


def finalize_val_results(acc: ValResult) -> Dict[str, float]:
    """Convert (sum, count) accumulators to means."""
    return {k: total / max(count, 1) for k, (total, count) in acc.items()}


class Task(Module):
    """Encoder + heads + objective.

    Subclasses implement:

    * ``training_step(batch) -> (loss Tensor, metrics dict)``
    * ``validation_step(batch) -> ValResult``

    The shared encoder is reachable as ``self.encoder`` so fine-tuning
    workflows can transplant pretrained weights across tasks.
    """

    def __init__(self, encoder: Encoder):
        super().__init__()
        self.encoder = encoder

    def training_step(self, batch: GraphBatch) -> Tuple[Tensor, dict]:
        raise NotImplementedError

    def validation_step(self, batch: GraphBatch) -> ValResult:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Encoder transplant — the pretrain -> fine-tune hinge
    # ------------------------------------------------------------------ #
    def load_encoder_state(self, state: dict) -> None:
        """Load pretrained encoder weights (head weights stay fresh)."""
        self.encoder.load_state_dict(state)

    def encoder_state(self) -> dict:
        return self.encoder.state_dict()
