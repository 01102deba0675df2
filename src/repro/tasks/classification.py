"""Classification task: the symmetry point-group pretraining objective.

Binary targets (material stability) are ``"binary"`` heads of
:class:`repro.tasks.MultiTaskModule`, the Table-1 setting.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F
from repro.data.structures import GraphBatch
from repro.models.encoder import Encoder
from repro.nn import OutputHead
from repro.tasks.base import Task, ValResult


class MultiClassClassificationTask(Task):
    """Multiclass classification — the symmetry-group pretraining task.

    The validation metric is the multiclass cross-entropy, the quantity
    plotted in the paper's Figs. 3 and 6.
    """

    def __init__(
        self,
        encoder: Encoder,
        num_classes: int,
        target: str = "point_group",
        hidden_dim: int = 256,
        num_blocks: int = 3,
        dropout: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(encoder)
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        self.target = target
        self.num_classes = num_classes
        self.head = OutputHead(
            encoder.embed_dim,
            out_dim=num_classes,
            hidden_dim=hidden_dim,
            num_blocks=num_blocks,
            dropout=dropout,
            rng=rng,
        )

    def _labels(self, batch: GraphBatch) -> np.ndarray:
        labels = np.asarray(batch.targets[self.target]).astype(np.int64).reshape(-1)
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError(
                f"labels out of range [0, {self.num_classes}): "
                f"[{labels.min()}, {labels.max()}]"
            )
        return labels

    def logits(self, batch: GraphBatch) -> Tensor:
        return self.head(self.encoder(batch).graph_embedding)

    def training_step(self, batch: GraphBatch) -> Tuple[Tensor, dict]:
        logits = self.logits(batch)
        labels = self._labels(batch)
        loss = F.cross_entropy(logits, labels)
        acc = float((logits.data.argmax(axis=1) == labels).mean())
        return loss, {"train_acc": acc}

    def validation_step(self, batch: GraphBatch) -> ValResult:
        with no_grad():
            logits = self.logits(batch)
        labels = self._labels(batch)
        n = len(labels)
        logp = logits.data - logits.data.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        ce = float(-logp[np.arange(n), labels].sum())
        correct = float((logits.data.argmax(axis=1) == labels).sum())
        return {"ce": (ce, n), "acc": (correct, n)}
