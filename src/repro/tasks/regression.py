"""Scalar property regression (band gap, Fermi energy, formation energy)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F
from repro.data.structures import GraphBatch
from repro.data.transforms.features import TargetNormalizer
from repro.models.encoder import Encoder
from repro.nn import OutputHead
from repro.tasks.base import Task, ValResult

_LOSSES = {"mse": F.mse_loss, "l1": F.l1_loss, "huber": F.huber_loss}


class ScalarRegressionTask(Task):
    """Regress one scalar target from the graph embedding.

    Training operates on normalized targets when a fitted
    :class:`TargetNormalizer` is supplied; validation MAE is reported in
    physical units either way, matching how the paper tabulates errors
    (eV, eV/atom).
    """

    def __init__(
        self,
        encoder: Encoder,
        target: str,
        hidden_dim: int = 256,
        num_blocks: int = 3,
        dropout: float = 0.2,
        loss: str = "mse",
        normalizer: Optional[TargetNormalizer] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(encoder)
        if loss not in _LOSSES:
            raise ValueError(f"unknown loss {loss!r}; choose from {sorted(_LOSSES)}")
        self.target = target
        self.loss_name = loss
        self.normalizer = normalizer
        self.head = OutputHead(
            encoder.embed_dim, out_dim=1, hidden_dim=hidden_dim, num_blocks=num_blocks, dropout=dropout, rng=rng
        )

    def _targets(self, batch: GraphBatch) -> np.ndarray:
        try:
            return np.asarray(batch.targets[self.target], dtype=np.float64).reshape(-1)
        except KeyError:
            raise KeyError(
                f"batch lacks target {self.target!r}; has {sorted(batch.targets)}"
            )

    def _normalized(self, values: np.ndarray) -> np.ndarray:
        if self.normalizer is None:
            return values
        mean, std = self.normalizer.stats[self.target]
        return (values - mean) / std

    def _scale(self) -> float:
        if self.normalizer is None:
            return 1.0
        return self.normalizer.scale_of(self.target)

    def predict(self, batch: GraphBatch) -> Tensor:
        embedding = self.encoder(batch).graph_embedding
        return self.head(embedding).squeeze(-1)

    def training_step(self, batch: GraphBatch) -> Tuple[Tensor, dict]:
        pred = self.predict(batch)
        target = self._normalized(self._targets(batch))
        loss = _LOSSES[self.loss_name](pred, target)
        mae_units = float(np.abs(pred.data - target).mean()) * self._scale()
        return loss, {f"train_{self.target}_mae": mae_units}

    def validation_step(self, batch: GraphBatch) -> ValResult:
        with no_grad():
            pred = self.predict(batch)
        target = self._normalized(self._targets(batch))
        n = len(target)
        abs_err = float(np.abs(pred.data - target).sum()) * self._scale()
        sq_err = float(((pred.data - target) ** 2).sum()) * self._scale() ** 2
        return {
            f"{self.target}_mae": (abs_err, n),
            f"{self.target}_mse": (sq_err, n),
        }
