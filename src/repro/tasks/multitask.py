"""Multi-task, multi-dataset composition — the Table-1 setting.

One shared encoder feeds a head per (dataset, target) pair.  Batches are
drawn from the concatenation of all datasets; each head's loss is masked to
the samples that carry its target *and* come from its dataset, so the
encoder receives gradient from every objective while heads specialize.
This is the paper's "joint encoder updated separately to each task output
head" (Sec. 3.2) with six-block heads (Appendix A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F
from repro.data.structures import GraphBatch
from repro.data.transforms.features import TargetNormalizer
from repro.domains import Knobs, knob
from repro.kernels import dispatch as K
from repro.models.encoder import Encoder
from repro.nn import ModuleDict, OutputHead
from repro.tasks.base import Task, ValResult


@dataclass(frozen=True)
class TaskSpec(Knobs):
    """One objective inside the joint task.

    ``dataset=None`` matches samples from any dataset; set it when the same
    target name exists in several datasets (formation energy appears in both
    the Materials Project and Carolina surrogates and gets one head each,
    as in Table 1).
    """

    name: str
    target: str
    kind: str = knob(choices=("regression", "binary"))
    dataset: Optional[str] = None
    weight: float = knob(1.0, gt=0)


class MultiTaskModule(Task):
    """Shared-encoder joint training over arbitrary TaskSpecs."""

    def __init__(
        self,
        encoder: Encoder,
        specs: List[TaskSpec],
        hidden_dim: int = 256,
        num_blocks: int = 6,
        dropout: float = 0.2,
        normalizer: Optional[TargetNormalizer] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(encoder)
        if not specs:
            raise ValueError("MultiTaskModule needs at least one TaskSpec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate spec names: {names}")
        self.specs = list(specs)
        self.normalizer = normalizer
        heads = {}
        for spec in self.specs:
            heads[spec.name] = OutputHead(
                encoder.embed_dim,
                out_dim=1,
                hidden_dim=hidden_dim,
                num_blocks=num_blocks,
                dropout=dropout,
                rng=rng,
            )
        self.heads = ModuleDict(heads)

    # ------------------------------------------------------------------ #
    def _mask_for(self, spec: TaskSpec, batch: GraphBatch) -> np.ndarray:
        """Boolean mask over graphs this spec trains on."""
        if spec.target not in batch.targets:
            return np.zeros(batch.num_graphs, dtype=bool)
        values = np.asarray(batch.targets[spec.target], dtype=np.float64).reshape(-1)
        mask = ~np.isnan(values)
        if spec.dataset is not None:
            datasets = batch.metadata.get("dataset")
            if datasets is None:
                raise ValueError(
                    f"spec {spec.name!r} is dataset-scoped but the batch has no "
                    "per-sample dataset metadata"
                )
            mask &= np.asarray(datasets) == spec.dataset
        return mask

    def _normalized(self, spec: TaskSpec, values: np.ndarray) -> np.ndarray:
        if self.normalizer is None or spec.kind != "regression":
            return values
        key = self._norm_key(spec)
        if key not in self.normalizer.stats:
            return values
        mean, std = self.normalizer.stats[key]
        return (values - mean) / std

    def _scale(self, spec: TaskSpec) -> float:
        if self.normalizer is None or spec.kind != "regression":
            return 1.0
        key = self._norm_key(spec)
        if key not in self.normalizer.stats:
            return 1.0
        return self.normalizer.stats[key][1]

    @staticmethod
    def _norm_key(spec: TaskSpec) -> str:
        return spec.target

    # ------------------------------------------------------------------ #
    def training_step(self, batch: GraphBatch) -> Tuple[Tensor, dict]:
        embedding = self.encoder(batch).graph_embedding
        total: Optional[Tensor] = None
        metrics: Dict[str, float] = {}
        active = 0
        for spec in self.specs:
            mask = self._mask_for(spec, batch)
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            rows = K.index_select(embedding, idx)
            pred = self.heads[spec.name](rows).squeeze(-1)
            raw = np.asarray(batch.targets[spec.target], dtype=np.float64).reshape(-1)[idx]
            if spec.kind == "regression":
                target = self._normalized(spec, raw)
                loss = F.mse_loss(pred, target)
                metrics[f"train_{spec.name}_mae"] = (
                    float(np.abs(pred.data - target).mean()) * self._scale(spec)
                )
            else:
                loss = F.binary_cross_entropy_with_logits(pred, raw)
                metrics[f"train_{spec.name}_acc"] = float(
                    ((pred.data > 0) == (raw > 0.5)).mean()
                )
            weighted = loss * spec.weight
            total = weighted if total is None else total + weighted
            active += 1
        if total is None:
            raise ValueError("batch matched no task spec — check dataset routing")
        return total * (1.0 / active), metrics

    def validation_step(self, batch: GraphBatch) -> ValResult:
        with no_grad():
            embedding = self.encoder(batch).graph_embedding
        out: ValResult = {}
        for spec in self.specs:
            mask = self._mask_for(spec, batch)
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            with no_grad():
                pred = self.heads[spec.name](
                    K.index_select(embedding, idx)
                ).squeeze(-1)
            raw = np.asarray(batch.targets[spec.target], dtype=np.float64).reshape(-1)[idx]
            n = len(idx)
            if spec.kind == "regression":
                target = self._normalized(spec, raw)
                err = float(np.abs(pred.data - target).sum()) * self._scale(spec)
                out[f"{spec.name}_mae"] = (err, n)
            else:
                z = pred.data
                bce = float(
                    (np.maximum(z, 0) - z * raw + np.logaddexp(0.0, -np.abs(z))).sum()
                )
                out[f"{spec.name}_bce"] = (bce, n)
                out[f"{spec.name}_acc"] = (float(((z > 0) == (raw > 0.5)).sum()), n)
        return out
