"""Energy/force regression for trajectory datasets (LiPS, OCP surrogates).

Direct-force formulation: a graph-level head regresses the total energy;
per-atom force *vectors* are read out of the encoder's equivariant
coordinate channel, gated by an invariant per-node scalar head:

    F_i = phi(h_i) * (x_i^L - x_i^0)

Node embeddings are E(3)-invariant by construction, so an MLP on them can
never produce a direction — the coordinate updates of the E(n)-GNN are the
model's only equivariant vectors, and Satorras et al. designed them for
exactly this dynamics-style readout.  Encoders without a coordinate channel
fall back to a direct (non-equivariant) vector head, with the accuracy
caveat documented on ``force_mode``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F
from repro.data.structures import GraphBatch
from repro.models.encoder import Encoder, EncoderOutput
from repro.nn import OutputHead
from repro.tasks.base import Task, ValResult


class EnergyForceTask(Task):
    """Joint energy (per graph) + forces (per node) regression.

    ``force_weight`` balances the two losses; the paper's datasets weight
    forces heavily because dynamics fidelity depends on them.
    """

    def __init__(
        self,
        encoder: Encoder,
        energy_target: str = "energy",
        force_target: str = "forces",
        hidden_dim: int = 256,
        num_blocks: int = 3,
        dropout: float = 0.2,
        force_weight: float = 10.0,
        energy_scale: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(encoder)
        if force_weight < 0:
            raise ValueError("force_weight must be non-negative")
        self.energy_target = energy_target
        self.force_target = force_target
        self.force_weight = force_weight
        self.energy_scale = energy_scale
        self.energy_head = OutputHead(
            encoder.embed_dim, out_dim=1, hidden_dim=hidden_dim, num_blocks=num_blocks, dropout=dropout, rng=rng
        )
        # Scalar gate for the equivariant readout, plus the direct vector
        # head used as fallback for coordinate-free encoders.
        self.force_gate = OutputHead(
            encoder.embed_dim, out_dim=1, hidden_dim=hidden_dim, num_blocks=num_blocks, dropout=dropout, rng=rng
        )
        self.force_head = OutputHead(
            encoder.embed_dim, out_dim=3, hidden_dim=hidden_dim, num_blocks=num_blocks, dropout=dropout, rng=rng
        )
        #: "equivariant" when the last prediction used the coordinate
        #: channel, "direct" when it fell back to the vector head.
        self.force_mode = "unset"

    def predict(self, batch: GraphBatch) -> Tuple[Tensor, Tensor]:
        out = self.encoder(batch)
        energy = self.energy_head(out.graph_embedding).squeeze(-1)
        return energy, self.forces(out)

    def forces(self, out: EncoderOutput) -> Tensor:
        """Per-atom force vectors read from an encoder output.

        ``predict`` calls this after the energy head; a caller that needs
        forces alone (the screening relaxer) calls it on ``encoder(batch)``
        and skips the energy head.
        """
        if out.coordinate_update is not None:
            self.force_mode = "equivariant"
            return out.coordinate_update * self.force_gate(out.node_embedding)
        self.force_mode = "direct"
        return self.force_head(out.node_embedding)

    def _labels(self, batch: GraphBatch) -> Tuple[np.ndarray, np.ndarray]:
        energy = np.asarray(batch.targets[self.energy_target], dtype=np.float64).reshape(-1)
        forces = np.asarray(batch.targets[self.force_target], dtype=np.float64)
        forces = forces.reshape(-1, 3)
        return energy / self.energy_scale, forces

    def training_step(self, batch: GraphBatch) -> Tuple[Tensor, dict]:
        pred_e, pred_f = self.predict(batch)
        energy, forces = self._labels(batch)
        loss_e = F.mse_loss(pred_e, energy)
        loss_f = F.mse_loss(pred_f, forces)
        loss = loss_e + self.force_weight * loss_f
        return loss, {
            "train_energy_mae": float(np.abs(pred_e.data - energy).mean()) * self.energy_scale,
            "train_force_mae": float(np.abs(pred_f.data - forces).mean()),
        }

    def validation_step(self, batch: GraphBatch) -> ValResult:
        with no_grad():
            pred_e, pred_f = self.predict(batch)
        energy, forces = self._labels(batch)
        n_graphs = len(energy)
        n_comps = forces.size
        return {
            "energy_mae": (
                float(np.abs(pred_e.data - energy).sum()) * self.energy_scale,
                n_graphs,
            ),
            "force_mae": (float(np.abs(pred_f.data - forces).sum()), n_comps),
        }
