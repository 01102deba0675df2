"""Surrogate relaxation: a few force-field gradient-descent steps.

Screening proposals inherit their parent's geometry, so their energies
are evaluated slightly off-minimum; a handful of steepest-descent steps
along the force head's predictions (``x += eta * F``, per-atom step
clipped) settles them before scoring, exactly the role DFT relaxation
plays in real screening funnels — here served by the existing
:class:`~repro.tasks.forces.EnergyForceTask` head.

Determinism contract: relaxation runs under ``no_grad`` +
:func:`~repro.autograd.batch_invariant_kernels`, the graph (edges) is
frozen at construction — only positions move — and the position update is
elementwise, so relaxing a sample alone or inside any batch produces
bit-identical trajectories (asserted by
``tests/test_screening_determinism.py``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.autograd import batch_invariant_kernels, no_grad
from repro.data.batching import collate_graphs
from repro.data.structures import GraphSample
from repro.models.registry import build_encoder
from repro.tasks.forces import EnergyForceTask


class ForceFieldRelaxer:
    """Fixed-step steepest descent on predicted forces, batch-invariant."""

    def __init__(
        self,
        task: EnergyForceTask,
        step_size: float = 5e-3,
        max_step: float = 0.05,
    ):
        if step_size <= 0 or max_step <= 0:
            raise ValueError("step_size and max_step must be positive")
        self.task = task.eval()
        self.step_size = float(step_size)
        self.max_step = float(max_step)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec, step_size: float = 5e-3, max_step: float = 0.05):
        """Build a seeded relaxer matching a servable's encoder geometry.

        The force field is a deterministic function of the spec (fixed
        init seeds, like ``ServableSpec.build_task``): every process
        screening against the same servable relaxes with the same field.
        """
        cfg = spec.encoder_config()
        encoder = build_encoder(
            spec.encoder_name,
            rng=np.random.default_rng(2),
            **cfg.build_kwargs(),
        )
        task = EnergyForceTask(
            encoder,
            hidden_dim=spec.head_hidden_dim,
            num_blocks=spec.head_blocks,
            dropout=spec.dropout,
            rng=np.random.default_rng(3),
        )
        return cls(task, step_size=step_size, max_step=max_step)

    # ------------------------------------------------------------------ #
    def _forces(self, samples: Sequence[GraphSample]) -> np.ndarray:
        batch = collate_graphs(list(samples))
        with no_grad(), batch_invariant_kernels():
            forces = self.task.forces(self.task.encoder(batch))
        return np.asarray(forces.data, dtype=np.float64)

    def _displacement(self, forces: np.ndarray) -> np.ndarray:
        """``eta * F`` with the per-atom step norm clipped to ``max_step``."""
        step = self.step_size * forces
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        scale = np.minimum(1.0, self.max_step / np.maximum(norms, 1e-12))
        return step * scale

    def relax(
        self, samples: Sequence[GraphSample], steps: int
    ) -> List[GraphSample]:
        """Return copies of ``samples`` advanced ``steps`` descent steps.

        Edges are frozen: the neighbour graph built from the initial
        positions is kept for the whole trajectory (steps are small), so
        the update never re-runs neighbour search and stays a pure
        function of the initial sample.
        """
        if steps < 0:
            raise ValueError("steps must be >= 0")
        current = [
            GraphSample(
                positions=s.positions.copy(),
                species=s.species,
                edge_src=s.edge_src,
                edge_dst=s.edge_dst,
                targets=dict(s.targets),
                metadata=dict(s.metadata),
            )
            for s in samples
        ]
        if steps == 0 or not current:
            return current
        counts = [s.num_nodes for s in current]
        offsets = np.cumsum([0] + counts)
        for _ in range(steps):
            forces = self._forces(current)
            disp = self._displacement(forces)
            for i, sample in enumerate(current):
                sample.positions = sample.positions + disp[offsets[i]:offsets[i + 1]]
        return current


__all__ = ["ForceFieldRelaxer"]
