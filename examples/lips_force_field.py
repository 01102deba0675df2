#!/usr/bin/env python
"""Learned force field on the LiPS trajectory surrogate.

The LiPS dataset (Batzner et al.) drives energy/force learning for solid
electrolytes.  This example trains the toolkit's joint energy+force task
(graph-level energy head, node-level force head) on Langevin-dynamics
snapshots of a Li/P/S cell and reports errors against the surrogate
reference potential.

Run:  python examples/lips_force_field.py
"""

import numpy as np

from repro import seed_everything
from repro.core import transform_once
from repro.data import DataLoader
from repro.data.dataset import Subset
from repro.data.transforms import StructureToGraph
from repro.datasets import LiPSSurrogate
from repro.models import EGNN
from repro.optim import AdamW, WarmupExponential
from repro.tasks import EnergyForceTask
from repro.training import ModelCheckpoint, Trainer, TrainerConfig


def main() -> None:
    rng = seed_everything(3)

    # Trajectory dataset: 96 MD snapshots of one Li6-P-S5 cell.
    dataset = LiPSSurrogate(num_samples=96, seed=5)
    train_ds = Subset(dataset, list(range(72)))
    val_ds = Subset(dataset, list(range(72, 96)))
    energies = [float(dataset[i].targets["energy"]) for i in range(len(dataset))]
    print(
        f"LiPS trajectory: {len(dataset)} frames, {dataset[0].num_atoms} atoms, "
        f"energy range [{min(energies):.2f}, {max(energies):.2f}] eV"
    )

    # Structure -> graph is deterministic: convert each frame once, not
    # once per epoch inside the loaders.
    transform = StructureToGraph(cutoff=4.5)
    train_graphs = transform_once(train_ds, transform)
    val_graphs = transform_once(val_ds, transform)
    encoder = EGNN(hidden_dim=32, num_layers=3, position_dim=12, rng=rng)
    task = EnergyForceTask(
        encoder,
        hidden_dim=32,
        num_blocks=2,
        force_weight=5.0,
        energy_scale=10.0,  # bring the ~-20 eV totals to head-friendly range
        rng=rng,
    )

    train_loader = DataLoader(
        train_graphs, batch_size=8, shuffle=True, rng=np.random.default_rng(4),
        collate_fn=list,
    )
    val_loader = DataLoader(val_graphs, batch_size=8, collate_fn=list)

    optimizer = AdamW(task.parameters(), lr=2e-3, weight_decay=1e-5)
    scheduler = WarmupExponential(optimizer, warmup_epochs=3, gamma=0.9, target_lr=2e-3)
    checkpoint = ModelCheckpoint(monitor="force_mae")
    trainer = Trainer(TrainerConfig(max_epochs=20, log_every_n_steps=10),
                      callbacks=[checkpoint])
    history = trainer.fit(task, train_loader, val_loader, optimizer, scheduler)

    _, e_curve = history.series("val", "energy_mae")
    _, f_curve = history.series("val", "force_mae")
    print("\nvalidation errors by epoch:")
    print("  energy MAE (eV):  " + " ".join(f"{v:6.2f}" for v in e_curve))
    print("  force MAE (eV/A): " + " ".join(f"{v:6.3f}" for v in f_curve))
    checkpoint.restore_best(task)

    # Baselines: a zero-force predictor scores the mean |F| component; a
    # mean-energy predictor scores the energy std.
    forces = np.concatenate(
        [dataset[i].targets["forces"] for i in range(len(dataset))]
    )
    zero_force_mae = float(np.abs(forces).mean())
    energy_std = float(np.std([dataset[i].targets["energy"] for i in range(len(dataset))]))
    print(f"\nforce readout mode: {task.force_mode} (equivariant coordinate channel)")
    print(f"best force MAE:  {checkpoint.best_value:.3f} eV/A "
          f"vs zero-force baseline {zero_force_mae:.3f} eV/A")
    print(f"best energy MAE: {min(e_curve):.2f} eV "
          f"vs mean-energy baseline {energy_std:.2f} eV")
    assert checkpoint.best_value < zero_force_mae, "forces should beat the zero baseline"
    assert min(e_curve) < energy_std, "energies should beat the mean baseline"


if __name__ == "__main__":
    main()
