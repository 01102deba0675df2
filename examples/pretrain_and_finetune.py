#!/usr/bin/env python
"""The paper's full workflow at mini scale: symmetry pretraining,
fine-tuning, and the pretrained-vs-scratch comparison.

Reproduces Sec. 5.2 + 5.4 in miniature:

1. pretrain an E(n)-GNN to classify crystallographic point groups from
   synthetic point clouds (simulated 8-rank DDP, lr = eta_base * N);
2. transplant the encoder into a Materials-Project band-gap task
   (encoder at lr/10 per the anti-forgetting rule);
3. train an identically-seeded model from scratch and compare.

Run:  python examples/pretrain_and_finetune.py
"""

from repro.core import (
    EncoderConfig,
    FinetuneConfig,
    OptimizerConfig,
    PretrainConfig,
    pretrain_symmetry,
    train_property,
)

ENCODER = EncoderConfig(hidden_dim=24, num_layers=2, position_dim=8)


def main() -> None:
    # ----------------------------------------------------------------- #
    # 1. Pretraining on symmetry point clouds (Sec. 5.2)
    # ----------------------------------------------------------------- #
    pretrain_cfg = PretrainConfig(
        encoder=ENCODER,
        optimizer=OptimizerConfig(base_lr=4e-4, warmup_epochs=3, gamma=0.95),
        group_names=["C1", "Ci", "C2v", "C4", "D2h", "Td", "Oh", "C6"],
        train_samples=256,
        val_samples=64,
        world_size=8,           # simulated DDP ranks
        batch_per_worker=2,     # B_eff = 16
        max_epochs=10,
        radius_range=(1.5, 4.0),
        head_hidden_dim=24,
        head_blocks=2,
        seed=7,
    )
    print(
        f"pretraining: {pretrain_cfg.world_size} simulated ranks, "
        f"B_eff={pretrain_cfg.effective_batch}, "
        f"lr={pretrain_cfg.optimizer.base_lr * pretrain_cfg.world_size:g}"
    )
    pretrain = pretrain_symmetry(pretrain_cfg)
    _, ce = pretrain.history.series("val", "ce")
    _, acc = pretrain.history.series("val", "acc")
    print(f"  val CE  {ce[0]:.2f} -> {ce[-1]:.2f}")
    print(f"  val acc {acc[0]:.2f} -> {acc[-1]:.2f} (chance 0.125)")
    print(f"  throughput {pretrain.throughput.samples_per_second:.0f} samples/s, "
          f"spikes detected: {pretrain.spikes.spike_count}")

    # ----------------------------------------------------------------- #
    # 2 & 3. Fine-tune from the pretrained encoder and from scratch
    # ----------------------------------------------------------------- #
    finetune_cfg = FinetuneConfig(
        encoder=ENCODER,
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=4, gamma=0.9),
        train_samples=128,
        val_samples=40,
        batch_size=16,
        max_epochs=15,
        world_size=8,
        head_hidden_dim=24,
        head_blocks=2,
        seed=11,
    )
    print("\nfine-tuning on Materials Project band gap ...")
    scratch = train_property(finetune_cfg)
    pretrained = train_property(
        finetune_cfg, pretrained_state=pretrain.task.encoder_state()
    )

    print("\nvalidation MAE (eV):   scratch   pretrained")
    for epoch, (s, p) in enumerate(
        zip(scratch.curve_mae, pretrained.curve_mae), start=1
    ):
        print(f"  epoch {epoch:2d}:        {s:8.3f} {p:10.3f}")
    print(
        f"\nearly (20%): scratch {scratch.mae_at_fraction(0.2):.3f} vs "
        f"pretrained {pretrained.mae_at_fraction(0.2):.3f}"
    )
    print(f"final:        scratch {scratch.final_mae:.3f} vs "
          f"pretrained {pretrained.final_mae:.3f}")
    print(
        "\n(the paper's Fig. 5: pretraining buys early convergence; at long "
        "horizons the from-scratch model catches up — see the Fig. 5 bench "
        "for the calibrated multi-seed version)"
    )


if __name__ == "__main__":
    main()
