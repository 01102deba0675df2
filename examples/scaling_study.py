#!/usr/bin/env python
"""Scale-out planning: throughput projection on the paper's platform.

Demonstrates the distributed substrate behind the paper's Fig. 2 and
Sec. 4.1: measure the live single-worker training rate, project cluster
throughput through the analytic performance model, and print the thread
count each of the 16 pinned workers per Endeavour-class node gets.

Run:  python examples/scaling_study.py
"""

from repro.core import EncoderConfig, OptimizerConfig, PretrainConfig, pretrain_symmetry
from repro.distributed import ENDEAVOUR, ThroughputModel
from repro.distributed.perf_model import linear_fit_r2
from repro.utils import human_count


def main() -> None:
    # 1. Measure the single-worker rate live (short symmetry-task run).
    cfg = PretrainConfig(
        encoder=EncoderConfig(hidden_dim=32, num_layers=3, position_dim=12),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=2),
        train_samples=96, val_samples=16, world_size=1, batch_per_worker=16,
        max_epochs=2, head_hidden_dim=32, head_blocks=2, seed=2,
    )
    result = pretrain_symmetry(cfg)
    rate = result.throughput.samples_per_second
    params = result.task.num_parameters()
    print(f"measured single-worker rate: {rate:.1f} samples/s "
          f"({human_count(params)} parameters)")

    # 2. Project scale-out on the paper's platform.
    model = ThroughputModel(
        per_worker_samples_per_s=rate,
        batch_per_worker=32,
        gradient_bytes=params * 8,
        cluster=ENDEAVOUR,
    )
    sizes = [16, 32, 64, 128, 256, 512]
    rows = model.sweep(sizes, dataset_size=2_000_000)
    print(f"\n{'workers':>8} {'nodes':>6} {'samples/s':>12} {'epoch (min)':>12} {'eff':>7}")
    for r in rows:
        print(f"{r['workers']:>8d} {r['nodes']:>6d} {r['samples_per_s']:>12.0f} "
              f"{r['epoch_minutes']:>12.2f} {r['efficiency']:>7.4f}")
    r2 = linear_fit_r2(sizes, [r["samples_per_s"] for r in rows])
    print(f"linear-fit R^2 = {r2:.6f}")

    # 3. The Sec. 4.1 launch: 16 workers/node, each pinned to its cores.
    node = ENDEAVOUR.node
    print(f"\n{node.workers} workers/node on {node.physical_cores} cores: "
          f"OMP_NUM_THREADS={node.threads_per_worker}")

if __name__ == "__main__":
    main()
