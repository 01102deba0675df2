"""ZeRO-sharding benchmarks: bucketed comm vs per-parameter allreduce.

Two measurement families, both machine-portable:

* **Measured traffic** — the per-tensor baseline meters one
  ``SimComm.allreduce`` per parameter (touched or not), and a real
  simulated-DDP step runs as a ZeRO step (bucketed reduce_scatter plus
  the sharded optimizer's parameter allgather); ``SimComm``'s traffic
  log gives exact collective-launch counts and bytes on the wire.  Counts and byte ratios are deterministic, so the committed
  baseline (``benchmarks/BENCH_sharding.json``) gates them on any host.
* **Modeled step time** — :class:`BucketedThroughputModel` converts the
  measured payload geometry into projected step time on the paper's
  cluster, with bucket-i comm overlapped against bucket-(i+1) backward
  compute.  The speedup of the bucketed step over the per-tensor dense
  baseline is gated at every world size >= 8.

Absolute wall time of the bucketed step is recorded as a ``time`` entry
for local (same-machine) gating with ``--absolute``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from benchmarks.common import bench_result, print_header, time_callable
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import (
    BucketedThroughputModel,
    DDPStrategy,
    ShardedAdamW,
    ShardingSpec,
    SimComm,
    ThroughputModel,
)
from repro.models import EGNN
from repro.tasks import MultiClassClassificationTask

#: Ranks for the measured-traffic step and the floor of the modeled sweep.
WORLD = 8
#: Modeled sweep (acceptance: bucketed wins at every world size >= 8).
MODEL_WORLDS = (8, 16, 64, 512)


def _setup(tiny: bool) -> Tuple[object, List]:
    rng = np.random.default_rng(23)
    count = WORLD if tiny else 2 * WORLD
    hidden = 12 if tiny else 24
    ds = SymmetryPointCloudDataset(
        count, seed=9, group_names=["C2", "C4", "D2", "Oh"], max_points=16
    )
    transform = StructureToGraph(cutoff=2.5)
    samples = [transform(ds[i]) for i in range(count)]
    enc = EGNN(hidden_dim=hidden, num_layers=2, position_dim=8, num_species=4, rng=rng)
    task = MultiClassClassificationTask(
        enc, num_classes=4, hidden_dim=hidden, num_blocks=2, rng=rng
    )
    return task, samples


def _gradient_geometry(task) -> Tuple[int, int]:
    params = list(task.parameters())
    return sum(p.data.nbytes for p in params), len(params)


# --------------------------------------------------------------------------- #
# Measured: collective launches and bytes on the simulated wire
# --------------------------------------------------------------------------- #
def bench_traffic(rounds: int, warmup: int, tiny: bool = False) -> List[Dict]:
    """Per-parameter vs bucketed traffic for one identical DDP step."""
    task, samples = _setup(tiny)

    def traffic(comm: SimComm) -> Dict[str, float]:
        t = comm.traffic
        return {
            "calls": float(t.collective_calls),
            "bytes": float(t.useful_bytes),
        }

    # Per-tensor baseline: one allreduce per parameter, touched or not.
    dense_comm = SimComm(WORLD)
    for p in task.parameters():
        dense_comm.allreduce([np.zeros_like(p.data)] * WORLD, op="mean")
    dense = traffic(dense_comm)
    zero = DDPStrategy(WORLD, bucket_bytes=4 << 20)
    optimizer = ShardedAdamW(
        task.parameters(), lr=1e-3, comm=zero.comm, bucket_bytes=4 << 20
    )
    zero.execute(task, samples)
    optimizer.step()
    bucketed = traffic(zero.comm)
    num_buckets = optimizer.bucketer.num_buckets

    ratio = dense["calls"] / bucketed["calls"]
    return [
        bench_result(
            "sharding.messages_ratio", "speedup", ratio, "x",
            dense_calls=dense["calls"], bucketed_calls=bucketed["calls"],
            num_buckets=num_buckets,
        ),
        bench_result(
            "sharding.bytes_on_wire.dense", "metric", dense["bytes"], "B"
        ),
        bench_result(
            "sharding.bytes_on_wire.bucketed", "metric", bucketed["bytes"], "B"
        ),
    ]


# --------------------------------------------------------------------------- #
# Measured: wall time of the bucketed step + optimizer-state footprint
# --------------------------------------------------------------------------- #
def bench_step_time(rounds: int, warmup: int, tiny: bool = False) -> List[Dict]:
    """Wall time of one bucketed ZeRO step (collate through allgather)."""
    task, samples = _setup(tiny)
    strategy = DDPStrategy(WORLD, bucket_bytes=4 << 20)
    opt = ShardedAdamW(
        task.parameters(), lr=1e-3, comm=strategy.comm, bucket_bytes=4 << 20
    )

    def step():
        opt.zero_grad()
        strategy.execute(task, samples)
        opt.step()

    t = time_callable(step, rounds=rounds, warmup=warmup)
    sharded_state = opt.state_bytes(rank=0)
    dense_state = opt.state_bytes(rank=None)
    return [
        bench_result("sharding.zero_step.time", "time", t, "s"),
        bench_result(
            "sharding.state_bytes_ratio", "speedup",
            dense_state / max(sharded_state, 1), "x",
            dense_state_bytes=dense_state, shard_state_bytes=sharded_state,
        ),
    ]


# --------------------------------------------------------------------------- #
# Modeled: projected step time on the paper's cluster
# --------------------------------------------------------------------------- #
def bench_modeled(rounds: int, warmup: int, tiny: bool = False) -> List[Dict]:
    """Overlap-model speedup of the bucketed step vs per-tensor allreduce.

    The payload geometry (gradient bytes, tensor count) comes from the
    measured task, scaled to the paper's model size so the ring term is
    not latency-degenerate; the worst world size in the sweep is gated.
    """
    task, _ = _setup(tiny)
    gradient_bytes, num_tensors = _gradient_geometry(task)
    scale = max(1, (8 << 20) // max(gradient_bytes, 1))  # paper-scale payload
    base = ThroughputModel(
        per_worker_samples_per_s=200.0,
        batch_per_worker=2,
        gradient_bytes=gradient_bytes * scale,
    )
    spec = ShardingSpec(bucket_bytes=4 << 20, num_tensors=num_tensors)
    model = BucketedThroughputModel(base, spec)
    speedups = {str(n): model.modeled_speedup(n) for n in MODEL_WORLDS}
    worst = min(speedups.values())
    return [
        bench_result(
            "sharding.modeled_step_speedup", "speedup", worst, "x",
            per_world=speedups, num_buckets=model.num_buckets,
            gradient_bytes=gradient_bytes * scale, num_tensors=num_tensors,
        ),
        bench_result(
            "sharding.modeled_messages_ratio", "speedup",
            model.dense_messages_per_step() / model.messages_per_step(), "x",
        ),
    ]


# --------------------------------------------------------------------------- #
def collect_results(
    rounds: int = 5, warmup: int = 1, tiny: bool = False
) -> List[Dict]:
    """Run the full sharding suite; returns schema entries for the gate."""
    results: List[Dict] = []
    results += bench_traffic(rounds, warmup, tiny)
    results += bench_step_time(rounds, warmup, tiny)
    results += bench_modeled(rounds, warmup, tiny)
    return results


def print_results(results: List[Dict]) -> None:
    """Human-readable table of the collected measurements."""
    print_header("ZeRO sharding benchmarks (bucketed comm vs dense)")
    print(f"{'name':<36} {'kind':<8} {'value':>14}")
    for r in results:
        if r["kind"] == "time":
            value = f"{r['value'] * 1e3:.2f} ms"
        elif r["kind"] == "speedup":
            value = f"{r['value']:.3f}x"
        else:
            value = f"{r['value']:.6g} {r['unit']}"
        print(f"{r['name']:<36} {r['kind']:<8} {value:>14}")


class TestSharding:
    """pytest-benchmark entry point (one pedantic round, like the figures)."""

    def test_sharding_wins(self, benchmark):
        results = benchmark.pedantic(
            lambda: collect_results(rounds=2, warmup=1, tiny=True),
            rounds=1, iterations=1,
        )
        print_results(results)
        by_name = {r["name"]: r for r in results}
        # Acceptance: >= 4x fewer collective launches than per-parameter
        # allreduce, and a modeled step-time win at every world size >= 8.
        assert by_name["sharding.messages_ratio"]["value"] >= 4.0
        assert by_name["sharding.modeled_step_speedup"]["value"] > 1.0
        # Bucketing must not move more useful bytes than the dense path.
        assert (
            by_name["sharding.bytes_on_wire.bucketed"]["value"]
            <= by_name["sharding.bytes_on_wire.dense"]["value"] * 1.01
        )
        # ZeRO shards Adam state across all ranks.
        assert by_name["sharding.state_bytes_ratio"]["value"] >= WORLD * 0.9


if __name__ == "__main__":
    print_results(collect_results())
