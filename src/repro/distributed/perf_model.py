"""Analytic cluster performance model for the scale-out study (Fig. 2).

The reproduction host has one core, so multi-node wall-clock cannot be
measured; instead this model converts a *measured* single-worker training
rate into projected scale-out throughput, with communication costed by a
ring-allreduce over an HDR200-class fabric.  The model captures exactly the
effect the paper reports: with 16 workers per node and per-step gradient
payloads of a few MB against a 200 Gb/s interconnect, the allreduce is a
sub-percent overhead and throughput scales linearly to 512 ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class NodeSpec:
    """One compute node.

    Defaults describe the paper's Endeavour nodes: dual Intel Xeon Platinum
    8480+ (2 x 56 physical cores), four NUMA domains, 256 GB DDR5-4800.
    """

    name: str = "xeon-8480+"
    sockets: int = 2
    cores_per_socket: int = 56
    numa_domains: int = 4
    memory_gb: int = 256
    memory_bandwidth_gbs: float = 307.0  # 8 channels DDR5-4800 x 2 sockets
    workers: int = 16  # chosen to balance FLOP/s vs bandwidth per socket

    @property
    def physical_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def threads_per_worker(self) -> int:
        """OMP_NUM_THREADS under the paper's pinning policy."""
        return self.physical_cores // self.workers


@dataclass(frozen=True)
class InterconnectSpec:
    """Fabric between nodes; defaults approximate Mellanox HDR200."""

    name: str = "hdr200"
    bandwidth_gbs: float = 25.0  # 200 Gb/s
    latency_us: float = 1.5


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster: node type, fabric, and node count."""

    node: NodeSpec
    interconnect: InterconnectSpec
    max_nodes: int = 32


#: The paper's platform (Sec. 4.1).
ENDEAVOUR = ClusterSpec(node=NodeSpec(), interconnect=InterconnectSpec(), max_nodes=32)


def ring_half_seconds(cluster: ClusterSpec, payload_bytes: float, world_size: int) -> float:
    """One ring half (reduce-scatter *or* allgather) across nodes.

    Intra-node reduction over shared memory is folded into a small fixed
    cost; the inter-node ring moves (M-1)/M x payload per node for M
    participating nodes, plus one latency per hop.  A full allreduce is
    exactly two halves.
    """
    if world_size <= 1:
        return 0.0
    nodes = max(1, math.ceil(world_size / cluster.node.workers))
    intra = 1e-5  # shared-memory reduction, ~tens of microseconds per allreduce
    if nodes == 1:
        return intra
    bw = cluster.interconnect.bandwidth_gbs * 1e9
    lat = cluster.interconnect.latency_us * 1e-6
    ring = (nodes - 1) / nodes * payload_bytes / bw
    return intra + ring + (nodes - 1) * lat


class ThroughputModel:
    """Project DDP training throughput from single-worker measurements.

    Parameters
    ----------
    per_worker_samples_per_s:
        Measured single-worker training rate (forward+backward+step), the
        quantity the scale-out bench measures live.
    gradient_bytes:
        Per-step allreduce payload (model parameters x 8 bytes for fp64,
        x 4 in the paper's fp32 — configurable through this argument).
    cluster:
        Hardware description; defaults to the paper's platform.
    """

    def __init__(
        self,
        per_worker_samples_per_s: float,
        batch_per_worker: int,
        gradient_bytes: int,
        cluster: ClusterSpec = ENDEAVOUR,
    ):
        if not per_worker_samples_per_s > 0:
            raise ValueError("per-worker rate must be positive")
        if batch_per_worker < 1:
            raise ValueError("batch per worker must be >= 1")
        self.rate = per_worker_samples_per_s
        self.batch = batch_per_worker
        self.gradient_bytes = gradient_bytes
        self.cluster = cluster

    # ------------------------------------------------------------------ #
    def allreduce_seconds(self, world_size: int) -> float:
        """Ring allreduce time: both halves of :func:`ring_half_seconds`."""
        return 2.0 * ring_half_seconds(self.cluster, self.gradient_bytes, world_size)

    def step_seconds(self, world_size: int) -> float:
        """One synchronous DDP step: compute plus (non-overlapped) allreduce."""
        compute = self.batch / self.rate
        return compute + self.allreduce_seconds(world_size)

    def samples_per_second(self, world_size: int) -> float:
        """Aggregate training throughput at ``world_size`` ranks."""
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        return world_size * self.batch / self.step_seconds(world_size)

    def epoch_seconds(self, world_size: int, dataset_size: int) -> float:
        """Time to traverse ``dataset_size`` samples once."""
        return dataset_size / self.samples_per_second(world_size)

    def scaling_efficiency(self, world_size: int) -> float:
        """Throughput relative to perfect linear scaling (1.0 = ideal)."""
        ideal = world_size * self.rate
        return self.samples_per_second(world_size) / ideal

    def sweep(self, world_sizes: List[int], dataset_size: int) -> List[Dict[str, float]]:
        """Fig. 2's series: one row per worker count."""
        rows = []
        for n in world_sizes:
            rows.append(
                {
                    "workers": n,
                    "nodes": max(1, math.ceil(n / self.cluster.node.workers)),
                    "samples_per_s": self.samples_per_second(n),
                    "epoch_minutes": self.epoch_seconds(n, dataset_size) / 60.0,
                    "efficiency": self.scaling_efficiency(n),
                }
            )
        return rows


# --------------------------------------------------------------------------- #
# Bucketed / ZeRO communication model
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardingSpec:
    """Communication-relevant shape of a ZeRO-sharded step.

    ``num_tensors`` is the parameter-tensor count — the dense baseline
    launches one allreduce per tensor, which is what bucketing amortises.
    """

    bucket_bytes: int = 4 << 20
    num_tensors: int = 1

    def __post_init__(self):
        if self.bucket_bytes < 1:
            raise ValueError("bucket_bytes must be >= 1")
        if self.num_tensors < 1:
            raise ValueError("num_tensors must be >= 1")


class BucketedThroughputModel:
    """Step-time projection for bucketed reduce_scatter/allgather gradients.

    Extends :class:`ThroughputModel` with the two effects the sharding
    stack introduces:

    * **Latency amortisation** — the dense baseline launches one allreduce
      per parameter tensor, paying the full ``2 (M-1)`` hop latency each
      time; bucketing launches ``2 x num_buckets`` collectives (one
      reduce-scatter plus one allgather per bucket) over the same total
      payload.
    * **Compute/comm overlap** — bucket *i*'s collective runs while bucket
      *i+1*'s backward chunk is still being computed, so only the comm
      tail that outlives the backward pass is exposed:
      ``comm_end_i = max(comm_end_{i-1}, ready_{i}) + comm_i`` with
      ``ready_i = (i+1) * bwd_seconds / num_buckets``.

    ZeRO optimizer-state sharding does not change the modeled wire volume
    (the gradient allgather is traded for the parameter allgather).
    """

    #: Fraction of a training step spent in backward — the window gradient
    #: buckets become ready in.  Forward + optimizer fill the rest.
    backward_fraction: float = 0.6

    def __init__(self, base: ThroughputModel, sharding: ShardingSpec):
        self.base = base
        self.sharding = sharding
        self.num_buckets = max(
            1, math.ceil(base.gradient_bytes / sharding.bucket_bytes)
        )

    # ------------------------------------------------------------------ #
    def messages_per_step(self) -> int:
        """Collective launches per step: reduce-scatter + allgather per bucket."""
        return 2 * self.num_buckets

    def dense_messages_per_step(self) -> int:
        """The per-tensor baseline: one allreduce launch per parameter."""
        return self.sharding.num_tensors

    def exposed_comm_seconds(self, world_size: int) -> float:
        """Comm time left on the critical path after backward overlap."""
        compute = self.base.batch / self.base.rate
        bwd = self.backward_fraction * compute
        chunk = bwd / self.num_buckets
        per_bucket = self.base.gradient_bytes / self.num_buckets
        half = ring_half_seconds(self.base.cluster, per_bucket, world_size)
        comm_end = 0.0
        for i in range(self.num_buckets):
            ready = (i + 1) * chunk  # bucket i's grads exist once its chunk ends
            comm_end = max(comm_end, ready) + 2.0 * half
        return max(0.0, comm_end - bwd)

    def step_seconds(self, world_size: int) -> float:
        compute = self.base.batch / self.base.rate
        return compute + self.exposed_comm_seconds(world_size)

    def dense_step_seconds(self, world_size: int) -> float:
        """Per-tensor-allreduce baseline: no bucketing, no overlap."""
        compute = self.base.batch / self.base.rate
        per_tensor = self.base.gradient_bytes / self.sharding.num_tensors
        comm = self.sharding.num_tensors * 2.0 * ring_half_seconds(
            self.base.cluster, per_tensor, world_size
        )
        return compute + comm

    def modeled_speedup(self, world_size: int) -> float:
        """Dense per-tensor step time over bucketed/overlapped step time."""
        return self.dense_step_seconds(world_size) / self.step_seconds(world_size)


def linear_fit_r2(xs: List[float], ys: List[float]) -> float:
    """R^2 of a least-squares line — the paper overlays a linear fit on Fig. 2."""
    import numpy as np

    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
