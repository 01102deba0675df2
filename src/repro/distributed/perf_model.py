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
    8480+ (2 x 56 physical cores).
    """

    name: str = "xeon-8480+"
    sockets: int = 2
    cores_per_socket: int = 56
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
        """Ring allreduce time across nodes: reduce-scatter plus allgather.

        Intra-node reduction over shared memory is folded into a small
        fixed cost; each inter-node ring half moves (M-1)/M x payload per
        node for M participating nodes, plus one latency per hop.
        """
        if world_size <= 1:
            return 0.0
        nodes = max(1, math.ceil(world_size / self.cluster.node.workers))
        intra = 1e-5  # shared-memory reduction, ~tens of microseconds per half
        if nodes == 1:
            return 2.0 * intra
        bw = self.cluster.interconnect.bandwidth_gbs * 1e9
        lat = self.cluster.interconnect.latency_us * 1e-6
        ring = (nodes - 1) / nodes * self.gradient_bytes / bw
        return 2.0 * (intra + ring + (nodes - 1) * lat)

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
