"""Data-parallel training strategies.

``DDPStrategy`` reproduces N-rank distributed data parallelism exactly:
the global batch (B_eff samples) is split into N equal rank shards, each
shard's gradient is computed, and the shard gradients are summed in rank
order and divided by N — step for step the computation a real N-rank MPI
job performs, with one fixed reduction order.  What the simulation does
not reproduce is wall-clock overlap; that is the performance model's job
(Fig. 2).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.batching import collate_graphs

#: Shared no-op context used when no tracer is attached (kept local so the
#: distributed layer does not depend on repro.observability).
_NULL_SPAN = contextlib.nullcontext()


def _span(tracer, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else _NULL_SPAN


def _forward_backward(tracer, task, batch, rank: Optional[int] = None):
    """One forward+backward: the single place a strategy runs a step, so
    callers must not call ``backward`` again."""
    attrs = {} if rank is None else {"rank": rank}
    with _span(tracer, "forward", **attrs):
        loss, metrics = task.training_step(batch)
    with _span(tracer, "backward", **attrs):
        loss.backward()
    return loss, metrics


def _take_grads(params: List) -> List[Optional[np.ndarray]]:
    """Move each parameter's gradient out, leaving ``grad=None`` behind."""
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    return grads


def rank_order_mean(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Σ_r a_r accumulated in rank order, then ÷ N: DDP's one reduction.

    A copy of rank 0's array takes each later rank's ``+=`` in turn, so
    the bits depend only on the per-rank values.  Every rank must hand
    over one shape: ``+=`` would silently broadcast a ragged array.
    """
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError(
            f"reduction expects one shape on every rank, got {[a.shape for a in arrays]}"
        )
    total = np.array(arrays[0], copy=True)
    for a in arrays[1:]:
        total += a
    return total / len(arrays)


@dataclass
class TrafficLog:
    """Accumulated allreduce metering."""

    allreduce_calls: int = 0
    allreduce_bytes: int = 0


class TrafficMeter:
    """The wire cost of DDP's reduction, read as ``strategy.comm.traffic``.

    Each step is metered as the one ring allreduce a real job performs:
    every rank moves 2 * (N-1)/N of the payload, ``2 * (N-1) * payload``
    bytes over the world, in integer arithmetic (the algorithm oneCCL and
    NCCL use for large tensors).
    """

    def __init__(self, world_size: int):
        self.world_size = world_size
        self.traffic = TrafficLog()

    def meter_allreduce(self, payload: int) -> None:
        """Account one allreduce of ``payload`` bytes per rank."""
        self.traffic.allreduce_calls += 1
        self.traffic.allreduce_bytes += 2 * (self.world_size - 1) * payload


class Strategy:
    """Turns a list of samples into one optimizer-ready gradient.

    ``execute(task, samples)`` runs forward/backward, leaves averaged
    gradients on the task's parameters, and returns (loss_value, metrics).
    """

    world_size: int = 1
    #: Optional :class:`~repro.observability.Tracer` (duck-typed).  When the
    #: trainer carries an Observer it hands the tracer down here so strategy
    #: executions emit forward/backward/comm phase spans.
    tracer = None
    #: Per-rank shard losses from the most recent ``execute`` call.  The
    #: loss-spike guard scores each rank's loss against that rank's own
    #: window (each real DDP rank only sees its own shard loss).
    last_rank_losses: List[float] = []

    def execute(self, task, samples: Sequence) -> Tuple[float, dict]:
        raise NotImplementedError


class SingleProcessStrategy(Strategy):
    """Plain single-worker training."""

    def execute(self, task, samples: Sequence) -> Tuple[float, dict]:
        with _span(self.tracer, "data", source="collate"):
            batch = collate_graphs(list(samples))
        loss, metrics = _forward_backward(self.tracer, task, batch)
        value = float(loss.data)
        self.last_rank_losses = [value]
        return value, metrics


class DDPStrategy(Strategy):
    """Simulated N-rank distributed data parallelism.

    Every step is one rank loop followed by one reduction.  Each rank
    collates its shard, runs forward/backward, and hands over its gradient
    list (the arrays move; ``p.grad`` goes back to None).  The reduction is
    :func:`rank_order_mean` — a rank that never touched a parameter
    contributes zeros, and a parameter no rank touched keeps ``grad=None``
    — computed locally and metered on ``comm`` as the one allreduce a real
    job performs.  The returned loss and each returned metric are the mean
    over the ranks that report them.

    Parameters
    ----------
    world_size:
        Number of simulated ranks N.  The incoming global batch must have
        at least N samples; it is split into N contiguous shards (real DDP
        gives each rank B samples of the same global batch).
    """

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        #: Traffic meter shared across steps, so its log accumulates.
        self.comm = TrafficMeter(world_size)

    # ------------------------------------------------------------------ #
    def shard(self, samples: Sequence) -> List[List]:
        n = len(samples)
        if n < self.world_size:
            raise ValueError(
                f"global batch of {n} cannot feed {self.world_size} ranks"
            )
        per_rank = n // self.world_size
        shards = [
            list(samples[r * per_rank : (r + 1) * per_rank])
            for r in range(self.world_size)
        ]
        # Leftover samples (n not divisible by N) are dropped, matching
        # drop_last rank sharding in torch's distributed sampler.
        return shards

    def execute(self, task, samples: Sequence) -> Tuple[float, dict]:
        shards = self.shard(samples)
        params = list(task.parameters())
        rank_grads: List[List[Optional[np.ndarray]]] = []
        losses = []
        rank_metrics: dict = {}
        _take_grads(params)  # each rank starts from grad=None
        for rank, shard in enumerate(shards):
            with _span(self.tracer, "data", source="collate", rank=rank):
                batch = collate_graphs(shard)
            loss, shard_metrics = _forward_backward(self.tracer, task, batch, rank=rank)
            losses.append(float(loss.data))
            for key, value in shard_metrics.items():
                rank_metrics.setdefault(key, []).append(value)
            rank_grads.append(_take_grads(params))
        self._reduce(params, rank_grads)
        self.last_rank_losses = losses
        metrics = {key: float(np.mean(values)) for key, values in rank_metrics.items()}
        return float(np.mean(losses)), metrics

    def _reduce(
        self, params: List, rank_grads: List[List[Optional[np.ndarray]]]
    ) -> None:
        """Leave Σ_r g_r / N on every parameter some rank touched."""
        with _span(self.tracer, "comm.allreduce", ranks=self.world_size):
            payload = 0
            for p, grads in zip(params, zip(*rank_grads)):
                if all(g is None for g in grads):
                    continue  # no rank touched it: grad stays None
                p.grad = rank_order_mean(
                    [g if g is not None else np.zeros_like(p.data) for g in grads]
                )
                payload += p.grad.nbytes
            self.comm.meter_allreduce(payload)
            if self.tracer is not None:
                self.tracer.set_attr("bytes", payload)
