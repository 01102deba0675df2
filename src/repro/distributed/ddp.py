"""Data-parallel training strategies.

``DDPStrategy`` reproduces N-rank distributed data parallelism exactly:
the global batch (B_eff samples) is split into N equal rank shards, each
shard's gradient is computed, and the shard gradients are averaged through
the simulated communicator — step for step the computation a real N-rank
MPI job performs, because gradient averaging is associative.  What the
simulation does not reproduce is wall-clock overlap; that is the
performance model's job (Fig. 2).

Fault handling: with a fault injector attached to the communicator, the
gradient reduction always goes through ``comm.allreduce`` (so injected
faults actually hit it).  A rank crash is handled in one of two ways:

* **elastic** (default): the dead rank is dropped, the global batch is
  re-sharded over the survivors, and the step re-executes in the shrunken
  world.  The Goyal linear-scaling rule says the learning rate must track
  the world size; the strategy accumulates the pending ``(new/old)``
  factor, which the trainer consumes via :meth:`consume_lr_rescale`.
* **non-elastic**: the crash escalates as :class:`StepFailure`, which the
  trainer's checkpoint-recovery path catches (restore last checkpoint,
  revive the world, retry the step).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.batching import collate_graphs
from repro.distributed.comm import SimComm
from repro.distributed.events import LR_RESCALE, RESHARD
from repro.distributed.faults import (
    AllreduceTimeout,
    RankCrash,
    StepFailure,
)

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
    #: stability guard evaluates its spike detectors rank-by-rank on these
    #: (each real DDP rank only sees its own shard loss) before agreeing on
    #: a verdict through the communicator.
    last_rank_losses: List[float] = []

    def execute(self, task, samples: Sequence) -> Tuple[float, dict]:
        raise NotImplementedError

    def scale_lr(self, base_lr: float) -> float:
        """Goyal et al. linear rule; identity for single-process training."""
        return base_lr * self.world_size

    def consume_lr_rescale(self) -> float:
        """Pending LR multiplier from world-size changes (1.0 = none)."""
        return 1.0

    def on_recover(self) -> None:
        """Hook the trainer calls after restoring a checkpoint."""


class SingleProcessStrategy(Strategy):
    """Plain single-worker training."""

    def __init__(self, collate_fn: Callable = collate_graphs):
        self.collate_fn = collate_fn
        self.world_size = 1

    def execute(self, task, samples: Sequence) -> Tuple[float, dict]:
        with _span(self.tracer, "data", source="collate"):
            batch = self.collate_fn(list(samples))
        loss, metrics = _forward_backward(self.tracer, task, batch)
        value = float(loss.data)
        self.last_rank_losses = [value]
        return value, metrics


class DDPStrategy(Strategy):
    """Simulated N-rank distributed data parallelism.

    Parameters
    ----------
    world_size:
        Number of simulated ranks N.  The incoming global batch must have
        at least N samples; it is split into N contiguous shards (real DDP
        gives each rank B samples of the same global batch).
    comm:
        Communicator used for the gradient allreduce.  Shared across steps
        so its traffic log accumulates — the scale-out bench reads it.
    track_per_rank:
        When True, per-rank gradients are snapshotted and reduced through
        ``comm.allreduce`` explicitly (slower; used by the equivalence
        tests).  The default fast path exploits in-place accumulation,
        which produces bit-identical averages, and meters the same bytes.
        A fault injector on the communicator forces the explicit path, and
        so does bucketing (``bucket_bytes``).
    elastic:
        When True (default), a rank crash shrinks the world and the step
        re-executes on the survivors; when False it raises
        :class:`StepFailure` for the trainer to recover from a checkpoint.
    bucket_bytes:
        When set, gradients are packed into fixed-byte flat buckets
        (:class:`~repro.distributed.sharding.GradientBucketer`) and
        reduced per bucket via ``comm.reduce_scatter`` — O(buckets)
        messages per step instead of O(tensors).  Reductions use the same
        ``mean`` arithmetic as the per-parameter allreduce, so results
        are bit-identical in no-fault runs.
    shard_optimizer:
        ZeRO mode: gradients stay reduce-scattered (each rank owns one
        shard) and the *optimizer* performs the second ring half as a
        parameter allgather after stepping its shard — pair with
        :class:`~repro.distributed.sharding.ShardedAdam` built with the
        same ``bucket_bytes``.  When False, the strategy allgathers the
        reduced gradients itself so any dense optimizer works.
    compress:
        ``"bf16"`` rounds bucket payloads through the emulated bfloat16
        wire format (quarter the fp64 bytes on the wire, bounded
        quantization error — see ``bf16_roundtrip``).  Not bit-identical
        to dense by construction; None (default) transmits full precision.
    """

    def __init__(
        self,
        world_size: int,
        comm: Optional[SimComm] = None,
        collate_fn: Callable = collate_graphs,
        track_per_rank: bool = False,
        elastic: bool = True,
        bucket_bytes: Optional[int] = None,
        shard_optimizer: bool = False,
        compress: Optional[str] = None,
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if bucket_bytes is not None and bucket_bytes < 1:
            raise ValueError(f"bucket_bytes must be >= 1, got {bucket_bytes}")
        if shard_optimizer and bucket_bytes is None:
            raise ValueError("shard_optimizer requires bucket_bytes")
        if compress not in (None, "bf16"):
            raise ValueError(f"unsupported compression {compress!r}")
        self.world_size = world_size
        self.initial_world_size = world_size
        self.comm = comm if comm is not None else SimComm(world_size)
        self.collate_fn = collate_fn
        self.track_per_rank = track_per_rank
        self.elastic = elastic
        self.bucket_bytes = bucket_bytes
        self.shard_optimizer = shard_optimizer
        self.compress = compress
        self._bucketer = None
        self._bucketer_key = None
        self._pending_lr_scale = 1.0

    # ------------------------------------------------------------------ #
    @property
    def events(self):
        return self.comm.events

    def consume_lr_rescale(self) -> float:
        factor = self._pending_lr_scale
        self._pending_lr_scale = 1.0
        return factor

    def on_recover(self) -> None:
        """Checkpoint recovery restarts every rank: restore the full world."""
        self.comm.restore_world()
        self.world_size = self.comm.world_size
        self._pending_lr_scale = 1.0

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
        # drop_last sharding in the real sampler.
        return shards

    # ------------------------------------------------------------------ #
    def _drop_rank(self, dead_rank: int, batch_size: int) -> None:
        """Elastic degradation: shrink the world and schedule the LR rescale."""
        old = self.world_size
        new = self.comm.shrink(dead_rank)
        self.world_size = new
        self._pending_lr_scale *= new / old
        if self.events is not None:
            self.events.record(
                RESHARD,
                world_size=new,
                batch_size=batch_size,
                per_rank=batch_size // new,
            )
            self.events.record(LR_RESCALE, factor=new / old, world_size=new)

    def execute(self, task, samples: Sequence) -> Tuple[float, dict]:
        while True:
            try:
                return self._execute_once(task, samples)
            except RankCrash as crash:
                if not self.elastic:
                    raise StepFailure(
                        f"rank {crash.rank} crashed (elastic mode off)", cause=crash
                    ) from crash
                if self.world_size <= 1:
                    raise StepFailure(
                        "no surviving ranks to re-shard onto", cause=crash
                    ) from crash
                self._drop_rank(crash.rank, len(samples))
            except AllreduceTimeout as timeout:
                raise StepFailure(
                    "allreduce retry budget exhausted", cause=timeout
                ) from timeout

    def _get_bucketer(self, params: List):
        """The cached bucket layout (rebuilt if the parameter set changes)."""
        from repro.distributed.sharding import GradientBucketer

        key = tuple(id(p) for p in params)
        if self._bucketer is None or self._bucketer_key != key:
            self._bucketer = GradientBucketer(params, bucket_bytes=self.bucket_bytes)
            self._bucketer_key = key
        return self._bucketer

    def _reduce_bucketed(
        self, params: List, per_rank_grads: List[List[np.ndarray]]
    ) -> None:
        """Bucketed gradient reduction: reduce_scatter (+ allgather) per bucket.

        Leaves the averaged gradient on every parameter.  With
        ``shard_optimizer`` the gradient allgather is skipped on the wire
        — the sharded optimizer's parameter allgather is the second ring
        half — but the simulation still materializes full gradients (each
        rank's shard is bit-identical, so assembling them locally is free).
        """
        from repro.distributed.sharding import bf16_roundtrip

        bucketer = self._get_bucketer(params)
        for bucket in bucketer.buckets:
            flats = [
                bucketer.flatten_grads(bucket, grads) for grads in per_rank_grads
            ]
            wire_bytes = None
            if self.compress == "bf16":
                flats = [bf16_roundtrip(f) for f in flats]
                wire_bytes = bucket.size * 2  # bf16 = 2 bytes/element
            shards = self.comm.reduce_scatter(flats, op="mean", wire_bytes=wire_bytes)
            if self.shard_optimizer:
                full = np.concatenate(shards) if len(shards) > 1 else shards[0]
            else:
                full = self.comm.allgather_flat(shards, wire_bytes=wire_bytes)[0]
            bucketer.assign_grads(bucket, full)
        for i, p in enumerate(params):
            if all(grads[i] is None for grads in per_rank_grads):
                p.grad = None

    def _execute_once(self, task, samples: Sequence) -> Tuple[float, dict]:
        shards = self.shard(samples)
        params = list(task.parameters())
        explicit = (
            self.track_per_rank
            or self.comm.injector is not None
            or self.bucket_bytes is not None
        )

        if explicit:
            per_rank_grads: List[List[np.ndarray]] = []
            losses = []
            metrics: dict = {}
            for rank, shard in enumerate(shards):
                task.zero_grad()
                with _span(self.tracer, "data", source="collate", rank=rank):
                    batch = self.collate_fn(shard)
                loss, m = _forward_backward(self.tracer, task, batch, rank=rank)
                if self.bucket_bytes is not None:
                    # The bucketer packs missing grads as zeros on the wire
                    # but None-ness is preserved so parameters unused on
                    # every rank keep grad=None — dense Adam skips those
                    # entirely (no moments, no weight decay), and sharded
                    # runs must be bit-identical to it.
                    per_rank_grads.append(
                        [p.grad.copy() if p.grad is not None else None for p in params]
                    )
                else:
                    per_rank_grads.append(
                        [
                            p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                            for p in params
                        ]
                    )
                losses.append(float(loss.data))
                metrics = m
            if self.bucket_bytes is not None:
                self._reduce_bucketed(params, per_rank_grads)
            else:
                for i, p in enumerate(params):
                    reduced = self.comm.allreduce(
                        [g[i] for g in per_rank_grads], op="mean"
                    )
                    p.grad = reduced[0]
            self.last_rank_losses = list(losses)
            return float(np.mean(losses)), metrics

        # Fast path: accumulate in place (gradient sums are associative),
        # divide once, meter the allreduce the real job would perform.
        losses = []
        metrics = {}
        for rank, shard in enumerate(shards):
            with _span(self.tracer, "data", source="collate", rank=rank):
                batch = self.collate_fn(shard)
            loss, m = _forward_backward(self.tracer, task, batch, rank=rank)
            losses.append(float(loss.data))
            metrics = m
        with _span(self.tracer, "comm.allreduce", ranks=self.world_size):
            inv = 1.0 / self.world_size
            payload = 0
            for p in params:
                if p.grad is not None:
                    p.grad *= inv
                    payload += p.grad.nbytes
            self.comm.traffic.allreduce_calls += 1
            if self.world_size > 1:
                self.comm.traffic.allreduce_bytes += int(
                    2
                    * (self.world_size - 1)
                    / self.world_size
                    * payload
                    * self.world_size
                )
            if self.tracer is not None:
                self.tracer.set_attr("bytes", payload)
        self.last_rank_losses = list(losses)
        return float(np.mean(losses)), metrics
