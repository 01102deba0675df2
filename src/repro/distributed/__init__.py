"""Distributed-training substrate.

The paper trains with MPI-based distributed data parallelism on up to 32
dual-socket Xeon nodes.  This subpackage reproduces that stack on a single
process:

* :mod:`repro.distributed.comm` — ``SimComm``, an in-process MPI-style
  communicator whose collectives operate across simulated ranks and meter
  the bytes they move.
* :mod:`repro.distributed.ddp` — gradient-averaging data parallelism over
  rank shards; mathematically identical to N-rank DDP (same effective
  batch, same averaged gradient), which is what makes the training-dynamics
  experiments exact rather than approximate.  One rank loop feeds one
  reduction — Σ_r g_r in rank order ÷ N — whether it runs locally or
  through ZeRO buckets.
* :mod:`repro.distributed.events` — the structured incident event log and
  the simulated clock the serving pool and the loss-spike guard record on.
* :mod:`repro.distributed.perf_model` — an analytic cluster model (node
  FLOP/s, HDR200-class interconnect, ring allreduce) that converts measured
  single-worker throughput into scale-out throughput for Fig. 2, plus the
  bucketed-communication variant the sharding bench projects.
* :mod:`repro.distributed.affinity` — the NUMA-domain worker-placement
  policy from Sec. 4.1 (map-by-NUMA, pin-to-core, 16 workers/node).
* :mod:`repro.distributed.sharding` — ZeRO-style gradient bucketing
  (fixed-byte flat buckets reduced via ``reduce_scatter``/``allgather``)
  and optimizer-state sharding (``ShardedAdam``/``ShardedAdamW``, bit-
  identical to dense Adam).
"""

from repro.distributed.comm import SimComm, TrafficLog
from repro.distributed.ddp import DDPStrategy, SingleProcessStrategy, Strategy
from repro.distributed.events import EventLog, FaultEvent, SimClock
from repro.distributed.perf_model import (
    NodeSpec,
    InterconnectSpec,
    ClusterSpec,
    ENDEAVOUR,
    BucketedThroughputModel,
    ShardingSpec,
    ThroughputModel,
)
from repro.distributed.affinity import AffinityPlanner, WorkerPlacement
from repro.distributed.sharding import (
    Bucket,
    BucketSegment,
    GradientBucketer,
    ShardedAdam,
    ShardedAdamW,
)

__all__ = [
    "Bucket",
    "BucketSegment",
    "GradientBucketer",
    "ShardedAdam",
    "ShardedAdamW",
    "SimComm",
    "TrafficLog",
    "Strategy",
    "DDPStrategy",
    "SingleProcessStrategy",
    "EventLog",
    "FaultEvent",
    "SimClock",
    "NodeSpec",
    "InterconnectSpec",
    "ClusterSpec",
    "ENDEAVOUR",
    "BucketedThroughputModel",
    "ShardingSpec",
    "ThroughputModel",
    "AffinityPlanner",
    "WorkerPlacement",
]
