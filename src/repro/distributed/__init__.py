"""Distributed-training substrate.

The paper trains with MPI-based distributed data parallelism on up to 32
dual-socket Xeon nodes.  This subpackage reproduces that stack on a single
process:

* :mod:`repro.distributed.comm` — ``SimComm``, an in-process MPI-style
  communicator whose collectives operate across simulated ranks and meter
  the bytes they move.  With a fault injector attached, its allreduce runs
  under retry-with-exponential-backoff semantics on a simulated clock.
* :mod:`repro.distributed.ddp` — gradient-averaging data parallelism over
  rank shards; mathematically identical to N-rank DDP (same effective
  batch, same averaged gradient), which is what makes the training-dynamics
  experiments exact rather than approximate.  One rank loop feeds one
  reduction — Σ_r g_r in rank order ÷ N — whether it runs locally, through
  the fault-aware allreduce, or through ZeRO buckets.  Handles rank crashes
  either elastically (drop the rank, re-shard, re-scale the LR) or by
  escalating to the trainer's checkpoint recovery.
* :mod:`repro.distributed.faults` — deterministic, seeded fault injection
  (crashes, timeouts, corrupted gradients) plus the retry policy.
* :mod:`repro.distributed.events` — the structured fault/recovery event
  log and the simulated clock every backoff waits on.
* :mod:`repro.distributed.perf_model` — an analytic cluster model (node
  FLOP/s, HDR200-class interconnect, ring allreduce) that converts measured
  single-worker throughput into scale-out throughput for Fig. 2, plus the
  bucketed-communication variant the sharding bench projects.
* :mod:`repro.distributed.affinity` — the NUMA-domain worker-placement
  policy from Sec. 4.1 (map-by-NUMA, pin-to-core, 16 workers/node).
* :mod:`repro.distributed.sharding` — ZeRO-style gradient bucketing
  (fixed-byte flat buckets reduced via ``reduce_scatter``/``allgather``)
  and optimizer-state sharding (``ShardedAdam``/``ShardedAdamW``, bit-
  identical to dense Adam in no-fault runs).
"""

from repro.distributed.comm import SimComm, TrafficLog
from repro.distributed.ddp import DDPStrategy, SingleProcessStrategy, Strategy
from repro.distributed.events import EventLog, FaultEvent, SimClock
from repro.distributed.faults import (
    AllreduceTimeout,
    ChaosEngine,
    CommFault,
    FaultInjector,
    FaultProfile,
    RankCrash,
    RetryPolicy,
    StepFailure,
)
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
    "AllreduceTimeout",
    "CommFault",
    "ChaosEngine",
    "FaultInjector",
    "FaultProfile",
    "RankCrash",
    "RetryPolicy",
    "StepFailure",
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
