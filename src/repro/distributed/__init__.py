"""Distributed-training substrate.

The paper trains with MPI-based distributed data parallelism on up to 32
dual-socket Xeon nodes.  This subpackage reproduces that stack on a single
process:

* :mod:`repro.distributed.comm` — ``SimComm``, an in-process MPI-style
  communicator whose allreduce operates across simulated ranks and meters
  the bytes it moves.
* :mod:`repro.distributed.ddp` — gradient-averaging data parallelism over
  rank shards; mathematically identical to N-rank DDP (same effective
  batch, same averaged gradient), which is what makes the training-dynamics
  experiments exact rather than approximate.  One rank loop feeds one
  reduction — Σ_r g_r in rank order ÷ N — metered as one allreduce.
* :mod:`repro.distributed.events` — the structured incident event log and
  the simulated clock the serving pool and the loss-spike guard record on.
* :mod:`repro.distributed.perf_model` — an analytic cluster model (node
  FLOP/s, HDR200-class interconnect, ring allreduce) that converts measured
  single-worker throughput into scale-out throughput for Fig. 2.
* :mod:`repro.distributed.affinity` — the NUMA-domain worker-placement
  policy from Sec. 4.1 (map-by-NUMA, pin-to-core, 16 workers/node).
"""

from repro.distributed.comm import SimComm, TrafficLog
from repro.distributed.ddp import DDPStrategy, SingleProcessStrategy, Strategy
from repro.distributed.events import EventLog, FaultEvent, SimClock
from repro.distributed.perf_model import (
    NodeSpec,
    InterconnectSpec,
    ClusterSpec,
    ENDEAVOUR,
    ThroughputModel,
)
from repro.distributed.affinity import AffinityPlanner, WorkerPlacement

__all__ = [
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
    "ThroughputModel",
    "AffinityPlanner",
    "WorkerPlacement",
]
