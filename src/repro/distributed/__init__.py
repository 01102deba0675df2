"""Distributed-training substrate.

The paper trains with MPI-based distributed data parallelism on up to 32
dual-socket Xeon nodes.  This subpackage reproduces that stack on a single
process:

* :mod:`repro.distributed.ddp` — gradient-averaging data parallelism over
  rank shards; mathematically identical to N-rank DDP (same effective
  batch, same averaged gradient), which is what makes the training-dynamics
  experiments exact rather than approximate.  One rank loop feeds one
  reduction — Σ_r g_r in rank order ÷ N — metered on ``strategy.comm`` as
  one ring allreduce.
* :mod:`repro.distributed.events` — the structured incident event log and
  the simulated clock the serving pool and the loss-spike guard record on.
* :mod:`repro.distributed.perf_model` — an analytic cluster model (node
  FLOP/s, HDR200-class interconnect, ring allreduce) that converts measured
  single-worker throughput into scale-out throughput for Fig. 2.
"""

from repro.distributed.ddp import DDPStrategy, SingleProcessStrategy, Strategy
from repro.distributed.events import EventLog, FaultEvent, SimClock
from repro.distributed.perf_model import (
    NodeSpec,
    InterconnectSpec,
    ClusterSpec,
    ENDEAVOUR,
    ThroughputModel,
)

__all__ = [
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
]
