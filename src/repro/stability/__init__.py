"""The loss-spike guard (skip the step, halve the LR, re-warm).

The Fig. 3 remedy itself is ``repro.optim.Adam(update_clip=)``; anomaly
tracing is ``repro.autograd.detect_anomaly``.  DESIGN.md §8 has the grid
that decided what survives here.
"""

from repro.stability.guard import StabilityGuard

__all__ = ["StabilityGuard"]
