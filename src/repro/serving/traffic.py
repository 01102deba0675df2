"""Open-loop traffic generation for serving experiments.

Open-loop means arrivals do not wait for responses: requests land on the
server at times drawn from a Poisson process regardless of how far behind
it is — the standard model for "heavy traffic from many independent
users", and the one that actually exposes queueing collapse (a closed
loop self-throttles and hides it).  Seeded generators keep every traffic
trace reproducible.
"""

from __future__ import annotations

from itertools import cycle
from typing import List, Optional, Sequence

import numpy as np

from repro.serving.batcher import Request


def poisson_arrivals(
    rate: float, count: int, seed: int = 0, start: float = 0.0
) -> np.ndarray:
    """``count`` arrival times from a Poisson process of ``rate`` req/s."""
    if not rate > 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / rate, size=count)
    return start + np.cumsum(gaps)


def make_requests(
    samples: Sequence[object],
    arrivals: Sequence[float],
    num_clients: int = 4,
    deadline: Optional[float] = None,
) -> List[Request]:
    """Pair arrival times with payloads (cycled) and round-robin clients."""
    if not samples:
        raise ValueError("samples must be non-empty")
    sample_cycle = cycle(samples)
    return [
        Request(
            request_id=i,
            sample=next(sample_cycle),
            arrival=float(t),
            client_id=f"client-{i % num_clients}",
            deadline=None if deadline is None else float(t) + deadline,
        )
        for i, t in enumerate(arrivals)
    ]
