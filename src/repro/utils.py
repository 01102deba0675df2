"""Shared utilities: deterministic RNG management and small helpers."""

from __future__ import annotations

import time
from typing import Callable

import numpy as np


def seed_everything(seed: int) -> np.random.Generator:
    """Return a root generator for ``seed``.

    The library never touches numpy's global RNG; every stochastic component
    takes a ``Generator``.  This function is the single entry point examples
    and benches use to make runs reproducible.
    """
    return np.random.default_rng(seed)


def human_count(n: float) -> str:
    """Format large counts: 2_000_000 -> '2.0M'."""
    for unit, scale in (("B", 1e9), ("M", 1e6), ("k", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:.1f}{unit}"
    return f"{n:.0f}"


def time_callable(
    fn: Callable[[], object],
    rounds: int = 5,
    warmup: int = 1,
    reduce: str = "median",
) -> float:
    """Wall time of ``fn()`` in seconds: warmup discarded, median-of-k.

    ``time.perf_counter`` throughout; ``reduce`` may be ``"median"`` (the
    default — robust to one slow outlier round) or ``"min"`` (tightest
    bound, for overhead comparisons where any jitter only inflates).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    for _ in range(max(warmup, 0)):
        fn()
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    if reduce == "min":
        return min(times)
    if reduce != "median":
        raise ValueError(f"unknown reduce {reduce!r}")
    times.sort()
    mid = len(times) // 2
    if len(times) % 2:
        return times[mid]
    return 0.5 * (times[mid - 1] + times[mid])
