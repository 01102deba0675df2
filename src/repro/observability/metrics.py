"""Counters, gauges, and histograms behind a process-local registry.

The registry is the numeric side of the observability layer: spans say
*where time went*, metrics say *how much of everything happened* —
samples trained, bytes allreduced, requests failed over, peak live
tensor bytes.  Naming follows a dotted ``subsystem.metric`` convention
(``train.samples``, ``comm.allreduce.bytes``, ``serve.failover.launched``,
``mem.peak_live_tensor_bytes``).

Instruments are get-or-create by name and type-checked on collision, so
two call sites incrementing ``train.samples`` share one counter and a
site that mistakes it for a gauge fails loudly.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1) -> float:
        if not amount >= 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount
        return self.value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge:
    """Point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class Histogram:
    """Streaming distribution: count/sum/min/max plus kept samples.

    Samples are retained (bounded by ``max_samples``, reservoir-free FIFO)
    so tests and reports can ask for percentiles of step-time without a
    bucketing scheme to tune.
    """

    kind = "histogram"

    def __init__(self, name: str, max_samples: int = 4096):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.max_samples = max_samples
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self.samples) >= self.max_samples:
            self.samples.pop(0)
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """q in [0, 100] over the retained samples (0 when empty)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        pos = (q / 100.0) * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """Thread-safe name -> instrument registry."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls, **kwargs):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, **kwargs)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} is a {inst.kind}, requested {cls.kind}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, max_samples: int = 4096) -> Histogram:
        return self._get(name, Histogram, max_samples=max_samples)

    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[object]:
        with self._lock:
            return self._instruments.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (histograms return their mean)."""
        inst = self.get(name)
        if inst is None:
            return default
        if isinstance(inst, Histogram):
            return inst.mean
        return inst.value

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.snapshot() for name, inst in sorted(instruments.items())}

    def format_table(self) -> str:
        lines = [f"{'metric':<34} {'kind':<10} value"]
        for name, snap in self.snapshot().items():
            inst = self.get(name)
            if isinstance(inst, Histogram):
                value = (
                    f"count={snap['count']:.0f} mean={snap['mean']:.6g} "
                    f"p50={snap['p50']:.6g} p95={snap['p95']:.6g}"
                )
            else:
                value = f"{snap['value']:.6g}"
            lines.append(f"{name:<34} {inst.kind:<10} {value}")
        return "\n".join(lines)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
