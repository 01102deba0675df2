"""Run history: a flat record store with series extraction.

Every logged event is a dict with at least ``step``, ``epoch`` and
``split``; benches pull (step, metric) series out to print the paper's
curves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class History:
    """Append-only log of training/validation events."""

    def __init__(self) -> None:
        self.records: List[Dict] = []

    def log(self, step: int, epoch: int, split: str, **metrics) -> None:
        record = {"step": step, "epoch": epoch, "split": split}
        record.update(metrics)
        self.records.append(record)

    def series(self, split: str, metric: str) -> Tuple[List[int], List[float]]:
        """(steps, values) for one metric on one split, in log order."""
        steps, values = [], []
        for r in self.records:
            if r["split"] == split and metric in r and r[metric] is not None:
                steps.append(r["step"])
                values.append(float(r[metric]))
        return steps, values

    def last(self, split: str, metric: str) -> Optional[float]:
        """The latest non-None value of one metric on one split, or None."""
        for r in reversed(self.records):
            if r["split"] == split and r.get(metric) is not None:
                return float(r[metric])
        return None

    def __len__(self) -> int:
        return len(self.records)
