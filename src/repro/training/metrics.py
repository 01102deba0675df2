"""Metric primitives."""

from __future__ import annotations

import numpy as np


class Meter:
    """Streaming weighted mean."""

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def update(self, value: float, n: int = 1) -> None:
        self.total += float(value) * n
        self.count += n

    @property
    def mean(self) -> float:
        return self.total / max(self.count, 1)

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0


def mean_absolute_error(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean |pred - target|."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return float(np.abs(pred - target).mean())


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy: sign rule for 1-D logits, argmax for 2-D."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim == 1:
        return float(((logits > 0) == (labels > 0.5)).mean())
    return float((logits.argmax(axis=-1) == labels).mean())


def cross_entropy_np(logits: np.ndarray, labels: np.ndarray) -> float:
    """Reference (non-differentiable) multiclass CE for validation checks."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())
