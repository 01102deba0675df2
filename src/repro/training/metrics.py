"""Metric primitives."""

from __future__ import annotations

import numpy as np


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy: sign rule for 1-D logits, argmax for 2-D."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim == 1:
        return float(((logits > 0) == (labels > 0.5)).mean())
    return float((logits.argmax(axis=-1) == labels).mean())
