"""Deterministic dataset splitting."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.dataset import Dataset, Subset


def train_val_split(
    dataset: Dataset,
    val_fraction: float,
    rng: np.random.Generator,
) -> Tuple[Subset, Subset]:
    """Shuffle indices once and split; deterministic for a given generator."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n = len(dataset)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    if len(train_idx) == 0:
        raise ValueError("split left no training samples")
    return Subset(dataset, train_idx.tolist()), Subset(dataset, val_idx.tolist())
