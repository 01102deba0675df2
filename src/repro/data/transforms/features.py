"""Target normalization."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable

import numpy as np

from repro.data.transforms.base import Transform


class TargetNormalizer(Transform):
    """Standardize scalar targets with statistics fit on a training set.

    ``fit`` computes per-target mean/std over an iterable of samples; the
    transform then maps each listed target to z-scores.  ``denormalize``
    recovers original units for metric reporting (the paper reports MAE in
    physical units: eV, eV/atom).
    """

    def __init__(self, keys: Iterable[str]):
        self.keys = list(keys)
        self.stats: Dict[str, tuple] = {}

    def fit(self, samples) -> "TargetNormalizer":
        values: Dict[str, list] = {k: [] for k in self.keys}
        for sample in samples:
            for k in self.keys:
                if k in sample.targets:
                    v = np.asarray(sample.targets[k], dtype=np.float64)
                    if not np.any(np.isnan(v)):
                        values[k].append(v.ravel())
        for k, rows in values.items():
            if not rows:
                raise ValueError(f"no samples carry target {k!r}")
            flat = np.concatenate(rows)
            std = float(flat.std())
            self.stats[k] = (float(flat.mean()), std if std > 1e-12 else 1.0)
        return self

    def __call__(self, sample):
        if not self.stats:
            raise RuntimeError("TargetNormalizer used before fit()")
        targets = dict(sample.targets)
        for k in self.keys:
            if k in targets:
                mean, std = self.stats[k]
                targets[k] = (np.asarray(targets[k], dtype=np.float64) - mean) / std
        return replace(sample, targets=targets)

    def fingerprint(self) -> str:
        """Identity covering the target keys and the fitted statistics."""
        return f"TargetNormalizer(keys={self.keys!r}, stats={self.stats!r})"

    def denormalize(self, key: str, value: np.ndarray) -> np.ndarray:
        mean, std = self.stats[key]
        return np.asarray(value) * std + mean

    def scale_of(self, key: str) -> float:
        """Std of a target — converts normalized MAE back to physical units."""
        return self.stats[key][1]
