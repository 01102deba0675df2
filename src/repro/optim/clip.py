"""Gradient clipping utilities."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.nn.module import Parameter


class NonFiniteGradientError(RuntimeError):
    """Raised by :func:`clip_grad_norm` when the global norm is NaN/Inf."""

    def __init__(self, norm: float):
        super().__init__(
            f"global gradient norm is non-finite ({norm}); clipping cannot "
            "bound it — zero the gradients (nonfinite='zero') or trace the "
            "op with repro.autograd.detect_anomaly"
        )
        self.norm = norm


def clip_grad_norm(
    params: Iterable[Parameter],
    max_norm: float,
    nonfinite: str = "error",
) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (always, including when no scaling happens
    and when the norm is non-finite).  Gradient clipping is one of the
    mitigations discussed for the large-batch Adam spikes; the ablation
    bench measures its effect on spike frequency.

    A NaN/Inf global norm cannot be clipped — any finite ``scale`` times a
    non-finite gradient is still non-finite, so silently skipping the
    scaling (the historical behaviour) lets a poisoned step through at
    full magnitude.  ``nonfinite`` selects the handling:

    * ``"error"`` (default) — raise :class:`NonFiniteGradientError`;
    * ``"zero"`` — zero every gradient so ``optimizer.step`` becomes a
      no-op for this batch, and return the (non-finite) pre-clip norm.

    ``max_norm`` must be > 0: a negative bound would flip the gradient's
    sign, zero would erase it, and NaN would never clip.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    if nonfinite not in ("error", "zero"):
        raise ValueError(
            f"nonfinite must be 'error' or 'zero', got {nonfinite!r}"
        )
    params = [p for p in params if p.grad is not None]
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if not math.isfinite(norm):
        if nonfinite == "error":
            raise NonFiniteGradientError(norm)
        for p in params:
            p.grad = np.zeros_like(p.grad)
        return norm
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm
