"""Weight initialization.

The initializer takes an explicit ``numpy.random.Generator`` so model
construction is reproducible and independent of global RNG state — the same
discipline the toolkit needs for pretrain-vs-scratch comparisons to be fair.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform"]


def kaiming_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    """He-style uniform init (PyTorch ``Linear`` default)."""
    # Matches torch.nn.init.kaiming_uniform_ with a=sqrt(5) on (fan_in, fan_out)
    # weights: std = sqrt(1/3)/sqrt(fan_in), bound = sqrt(3)*std = 1/sqrt(fan_in).
    fan_in = shape[0]
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
