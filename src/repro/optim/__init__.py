"""Optimizers and learning-rate schedulers.

``AdamW`` reproduces decoupled weight decay (Loshchilov & Hutter), the
optimizer the paper uses everywhere; ``WarmupExponential`` reproduces the
paper's linear-warmup → exponential-decay schedule and ``scale_lr_for_ddp``
Goyal et al.'s scale-lr-with-world-size rule for distributed data
parallelism.
"""

from repro.optim.optimizer import Optimizer
from repro.optim.adam import Adam, AdamW
from repro.optim.schedulers import LRScheduler, WarmupExponential, scale_lr_for_ddp
from repro.optim.clip import NonFiniteGradientError, clip_grad_norm
from repro.optim.grouped import MultiGroupOptimizer

__all__ = [
    "Optimizer",
    "Adam",
    "AdamW",
    "LRScheduler",
    "WarmupExponential",
    "scale_lr_for_ddp",
    "NonFiniteGradientError",
    "clip_grad_norm",
    "MultiGroupOptimizer",
]
