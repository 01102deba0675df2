"""Normalization layers.

The paper's output heads use RMSNorm (Zhang & Sennrich) specifically because
it behaves under the irregular batches produced by multi-task, multi-dataset
training, where BatchNorm's running statistics are unreliable (Appendix A).
Both are implemented so the ablation bench can compare them.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.kernels import dispatch as K
from repro.nn.module import Module, Parameter


class RMSNorm(Module):
    """Root-mean-square layer normalization: ``x / rms(x) * g``."""

    def __init__(self, dim: int, eps: float = 1e-8) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))

    def forward(self, x: Tensor) -> Tensor:
        return K.rms_norm(x, self.weight, self.eps)

    def __repr__(self) -> str:
        return f"RMSNorm({self.dim}, eps={self.eps})"


class LayerNorm(Module):
    """Standard layer normalization with learnable affine."""

    def __init__(self, dim: int, eps: float = 1e-8) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return K.layer_norm(x, self.weight, self.bias, self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm({self.dim}, eps={self.eps})"


class BatchNorm1d(Module):
    """Batch normalization over axis 0 with running statistics.

    Included as the baseline the paper moved away from; the ablation bench
    shows its failure mode on irregular multi-task batches (including
    batch-size-1 batches, where training-mode variance degenerates).
    """

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))
        self.register_buffer("running_mean", np.zeros(dim))
        self.register_buffer("running_var", np.ones(dim))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mu =x.mean(axis=0, keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=0, keepdims=True)
            self.set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * mu.data.ravel(),
            )
            n = max(x.shape[0], 2)
            unbiased = var.data.ravel() * n / (n - 1)
            self.set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
            normed = centered / F.sqrt(var + self.eps)
        else:
            normed = (x - Tensor(self.running_mean)) / Tensor(
                np.sqrt(self.running_var + self.eps)
            )
        return normed * self.weight + self.bias

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.dim}, eps={self.eps}, momentum={self.momentum})"


NORMS = {"rmsnorm": RMSNorm, "layernorm": LayerNorm, "batchnorm": BatchNorm1d}


def get_norm(name: str, dim: int) -> Module:
    """Instantiate a normalization layer by configuration string."""
    try:
        return NORMS[name.lower()](dim)
    except KeyError:
        raise ValueError(f"unknown norm {name!r}; choose from {sorted(NORMS)}")
