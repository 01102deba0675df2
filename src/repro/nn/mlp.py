"""The paper's residual output-head blocks.

Appendix A: each output head is a sequence of residual blocks, each block
being ``MLP -> non-linearity -> normalization -> dropout`` with the block
output added to its input.  Heads default to hidden width 256, SELU
activation, RMSNorm, and dropout 0.2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.kernels import dispatch as K
from repro.nn.activations import get_activation
from repro.nn.containers import ModuleList
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.norm import get_norm


class ResidualMLPBlock(Module):
    """One output-head block: ``x + dropout(norm(act(linear(x))))``."""

    def __init__(
        self,
        dim: int,
        activation: str = "selu",
        norm: str = "rmsnorm",
        dropout: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.linear = Linear(dim, dim, rng=rng)
        self.activation = get_activation(activation)
        self.norm = get_norm(norm, dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        act = K.activation_key(self.activation)
        if (
            K.fused_enabled()
            and act is not None
            and isinstance(x, Tensor)
            and x.data.ndim >= 2
        ):
            h = K.linear_act(x, self.linear.weight, self.linear.bias, act=act)
        else:
            h = self.activation(self.linear(x))
        h = self.norm(h)
        h = self.dropout(h)
        return x + h


class OutputHead(Module):
    """Task output head: input projection, N residual blocks, final linear.

    ``num_blocks`` is 3 for single-task training and 6 for the multi-task,
    multi-dataset setting, matching Appendix A.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int = 1,
        hidden_dim: int = 256,
        num_blocks: int = 3,
        activation: str = "selu",
        norm: str = "rmsnorm",
        dropout: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.project = Linear(in_dim, hidden_dim, rng=rng)
        self.blocks = ModuleList(
            [
                ResidualMLPBlock(hidden_dim, activation, norm, dropout, rng=rng)
                for _ in range(num_blocks)
            ]
        )
        self.readout = Linear(hidden_dim, out_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h = self.project(x)
        for block in self.blocks:
            h = block(h)
        return self.readout(h)
