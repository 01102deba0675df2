"""Neural network modules built on :mod:`repro.autograd`.

A minimal, PyTorch-flavoured module system: parameters are
``Tensor(requires_grad=True)`` leaves registered on ``Module`` instances,
``state_dict``/``load_state_dict`` round-trip weights, and ``train``/``eval``
toggle dropout and normalization behaviour.
"""

from repro.nn.module import Module, Parameter
from repro.nn.containers import Sequential, ModuleList, ModuleDict
from repro.nn.linear import Linear
from repro.nn.embedding import Embedding
from repro.nn.activations import SiLU, SELU, ReLU, Tanh, Sigmoid, Identity, Softplus
from repro.nn.norm import RMSNorm, LayerNorm, BatchNorm1d
from repro.nn.dropout import Dropout
from repro.nn.mlp import ResidualMLPBlock, OutputHead
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "ModuleDict",
    "Linear",
    "Embedding",
    "SiLU",
    "SELU",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Softplus",
    "RMSNorm",
    "LayerNorm",
    "BatchNorm1d",
    "Dropout",
    "ResidualMLPBlock",
    "OutputHead",
    "init",
]
