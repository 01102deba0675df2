"""Reference compositions of the fused kernels.

Each function builds the op out of :mod:`repro.autograd` primitives exactly
as the model code did before the dispatch layer existed — one tape node per
elementary op.  This is the ``use_fused(False)`` path and the equivalence
oracle for ``tests/test_kernels_fused.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor

_LOG2 = float(np.log(2.0))

_ACTS = {
    "identity": lambda t: t,
    "silu": F.silu,
    "selu": F.selu,
    "relu": F.relu,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "softplus": F.softplus,
    "shifted_softplus": lambda t: F.softplus(t) - _LOG2,
}


def linear_act(
    x: Tensor, weight: Tensor, bias: Optional[Tensor], act: Optional[str] = None
) -> Tensor:
    """Reference ``act(x @ W + b)``: matmul, bias add, activation nodes."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return _ACTS[act or "identity"](out)


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """Reference RMSNorm composition (seven tape nodes)."""
    ms = (x * x).mean(axis=-1, keepdims=True)
    rms = F.sqrt(ms + eps)
    return x / rms * weight


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Reference LayerNorm composition."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered / F.sqrt(var + eps)
    return normed * weight + bias


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Reference mean cross-entropy via ``F.cross_entropy``."""
    return F.cross_entropy(logits, targets)


def gather_diff(x: Tensor, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """Reference per-edge difference: two gathers and a subtract."""
    return F.index_select(x, src) - F.index_select(x, dst)


def row_sq_norm(t: Tensor) -> Tensor:
    """Reference squared row norm: multiply then reduce."""
    return (t * t).sum(axis=-1, keepdims=True)


def mul_segment_sum(
    a: Tensor, b: Tensor, segment_ids: np.ndarray, num_segments: int
) -> Tensor:
    """Reference modulated aggregation: multiply then segment-sum."""
    return F.segment_sum(a * b, segment_ids, num_segments)


def index_select(x: Tensor, index: np.ndarray) -> Tensor:
    """Reference row gather (scatter-add backward)."""
    return F.index_select(x, index)


def gather_pair_concat(h: Tensor, src: np.ndarray, dst: np.ndarray, tails) -> Tensor:
    """Reference message assembly: two gathers and a concat."""
    return F.concat(
        [F.index_select(h, src), F.index_select(h, dst), *tails], axis=1
    )


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Reference segment reduction (scatter-add forward)."""
    return F.segment_sum(x, segment_ids, num_segments)


def lstm_cell(
    x: Tensor, h: Tensor, c: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor
) -> Tensor:
    """Reference LSTM cell: one step of gated state update (~16 tape nodes).

    Gate pre-activations are ``x @ w_x + h @ w_h + b`` with the i/f/g/o
    layout along columns (input, forget, candidate, output — each ``d``
    wide, ``d = h.shape[1]``).  Returns ``concat([h', c'], axis=1)`` so the
    cell is a single tape node output in the fused path; callers slice the
    halves apart.
    """
    d = h.shape[1]
    gates = x @ w_x + h @ w_h + b
    i = F.sigmoid(gates[:, :d])
    f = F.sigmoid(gates[:, d : 2 * d])
    g = F.tanh(gates[:, 2 * d : 3 * d])
    o = F.sigmoid(gates[:, 3 * d :])
    c_next = f * c + i * g
    h_next = o * F.tanh(c_next)
    return F.concat([h_next, c_next], axis=1)
