"""Differentiable functional primitives.

These free functions complement the operator methods on
:class:`repro.autograd.Tensor`.  The segment reductions at the bottom of the
module (`segment_sum`, `segment_mean`, `index_select`) are the sparse
aggregation kernels that the Deep Graph Library provides in the original
toolkit; here every row scatter goes through the one flat-``np.bincount``
kernel in :mod:`repro.autograd.scatter` (the fused kernels use the same
one), so the message-passing code path runs without compiled extensions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import importlib

_tensor_core = importlib.import_module("repro.autograd.tensor")
from repro.autograd.scatter import scatter_rows
from repro.autograd.tensor import Tensor, TensorLike, _as_array

__all__ = [
    "exp",
    "log",
    "sqrt",
    "abs",
    "tanh",
    "sigmoid",
    "relu",
    "silu",
    "selu",
    "softplus",
    "clip",
    "where",
    "concat",
    "stack",
    "pad_rows",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "l1_loss",
    "huber_loss",
    "dropout",
    "index_select",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
    "pairwise_sq_dist",
]


def _ensure(value: TensorLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _sigmoid_for_backward(z: np.ndarray):
    """``sigmoid(z)`` that only a backward closure reads: skipped under no_grad."""
    if not _tensor_core.is_grad_enabled():
        return None
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


# --------------------------------------------------------------------------- #
# Elementwise
# --------------------------------------------------------------------------- #
def exp(x: TensorLike) -> Tensor:
    """Elementwise exponential."""
    x = _ensure(x)
    out_data = np.exp(x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * out_data)

    return Tensor._make(out_data, (x,), backward)


def log(x: TensorLike) -> Tensor:
    """Elementwise natural logarithm."""
    x = _ensure(x)
    x_data = x.data
    out_data = np.log(x_data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g / x_data)

    return Tensor._make(out_data, (x,), backward)


def sqrt(x: TensorLike) -> Tensor:
    """Elementwise square root."""
    x = _ensure(x)
    out_data = np.sqrt(x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * 0.5 / out_data)

    return Tensor._make(out_data, (x,), backward)


def abs(x: TensorLike) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (subgradient sign(x))."""
    x = _ensure(x)
    x_data = x.data
    out_data = np.abs(x_data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * np.sign(x_data))

    return Tensor._make(out_data, (x,), backward)


def tanh(x: TensorLike) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = _ensure(x)
    out_data = np.tanh(x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: TensorLike) -> Tensor:
    """Numerically stable logistic sigmoid."""
    x = _ensure(x)
    # Numerically stable logistic.
    out_data = np.where(
        x.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500))),
        np.exp(np.clip(x.data, -500, 500)) / (1.0 + np.exp(np.clip(x.data, -500, 500))),
    )

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def relu(x: TensorLike) -> Tensor:
    """Rectified linear unit."""
    x = _ensure(x)
    mask = x.data > 0
    out_data = x.data * mask

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(out_data, (x,), backward)


def silu(x: TensorLike) -> Tensor:
    """SiLU / swish: ``x * sigmoid(x)`` — the global activation in the paper."""
    x = _ensure(x)
    xc = np.clip(x.data, -500, 500)
    sig = 1.0 / (1.0 + np.exp(-xc))
    out_data = x.data * sig

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * (sig + out_data * (1.0 - sig)))

    return Tensor._make(out_data, (x,), backward)


_SELU_ALPHA = 1.6732632423543772
_SELU_SCALE = 1.0507009873554805


def selu(x: TensorLike) -> Tensor:
    """SELU activation (Klambauer et al.), used by the output heads."""
    x = _ensure(x)
    pos = x.data > 0
    expx = np.exp(np.clip(x.data, -500, 0))
    out_data = _SELU_SCALE * np.where(pos, x.data, _SELU_ALPHA * (expx - 1.0))

    def backward(g: np.ndarray) -> None:
        local = _SELU_SCALE * np.where(pos, 1.0, _SELU_ALPHA * expx)
        x._accumulate(g * local)

    return Tensor._make(out_data, (x,), backward)


def softplus(x: TensorLike) -> Tensor:
    """log(1 + exp(x)), computed stably as ``max(x, 0) + log1p(exp(-|x|))``.

    Not ``np.logaddexp``: numpy runs that as a scalar libm loop, several
    times slower than the SIMD exp/log1p loops used here (DESIGN.md §10).
    """
    x = _ensure(x)
    out_data = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    sig = _sigmoid_for_backward(x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * sig)

    return Tensor._make(out_data, (x,), backward)


def clip(x: TensorLike, low: float, high: float) -> Tensor:
    """Clamp values to [low, high]; gradient passes only inside the range."""
    x = _ensure(x)
    # Only the backward reads the mask.
    mask = (x.data >= low) & (x.data <= high) if _tensor_core.is_grad_enabled() else None
    out_data = np.clip(x.data, low, high)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(out_data, (x,), backward)


def where(condition: np.ndarray, a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise select: a where condition else b (condition is constant)."""
    condition = np.asarray(condition, dtype=bool)
    a_t = a if isinstance(a, Tensor) else None
    b_t = b if isinstance(b, Tensor) else None
    out_data = np.where(condition, _as_array(a), _as_array(b))

    def backward(g: np.ndarray) -> None:
        if a_t is not None:
            a_t._accumulate(g * condition)
        if b_t is not None:
            b_t._accumulate(g * ~condition)

    parents = tuple(t for t in (a_t, b_t) if t is not None)
    return Tensor._make(out_data, parents, backward)


# --------------------------------------------------------------------------- #
# Shape composition
# --------------------------------------------------------------------------- #
def concat(tensors: Sequence[TensorLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along an axis; gradients split back per input."""
    tensors = [_ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(g[tuple(slicer)])

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[TensorLike], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_ensure(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        pieces = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, pieces):
            t._accumulate(piece)

    return Tensor._make(out_data, tensors, backward)


def pad_rows(x: TensorLike, total_rows: int) -> Tensor:
    """Zero-pad a 2-D tensor along axis 0 up to ``total_rows`` rows."""
    x = _ensure(x)
    n, d = x.data.shape
    if total_rows < n:
        raise ValueError(f"cannot pad {n} rows down to {total_rows}")
    out_data = np.zeros((total_rows, d), dtype=np.float64)
    out_data[:n] = x.data

    def backward(g: np.ndarray) -> None:
        x._accumulate(g[:n])

    return Tensor._make(out_data, (x,), backward)


# --------------------------------------------------------------------------- #
# Softmax family and losses
# --------------------------------------------------------------------------- #
def softmax(x: TensorLike, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``."""
    x = _ensure(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    out_data = expd / expd.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: TensorLike, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    x = _ensure(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsum
    # softmax(x), which only the backward reads.
    soft = np.exp(out_data) if _tensor_core.is_grad_enabled() else None

    def backward(g: np.ndarray) -> None:
        x._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def cross_entropy(logits: TensorLike, targets: np.ndarray) -> Tensor:
    """Mean multiclass cross-entropy from raw logits and integer labels."""
    logits = _ensure(logits)
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.data.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    return -(picked.mean())


def binary_cross_entropy_with_logits(logits: TensorLike, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy from raw logits and {0,1} labels.

    Uses the stable formulation ``max(z,0) - z*y + log(1 + exp(-|z|))``.
    """
    logits = _ensure(logits)
    targets = np.asarray(targets, dtype=np.float64)
    z = logits.data
    out_data = np.maximum(z, 0.0) - z * targets + np.logaddexp(0.0, -np.abs(z))
    sig = _sigmoid_for_backward(z)

    def backward(g: np.ndarray) -> None:
        logits._accumulate(g * (sig - targets))

    per_element = Tensor._make(out_data, (logits,), backward)
    return per_element.mean()


def mse_loss(pred: TensorLike, target: TensorLike) -> Tensor:
    """Mean squared error against a constant target."""
    pred = _ensure(pred)
    target_a = _as_array(target)
    diff = pred - Tensor(target_a)
    return (diff * diff).mean()


def l1_loss(pred: TensorLike, target: TensorLike) -> Tensor:
    """Mean absolute error against a constant target."""
    pred = _ensure(pred)
    target_a = _as_array(target)
    return abs(pred - Tensor(target_a)).mean()


def huber_loss(pred: TensorLike, target: TensorLike, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic within ``delta`` of the target, linear beyond."""
    pred = _ensure(pred)
    target_a = _as_array(target)
    diff = pred - Tensor(target_a)
    absdiff = abs(diff)
    quadratic = 0.5 * diff * diff
    linear = delta * absdiff - Tensor(0.5 * delta * delta)
    mask = absdiff.data <= delta
    return where(mask, quadratic, linear).mean()


def dropout(x: TensorLike, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    x = _ensure(x)
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    keep = 1.0 - p
    mask = (rng.random(x.data.shape) < keep).astype(np.float64) / keep
    out_data = x.data * mask

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(out_data, (x,), backward)


# --------------------------------------------------------------------------- #
# Gather / scatter — the GNN sparse kernels
# --------------------------------------------------------------------------- #
def index_select(x: TensorLike, index: np.ndarray) -> Tensor:
    """Row gather: ``out[i] = x[index[i]]`` with scatter-add backward."""
    x = _ensure(x)
    index = np.asarray(index, dtype=np.int64)
    out_data = x.data[index]
    num_rows = x.data.shape[0]

    def backward(g: np.ndarray) -> None:
        x._accumulate(scatter_rows(index, g, num_rows))

    return Tensor._make(out_data, (x,), backward)


def segment_sum(x: TensorLike, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    ``out[s] = sum_i x[i] * [segment_ids[i] == s]``.  This is the message
    aggregation primitive: with ``segment_ids = dst_node_of_edge`` it sums
    incoming messages per node; with ``segment_ids = graph_of_node`` it
    implements size-extensive sum pooling.  An id outside
    ``[0, num_segments)`` raises :class:`~repro.autograd.scatter.SegmentIndexError`.
    """
    x = _ensure(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = scatter_rows(segment_ids, x.data, num_segments)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g[segment_ids])

    return Tensor._make(out_data, (x,), backward)


def segment_mean(x: TensorLike, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment mean; empty segments yield zeros."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # The sum first: it rejects ids outside [0, num_segments).
    total = segment_sum(x, segment_ids, num_segments)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    if total.data.ndim == 1:
        return total * Tensor(1.0 / counts)
    return total * Tensor(1.0 / counts[:, None])


def segment_softmax(x: TensorLike, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax normalized within each segment (attention over edges)."""
    x = _ensure(x)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # Stable: subtract per-segment max (computed outside the tape — constant
    # shifts do not change the softmax value or gradient).
    seg_max = np.full(num_segments, -np.inf, dtype=np.float64)
    np.maximum.at(seg_max, segment_ids, x.data if x.data.ndim == 1 else x.data.max(axis=-1))
    shift = seg_max[segment_ids]
    if x.data.ndim > 1:
        shift = shift[:, None]
    e = exp(x - Tensor(shift))
    denom = segment_sum(e, segment_ids, num_segments)
    denom_per_row = index_select(denom, segment_ids)
    return e / (denom_per_row + 1e-16)


def pairwise_sq_dist(x: TensorLike, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """Squared distances ``||x[src] - x[dst]||^2`` per edge, differentiable in x."""
    x = _ensure(x)
    diff = index_select(x, src) - index_select(x, dst)
    return (diff * diff).sum(axis=-1, keepdims=True)
