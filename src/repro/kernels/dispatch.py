"""Kernel selection: fused tape nodes vs reference compositions.

The switch is process-global and starts enabled; :func:`set_fused` and the
:func:`use_fused` context manager flip it at runtime, which is how the
equivalence tests and benchmarks pit the two paths against each other in
one process (the reference path is their oracle, not a run mode).

Dispatch rules (documented in DESIGN.md §10):

* a fused kernel is used only when fusion is enabled AND the call site's
  operands satisfy the kernel's shape contract (noted per function below);
* otherwise the call falls through to the reference composition, which is
  always valid — dispatch never changes semantics, only tape granularity.
"""

from __future__ import annotations

import contextlib
from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.kernels import fused, reference

_FUSED = True


def fused_enabled() -> bool:
    """Whether fused kernels are currently selected."""
    return _FUSED


def set_fused(enabled: bool) -> bool:
    """Set the global fused flag; returns the previous value."""
    global _FUSED
    previous = _FUSED
    _FUSED = bool(enabled)
    return previous


@contextlib.contextmanager
def use_fused(enabled: bool = True):
    """Scoped override of the fused flag."""
    previous = set_fused(enabled)
    try:
        yield
    finally:
        set_fused(previous)


#: Activation-module class name -> fused activation key.  Keyed by name so
#: this module never imports repro.nn (which imports us).
_ACT_KEYS = {
    "SiLU": "silu",
    "SELU": "selu",
    "ReLU": "relu",
    "Tanh": "tanh",
    "Sigmoid": "sigmoid",
    "Softplus": "softplus",
    "ShiftedSoftplus": "shifted_softplus",
    "Identity": "identity",
}


def activation_key(module) -> Optional[str]:
    """Fused-activation key for an nn activation module, or None."""
    if module is None:
        return None
    return _ACT_KEYS.get(type(module).__name__)


# --------------------------------------------------------------------------- #
# Dispatched ops
# --------------------------------------------------------------------------- #
def linear_act(
    x, weight: Tensor, bias: Optional[Tensor] = None, act: Optional[str] = None
) -> Tensor:
    """``act(x @ W + b)``.  Fused contract: Tensor input with ndim >= 2."""
    key = act or "identity"
    if (
        _FUSED
        and isinstance(x, Tensor)
        and x.data.ndim >= 2
        and key in fused.ACTIVATIONS
    ):
        return fused.linear_act(x, weight, bias, key)
    return reference.linear_act(x, weight, bias, act)


def rms_norm(x, weight: Tensor, eps: float) -> Tensor:
    """RMS normalization over the last axis."""
    if _FUSED and isinstance(x, Tensor):
        return fused.rms_norm(x, weight, eps)
    return reference.rms_norm(x, weight, eps)


def layer_norm(x, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer normalization over the last axis."""
    if _FUSED and isinstance(x, Tensor):
        return fused.layer_norm(x, weight, bias, eps)
    return reference.layer_norm(x, weight, bias, eps)


# Reference only (no fused variant); the name stays for benchmarks/e2e/micro.py.
softmax_cross_entropy = reference.softmax_cross_entropy


def gather_diff(x, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """Per-edge difference ``x[src] - x[dst]``."""
    if _FUSED and isinstance(x, Tensor):
        return fused.gather_diff(x, src, dst)
    return reference.gather_diff(x, src, dst)


def row_sq_norm(t) -> Tensor:
    """Squared norm over the last axis, keepdims."""
    if _FUSED and isinstance(t, Tensor):
        return fused.row_sq_norm(t)
    return reference.row_sq_norm(t)


def mul_segment_sum(a, b, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """``segment_sum(a * b)`` — modulated message aggregation."""
    if _FUSED and isinstance(a, Tensor) and isinstance(b, Tensor):
        return fused.mul_segment_sum(a, b, segment_ids, num_segments)
    return reference.mul_segment_sum(a, b, segment_ids, num_segments)


def gather_pair_concat(h, src: np.ndarray, dst: np.ndarray, tails) -> Tensor:
    """``concat([h[src], h[dst], *tails], axis=1)``.  Fused contract: 2-D
    Tensor node table and 2-D Tensor tails."""
    if (
        _FUSED
        and isinstance(h, Tensor)
        and h.data.ndim == 2
        and all(isinstance(t, Tensor) and t.data.ndim == 2 for t in tails)
    ):
        return fused.gather_pair_concat(h, src, dst, tails)
    return reference.gather_pair_concat(h, src, dst, tails)


def index_select(x, index: np.ndarray) -> Tensor:
    """Row gather.  Fused contract: Tensor with ndim <= 2 (the bincount
    scatter backward is row-flat)."""
    if _FUSED and isinstance(x, Tensor) and x.data.ndim <= 2:
        return fused.index_select(x, index)
    return reference.index_select(x, index)


def segment_sum(x, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Segment reduction.  Fused contract: Tensor with ndim <= 2."""
    if _FUSED and isinstance(x, Tensor) and x.data.ndim <= 2:
        return fused.segment_sum(x, segment_ids, num_segments)
    return reference.segment_sum(x, segment_ids, num_segments)


def lstm_cell(x, h, c, w_x, w_h, b) -> Tensor:
    """One LSTM step; returns ``concat([h', c'], axis=1)``.  Fused
    contract: all six operands are Tensors and the state is 2-D."""
    if (
        _FUSED
        and all(isinstance(t, Tensor) for t in (x, h, c, w_x, w_h, b))
        and h.data.ndim == 2
        and x.data.ndim == 2
    ):
        return fused.lstm_cell(x, h, c, w_x, w_h, b)
    return reference.lstm_cell(x, h, c, w_x, w_h, b)
