"""Fused-kernel dispatch layer.

Hot composite ops — linear+bias+activation, the normalization layers, the
GNN gather/scatter chains, and the LSTM cell — each exist twice in this
codebase:

* a **reference** composition out of :mod:`repro.autograd` primitives
  (one tape node per elementary op), and
* a **fused** kernel that computes the same forward in one shot and
  registers a single tape node with a hand-written backward.

The fused kernels are bit-identical to the reference compositions: they
replay the exact numpy expression sequences and the exact per-tensor
gradient accumulation order of the reference tape, so the golden-metrics
tests hold at 1e-9 with either path.  :func:`set_fused` /
:func:`use_fused` select the reference path (the equivalence oracle).
Cross-entropy and the Adam update have one implementation each
(``F.cross_entropy``, the flat update in :mod:`repro.optim.adam`).
"""

from repro.kernels.dispatch import (
    activation_key,
    fused_enabled,
    gather_diff,
    gather_pair_concat,
    index_select,
    layer_norm,
    linear_act,
    mul_segment_sum,
    rms_norm,
    row_sq_norm,
    segment_sum,
    set_fused,
    softmax_cross_entropy,
    use_fused,
)

__all__ = [
    "activation_key",
    "fused_enabled",
    "gather_diff",
    "gather_pair_concat",
    "index_select",
    "layer_norm",
    "linear_act",
    "mul_segment_sum",
    "rms_norm",
    "row_sq_norm",
    "segment_sum",
    "set_fused",
    "softmax_cross_entropy",
    "use_fused",
]
