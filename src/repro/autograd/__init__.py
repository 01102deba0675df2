"""Reverse-mode automatic differentiation over numpy arrays.

This subpackage is the substrate that replaces PyTorch's autograd in the
reproduction: a tape-based reverse-mode engine whose primitives cover
everything the toolkit needs — elementwise math, matrix products, reductions,
indexing, and the segment (scatter/gather) reductions that graph neural
network message passing is built on.

The public surface mirrors a small slice of ``torch``:

>>> from repro.autograd import Tensor
>>> x = Tensor([[1.0, 2.0]], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([[2., 4.]])
"""

from repro.autograd.tensor import (
    Tensor,
    batch_invariant_kernels,
    batch_invariant_matmul_mode,
    is_grad_enabled,
    no_grad,
    tensor,
)
from repro.autograd import functional
from repro.autograd.anomaly import NumericalAnomalyError, detect_anomaly
from repro.autograd.gradcheck import gradcheck, numerical_gradient
from repro.autograd.scatter import SegmentIndexError

__all__ = [
    "Tensor",
    "tensor",
    "batch_invariant_kernels",
    "batch_invariant_matmul_mode",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "NumericalAnomalyError",
    "detect_anomaly",
    "gradcheck",
    "numerical_gradient",
    "SegmentIndexError",
]
