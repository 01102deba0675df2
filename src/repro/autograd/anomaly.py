"""Autograd anomaly tracing: pinpoint the op that produced a non-finite value.

``detect_anomaly()`` arms the tape so that every recorded op is tagged with
the name of its creating operation.  While armed:

* the **forward** value of every op is scanned; the first NaN/Inf raises
  :class:`NumericalAnomalyError` naming the op and the tensor shape, at the
  exact call site that produced it;
* during **backward**, after each tape node runs its gradient closure, the
  gradients it deposited into its parents are scanned; the first non-finite
  gradient raises :class:`NumericalAnomalyError` naming the receiving
  tensor's op, its shape, and the backward *hop* (the op whose vjp produced
  the bad gradient).

Both the graph construction and the ``backward()`` call must run inside the
context for ops to carry their tags (mirroring ``torch.autograd.detect_anomaly``).
The checks cost one ``isfinite`` scan per op, so the context is meant for
debugging (``TrainerConfig.detect_anomaly`` / ``--detect-anomaly`` fail a
run loudly at the first non-finite value) — not for steady-state training.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Tuple


class NumericalAnomalyError(ArithmeticError):
    """A non-finite value surfaced on the autograd tape.

    Attributes
    ----------
    op:
        Name of the operation that created the offending tensor
        (``"leaf"`` for graph inputs/parameters).
    shape:
        Shape of the offending tensor (forward) or gradient (backward).
    phase:
        ``"forward"`` or ``"backward"``.
    hop:
        For backward anomalies, the op whose vector-Jacobian product
        produced the non-finite gradient; None for forward anomalies.
    """

    def __init__(
        self,
        op: str,
        shape: Tuple[int, ...],
        phase: str,
        hop: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self.op = op
        self.shape = tuple(shape)
        self.phase = phase
        self.hop = hop
        msg = f"non-finite {phase} value in op {op!r} (shape {self.shape})"
        if hop is not None:
            msg = (
                f"non-finite gradient for op {op!r} (shape {self.shape}) "
                f"produced by backward hop {hop!r}"
            )
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def op_name_of(backward: Callable) -> str:
    """Derive an op name from a backward closure's qualname.

    Every differentiable op in the tape defines a local ``backward``
    closure, so ``__qualname__`` reads ``exp.<locals>.backward`` or
    ``Tensor.__add__.<locals>.backward``; the op name is the segment
    before ``.<locals>`` with dunder underscores stripped.
    """
    qual = getattr(backward, "__qualname__", "")
    head = qual.split(".<locals>")[0]
    name = head.split(".")[-1]
    return name.strip("_") or "unknown"


def _tensor_module():
    # ``repro.autograd.tensor`` is shadowed by the ``tensor`` factory
    # function on the package, so resolve the module through sys.modules.
    import importlib

    return importlib.import_module("repro.autograd.tensor")


@contextlib.contextmanager
def detect_anomaly():
    """Context manager arming non-finite tracing on the autograd tape."""
    tensor_mod = _tensor_module()
    tensor_mod._ANOMALY_DEPTH += 1
    try:
        yield
    finally:
        tensor_mod._ANOMALY_DEPTH -= 1
