"""Differential fuzzing of the observed tape against the plain one.

``Tensor._make`` creates a node one of two ways: plainly, or — while an
observer listens — through the hooked branch, where the per-op profiler
tags and meters every node and times every backward hop, and
``detect_anomaly`` scans every forward value and gradient.  Observers
must be read-only.  Every program from the kernel fuzzer's generator
(``tests/test_kernels_fuzz.py``: broadcasting binaries, size-1 dims, empty
batches, shared subexpressions, dropout, every ``kernels.dispatch`` op)
runs plain and observed under both kernel modes, and the loss, the
outputs and every leaf gradient must be *bitwise* equal; the ``no_grad``
forward must reproduce the live forward's loss and outputs too.  A
failure shrinks to a minimal program (greedy consumer-cone removal) and
prints it.

The test ids are those of the tape-compiler fuzzer this file used to
hold.  The compiler was the third listener on the same hook and is gone
(DESIGN.md §14); the observers are what still branch there.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pytest

from repro.autograd import detect_anomaly, no_grad
from repro.kernels.dispatch import use_fused
from repro.observability import OpProfiler
from tests.test_kernels_fuzz import (
    _DISPATCH_OPS,
    Desc,
    _build_leaves,
    _execute,
    _run,
    _same_bits,
    generate,
    shrink,
)

N_SEEDS = 60  # x2 kernel modes = 120 fuzz runs

_FUSED_MOD = "repro.kernels.fused"


class _KernelCountingProfiler(OpProfiler):
    """An ``OpProfiler`` that also counts nodes built by fused kernels."""

    def __init__(self):
        super().__init__()
        self.fused_nodes = 0

    def on_tensor_created(self, out, backward) -> None:
        super().on_tensor_created(out, backward)
        if getattr(backward, "__module__", None) == _FUSED_MOD:
            self.fused_nodes += 1


def _observed(desc: Desc, seed: int, fused_on: bool):
    """``_run`` with the profiler and anomaly detection listening."""
    with _KernelCountingProfiler() as profiler, detect_anomaly():
        values = _run(desc, seed, fused_on)
    return values, profiler


def _no_grad_forward(desc: Desc, seed: int, fused_on: bool) -> Dict[str, np.ndarray]:
    leaves = _build_leaves(desc, seed)
    with use_fused(fused_on), no_grad():
        loss, outputs = _execute(desc, leaves)
    return {"loss": loss.data, **{name: t.data for name, t in outputs.items()}}


def mismatch(desc: Desc, seed: int, fused_on: bool) -> Optional[str]:
    """Name of the first value an observed or no_grad run changes, or None."""
    plain = _run(desc, seed, fused_on)
    observed, _ = _observed(desc, seed, fused_on)
    for name, value in plain.items():
        if not _same_bits(value, observed[name]):
            return f"observed {name}"
    for name, value in _no_grad_forward(desc, seed, fused_on).items():
        if not _same_bits(value, plain[name]):
            return f"no_grad {name}"
    return None


# --------------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_compiled_matches_eager(seed, fused):
    desc = generate(seed)
    first = mismatch(desc, seed, fused)
    if first is not None:
        minimal = shrink(desc, lambda d: mismatch(d, seed, fused) is not None)
        pytest.fail(
            f"{first} differs from the plain run (seed={seed}, fused={fused});\n"
            f"minimal program:\n{minimal!r}"
        )


def test_fuzz_covers_enough_seeds():
    assert 2 * N_SEEDS >= 100


def test_fusion_validation_rate():
    """The two kernel modes really are two paths through the fuzzed programs.

    Every program that calls a dispatched kernel builds a fused-kernel node
    under ``use_fused(True)`` and none under ``use_fused(False)``;
    otherwise the ``-fused`` and ``-reference`` ids would fuzz the same
    tape twice.
    """
    dispatching = 0
    for seed in range(N_SEEDS):
        desc = generate(seed)
        if not any(
            e is not None and e[0] == "op" and e[1] in _DISPATCH_OPS
            for e in desc.entries
        ):
            continue
        dispatching += 1
        assert _observed(desc, seed, True)[1].fused_nodes > 0, seed
        assert _observed(desc, seed, False)[1].fused_nodes == 0, seed
    assert dispatching > 0.8 * N_SEEDS, dispatching
