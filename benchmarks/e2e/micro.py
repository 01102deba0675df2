"""The encoder x mode grid and the fused/reference kernel pairs.

The four workloads carry one encoder family each; this grid times every
family in both modes on one fixed batch, and each dispatched kernel on
both sides of ``use_fused``, so a per-encoder or per-kernel change has a
number to move even when its workload is dominated by something else.
Inputs are the same for every benchmark seed.  Runs in the traced child
after the wrappers are removed.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from repro.autograd import Tensor, batch_invariant_kernels, no_grad
from repro.autograd import functional as F
from repro.core.config import EncoderConfig
from repro.core.pipeline import build_encoder_from_config
from repro.core.workflows import MATERIALS_CUTOFF
from repro.data.batching import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import MaterialsProjectSurrogate
from repro.kernels import dispatch as K
from repro.kernels import use_fused
from repro.optim import AdamW
from repro.tasks import ScalarRegressionTask

from benchmarks.e2e.metrics import ENCODERS
from benchmarks.e2e.workloads import ENCODER, HEADS

WARMUP = 2
#: Kernel calls per timed sample (a single call is tens of microseconds).
KERNEL_REPEATS = 10


def _median_ms(fn: Callable[[], object], rounds: int, repeats: int = 1) -> float:
    for _ in range(WARMUP):
        fn()
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        samples.append((time.perf_counter() - t0) / repeats)
    return statistics.median(samples) * 1e3


def _encoder_grid(rounds: int) -> Dict[str, float]:
    structures = MaterialsProjectSurrogate(16, seed=0)
    transform = StructureToGraph(cutoff=MATERIALS_CUTOFF)
    batch = collate_graphs([transform(structures[i]) for i in range(16)])
    out = {}
    for name in ENCODERS:
        rng = np.random.default_rng(0)
        encoder = build_encoder_from_config(EncoderConfig(name=name, **ENCODER), rng=rng)
        task = ScalarRegressionTask(
            encoder, target="band_gap", hidden_dim=HEADS["head_hidden_dim"],
            num_blocks=HEADS["head_blocks"], rng=rng,
        )
        optimizer = AdamW(task.parameters(), lr=1e-3)

        def train_step():
            optimizer.zero_grad()
            loss, _ = task.training_step(batch)
            loss.backward()
            optimizer.step()

        def infer():
            with no_grad(), batch_invariant_kernels():
                return task.predict(batch).data

        task.train()
        out[f"models.{name}.train_step_ms"] = _median_ms(train_step, rounds)
        task.eval()
        out[f"models.{name}.infer_ms"] = _median_ms(infer, rounds)
    return out


def _kernel_cases() -> Dict[str, Callable[[], None]]:
    """Forward + backward of each kernel at the bench geometry: 16 graphs,
    128 nodes, 2048 edges, width 32."""
    rng = np.random.default_rng(0)
    graphs, nodes, edges, width = 16, 128, 2048, ENCODER["hidden_dim"]

    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    x, w, b = leaf(edges, width), leaf(width, width), leaf(width)
    ea, eb = leaf(edges, width), leaf(edges, width)
    seg = np.sort(rng.integers(0, nodes, size=edges))
    scores = leaf(edges)
    lx, lh, lc = leaf(graphs, 2 * width), leaf(graphs, width), leaf(graphs, width)
    lwx, lwh, lb = leaf(2 * width, 4 * width), leaf(width, 4 * width), leaf(4 * width)
    logits = leaf(graphs, 32)
    labels = rng.integers(0, 32, size=graphs)

    def fwd_bwd(make_out, *leaves):
        def run():
            for t in leaves:
                t.grad = None
            make_out().sum().backward()
        return run

    return {
        "linear_act": fwd_bwd(lambda: K.linear_act(x, w, b, act="silu"), x, w, b),
        "mul_segment_sum": fwd_bwd(lambda: K.mul_segment_sum(ea, eb, seg, nodes), ea, eb),
        # No fused variant exists at this commit and nothing inside the
        # composition dispatches, so both arms time the same code; the
        # pair is here for the change that adds one.
        "segment_softmax": fwd_bwd(lambda: F.segment_softmax(scores, seg, nodes), scores),
        "lstm_cell": fwd_bwd(lambda: K.lstm_cell(lx, lh, lc, lwx, lwh, lb), lx, lh, lc, lwx, lwh, lb),
        "softmax_cross_entropy": fwd_bwd(lambda: K.softmax_cross_entropy(logits, labels), logits),
    }


def _kernel_pairs(rounds: int) -> Dict[str, float]:
    out = {}
    for name, fn in _kernel_cases().items():
        for arm, enabled in (("fused_ms", True), ("reference_ms", False)):
            with use_fused(enabled):
                out[f"kernels.{name}.{arm}"] = _median_ms(fn, rounds, repeats=KERNEL_REPEATS)
    return out


def run(rounds: int = 20) -> Dict[str, float]:
    """Every ``models.<enc>.*`` and ``kernels.<op>.*`` value, each the
    median of ``rounds`` samples."""
    return {**_encoder_grid(rounds), **_kernel_pairs(rounds)}
