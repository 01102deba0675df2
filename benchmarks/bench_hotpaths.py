"""Hot-path benchmarks: fused kernels and one end-to-end training step.

Every measurement is a *speedup ratio* — optimized path vs the reference
composition run in the same process — so the committed baseline
(``benchmarks/BENCH_hotpaths.json``) is machine-portable: a ratio holds
across CPUs where absolute milliseconds do not.  Absolute times of the
optimized paths are recorded alongside for local (same-machine) gating
with ``scripts/bench_gate.py --absolute``.

All workloads are seeded and sized so the full suite runs in seconds;
``tiny=True`` shrinks them further for the gate's unit tests.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from benchmarks.common import bench_result, compare_callables, print_header
from repro.autograd import Tensor
from repro.data import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.kernels import dispatch as K
from repro.kernels import use_fused
from repro.models import EGNN
from repro.optim import AdamW
from repro.tasks import MultiClassClassificationTask


def _fwd_bwd(make_out, *leaves):
    """One forward + backward over fresh leaf tensors (grads cleared)."""
    for leaf in leaves:
        leaf.grad = None
    make_out().sum().backward()


# --------------------------------------------------------------------------- #
# Micro kernels: fused vs reference forward+backward
# --------------------------------------------------------------------------- #
def _micro_cases(tiny: bool) -> List[Dict]:
    rng = np.random.default_rng(7)
    n, d = (64, 32) if tiny else (512, 128)
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    w = Tensor(rng.normal(size=(d, d)), requires_grad=True)
    b = Tensor(rng.normal(size=(d,)), requires_grad=True)
    e = n * 16
    edges_a = Tensor(rng.normal(size=(e, d)), requires_grad=True)
    edges_b = Tensor(rng.normal(size=(e, d)), requires_grad=True)
    seg = np.sort(rng.integers(0, n, size=e))
    return [
        dict(
            name="linear_act_silu",
            fn=lambda: _fwd_bwd(lambda: K.linear_act(x, w, b, act="silu"), x, w, b),
        ),
        dict(
            name="rms_norm",
            fn=lambda: _fwd_bwd(lambda: K.rms_norm(x, b, 1e-6), x, b),
        ),
        dict(
            name="layer_norm",
            fn=lambda: _fwd_bwd(lambda: K.layer_norm(x, b, b, 1e-6), x, b),
        ),
        dict(
            name="mul_segment_sum",
            fn=lambda: _fwd_bwd(
                lambda: K.mul_segment_sum(edges_a, edges_b, seg, n), edges_a, edges_b
            ),
        ),
    ]


def bench_micro_kernels(rounds: int, warmup: int, tiny: bool = False) -> List[Dict]:
    """Fused-vs-reference speedups for each micro kernel."""
    results = []
    for case in _micro_cases(tiny):
        def fused_arm(fn=case["fn"]):
            with use_fused(True):
                fn()

        def ref_arm(fn=case["fn"]):
            with use_fused(False):
                fn()

        fused_t, ref_t = compare_callables(
            fused_arm, ref_arm, rounds=rounds, warmup=warmup
        )
        results.append(
            bench_result(
                f"kernel.{case['name']}", "speedup", ref_t / fused_t, "x",
                fused_seconds=fused_t, reference_seconds=ref_t,
            )
        )
        results.append(
            bench_result(f"kernel.{case['name']}.time", "time", fused_t, "s")
        )
    return results


# --------------------------------------------------------------------------- #
# End to end: one pretraining step, optimized vs reference
# --------------------------------------------------------------------------- #
def _training_setup(tiny: bool):
    rng = np.random.default_rng(3)
    count = 8 if tiny else 16
    hidden = 16 if tiny else 32
    ds = SymmetryPointCloudDataset(count, seed=5, group_names=["C2", "C4", "D2", "Oh"])
    structs = [ds[i] for i in range(count)]
    enc = EGNN(hidden_dim=hidden, num_layers=3, position_dim=12, num_species=4, rng=rng)
    task = MultiClassClassificationTask(
        enc, num_classes=4, hidden_dim=hidden, num_blocks=2, rng=rng
    )
    opt = AdamW(task.parameters(), lr=1e-3)
    return structs, task, opt


def bench_pretrain_step(rounds: int, warmup: int, tiny: bool = False) -> List[Dict]:
    """The acceptance measurement: data + forward + backward + optimizer.

    Both arms build the graphs from scratch and collate them plainly every
    step; optimized = fused kernels, reference = ``use_fused(False)``.
    """
    structs, task, opt = _training_setup(tiny)
    tf = StructureToGraph(cutoff=2.5)

    def step():
        batch = collate_graphs([tf(s) for s in structs])
        opt.zero_grad()
        loss, _ = task.training_step(batch)
        loss.backward()
        opt.step()

    def optimized_arm():
        with use_fused(True):
            step()

    def reference_arm():
        with use_fused(False):
            step()

    opt_t, ref_t = compare_callables(
        optimized_arm, reference_arm, rounds=rounds, warmup=warmup
    )
    return [
        bench_result(
            "e2e.pretrain_step", "speedup", ref_t / opt_t, "x",
            optimized_seconds=opt_t, reference_seconds=ref_t,
        ),
        bench_result("e2e.pretrain_step.time", "time", opt_t, "s"),
    ]


# --------------------------------------------------------------------------- #
def collect_results(
    rounds: int = 5, warmup: int = 1, tiny: bool = False
) -> List[Dict]:
    """Run the full hot-path suite; returns schema entries for the gate."""
    results: List[Dict] = []
    results += bench_micro_kernels(rounds, warmup, tiny)
    results += bench_pretrain_step(rounds, warmup, tiny)
    return results


def print_results(results: List[Dict]) -> None:
    """Human-readable table of the collected measurements."""
    print_header("Hot-path benchmarks (fused kernels)")
    print(f"{'name':<32} {'kind':<8} {'value':>10}")
    for r in results:
        unit = r["unit"] if r["kind"] != "time" else "s"
        value = f"{r['value']:.3f}{unit}" if r["kind"] == "speedup" else f"{r['value'] * 1e3:.2f} ms"
        print(f"{r['name']:<32} {r['kind']:<8} {value:>12}")


class TestHotPaths:
    """pytest-benchmark entry point (one pedantic round, like the figures)."""

    def test_hotpath_speedups(self, benchmark):
        results = benchmark.pedantic(
            lambda: collect_results(rounds=3, warmup=1), rounds=1, iterations=1
        )
        print_results(results)
        by_name = {r["name"]: r["value"] for r in results}
        # The acceptance floor from the performance pass: the end-to-end
        # pretraining step must be >= 1.5x faster with fused kernels.
        assert by_name["e2e.pretrain_step"] >= 1.5
        # Every fused micro kernel must at least break even.
        for r in results:
            if r["kind"] == "speedup" and r["name"].startswith("kernel."):
                assert r["value"] > 0.8, r


if __name__ == "__main__":
    print_results(collect_results())
