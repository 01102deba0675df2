"""Buffer discipline of the eager tape, seen through the op profiler.

The profiler's tape hook sees every node the moment ``Tensor._make``
creates it, which makes these properties checkable on real graphs:

* **immutability** — no op, forward or backward, writes into a value that
  already exists: every node still holds the bytes it was created with
  after ``backward``.  Fused kernels compute in place, so this is where an
  aliasing slip would show — over random fuzz programs and the real
  pretraining step, in both kernel modes;
* **economy** — the live-tensor high-water mark never exceeds the bytes
  the step allocated, and a ``no_grad`` forward, which drops each
  intermediate as soon as its consumer has run, peaks below the training
  step;
* **ownership** — the outputs of the in-place fused kernels (``linear_act``,
  ``rms_norm``, ``layer_norm``) share memory with no other value;
* **stability** — the tape a step builds (per-op calls, nodes and bytes)
  is a function of parameter shapes and the batch, identical in two
  separate processes;
* **repeatability** — an observed training step and its plain twin agree
  bitwise, step after step, on the same recurring batch.

The test ids are those of the tape compiler's memory-planner tests; the
compiler is gone (DESIGN.md §14) and each test checks the eager-tape
property its planner namesake was about.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.autograd import Tensor, detect_anomaly, no_grad
from repro.data.batching import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.kernels.dispatch import use_fused
from repro.models import EGNN
from repro.observability import OpProfiler
from repro.tasks import MultiClassClassificationTask
from tests.test_kernels_fuzz import _build_leaves, _execute, generate

_FUSED_MOD = "repro.kernels.fused"
_INPLACE_FUSED = {"linear_act", "rms_norm", "layer_norm"}


class _SnapshotProfiler(OpProfiler):
    """An ``OpProfiler`` that keeps every node it sees, a copy of the bytes
    it was created with, and the name of the kernel that built it."""

    def __init__(self):
        super().__init__()
        self.created = []  # (node, bytes at creation, fused kernel name or None)

    def on_tensor_created(self, out, backward) -> None:
        super().on_tensor_created(out, backward)
        kernel = None
        if getattr(backward, "__module__", None) == _FUSED_MOD:
            kernel = backward.__qualname__.split(".")[0]
        self.created.append((out, out.data.copy(), kernel))

    def allocated_bytes(self) -> int:
        return sum(s.alloc_bytes for s in self.summary("forward"))


def _make_task(
    seed: int = 5, dropout: float = 0.2, hidden_dim: int = 10
) -> MultiClassClassificationTask:
    rng = np.random.default_rng(seed)
    enc = EGNN(
        hidden_dim=hidden_dim, num_layers=2, position_dim=4, num_species=4, rng=rng
    )
    return MultiClassClassificationTask(
        enc,
        num_classes=4,
        hidden_dim=8,
        num_blocks=1,
        dropout=dropout,
        rng=np.random.default_rng(seed + 1),
    )


def _make_batch(seed: int = 5, n: int = 8):
    ds = SymmetryPointCloudDataset(n, seed=seed, group_names=["C1", "C2", "C4", "D2"])
    tf = StructureToGraph(cutoff=2.5)
    return collate_graphs([tf(ds[i]) for i in range(n)])


def _observed_step(task, batch, fused: bool) -> _SnapshotProfiler:
    with use_fused(fused), _SnapshotProfiler() as profiler:
        loss, _ = task.training_step(batch)
        loss.backward()
    return profiler


def _assert_immutable(profiler: _SnapshotProfiler) -> None:
    """Every node still holds the bytes it was created with."""
    for i, (node, created, kernel) in enumerate(profiler.created):
        assert node.data.tobytes() == created.tobytes(), (
            f"node {i} ({kernel or node._op}, shape {node.data.shape}) was "
            f"overwritten after creation"
        )


# --------------------------------------------------------------------------- #
# Immutability + economy over random programs
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(25))
def test_no_live_interval_shares_a_buffer_fuzz(seed):
    desc = generate(seed)
    for fused in (True, False):
        leaves = _build_leaves(desc, seed)
        with use_fused(fused), _SnapshotProfiler() as profiler:
            loss, _ = _execute(desc, leaves)
            loss.backward()
        _assert_immutable(profiler)
        assert profiler.peak_live_bytes <= profiler.allocated_bytes()


# --------------------------------------------------------------------------- #
# The real pretraining step
# --------------------------------------------------------------------------- #


class TestPretrainStepPlan:
    @pytest.fixture(scope="class")
    def traced(self):
        task = _make_task()
        batch = _make_batch()
        return task, batch, _observed_step(task, batch, fused=True)

    def test_arena_is_nonempty(self, traced):
        _, _, profiler = traced
        assert profiler.created, "the profiler saw no node on the hot step"
        assert profiler.allocated_bytes() > 0
        assert profiler.summary("backward"), "no backward hop was timed"

    def test_exclusive_buffers(self, traced):
        _, _, profiler = traced
        _assert_immutable(profiler)

    def test_plan_peak_never_exceeds_eager_accounting(self, traced):
        _, _, profiler = traced
        assert 0 < profiler.peak_live_bytes <= profiler.allocated_bytes()

    def test_plan_peak_below_profiled_eager_watermark(self, traced):
        """The no_grad forward keeps no tape, so it peaks below the step."""
        _, batch, _ = traced
        task = _make_task()
        with use_fused(True):
            with OpProfiler() as train:
                loss, _ = task.training_step(batch)
                loss.backward()
            with OpProfiler() as inference, no_grad():
                task.training_step(batch)
        assert train.peak_live_bytes > 0
        assert inference.peak_live_bytes < train.peak_live_bytes, (
            f"no_grad peak {inference.peak_live_bytes} is not below the "
            f"training step's live-tensor watermark {train.peak_live_bytes}"
        )


def test_parallel_branches_share_one_buffer():
    """Disjoint liveness means real reuse: three parallel ``x + y`` branches,
    each dead the moment its reduction consumes it, hold at most one
    intermediate at a time under ``no_grad`` — while the live tape keeps
    all three for backward — and both forwards agree bitwise."""
    rng = np.random.default_rng(17)
    leaves = [Tensor(rng.uniform(-1, 1, size=(6, 5)), requires_grad=True)
              for _ in range(6)]
    matrix_bytes = leaves[0].data.nbytes

    def fn():
        s1 = (leaves[0] + leaves[1]).sum()
        s2 = (leaves[2] + leaves[3]).sum()
        s3 = (leaves[4] + leaves[5]).sum()
        return s1 + s2 + s3

    with OpProfiler() as taped:
        loss = fn()
    with OpProfiler() as quiet, no_grad():
        quiet_loss = fn()
    assert taped.peak_live_bytes >= 3 * matrix_bytes
    assert quiet.peak_live_bytes < 2 * matrix_bytes, quiet.peak_live_bytes
    assert loss.data.tobytes() == quiet_loss.data.tobytes()


# --------------------------------------------------------------------------- #
# Ownership: the in-place fused kernels
# --------------------------------------------------------------------------- #


class TestOwnsBuffers:
    def test_fused_trace_pins_inplace_kernels(self):
        """Kernels that compute in place (linear_act's silu, the norms) must
        own their output: no other node, parameter or batch array may share
        its memory."""
        task = _make_task()
        batch = _make_batch()
        profiler = _observed_step(task, batch, fused=True)
        owned = [node for node, _, kernel in profiler.created if kernel in _INPLACE_FUSED]
        assert owned, "expected in-place fused kernels on the fused-mode tape"
        others = [node.data for node, _, _ in profiler.created]
        others += [p.data for p in task.parameters()]
        others += [batch.positions]
        for node in owned:
            for data in others:
                if data is not node.data:
                    assert not np.shares_memory(node.data, data), (
                        f"in-place fused output {node.data.shape} aliases "
                        f"another array {data.shape}"
                    )

    def test_rewritten_trace_pins_synthetic_fused_nodes(self):
        """The reference tape builds no fused-kernel node at all, and its
        values are just as immutable."""
        profiler = _observed_step(_make_task(), _make_batch(), fused=False)
        kernels = {kernel for _, _, kernel in profiler.created if kernel is not None}
        assert not kernels, kernels
        _assert_immutable(profiler)


# --------------------------------------------------------------------------- #
# Tape-signature stability across processes
# --------------------------------------------------------------------------- #


def _tape_signature(task, batch) -> str:
    """Digest of what one training step puts on the tape: per op and phase,
    the call count, node count and bytes allocated (never timings)."""
    with use_fused(True), OpProfiler() as profiler:
        loss, _ = task.training_step(batch)
        loss.backward()
    task.zero_grad()
    rows = sorted(
        (s.name, s.phase, s.calls, s.allocs, s.alloc_bytes) for s in profiler.summary()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


_SIGNATURE_SCRIPT = """
from tests.test_compiler_planner import _make_batch, _make_task, _tape_signature

print(_tape_signature(_make_task(), _make_batch()))
"""


def _subprocess_signature() -> str:
    env = dict(os.environ)
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    proc = subprocess.run(
        [sys.executable, "-c", _SIGNATURE_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        check=True,
    )
    return proc.stdout.strip()


class TestPlanKeyStability:
    """The tape a step builds is a function of shapes, never of process
    state: no ``id()``, hash-seed or enumeration-order dependence."""

    def test_identical_across_processes(self):
        first = _subprocess_signature()
        second = _subprocess_signature()
        assert first and first == second

    def test_matches_in_process_key(self):
        assert _tape_signature(_make_task(), _make_batch()) == _subprocess_signature()

    def test_key_tracks_batch_content(self):
        task = _make_task()
        assert _tape_signature(task, _make_batch(seed=5)) != _tape_signature(
            task, _make_batch(seed=6)
        )

    def test_key_tracks_param_shapes_not_values(self):
        batch = _make_batch()
        # Different init values, same architecture: the same tape.
        assert _tape_signature(_make_task(seed=5), batch) == _tape_signature(
            _make_task(seed=9), batch
        )
        # A wider encoder allocates differently.
        assert _tape_signature(_make_task(seed=5), batch) != _tape_signature(
            _make_task(seed=5, hidden_dim=12), batch
        )


# --------------------------------------------------------------------------- #
# Repeatability through the observed path
# --------------------------------------------------------------------------- #


class TestCompiledStepCache:
    def test_replay_hits_match_eager_twin_stepwise(self):
        """Same batch repeated three times, once observed and once plain.

        Dropout draws from the module's live rng stream each step, so the
        reference is an identically seeded plain twin advancing the same
        stream — every step must agree bitwise on loss, metrics, and every
        parameter gradient.
        """
        observed, plain = _make_task(), _make_task()
        batch = _make_batch()
        with use_fused(True):
            for step in range(3):
                observed.zero_grad()
                plain.zero_grad()
                with OpProfiler(), detect_anomaly():
                    loss_o, metrics_o = observed.training_step(batch)
                    loss_o.backward()
                loss_p, metrics_p = plain.training_step(batch)
                loss_p.backward()
                assert loss_o.data.tobytes() == loss_p.data.tobytes(), step
                assert metrics_o == metrics_p, step
                for (name, po), (_, pp) in zip(
                    observed.named_parameters(), plain.named_parameters()
                ):
                    if pp.grad is None:
                        assert po.grad is None, (step, name)
                    else:
                        assert po.grad.tobytes() == pp.grad.tobytes(), (step, name)
