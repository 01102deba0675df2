"""Per-op autograd profiling (the ``torch.autograd.profiler`` analogue).

``OpProfiler`` is a context manager that, while active:

* wraps every public primitive in :mod:`repro.autograd.functional` and
  every differentiable operator method on :class:`~repro.autograd.Tensor`
  to time **forward** execution, attributing *total* and *self* time (self
  excludes time spent in nested primitives, e.g. ``cross_entropy`` ->
  ``log_softmax`` -> ``exp``);
* hooks the tape via ``repro.autograd.tensor._PROFILER`` so every tensor
  created by an op records its **allocation bytes** (and live-tensor
  bytes, tracked to a high-water mark through weak references) and is
  tagged with the op that created it;
* times every **backward hop** in ``Tensor.backward`` and attributes it
  to the creating op, which is what makes "backward is dominated by
  ``matmul``" a measurable statement.

The clock is injectable (any zero-arg callable or ``now()``-bearing
object), so op-stat accumulation is testable deterministically.  Only one
profiler may be active per process at a time; activation is reversible
and leaves the autograd modules byte-identical on exit.
"""

from __future__ import annotations

import importlib
import threading
import weakref
from functools import wraps
from typing import Dict, List, Optional, Tuple

from repro.observability.tracer import normalize_clock

#: Tensor operator methods that open forward ops (name -> recorded op name).
_TENSOR_OPS = (
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "__matmul__",
    "__getitem__",
    "reshape",
    "transpose",
    "squeeze",
    "unsqueeze",
    "sum",
    "mean",
    "max",
    "min",
)


def _tensor_module():
    """``repro.autograd.tensor`` (shadowed on the package by the factory fn)."""
    return importlib.import_module("repro.autograd.tensor")


def _functional_module():
    return importlib.import_module("repro.autograd.functional")


class OpStat:
    """Accumulated statistics for one (op, phase) pair."""

    __slots__ = ("name", "phase", "calls", "total", "self_time", "alloc_bytes", "allocs")

    def __init__(self, name: str, phase: str):
        self.name = name
        self.phase = phase
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.alloc_bytes = 0
        self.allocs = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpStat({self.name}/{self.phase}: calls={self.calls} "
            f"total={self.total:.6f} self={self.self_time:.6f} "
            f"alloc={self.alloc_bytes})"
        )


class _OpFrame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class OpProfiler:
    """Times each forward op and backward hop; accumulates op-level stats.

    Use as a context manager::

        with OpProfiler() as prof:
            loss = task.training_step(batch)[0]
            loss.backward()
        print(prof.format_table())
    """

    _active_lock = threading.Lock()
    _active: Optional["OpProfiler"] = None

    def __init__(self, clock=None, profile_memory: bool = True):
        self._now = normalize_clock(clock)
        self.profile_memory = profile_memory
        self.stats: Dict[Tuple[str, str], OpStat] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved_functional: Dict[str, object] = {}
        self._saved_tensor: Dict[str, object] = {}
        self.live_bytes = 0
        self.peak_live_bytes = 0
        self.enabled = False

    # ------------------------------------------------------------------ #
    # Stat plumbing
    # ------------------------------------------------------------------ #
    def _stat(self, name: str, phase: str) -> OpStat:
        key = (name, phase)
        stat = self.stats.get(key)
        if stat is None:
            with self._lock:
                stat = self.stats.setdefault(key, OpStat(name, phase))
        return stat

    def _stack(self) -> List[_OpFrame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_op(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1].name if stack else None

    # ------------------------------------------------------------------ #
    # Forward instrumentation (entry-point wrappers)
    # ------------------------------------------------------------------ #
    def _enter_op(self, name: str) -> _OpFrame:
        frame = _OpFrame(name, self._now())
        self._stack().append(frame)
        return frame

    def _exit_op(self, frame: _OpFrame) -> None:
        elapsed = self._now() - frame.start
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        if stack:
            stack[-1].child += elapsed
        stat = self._stat(frame.name, "forward")
        with self._lock:
            stat.calls += 1
            stat.total += elapsed
            stat.self_time += elapsed - frame.child

    def _wrap(self, op_name: str, fn):
        profiler = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = profiler._enter_op(op_name)
            try:
                return fn(*args, **kwargs)
            finally:
                profiler._exit_op(frame)

        wrapper.__repro_profiled__ = True
        return wrapper

    # ------------------------------------------------------------------ #
    # Tape hooks (called from repro.autograd.tensor)
    # ------------------------------------------------------------------ #
    def on_tensor_created(self, out, backward) -> None:
        """Record allocation for a freshly created op result and tag it."""
        name = self.current_op()
        if name is None:
            from repro.autograd.anomaly import op_name_of

            name = op_name_of(backward)
        out._op = name
        nbytes = int(out.data.nbytes)
        stat = self._stat(name, "forward")
        with self._lock:
            stat.alloc_bytes += nbytes
            stat.allocs += 1
            if self.profile_memory:
                self.live_bytes += nbytes
                if self.live_bytes > self.peak_live_bytes:
                    self.peak_live_bytes = self.live_bytes
        if self.profile_memory:
            weakref.finalize(out, self._on_tensor_freed, nbytes)

    def _on_tensor_freed(self, nbytes: int) -> None:
        with self._lock:
            self.live_bytes -= nbytes

    def record_backward(self, name: str, elapsed: float) -> None:
        """Attribute one backward hop's time to its creating op."""
        stat = self._stat(name or "unknown", "backward")
        with self._lock:
            stat.calls += 1
            stat.total += elapsed
            stat.self_time += elapsed

    # ------------------------------------------------------------------ #
    # Activation
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "OpProfiler":
        with OpProfiler._active_lock:
            if OpProfiler._active is not None:
                raise RuntimeError("another OpProfiler is already active")
            OpProfiler._active = self
        functional = _functional_module()
        for name in functional.__all__:
            fn = getattr(functional, name)
            self._saved_functional[name] = fn
            setattr(functional, name, self._wrap(name, fn))
        tensor_mod = _tensor_module()
        Tensor = tensor_mod.Tensor
        for method in _TENSOR_OPS:
            fn = Tensor.__dict__.get(method)
            if fn is None:
                continue
            self._saved_tensor[method] = fn
            setattr(Tensor, method, self._wrap(method.strip("_"), fn))
        tensor_mod._PROFILER = self
        self.enabled = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tensor_mod = _tensor_module()
        tensor_mod._PROFILER = None
        functional = _functional_module()
        for name, fn in self._saved_functional.items():
            setattr(functional, name, fn)
        self._saved_functional.clear()
        Tensor = tensor_mod.Tensor
        for method, fn in self._saved_tensor.items():
            setattr(Tensor, method, fn)
        self._saved_tensor.clear()
        self.enabled = False
        with OpProfiler._active_lock:
            OpProfiler._active = None

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def summary(self, phase: Optional[str] = None) -> List[OpStat]:
        """Stats sorted by total time (descending), optionally one phase."""
        with self._lock:
            rows = [
                s
                for s in self.stats.values()
                if phase is None or s.phase == phase
            ]
        return sorted(rows, key=lambda s: -s.total)

    def backward_by_op(self) -> Dict[str, float]:
        """Backward time per creating op — the Fig. 3 attribution view."""
        return {s.name: s.total for s in self.summary("backward")}

    def format_table(self, top: Optional[int] = None) -> str:
        rows = self.summary()
        if top is not None:
            rows = rows[:top]
        lines = [
            f"{'op':<22} {'phase':<9} {'calls':>8} {'total (s)':>11} "
            f"{'self (s)':>11} {'alloc (MB)':>11}"
        ]
        for s in rows:
            lines.append(
                f"{s.name:<22} {s.phase:<9} {s.calls:>8d} {s.total:>11.4f} "
                f"{s.self_time:>11.4f} {s.alloc_bytes / 1e6:>11.3f}"
            )
        lines.append(
            f"peak live tensor bytes: {self.peak_live_bytes / 1e6:.3f} MB"
        )
        return "\n".join(lines)
