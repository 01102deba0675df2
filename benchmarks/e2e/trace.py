"""Span tracing installed from outside the program.

The traced pass of the benchmark wraps the public callables at each layer
boundary — class attributes and module functions — with a span recorder,
without editing a line under ``src/``.  A span is ``(name, start, end,
parent, unit)``; spans stay in memory until the child process ends.  One
thread, one stack: children of a span never overlap, so a span's *self
time* is its duration minus the summed durations of its direct children.

Only the traced child imports this module; the untraced pass never does.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``Tracer.unit`` values for spans recorded outside the timed units.
SETUP = -1
WARMUP = -2


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "unit", "child_s")

    def __init__(self, sid: int, name: str, start: float, parent: Optional[int], unit: int):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder with an injectable clock (tests fake it)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.unit = SETUP
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: id(strategy) -> (unit it was first used in, strategy); the
        #: workflows keep their strategy to themselves, so its traffic log
        #: is only reachable by remembering the object here.
        self.strategies: Dict[int, Tuple[int, object]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent, self.unit)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span stack corrupted: closing {span.name}, top is {popped.name}")
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def _reentered(self, name: str) -> bool:
        # An override calling its parent's wrapped method (AdamW.step ->
        # Adam.step) is one call of the layer, not two; nor is a span
        # opened directly under a span that ABSORBS it.
        if not self._stack:
            return False
        top = self._stack[-1].name
        return top == name or top in ABSORBS.get(name, ())

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._reentered(name):
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Generator function ``fn`` with every ``next`` recorded as a span.

        The time between two ``next`` calls belongs to the consumer, so it
        is not in any span of this name (the final ``next`` that raises
        ``StopIteration`` is recorded too: it is time spent in the layer).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                span = tracer.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                yield item

        return wrapper

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: object, attr: str, name: str, generator: bool = False) -> None:
        """Replace ``owner.attr`` (class attribute or module function)."""
        original = vars(owner)[attr]
        wrap = self.wrap_generator if generator else self.wrap
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(name, original))

    def restore(self) -> None:
        """Put every patched attribute back (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Reduction
    # ------------------------------------------------------------------ #
    def totals(self, units: Optional[Iterable[int]] = None) -> Dict[str, Dict[str, float]]:
        """``{name: {"self_s", "total_s", "calls"}}`` over the given unit ids
        (all recorded spans when ``units`` is None)."""
        keep = None if units is None else set(units)
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            if keep is not None and span.unit not in keep:
                continue
            row = out.setdefault(span.name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += span.self_s
            row["total_s"] += span.duration
            row["calls"] += 1
        return out

    def traffic(self, units: Iterable[int]) -> Dict[str, int]:
        """Exact allreduce counts of the DDP strategies used in ``units``."""
        keep = set(units)
        logs = [s.comm.traffic for unit, s in self.strategies.values() if unit in keep]
        return {
            "allreduce_calls": sum(log.allreduce_calls for log in logs),
            "allreduce_bytes": sum(log.allreduce_bytes for log in logs),
        }

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome-trace (``chrome://tracing`` / Perfetto) JSON object."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"id": s.sid, "parent": s.parent, "unit": s.unit},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------------- #
# The layer boundaries of this repository
# --------------------------------------------------------------------------- #
#: (module, class or None for a module function, attribute, span name).
#: A class entry patches the class and every subclass that defines the
#: attribute itself, so overrides are spans too.
BOUNDARIES = [
    ("repro.data.dataset", "Dataset", "materialize", "datasets.materialize"),
    ("repro.data.transforms.graph", "StructureToGraph", "__call__", "data.transform"),
    # collate_graphs is reachable by name only where a module looks it up
    # in its globals at call time; the trainer and the strategies bind it
    # as a default argument, so there it stays in the caller's self time.
    ("repro.serving.servable", None, "collate_graphs", "data.collate"),
    ("repro.screening.relax", None, "collate_graphs", "data.collate"),
    ("repro.tasks.base", "Task", "training_step", "models.forward_train"),
    ("repro.tasks.base", "Task", "validation_step", "models.forward_eval"),
    ("repro.tasks.base", "Task", "predict", "models.forward_eval"),
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward"),
    ("repro.optim.optimizer", "Optimizer", "step", "optim.step"),
    ("repro.distributed.ddp", "Strategy", "execute", "distributed.execute"),
    ("repro.training.trainer", "Trainer", "fit", "training.fit"),
    ("repro.training.trainer", "Trainer", "validate", "training.validate"),
    ("repro.core.workflows", None, "pretrain_symmetry", "core.workflow"),
    ("repro.core.workflows", None, "train_property", "core.workflow"),
    ("repro.screening.pipeline", None, "run_screening", "core.workflow"),
    ("repro.serving.servable", "ModelRegistry", "load", "serving.load"),
    ("repro.serving.servable", "Servable", "prepare", "serving.prepare"),
    ("repro.serving.servable", "Servable", "predict", "serving.predict"),
    ("repro.serving.server", "InferenceServer", "serve", "serving.server.loop"),
    ("repro.serving.resilience.pool", "ReplicaPool", "serve", "serving.pool.loop"),
    ("repro.screening.generator", "CandidateGenerator", "__init__", "screening.generate"),
    ("repro.screening.generator", "CandidateGenerator", "candidate", "screening.generate"),
    ("repro.screening.relax", "ForceFieldRelaxer", "relax", "screening.relax"),
    ("repro.screening.pipeline", None, "score_candidates", "screening.score"),
    ("repro.screening.ranker", "TopK", "offer", "screening.rank"),
]

#: ``training_step`` computes its forward through the task's own ``predict``:
#: that call is part of the training forward, not an inference.
ABSORBS = {"models.forward_eval": ("models.forward_train",)}

#: Packages whose import defines the subclasses BOUNDARIES must reach.
_SUBCLASS_PACKAGES = ("repro.datasets", "repro.tasks", "repro.optim", "repro.distributed")


def _defining_classes(base: type, attr: str) -> List[type]:
    found, seen, todo = [], set(), [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Patch every boundary in BOUNDARIES; ``tracer.restore()`` undoes it."""
    for package in _SUBCLASS_PACKAGES:
        importlib.import_module(package)
    for module_name, class_name, attr, span_name in BOUNDARIES:
        module = importlib.import_module(module_name)
        if class_name is None:
            tracer.patch(module, attr, span_name)
            continue
        for cls in _defining_classes(getattr(module, class_name), attr):
            tracer.patch(cls, attr, span_name)
    # Each batch fetch is one span; time between fetches is the trainer's.
    loaders = importlib.import_module("repro.data.loaders")
    tracer.patch(loaders.DataLoader, "__iter__", "data.loader", generator=True)

    ddp = importlib.import_module("repro.distributed.ddp")
    traced_execute = vars(ddp.DDPStrategy)["execute"]

    @functools.wraps(traced_execute)
    def execute(self, task, samples):
        tracer.strategies.setdefault(id(self), (tracer.unit, self))
        return traced_execute(self, task, samples)

    tracer._patches.append((ddp.DDPStrategy, "execute", traced_execute))
    ddp.DDPStrategy.execute = execute
