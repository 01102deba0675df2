"""``Observer``: one handle bundling tracer, op profiler, and metrics.

The trainer, strategies, and communicator are instrumented against this
object (duck-typed — they only call :meth:`span`), so a single
constructor argument turns a run from dark to fully observed:

* spans land in :attr:`tracer` (phase breakdown + Chrome trace),
* op-level timing in :attr:`op_profiler` (attached via ``profile()``),
* run counters in :attr:`metrics`, fed live by the
  :class:`MetricsReporter` callback and finalized from the communicator
  traffic log after training.

``MetricsReporter`` is a standard trainer callback: every step it updates
``train.samples`` / ``train.steps`` / the ``train.step_seconds``
histogram and mirrors communicator traffic into ``comm.*`` counters;
every ``every_n_steps`` it emits a one-line progress report (kept on
``.lines``; printed when a stream is given) with samples/sec and
allreduce volume — the periodic reporter the scale-out benches read
instead of guessing at throughput.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.observability.metrics import MetricsRegistry
from repro.observability.opprofile import OpProfiler
from repro.observability.tracer import NULL_SPAN, STEP_PHASES, Tracer
from repro.training.callbacks import Callback


#: ``comm.*`` counter -> the communicator ``TrafficLog`` field it mirrors.
_COMM_COUNTERS = (
    ("comm.allreduce.calls", "allreduce_calls"),
    ("comm.allreduce.bytes", "allreduce_bytes"),
)


class Observer:
    """Aggregates the three observability surfaces for one run."""

    def __init__(self, clock=None, profile_ops: bool = False):
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()
        self.op_profiler: Optional[OpProfiler] = (
            OpProfiler(clock=clock) if profile_ops else None
        )

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def span_at(self, name: str, start: float, end: float, **attrs):
        """Record a span stretched onto a known [start, end] interval.

        Discrete-event loops (the serving batcher, the replica pool) learn
        a span's endpoints after the fact, on simulated time; the tracer
        stamps spans from its own clock, so the span is opened/closed
        immediately and its endpoints rewritten (``Span.start``/``end``
        are plain attributes).  Returns the span.
        """
        with self.tracer.span(name, **attrs) as span:
            pass
        span.start = start
        span.end = end
        return span

    def profile(self):
        """Context manager activating the per-op profiler (no-op if absent)."""
        return self.op_profiler if self.op_profiler is not None else NULL_SPAN

    def reporter(self, every_n_steps: int = 25, stream=None) -> "MetricsReporter":
        return MetricsReporter(self, every_n_steps=every_n_steps, stream=stream)

    # ------------------------------------------------------------------ #
    def mirror_traffic(self, strategy) -> None:
        """Top the ``comm.*`` counters up to ``strategy.comm``'s traffic log.

        The one path from communicator traffic into the registry: the
        :class:`MetricsReporter` calls it every step and :meth:`finalize`
        once more, and a counter only ever rises to the log's value, so
        repeated calls never double-count.  A strategy without a
        communicator (single-process) is a no-op.
        """
        comm = getattr(strategy, "comm", None)
        if comm is None:
            return
        for key, attr in _COMM_COUNTERS:
            value = getattr(comm.traffic, attr)
            counter = self.metrics.counter(key)
            if value > counter.value:
                counter.inc(value - counter.value)

    def finalize(self, strategy=None) -> None:
        """Fold end-of-run state into the registry.

        Reads the communicator's traffic log (authoritative byte counts)
        and the op profiler's memory high-water mark.  Safe to call
        multiple times.
        """
        self.mirror_traffic(strategy)
        if self.op_profiler is not None:
            self.metrics.gauge("mem.peak_live_tensor_bytes").set(
                self.op_profiler.peak_live_bytes
            )

    # ------------------------------------------------------------------ #
    # Report rendering
    # ------------------------------------------------------------------ #
    def phase_table(self) -> str:
        return self.tracer.format_phase_table()

    def aggregate_table(self) -> str:
        return self.tracer.format_table()

    def op_table(self, top: Optional[int] = 12) -> str:
        if self.op_profiler is None:
            return "(op profiler not attached)"
        return self.op_profiler.format_table(top=top)

    def metrics_table(self) -> str:
        return self.metrics.format_table()

    def export_chrome_trace(self, path: str) -> str:
        return self.tracer.export_chrome_trace(path)

    def report(self, top_ops: int = 12) -> str:
        """The full post-run report the CLI prints under ``--profile``."""
        sections = [
            "== step-phase breakdown ==",
            self.phase_table(),
            "",
            "== span aggregate ==",
            self.aggregate_table(),
        ]
        if self.op_profiler is not None:
            sections += ["", "== per-op autograd profile ==", self.op_table(top_ops)]
        sections += ["", "== metrics ==", self.metrics_table()]
        return "\n".join(sections)


class MetricsReporter(Callback):
    """Trainer callback feeding the metrics registry and reporting periodically."""

    def __init__(self, observer: Observer, every_n_steps: int = 25, stream=None):
        self.observer = observer
        self.every = max(int(every_n_steps), 1)
        self.stream = stream
        self.lines: List[str] = []
        self._clock = observer.tracer._now
        self._start: Optional[float] = None
        self._last_report_t: Optional[float] = None
        self._last_report_samples = 0.0

    # ------------------------------------------------------------------ #
    def on_train_start(self, trainer, task) -> None:
        now = self._clock()
        self._start = now
        self._last_report_t = now

    def on_step_end(self, trainer, task, step: int, loss: float, metrics: Dict) -> None:
        registry = self.observer.metrics
        registry.counter("train.steps").inc()
        registry.counter("train.samples").inc(trainer.last_batch_size)
        last_step = self.observer.tracer.last("step")
        if last_step is not None:
            registry.histogram("train.step_seconds").observe(last_step.duration)
        self.observer.mirror_traffic(trainer.strategy)
        if step % self.every == 0:
            self._emit(trainer, step)

    def on_train_end(self, trainer, task) -> None:
        self.observer.mirror_traffic(trainer.strategy)
        registry = self.observer.metrics
        if self._start is not None:
            elapsed = max(self._clock() - self._start, 1e-9)
            registry.gauge("train.samples_per_sec").set(
                registry.value("train.samples") / elapsed
            )

    # ------------------------------------------------------------------ #
    def _emit(self, trainer, step: int) -> None:
        registry = self.observer.metrics
        now = self._clock()
        samples = registry.value("train.samples")
        window = max(now - (self._last_report_t if self._last_report_t else now), 1e-9)
        rate = (samples - self._last_report_samples) / window
        self._last_report_t = now
        self._last_report_samples = samples
        hist = registry.histogram("train.step_seconds")
        line = (
            f"[obs] step {step}: {rate:.1f} samples/s, "
            f"step p50 {hist.percentile(50) * 1e3:.1f} ms, "
            f"allreduce {registry.value('comm.allreduce.bytes') / 1e6:.2f} MB"
        )
        self.lines.append(line)
        if self.stream is not None:
            print(line, file=self.stream)


__all__ = ["Observer", "MetricsReporter", "STEP_PHASES"]
