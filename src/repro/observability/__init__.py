"""Observability: hierarchical trace spans, per-op autograd profiling, metrics.

The measurement counterpart to the incident event log: where that
records *what* happened, this layer records
*how long* and *how much* — per-phase step-time breakdown (data /
forward / backward / comm / optim), per-op forward/backward timing with
allocation accounting, and a counters/gauges/histograms registry with a
periodic reporter.  Exports both an aggregate table and Chrome-trace
JSON (``chrome://tracing`` / Perfetto).

Typical use::

    obs = Observer(profile_ops=True)
    trainer = Trainer(cfg, strategy=strategy, observer=obs,
                      callbacks=[obs.reporter(every_n_steps=25)])
    with obs.profile():
        trainer.fit(task, train_loader, val_loader, optimizer)
    obs.finalize(strategy=strategy)
    print(obs.report())
    obs.export_chrome_trace("trace.json")
"""

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.observer import MetricsReporter, Observer
from repro.observability.opprofile import OpProfiler, OpStat
from repro.observability.tracer import (
    NULL_SPAN,
    STEP_PHASES,
    Span,
    Tracer,
    maybe_span,
    normalize_clock,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsReporter",
    "Observer",
    "OpProfiler",
    "OpStat",
    "NULL_SPAN",
    "STEP_PHASES",
    "Span",
    "Tracer",
    "maybe_span",
    "normalize_clock",
]
