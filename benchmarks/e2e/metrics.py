"""Metric definitions: the names are final, later PRs are judged by them.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds in the driver's format (``test_bench_e2e.py`` checks
the two agree); this module adds what that format has no room for — the
``measured``/``modeled`` tag, which counts are exact, and where each
per-layer number comes from — and reduces raw child output to values.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

MEASURED = "measured"
MODELED = "modeled"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the baseline by which the metric may worsen (end-to-end only).
    bound: Optional[float] = None
    tag: str = MEASURED
    #: Deterministic given the seed: two runs must agree exactly.
    exact: bool = False
    #: Where a per-layer value comes from: ("span", span name, field),
    #: ("sum" | "mean", unit counter key), ("traffic", field), ("micro",),
    #: or ("special",) for the few computed by hand in ``per_layer``.
    source: Tuple[str, ...] = ("special",)


# --------------------------------------------------------------------------- #
# End to end — what a trainer, a server operator or a screener sees
# --------------------------------------------------------------------------- #
#: Bounds are the driver's maximum for every time: on the sizing host ten
#: runs of one commit spread 10-12% even on the best-unit estimator, and a
#: bound has to stay clear of that (README, "Steadiness").
END_TO_END = [
    Metric("items_per_s", "1/s", "higher", 0.25),
    Metric("cpu_ms_per_item", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.20),
    Metric("request_ms_p50", "ms", "lower", 0.25),
    Metric("request_ms_p90", "ms", "lower", 0.25),
]
#: The seventh end-to-end number.  It is 0 on three workloads by design, and
#: the driver's format has no place for a metric that can be 0 (it carries
#: ``attempted``/``failed`` instead), so BENCHMARK.json lists it per layer;
#: the report prints it with the end-to-end block and --compare wants it equal.
FAILED_SHARE = Metric("failed_share", "share", "lower", 0.0, exact=True)


def _span(name: str, span: str, field: str = "self_s", **kw) -> Metric:
    unit = "s" if field == "self_s" else "count"
    return Metric(name, unit, "lower", exact=(field == "calls"), source=("span", span, field), **kw)


def _pair(span: str) -> List[Metric]:
    return [_span(f"{span}.self_s", span), _span(f"{span}.calls", span, "calls")]


ENCODERS = ("egnn", "schnet", "gaanet", "megnet")
KERNELS = ("linear_act", "mul_segment_sum", "segment_softmax", "lstm_cell", "softmax_cross_entropy")

PER_LAYER: List[Metric] = [
    *_pair("datasets.materialize"),
    _span("data.loader.self_s", "data.loader"),
    *_pair("data.transform"),
    *_pair("data.collate"),
    *_pair("models.forward_train"),
    *_pair("models.forward_eval"),
    *_pair("autograd.backward"),
    *[
        Metric(f"models.{enc}.{mode}", "ms", "lower", source=("micro",))
        for enc in ENCODERS
        for mode in ("train_step_ms", "infer_ms")
    ],
    *[
        Metric(f"kernels.{op}.{arm}", "ms", "lower", source=("micro",))
        for op in KERNELS
        for arm in ("fused_ms", "reference_ms")
    ],
    *_pair("optim.step"),
    _span("distributed.execute.self_s", "distributed.execute"),
    Metric("distributed.comm.allreduce_calls", "count", "lower", exact=True, source=("traffic", "allreduce_calls")),
    Metric("distributed.comm.allreduce_bytes", "B", "lower", exact=True, source=("traffic", "allreduce_bytes")),
    _span("training.fit.self_s", "training.fit"),
    _span("training.validate.self_s", "training.validate"),
    _span("core.workflow.self_s", "core.workflow"),
    _span("serving.load.self_s", "serving.load"),
    *_pair("serving.prepare"),
    *_pair("serving.predict"),
    _span("serving.server.loop_self_s", "serving.server.loop"),
    _span("serving.pool.loop_self_s", "serving.pool.loop"),
    Metric("serving.batch.mean_size", "count", "higher", exact=True, source=("mean", "serving.batch.mean_size")),
    Metric("serving.request_ms_p99", "ms", "lower"),
    Metric("serving.ok", "count", "higher", exact=True, source=("sum", "serving.ok")),
    Metric("serving.shed", "count", "lower", exact=True, source=("sum", "serving.shed")),
    Metric("serving.timeout", "count", "lower", exact=True, source=("sum", "serving.timeout")),
    Metric("serving.failed", "count", "lower", exact=True, source=("sum", "serving.failed")),
    Metric("serving.pool.hedges", "count", "lower", exact=True, source=("sum", "serving.pool.hedges")),
    Metric("serving.pool.failovers", "count", "lower", exact=True, source=("sum", "serving.pool.failovers")),
    Metric("serving.modeled.latency_p99_ms", "ms", "lower", tag=MODELED, exact=True,
           source=("mean", "serving.modeled.latency_p99_ms")),
    Metric("serving.modeled.goodput_rps", "1/s", "higher", tag=MODELED, exact=True,
           source=("mean", "serving.modeled.goodput_rps")),
    *_pair("screening.generate"),
    _span("screening.relax.self_s", "screening.relax"),
    _span("screening.score.self_s", "screening.score"),
    _span("screening.rank.self_s", "screening.rank"),
    Metric("screening.rank.admit_ratio", "share", "lower", exact=True),
    Metric("trace.coverage", "share", "higher"),
    Metric("trace.overhead_share", "share", "lower"),
    Metric("bench.unit_s_iqr_rel", "share", "lower"),
    FAILED_SHARE,
]


# --------------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def iqr_rel(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _good(units: Sequence[dict]) -> List[dict]:
    return [u for u in units if u["error"] is None]


def operations(units: Sequence[dict]) -> Tuple[int, int, int]:
    """(attempted, answered, broken): a unit that raised or failed a check
    answered none of the operations it attempted; ``broken`` counts those
    operations alone, ``attempted - answered`` also the requests the
    simulated clock shed, timed out or failed."""
    attempted = sum(u["attempted"] for u in units)
    answered = sum(u["items"] for u in _good(units))
    broken = sum(u["attempted"] for u in units if u["error"] is not None)
    return attempted, answered, broken


def failed_share(units: Sequence[dict], first: int) -> float:
    """1 - answered / attempted over the first ``first`` units — the ones
    every run has, however many its time box holds, so the share is exact —
    and over any unit that raised or failed a check."""
    counted = [u for u in units if u["unit"] < first or u["error"] is not None]
    attempted, answered, _ = operations(counted)
    return 1.0 - answered / attempted


def end_to_end(main: dict, setup_samples: Sequence[float]) -> Dict[str, float]:
    """The end-to-end values of one untraced pass (``main`` = child output)."""
    units = _good(main["units"])
    if not units:
        return {}
    walls = [u["wall_s"] for u in units]
    requests_ms = [[s * 1e3 for s in u["request_s"]] for u in units]
    # Best unit of the run, not the median unit.  Interference from other
    # tenants of the host only ever adds time, in bursts that outlast a
    # unit; on the sizing host one unit repeated in one process spread
    # 1.10-2.01 s, and over ten seeds the best unit moved half as much as
    # the median unit (README, "Steadiness").  Percentiles are taken per
    # unit first, so a burst that swallows one closed-loop phase moves one
    # sample and not the pooled tail.
    return {
        "items_per_s": max(u["items"] / u["wall_s"] for u in units),
        "cpu_ms_per_item": min(u["cpu_s"] * 1e3 / u["items"] for u in units),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": main["peak_rss_mib"],
        "request_ms_p50": min(percentile(r, 50) for r in requests_ms),
        "request_ms_p90": min(percentile(r, 90) for r in requests_ms),
        # Context for the report, not metrics of their own.
        "_units": len(walls),
        "_unit_s_min": min(walls),
        "_unit_s_max": max(walls),
        "_unit_s_iqr_rel": iqr_rel(walls),
        "_request_samples": sum(len(r) for r in requests_ms),
    }


def per_layer(traced: dict, untraced_units: Sequence[dict]) -> Dict[str, float]:
    """Every PER_LAYER value from one traced child and an untraced pass of
    the same seed; tracing overhead compares units with the same ids (the
    same seeds, so the same inputs)."""
    spans = traced["spans"]
    units = traced["units"]
    good = _good(units)
    out: Dict[str, float] = {}
    for metric in PER_LAYER:
        kind = metric.source[0]
        if kind == "span":
            _, span, field = metric.source
            out[metric.name] = sum(spans[part].get(span, {}).get(field, 0) for part in ("units", "setup"))
        elif kind == "traffic":
            out[metric.name] = spans["traffic"][metric.source[1]]
        elif kind == "micro":
            out[metric.name] = traced["micro"][metric.name]
        elif kind in ("sum", "mean"):
            values = [u["counters"].get(metric.source[1], 0.0) for u in good]
            total = sum(values)
            out[metric.name] = total / len(values) if kind == "mean" and values else total
    offered = sum(u["counters"].get("screening.offered", 0) for u in good)
    admitted = sum(u["counters"].get("screening.admitted", 0) for u in good)
    out["screening.rank.admit_ratio"] = admitted / offered if offered else 0.0

    out["failed_share"] = failed_share(units, len(units))

    untraced = _good(untraced_units)
    requests_ms = [s * 1e3 for u in untraced for s in u["request_s"]]
    out["serving.request_ms_p99"] = percentile(requests_ms, 99) if requests_ms else 0.0
    traced_wall = sum(u["outer_s"] for u in units)
    out["trace.coverage"] = sum(row["self_s"] for row in spans["units"].values()) / traced_wall
    ids = {u["unit"] for u in good}
    twins = [u["wall_s"] for u in untraced if u["unit"] in ids]
    if twins:
        out["trace.overhead_share"] = min(u["wall_s"] for u in good) / min(twins) - 1.0
    else:
        out["trace.overhead_share"] = 0.0
    out["bench.unit_s_iqr_rel"] = iqr_rel([u["wall_s"] for u in untraced])
    return out
