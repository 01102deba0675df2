"""Serving benchmark: micro-batching vs one-at-a-time under open-loop load.

The experiment the serving layer exists for: a trained demo servable
(full train -> checkpoint -> registry path) answers seeded-Poisson
traffic twice on the simulated clock — once serving requests one at a
time (``max_batch_size=1``), once micro-batched — under the same
admission policy and the same p99 SLO as the per-request deadline.  Both
arms run saturated (arrival rate above the batched arm's capacity), so
each arm's goodput converges to its capacity and the gated ratio

    serve.goodput.gain = goodput(batched) / goodput(single)

measures what batching buys at a fixed SLO: roughly
``B * s(1) / s(B)`` for affine service time ``s(n) = a + b n``, i.e. how
often the per-dispatch overhead ``a`` is amortized.

The gated arms use a *fixed reference* service model (the paper-cluster
shape: 1 ms dispatch overhead + 0.25 ms/sample), which makes the whole
simulation — and therefore the gated ratio and latency entries —
bit-reproducible on any machine; a drift means the queueing logic
changed, not the host.  The affine model is *also* calibrated from real
timed forwards on this machine and reported alongside: its base/slope
land as ``time`` entries (same-machine gating via ``--absolute``) and its
implied capacity gain as an ungated ``metric``, anchoring the reference
shape to measured compute.  The baseline lives in
``benchmarks/BENCH_serving.json``, gated by
``scripts/bench_gate.py --suite serving``.
"""

from __future__ import annotations

import atexit
import functools
import shutil
import tempfile
import warnings
from typing import Dict, List

from benchmarks.common import bench_result, print_header
from repro.distributed.events import SimClock
from repro.observability import Observer
from repro.serving import (
    AdmissionPolicy,
    AffineServiceModel,
    BatchPolicy,
    DegenerateFitWarning,
    InferenceServer,
    calibrate_service_model,
    make_requests,
    poisson_arrivals,
)
from repro.serving.demo import demo_request_samples, ensure_demo_servable

TRAFFIC_SEED = 17
QUEUE_DEPTH = 16
BATCHED_SIZE = 8

#: Fixed reference service model for the gated arms (1 ms dispatch
#: overhead + 0.25 ms/sample).  Keeping this constant makes the gated
#: entries bit-reproducible across machines: a regression can only come
#: from a change in the batching/admission logic itself.
REFERENCE_SERVICE = AffineServiceModel(base=1.0e-3, per_sample=0.25e-3)


@functools.lru_cache(maxsize=1)
def _demo() -> tuple:
    """Train (or reuse) the demo servable in a bench-lifetime registry."""
    root = tempfile.mkdtemp(prefix="repro-bench-serving-")
    atexit.register(shutil.rmtree, root, ignore_errors=True)
    servable = ensure_demo_servable(root)
    samples = demo_request_samples(8)
    return servable, samples


def _run_arm(
    servable, samples, max_batch: int, max_wait: float, service_model, rate: float,
    count: int, slo: float,
):
    clock = SimClock()
    observer = Observer(clock=clock)
    server = InferenceServer(
        servable,
        batch=BatchPolicy(max_batch_size=max_batch, max_wait=max_wait),
        admission=AdmissionPolicy(max_queue_depth=QUEUE_DEPTH, deadline=slo),
        service_model=service_model,
        observer=observer,
        clock=clock,
    )
    requests = make_requests(
        samples, poisson_arrivals(rate, count, seed=TRAFFIC_SEED)
    )
    return server.serve(requests)


def collect_results(rounds: int = 5, warmup: int = 1, tiny: bool = False) -> List[Dict]:
    servable, samples = _demo()
    # A tie between batch 1 and batch 8 (a noisy host, or the tiny shape)
    # takes the calibration's flat-cost fallback.  The measured entries are
    # informational, so the fallback is recorded as one of them
    # (``serve.measured.degenerate_fit``) instead of escaping as a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateFitWarning)
        measured = calibrate_service_model(
            servable, samples, max_batch_size=BATCHED_SIZE, rounds=max(rounds, 2)
        )
    count = 80 if tiny else 400
    # Saturate both arms: arrivals beyond even the batched capacity, so each
    # arm's goodput converges to its capacity and the ratio measures the
    # amortization of the per-dispatch overhead.  The reference model keeps
    # the simulation bit-reproducible across machines.
    service_model = REFERENCE_SERVICE
    rate = 1.3 * service_model.capacity(BATCHED_SIZE)
    slo = 3.0 * service_model(BATCHED_SIZE)

    batched = _run_arm(
        servable, samples, BATCHED_SIZE, service_model(1), service_model,
        rate, count, slo,
    )
    single = _run_arm(
        servable, samples, 1, 0.0, service_model, rate, count, slo,
    )

    goodput_b = batched.goodput(slo)
    goodput_s = single.goodput(slo)
    gain = goodput_b / goodput_s if goodput_s > 0 else float("inf")
    # Measured capacity gain B*s(1)/s(B) for the calibrated model:
    # informational (two-point fits are noise-sensitive), not gated.
    measured_gain = (
        BATCHED_SIZE * measured(1) / measured(BATCHED_SIZE)
        if measured(BATCHED_SIZE) > 0
        else float("inf")
    )
    return [
        bench_result(
            "serve.goodput.gain", "speedup", gain, "x",
            detail=f"goodput at p99 SLO {slo * 1e3:.2f} ms, batch {BATCHED_SIZE} vs 1",
        ),
        bench_result("serve.latency.p99.batched", "time", batched.p99_latency, "s"),
        bench_result("serve.latency.p99.single", "time", single.p99_latency, "s"),
        bench_result("serve.measured.base", "time", measured.base, "s"),
        bench_result("serve.measured.per_sample", "time", measured.per_sample, "s"),
        bench_result("serve.measured.gain", "metric", measured_gain, "x"),
        bench_result(
            "serve.measured.degenerate_fit", "metric", float(measured.degenerate_fit), "flag"
        ),
        bench_result("serve.goodput.batched", "metric", goodput_b, "req/s"),
        bench_result("serve.goodput.single", "metric", goodput_s, "req/s"),
        bench_result("serve.batch.mean_size", "metric", batched.mean_batch_size, "req"),
        bench_result(
            "serve.rejected.single", "metric",
            (single.shed + single.timeout) / single.total, "fraction",
        ),
        bench_result(
            "serve.rejected.batched", "metric",
            (batched.shed + batched.timeout) / batched.total, "fraction",
        ),
    ]


def print_results(results: List[Dict]) -> None:
    print_header("Serving: micro-batched vs single-request goodput at fixed SLO")
    by_name = {r["name"]: r for r in results}
    print(
        f"reference service model: {REFERENCE_SERVICE.base * 1e3:.3f} ms + "
        f"{REFERENCE_SERVICE.per_sample * 1e3:.3f} ms/sample"
    )
    base = by_name["serve.measured.base"]["value"] * 1e3
    per = by_name["serve.measured.per_sample"]["value"] * 1e3
    degenerate = by_name["serve.measured.degenerate_fit"]["value"]
    print(
        f"measured service model: {base:.3f} ms + {per:.3f} ms/sample "
        f"(implied gain {by_name['serve.measured.gain']['value']:.2f}x, not gated"
        f"{'; degenerate fit: flat per-sample cost' if degenerate else ''})"
    )
    print(
        f"goodput: batched {by_name['serve.goodput.batched']['value']:.1f} req/s "
        f"vs single {by_name['serve.goodput.single']['value']:.1f} req/s "
        f"-> gain {by_name['serve.goodput.gain']['value']:.2f}x"
    )
    print(
        f"p99 latency: batched {by_name['serve.latency.p99.batched']['value'] * 1e3:.2f} ms, "
        f"single {by_name['serve.latency.p99.single']['value'] * 1e3:.2f} ms"
    )
    print(
        f"mean dispatch size {by_name['serve.batch.mean_size']['value']:.2f}; "
        f"rejected fraction batched "
        f"{by_name['serve.rejected.batched']['value']:.2f} vs single "
        f"{by_name['serve.rejected.single']['value']:.2f}"
    )
