"""Serving layer: micro-batching queueing properties + registry round trips.

The micro-batching tests treat the one serving event loop (behind
:class:`InferenceServer`) as a black box under seeded random
arrival sequences and assert the serving contract directly: every request
gets exactly one terminal response, no client ever sees its own requests
reordered, the ``max_wait`` bound holds when the server is not the
bottleneck, and shedding/timeouts are deterministic functions of the
arrival sequence.  ``model_fn`` is a trivial echo so the queueing logic is
isolated from model numerics (those live in
``tests/test_serving_determinism.py``).
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.distributed import ThroughputModel
from repro.distributed.events import SimClock
from repro.observability import Observer
from repro.serving import (
    AdmissionPolicy,
    AffineServiceModel,
    BatchPolicy,
    DegenerateFitWarning,
    HedgePolicy,
    InferenceServer,
    ModelRegistry,
    Request,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    ServableSpec,
    calibrate_service_model,
    chaos_schedule,
    load_servable,
    make_requests,
    poisson_arrivals,
    save_servable,
)
from repro.serving.demo import demo_request_samples
from repro.serving.servable import SPEC_FILENAME, WEIGHTS_FILENAME
from repro.training.checkpoint_io import CheckpointIntegrityError

pytestmark = pytest.mark.serve


def echo_model(samples):
    return np.asarray([float(s) for s in samples])


def run_batcher(requests, max_batch=4, max_wait=0.01, admission=None,
                service_model=None, observer=None, clock=None, model_fn=echo_model):
    """Responses of the single serving loop in its one-replica form."""
    server = InferenceServer(
        SimpleNamespace(predict=model_fn),
        batch=BatchPolicy(max_batch_size=max_batch, max_wait=max_wait),
        admission=admission,
        service_model=service_model,
        clock=clock,
        observer=observer,
    )
    return server.serve(requests).responses


def seeded_requests(seed, count=60, rate=200.0, deadline=None):
    samples = [float(i) for i in range(11)]
    arrivals = poisson_arrivals(rate, count, seed=seed)
    return make_requests(samples, arrivals, num_clients=4, deadline=deadline)


def as_tuples(responses):
    return [
        (
            r.request_id,
            r.client_id,
            r.status,
            r.value,
            r.arrival,
            r.dispatched_at,
            r.completed_at,
            r.batch_size,
        )
        for r in responses
    ]


# --------------------------------------------------------------------------- #
# Policy validation
# --------------------------------------------------------------------------- #
def test_batch_policy_rejects_bad_knobs():
    with pytest.raises(ValueError):
        BatchPolicy(max_batch_size=0)
    with pytest.raises(ValueError):
        BatchPolicy(max_wait=-0.1)


def test_admission_policy_rejects_bad_knobs():
    with pytest.raises(ValueError):
        AdmissionPolicy(max_queue_depth=0)
    with pytest.raises(ValueError):
        AdmissionPolicy(deadline=0.0)


def test_poisson_arrivals_seeded_and_monotone():
    a = poisson_arrivals(100.0, 50, seed=7)
    b = poisson_arrivals(100.0, 50, seed=7)
    assert np.array_equal(a, b)
    assert len(a) == 50
    assert all(x <= y for x, y in zip(a, a[1:]))
    with pytest.raises(ValueError):
        poisson_arrivals(0.0, 5)


NAN = float("nan")


@pytest.mark.parametrize("build, name", [
    (lambda: BatchPolicy(max_wait=NAN), "max_wait"),
    (lambda: AdmissionPolicy(deadline=NAN), "deadline"),
    (lambda: HedgePolicy(delay=NAN), "delay"),
    (lambda: poisson_arrivals(NAN, 5), "rate"),
    (lambda: chaos_schedule("replica_crash:1", 2, duration=NAN), "duration"),
    (lambda: AffineServiceModel(NAN, 1e-3), "base"),
    (lambda: AffineServiceModel(1e-3, NAN), "per_sample"),
    (lambda: ThroughputModel(NAN, 32, 1000), "rate"),
], ids=[
    "BatchPolicy.max_wait", "AdmissionPolicy.deadline", "HedgePolicy.delay",
    "poisson_arrivals.rate", "chaos_schedule.duration", "AffineServiceModel.base",
    "AffineServiceModel.per_sample", "ThroughputModel.rate",
])
def test_serving_and_scaling_inputs_reject_nan(build, name):
    """Each bound is written so NaN fails it: a NaN ``max_wait`` used to
    dispatch every batch at once, a NaN deadline never timed out."""
    with pytest.raises(ValueError, match=name):
        build()


def test_make_requests_cycles_clients_and_sets_deadlines():
    reqs = make_requests([1.0, 2.0], [0.0, 0.1, 0.2], num_clients=2, deadline=0.5)
    assert [r.client_id for r in reqs] == ["client-0", "client-1", "client-0"]
    assert [r.sample for r in reqs] == [1.0, 2.0, 1.0]
    assert reqs[1].deadline == pytest.approx(0.6)


# --------------------------------------------------------------------------- #
# Micro-batcher properties under seeded random traffic
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(5))
def test_every_request_gets_exactly_one_response(seed):
    requests = seeded_requests(seed)
    responses = run_batcher(requests)
    counts = Counter(r.request_id for r in responses)
    assert counts == Counter(r.request_id for r in requests)
    assert set(counts.values()) == {1}
    for resp in responses:
        assert resp.status == STATUS_OK
        assert resp.value == pytest.approx(
            float(requests[resp.request_id].sample)
        )


@pytest.mark.parametrize("seed", range(5))
def test_no_client_sees_reordering(seed):
    requests = seeded_requests(seed)
    responses = run_batcher(
        requests,
        admission=AdmissionPolicy(max_queue_depth=6),
        service_model=lambda n: 0.002 + 0.0005 * n,
    )
    by_client = {}
    for resp in responses:  # already sorted by completion time
        by_client.setdefault(resp.client_id, []).append(resp)
    for client_responses in by_client.values():
        arrivals = [r.arrival for r in client_responses]
        assert arrivals == sorted(arrivals), "client saw responses out of order"


@pytest.mark.parametrize("seed", range(5))
def test_max_wait_bound_holds_when_server_is_fast(seed):
    max_wait = 0.004
    requests = seeded_requests(seed)
    responses = run_batcher(requests, max_wait=max_wait)
    for resp in responses:
        assert resp.status == STATUS_OK
        wait = resp.dispatched_at - resp.arrival
        assert wait <= max_wait + 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_shedding_is_deterministic_and_accounted(seed):
    admission = AdmissionPolicy(max_queue_depth=2)
    slow = lambda n: 0.05  # noqa: E731 - force the queue to back up
    requests = seeded_requests(seed, rate=500.0)
    first = run_batcher(seeded_requests(seed, rate=500.0),
                        admission=admission, service_model=slow)
    second = run_batcher(seeded_requests(seed, rate=500.0),
                         admission=admission, service_model=slow)
    assert as_tuples(first) == as_tuples(second)
    statuses = Counter(r.status for r in first)
    assert statuses[STATUS_SHED] > 0
    assert statuses[STATUS_OK] + statuses.get(STATUS_SHED, 0) == len(requests)
    for resp in first:
        if resp.status == STATUS_SHED:
            assert resp.value is None
            assert resp.dispatched_at is None
            assert resp.completed_at == resp.arrival


def test_deadline_times_out_instead_of_wasting_a_forward():
    calls = []

    def counting_model(samples):
        calls.append(len(samples))
        return echo_model(samples)

    responses = run_batcher(
        seeded_requests(0, count=12),
        max_wait=0.001,
        admission=AdmissionPolicy(deadline=0.01),
        service_model=lambda n: 0.1,  # every batch blows the deadline
        model_fn=counting_model,
    )
    assert all(r.status == STATUS_TIMEOUT for r in responses)
    assert calls == []  # timed-out batches never reach the model


def test_metrics_account_for_every_request():
    clock = SimClock()
    observer = Observer(clock=clock)
    requests = seeded_requests(1, count=50, rate=600.0)
    responses = run_batcher(
        requests,
        max_wait=0.004,
        admission=AdmissionPolicy(max_queue_depth=3),
        service_model=lambda n: 0.01,
        clock=clock,
        observer=observer,
    )
    statuses = Counter(r.status for r in responses)
    metrics = observer.metrics
    assert metrics.value("serve.queue.admitted") + metrics.value(
        "serve.shed.queue_full"
    ) == len(requests)
    assert metrics.value("serve.batch.requests") == statuses[STATUS_OK]
    assert metrics.value("serve.shed.queue_full") == statuses.get(STATUS_SHED, 0)
    assert metrics.value("serve.shed.deadline") == statuses.get(STATUS_TIMEOUT, 0)
    assert metrics.value("serve.queue.peak_depth") <= 3
    spans = [s for s in observer.tracer.spans if s.name == "serve.request"]
    assert len(spans) == len(requests)


def test_model_fn_length_mismatch_is_an_error():
    with pytest.raises(RuntimeError, match="model_fn returned"):
        run_batcher(
            [Request(request_id=0, sample=1.0, arrival=0.0)],
            model_fn=lambda samples: np.zeros(len(samples) + 1),
        )


def test_full_batch_dispatches_without_waiting():
    requests = [
        Request(request_id=i, sample=float(i), arrival=0.0) for i in range(4)
    ]
    responses = run_batcher(requests, max_batch=4, max_wait=10.0)
    assert all(r.dispatched_at == 0.0 for r in responses)
    assert all(r.batch_size == 4 for r in responses)


# --------------------------------------------------------------------------- #
# One loop: characterization against the deleted single-server loop
# --------------------------------------------------------------------------- #
#: sha256 over ``repr(as_tuples(responses))`` of every trace in a grid,
#: recorded at commit 43dcc92 from the single-server loop this one replaced.
POISSON_GRID_DIGEST = "56a747d5a92eb953db364aeb4c8a7ea08c351927d141dd8ca083654c5aee7fea"
TIED_GRID_DIGEST = "dac4f732befd9395300580eaa8f888f31f7f18e75ce8fb9bf916c779ea3b67a0"


def grid_digest(grid):
    digest = hashlib.sha256()
    statuses = Counter()
    for requests, batch, admission, service_model in grid:
        responses = run_batcher(
            requests, batch.max_batch_size, batch.max_wait, admission, service_model
        )
        statuses.update(r.status for r in responses)
        digest.update(repr(as_tuples(responses)).encode())
    return digest.hexdigest(), statuses


def poisson_grid():
    """640 traces: 40 seeds x 4 loads x 4 admission policies (the last is
    the end-to-end benchmark's ``serve_trace`` policy)."""
    service = AffineServiceModel(base=1.0e-3, per_sample=0.25e-3)
    batch = BatchPolicy(max_batch_size=8, max_wait=service(1))
    policies = [
        AdmissionPolicy(),
        AdmissionPolicy(max_queue_depth=4),
        AdmissionPolicy(deadline=0.004),
        AdmissionPolicy(max_queue_depth=16, deadline=3 * service(8)),
    ]
    samples = [float(i) for i in range(11)]
    for seed in range(40):
        for load in (0.5, 0.8, 1.2, 2.0):
            for admission in policies:
                arrivals = poisson_arrivals(load * service.capacity(8), 120, seed=seed)
                yield make_requests(samples, arrivals), batch, admission, service


def tied_grid():
    """400 traces on the integer grid: arrivals, ``max_wait``, service
    times and deadlines are small whole numbers, so arrivals land exactly
    on dispatch instants, on completions, and on each other."""
    for config in range(400):
        rng = np.random.default_rng(config)
        arrivals = np.cumsum(rng.integers(0, 3, size=40)).astype(float)
        depth = [None, 1, 2, 3][rng.integers(4)]
        deadline = [None, 2.0, 4.0][rng.integers(3)]
        base, per_sample = float(rng.integers(0, 3)), float(rng.integers(0, 2))
        batch = BatchPolicy(
            max_batch_size=int(rng.integers(1, 5)), max_wait=float(rng.integers(0, 4))
        )
        requests = [
            Request(request_id=i, sample=float(i), arrival=float(t), client_id=f"client-{i % 3}")
            for i, t in enumerate(arrivals)
        ]
        yield (
            requests,
            batch,
            AdmissionPolicy(max_queue_depth=depth, deadline=deadline),
            lambda n, base=base, per_sample=per_sample: base + per_sample * n,
        )


def test_one_replica_loop_reproduces_the_single_server_loop():
    digest, statuses = grid_digest(poisson_grid())
    assert statuses[STATUS_SHED] > 0 and statuses[STATUS_TIMEOUT] > 0
    assert digest == POISSON_GRID_DIGEST


def test_tie_rule_dispatch_precedes_a_same_instant_arrival():
    """DESIGN.md §12: an arrival at exactly a dispatch instant rides the
    next batch and sees the queue slots that dispatch freed."""
    # Batching: the oldest request's max_wait expires at t=2; the two
    # requests arriving at t=2 are not in that batch.
    requests = [
        Request(request_id=i, sample=float(i), arrival=t)
        for i, t in enumerate([0.0, 1.0, 2.0, 2.0])
    ]
    by_id = {r.request_id: r for r in run_batcher(requests, max_batch=4, max_wait=2.0)}
    assert [by_id[i].dispatched_at for i in range(4)] == [2.0, 2.0, 4.0, 4.0]
    assert [by_id[i].batch_size for i in range(4)] == [2, 2, 2, 2]

    # Shedding: depth 1, the server frees at t=2 and takes request 1 out
    # of the queue before request 2 (arriving at t=2) is counted against it.
    requests = [
        Request(request_id=i, sample=float(i), arrival=float(i)) for i in range(4)
    ]
    by_id = {
        r.request_id: r
        for r in run_batcher(
            requests, max_batch=1, max_wait=0.0,
            admission=AdmissionPolicy(max_queue_depth=1),
            service_model=lambda n: 2.0,
        )
    }
    assert [by_id[i].status for i in range(4)] == [
        STATUS_OK, STATUS_OK, STATUS_OK, STATUS_SHED,
    ]
    assert [by_id[i].dispatched_at for i in range(3)] == [0.0, 2.0, 4.0]

    digest, statuses = grid_digest(tied_grid())
    assert statuses[STATUS_SHED] > 0 and statuses[STATUS_TIMEOUT] > 0
    assert digest == TIED_GRID_DIGEST


def test_admission_deadline_does_not_leak_through_shared_requests():
    """A trace replayed under a looser policy must not keep the tighter
    policy's deadlines: the loop never writes to the caller's requests."""
    tight = AdmissionPolicy(deadline=0.004)
    loose = AdmissionPolicy(deadline=1.0)
    slow = lambda n: 0.003 + 0.0005 * n  # noqa: E731

    def serve(requests, admission):
        return as_tuples(
            run_batcher(requests, max_batch=8, max_wait=0.001,
                        admission=admission, service_model=slow)
        )

    shared = seeded_requests(2, count=400, rate=600.0)
    first, second = serve(shared, tight), serve(shared, loose)
    assert all(r.deadline is None for r in shared)
    assert Counter(t[2] for t in first)[STATUS_TIMEOUT] > 0
    assert first == serve(seeded_requests(2, count=400, rate=600.0), tight)
    assert second == serve(seeded_requests(2, count=400, rate=600.0), loose)
    assert Counter(t[2] for t in second)[STATUS_TIMEOUT] == 0


# --------------------------------------------------------------------------- #
# Service-model calibration
# --------------------------------------------------------------------------- #
class SleepyServable:
    """``predict`` sleeps ``cost(batch_size)`` seconds."""

    def __init__(self, cost):
        self.cost = cost

    def predict(self, samples):
        time.sleep(self.cost(len(samples)))
        return np.zeros(len(samples))


def test_calibration_fits_base_and_slope():
    model = calibrate_service_model(
        SleepyServable(lambda n: 2e-3 + 1e-3 * n), samples=[0, 1, 2], max_batch_size=8
    )
    assert not model.degenerate_fit
    assert 0.3e-3 < model.per_sample < 3e-3  # sleeps overshoot on a busy host
    assert model(8) > model(1)


def test_degenerate_calibration_is_loud_and_flagged():
    """Batch 8 faster than batch 1: the flat fallback names itself."""
    servable = SleepyServable(lambda n: 8e-3 if n == 1 else 2e-3)
    with pytest.warns(DegenerateFitWarning, match=r"tn=\d+\.\d+ ms <= .* t1=\d+\.\d+ ms"):
        model = calibrate_service_model(servable, samples=[0], max_batch_size=8)
    assert model.degenerate_fit
    assert model.base >= 0 and model.per_sample > 0
    assert model.per_sample == pytest.approx(2e-3 / 8, rel=0.5)
    assert issubclass(DegenerateFitWarning, RuntimeWarning)


def test_cli_serve_says_when_the_service_model_is_degenerate(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    from repro.serving import server

    spec = tiny_spec()
    save_servable(spec.build_task(), spec, str(tmp_path / "tiny"))
    timings = iter([8e-3, 2e-3])

    def scripted_timer(fn, rounds, warmup):
        fn()
        return next(timings)

    monkeypatch.setattr(server, "time_callable", scripted_timer)
    with pytest.warns(DegenerateFitWarning):
        code = main(["serve", "--registry", str(tmp_path), "--model", "tiny", "--requests", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ms/sample (degenerate fit: flat per-sample cost)" in out


# --------------------------------------------------------------------------- #
# Servable archives and the registry
# --------------------------------------------------------------------------- #
def tiny_spec():
    return ServableSpec(
        target="band_gap",
        encoder_name="egnn",
        hidden_dim=8,
        num_layers=1,
        position_dim=2,
        head_hidden_dim=8,
        head_blocks=1,
        normalizer=[0.5, 2.0],
    )


def trained_like_task(spec, seed=42):
    """A task whose weights differ from the skeleton init, as training would."""
    task = spec.build_task()
    rng = np.random.default_rng(seed)
    for param in task.parameters():
        param.data += rng.normal(scale=0.05, size=param.data.shape)
    return task


def test_registry_round_trip_preserves_predictions(tmp_path):
    spec = tiny_spec()
    task = trained_like_task(spec)
    registry = ModelRegistry(str(tmp_path))
    registry.save("tiny", task, spec)
    assert registry.names() == ["tiny"]

    samples = demo_request_samples(3, seed=5)
    from repro.serving.servable import Servable

    direct = Servable(task, spec).predict(samples)
    loaded = ModelRegistry(str(tmp_path)).load("tiny")
    assert np.array_equal(loaded.predict(samples), direct)
    # Cache: the same object comes back on the second load.
    again = registry.load("tiny")
    assert registry.load("tiny") is again


def test_registry_unknown_name_lists_available(tmp_path):
    registry = ModelRegistry(str(tmp_path))
    registry.save("present", trained_like_task(tiny_spec()), tiny_spec())
    with pytest.raises(KeyError, match="present"):
        registry.load("absent")


def test_corrupt_weights_refuse_to_load(tmp_path):
    spec = tiny_spec()
    directory = save_servable(trained_like_task(spec), spec, str(tmp_path / "m"))
    weights = tmp_path / "m" / WEIGHTS_FILENAME
    blob = bytearray(weights.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    weights.write_bytes(bytes(blob))
    with pytest.raises(CheckpointIntegrityError):
        load_servable(str(directory))


def test_unsupported_spec_version_refuses_to_load(tmp_path):
    spec = tiny_spec()
    directory = save_servable(trained_like_task(spec), spec, str(tmp_path / "m"))
    spec_path = tmp_path / "m" / SPEC_FILENAME
    payload = spec_path.read_text().replace('"version": 1', '"version": 99')
    spec_path.write_text(payload)
    with pytest.raises(CheckpointIntegrityError, match="version"):
        load_servable(str(directory))


def test_malformed_spec_refuses_to_load(tmp_path):
    spec = tiny_spec()
    directory = save_servable(trained_like_task(spec), spec, str(tmp_path / "m"))
    (tmp_path / "m" / SPEC_FILENAME).write_text("{not json")
    with pytest.raises(CheckpointIntegrityError, match="unreadable"):
        load_servable(str(directory))


def test_spec_json_round_trip():
    spec = tiny_spec()
    assert ServableSpec.from_json(spec.to_json()) == spec
