"""Resilient serving: replica pool, breakers, health, chaos determinism.

Three layers of contract (DESIGN.md §13):

* **unit** — the breaker state machine (closed -> open -> half-open),
  health-check hysteresis, and chaos-schedule planning are deterministic
  functions of their seeds and inputs;
* **pool** — under any seeded fault schedule, every request still gets
  exactly one terminal response, the same seed reproduces the same
  :class:`~repro.serving.ServeReport` bit-for-bit, and recovery machinery
  (failover, hedging, brownout) leaves its trail in the event log;
* **bit-identity** — every response the chaotic pool *delivers* equals
  the fault-free single-replica answer exactly (``np.array_equal``),
  swept across encoder families and both kernel dispatch modes, because
  replicas share one servable and faults only ever fail loudly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.distributed.events import (
    BREAKER_OPEN,
    BROWNOUT,
    FAILOVER,
    HEDGE,
    REPLICA_CRASH,
    REPLICA_RECOVERED,
    REPLICA_UNHEALTHY,
    SERVABLE_CORRUPT,
    EventLog,
    SimClock,
)
from repro.kernels import use_fused
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    BreakerPolicy,
    ChaosFault,
    CircuitBreaker,
    DegradationPolicy,
    HealthChecker,
    HealthPolicy,
    HedgePolicy,
    ModelRegistry,
    ReplicaPool,
    Request,
    RetryPolicy,
    STATUS_FAILED,
    STATUS_OK,
    Servable,
    ServableSpec,
    ServingChaosProfile,
    chaos_schedule,
    make_requests,
    poisson_arrivals,
    save_servable,
    summarize,
)
from repro.serving.resilience.breaker import CLOSED, HALF_OPEN, OPEN

pytestmark = pytest.mark.chaos


def echo_model(samples):
    return np.asarray([float(s) for s in samples])


def seeded_requests(seed=3, count=80, rate=800.0):
    """Fresh request objects every call — pools mutate deadlines in place."""
    samples = [float(i) for i in range(11)]
    return make_requests(samples, poisson_arrivals(rate, count, seed=seed))


def run_pool(requests, num_replicas=3, chaos=None, seed=0, **overrides):
    clock = SimClock()
    kwargs = dict(
        batch=BatchPolicy(max_batch_size=4, max_wait=0.004),
        admission=AdmissionPolicy(max_queue_depth=16, deadline=0.5),
        service_model=lambda n: 1e-3 + 0.25e-3 * n,
        chaos=chaos,
        clock=clock,
        seed=seed,
    )
    kwargs.update(overrides)
    pool = ReplicaPool(echo_model, num_replicas=num_replicas, **kwargs)
    return pool, pool.serve(requests)


def report_fingerprint(report):
    return [
        (r.request_id, r.client_id, r.status, r.value, r.arrival,
         r.dispatched_at, r.completed_at, r.batch_size, r.replica)
        for r in report.responses
    ]


# --------------------------------------------------------------------------- #
# Circuit breaker state machine
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def make(self, clock=None, **policy):
        defaults = dict(window=8, error_threshold=0.5, min_events=4,
                        cooldown=0.1, probe_admission=1.0, probe_successes=2)
        defaults.update(policy)
        clock = clock if clock is not None else SimClock()
        return CircuitBreaker(BreakerPolicy(**defaults), clock), clock

    def test_starts_closed_and_admits(self):
        breaker, _ = self.make()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_at_error_threshold_with_min_events(self):
        breaker, _ = self.make()
        breaker.record_error()
        breaker.record_error()
        breaker.record_error()
        assert breaker.state == CLOSED  # 3 events < min_events
        breaker.record_error()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_successes_dilute_the_window(self):
        breaker, _ = self.make()
        for _ in range(6):
            breaker.record_success(latency=0.001)
        breaker.record_error()
        breaker.record_error()
        assert breaker.state == CLOSED  # 2/8 bad < 0.5

    def test_latency_slo_counts_as_bad(self):
        breaker, _ = self.make(latency_slo=0.01)
        for _ in range(4):
            breaker.record_success(latency=0.05)
        assert breaker.state == OPEN

    def test_half_open_after_cooldown_then_closes_on_probes(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_error()
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.allow()  # probe_admission=1.0 admits the probe
        assert breaker.state == HALF_OPEN
        breaker.record_success(latency=0.001)
        assert breaker.state == HALF_OPEN  # needs probe_successes=2
        breaker.record_success(latency=0.001)
        assert breaker.state == CLOSED

    def test_half_open_reopens_on_probe_failure(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_error()
        clock.advance(0.2)
        breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_error()
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown restarted

    def test_half_open_admission_is_seeded(self):
        def admitted_sequence(seed):
            clock = SimClock()
            breaker = CircuitBreaker(
                BreakerPolicy(min_events=2, error_threshold=1.0, cooldown=0.0,
                              probe_admission=0.5, probe_successes=100),
                clock, replica=1, seed=seed,
            )
            breaker.record_error()
            breaker.record_error()
            return [breaker.allow() for _ in range(16)]

        assert admitted_sequence(7) == admitted_sequence(7)
        assert admitted_sequence(7) != admitted_sequence(8)

    def test_transitions_are_logged(self):
        clock = SimClock()
        events = EventLog(clock)
        breaker = CircuitBreaker(
            BreakerPolicy(min_events=2, error_threshold=1.0, cooldown=0.0,
                          probe_admission=1.0, probe_successes=1),
            clock, replica=2, events=events,
        )
        breaker.record_error()
        breaker.record_error()
        breaker.allow()
        breaker.record_success(latency=0.0)
        assert events.kinds() == ["breaker_open", "breaker_half_open", "breaker_close"]
        assert all(e.rank == 2 for e in events.events)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(window=0)
        with pytest.raises(ValueError):
            BreakerPolicy(error_threshold=0.0)
        with pytest.raises(ValueError):
            BreakerPolicy(probe_admission=1.5)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown=-1.0)


# --------------------------------------------------------------------------- #
# Health checking
# --------------------------------------------------------------------------- #
class TestHealthChecker:
    def make(self, **policy):
        defaults = dict(interval=0.02, latency_threshold=0.05,
                        unhealthy_after=2, healthy_after=2)
        defaults.update(policy)
        clock = SimClock()
        events = EventLog(clock)
        return HealthChecker(HealthPolicy(**defaults), clock, events=events), events

    def test_starts_healthy(self):
        checker, _ = self.make()
        assert checker.healthy(0)

    def test_single_blip_does_not_flip(self):
        checker, events = self.make()
        checker.observe(0, ok=False)
        assert checker.healthy(0)
        checker.observe(0, ok=True)
        checker.observe(0, ok=False)
        assert checker.healthy(0)  # streak was reset by the success
        assert events.count(REPLICA_UNHEALTHY) == 0

    def test_consecutive_failures_mark_unhealthy_then_recovery(self):
        checker, events = self.make()
        checker.observe(1, ok=False)
        checker.observe(1, ok=False)
        assert not checker.healthy(1)
        assert events.count(REPLICA_UNHEALTHY) == 1
        checker.observe(1, ok=True)
        assert not checker.healthy(1)  # needs healthy_after=2
        checker.observe(1, ok=True)
        assert checker.healthy(1)
        assert events.count(REPLICA_RECOVERED) == 1

    def test_slow_probe_counts_as_failure(self):
        checker, _ = self.make()
        checker.observe(0, ok=True, latency=0.2)
        checker.observe(0, ok=True, latency=0.2)
        assert not checker.healthy(0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(interval=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(unhealthy_after=0)


# --------------------------------------------------------------------------- #
# Chaos profiles and schedules
# --------------------------------------------------------------------------- #
class TestChaosSchedule:
    def test_profile_parse(self):
        profile = ServingChaosProfile.parse(
            "replica_crash:1,replica_slow:2,predict_flaky:1"
        )
        assert (profile.crashes, profile.slowdowns, profile.flaky,
                profile.corruptions) == (1, 2, 1, 0)
        assert profile.total == 4

    def test_profile_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ServingChaosProfile.parse("replica_crash")
        with pytest.raises(ValueError):
            ServingChaosProfile.parse("rank_crash:1")  # training kind
        with pytest.raises(ValueError):
            ServingChaosProfile.parse("replica_crash:-1")

    def test_empty_profile_schedules_nothing(self):
        assert chaos_schedule(None, 3, 1.0, seed=0) == []
        assert chaos_schedule("none", 3, 1.0, seed=0) == []

    def test_same_seed_same_schedule(self):
        spec = "replica_crash:1,replica_slow:1,servable_corrupt:1"
        a = chaos_schedule(spec, 3, 2.0, seed=11)
        b = chaos_schedule(spec, 3, 2.0, seed=11)
        assert a == b
        c = chaos_schedule(spec, 3, 2.0, seed=12)
        assert a != c

    def test_faults_land_inside_the_trace(self):
        faults = chaos_schedule(
            "replica_crash:2,replica_slow:2,predict_flaky:2,servable_corrupt:2",
            4, 3.0, seed=5,
        )
        assert len(faults) == 8
        for fault in faults:
            assert 0.0 < fault.time < 3.0
            assert 0 <= fault.replica < 4
        slow = [f for f in faults if f.kind == "replica_slow"]
        assert all(f.duration == pytest.approx(0.2 * 3.0) for f in slow)
        assert all(f.factor == 8.0 for f in slow)

    def test_plan_is_pinned(self):
        """The exact schedule behind the ``serve_trace`` digest: one slot
        draw without replacement, sorted, then one victim per fault in
        kind order."""
        faults = chaos_schedule(
            "replica_crash:1,replica_slow:1,predict_flaky:1,servable_corrupt:1",
            3, 2.0, seed=11,
        )
        assert [(f.kind, f.time, f.replica, f.duration, f.factor) for f in faults] == [
            ("replica_crash", 0.1875, 0, 0, 1),
            ("replica_slow", 0.9375, 1, 0.4, 8),
            ("predict_flaky", 1.4375, 0, 0, 1),
            ("servable_corrupt", 1.6875, 1, 0, 1),
        ]

    def test_slot_times_independent_of_replica_count(self):
        # Same seed: the slot draws are identical whatever the target
        # count, so the 1-replica baseline sees the same fault *times* as
        # the pool — the property the resilience bench's comparison needs.
        spec = "replica_crash:1,servable_corrupt:1"
        pool_faults = chaos_schedule(spec, 3, 2.0, seed=9)
        solo_faults = chaos_schedule(spec, 1, 2.0, seed=9)
        assert [f.time for f in pool_faults] == [f.time for f in solo_faults]
        assert all(f.replica == 0 for f in solo_faults)


# --------------------------------------------------------------------------- #
# Replica pool: serving contract under chaos
# --------------------------------------------------------------------------- #
class TestReplicaPool:
    def test_fault_free_pool_answers_everything(self):
        pool, report = run_pool(seeded_requests())
        assert report.ok == report.total == 80
        assert report.failed == 0
        assert report.availability == 1.0
        for r in report.responses:
            assert r.value == pytest.approx(float(r.request_id % 11))
            assert r.replica in (0, 1, 2)

    def test_every_request_gets_exactly_one_response_under_chaos(self):
        for chaos_seed in range(5):
            requests = seeded_requests()
            chaos = chaos_schedule(
                "replica_crash:1,replica_slow:1,predict_flaky:1,servable_corrupt:1",
                3, max(r.arrival for r in requests), seed=chaos_seed,
            )
            _, report = run_pool(requests, chaos=chaos)
            ids = sorted(r.request_id for r in report.responses)
            assert ids == list(range(80)), f"chaos seed {chaos_seed}"

    def test_chaos_run_is_bit_deterministic(self):
        def one_run():
            requests = seeded_requests()
            chaos = chaos_schedule(
                "replica_crash:1,replica_slow:1,servable_corrupt:1",
                3, max(r.arrival for r in requests), seed=4,
            )
            _, report = run_pool(requests, chaos=chaos)
            return report

        first, second = one_run(), one_run()
        assert report_fingerprint(first) == report_fingerprint(second)
        assert first.summary() == second.summary()
        assert first.metrics == second.metrics

    def test_crash_fails_over_and_avoids_the_dead_replica(self):
        requests = seeded_requests()
        duration = max(r.arrival for r in requests)
        crash_at = duration * 0.3
        chaos = [ChaosFault(kind=REPLICA_CRASH, time=crash_at, replica=1)]
        pool, report = run_pool(requests, chaos=chaos)
        assert report.availability == 1.0
        late_ok = [r for r in report.responses
                   if r.ok and r.dispatched_at is not None and r.dispatched_at > crash_at]
        assert late_ok and all(r.replica != 1 for r in late_ok)
        assert pool.events.count(REPLICA_CRASH) == 1

    def test_corrupt_servable_trips_the_breaker(self):
        requests = seeded_requests(count=120)
        chaos = [ChaosFault(kind=SERVABLE_CORRUPT, time=0.01, replica=0)]
        pool, report = run_pool(requests, chaos=chaos)
        assert pool.events.count(SERVABLE_CORRUPT) == 1
        assert pool.events.count(BREAKER_OPEN) >= 1
        assert pool.events.count(FAILOVER) >= 1
        assert report.availability > 0.9
        # Nothing is ever *answered* by the corrupt replica.
        assert all(r.replica != 0 for r in report.responses
                   if r.ok and r.dispatched_at is not None and r.dispatched_at > 0.05)

    def test_losing_replicas_raises_the_brownout_level(self):
        requests = seeded_requests(count=120)
        duration = max(r.arrival for r in requests)
        chaos = [
            ChaosFault(kind=REPLICA_CRASH, time=duration * 0.2, replica=0),
            ChaosFault(kind=REPLICA_CRASH, time=duration * 0.4, replica=1),
        ]
        pool, report = run_pool(requests, chaos=chaos)
        brownouts = pool.events.of_kind(BROWNOUT)
        assert brownouts and max(e.detail["level"] for e in brownouts) >= 2
        # One replica left still answers (tighter admission, not collapse).
        assert report.ok > 0

    def test_all_replicas_dead_sheds_instead_of_hanging(self):
        requests = seeded_requests(count=40)
        chaos = [
            ChaosFault(kind=REPLICA_CRASH, time=1e-6, replica=i) for i in range(3)
        ]
        _, report = run_pool(requests, chaos=chaos, retry=RetryPolicy(max_retries=1))
        assert report.total == 40
        assert report.ok == 0
        assert report.availability == 0.0

    def test_hedges_fire_and_are_accounted(self):
        from repro.observability import Observer

        clock = SimClock()
        observer = Observer(clock=clock)
        requests = seeded_requests(count=120, rate=1500.0)
        # A slow replica makes primaries miss the hedge delay.
        duration = max(r.arrival for r in requests)
        chaos = [ChaosFault(kind="replica_slow", time=1e-6, replica=0,
                            duration=duration, factor=30.0)]
        pool, report = run_pool(
            requests, chaos=chaos, clock=clock, observer=observer,
            hedge=HedgePolicy(delay=0.003),
        )
        metrics = report.metrics
        launched = metrics.get("serve.hedge.launched", {}).get("value", 0)
        won = metrics.get("serve.hedge.won", {}).get("value", 0)
        assert launched >= 1
        assert pool.events.count(HEDGE) == launched
        assert 0 <= won <= launched

    def test_baseline_pool_with_resilience_off_collapses(self):
        requests = seeded_requests(count=80)
        duration = max(r.arrival for r in requests)
        chaos = [ChaosFault(kind=REPLICA_CRASH, time=duration * 0.25, replica=0)]
        _, report = run_pool(
            requests, num_replicas=1, chaos=chaos,
            hedge=None, breaker=None, health=None, degradation=None,
            retry=RetryPolicy(max_retries=0),
        )
        assert report.availability < 0.5
        assert report.total == 80

    def test_failed_requests_exhaust_retries_with_failed_status(self):
        requests = seeded_requests(count=20)
        chaos = [
            ChaosFault(kind=SERVABLE_CORRUPT, time=1e-6, replica=i)
            for i in range(2)
        ]
        _, report = run_pool(
            requests, num_replicas=2, chaos=chaos,
            health=None, breaker=None, hedge=None,
            retry=RetryPolicy(max_retries=1, backoff_base_s=1e-4),
        )
        assert report.failed > 0
        statuses = {r.status for r in report.responses}
        assert statuses <= {STATUS_FAILED, STATUS_OK, "shed", "timeout"}
        assert report.total == 20

    def test_num_replicas_validated(self):
        with pytest.raises(ValueError):
            ReplicaPool(echo_model, num_replicas=0)

    def test_degradation_policy_validated(self):
        with pytest.raises(ValueError):
            DegradationPolicy(queue_depth_factor=0.0)
        with pytest.raises(ValueError):
            DegradationPolicy(overload_queue_frac=1.5)
        with pytest.raises(ValueError):
            HedgePolicy(delay=-1.0)


# --------------------------------------------------------------------------- #
# Degenerate traces must reduce, not raise
# --------------------------------------------------------------------------- #
class TestDegenerateSummaries:
    def test_empty_trace_summarizes_to_zeros(self):
        report = summarize([])
        assert report.total == 0
        assert report.throughput == 0.0
        assert report.availability == 0.0
        assert "0/0 ok" in report.summary()

    def test_empty_request_list_through_the_pool(self):
        _, report = run_pool([])
        assert report.total == 0
        assert report.availability == 0.0

    def test_single_instantaneous_completion_has_zero_throughput(self):
        requests = [Request(request_id=0, sample=1.0, arrival=0.0)]
        _, report = run_pool(
            requests,
            batch=BatchPolicy(max_batch_size=1, max_wait=0.0),
            service_model=lambda n: 0.0,
        )
        assert report.ok == 1
        assert report.throughput == 0.0  # zero observation span, no raise
        assert report.availability == 1.0

    def test_goodput_survives_zero_span(self):
        requests = [Request(request_id=0, sample=1.0, arrival=0.0)]
        _, report = run_pool(
            requests,
            batch=BatchPolicy(max_batch_size=1, max_wait=0.0),
            service_model=lambda n: 0.0,
        )
        assert report.goodput(slo=1.0) == 0.0


# --------------------------------------------------------------------------- #
# Failover bit-identity: delivered == fault-free, across encoders & kernels
# --------------------------------------------------------------------------- #
def build_servable(encoder_name: str) -> Servable:
    spec = ServableSpec(
        target="band_gap",
        encoder_name=encoder_name,
        hidden_dim=12,
        num_layers=2,
        position_dim=4,
        head_hidden_dim=12,
        head_blocks=1,
        cutoff=4.5,
        normalizer=[0.25, 1.5],
    )
    return Servable(spec.build_task(), spec)


@pytest.mark.parametrize("fused_mode", [True, False])
@pytest.mark.parametrize("encoder_name", ["egnn", "schnet", "gaanet", "megnet"])
def test_failover_preserves_bit_identity(encoder_name, fused_mode):
    from repro.serving.demo import demo_request_samples

    with use_fused(fused_mode):
        servable = build_servable(encoder_name)
        samples = demo_request_samples(6)

        def trace():
            return make_requests(samples, poisson_arrivals(900.0, 48, seed=21))

        duration = max(r.arrival for r in trace())
        chaos = chaos_schedule(
            "replica_crash:1,servable_corrupt:1", 3, duration, seed=2
        )
        clock = SimClock()
        pool = ReplicaPool(
            servable.predict,
            num_replicas=3,
            batch=BatchPolicy(max_batch_size=4, max_wait=0.004),
            admission=AdmissionPolicy(max_queue_depth=16, deadline=0.5),
            service_model=lambda n: 1e-3 + 0.25e-3 * n,
            chaos=chaos,
            clock=clock,
            seed=0,
        )
        chaotic = pool.serve(trace())

        solo = ReplicaPool(
            servable.predict,
            num_replicas=1,
            hedge=None, breaker=None, health=None, degradation=None,
            retry=RetryPolicy(max_retries=0),
            batch=BatchPolicy(max_batch_size=4, max_wait=0.004),
            service_model=lambda n: 1e-3 + 0.25e-3 * n,
            clock=SimClock(),
            seed=0,
        )
        reference = {
            r.request_id: r.value for r in solo.serve(trace()).responses if r.ok
        }

    delivered = [r for r in chaotic.responses if r.ok]
    assert delivered, "chaos schedule left nothing delivered"
    assert pool.events.count(FAILOVER) >= 1 or pool.events.count(REPLICA_CRASH) >= 1
    for r in delivered:
        assert np.array_equal(r.value, reference[r.request_id]), (
            f"{encoder_name} fused={fused_mode}: request {r.request_id} "
            f"served {r.value!r} != fault-free {reference[r.request_id]!r}"
        )


# --------------------------------------------------------------------------- #
# Registry: crash-safe saves + verify audit
# --------------------------------------------------------------------------- #
class TestRegistryVerify:
    @pytest.fixture(scope="class")
    def registry_root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("registry")
        servable = build_servable("egnn")
        save_servable(servable.task, servable.spec, str(root / "good_model"))
        return str(root)

    def test_verify_reports_healthy_servables(self, registry_root):
        results = ModelRegistry(registry_root).verify()
        assert results["good_model"]["ok"]
        assert results["good_model"]["encoder"] == "egnn"
        assert results["good_model"]["arrays"] > 0
        assert results["good_model"]["bytes"] > 0

    def test_verify_flags_corrupted_archive(self, registry_root, tmp_path):
        import shutil

        broken = tmp_path / "reg"
        shutil.copytree(registry_root, broken)
        weights = broken / "good_model" / "model.npz"
        blob = bytearray(weights.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        weights.write_bytes(bytes(blob))
        results = ModelRegistry(str(broken)).verify()
        assert not results["good_model"]["ok"]
        assert "integrity" in results["good_model"]["error"] or \
            "corrupt" in results["good_model"]["error"]

    def test_save_leaves_no_temp_files(self, registry_root):
        leftovers = [
            name
            for _, _, files in os.walk(registry_root)
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_interrupted_save_preserves_previous_archive(self, tmp_path, monkeypatch):
        from repro.serving.servable import WEIGHTS_FILENAME
        from repro.training import checkpoint_io

        servable = build_servable("egnn")
        target = str(tmp_path / "model")
        save_servable(servable.task, servable.spec, target)
        weights = os.path.join(target, WEIGHTS_FILENAME)
        with open(weights, "rb") as fh:
            before = fh.read()

        def exploding_savez(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint_io.np, "savez", exploding_savez)
        with pytest.raises(OSError):
            save_servable(servable.task, servable.spec, target)
        monkeypatch.undo()
        # The crash-interrupted save left the previous archive untouched
        # and fully loadable — atomic rename means no torn state.
        with open(weights, "rb") as fh:
            assert fh.read() == before
        assert checkpoint_io.verify_archive(weights)["arrays"] > 0
        assert not os.path.exists(weights + ".tmp")

    def test_verify_archive_missing_file_raises(self, tmp_path):
        from repro.training.checkpoint_io import (
            CheckpointIntegrityError,
            verify_archive,
        )

        with pytest.raises(CheckpointIntegrityError):
            verify_archive(str(tmp_path / "nope.npz"))

    def test_cli_verify_exit_codes(self, registry_root, tmp_path, capsys):
        import shutil

        from repro.cli import main

        assert main(["registry", "verify", "--registry", registry_root]) == 0
        out = capsys.readouterr().out
        assert "1/1 servables verified ok" in out

        broken = tmp_path / "reg"
        shutil.copytree(registry_root, broken)
        weights = broken / "good_model" / "model.npz"
        weights.write_bytes(b"not an archive")
        assert main(["registry", "verify", "--registry", str(broken)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cli_verify_empty_registry(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["registry", "verify", "--registry", str(tmp_path / "empty")]) == 0
        assert "no servables" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# CLI: replicated serving end to end (prebuilt registry, no bootstrap)
# --------------------------------------------------------------------------- #
# Timing a tiny model can fit a degenerate service model on a busy host;
# that warning is pinned in tests/test_serving.py, not here.
@pytest.mark.filterwarnings("default::repro.serving.DegenerateFitWarning")
def test_cli_serve_with_replicas_and_chaos(tmp_path, capsys):
    from repro.cli import main

    servable = build_servable("egnn")
    registry = tmp_path / "reg"
    save_servable(servable.task, servable.spec, str(registry / "tiny"))
    code = main([
        "serve", "--registry", str(registry), "--model", "tiny",
        "--requests", "32", "--rate", "600", "--replicas", "3",
        "--chaos-profile", "replica_crash:1,replica_slow:1",
        "--chaos-seed", "2", "--hedge-ms", "4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "replica pool: 3 replicas" in out
    assert "chaos events" in out
    assert "availability" in out
    assert "serve.replica.count" in out
