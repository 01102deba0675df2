"""The four workloads: what one *unit* of each does, and how it is checked.

Every workload drives a **default** code path of ``repro.core.workflows``,
``repro.serving`` or ``repro.screening`` — no flag is turned on that a
``repro`` CLI user would not get.  A workload object is built once per
child process (that is its set-up) and then asked for units; unit ``u``
derives every seed it uses from ``(seed, workload, u)``.

Entrypoints are called through their module (``workflows.train_property``,
``pipeline.run_screening``) so the traced pass, which replaces those module
attributes, sees the calls.

Each unit ends with a closed-loop phase: ``requests`` single-structure
inferences, one at a time, against the model the unit trained or served.
In ``serve_trace`` they are part of the unit (they are requests answered);
elsewhere they run after the unit's clock has stopped, so ``items_per_s``
stays samples/s or candidates/s.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import workflows
from repro.core.config import EncoderConfig, FinetuneConfig, PretrainConfig
from repro.data.batching import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import MaterialsProjectSurrogate, SymmetryPointCloudDataset
from repro.distributed.events import SimClock
from repro.observability import Observer
from repro.screening import CandidateGenerator, ForceFieldRelaxer, ScreenConfig, pipeline
from repro.serving import (
    AdmissionPolicy,
    AffineServiceModel,
    BatchPolicy,
    InferenceServer,
    ModelRegistry,
    ReplicaPool,
    Servable,
    ServableSpec,
    chaos_schedule,
    make_requests,
    poisson_arrivals,
)

WORKLOAD_NAMES = ("pretrain_ddp", "finetune_materials", "serve_trace", "screen_funnel")

#: Encoder geometry of every downstream bench in this repo
#: (benchmarks/common.py:BENCH_ENCODER — copied, not imported).
ENCODER = dict(hidden_dim=32, num_layers=3, position_dim=12)
HEADS = dict(head_hidden_dim=32, head_blocks=2)

#: Unit shapes.  FULL is the benchmark; SMOKE is the warm-up unit and the
#: ``--smoke`` run, whose numbers are not comparable to anything.  FULL
#: units last 1.5-5 s on the sizing host: interference there comes in
#: bursts of 5-20 s, and the median over a run's units only shrugs a burst
#: off when the run holds five units or more.
FULL = {
    "pretrain_ddp": dict(train_samples=256, val_samples=32, max_epochs=3,
                         request_pool=64, requests=200),
    "finetune_materials": dict(train_samples=64, val_samples=16, max_epochs=30,
                               request_pool=64, requests=200),
    "serve_trace": dict(trace_requests=1000, request_pool=64, requests=200),
    "screen_funnel": dict(parents=32, n_candidates=2048, top_k=32, requests=200),
}
SMOKE = {
    "pretrain_ddp": dict(train_samples=64, val_samples=16, max_epochs=1,
                         request_pool=8, requests=8),
    "finetune_materials": dict(train_samples=32, val_samples=16, max_epochs=2,
                               request_pool=8, requests=8),
    "serve_trace": dict(trace_requests=160, request_pool=8, requests=8),
    "screen_funnel": dict(parents=8, n_candidates=96, top_k=8, requests=8),
}

#: Unit id whose seeds belong to the discarded warm-up unit.
WARMUP_UNIT = 1_000_000
#: Seed of the fixed corpora: the structures requests are drawn from and
#: the parents candidates are mutated from.  A corpus of 32-64 crystals
#: drawn per benchmark seed would move a whole run's work by its mean cell
#: size (edge counts vary 8-11% between such draws); which entries are
#: requested, when, and how they are mutated is what the seed decides.
CORPUS_SEED = 2023

#: serve_trace: the fixed reference service model of the serving benches;
#: the simulated clock runs on it, so every count below is deterministic.
SERVICE = AffineServiceModel(base=1.0e-3, per_sample=0.25e-3)
SERVE_BATCH = 8
SERVE_RATE = 0.8 * SERVICE.capacity(SERVE_BATCH)
SERVE_REPLICAS = 3
SERVE_CHAOS = "replica_crash:1,replica_slow:1,servable_corrupt:1"
#: How many server answers are re-computed alone and compared bit-for-bit.
SERVE_SAMPLED = 32


class CheckFailed(Exception):
    """A unit's output broke an invariant of the program under test."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Stopwatch:
    """Wall (``perf_counter``) and CPU (``process_time``) of a ``with`` body."""

    def __enter__(self) -> "Stopwatch":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu


def closed_loop(answer: Callable[[object], float], raws: Sequence[object]) -> Tuple[List[float], List[float]]:
    """One client, one request at a time: (latencies in s, answers)."""
    latencies, values = [], []
    for raw in raws:
        t0 = time.perf_counter()
        values.append(float(answer(raw)))
        latencies.append(time.perf_counter() - t0)
    return latencies, values


def servable_spec(encoder: str, normalizer: Sequence[float]) -> ServableSpec:
    return ServableSpec(
        target="band_gap",
        encoder_name=encoder,
        cutoff=workflows.MATERIALS_CUTOFF,
        normalizer=[float(normalizer[0]), float(normalizer[1])],
        **ENCODER,
        **HEADS,
    )


def _all_finite(values: Sequence[float]) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    """Set-up happens in ``__init__``; ``unit(u)`` runs and checks one unit.

    ``unit`` returns ``{"wall_s", "cpu_s", "items", "attempted", "digest",
    "request_s", "counters"}``: ``items`` are operations that succeeded out
    of ``attempted``; ``digest`` is what ``expected.json`` pins; ``counters``
    feed the per-layer metrics that are counts, not times.
    """

    name = ""

    def __init__(self, seed: int, shape: Dict[str, int], workdir: str):
        self.seed = seed
        self.shape = shape
        self.workdir = workdir

    def unit_seed(self, u: int) -> int:
        index = WORKLOAD_NAMES.index(self.name)
        return int(np.random.SeedSequence([self.seed, index, u]).generate_state(1)[0])

    def unit(self, u: int, shape: Optional[Dict[str, int]] = None) -> Dict[str, object]:
        raise NotImplementedError

    def nominal_items(self, shape: Dict[str, int]) -> int:
        """Operations one unit of this shape attempts."""
        raise NotImplementedError

    def _request_raws(self, u: int, shape: Dict[str, int]) -> List[object]:
        """The closed-loop phase's requests: seeded draws from the corpus."""
        picks = np.random.default_rng(self.unit_seed(u)).integers(
            0, len(self.raws), size=shape["requests"]
        )
        return [self.raws[i] for i in picks]


class PretrainDDP(Workload):
    """The paper's DDP shape: 8 ranks x 2 samples per step, shuffled loader.

    ``models``/``autograd``/``kernels``/``nn`` do most of the work on many
    tiny per-rank batches; ``datasets``/``data`` do almost none.
    """

    name = "pretrain_ddp"
    WORLD = 8
    PER_RANK = 2

    def __init__(self, seed, shape, workdir):
        super().__init__(seed, shape, workdir)
        self.transform = StructureToGraph(cutoff=workflows.SYMMETRY_CUTOFF)
        clouds = SymmetryPointCloudDataset(
            shape["request_pool"], seed=CORPUS_SEED, max_points=32
        )
        self.raws = list(clouds.materialize())

    def nominal_items(self, shape):
        batch = self.WORLD * self.PER_RANK
        return shape["train_samples"] // batch * batch * shape["max_epochs"]

    def unit(self, u, shape=None):
        shape = shape or self.shape
        config = PretrainConfig(
            encoder=EncoderConfig(name="egnn", **ENCODER),
            train_samples=shape["train_samples"],
            val_samples=shape["val_samples"],
            world_size=self.WORLD,
            batch_per_worker=self.PER_RANK,
            max_epochs=shape["max_epochs"],
            seed=self.unit_seed(u),
            **HEADS,
        )
        with Stopwatch() as sw:
            result = workflows.pretrain_symmetry(config)
        _, val_ce = result.history.series("val", "ce")
        check(len(val_ce) == config.max_epochs, f"{len(val_ce)} validation passes")
        check(_all_finite(val_ce), f"non-finite validation CE {val_ce}")

        task = result.task.eval()

        def answer(raw):
            total, count = task.validation_step(collate_graphs([self.transform(raw)]))["ce"]
            return total / count

        latencies, values = closed_loop(answer, self._request_raws(u, shape))
        check(_all_finite(values), "non-finite closed-loop CE")
        items = self.nominal_items(shape)
        return {
            "wall_s": sw.wall_s,
            "cpu_s": sw.cpu_s,
            "items": items,
            "attempted": items,
            "digest": {
                "final_val_ce": val_ce[-1],
                "best_val_ce": min(val_ce),
                "request_ce_sum": math.fsum(values),
            },
            "request_s": latencies,
            "counters": {},
        }


class FinetuneMaterials(Workload):
    """The Fig. 5 shape: one large batch per step, the same 240 structures
    revisited every epoch, crystal synthesis paid on every call."""

    name = "finetune_materials"
    BATCH = 16

    def __init__(self, seed, shape, workdir):
        super().__init__(seed, shape, workdir)
        crystals = MaterialsProjectSurrogate(shape["request_pool"], seed=CORPUS_SEED)
        self.raws = list(crystals.materialize())

    def nominal_items(self, shape):
        return shape["train_samples"] // self.BATCH * self.BATCH * shape["max_epochs"]

    def unit(self, u, shape=None):
        shape = shape or self.shape
        config = FinetuneConfig(
            encoder=EncoderConfig(name="megnet", **ENCODER),
            dataset="materials_project",
            target="band_gap",
            train_samples=shape["train_samples"],
            val_samples=shape["val_samples"],
            batch_size=self.BATCH,
            max_epochs=shape["max_epochs"],
            world_size=1,
            seed=self.unit_seed(u),
            **HEADS,
        )
        with Stopwatch() as sw:
            result = workflows.train_property(config)
        check(len(result.curve_mae) == config.max_epochs, f"{len(result.curve_mae)} validation passes")
        check(_all_finite(result.curve_mae), "non-finite validation MAE")

        # The train -> serve hand-off every `repro predict --bootstrap` makes.
        spec = servable_spec("megnet", result.task.normalizer.stats[config.target])
        servable = Servable(result.task, spec)
        latencies, values = closed_loop(
            lambda raw: servable.predict_one(servable.prepare(raw)),
            self._request_raws(u, shape),
        )
        check(_all_finite(values), "non-finite closed-loop prediction")
        items = self.nominal_items(shape)
        return {
            "wall_s": sw.wall_s,
            "cpu_s": sw.cpu_s,
            "items": items,
            "attempted": items,
            "digest": {
                "final_mae": result.final_mae,
                "best_mae": result.best_mae,
                "request_value_sum": math.fsum(values),
            },
            "request_s": latencies,
            "counters": {},
        }


def _status_counts(report) -> List[int]:
    return [report.ok, report.shed, report.timeout, report.failed]


class ServeTrace(Workload):
    """Inference under ``no_grad`` + batch-invariant kernels: both event
    loops on one seeded Poisson trace, then batch-1 closed-loop requests."""

    name = "serve_trace"

    def __init__(self, seed, shape, workdir):
        super().__init__(seed, shape, workdir)
        crystals = MaterialsProjectSurrogate(shape["request_pool"], seed=CORPUS_SEED)
        self.raws = list(crystals.materialize())
        spec = servable_spec("gaanet", normalizer=(0.25, 1.5))
        registry = ModelRegistry(workdir)
        registry.save("gaanet_bench", spec.build_task(), spec)
        # A fresh registry object has an empty cache: this load reads the
        # archive back and verifies its CRC, as a serving process does.
        self.servable = ModelRegistry(workdir).load("gaanet_bench")
        self.batch = BatchPolicy(max_batch_size=SERVE_BATCH, max_wait=SERVICE(1))
        self.admission = AdmissionPolicy(max_queue_depth=16, deadline=3 * SERVICE(SERVE_BATCH))

    def nominal_items(self, shape):
        return 2 * shape["trace_requests"] + shape["requests"]

    def unit(self, u, shape=None):
        shape = shape or self.shape
        servable = self.servable
        unit_seed = self.unit_seed(u)
        count = shape["trace_requests"]
        picks = np.random.default_rng(unit_seed).integers(0, len(self.raws), size=count)
        closed_raws = [self.raws[i] for i in picks[: shape["requests"]]]

        with Stopwatch() as sw:
            samples = [servable.prepare(self.raws[i]) for i in picks]
            arrivals = poisson_arrivals(SERVE_RATE, count, seed=unit_seed)
            requests = make_requests(samples, arrivals)
            server = InferenceServer(
                servable, batch=self.batch, admission=self.admission, service_model=SERVICE
            )
            report = server.serve(requests)
            clock = SimClock()
            pool = ReplicaPool(
                servable.predict,
                num_replicas=SERVE_REPLICAS,
                batch=self.batch,
                admission=self.admission,
                service_model=SERVICE,
                chaos=chaos_schedule(
                    SERVE_CHAOS, SERVE_REPLICAS, float(arrivals[-1]), seed=unit_seed
                ),
                clock=clock,
                observer=Observer(clock=clock),
                seed=0,
            )
            pool_report = pool.serve(requests)
            latencies, closed = closed_loop(
                lambda raw: servable.predict_one(servable.prepare(raw)), closed_raws
            )

        for name, rep in (("server", report), ("pool", pool_report)):
            ids = sorted(r.request_id for r in rep.responses)
            check(ids == list(range(count)), f"{name}: not exactly one response per request")
        served = {r.request_id: r.value for r in report.responses if r.ok}
        # Contract 1: a batched answer equals the answer served alone.
        sampled = sorted(served)[:: max(1, len(served) // SERVE_SAMPLED)][:SERVE_SAMPLED]
        for rid in sampled:
            alone = servable.predict_one(samples[rid])
            check(served[rid] == alone, f"request {rid}: batched {served[rid]!r} != alone {alone!r}")
        # Contract 2: failover never changes an answer.
        pool_ok = [r for r in pool_report.responses if r.ok]
        for r in pool_ok:
            if r.request_id in served:
                check(r.value == served[r.request_id], f"request {r.request_id}: pool != server")
        check(_all_finite(closed), "non-finite closed-loop prediction")

        counter = lambda key: pool_report.metrics.get(key, {}).get("value", 0.0)
        return {
            "wall_s": sw.wall_s,
            "cpu_s": sw.cpu_s,
            "items": report.ok + pool_report.ok + len(closed),
            "attempted": self.nominal_items(shape),
            "digest": {
                "server": _status_counts(report),
                "pool": _status_counts(pool_report),
                "server_value_sum": math.fsum(served.values()),
                "pool_value_sum": math.fsum(r.value for r in pool_ok),
                "closed_value_sum": math.fsum(closed),
            },
            "request_s": latencies,
            "counters": {
                "serving.ok": report.ok + pool_report.ok,
                "serving.shed": report.shed + pool_report.shed,
                "serving.timeout": report.timeout + pool_report.timeout,
                "serving.failed": report.failed + pool_report.failed,
                "serving.pool.hedges": counter("serve.hedge.launched"),
                "serving.pool.failovers": counter("serve.failover.launched"),
                "serving.batch.mean_size": report.mean_batch_size,
                "serving.modeled.latency_p99_ms": report.p99_latency * 1e3,
                "serving.modeled.goodput_rps": report.goodput(self.admission.deadline),
            },
        }


class ScreenFunnel(Workload):
    """Every candidate is unique, so the working set never fits a transform
    cache — the bypass partner of ``finetune_materials``."""

    name = "screen_funnel"

    def __init__(self, seed, shape, workdir):
        super().__init__(seed, shape, workdir)
        parents = MaterialsProjectSurrogate(shape["parents"], seed=CORPUS_SEED)
        self.pool = parents.materialize()
        spec = servable_spec("schnet", normalizer=(0.25, 1.5))
        self.servable = Servable(spec.build_task(), spec)
        # The force field is a function of the spec alone; this copy only
        # re-scores the winner in the output check.
        self.check_relaxer = ForceFieldRelaxer.from_spec(spec, step_size=ScreenConfig.relax_step_size)

    def nominal_items(self, shape):
        return shape["n_candidates"]

    def unit(self, u, shape=None):
        shape = shape or self.shape
        servable = self.servable
        unit_seed = self.unit_seed(u)
        config = ScreenConfig(
            n_candidates=shape["n_candidates"],
            top_k=shape["top_k"],
            batch_size=16,
            relax_steps=1,
            num_shards=2,
            seed=unit_seed,
        )
        with Stopwatch() as sw:
            # Building the generator builds its swap table: part of the unit.
            generator = CandidateGenerator(base=self.pool, seed=unit_seed)
            result = pipeline.run_screening(servable, config, generator=generator)

        ranked = result.ranked
        keys = [entry.key for entry in ranked]
        check(result.candidates == config.n_candidates, f"{result.candidates} candidates screened")
        check(len(ranked) == config.top_k, f"{len(ranked)} ranked entries")
        check(keys == sorted(keys), "ranking is not sorted by (score, fingerprint, index)")
        check(_all_finite([entry.score for entry in ranked]), "non-finite score")
        # Contract: the batched, sharded score of the winner equals its
        # score when relaxed and scored alone.
        alone = pipeline.score_candidates(
            servable, [generator.candidate(ranked[0].index)], self.check_relaxer, config.relax_steps
        )[0]
        check(alone == ranked[0].score, f"winner scored {ranked[0].score!r} batched, {alone!r} alone")

        # Closed loop on candidates the funnel never saw.
        raws = [
            generator.candidate(config.n_candidates + i).structure
            for i in range(shape["requests"])
        ]
        latencies, values = closed_loop(
            lambda raw: servable.predict_one(servable.prepare(raw)), raws
        )
        check(_all_finite(values), "non-finite closed-loop prediction")
        identity = ",".join(f"{entry.fingerprint}:{entry.index}" for entry in ranked)
        return {
            "wall_s": sw.wall_s,
            "cpu_s": sw.cpu_s,
            "items": result.candidates,
            "attempted": config.n_candidates,
            "digest": {
                "scores": [entry.score for entry in ranked],
                "ranked_sha256": hashlib.sha256(identity.encode()).hexdigest(),
                "admitted": result.admitted,
                "closed_value_sum": math.fsum(values),
            },
            "request_s": latencies,
            "counters": {
                "screening.admitted": result.admitted,
                "screening.offered": result.candidates,
            },
        }


WORKLOADS = {cls.name: cls for cls in (PretrainDDP, FinetuneMaterials, ServeTrace, ScreenFunnel)}
