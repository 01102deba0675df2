"""The screening pipeline: generate -> (relax) -> predict -> rank.

This is the second traffic-shaped workload next to training: instead of
millions of gradient steps, millions of *candidates* flow through a
trained servable.  The pipeline composes the pieces the previous layers
built — lazy seeded generation (bounded memory), optional force-field
relaxation, batched prediction under batch-invariant kernels (PR 6's
guarantee is what makes ``--batch-size`` a pure throughput knob), and
O(k) streaming ranking with a total order — and emits ``screen.*``
metrics and spans through the observability layer.

Exactness contract (DESIGN.md §15): for a fixed (servable, config seed),
the ranked result is bit-identical across batch sizes and shard counts:

    run(batch_size=B1, shards=S1).ranked == run(batch_size=B2, shards=S2).ranked
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.data.structures import GraphSample
from repro.domains import Knobs, knob
from repro.screening.generator import Candidate, CandidateGenerator
from repro.screening.ranker import RankedCandidate, TopK
from repro.screening.relax import ForceFieldRelaxer


@dataclass
class ScreenConfig(Knobs):
    """Knobs for one screening run (mirrors the ``repro screen`` CLI)."""

    n_candidates: int = knob(256, ge=1)
    top_k: int = knob(16, ge=1)
    batch_size: int = knob(16, ge=1)
    relax_steps: int = knob(0, ge=0)
    relax_step_size: float = knob(5e-3, gt=0)
    num_shards: int = knob(1, ge=1)
    seed: int = knob(0, ge=0)
    #: Parent pool: how many MaterialsProjectSurrogate crystals to mutate.
    base_samples: int = knob(32, ge=1)


@dataclass
class ScreenResult:
    """Outcome of a screening run: the ranking plus stream accounting."""

    ranked: List[RankedCandidate]
    candidates: int
    batches: int
    relax_steps: int
    num_shards: int
    elapsed: float
    admitted: int = 0
    shard_sizes: List[int] = field(default_factory=list)

    @property
    def candidates_per_sec(self) -> float:
        return self.candidates / max(self.elapsed, 1e-12)

    def summary(self) -> str:
        lines = [
            f"screened {self.candidates} candidates in {self.elapsed:.3f} s "
            f"({self.candidates_per_sec:.1f} cand/s, {self.batches} batches, "
            f"{self.num_shards} shard{'s' if self.num_shards != 1 else ''}, "
            f"{self.relax_steps} relax steps)",
            f"top-{len(self.ranked)}:",
        ]
        for rank, entry in enumerate(self.ranked, start=1):
            payload = entry.payload or {}
            lines.append(
                f"  #{rank:<3d} score {entry.score:+.6f}  "
                f"{str(payload.get('formula', '?')):<14s} "
                f"candidate {entry.index} (parent {payload.get('parent_index', '?')}, "
                f"{len(payload.get('ops', ()))} ops)  {entry.fingerprint}"
            )
        return "\n".join(lines)


def _batched(stream: Iterator[Candidate], size: int) -> Iterator[List[Candidate]]:
    batch: List[Candidate] = []
    for candidate in stream:
        batch.append(candidate)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


class _NullObserver:
    """Metrics/span no-op so the hot loop has one code path."""

    class _Span:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    class _Counter:
        def inc(self, amount: float = 1):
            return None

    def span(self, name, **attrs):
        return self._Span()

    class metrics:  # noqa: N801 - mimics MetricsRegistry surface
        @staticmethod
        def counter(name):
            return _NullObserver._Counter()


def score_candidates(
    servable,
    candidates: Sequence[Candidate],
    relaxer: Optional[ForceFieldRelaxer] = None,
    relax_steps: int = 0,
) -> List[float]:
    """Scores for a batch of candidates (one batched forward).

    Graph preparation, relaxation, and the batch-invariant forward are
    all per-sample deterministic, so these scores equal one-at-a-time
    scoring bit for bit.
    """
    samples = [servable.prepare(c.structure) for c in candidates]
    return _score_samples(servable, samples, relaxer, relax_steps)


def _score_samples(
    servable,
    samples: List[GraphSample],
    relaxer: Optional[ForceFieldRelaxer],
    relax_steps: int,
) -> List[float]:
    if relaxer is not None and relax_steps > 0:
        samples = relaxer.relax(samples, relax_steps)
    return [float(v) for v in servable.predict(samples)]


def _prepare(
    servable,
    generator: CandidateGenerator,
    candidate: Candidate,
    parent_graphs: Dict[int, GraphSample],
) -> GraphSample:
    """``servable.prepare(candidate.structure)``, reusing the parent's graph.

    A swap-only candidate has its parent's positions bit for bit (the
    generator copies them and only a strain moves them), so its centred
    positions and radius graph *are* the parent's: they are built once
    per parent into ``parent_graphs`` and shared read-only, with no
    content hash.  Everything else the sample carries comes from the
    candidate itself.
    """
    if candidate.strained:
        return servable.prepare(candidate.structure)
    template = parent_graphs.get(candidate.parent_index)
    if template is None:
        template = servable.prepare(generator.parent(candidate.parent_index))
        for shared in (template.positions, template.edge_src, template.edge_dst):
            shared.flags.writeable = False
        parent_graphs[candidate.parent_index] = template
    structure = candidate.structure
    return GraphSample(
        positions=template.positions,
        species=structure.species.copy(),
        edge_src=template.edge_src,
        edge_dst=template.edge_dst,
        targets=dict(structure.targets),
        metadata=dict(structure.metadata),
    )


def run_screening(
    servable,
    config: ScreenConfig,
    observer=None,
    relaxer: Optional[ForceFieldRelaxer] = None,
    generator: Optional[CandidateGenerator] = None,
) -> ScreenResult:
    """Screen ``config.n_candidates`` proposals through ``servable``.

    Shards partition the candidate index space; each shard ranks into its
    own :class:`TopK` and the per-shard rankings merge exactly
    (``TopK.merge``), so ``num_shards`` — like ``batch_size`` — changes
    only the execution layout, never the result.  Each parent's graph is
    built at most once per call and shared by its swap-only candidates;
    strained candidates are prepared from scratch.  A NaN or infinite
    score raises :class:`~repro.screening.ranker.NonFiniteScoreError`
    naming the candidate.
    """
    obs = observer if observer is not None else _NullObserver()
    generator = generator or CandidateGenerator(
        seed=config.seed, base_samples=config.base_samples
    )
    if relaxer is None and config.relax_steps > 0:
        relaxer = ForceFieldRelaxer.from_spec(
            servable.spec, step_size=config.relax_step_size
        )

    t0 = time.perf_counter()
    parent_graphs: Dict[int, GraphSample] = {}
    shard_rankers: List[TopK] = []
    shard_sizes: List[int] = []
    batches = 0
    with obs.span("screen.run", candidates=config.n_candidates,
                  shards=config.num_shards):
        for shard_index in range(config.num_shards):
            ranker = TopK(config.top_k)
            shard_count = 0
            stream = generator.shard(
                config.n_candidates, shard_index, config.num_shards
            )
            for batch in _batched(stream, config.batch_size):
                with obs.span("screen.batch", shard=shard_index, size=len(batch)):
                    samples = [
                        _prepare(servable, generator, c, parent_graphs)
                        for c in batch
                    ]
                    scores = _score_samples(
                        servable, samples, relaxer, config.relax_steps
                    )
                    for candidate, score in zip(batch, scores):
                        ranker.offer(
                            score,
                            candidate.fingerprint,
                            candidate.index,
                            payload={
                                "formula": candidate.formula,
                                "parent_index": candidate.parent_index,
                                "ops": candidate.ops,
                            },
                        )
                batches += 1
                shard_count += len(batch)
                obs.metrics.counter("screen.candidates").inc(len(batch))
                obs.metrics.counter("screen.batches").inc()
                if config.relax_steps > 0:
                    obs.metrics.counter("screen.relax.steps").inc(
                        config.relax_steps * len(batch)
                    )
            shard_rankers.append(ranker)
            shard_sizes.append(shard_count)
        merged = TopK.merge(shard_rankers, k=config.top_k)
    elapsed = time.perf_counter() - t0
    obs.metrics.counter("screen.topk.admitted").inc(
        sum(r.admitted for r in shard_rankers)
    )
    return ScreenResult(
        ranked=merged.ranked(),
        candidates=sum(shard_sizes),
        batches=batches,
        relax_steps=config.relax_steps,
        num_shards=config.num_shards,
        elapsed=elapsed,
        admitted=sum(r.admitted for r in shard_rankers),
        shard_sizes=shard_sizes,
    )
