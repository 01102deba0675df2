"""Differential bit-identity tests for the screening pipeline.

The screening exactness contract (DESIGN.md §15) extends the serving
batch-invariance guarantee to the whole generate → (relax) → predict →
rank funnel: for a fixed (servable, seed), the scores — and therefore
the ranking — are the *same bits* whether candidates are scored one at a
time or in batches of any size, on one shard or many, with fused or
reference kernels.  Every comparison here is ``np.array_equal`` /
``==``, never ``allclose``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.autograd import batch_invariant_kernels, no_grad
from repro.data.batching import collate_graphs
from repro.data.structures import GraphSample
from repro.kernels import use_fused
from repro.screening import (
    CandidateGenerator,
    ForceFieldRelaxer,
    NonFiniteScoreError,
    ScreenConfig,
    run_screening,
    score_candidates,
)
from repro.serving import Servable, ServableSpec

pytestmark = pytest.mark.screen

ENCODERS = ["egnn", "schnet", "gaanet", "megnet"]
NUM_CANDIDATES = 6
BASE_SAMPLES = 4


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
    # Untrained weights suffice for a bits contract; build_task() is seeded.
    return Servable(spec.build_task(), spec)


def candidates(seed: int = 7, count: int = NUM_CANDIDATES):
    gen = CandidateGenerator(seed=seed, base_samples=BASE_SAMPLES)
    return list(gen.stream(count))


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
@pytest.mark.parametrize("encoder_name", ENCODERS)
def test_batched_scores_equal_one_at_a_time(encoder_name, fused):
    """One batched forward == N single forwards, bit for bit."""
    with use_fused(fused):
        servable = build_servable(encoder_name)
        cands = candidates()
        batched = np.array(score_candidates(servable, cands))
        single = np.array(
            [score_candidates(servable, [c])[0] for c in cands]
        )
    assert np.array_equal(batched, single), (
        f"{encoder_name} (fused={fused}): batched screening scores changed "
        f"bits (max diff {np.abs(batched - single).max():.3e})"
    )


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
@pytest.mark.parametrize("encoder_name", ENCODERS)
def test_batch_composition_does_not_change_bits(encoder_name, fused):
    """A candidate's score is independent of its batch neighbours."""
    with use_fused(fused):
        servable = build_servable(encoder_name)
        cands = candidates()
        in_first = score_candidates(servable, cands[:4])[0]
        in_second = score_candidates(servable, [cands[0], cands[4], cands[5]])[0]
    assert in_first == in_second


def test_explicit_batch_invariant_context_matches_pipeline():
    """Scoring under a caller-held batch_invariant_kernels() context is a
    no-op: the servable already pins the kernels internally."""
    servable = build_servable("egnn")
    cands = candidates()
    plain = score_candidates(servable, cands)
    with batch_invariant_kernels():
        wrapped = score_candidates(servable, cands)
    assert plain == wrapped


@pytest.mark.parametrize("batch_size,num_shards", [(1, 1), (4, 1), (16, 1),
                                                   (4, 2), (1, 3), (5, 4)])
def test_pipeline_layout_invariance(batch_size, num_shards):
    """(batch_size, num_shards) change only the execution layout."""
    servable = build_servable("egnn")

    def run(bs, shards):
        cfg = ScreenConfig(
            n_candidates=12, top_k=5, batch_size=bs, num_shards=shards,
            seed=7, base_samples=BASE_SAMPLES,
        )
        return run_screening(servable, cfg)

    reference = run(1, 1)
    other = run(batch_size, num_shards)
    assert [e.key for e in other.ranked] == [e.key for e in reference.ranked]
    assert other.candidates == reference.candidates == 12


@pytest.mark.parametrize("encoder_name", ["egnn", "schnet"])
def test_relaxation_is_batch_invariant(encoder_name):
    """Relaxed positions and post-relaxation scores match one-at-a-time.

    Covers both force paths: egnn's equivariant head and schnet's
    direct-gradient fallback inside EnergyForceTask.
    """
    servable = build_servable(encoder_name)
    relaxer = ForceFieldRelaxer.from_spec(servable.spec)
    cands = candidates(seed=3, count=4)
    samples = [servable.prepare(c.structure) for c in cands]

    together = relaxer.relax(samples, steps=2)
    alone = [relaxer.relax([s], steps=2)[0] for s in samples]
    for i, (a, b) in enumerate(zip(together, alone)):
        assert np.array_equal(a.positions, b.positions), (
            f"{encoder_name}: candidate {i} relaxed differently in a batch"
        )

    batched_scores = score_candidates(servable, cands, relaxer, relax_steps=2)
    single_scores = [
        score_candidates(servable, [c], relaxer, relax_steps=2)[0]
        for c in cands
    ]
    assert batched_scores == single_scores


def test_relaxation_moves_positions_and_changes_scores():
    """Relaxation is not a no-op (guards the invariance tests' power)."""
    servable = build_servable("egnn")
    relaxer = ForceFieldRelaxer.from_spec(servable.spec)
    cands = candidates(seed=3, count=3)
    samples = [servable.prepare(c.structure) for c in cands]
    relaxed = relaxer.relax(samples, steps=2)
    assert any(
        not np.array_equal(a.positions, b.positions)
        for a, b in zip(samples, relaxed)
    )
    raw = score_candidates(servable, cands)
    settled = score_candidates(servable, cands, relaxer, relax_steps=2)
    assert raw != settled


def test_relaxation_does_not_mutate_inputs():
    servable = build_servable("egnn")
    relaxer = ForceFieldRelaxer.from_spec(servable.spec)
    sample = servable.prepare(candidates(seed=3, count=1)[0].structure)
    before = sample.positions.copy()
    relaxer.relax([sample], steps=2)
    assert np.array_equal(sample.positions, before)


@pytest.mark.parametrize("encoder_name", ["egnn", "schnet"])
def test_relaxer_forces_skip_the_energy_head(encoder_name, monkeypatch):
    """The relaxer reads forces through ``EnergyForceTask.forces``: the
    same bits as ``predict(batch)[1]``, without the energy head that
    ``predict`` also runs and the relaxer would throw away."""
    servable = build_servable(encoder_name)
    relaxer = ForceFieldRelaxer.from_spec(servable.spec)
    samples = [servable.prepare(c.structure) for c in candidates(seed=3, count=4)]
    with no_grad(), batch_invariant_kernels():
        _, expected = relaxer.task.predict(collate_graphs(samples))

    entered = []
    head = relaxer.task.energy_head
    forward = head.forward
    monkeypatch.setattr(head, "forward", lambda *a: entered.append(a) or forward(*a))
    forces = relaxer._forces(samples)
    assert not entered
    assert np.array_equal(forces, expected.data)
    relaxer.task.predict(collate_graphs(samples))
    assert entered  # the probe sees the head when it does run


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "reference"])
def test_end_to_end_ranking_is_fused_mode_invariant(fused):
    """The reference kernels and fused kernels agree on the final ranking.

    Kernel equivalence is pinned elsewhere at the op level
    (tests/test_kernels_fused.py); this checks nothing in the screening
    funnel re-introduces a mode dependence.
    """
    with use_fused(fused):
        servable = build_servable("schnet")
        cfg = ScreenConfig(
            n_candidates=10, top_k=4, batch_size=4, seed=5,
            base_samples=BASE_SAMPLES,
        )
        result = run_screening(servable, cfg)
    # Identities (fingerprint, index) must not depend on kernel mode even
    # if fused scores differ in the last ulp: compare against a fresh
    # reference-mode run.
    with use_fused(False):
        servable_ref = build_servable("schnet")
        reference = run_screening(servable_ref, cfg)
    assert [(e.fingerprint, e.index) for e in result.ranked] == [
        (e.fingerprint, e.index) for e in reference.ranked
    ]


# --------------------------------------------------------------------------- #
# Swap-only graph == from-scratch graph
# --------------------------------------------------------------------------- #
def _recorded_run(servable, cfg, generator):
    """``run_screening`` with every ``prepare`` call counted and every
    sample handed to ``predict`` recorded, in stream order."""
    prepared, predicted = [], []
    prepare, predict = servable.prepare, servable.predict

    def counting_prepare(structure):
        prepared.append(structure)
        return prepare(structure)

    def recording_predict(samples):
        predicted.extend(samples)
        return predict(samples)

    servable.prepare, servable.predict = counting_prepare, recording_predict
    try:
        run_screening(servable, cfg, generator=generator)
    finally:
        del servable.prepare, servable.predict
    return prepared, predicted


def _fields_equal(a: GraphSample, b: GraphSample) -> bool:
    for f in dataclasses.fields(GraphSample):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if x is None or y is None or not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("encoder_name", ENCODERS)
def test_swap_only_graph_equals_from_scratch_graph(encoder_name):
    """Swap-only candidates reuse their parent's graph by construction;
    the reused sample is field-for-field what ``prepare`` builds, strained
    candidates never reuse, and each parent's graph is built once."""
    servable = build_servable(encoder_name)
    gen = CandidateGenerator(seed=11, base_samples=BASE_SAMPLES)
    cfg = ScreenConfig(n_candidates=24, top_k=4, batch_size=5, num_shards=1)
    prepared, predicted = _recorded_run(servable, cfg, gen)
    cands = list(gen.stream(cfg.n_candidates))
    assert len(predicted) == len(cands)

    swap_only = [c for c in cands if not c.strained]
    strained = [c for c in cands if c.strained]
    assert swap_only and strained  # the stream exercises both paths
    assert len(prepared) == len({c.parent_index for c in swap_only}) + len(strained)

    for c, sample in zip(cands, predicted):
        assert _fields_equal(sample, servable.prepare(c.structure)), c.index
        assert sample.positions.flags.writeable == c.strained
        assert sample.edge_src.flags.writeable == c.strained
        assert sample.edge_dst.flags.writeable == c.strained


def test_shared_parent_graph_rejects_writes():
    servable = build_servable("egnn")
    gen = CandidateGenerator(seed=11, base_samples=BASE_SAMPLES)
    cfg = ScreenConfig(n_candidates=12, top_k=4, batch_size=4)
    _, predicted = _recorded_run(servable, cfg, gen)
    shared = [s for s, c in zip(predicted, gen.stream(12)) if not c.strained]
    assert shared
    for array in (shared[0].positions, shared[0].edge_src, shared[0].edge_dst):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("relax_steps", [0, 1])
def test_graph_reuse_leaves_the_ranking_unchanged(relax_steps):
    """``run_screening`` (parent graphs reused) ranks exactly like scoring
    every candidate through ``score_candidates`` (all from scratch)."""
    servable = build_servable("schnet")
    gen = CandidateGenerator(seed=11, base_samples=BASE_SAMPLES)
    cfg = ScreenConfig(n_candidates=16, top_k=16, batch_size=3, num_shards=2,
                       relax_steps=relax_steps)
    result = run_screening(servable, cfg, generator=gen)
    relaxer = ForceFieldRelaxer.from_spec(servable.spec) if relax_steps else None
    scratch = {
        c.index: score_candidates(servable, [c], relaxer, relax_steps)[0]
        for c in gen.stream(cfg.n_candidates)
    }
    assert [e.score for e in result.ranked] == [scratch[e.index] for e in result.ranked]
    assert len(result.ranked) == cfg.n_candidates


def test_non_finite_score_names_the_candidate():
    """A servable answering NaN stops the run with the candidate's index
    instead of silently evicting finite entries from the ranking."""
    servable = build_servable("egnn")
    predict = servable.predict
    calls = []

    def nan_in_second_batch(samples):
        scores = np.asarray(predict(samples), dtype=np.float64)
        calls.append(len(samples))
        if len(calls) == 2:
            scores[2] = np.nan
        return scores

    servable.predict = nan_in_second_batch
    cfg = ScreenConfig(n_candidates=12, top_k=4, batch_size=4, seed=7,
                       base_samples=BASE_SAMPLES)
    with pytest.raises(NonFiniteScoreError, match="candidate 6"):
        run_screening(servable, cfg)
