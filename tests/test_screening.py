"""Property-based sweep over the screening primitives.

Seeded random-case sweeps over the three determinism-critical pieces of
the screening subsystem (DESIGN.md §15):

* the element-swap table — bit-stable construction, symmetric similarity,
  (distance, atomic number) neighbour ordering;
* the candidate generator — ``candidate(i)`` a pure function of
  ``(seed, i)``, so the stream is identical under any consumption
  chunking and shards partition the index space exactly;
* the streaming top-k ranker — equal to a full sort on random score
  streams *including ties*, with sharded merge equal to single-shard.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.datasets.materials_project import DEFAULT_ELEMENT_POOL
from repro.datasets.periodic_table import MAX_Z, element
from repro.screening import (
    Candidate,
    CandidateGenerator,
    NonFiniteScoreError,
    RankedCandidate,
    SwapTable,
    TopK,
    formula,
    structure_fingerprint,
)

pytestmark = pytest.mark.screen


# --------------------------------------------------------------------------- #
# Swap table
# --------------------------------------------------------------------------- #
class TestSwapTable:
    @pytest.mark.parametrize("pool,k", [
        (None, 8),
        (DEFAULT_ELEMENT_POOL, 6),
        (tuple(range(1, 37)), 4),
        ((26, 27, 28, 29, 44, 45, 46, 47), 3),
    ])
    def test_construction_is_deterministic(self, pool, k):
        """Two independent builds agree entry for entry (and by fingerprint)."""
        a = SwapTable(element_pool=pool, num_neighbors=k)
        b = SwapTable(element_pool=pool, num_neighbors=k)
        assert a.element_pool == b.element_pool
        for z in a.element_pool:
            assert a.neighbors(z) == b.neighbors(z)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("seed", range(8))
    def test_similarity_is_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        table = SwapTable()
        a, b = rng.choice(MAX_Z, size=2, replace=False) + 1
        assert table.distance(int(a), int(b)) == table.distance(int(b), int(a))
        assert table.distance(int(a), int(a)) == 0.0
        assert table.distance(int(a), int(b)) >= 0.0

    @pytest.mark.parametrize("z", [1, 6, 8, 14, 26, 29, 47, 79])
    def test_neighbors_ordered_by_distance_then_z(self, z):
        """The neighbour list realizes the (distance, atomic number) order."""
        table = SwapTable()
        neighbors = table.neighbors(z)
        assert len(neighbors) == table.num_neighbors
        assert z not in neighbors
        assert len(set(neighbors)) == len(neighbors)
        keys = [(table.distance(z, o), o) for o in neighbors]
        assert keys == sorted(keys)
        # Nothing outside the kept list is strictly closer than the last
        # kept neighbour (k-NN correctness under the total order).
        worst = keys[-1]
        for other in table.element_pool:
            if other == z or other in neighbors:
                continue
            assert (table.distance(z, other), other) > worst

    def test_neighbors_stay_in_pool(self):
        pool = (3, 11, 19, 37, 55, 26, 27, 28)
        table = SwapTable(element_pool=pool, num_neighbors=3)
        for z in pool:
            assert set(table.neighbors(z)) <= set(pool)

    def test_chemically_sane_example(self):
        """Fe's nearest neighbours are transition metals, not halogens."""
        table = SwapTable(num_neighbors=5)
        halogens = {9, 17, 35, 53, 85}
        assert not (set(table.neighbors(26)) & halogens)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            SwapTable(element_pool=(26,))
        with pytest.raises(ValueError):
            SwapTable(element_pool=(26, 27), num_neighbors=2)
        small = SwapTable(element_pool=(26, 27), num_neighbors=1)
        with pytest.raises(KeyError):
            small.neighbors(1)
        with pytest.raises(KeyError):
            small.distance(26, 1)


# --------------------------------------------------------------------------- #
# Candidate generator
# --------------------------------------------------------------------------- #
def _stream_signature(candidates):
    return [
        (c.index, c.parent_index, c.fingerprint, c.ops) for c in candidates
    ]


class TestCandidateGenerator:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, 101])
    def test_same_seed_same_stream(self, seed):
        """Bit-identical candidates from independent generator instances."""
        a = CandidateGenerator(seed=seed, base_samples=6)
        b = CandidateGenerator(seed=seed, base_samples=6)
        ca = list(a.stream(10))
        cb = list(b.stream(10))
        assert _stream_signature(ca) == _stream_signature(cb)
        for x, y in zip(ca, cb):
            assert np.array_equal(x.structure.positions, y.structure.positions)
            assert np.array_equal(x.structure.species, y.structure.species)

    def test_different_seeds_differ(self):
        a = list(CandidateGenerator(seed=0, base_samples=6).stream(6))
        b = list(CandidateGenerator(seed=1, base_samples=6).stream(6))
        assert _stream_signature(a) != _stream_signature(b)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 20])
    def test_stream_independent_of_consumption_chunking(self, chunk):
        """Random access, chunked, and sequential reads see the same stream."""
        gen = CandidateGenerator(seed=5, base_samples=6)
        sequential = _stream_signature(gen.stream(20))
        chunked = []
        for start in range(0, 20, chunk):
            chunked.extend(gen.stream(min(chunk, 20 - start), start=start))
        assert _stream_signature(chunked) == sequential

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_shards_partition_the_stream_exactly(self, num_shards):
        gen = CandidateGenerator(seed=9, base_samples=6)
        full = _stream_signature(gen.stream(17))
        sharded = []
        for s in range(num_shards):
            sharded.extend(_stream_signature(gen.shard(17, s, num_shards)))
        assert sorted(sharded) == sorted(full)
        assert len(sharded) == len(full)  # disjoint: no index twice

    @pytest.mark.parametrize("seed", [2, 13])
    def test_mutations_stay_in_pool_and_finite(self, seed):
        gen = CandidateGenerator(seed=seed, base_samples=6)
        pool = set(gen.swap_table.element_pool)
        for c in gen.stream(8):
            assert set(int(z) for z in c.structure.species) <= pool
            assert np.all(np.isfinite(c.structure.positions))
            assert c.structure.lattice is not None
            assert c.structure.lattice.volume > 0
            assert len(c.ops) >= 1

    def test_candidate_differs_from_parent(self):
        gen = CandidateGenerator(seed=3, base_samples=6)
        c = gen.candidate(0)
        parent = gen.base[c.parent_index]
        assert c.fingerprint != structure_fingerprint(parent)

    def test_strain_preserves_fractional_coordinates(self):
        """A strained cell moves atoms with the lattice, not through it."""
        gen = CandidateGenerator(
            seed=11, base_samples=6, strain_prob=1.0, max_swaps=1
        )
        for c in gen.stream(4):
            parent = gen.base[c.parent_index]
            frac_parent = parent.positions @ np.linalg.inv(parent.lattice.matrix)
            frac_child = c.structure.positions @ np.linalg.inv(
                c.structure.lattice.matrix
            )
            assert np.allclose(frac_parent, frac_child, atol=1e-10)

    def test_fingerprint_is_content_addressed(self):
        gen = CandidateGenerator(seed=4, base_samples=6)
        c = gen.candidate(3)
        assert c.fingerprint == structure_fingerprint(c.structure)
        rebuilt = Candidate(
            index=c.index,
            structure=c.structure,
            parent_index=c.parent_index,
            ops=c.ops,
        )
        assert rebuilt.fingerprint == c.fingerprint

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            CandidateGenerator(max_swaps=0)
        with pytest.raises(ValueError):
            CandidateGenerator(strain_prob=1.5)
        gen = CandidateGenerator(base_samples=4)
        with pytest.raises(IndexError):
            gen.candidate(-1)
        with pytest.raises(ValueError):
            list(gen.shard(10, 3, 3))


#: sha256 over the first 256 candidates of ``CandidateGenerator(seed=7,
#: base_samples=8)`` — species, positions, lattice, ops, parent index,
#: parent formula and fingerprint — recorded on the commit before the
#: parent-formula memo and the ``Counter``-based ``formula`` went in.
CANDIDATE_STREAM_SHA256 = "2ea1609189ded6dac8cb3f1da41a625533263cd742016261f64eca4d74369e91"


def candidate_stream_sha256(gen, count=256):
    digest = hashlib.sha256()
    for c in gen.stream(count):
        s = c.structure
        digest.update(np.ascontiguousarray(s.species, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(s.positions, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(s.lattice.matrix, dtype=np.float64).tobytes())
        digest.update(
            repr((c.ops, c.parent_index, s.metadata["parent_formula"], c.fingerprint)).encode()
        )
    return digest.hexdigest()


def test_candidate_stream_is_bit_identical_to_the_recorded_commit():
    assert candidate_stream_sha256(CandidateGenerator(seed=7, base_samples=8)) == (
        CANDIDATE_STREAM_SHA256
    )


def _oracle_formula(species):
    """``formula`` as first written: one ``np.unique`` per call."""
    zs, counts = np.unique(np.asarray(species, dtype=np.int64), return_counts=True)
    return "".join(
        f"{element(int(z)).symbol}{int(c) if c > 1 else ''}"
        for z, c in zip(zs, counts)
    )


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int64, st.integers(0, 24), elements=st.integers(1, MAX_Z)))
@example(np.zeros(0, dtype=np.int64))
@example(np.array([26]))
@example(np.array([8, 26, 8, 1, 26, 8]))
def test_formula_equals_the_unique_oracle(species):
    assert formula(species) == _oracle_formula(species)


# --------------------------------------------------------------------------- #
# Streaming top-k ranker
# --------------------------------------------------------------------------- #
def _random_stream(rng, n, tie_scores=True):
    """(score, fingerprint, index) stream with deliberate score ties."""
    if tie_scores:
        scores = rng.choice([-2.0, -1.0, -1.0, 0.0, 0.5, 0.5, 3.0], size=n)
    else:
        scores = rng.normal(size=n)
    fingerprints = [f"{rng.integers(0, 16**8):08x}" for _ in range(n)]
    return [
        (float(scores[i]), fingerprints[i], i) for i in range(n)
    ]


class TestTopK:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_streaming_equals_full_sort_with_ties(self, seed, k):
        rng = np.random.default_rng(seed)
        stream = _random_stream(rng, 120, tie_scores=True)
        ranker = TopK(k)
        for score, fp, idx in stream:
            ranker.offer(score, fp, idx)
        expected = sorted(stream)[:k]
        assert [(e.score, e.fingerprint, e.index) for e in ranker.ranked()] == expected
        assert ranker.offered == 120
        assert len(ranker) == min(k, 120)

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_arrival_order_does_not_matter(self, seed):
        rng = np.random.default_rng(seed)
        stream = _random_stream(rng, 60)
        shuffled = list(stream)
        rng.shuffle(shuffled)
        a, b = TopK(7), TopK(7)
        for item in stream:
            a.offer(*item)
        for item in shuffled:
            b.offer(*item)
        assert [e.key for e in a.ranked()] == [e.key for e in b.ranked()]

    @pytest.mark.parametrize("seed", [1, 4])
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_sharded_merge_equals_single_shard(self, seed, num_shards):
        rng = np.random.default_rng(seed)
        stream = _random_stream(rng, 90, tie_scores=True)
        single = TopK(10)
        for item in stream:
            single.offer(*item)
        shards = [TopK(10) for _ in range(num_shards)]
        for i, item in enumerate(stream):
            shards[i % num_shards].offer(*item)
        merged = TopK.merge(shards)
        assert [e.key for e in merged.ranked()] == [e.key for e in single.ranked()]
        assert merged.offered == single.offered

    def test_duplicate_structures_break_ties_by_index(self):
        """Identical (score, fingerprint) pairs still order totally."""
        ranker = TopK(3)
        ranker.offer(1.0, "aaaa", 9)
        ranker.offer(1.0, "aaaa", 2)
        ranker.offer(1.0, "aaaa", 5)
        assert [e.index for e in ranker.ranked()] == [2, 5, 9]

    def test_threshold_and_admission_accounting(self):
        ranker = TopK(2)
        assert ranker.ranked() == []
        assert ranker.offer(2.0, "b", 0)
        assert ranker.offer(1.0, "a", 1)
        assert ranker.ranked()[-1].key == (2.0, "b", 0)
        assert not ranker.offer(3.0, "c", 2)  # above the cut: rejected
        assert ranker.offer(0.5, "d", 3)      # below: evicts the worst
        assert ranker.ranked()[-1].key == (1.0, "a", 1)
        assert ranker.offered == 4
        assert ranker.admitted == 3

    def test_payload_travels_with_the_entry(self):
        ranker = TopK(1)
        ranker.offer(1.0, "ff", 0, payload={"formula": "Fe2O3"})
        assert ranker.ranked()[0].payload["formula"] == "Fe2O3"

    def test_merge_respects_explicit_k(self):
        parts = [TopK(5), TopK(5)]
        for i in range(10):
            parts[i % 2].offer(float(i), f"{i:04x}", i)
        merged = TopK.merge(parts, k=3)
        assert [e.index for e in merged.ranked()] == [0, 1, 2]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            TopK(0)
        with pytest.raises(ValueError):
            TopK.merge([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_is_refused_before_any_state_changes(self, bad):
        """NaN compares False with everything, so it always passed the
        admission cut and broke bisect's order: offering [nan, 1.0, 0.5]
        to TopK(2) used to rank [nan, 0.5] and drop 1.0."""
        ranker = TopK(2)
        ranker.offer(1.0, "a", 1)
        ranker.offer(0.5, "b", 2)
        with pytest.raises(NonFiniteScoreError, match="candidate 0"):
            ranker.offer(bad, "c", 0)
        assert issubclass(NonFiniteScoreError, ValueError)
        assert [e.key for e in ranker.ranked()] == [(0.5, "b", 2), (1.0, "a", 1)]
        assert (ranker.offered, ranker.admitted) == (2, 2)

    def test_ranked_candidate_key(self):
        entry = RankedCandidate(1.5, "abcd", 7)
        assert entry.key == (1.5, "abcd", 7)
