"""Seeded candidate generation: mutate known crystals into new proposals.

The generator streams :class:`Candidate` records lazily — candidate ``i``
is a pure function of ``(seed, i)`` exactly like the surrogate datasets
(``np.random.default_rng((seed, tag, index))``), so the stream is
bit-identical however it is consumed: one at a time, in batches of any
size, or sharded ``i % num_shards`` across processes.  Memory stays
bounded because nothing upstream of the ranker ever holds more than one
batch of structures.

Mutations, following the element-swap templating pattern: one or more
single-site species swaps drawn from the :class:`~repro.screening.swaps.
SwapTable` (similar elements only), plus an optional small symmetric
lattice strain.  Swapped structures keep their parent's geometry —
screening's whole premise is that the surrogate (optionally after a few
relaxation steps) decides which perturbations are keepers.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.data.structures import Structure
from repro.datasets.materials_project import (
    DEFAULT_ELEMENT_POOL,
    MaterialsProjectSurrogate,
)
from repro.datasets.periodic_table import element
from repro.geometry.lattice import Lattice
from repro.screening.swaps import SwapTable

#: rng-stream tag separating candidate draws from dataset draws.
_CANDIDATE_TAG = 0x5C


def structure_fingerprint(structure: Structure) -> str:
    """Stable content hash of (species, positions, lattice).

    sha256 over the raw float64/int64 bytes: identical structures map to
    identical fingerprints in every process (unlike Python's salted
    ``hash``), which is what makes the ranker's (score, fingerprint)
    tie-break a *total* order across shards.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(structure.species, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(structure.positions, dtype=np.float64).tobytes())
    if structure.lattice is not None:
        h.update(np.ascontiguousarray(structure.lattice.matrix, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def formula(species: np.ndarray) -> str:
    """Hill-less reduced formula string, elements ordered by atomic number."""
    counts = Counter(np.asarray(species, dtype=np.int64).ravel().tolist())
    return "".join(
        f"{element(z).symbol}{c if c > 1 else ''}" for z, c in sorted(counts.items())
    )


@dataclass
class Candidate:
    """One proposed crystal plus its provenance."""

    index: int
    structure: Structure
    parent_index: int
    ops: Tuple[str, ...]
    fingerprint: str = field(default="")

    def __post_init__(self):
        if not self.fingerprint:
            self.fingerprint = structure_fingerprint(self.structure)

    @property
    def formula(self) -> str:
        return formula(self.structure.species)

    @property
    def strained(self) -> bool:
        """Whether a lattice strain moved the atoms.  An unstrained
        (swap-only) generated candidate has its parent's positions, bit for
        bit."""
        return any(op.startswith("strain:") for op in self.ops)


class CandidateGenerator:
    """Lazy, seeded stream of mutated MaterialsProjectSurrogate crystals.

    Parameters
    ----------
    base:
        Parent pool of labelled structures; defaults to a fresh
        :class:`MaterialsProjectSurrogate` of ``base_samples`` crystals
        (dataset seed 0).
    swap_table:
        Element-similarity table; defaults to one over the dataset's
        element pool so swaps never leave the training distribution.
    seed:
        Stream seed.  ``candidate(i)`` depends only on ``(seed, i)``.
    max_swaps:
        Per-candidate species swaps are drawn uniformly from 1..max_swaps.
    strain_prob / strain_scale:
        Probability and magnitude of the symmetric lattice strain applied
        after the swaps (entries ~ U(-scale, scale)).
    """

    def __init__(
        self,
        base: Optional[MaterialsProjectSurrogate] = None,
        swap_table: Optional[SwapTable] = None,
        seed: int = 0,
        base_samples: int = 32,
        max_swaps: int = 3,
        strain_prob: float = 0.5,
        strain_scale: float = 0.02,
    ):
        if max_swaps < 1:
            raise ValueError("max_swaps must be >= 1")
        if not 0.0 <= strain_prob <= 1.0:
            raise ValueError("strain_prob must be in [0, 1]")
        self.base = base or MaterialsProjectSurrogate(
            num_samples=base_samples, seed=0
        )
        self.swap_table = swap_table or SwapTable(
            element_pool=getattr(self.base, "element_pool", DEFAULT_ELEMENT_POOL)
        )
        self.seed = int(seed)
        self.max_swaps = int(max_swaps)
        self.strain_prob = float(strain_prob)
        self.strain_scale = float(strain_scale)
        # Parents are drawn from a small fixed pool but each dataset
        # __getitem__ re-synthesizes the crystal *and* its surrogate-DFT
        # labels (~ms) — far more than a mutation.  Memoize them, with
        # their formula: memory is bounded by the pool size and candidates
        # only ever read from the parent (species/positions are copied
        # before mutation).
        self._parents: Dict[int, Tuple[Structure, str]] = {}

    # ------------------------------------------------------------------ #
    def _parent(self, index: int) -> Tuple[Structure, str]:
        entry = self._parents.get(index)
        if entry is None:
            structure = self.base[index]
            entry = self._parents.setdefault(
                index, (structure, formula(structure.species))
            )
        return entry

    def parent(self, index: int) -> Structure:
        """Parent crystal ``index`` of the base pool, memoized: read only."""
        return self._parent(index)[0]

    # ------------------------------------------------------------------ #
    def candidate(self, index: int) -> Candidate:
        """Candidate ``index`` — a pure function of ``(seed, index)``."""
        if index < 0:
            raise IndexError(index)
        rng = np.random.default_rng((self.seed, _CANDIDATE_TAG, index))
        parent_index = int(rng.integers(0, len(self.base)))
        parent, parent_formula = self._parent(parent_index)
        species = parent.species.copy()
        positions = parent.positions.copy()
        lattice = parent.lattice
        ops = []

        num_swaps = int(rng.integers(1, self.max_swaps + 1))
        for _ in range(num_swaps):
            site = int(rng.integers(0, len(species)))
            old = int(species[site])
            if old in self.swap_table:
                choices = self.swap_table.neighbors(old)
                new = int(choices[int(rng.integers(0, len(choices)))])
                species[site] = new
                ops.append(f"swap[{site}]:{element(old).symbol}->{element(new).symbol}")

        if lattice is not None and rng.random() < self.strain_prob:
            # Small symmetric strain: x' = x (I + eps), applied to the
            # cell rows and the cartesian coordinates alike, so fractional
            # coordinates — and therefore the motif — are preserved.
            raw = rng.uniform(-self.strain_scale, self.strain_scale, size=(3, 3))
            eps = 0.5 * (raw + raw.T)
            deformation = np.eye(3) + eps
            lattice = Lattice(lattice.matrix @ deformation)
            positions = positions @ deformation
            ops.append(f"strain:{float(np.abs(eps).max()):.4f}")

        structure = Structure(
            positions=positions,
            species=species,
            lattice=lattice,
            targets={},
            metadata={
                "dataset": "screening",
                "parent_index": parent_index,
                "parent_formula": parent_formula,
            },
        )
        return Candidate(
            index=index,
            structure=structure,
            parent_index=parent_index,
            ops=tuple(ops),
        )

    # ------------------------------------------------------------------ #
    def stream(self, count: int, start: int = 0) -> Iterator[Candidate]:
        """Lazily yield candidates ``start .. start + count - 1``."""
        for i in range(start, start + count):
            yield self.candidate(i)

    def shard(self, count: int, shard_index: int, num_shards: int) -> Iterator[Candidate]:
        """The lazily-streamed slice ``shard_index, shard_index + num_shards, ...``.

        Sharding partitions the *global index space*, so the union of all
        shards is exactly ``stream(count)`` — the property the sharded ==
        single-shard ranking guarantee rests on.
        """
        if not 0 <= shard_index < num_shards:
            raise ValueError(f"shard_index {shard_index} outside 0..{num_shards - 1}")
        for i in range(shard_index, count, num_shards):
            yield self.candidate(i)
