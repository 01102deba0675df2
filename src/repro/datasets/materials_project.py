"""Materials-Project-style surrogate dataset.

Procedurally generates bulk crystals across all seven crystal families and
labels them with the surrogate DFT engine: band gap, Fermi energy,
formation energy per atom, and a stability flag — the four targets the
paper's fine-tuning experiments use (Table 1).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.structures import Structure
from repro.datasets.periodic_table import element
from repro.datasets.surrogate_dft import SurrogateDFT
from repro.geometry.lattice import (
    Lattice,
    fractional_to_cartesian,
    image_distances,
    random_lattice,
)

#: Elements sampled by the bulk generators: H through Bi minus noble gases
#: (they do not form the bulk compounds materials databases catalogue).
_NOBLE = {2, 10, 18, 36, 54, 86}
DEFAULT_ELEMENT_POOL: Tuple[int, ...] = tuple(
    z for z in range(1, 84) if z not in _NOBLE
)


#: Candidates :func:`place_atoms` draws and measures per numpy call.
_PLACEMENT_BLOCK = 64


def place_atoms(
    lattice: Lattice,
    species: np.ndarray,
    rng: np.random.Generator,
    min_dist_factor: float = 0.75,
    max_attempts: int = 60,
) -> np.ndarray:
    """Sequentially insert atoms at random fractional positions.

    Candidates closer (minimum image) than ``min_dist_factor`` times the
    covalent-radius sum to any placed atom are rejected; the tolerance
    relaxes 5% per exhausted retry round so generation always terminates.

    Candidates are drawn and measured a block at a time — ``dist[r, j]`` is
    the distance from the block's row ``r`` to placed atom ``j``, and an
    accepted atom adds one column — but the result, and the state ``rng``
    is left in, are those of drawing ``rng.random(3)`` once per trial.
    """
    if not max_attempts >= 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if not (np.isfinite(min_dist_factor) and min_dist_factor > 0):
        raise ValueError(
            f"min_dist_factor must be finite and positive, got {min_dist_factor}"
        )
    n = len(species)
    radii = np.array([element(int(z)).covalent_radius for z in species])
    frac = np.zeros((n, 3))
    dist = np.empty((_PLACEMENT_BLOCK, n))
    factor = min_dist_factor
    placed = 0
    attempts_left = max_attempts  # trials left in this atom's current round
    while placed < n:
        state = rng.bit_generator.state
        block = rng.random((_PLACEMENT_BLOCK, 3))
        dist[:, :placed] = image_distances(
            lattice, block[:, None, :] - frac[None, :placed, :]
        )
        row = 0
        while row < _PLACEMENT_BLOCK and placed < n:
            stop = min(_PLACEMENT_BLOCK, row + attempts_left)
            limits = factor * (radii[:placed] + radii[placed])
            accepted = np.flatnonzero(np.all(dist[row:stop, :placed] > limits, axis=1))
            if accepted.size:
                hit = row + int(accepted[0])
                frac[placed] = block[hit]
                row = hit + 1
                dist[row:, placed] = image_distances(lattice, block[row:] - block[hit])
                placed += 1
                attempts_left = max_attempts
            else:
                attempts_left -= stop - row
                row = stop
                if attempts_left == 0:
                    factor *= 0.95  # relax and retry the same atom
                    attempts_left = max_attempts
        if row < _PLACEMENT_BLOCK:
            # The sequential stream stops after the accepted candidate.
            rng.bit_generator.state = state
            rng.random((row, 3))
    return frac


class MaterialsProjectSurrogate(Dataset[Structure]):
    """Lazy, deterministic generator of labelled bulk crystals."""

    #: Sampling weights over crystal families, biased the way curated
    #: databases are (cubic/orthorhombic-heavy).
    FAMILY_WEIGHTS = {
        "cubic": 0.22,
        "tetragonal": 0.15,
        "orthorhombic": 0.22,
        "hexagonal": 0.15,
        "trigonal": 0.10,
        "monoclinic": 0.11,
        "triclinic": 0.05,
    }

    def __init__(
        self,
        num_samples: int,
        seed: int = 0,
        max_atoms: int = 10,
        element_pool: Optional[Sequence[int]] = None,
        calculator: Optional[SurrogateDFT] = None,
    ):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.num_samples = num_samples
        self.seed = seed
        self.max_atoms = max_atoms
        self.element_pool = tuple(element_pool or DEFAULT_ELEMENT_POOL)
        self.calculator = calculator or SurrogateDFT()
        self.name = "materials_project"
        self._families = list(self.FAMILY_WEIGHTS)
        self._weights = np.array([self.FAMILY_WEIGHTS[f] for f in self._families])
        self._weights = self._weights / self._weights.sum()

    def __len__(self) -> int:
        return self.num_samples

    def _sample_composition(self, rng: np.random.Generator) -> np.ndarray:
        n_elements = int(rng.integers(1, 5))
        chosen = rng.choice(self.element_pool, size=n_elements, replace=False)
        n_atoms = int(rng.integers(max(2, n_elements), self.max_atoms + 1))
        # Every chosen element appears at least once.
        counts = np.ones(n_elements, dtype=np.int64)
        for _ in range(n_atoms - n_elements):
            counts[rng.integers(0, n_elements)] += 1
        return np.repeat(chosen, counts).astype(np.int64)

    def _build_structure(self, rng: np.random.Generator) -> Structure:
        species = self._sample_composition(rng)
        family = self._families[int(rng.choice(len(self._families), p=self._weights))]
        lattice = random_lattice(family, rng)
        # Target volume from atomic sizes: a close-packed sphere of radius r
        # occupies (4 pi/3) r^3 / 0.64 ~ 6.54 r^3 at random-close-packing
        # density; sample a band around it.  Radii are floored so hydrogen
        # does not collapse the cell.
        r_eff = np.array(
            [max(element(int(z)).covalent_radius, 0.75) for z in species]
        )
        volume = rng.uniform(1.05, 1.45) * float(np.sum(6.54 * r_eff**3))
        vpa = volume / len(species)
        scale = (vpa * len(species) / lattice.volume) ** (1.0 / 3.0)
        lattice = Lattice(lattice.matrix * scale)
        frac = place_atoms(lattice, species, rng, min_dist_factor=0.9)
        positions = fractional_to_cartesian(lattice, frac)
        calc = self.calculator
        geometry = (positions, species, lattice, frac)
        dists = calc.pair_distances(positions, lattice, frac)
        targets = {
            "band_gap": np.float64(calc.band_gap(*geometry, dists)),
            "fermi_energy": np.float64(calc.fermi_energy(positions, species, lattice)),
            "formation_energy": np.float64(
                calc.formation_energy_per_atom(*geometry, dists)
            ),
            "is_stable": np.float64(calc.is_stable(*geometry, dists)),
        }
        return Structure(
            positions=positions,
            species=species,
            lattice=lattice,
            targets=targets,
            metadata={"dataset": self.name, "family": family},
        )

    def __getitem__(self, index: int) -> Structure:
        if not 0 <= index < self.num_samples:
            raise IndexError(index)
        rng = np.random.default_rng((self.seed, 1, index))
        return self._build_structure(rng)
