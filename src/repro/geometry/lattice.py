"""Bravais lattices and periodic geometry.

The surrogate materials datasets generate crystals as (lattice, fractional
coordinates, species) triples; this module supplies lattice construction for
the seven crystal families, fractional/cartesian conversion, supercell
expansion, and minimum-image distances — the periodic substrate the
surrogate DFT label engine computes pair energies with.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: The seven crystal families used by :func:`random_lattice`.
BRAVAIS_FAMILIES: Tuple[str, ...] = (
    "cubic",
    "tetragonal",
    "orthorhombic",
    "hexagonal",
    "trigonal",
    "monoclinic",
    "triclinic",
)

#: Fractional offsets of a cell's 27 neighbouring images, (27, 3).
IMAGE_SHIFTS = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
IMAGE_SHIFTS.flags.writeable = False


@dataclass(frozen=True)
class Lattice:
    """A 3-D lattice given by a row-vector cell matrix (rows are a, b, c)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"cell matrix must be 3x3, got {m.shape}")
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("cell matrix is singular")
        object.__setattr__(self, "matrix", m)

    @property
    def volume(self) -> float:
        return float(abs(np.linalg.det(self.matrix)))

    @property
    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=1)

    @property
    def angles(self) -> np.ndarray:
        """Cell angles (alpha, beta, gamma) in degrees."""
        a, b, c = self.matrix
        alpha = _angle(b, c)
        beta = _angle(a, c)
        gamma = _angle(a, b)
        return np.array([alpha, beta, gamma])

    @classmethod
    def from_parameters(
        cls, a: float, b: float, c: float, alpha: float, beta: float, gamma: float
    ) -> "Lattice":
        """Build a cell from lengths (angstrom) and angles (degrees)."""
        al, be, ga = np.radians([alpha, beta, gamma])
        v1 = np.array([a, 0.0, 0.0])
        v2 = np.array([b * math.cos(ga), b * math.sin(ga), 0.0])
        cx = c * math.cos(be)
        cy = c * (math.cos(al) - math.cos(be) * math.cos(ga)) / math.sin(ga)
        cz_sq = c * c - cx * cx - cy * cy
        if cz_sq <= 0:
            raise ValueError(f"impossible cell angles ({alpha}, {beta}, {gamma})")
        v3 = np.array([cx, cy, math.sqrt(cz_sq)])
        return cls(np.array([v1, v2, v3]))

    @classmethod
    def cubic(cls, a: float) -> "Lattice":
        return cls(np.eye(3) * a)


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    cosv = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return math.degrees(math.acos(np.clip(cosv, -1.0, 1.0)))


def random_lattice(
    family: str,
    rng: np.random.Generator,
    a_range: Tuple[float, float] = (3.5, 7.5),
) -> Lattice:
    """Sample a lattice of the given crystal family with realistic lengths."""
    a = rng.uniform(*a_range)
    if family == "cubic":
        return Lattice.from_parameters(a, a, a, 90, 90, 90)
    if family == "tetragonal":
        c = a * rng.uniform(0.6, 1.8)
        return Lattice.from_parameters(a, a, c, 90, 90, 90)
    if family == "orthorhombic":
        b = a * rng.uniform(0.7, 1.5)
        c = a * rng.uniform(0.7, 1.5)
        return Lattice.from_parameters(a, b, c, 90, 90, 90)
    if family == "hexagonal":
        c = a * rng.uniform(0.8, 2.0)
        return Lattice.from_parameters(a, a, c, 90, 90, 120)
    if family == "trigonal":
        alpha = rng.uniform(50, 110)
        return Lattice.from_parameters(a, a, a, alpha, alpha, alpha)
    if family == "monoclinic":
        b = a * rng.uniform(0.7, 1.5)
        c = a * rng.uniform(0.7, 1.5)
        beta = rng.uniform(95, 125)
        return Lattice.from_parameters(a, b, c, 90, beta, 90)
    if family == "triclinic":
        b = a * rng.uniform(0.7, 1.5)
        c = a * rng.uniform(0.7, 1.5)
        # Rejection-sample angle triples until the cell closes.
        for _ in range(100):
            alpha, beta, gamma = rng.uniform(70, 110, size=3)
            try:
                return Lattice.from_parameters(a, b, c, alpha, beta, gamma)
            except ValueError:
                continue
        raise RuntimeError("failed to sample a valid triclinic cell")
    raise KeyError(f"unknown crystal family {family!r}; choose from {BRAVAIS_FAMILIES}")


def fractional_to_cartesian(lattice: Lattice, frac: np.ndarray) -> np.ndarray:
    """Convert fractional coordinates (n, 3) to cartesian angstroms."""
    frac = np.asarray(frac, dtype=np.float64)
    return frac @ lattice.matrix


def minimum_image_distances(lattice: Lattice, frac: np.ndarray) -> np.ndarray:
    """All-pairs minimum-image distance matrix for fractional coordinates.

    Scans the 27 neighbouring images, which is exact for cells whose shortest
    lattice vector exceeds twice the interaction cutoff — true for the cell
    sizes the surrogate generators emit.  Fully vectorized: (n, n, 27)
    intermediate, fine for the n <= 64 atoms per structure used here.
    """
    frac = np.asarray(frac, dtype=np.float64)
    if frac.ndim != 2 or frac.shape[1] != 3:
        raise ValueError(f"frac must have shape (n, 3), got {frac.shape}")
    return image_distances(lattice, frac[:, None, :] - frac[None, :, :])


def image_distances(lattice: Lattice, delta_frac: np.ndarray) -> np.ndarray:
    """Minimum-image length of fractional displacements ``(..., 3)``.

    Each displacement is one ``(27, 3) @ (3, 3)`` product, a norm and a min,
    whatever the leading shape: an entry's bits do not depend on how many
    others are evaluated with it, which is what lets
    :func:`repro.datasets.materials_project.place_atoms` add one column at
    a time and still reproduce the all-pairs matrix exactly.

    The norm is ``sqrt((x*x + y*y) + z*z)`` written out, the summation
    order of ``np.linalg.norm(cart, axis=-1)`` and bitwise equal to it,
    without its generic reduction machinery.
    """
    disp = delta_frac[..., None, :] + IMAGE_SHIFTS  # (..., 27, 3)
    cart = disp @ lattice.matrix
    cart *= cart
    sq = cart[..., 0] + cart[..., 1]
    sq += cart[..., 2]
    np.sqrt(sq, out=sq)
    return sq.min(axis=-1)


def supercell(
    lattice: Lattice, frac: np.ndarray, species: np.ndarray, reps: Tuple[int, int, int]
) -> Tuple[Lattice, np.ndarray, np.ndarray]:
    """Tile a cell ``reps`` times along each axis.

    Returns the enlarged lattice, fractional coordinates in the new cell, and
    the repeated species array.  Used to build slab structures for the OCP
    surrogates and the LiPS simulation cell.
    """
    na, nb, nc = reps
    if min(reps) < 1:
        raise ValueError(f"repetitions must be >= 1, got {reps}")
    frac = np.asarray(frac, dtype=np.float64)
    species = np.asarray(species)
    offsets = np.array(list(itertools.product(range(na), range(nb), range(nc))), dtype=np.float64)
    tiled = (frac[None, :, :] + offsets[:, None, :]).reshape(-1, 3)
    tiled /= np.array([na, nb, nc], dtype=np.float64)
    new_matrix = lattice.matrix * np.array([[na], [nb], [nc]], dtype=np.float64)
    new_species = np.tile(species, len(offsets))
    return Lattice(new_matrix), tiled, new_species
