"""Dataset generators: determinism, labels, shapes, provenance metadata."""

import hashlib
import itertools

import numpy as np
import pytest

import repro.datasets.materials_project as materials_project

from repro.datasets import (
    CarolinaSurrogate,
    LiPSSurrogate,
    MaterialsProjectSurrogate,
    OC20Surrogate,
    OC22Surrogate,
    SymmetryPointCloudDataset,
    available_datasets,
    build_dataset,
)
from repro.datasets.materials_project import place_atoms
from repro.datasets.periodic_table import element
from repro.datasets.symmetry import merge_coincident
from repro.geometry import (
    BRAVAIS_FAMILIES,
    CRYSTAL_POINT_GROUP_NAMES,
    POINT_GROUP_ORDERS,
    Lattice,
    random_lattice,
)


class TestSymmetryDataset:
    def test_deterministic_per_index(self):
        ds = SymmetryPointCloudDataset(10, seed=4)
        a, b = ds[3], ds[3]
        assert np.allclose(a.positions, b.positions)
        assert a.targets["point_group"] == b.targets["point_group"]

    def test_different_indices_differ(self):
        ds = SymmetryPointCloudDataset(10, seed=4)
        assert not np.array_equal(ds[0].positions, ds[1].positions)

    def test_label_matches_metadata(self):
        ds = SymmetryPointCloudDataset(20, seed=1)
        for i in range(20):
            s = ds[i]
            label = int(s.targets["point_group"])
            assert ds.group_names[label] == s.metadata["group"]

    def test_group_subset_restricts_classes(self):
        ds = SymmetryPointCloudDataset(30, seed=2, group_names=["C1", "Oh"])
        assert ds.num_classes == 2
        labels = {int(ds[i].targets["point_group"]) for i in range(30)}
        assert labels <= {0, 1}

    def test_max_points_caps_seed_count(self):
        # A single orbit cannot be truncated without destroying the symmetry,
        # so the invariant is num_atoms <= max(max_points, group_order).
        ds = SymmetryPointCloudDataset(20, seed=3, max_points=32)
        for i in range(20):
            s = ds[i]
            order = POINT_GROUP_ORDERS[s.metadata["group"]]
            assert s.num_atoms <= max(32, order)

    @pytest.mark.parametrize("max_points", [8, 32, 64])
    def test_max_points_bound_over_all_groups(self, max_points):
        """Over all 32 groups a cloud holds at most ``max(max_points, order)``
        points, and a group of order above ``max_points`` gets one whole
        orbit, more than ``max_points`` points."""
        for name in CRYSTAL_POINT_GROUP_NAMES:
            ds = SymmetryPointCloudDataset(4, seed=11, group_names=[name], max_points=max_points)
            order = POINT_GROUP_ORDERS[name]
            sizes = [ds[i].num_atoms for i in range(len(ds))]
            assert max(sizes) <= max(max_points, order), name
            if order > max_points:
                assert max(sizes) > max_points, name

    def test_clouds_are_centered(self):
        ds = SymmetryPointCloudDataset(5, seed=5, noise_sigma=0.0)
        for i in range(5):
            assert np.allclose(ds[i].positions.mean(axis=0), 0.0, atol=1e-9)

    def test_noiseless_cloud_is_exactly_symmetric(self):
        ds = SymmetryPointCloudDataset(40, seed=6, noise_sigma=0.0)
        from scipy.spatial.distance import cdist

        for i in range(10):
            s = ds[i]
            group = [g for g in ds.groups if g.name == s.metadata["group"]][0]
            for op in group.operations[:4]:
                transformed = s.positions @ op.T
                d = cdist(transformed, s.positions)
                assert d.min(axis=1).max() < 1e-6

    def test_random_orientation_option(self):
        a = SymmetryPointCloudDataset(5, seed=7, random_orientation=False)[0]
        b = SymmetryPointCloudDataset(5, seed=7, random_orientation=True)[0]
        assert a.positions.shape == b.positions.shape
        assert not np.allclose(a.positions, b.positions)

    def test_index_out_of_range(self):
        ds = SymmetryPointCloudDataset(3)
        with pytest.raises(IndexError):
            ds[3]

    def test_merge_coincident(self):
        pts = np.array([[0.0, 0, 0], [0, 0, 1e-6], [1.0, 0, 0]])
        merged = merge_coincident(pts, tol=1e-3)
        assert len(merged) == 2


class TestMaterialsProject:
    @pytest.fixture(scope="class")
    def ds(self):
        return MaterialsProjectSurrogate(20, seed=8)

    def test_deterministic(self, ds):
        a, b = ds[7], ds[7]
        assert np.allclose(a.positions, b.positions)
        assert a.targets == b.targets or all(
            np.allclose(a.targets[k], b.targets[k]) for k in a.targets
        )

    def test_has_all_four_targets(self, ds):
        s = ds[0]
        assert set(s.targets) == {
            "band_gap",
            "fermi_energy",
            "formation_energy",
            "is_stable",
        }

    def test_metadata(self, ds):
        s = ds[1]
        assert s.metadata["dataset"] == "materials_project"
        assert s.metadata["family"] in MaterialsProjectSurrogate.FAMILY_WEIGHTS

    def test_label_ranges(self, ds):
        for i in range(20):
            t = ds[i].targets
            assert 0.0 <= t["band_gap"] <= 9.0
            assert t["fermi_energy"] > 0
            assert -5.0 < t["formation_energy"] < 30.0
            assert t["is_stable"] in (0.0, 1.0)

    def test_atoms_not_overlapping(self, ds):
        from repro.geometry import minimum_image_distances

        for i in range(5):
            s = ds[i]
            frac = s.positions @ np.linalg.inv(s.lattice.matrix)
            d = minimum_image_distances(s.lattice, frac)
            np.fill_diagonal(d, np.inf)
            assert d.min() > 0.5

    def test_composition_size_bounds(self, ds):
        for i in range(20):
            s = ds[i]
            assert 2 <= s.num_atoms <= 10
            assert 1 <= len(np.unique(s.species)) <= 4


# --------------------------------------------------------------------------- #
# Oracle: the sequential, full-matrix placement exactly as it stood before the
# blocked one replaced it, with the all-pairs distance function it called.
# --------------------------------------------------------------------------- #
def _oracle_minimum_image_distances(lattice, frac):
    frac = np.asarray(frac, dtype=np.float64)
    delta_frac = frac[:, None, :] - frac[None, :, :]  # (n, n, 3)
    shifts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))  # (27, 3)
    # (n, n, 27, 3) fractional displacements -> cartesian -> lengths.
    disp = delta_frac[:, :, None, :] + shifts[None, None, :, :]
    cart = disp @ lattice.matrix
    dists = np.linalg.norm(cart, axis=-1)
    return dists.min(axis=-1)


def _oracle_place_atoms(lattice, species, rng, min_dist_factor=0.75, max_attempts=60):
    n = len(species)
    radii = np.array([element(int(z)).covalent_radius for z in species])
    frac = np.zeros((n, 3))
    factor = min_dist_factor
    placed = 0
    while placed < n:
        ok = False
        for _ in range(max_attempts):
            candidate = rng.random(3)
            if placed == 0:
                ok = True
            else:
                trial = np.vstack([frac[:placed], candidate])
                d = _oracle_minimum_image_distances(lattice, trial)[-1, :placed]
                limits = factor * (radii[:placed] + radii[placed])
                ok = bool(np.all(d > limits))
            if ok:
                frac[placed] = candidate
                placed += 1
                break
        if not ok:
            factor *= 0.95  # relax and retry the same atom
    return frac


def _assert_blocked_equals_sequential(lattice, species, seed, **kwargs):
    """Same coordinates AND the same generator state afterwards."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    # A buffered 32-bit draw must survive the block snapshots untouched.
    rng.integers(0, 7, dtype=np.uint32), oracle_rng.integers(0, 7, dtype=np.uint32)
    frac = place_atoms(lattice, species, rng, **kwargs)
    expected = _oracle_place_atoms(lattice, species, oracle_rng, **kwargs)
    assert frac.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestPlaceAtoms:
    """Identity: blocked incremental placement == sequential full-matrix."""

    SPECIES = np.array([8, 8, 8, 26, 26, 3, 3, 57, 57, 1], dtype=np.int64)

    @pytest.mark.parametrize("family", BRAVAIS_FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1, 2023])
    def test_every_family(self, family, seed):
        lattice = random_lattice(family, np.random.default_rng((seed, 9)))
        _assert_blocked_equals_sequential(
            lattice, self.SPECIES, seed, min_dist_factor=0.9
        )

    @pytest.mark.parametrize("family", BRAVAIS_FAMILIES)
    @pytest.mark.parametrize("max_attempts", [1, 2, 3])
    def test_forced_relaxation_in_a_tiny_cell(self, family, max_attempts):
        # Ten atoms cannot fit 2.6 A cells at 0.9 x radii: the tolerance has
        # to relax many times, with one to three trials per round.
        lattice = random_lattice(family, np.random.default_rng(4), a_range=(2.6, 2.6))
        _assert_blocked_equals_sequential(
            lattice, self.SPECIES, 11, min_dist_factor=0.9, max_attempts=max_attempts
        )

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("max_attempts", [1, 4, 7, 60, 100])
    def test_block_boundaries(self, monkeypatch, block, max_attempts):
        # Block size 1 accepts every atom on the last row of a block; the
        # other pairs put round ends before, on and after block ends
        # (max_attempts below, above, and not a multiple of the block).
        monkeypatch.setattr(materials_project, "_PLACEMENT_BLOCK", block)
        lattice = Lattice.cubic(4.2)
        for seed in range(4):
            _assert_blocked_equals_sequential(
                lattice, self.SPECIES[:7], seed, min_dist_factor=0.9,
                max_attempts=max_attempts,
            )

    def test_no_atoms_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert place_atoms(Lattice.cubic(5.0), np.zeros(0, dtype=np.int64), rng).shape == (0, 3)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("max_attempts", [0, -1, float("nan")])
    def test_rejects_max_attempts_below_one(self, max_attempts):
        # These used to relax the tolerance forever without drawing a trial.
        with pytest.raises(ValueError, match="max_attempts"):
            place_atoms(Lattice.cubic(5.0), self.SPECIES, np.random.default_rng(0),
                        max_attempts=max_attempts)

    @pytest.mark.parametrize("factor", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_min_dist_factor_that_disables_the_check(self, factor):
        with pytest.raises(ValueError, match="min_dist_factor"):
            place_atoms(Lattice.cubic(5.0), self.SPECIES, np.random.default_rng(0),
                        min_dist_factor=factor)


#: sha256 over (positions, species, lattice, every target) of the first 64
#: structures, recorded on the commit before blocked placement, shared
#: elemental references and the shared distance matrix went in.
DATASET_FINGERPRINTS = {
    ("materials_project", 0): "330e01ff2a1e87f5516c65a37c58fbb8af822458bb7fa68f129cc16a2679f669",
    ("materials_project", 2023): "a0d89cb9aa6b372d299a9d2f90afdb4dd9c9b2462371ba01cfd282c9e3ce0d7d",
    ("carolina", 0): "d1ede5dc3026e79f6cf72b317c65bd7f0217e34cdbf0096301731c53cd1d2d72",
    ("carolina", 2023): "e50d29f69e0db73a9ce648e173c07e2e6a76aff92309278dac95902682570fcb",
    ("oc20", 0): "a46203733f454cdc16fd75faecfcf45bdf5494ba117c65b45d96298b14c6b206",
    ("oc22", 0): "bc895518193345281e4b990ad2061fb4e10f34af9de0e895d8aeb3f7b7e379d5",
    ("lips", 0): "0afe06c3d6dd012e049bc5db48dcd7d3f467a11eb270d4a869f674ea73e45c1a",
    ("symmetry", 0): "e3202eb100f40f56ebc795a7f29fc870e33f91a9af5d6646325b83370a8f5548",
}


def dataset_fingerprint(name, seed, count=64):
    digest = hashlib.sha256()
    ds = build_dataset(name, num_samples=count, seed=seed)
    for i in range(count):
        s = ds[i]
        digest.update(np.ascontiguousarray(s.positions, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(s.species, dtype=np.int64).tobytes())
        if s.lattice is not None:
            digest.update(np.ascontiguousarray(s.lattice.matrix, dtype=np.float64).tobytes())
        for key in sorted(s.targets):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(s.targets[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(DATASET_FINGERPRINTS))
def test_synthesis_is_bit_identical_to_the_recorded_commit(name, seed):
    assert dataset_fingerprint(name, seed) == DATASET_FINGERPRINTS[(name, seed)]


def test_fingerprints_cover_the_registry():
    assert {name for name, _ in DATASET_FINGERPRINTS} == set(available_datasets())


class TestCarolina:
    @pytest.fixture(scope="class")
    def ds(self):
        return CarolinaSurrogate(20, seed=9)

    def test_cubic_only(self, ds):
        for i in range(10):
            s = ds[i]
            assert np.allclose(s.lattice.angles, 90.0)
            assert np.allclose(s.lattice.lengths, s.lattice.lengths[0])

    def test_single_target(self, ds):
        assert set(ds[0].targets) == {"formation_energy"}

    def test_narrower_than_materials_project(self):
        mp = MaterialsProjectSurrogate(40, seed=10)
        cmd = CarolinaSurrogate(40, seed=10)
        mp_e = np.array([float(mp[i].targets["formation_energy"]) for i in range(40)])
        cmd_e = np.array([float(cmd[i].targets["formation_energy"]) for i in range(40)])
        assert cmd_e.std() < 0.6 * mp_e.std()

    def test_ternary_or_quaternary(self, ds):
        for i in range(10):
            assert len(np.unique(ds[i].species)) in (3, 4)


class TestOCP:
    def test_oc20_composite_structure(self):
        ds = OC20Surrogate(5, seed=11)
        s = ds[0]
        n_slab = s.metadata["num_slab_atoms"]
        assert s.num_atoms > n_slab  # adsorbate present
        assert s.metadata["dataset"] == "oc20"
        assert s.metadata["adsorbate"] in ("H", "O", "CO", "OH", "H2O", "N")

    def test_oc20_slab_single_metal(self):
        ds = OC20Surrogate(5, seed=12)
        s = ds[0]
        slab_species = s.species[: s.metadata["num_slab_atoms"]]
        assert len(np.unique(slab_species)) == 1

    def test_oc22_slab_contains_oxygen(self):
        ds = OC22Surrogate(5, seed=13)
        s = ds[0]
        slab_species = s.species[: s.metadata["num_slab_atoms"]]
        assert 8 in slab_species

    def test_energy_and_force_targets(self):
        s = OC20Surrogate(3, seed=14)[1]
        assert "energy" in s.targets and "adsorption_energy" in s.targets
        assert s.targets["forces"].shape == (s.num_atoms, 3)

    def test_deterministic(self):
        a = OC22Surrogate(4, seed=15)[2]
        b = OC22Surrogate(4, seed=15)[2]
        assert np.allclose(a.positions, b.positions)


class TestLiPS:
    @pytest.fixture(scope="class")
    def ds(self):
        return LiPSSurrogate(8, seed=16)

    def test_fixed_composition_across_frames(self, ds):
        species = ds[0].species
        for i in range(len(ds)):
            assert np.array_equal(ds[i].species, species)
        uniq = set(np.unique(species).tolist())
        assert uniq == {3, 15, 16}  # Li, P, S

    def test_frames_evolve(self, ds):
        assert not np.allclose(ds[0].positions, ds[7].positions)

    def test_energy_and_forces_present(self, ds):
        s = ds[3]
        assert np.isfinite(s.targets["energy"])
        assert s.targets["forces"].shape == (s.num_atoms, 3)

    def test_positions_stay_in_box(self, ds):
        a = ds.cell[0, 0]
        for i in range(len(ds)):
            assert np.all(ds[i].positions >= 0.0)
            assert np.all(ds[i].positions <= a)

    def test_trajectory_thermally_bounded(self, ds):
        """Frames are perturbations of one structure, not a melt."""
        drift = np.linalg.norm(ds[0].positions - ds[len(ds) - 1].positions, axis=1)
        assert np.median(drift) < 3.0


class TestRegistry:
    def test_lists_all_six(self):
        assert set(available_datasets()) == {
            "symmetry",
            "materials_project",
            "carolina",
            "oc20",
            "oc22",
            "lips",
        }

    def test_build_by_name(self):
        ds = build_dataset("symmetry", num_samples=3, seed=1)
        assert len(ds) == 3

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_dataset("imaginary")
