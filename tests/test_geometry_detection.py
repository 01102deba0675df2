"""Point-group detection: exact recovery, noise tolerance, dataset audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.symmetry import SymmetryPointCloudDataset, merge_coincident
from repro.geometry import (
    crystallographic_point_groups,
    detect_point_group,
    is_invariant_under,
    rotation_matrix,
    symmetry_operations_of,
)

GROUPS = {g.name: g for g in crystallographic_point_groups()}


def generic_orbit(group_name: str, seed: int = 0, n_seeds: int = 1) -> np.ndarray:
    """Orbit of generic (off-element) seed points under a group."""
    rng = np.random.default_rng(seed)
    seeds = rng.normal(size=(n_seeds, 3)) + np.array([[0.31, 0.57, 0.83]])
    orbit = GROUPS[group_name].orbit(seeds)
    orbit = merge_coincident(orbit)
    return orbit - orbit.mean(axis=0, keepdims=True)


class TestInvariance:
    def test_invariant_under_own_ops(self):
        cloud = generic_orbit("C4v", seed=1)
        for op in GROUPS["C4v"].operations:
            assert is_invariant_under(cloud, op)

    def test_not_invariant_under_foreign_rotation(self):
        cloud = generic_orbit("C4", seed=2)
        c3 = rotation_matrix([0, 0, 1], 2 * np.pi / 3)
        assert not is_invariant_under(cloud, c3)

    def test_empty_cloud_trivially_invariant(self):
        assert is_invariant_under(np.zeros((0, 3)), np.eye(3))

    def test_bijection_required(self):
        # Two points collapsing onto one original must not count.
        pts = np.array([[1.0, 0.0, 0.0], [1.0, 0.05, 0.0], [5.0, 0.0, 0.0]])
        mirror = np.diag([1.0, -1.0, 1.0])
        assert not is_invariant_under(pts, mirror, tol=0.06)


class TestDetection:
    @pytest.mark.parametrize("name", ["C2", "C4", "C6", "D2", "C2v", "S4", "Ci"])
    def test_recovers_generating_group_or_supergroup(self, name):
        cloud = generic_orbit(name, seed=3)
        detected = detect_point_group(cloud)
        assert GROUPS[name].is_subgroup_of(detected), (name, detected.name)

    def test_generic_two_seed_clouds_detect_exactly(self):
        """Two generic seeds break the accidental planarity of single
        orbits (a lone C_n orbit shares one z and gains sigma_h after
        centering), so detection recovers the generator exactly."""
        names = ["C2", "C3", "C4", "D2", "C2v", "C6"]
        exact = 0
        for i, name in enumerate(names):
            cloud = generic_orbit(name, seed=10 + i, n_seeds=2)
            if detect_point_group(cloud).name == name:
                exact += 1
        assert exact >= len(names) - 1

    def test_single_point_at_origin_is_maximal(self):
        detected = detect_point_group(np.zeros((1, 3)))
        assert detected.name == "Oh"  # invariant under everything we test

    def test_asymmetric_cloud_is_c1(self, rng):
        cloud = rng.normal(size=(7, 3))
        assert detect_point_group(cloud).name == "C1"

    def test_noise_tolerance(self):
        cloud = generic_orbit("C4v", seed=4)
        noisy = cloud + np.random.default_rng(0).normal(0, 0.01, cloud.shape)
        detected = detect_point_group(noisy, tol=0.1)
        assert GROUPS["C4v"].is_subgroup_of(detected)

    def test_restricted_candidates(self):
        cloud = generic_orbit("C4", seed=5)
        detected = detect_point_group(cloud, candidates=["C1", "C2", "C4"])
        assert detected.name == "C4"
        with pytest.raises(ValueError):
            # No candidate fits a C3 cloud if C1 is excluded.
            detect_point_group(generic_orbit("C3", seed=6), candidates=["C4"])


class TestDatasetAudit:
    @given(index=st.integers(0, 39))
    @settings(max_examples=12, deadline=None)
    def test_generated_labels_are_subgroups_of_detected(self, index):
        """Every synthetic sample's label group must divide its detected
        symmetry — the generator can only add accidental symmetry, never
        deliver less than it promises."""
        ds = SymmetryPointCloudDataset(40, seed=8, noise_sigma=0.0)
        sample = ds[index]
        label_group = GROUPS[sample.metadata["group"]]
        detected = detect_point_group(sample.positions, tol=1e-3)
        assert label_group.is_subgroup_of(detected), (
            label_group.name,
            detected.name,
        )

    def test_profile_fingerprint(self):
        cloud = generic_orbit("C4", seed=7)
        profile = {
            name: (symmetry_operations_of(cloud, group), group.order)
            for name, group in GROUPS.items()
        }
        assert profile["C4"] == (4, 4)
        assert profile["C2"] == (2, 2)  # subgroup fully satisfied
        sat, order = profile["C4v"]
        assert sat < order  # mirrors absent from a chiral orbit
