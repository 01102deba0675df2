"""Lattices: parameter round-trips, minimum image, supercells."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    BRAVAIS_FAMILIES,
    Lattice,
    fractional_to_cartesian,
    image_distances,
    minimum_image_distances,
    random_lattice,
    supercell,
)
from repro.geometry.lattice import IMAGE_SHIFTS


class TestLattice:
    def test_cubic_properties(self):
        lat = Lattice.cubic(4.0)
        assert np.isclose(lat.volume, 64.0)
        assert np.allclose(lat.lengths, 4.0)
        assert np.allclose(lat.angles, 90.0)

    def test_from_parameters_roundtrip(self):
        lat = Lattice.from_parameters(3.0, 4.0, 5.0, 80.0, 95.0, 105.0)
        assert np.allclose(lat.lengths, [3.0, 4.0, 5.0])
        assert np.allclose(lat.angles, [80.0, 95.0, 105.0])

    def test_hexagonal_gamma(self):
        lat = Lattice.from_parameters(3.0, 3.0, 5.0, 90, 90, 120)
        assert np.isclose(lat.angles[2], 120.0)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Lattice(np.zeros((3, 3)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            Lattice(np.eye(2))

    def test_impossible_angles_rejected(self):
        with pytest.raises(ValueError):
            Lattice.from_parameters(3, 3, 3, 10.0, 170.0, 90.0)


class TestRandomLattice:
    @pytest.mark.parametrize("family", BRAVAIS_FAMILIES)
    def test_every_family_builds(self, family, rng):
        lat = random_lattice(family, rng)
        assert lat.volume > 0

    def test_cubic_is_cubic(self, rng):
        lat = random_lattice("cubic", rng)
        assert np.allclose(lat.lengths, lat.lengths[0])
        assert np.allclose(lat.angles, 90.0)

    def test_hexagonal_constraints(self, rng):
        lat = random_lattice("hexagonal", rng)
        assert np.isclose(lat.lengths[0], lat.lengths[1])
        assert np.isclose(lat.angles[2], 120.0)

    def test_unknown_family(self, rng):
        with pytest.raises(KeyError):
            random_lattice("quasicrystal", rng)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_triclinic_always_closes(self, seed):
        lat = random_lattice("triclinic", np.random.default_rng(seed))
        assert lat.volume > 0


class TestFractionalConversion:
    def test_identity_cell(self):
        frac = np.array([[0.25, 0.5, 0.75]])
        cart = fractional_to_cartesian(Lattice.cubic(4.0), frac)
        assert np.allclose(cart, [[1.0, 2.0, 3.0]])

    def test_general_cell(self, rng):
        lat = random_lattice("monoclinic", rng)
        frac = rng.random((5, 3))
        cart = fractional_to_cartesian(lat, frac)
        back = cart @ np.linalg.inv(lat.matrix)
        assert np.allclose(back, frac)


class TestMinimumImage:
    def test_body_center_distance(self):
        lat = Lattice.cubic(4.0)
        frac = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
        d = minimum_image_distances(lat, frac)
        assert np.isclose(d[0, 1], 4.0 * np.sqrt(3) / 2)

    def test_wraps_across_boundary(self):
        lat = Lattice.cubic(10.0)
        frac = np.array([[0.05, 0.5, 0.5], [0.95, 0.5, 0.5]])
        d = minimum_image_distances(lat, frac)
        assert np.isclose(d[0, 1], 1.0)  # through the boundary, not 9.0

    def test_symmetric_zero_diagonal(self, rng):
        lat = random_lattice("orthorhombic", rng)
        frac = rng.random((6, 3))
        d = minimum_image_distances(lat, frac)
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_never_exceeds_direct_distance(self, rng):
        lat = Lattice.cubic(6.0)
        frac = rng.random((5, 3))
        cart = fractional_to_cartesian(lat, frac)
        from scipy.spatial.distance import cdist

        direct = cdist(cart, cart)
        mic = minimum_image_distances(lat, frac)
        assert np.all(mic <= direct + 1e-12)

    @pytest.mark.parametrize("family", BRAVAIS_FAMILIES)
    def test_an_entry_does_not_depend_on_what_is_evaluated_with_it(self, family, rng):
        # What lets crystal synthesis add one column per accepted atom: a
        # row or a column computed alone has the bits of the full matrix.
        lat = random_lattice(family, rng)
        frac = rng.random((9, 3))
        full = minimum_image_distances(lat, frac)
        for i in range(len(frac)):
            assert np.array_equal(image_distances(lat, frac[i] - frac), full[i])
            assert np.array_equal(image_distances(lat, frac - frac[i]), full[:, i])

    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(BRAVAIS_FAMILIES),
        lead=st.lists(st.integers(0, 6), min_size=0, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_written_out_norm_equals_linalg_norm(self, family, lead, seed):
        # image_distances spells the norm as sqrt((x*x + y*y) + z*z); it must
        # keep np.linalg.norm's bits, which the dataset fingerprints assume.
        rng = np.random.default_rng(seed)
        lat = random_lattice(family, rng)
        delta = (rng.random(tuple(lead) + (3,)) - 0.5) * 10.0 ** rng.integers(-3, 2)
        cart = (delta[..., None, :] + IMAGE_SHIFTS) @ lat.matrix
        expected = np.linalg.norm(cart, axis=-1).min(axis=-1)
        assert np.array_equal(image_distances(lat, delta), expected)

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 3), (0,)])
    def test_rejects_frac_that_is_not_n_by_3(self, shape):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            minimum_image_distances(Lattice.cubic(4.0), np.zeros(shape))


class TestSupercell:
    def test_volume_and_counts(self):
        lat = Lattice.cubic(4.0)
        frac = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
        species = np.array([1, 2])
        sc_lat, sc_frac, sc_species = supercell(lat, frac, species, (2, 3, 1))
        assert len(sc_frac) == 2 * 6
        assert len(sc_species) == 12
        assert np.isclose(sc_lat.volume, 6 * lat.volume)

    def test_fractional_coords_in_unit_cell(self, rng):
        lat = Lattice.cubic(4.0)
        frac = rng.random((3, 3))
        sc_lat, sc_frac, _ = supercell(lat, frac, np.ones(3, dtype=int), (2, 2, 2))
        assert np.all(sc_frac >= 0.0)
        assert np.all(sc_frac < 1.0)

    def test_preserves_local_geometry(self):
        """Nearest-neighbour distances are unchanged by tiling."""
        lat = Lattice.cubic(4.0)
        frac = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
        d_orig = minimum_image_distances(lat, frac)[0, 1]
        sc_lat, sc_frac, _ = supercell(lat, frac, np.array([1, 1]), (2, 2, 2))
        d_new = minimum_image_distances(sc_lat, sc_frac)
        off_diag = d_new[0][1:]
        assert np.isclose(off_diag.min(), d_orig)

    def test_rejects_zero_reps(self):
        lat = Lattice.cubic(4.0)
        with pytest.raises(ValueError):
            supercell(lat, np.zeros((1, 3)), np.array([1]), (0, 1, 1))
