"""Surrogate-DFT label engine: determinism, physics sanity, forces."""

import gc
import weakref

import numpy as np
import pytest

from repro.datasets import PERIODIC_TABLE, MAX_Z, element
from repro.datasets.surrogate_dft import SurrogateDFT, _reference_energy
from repro.geometry import Lattice


@pytest.fixture(scope="module")
def calc():
    return SurrogateDFT()


class TestPeriodicTable:
    def test_covers_hydrogen_through_actinium(self):
        assert MAX_Z >= 89
        assert element(1).symbol == "H"
        assert element("Fe").z == 26

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            element(0)
        with pytest.raises(KeyError):
            element("Xx")

    def test_electronegativity_trends(self):
        # Across a period EN rises; down a group radius grows.
        assert element("F").electronegativity > element("Li").electronegativity
        assert element("Cs").covalent_radius > element("Li").covalent_radius

    def test_all_entries_physical(self):
        for e in PERIODIC_TABLE.values():
            assert 0.5 < e.electronegativity < 5.0
            assert 0.2 < e.covalent_radius < 3.0
            assert 1 <= e.valence_electrons <= 16


class TestPairPotential:
    def test_params_symmetric(self, calc):
        assert calc.pair_params(8, 26) == calc.pair_params(26, 8)

    def test_heteronuclear_deeper_than_geometric_mean(self, calc):
        """The ionic bonus makes unlike pairs bind more strongly."""
        d_lif, _ = calc.pair_params(3, 9)  # Li-F, large EN difference
        d_lili, _ = calc.pair_params(3, 3)
        d_ff, _ = calc.pair_params(9, 9)
        assert d_lif > np.sqrt(d_lili * d_ff)

    def test_equilibrium_at_r0(self, calc):
        """Pair energy is minimized at the covalent-radius sum."""
        z = 29
        _, r0 = calc.pair_params(z, z)
        species = np.array([z, z])

        def e_at(d):
            pos = np.array([[0.0, 0, 0], [d, 0, 0]])
            return calc.total_energy(pos, species)

        e_min = e_at(r0)
        assert e_at(r0 * 0.9) > e_min
        assert e_at(r0 * 1.1) > e_min

    def test_energy_zero_beyond_cutoff(self, calc):
        species = np.array([26, 26])
        pos = np.array([[0.0, 0, 0], [calc.cutoff + 1.0, 0, 0]])
        assert calc.total_energy(pos, species) == pytest.approx(0.0)

    def test_energy_continuous_at_cutoff(self, calc):
        species = np.array([26, 26])

        def e_at(d):
            return calc.total_energy(np.array([[0.0, 0, 0], [d, 0, 0]]), species)

        assert abs(e_at(calc.cutoff - 1e-6) - e_at(calc.cutoff + 1e-6)) < 1e-4

    def test_strong_repulsion_at_short_range(self, calc):
        species = np.array([26, 26])
        pos = np.array([[0.0, 0, 0], [0.5, 0, 0]])
        assert calc.total_energy(pos, species) > 10.0


class TestEnergies:
    def test_total_energy_deterministic(self, calc, rng):
        pos = rng.normal(size=(5, 3)) * 3
        species = np.array([8, 14, 26, 8, 14])
        assert calc.total_energy(pos, species) == calc.total_energy(pos, species)

    def test_periodic_pair_binds_through_minimum_image(self, calc):
        """Two atoms at ~r0 via the minimum image give a bound (negative) energy."""
        lat = Lattice.cubic(3.0)
        frac = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
        species = np.array([26, 26])
        e_pbc = calc.total_energy(None, species, lattice=lat, frac=frac)
        assert e_pbc < 0.0

    def test_minimum_image_convention_ignores_self_images(self, calc):
        """Documented limitation: a lone atom sees no periodic self-interaction."""
        lat = Lattice.cubic(3.0)
        e = calc.total_energy(None, np.array([26]), lattice=lat, frac=np.zeros((1, 3)))
        assert e == pytest.approx(0.0)

    def test_reference_energy_negative_and_cached(self, calc):
        e1 = calc.reference_energy(26)
        assert e1 < 0
        assert calc.reference_energy(26) == e1

    def test_equal_calculators_share_references(self):
        # Every dataset object builds its own default calculator; the
        # references are a function of (cutoff, morse_a, z), not of which
        # instance asked.
        first = SurrogateDFT().reference_energy(42)
        before = _reference_energy.cache_info()
        assert SurrogateDFT().reference_energy(42) == first
        assert SurrogateDFT().reference_energy(np.int64(42)) == first
        after = _reference_energy.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)

    def test_reference_depends_on_calculator_parameters(self):
        default = SurrogateDFT().reference_energy(42)
        assert SurrogateDFT(cutoff=4.0).reference_energy(42) != default
        assert SurrogateDFT(morse_a=1.2).reference_energy(42) != default

    def test_caches_do_not_keep_calculators_alive(self):
        calculator = SurrogateDFT(cutoff=5.5)
        calculator.reference_energy(13)
        calculator.pair_params(13, 8)
        gone = weakref.ref(calculator)
        del calculator
        gc.collect()
        assert gone() is None

    def test_shared_distance_matrix_gives_the_same_labels(self, calc, rng):
        lat = Lattice.from_parameters(5.0, 6.0, 7.0, 80.0, 95.0, 105.0)
        frac = rng.random((7, 3))
        species = np.array([3, 8, 8, 26, 26, 57, 1])
        geometry = (frac @ lat.matrix, species, lat, frac)
        dists = calc.pair_distances(geometry[0], lat, frac)
        kept = dists.copy()
        for label in (calc.total_energy, calc.formation_energy_per_atom,
                      calc.band_gap, calc.is_stable):
            assert label(*geometry, dists=dists) == label(*geometry)
        assert np.array_equal(dists, kept)  # shared, so never written to

    def test_reference_scales_with_well_depth(self, calc):
        # W has much higher EN than K -> deeper wells -> lower reference.
        assert calc.reference_energy(74) < calc.reference_energy(19)

    def test_formation_energy_units(self, calc, rng):
        """Per-atom quantity stays in a few-eV band for sane structures."""
        lat = Lattice.cubic(6.0)
        frac = rng.random((6, 3))
        species = np.array([3, 8, 3, 8, 3, 8])
        e = calc.formation_energy_per_atom(None, species, lattice=lat, frac=frac)
        assert -5.0 < e < 30.0


class TestElectronicHeuristics:
    def test_metal_has_zero_gap(self, calc):
        """A dense potassium cluster is metallic -> zero gap."""
        pos = np.array([[0.0, 0, 0], [4.0, 0, 0], [2.0, 3.4, 0], [2.0, 1.2, 3.2]])
        species = np.full(4, 19)  # K
        assert calc.band_gap(pos, species) == pytest.approx(0.0)

    def test_ionic_compound_has_gap(self, calc):
        """An Li-F rocksalt fragment is an insulator -> sizable gap."""
        lat = Lattice.cubic(4.0)
        frac = np.array(
            [[0.0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5],
             [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5], [0.5, 0.5, 0.5]]
        )
        species = np.array([3, 3, 3, 3, 9, 9, 9, 9])
        gap = calc.band_gap(None, species, lattice=lat, frac=frac)
        assert gap > 1.5

    def test_gap_clipped_to_physical_range(self, calc, rng):
        for _ in range(5):
            pos = rng.normal(size=(4, 3)) * 3
            species = rng.integers(1, 80, size=4)
            gap = calc.band_gap(pos, species)
            assert 0.0 <= gap <= 9.0

    def test_fermi_energy_increases_with_density(self, calc):
        species = np.array([29, 29])
        lat_dense = Lattice.cubic(3.0)
        lat_sparse = Lattice.cubic(6.0)
        frac = np.array([[0.0, 0, 0], [0.5, 0.5, 0.5]])
        pos_d = frac @ lat_dense.matrix
        pos_s = frac @ lat_sparse.matrix
        assert calc.fermi_energy(pos_d, species, lat_dense) > calc.fermi_energy(
            pos_s, species, lat_sparse
        )

    def test_fermi_energy_positive(self, calc, rng):
        pos = rng.normal(size=(4, 3)) * 3
        species = rng.integers(1, 80, size=4)
        assert calc.fermi_energy(pos, species) > 0

    def test_stability_is_boolean_and_deterministic(self, calc, rng):
        lat = Lattice.cubic(5.0)
        frac = rng.random((4, 3))
        species = np.array([3, 9, 3, 9])
        s1 = calc.is_stable(None, species, lattice=lat, frac=frac)
        s2 = calc.is_stable(None, species, lattice=lat, frac=frac)
        assert isinstance(s1, bool)
        assert s1 == s2


class TestForces:
    def test_forces_match_numerical_gradient(self, calc, rng):
        pos = rng.normal(size=(4, 3)) * 2.0
        species = np.array([8, 14, 26, 3])
        _, forces = calc.energy_and_forces(pos, species)
        eps = 1e-6
        for i in range(4):
            for k in range(3):
                plus = pos.copy()
                plus[i, k] += eps
                minus = pos.copy()
                minus[i, k] -= eps
                e_p, _ = calc.energy_and_forces(plus, species)
                e_m, _ = calc.energy_and_forces(minus, species)
                numeric = -(e_p - e_m) / (2 * eps)
                assert forces[i, k] == pytest.approx(numeric, abs=1e-5)

    def test_forces_sum_to_zero(self, calc, rng):
        """Newton's third law: internal forces cancel."""
        pos = rng.normal(size=(6, 3)) * 2.5
        species = rng.integers(1, 50, size=6)
        _, forces = calc.energy_and_forces(pos, species)
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-10)

    def test_equilibrium_pair_has_zero_force(self, calc):
        _, r0 = calc.pair_params(26, 26)
        pos = np.array([[0.0, 0, 0], [r0, 0, 0]])
        _, forces = calc.energy_and_forces(pos, np.array([26, 26]))
        assert np.allclose(forces, 0.0, atol=1e-8)

    def test_pbc_forces_match_numerical(self, calc, rng):
        cell = np.eye(3) * 6.0
        pos = rng.random((3, 3)) * 6.0
        species = np.array([3, 15, 16])
        _, forces = calc.energy_and_forces(pos, species, cell=cell)
        eps = 1e-6
        i, k = 1, 2
        plus = pos.copy()
        plus[i, k] += eps
        minus = pos.copy()
        minus[i, k] -= eps
        e_p, _ = calc.energy_and_forces(plus, species, cell=cell)
        e_m, _ = calc.energy_and_forces(minus, species, cell=cell)
        assert forces[i, k] == pytest.approx(-(e_p - e_m) / (2 * eps), abs=1e-5)

    def test_non_orthorhombic_cell_rejected(self, calc):
        cell = np.array([[5.0, 1.0, 0], [0, 5.0, 0], [0, 0, 5.0]])
        with pytest.raises(ValueError):
            calc.energy_and_forces(np.zeros((1, 3)), np.array([26]), cell=cell)
