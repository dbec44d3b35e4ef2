"""Tests for VCA and random-alloy disorder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import ZincblendeCell, partition_into_slabs, zincblende_nanowire
from repro.tb import (
    build_device_hamiltonian,
    bulk_band_edges,
    germanium_sp3s,
    silicon_sp3s,
    single_band_material,
)
from repro.tb.alloy import (
    alloy_material,
    alloy_region_mask,
    randomize_species,
    virtual_crystal_material,
)
from repro.wf import WFSolver

SI = ZincblendeCell(0.5431, "Si", "Si")


class TestVCA:
    def test_endpoints_match_components(self):
        si, ge = silicon_sp3s(), germanium_sp3s()
        v0 = virtual_crystal_material(si, ge, 0.0)
        v1 = virtual_crystal_material(si, ge, 1.0)
        gap0 = bulk_band_edges(v0, n_samples=41)["gap"]
        gap1 = bulk_band_edges(v1, n_samples=41)["gap"]
        assert gap0 == pytest.approx(
            bulk_band_edges(si, n_samples=41)["gap"], abs=1e-9
        )
        assert gap1 == pytest.approx(
            bulk_band_edges(ge, n_samples=41)["gap"], abs=1e-9
        )

    def test_gap_interpolates_monotonically(self):
        si, ge = silicon_sp3s(), germanium_sp3s()
        gaps = [
            bulk_band_edges(
                virtual_crystal_material(si, ge, x), n_samples=41
            )["gap"]
            for x in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))

    def test_valley_crossover_x_to_l(self):
        """SiGe: X-like conduction on the Si side, L-like on the Ge side.

        Linear (bowing-free) VCA pushes the crossover almost to pure Ge;
        real SiGe crosses near x = 0.85 — a documented VCA limitation.
        """
        si, ge = silicon_sp3s(), germanium_sp3s()
        low = bulk_band_edges(
            virtual_crystal_material(si, ge, 0.2), n_samples=61
        )
        high = bulk_band_edges(
            virtual_crystal_material(si, ge, 1.0), n_samples=61
        )
        assert low["cbm_direction"] == "X"
        assert high["cbm_direction"] == "L"

    def test_vegard_lattice_constant(self):
        si, ge = silicon_sp3s(), germanium_sp3s()
        v = virtual_crystal_material(si, ge, 0.5)
        assert v.cell.a_nm == pytest.approx(
            0.5 * (si.cell.a_nm + ge.cell.a_nm)
        )

    def test_invalid_composition(self):
        with pytest.raises(ValueError):
            virtual_crystal_material(silicon_sp3s(), germanium_sp3s(), 1.5)

    def test_mismatched_bases_rejected(self):
        with pytest.raises(ValueError):
            virtual_crystal_material(
                silicon_sp3s(), single_band_material(), 0.5
            )

    @given(x=st.floats(0.0, 1.0))
    @settings(max_examples=10, deadline=None)
    def test_gap_bounded_by_endpoints(self, x):
        si, ge = silicon_sp3s(), germanium_sp3s()
        gap = bulk_band_edges(
            virtual_crystal_material(si, ge, x), n_samples=31
        )["gap"]
        gap_si = bulk_band_edges(si, n_samples=31)["gap"]
        gap_ge = bulk_band_edges(ge, n_samples=31)["gap"]
        assert min(gap_si, gap_ge) - 1e-6 <= gap <= max(gap_si, gap_ge) + 1e-6


class TestAlloyMaterial:
    def test_carries_both_species(self):
        am = alloy_material(silicon_sp3s(), germanium_sp3s())
        assert set(am.onsite) == {"Si", "Ge"}
        am.sk_params("Si", "Ge")
        am.sk_params("Ge", "Si")

    def test_hetero_pair_is_average(self):
        si, ge = silicon_sp3s(), germanium_sp3s()
        am = alloy_material(si, ge)
        mix = am.sk_params("Si", "Ge")
        assert mix.ss_sigma == pytest.approx(
            0.5 * (si.sk_params("Si", "Si").ss_sigma
                   + ge.sk_params("Ge", "Ge").ss_sigma)
        )

    def test_same_element_rejected(self):
        with pytest.raises(ValueError):
            alloy_material(silicon_sp3s(), silicon_sp3s())


class TestRandomizeSpecies:
    def test_fraction_zero_identity(self):
        w = zincblende_nanowire(SI, 3, 1, 1)
        out = randomize_species(w, "Ge", 0.0, np.random.default_rng(0))
        assert out.species == w.species

    def test_fraction_one_full_substitution(self):
        w = zincblende_nanowire(SI, 3, 1, 1)
        out = randomize_species(w, "Ge", 1.0, np.random.default_rng(0))
        assert set(out.species) == {"Ge"}

    def test_reproducible_with_seed(self):
        w = zincblende_nanowire(SI, 4, 2, 2)
        a = randomize_species(w, "Ge", 0.4, np.random.default_rng(7))
        b = randomize_species(w, "Ge", 0.4, np.random.default_rng(7))
        assert a.species == b.species

    def test_mask_respected(self):
        w = zincblende_nanowire(SI, 6, 1, 1)
        mask = alloy_region_mask(w, 1.5 * SI.a_nm, 4.5 * SI.a_nm)
        out = randomize_species(w, "Ge", 1.0, np.random.default_rng(0), mask)
        species = np.array(out.species)
        assert np.all(species[~mask] == "Si")
        assert np.all(species[mask] == "Ge")

    def test_composition_statistics(self):
        w = zincblende_nanowire(SI, 8, 2, 2)
        out = randomize_species(w, "Ge", 0.3, np.random.default_rng(3))
        frac = np.mean(np.array(out.species) == "Ge")
        assert abs(frac - 0.3) < 0.1

    def test_invalid_fraction(self):
        w = zincblende_nanowire(SI, 2, 1, 1)
        with pytest.raises(ValueError):
            randomize_species(w, "Ge", -0.1, np.random.default_rng(0))

    def test_bad_mask_shape(self):
        w = zincblende_nanowire(SI, 2, 1, 1)
        with pytest.raises(ValueError):
            randomize_species(
                w, "Ge", 0.5, np.random.default_rng(0), np.ones(3, bool)
            )

    def test_original_untouched(self):
        w = zincblende_nanowire(SI, 2, 1, 1)
        randomize_species(w, "Ge", 1.0, np.random.default_rng(0))
        assert set(w.species) == {"Si"}


class TestAlloyTransport:
    def test_disorder_reduces_transmission(self):
        """Alloy backscattering: T(random) < T(pure) inside the band."""
        si, ge = silicon_sp3s(), germanium_sp3s()
        am = alloy_material(si, ge)
        wire = zincblende_nanowire(SI, 7, 1, 1)
        dev_p = partition_into_slabs(wire, SI.a_nm, SI.bond_length_nm)
        from repro.tb.alloy import alloy_interior_mask
        mask = alloy_interior_mask(dev_p, n_lead_slabs=2)
        dis = randomize_species(
            dev_p.structure, "Ge", 0.5, np.random.default_rng(1), mask
        )
        dev_d = partition_into_slabs(dis, SI.a_nm, SI.bond_length_nm)
        t_pure = WFSolver(build_device_hamiltonian(dev_p, am)).transmission(2.5)
        t_dis = WFSolver(build_device_hamiltonian(dev_d, am)).transmission(2.5)
        assert t_pure == pytest.approx(2.0, abs=1e-3)
        assert t_dis < 0.9 * t_pure

    def test_leads_stay_pure(self):
        """Randomising only the interior keeps the contact slabs periodic."""
        wire = zincblende_nanowire(SI, 7, 1, 1)
        dev0 = partition_into_slabs(wire, SI.a_nm, SI.bond_length_nm)
        from repro.tb.alloy import alloy_interior_mask
        mask = alloy_interior_mask(dev0, n_lead_slabs=2)
        dis = randomize_species(
            dev0.structure, "Ge", 0.7, np.random.default_rng(2), mask
        )
        dev = partition_into_slabs(dis, SI.a_nm, SI.bond_length_nm)
        assert dev.lead_is_periodic("left")
        assert dev.lead_is_periodic("right")
        assert dev.slab_structure(0).species == ["Si"] * dev.slab_size(0)
