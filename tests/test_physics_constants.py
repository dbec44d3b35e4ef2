"""Tests for repro.physics.constants."""

import math

import pytest

from repro.physics import constants as C


class TestConstants:
    def test_hbar2_over_2m0_value(self):
        # hbar^2/(2 m0) = 3.80998e-2 eV nm^2 (standard value).
        assert C.HBAR2_OVER_2M0 == pytest.approx(0.0380998, rel=1e-5)

    def test_kT_room(self):
        assert C.KT_ROOM == pytest.approx(0.02585, rel=1e-3)

    def test_conductance_quantum_consistency(self):
        # With energies in eV, 1 eV of window per 1 V of bias: the spinful
        # conductance quantum is numerically 2 * (q/h in A/eV).
        assert C.G0_SIEMENS == pytest.approx(2.0 * C.Q_OVER_H_A_PER_EV, rel=1e-6)

    def test_free_electron_dispersion(self):
        # k = 1/nm free electron: E = 0.0381 eV.
        k = 1.0
        assert C.HBAR2_OVER_2M0 * k**2 == pytest.approx(0.0381, abs=1e-4)


class TestThermalEnergy:
    def test_room_temperature(self):
        assert C.thermal_energy(300.0) == pytest.approx(C.KT_ROOM)

    def test_zero(self):
        assert C.thermal_energy(0.0) == 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            C.thermal_energy(-1.0)


class TestEffectiveMassHopping:
    def test_value(self):
        # t = hbar^2/(2 m a^2): m=1, a=1nm -> t = 0.0381 eV.
        assert C.effective_mass_hopping(1.0, 1.0) == pytest.approx(
            C.HBAR2_OVER_2M0
        )

    def test_scaling_with_spacing(self):
        t1 = C.effective_mass_hopping(0.5, 0.2)
        t2 = C.effective_mass_hopping(0.5, 0.4)
        assert t1 == pytest.approx(4.0 * t2)

    def test_scaling_with_mass(self):
        assert C.effective_mass_hopping(0.25, 0.3) == pytest.approx(
            4.0 * C.effective_mass_hopping(1.0, 0.3)
        )

    @pytest.mark.parametrize("m,a", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_invalid_args(self, m, a):
        with pytest.raises(ValueError):
            C.effective_mass_hopping(m, a)


class TestDeBroglie:
    def test_known_value(self):
        # lambda = 2 pi / k with k = sqrt(E/(hbar^2/2m)).
        E = 0.0380998212
        assert C.de_broglie_wavelength(E, 1.0) == pytest.approx(2 * math.pi)

    def test_mass_dependence(self):
        # Heavier mass -> shorter wavelength at same energy.
        assert C.de_broglie_wavelength(0.1, 1.0) > C.de_broglie_wavelength(0.1, 4.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            C.de_broglie_wavelength(0.0)
