"""Feasibility estimates against independently derived frozen constants.

Every frozen value below was computed once in 40-digit arithmetic through
the explicit Gaussian-unit chain (W/m^2 -> erg s^-1 cm^-2, statvolt fields,
erg energies) rather than through the package's SI shortcut, so the two
unit paths check each other.
"""

import math

import pytest

from xkd.constants import EV, HBAR, M_PROTON
from xkd.feasibility import (
    SigmaRangeError,
    atom_velocity_needed,
    interaction_time,
    interpolate_cross_section,
    ionization_survival,
    photon_energy,
    plan_experiment,
    recoil_energy,
    regime_ratio,
    required_intensity,
    semiclassical_check,
)
from xkd.potentials import AtomSpecies, LaserGrating

K_L_5A = 2.0 * math.pi / 5e-10

# frozen reference chain (40-digit arithmetic, Gaussian-unit route)
RECOIL_15MP_5A_EV = 2.1844525562957031e-4
REQUIRED_I_WM2 = 1.9111344317196095e14      # alpha 1e-29 m^3, depth 1e-3 eV
TAU_1MEV_S = 6.5821195695090657e-13
TAU_1EV_S = 6.5821195695090657e-16
EPH_5A_EV = 2479.6839686640052
EPH_500NM_EV = 2.4796839686640052
GAMMA_NA_100EV = 3.1207545372303813e9       # sigma 5e-22 m^2, I 1e14, 100 eV
GAMMA_TAU_NA = 3.1207545372303813e-3
SURVIVAL_NA = 0.9968841099555987
DENSITY_500NM_1E7 = 8.3960026898720536e16


def atom_with_table(table, alpha=1e-29, mass=15 * M_PROTON):
    return AtomSpecies(
        name="t", mass=mass, alpha=alpha, ionization_energy=5.1, sigma_table=table
    )


class TestRecoilEnergy:
    def test_frozen_value(self):
        assert recoil_energy(15 * M_PROTON, K_L_5A) == pytest.approx(
            RECOIL_15MP_5A_EV, rel=1e-12
        )

    def test_quadratic_in_k(self):
        e1 = recoil_energy(15 * M_PROTON, K_L_5A)
        assert recoil_energy(15 * M_PROTON, 2 * K_L_5A) == pytest.approx(
            4 * e1, rel=1e-12
        )

    def test_inverse_in_mass(self):
        e1 = recoil_energy(15 * M_PROTON, K_L_5A)
        assert recoil_energy(30 * M_PROTON, K_L_5A) == pytest.approx(
            e1 / 2, rel=1e-12
        )

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            recoil_energy(0.0, K_L_5A)


class TestRegimeRatio:
    def test_decade_above(self):
        assert regime_ratio(1e-3 * EV, 1e-4 * EV) == pytest.approx(10.0, rel=1e-12)

    def test_zero_depth(self):
        assert regime_ratio(0.0, 1e-4 * EV) == 0.0

    def test_boundary_value(self):
        # the flag built on this ratio is strict, so exactly 1 must not pass
        assert regime_ratio(1e-4 * EV, 1e-4 * EV) == 1.0

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            regime_ratio(1e-22, 0.0)


class TestRequiredIntensity:
    def test_frozen_value(self):
        atom = atom_with_table(((100.0, 5e-22),))
        assert required_intensity(atom, 1e-3 * EV) == pytest.approx(
            REQUIRED_I_WM2, rel=1e-12
        )

    def test_linear_in_depth(self):
        atom = atom_with_table(((100.0, 5e-22),))
        i1 = required_intensity(atom, 1e-3 * EV)
        assert required_intensity(atom, 4e-3 * EV) == pytest.approx(4 * i1, rel=1e-12)

    def test_low_polarizability_end(self):
        hi = atom_with_table(((100.0, 5e-22),), alpha=1e-29)
        lo = atom_with_table(((100.0, 5e-22),), alpha=1e-31)
        assert required_intensity(lo, 1e-3 * EV) == pytest.approx(
            100 * required_intensity(hi, 1e-3 * EV), rel=1e-12
        )

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            required_intensity(atom_with_table(((100.0, 5e-22),)), 0.0)


class TestInteractionTime:
    def test_frozen_values(self):
        assert interaction_time(1e-3 * EV) == pytest.approx(TAU_1MEV_S, rel=1e-12)
        assert interaction_time(1.0 * EV) == pytest.approx(TAU_1EV_S, rel=1e-12)

    def test_inverse_scaling(self):
        assert interaction_time(2e-3 * EV) == pytest.approx(
            interaction_time(1e-3 * EV) / 2, rel=1e-12
        )

    def test_sign_independent(self):
        assert interaction_time(-1e-3 * EV) == interaction_time(1e-3 * EV)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            interaction_time(0.0)


class TestPhotonEnergy:
    def test_frozen_values(self):
        assert photon_energy(5e-10) == pytest.approx(EPH_5A_EV, rel=1e-12)
        assert photon_energy(500e-9) == pytest.approx(EPH_500NM_EV, rel=1e-12)

    def test_inverse_in_wavelength(self):
        assert photon_energy(1e-9) == pytest.approx(2 * photon_energy(2e-9), rel=1e-12)


class TestIonizationSurvival:
    def test_frozen_reference_case(self):
        atom = atom_with_table(((100.0, 5e-22),))
        gamma, gamma_tau, survival = ionization_survival(atom, 1e14, 100.0, 1e-12)
        assert gamma == pytest.approx(GAMMA_NA_100EV, rel=1e-12)
        assert gamma_tau == pytest.approx(GAMMA_TAU_NA, rel=1e-12)
        assert survival == pytest.approx(SURVIVAL_NA, rel=1e-12)

    def test_zero_intensity(self):
        atom = atom_with_table(((100.0, 5e-22),))
        gamma, gamma_tau, survival = ionization_survival(atom, 0.0, 100.0, 1e-12)
        assert (gamma, gamma_tau, survival) == (0.0, 0.0, 1.0)

    def test_half_life_construction(self):
        atom = atom_with_table(((100.0, 5e-22),))
        tau = math.log(2.0) / GAMMA_NA_100EV
        _, _, survival = ionization_survival(atom, 1e14, 100.0, tau)
        assert survival == pytest.approx(0.5, rel=1e-12)

    def test_out_of_range_names_bounds(self):
        atom = atom_with_table(((30.0, 8e-21), (3000.0, 8e-22)))
        with pytest.raises(SigmaRangeError, match=r"\[30, 3000\]"):
            ionization_survival(atom, 1e14, 5.0, 1e-12)

    def test_survival_monotone_in_intensity_and_time(self):
        atom = atom_with_table(((100.0, 5e-22),))
        s = [
            ionization_survival(atom, i, 100.0, 1e-12)[2]
            for i in (1e13, 1e14, 1e15, 1e16)
        ]
        assert all(a > b for a, b in zip(s, s[1:]))
        s = [
            ionization_survival(atom, 1e14, 100.0, t)[2]
            for t in (1e-13, 1e-12, 1e-11)
        ]
        assert all(a > b for a, b in zip(s, s[1:]))


class TestCrossSectionInterpolation:
    TABLE = ((30.0, 8e-21), (100.0, 5e-22), (300.0, 8e-23), (1000.0, 6e-24))

    def test_nodes_exact(self):
        for e, s in self.TABLE:
            assert interpolate_cross_section(self.TABLE, e) == s

    def test_log_log_between_nodes(self):
        # hand formula: sigma = s0 * (s1/s0)**(ln(E/E0)/ln(E1/E0))
        e = 180.0
        t = math.log(e / 100.0) / math.log(300.0 / 100.0)
        expected = 5e-22 * (8e-23 / 5e-22) ** t
        assert interpolate_cross_section(self.TABLE, e) == pytest.approx(
            expected, rel=1e-14
        )

    def test_single_entry_table(self):
        assert interpolate_cross_section(((100.0, 5e-22),), 100.0) == 5e-22
        with pytest.raises(SigmaRangeError):
            interpolate_cross_section(((100.0, 5e-22),), 101.0)

    @pytest.mark.parametrize("table, energy", [
        (((100, 1e-22), (math.nan, 1e-23), (3000, 1e-24)), 200.0),  # returned None
        (((100, 1e-22), (3000, 1e-24), (200, 1e-23)), 150.0),  # bracketed by 100 and 3000
    ], ids=["nan-energy", "unsorted"])
    def test_raw_table_is_checked_like_a_species_table(self, table, energy):
        with pytest.raises(ValueError, match="^sigma_table "):
            interpolate_cross_section(table, energy)

    def test_energy_outside_or_nan_names_the_range(self):
        # inside the range every energy is a node or lies between two
        # neighbouring nodes, so the range check is the only refusal
        for e in (29.9, 1000.1, math.nan):
            with pytest.raises(SigmaRangeError, match=r"range \[30, 1000\] eV"):
                interpolate_cross_section(self.TABLE, e)


class TestSemiclassical:
    def test_frozen_density(self):
        density, count, ok = semiclassical_check(1e7, 500e-9, 1e-12)
        assert density == pytest.approx(DENSITY_500NM_1E7, rel=1e-12)
        # honest evaluation: ~8.4e4 photons in the benchmark volume, short
        # of the million-photon criterion at these reference numbers
        assert count == pytest.approx(DENSITY_500NM_1E7 * 1e-12, rel=1e-12)
        assert not ok

    def test_zero_intensity_fails(self):
        density, count, ok = semiclassical_check(0.0, 500e-9, 1e-12)
        assert density == 0.0 and count == 0.0 and not ok

    def test_short_wavelength_intensity_scale(self):
        # for ~100 eV photons, 1e11 W/m^2 comfortably clears the count
        # criterion (the computed threshold is ~5e9 W/m^2), 1e8 does not
        wavelength = 2.0 * math.pi * HBAR * 299792458.0 / (100.0 * EV)
        assert semiclassical_check(1e11, wavelength, 1e-12)[2]
        assert not semiclassical_check(1e8, wavelength, 1e-12)[2]


class TestAtomVelocity:
    def test_direct_value(self):
        assert atom_velocity_needed(0.5e-6, 1e-12) == pytest.approx(1e6, rel=1e-12)

    def test_micron_spot_order(self):
        v = atom_velocity_needed(1e-6, 1e-12)
        assert 0.5 <= v / 1e6 <= 2.0

    def test_inverse_in_tau(self):
        assert atom_velocity_needed(1e-6, 2e-12) == pytest.approx(
            atom_velocity_needed(1e-6, 1e-12) / 2, rel=1e-12
        )


NA_LIKE_TABLE = (
    (30.0, 8e-21),
    (60.0, 1.5e-21),
    (100.0, 5e-22),
    (300.0, 8e-23),
    (1000.0, 6e-24),
    (1100.0, 3e-21),
    (2000.0, 1.5e-21),
    (3000.0, 8e-22),
)


def xray_scenario_atom():
    return AtomSpecies(
        name="t",
        mass=15 * M_PROTON,
        alpha=1e-29,
        ionization_energy=10.0,
        sigma_table=NA_LIKE_TABLE,
    )


class TestPlanExperiment:
    def test_xray_scenario_all_flags_pass(self):
        atom = xray_scenario_atom()
        u_target = 1e-3 * EV
        laser = LaserGrating(
            wavelength=5e-10,
            intensity=required_intensity(atom, u_target),
            pulse_duration=1e-12,
            spot_radius=1e-6,
        )
        report = plan_experiment(atom, laser, u_target)
        assert report.flags.all_pass()
        # ionized fraction stays in the permille range for this exposure
        assert 1e-4 < report.gamma_tau < 5e-3
        assert report.survival_fraction > 0.99
        assert report.regime_ratio > 1.0
        assert report.photons_in_volume > 1e6

    def test_determinism(self):
        atom = xray_scenario_atom()
        laser = LaserGrating(5e-10, 1.9e14, 1e-12, 1e-6)
        assert plan_experiment(atom, laser, 1e-3 * EV) == plan_experiment(
            atom, laser, 1e-3 * EV
        )

    def test_zero_intensity_scenario(self):
        atom = xray_scenario_atom()
        laser = LaserGrating(5e-10, 0.0, 1e-12, 1e-6)
        report = plan_experiment(atom, laser, 0.0)
        assert report.survival_fraction == 1.0
        assert not report.flags.diffraction_regime
        assert not report.flags.visibility
        assert not report.flags.semiclassical
        assert report.flags.low_ionization
        assert not report.flags.all_pass()

    def test_absurd_depth_breaches_nonlinear_threshold(self):
        atom = AtomSpecies(
            name="t",
            mass=15 * M_PROTON,
            alpha=1e-31,
            ionization_energy=10.0,
            sigma_table=NA_LIKE_TABLE,
        )
        u_target = 1.0 * EV
        intensity = required_intensity(atom, u_target)
        assert intensity > 1e18
        laser = LaserGrating(5e-10, intensity, 1e-12, 1e-6)
        report = plan_experiment(atom, laser, u_target)
        assert not report.flags.below_nonlinear_threshold

    def test_boundary_regime_ratio_fails_strictly(self):
        # tune the intensity so the exact well depth equals the recoil energy;
        # the flag must be the strict comparison of the reported ratio (the
        # reconstructed ratio can land a rounding unit either side of 1)
        atom = xray_scenario_atom()
        eps_j = recoil_energy(atom.mass, K_L_5A) * EV
        intensity = required_intensity(atom, 4.0 * eps_j)  # |U0| = eps exactly
        laser = LaserGrating(5e-10, intensity, 1e-12, 1e-6)
        report = plan_experiment(atom, laser, 4.0 * eps_j)
        assert report.regime_ratio == pytest.approx(1.0, rel=1e-12)
        assert report.flags.diffraction_regime == (report.regime_ratio > 1.0)
        # comfortably below the boundary the flag must fail outright
        weak = plan_experiment(
            atom, LaserGrating(5e-10, intensity / 10.0, 1e-12, 1e-6), 0.4 * eps_j
        )
        assert not weak.flags.diffraction_regime

    def test_photon_energy_outside_table_is_explicit(self):
        atom = atom_with_table(((30.0, 8e-21), (3000.0, 8e-22)))
        laser = LaserGrating(500e-9, 1e7, 1e-12, 1e-6)  # 2.48 eV photons
        with pytest.raises(SigmaRangeError):
            plan_experiment(atom, laser, 1e-3 * EV)

    def test_non_finite_report_refused(self):
        # a finite but huge spot radius makes the transit velocity overflow;
        # the report is written as JSON, which has no inf
        atom = xray_scenario_atom()
        laser = LaserGrating(5e-10, 1.9e14, 1e-12, 1e308)
        with pytest.raises(ValueError, match="atom_velocity_needed is not finite"):
            plan_experiment(atom, laser, 1e-3 * EV)

    def test_report_carries_convention_notes(self):
        atom = xray_scenario_atom()
        laser = LaserGrating(5e-10, 1.9e14, 1e-12, 1e-6)
        report = plan_experiment(atom, laser, 1e-3 * EV)
        joined = " ".join(report.notes)
        assert "rule-of-thumb" in joined
        assert "adiabatic" in joined

    def test_survival_consistency_invariant(self):
        atom = xray_scenario_atom()
        laser = LaserGrating(5e-10, 1.9e14, 1e-12, 1e-6)
        report = plan_experiment(atom, laser, 1e-3 * EV)
        assert report.survival_fraction == pytest.approx(
            math.exp(-report.gamma_tau), rel=1e-15
        )
        assert 0.0 < report.survival_fraction <= 1.0
