"""Potential construction, time averaging and the species catalog."""

import json
import math

import numpy as np
import pytest

from xkd.constants import EV, R_BOHR
from xkd.potentials import (
    AtomSpecies,
    CatalogError,
    LaserGrating,
    build_potential,
    evaluate_potential,
    lightshift_depth,
    load_catalog,
    quadrupole_scales,
    time_average,
)


def make_atom(**overrides):
    kwargs = dict(
        name="t",
        mass=2.5e-26,
        alpha=1e-29,
        ionization_energy=10.0,
        sigma_table=((100.0, 5e-22),),
    )
    kwargs.update(overrides)
    return AtomSpecies(**kwargs)


def make_laser(intensity=1e14, wavelength=5e-10):
    return LaserGrating(
        wavelength=wavelength,
        intensity=intensity,
        pulse_duration=1e-12,
        spot_radius=1e-6,
    )


class TestLightshiftDepth:
    def test_depth_scale_at_diffraction_regime_field(self):
        # at ~1.9e14 W/m^2 the rule-of-thumb depth alpha*E0^2 is ~1e-3 eV
        # and the exact well depth is a quarter of that
        atom = make_atom(alpha=1e-29)
        laser = make_laser(intensity=1.9e14)
        u0 = lightshift_depth(atom, laser)
        assert u0 < 0
        assert 0.5 < abs(u0) / (0.25e-3 * EV) < 2.0
        assert 0.5 < atom.alpha * laser.E0_squared / (1e-3 * EV) < 2.0

    def test_zero_intensity(self):
        assert lightshift_depth(make_atom(), make_laser(intensity=0.0)) == 0.0

    def test_frozen_unit_conversion_value(self):
        # one-time hand conversion: I = 1e14 W/m^2 = 1e17 erg s^-1 cm^-2;
        # E0^2 = 8 pi I_cgs / c_cgs = 8 pi 1e17 / 2.99792458e10
        #      = 8.3828554...e7 (statvolt/cm)^2; alpha = 1e-29 m^3 = 1e-23 cm^3;
        # U0 = -alpha E0^2/4 = -2.0957e-16 erg = -2.0957e-23 J; exact chain
        # value frozen below (50-digit arithmetic)
        u0 = lightshift_depth(make_atom(alpha=1e-29), make_laser(intensity=1e14))
        assert u0 == pytest.approx(-2.0958450219516818e-23, rel=1e-12)

    def test_linear_in_alpha_and_intensity(self):
        base = lightshift_depth(make_atom(alpha=1e-31), make_laser(intensity=1e11))
        for decades in (1, 2, 3):
            scale = 10.0**decades
            assert lightshift_depth(
                make_atom(alpha=1e-31 * scale), make_laser(intensity=1e11)
            ) == pytest.approx(base * scale, rel=1e-12)
            assert lightshift_depth(
                make_atom(alpha=1e-31), make_laser(intensity=1e11 * scale)
            ) == pytest.approx(base * scale, rel=1e-12)


class TestQuadrupoleScales:
    def test_zero_multipliers(self):
        assert quadrupole_scales(make_atom(), make_laser()) == (0.0, 0.0)

    def test_frozen_direct_evaluation(self):
        # dimensional-analysis chain, 50-digit arithmetic:
        # UA = (e^2/(4 pi eps0)) r0^3 / E_h * k_L * (8 pi I / c)
        atom = make_atom(A_dq=1.0, C_qq=1.0)
        ua, uc = quadrupole_scales(atom, make_laser(intensity=1e14))
        assert ua == pytest.approx(9.0039820781816307e-25, rel=1e-12)
        assert uc == pytest.approx(5.9875012746561517e-25, rel=1e-12)

    def test_magnitude_band_at_diffraction_regime_field(self):
        # with unit multipliers, the atomic-scale estimate (e r0 E0)^2/E_h
        # sits in the 1e-5..1e-4 eV decade for the ~1e-3 eV depth field; the
        # defining expressions trail it by the exact factors (r0 k_L) and
        # (r0 k_L)^2, which widens the low side of the band accordingly
        atom = make_atom(A_dq=1.0, C_qq=1.0)
        laser = make_laser(intensity=1.9111344317196095e14)
        ua, uc = quadrupole_scales(atom, laser)
        rk = R_BOHR * laser.k_L
        estimate_ev = ua / rk / EV
        assert 1e-5 <= estimate_ev <= 1e-4
        assert ua / EV == pytest.approx(estimate_ev * rk, rel=1e-12)
        assert uc / EV == pytest.approx(estimate_ev * rk * rk, rel=1e-12)
        assert 1e-5 * rk**2 <= ua / EV <= 1e-4
        assert 1e-5 * rk**2 <= uc / EV <= 1e-4


class TestPotentialModel:
    def test_dipole_only_coefficients(self):
        m = build_potential(-3e-22, 0.0, 0.0, 1e10)
        assert m.fourier.c_dc == -1.5e-22
        assert m.fourier.c_cos2 == -1.5e-22
        assert m.fourier.c_sin2 == 0.0
        assert m.fourier.c_sin4 == 0.0
        assert m.fourier.c_cos4 == 0.0

    def test_a_only_coefficients(self):
        m = build_potential(0.0, 8e-23, 0.0, 1e10)
        assert m.fourier.c_sin2 == 2e-23
        assert m.fourier.c_sin4 == 1e-23
        assert m.fourier.c_dc == 0.0
        assert m.fourier.c_cos2 == 0.0
        assert m.fourier.c_cos4 == 0.0

    def test_coefficient_identities(self):
        m = build_potential(-2e-22, 5e-23, 3e-23, 1e10)
        f = m.fourier
        assert f.c_dc == m.U0 / 2 + m.UC / 8
        assert f.c_cos2 == m.U0 / 2
        assert f.c_sin2 == m.UA / 4
        assert f.c_sin4 == m.UA / 8
        assert f.c_cos4 == -m.UC / 8

    def test_fourier_equals_raw_trigonometric_form(self):
        # brute-force pointwise oracle: the un-decomposed product form
        rng = np.random.default_rng(321)
        k_l = 1.2566e10
        for _ in range(10):
            u0, ua, uc = rng.uniform(-1e-21, 1e-21, 3)
            m = build_potential(u0, ua, uc, k_l)
            x = rng.uniform(-2e-9, 2e-9, 100)
            c, s = np.cos(k_l * x), np.sin(k_l * x)
            raw = u0 * c**2 + ua * c**3 * s + uc * c**2 * s**2
            got = evaluate_potential(m, x)
            scale = np.max(np.abs(raw)) + 1e-300
            assert np.max(np.abs(got - raw)) / scale < 1e-12

    def test_dipole_point_values(self):
        k_l = 2 * math.pi / 5e-10
        m = build_potential(-4e-22, 0.0, 0.0, k_l)
        assert evaluate_potential(m, 0.0) == pytest.approx(-4e-22, rel=1e-15)
        node = 5e-10 / 4
        assert abs(evaluate_potential(m, node)) < 1e-12 * 4e-22

    def test_degenerate_reduction_period_and_range(self):
        k_l = 1e10
        u0 = -7e-22
        m = build_potential(u0, 0.0, 0.0, k_l)
        x = np.linspace(-3e-10, 3e-10, 1001)
        period = math.pi / k_l
        assert np.max(np.abs(evaluate_potential(m, x) - evaluate_potential(m, x + period))) < 1e-12 * abs(u0)
        vals = evaluate_potential(m, np.linspace(0, period, 4001))
        assert vals.min() >= u0 * (1 + 1e-12)
        assert vals.max() <= 1e-12 * abs(u0)
        # extremes attained exactly at the antinode and node
        assert evaluate_potential(m, 0.0) == u0
        assert evaluate_potential(m, period / 2) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            build_potential(float("inf"), 0.0, 0.0, 1e10)
        with pytest.raises(ValueError):
            build_potential(0.0, 0.0, 0.0, 0.0)


class TestTimeAverage:
    def test_cos_squared_is_half(self):
        assert abs(time_average(lambda p: math.cos(p) ** 2) - 0.5) < 1e-12

    def test_cos_vanishes(self):
        assert abs(time_average(math.cos)) < 1e-12

    def test_cos_squared_times_cos_vanishes(self):
        # analytic value is zero: expand into cos and cos(3 phi) terms
        assert abs(time_average(lambda p: math.cos(p) ** 2 * math.cos(p))) < 1e-12

    def test_odd_powers_vanish(self):
        for power in (1, 3, 5, 7):
            assert abs(time_average(lambda p, n=power: math.cos(p) ** n)) < 1e-12

    def test_minimum_sampling(self):
        with pytest.raises(ValueError):
            time_average(math.cos, samples_per_period=15)
        assert abs(time_average(lambda p: math.cos(p) ** 2, 16) - 0.5) < 1e-12


class TestValidation:
    def test_atom_invariants(self):
        with pytest.raises(ValueError):
            make_atom(mass=0.0)
        with pytest.raises(ValueError):
            make_atom(alpha=-1e-30)
        with pytest.raises(ValueError):
            make_atom(A_dq=-0.1)
        with pytest.raises(ValueError):
            make_atom(sigma_table=())
        with pytest.raises(ValueError):
            make_atom(sigma_table=((100.0, 5e-22), (100.0, 4e-22)))
        with pytest.raises(ValueError):
            make_atom(sigma_table=((100.0, 0.0),))

    def test_laser_invariants(self):
        with pytest.raises(ValueError):
            make_laser(wavelength=0.0)
        with pytest.raises(ValueError):
            make_laser(intensity=-1.0)
        # zero intensity is the legitimate no-grating case
        assert make_laser(intensity=0.0).E0_squared == 0.0

    def test_laser_derived_quantities(self):
        laser = make_laser(wavelength=5e-10)
        assert laser.k_L == pytest.approx(2 * math.pi / 5e-10, rel=1e-15)


class TestCatalog:
    def test_bundled_catalog(self, bundled_species):
        assert "Na" in bundled_species
        na = bundled_species["Na"]
        assert na.mass > 0
        # the anchor point used throughout the ionization examples
        assert (100.0, 5e-22) in na.sigma_table

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"species": [{"name": "X", "mass_kg": 1e-26}]}))
        with pytest.raises(CatalogError, match="alpha_m3"):
            load_catalog(path)

    def test_bad_sigma_entry_named(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "species": [
                {
                    "name": "X",
                    "mass_kg": 1e-26,
                    "alpha_m3": 1e-29,
                    "ionization_energy_eV": 5.0,
                    "sigma_table": [[100.0]],
                }
            ]
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(CatalogError, match="sigma_table"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "key, bad",
        [("mass_kg", True), ("mass_kg", float("nan")), ("mass_kg", 10**400), ("alpha_m3", -1),
         ("A_dq", -0.5), ("sigma_table", [[100.0, 5e-22], [50.0, 1e-22]])],
        ids=["bool", "nan", "huge-int", "negative", "negative-optional", "unsorted-table"],
    )
    def test_bad_value_named(self, tmp_path, key, bad):
        entry = {
            "name": "X",
            "mass_kg": 1e-26,
            "alpha_m3": 1e-29,
            "ionization_energy_eV": 5.0,
            "sigma_table": [[100.0, 5e-22]],
            key: bad,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"species": [entry]}))
        with pytest.raises(CatalogError, match=f"key '{key}'"):
            load_catalog(path)

    def test_unknown_keys_named(self, tmp_path):
        entry = {
            "name": "X",
            "mass_kg": 1e-26,
            "alpha_m3": 1e-29,
            "ionization_energy_eV": 5.0,
            "sigma_table": [[100.0, 5e-22]],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"species": [{**entry, "C_qd": 1.0}]}))
        with pytest.raises(CatalogError, match="species entry 0: unknown key 'C_qd'"):
            load_catalog(path)
        path.write_text(json.dumps({"notes": "", "species": [entry], "note": ""}))
        with pytest.raises(CatalogError, match="unknown key 'note'"):
            load_catalog(path)

    def test_duplicate_species(self, tmp_path):
        entry = {
            "name": "X",
            "mass_kg": 1e-26,
            "alpha_m3": 1e-29,
            "ionization_energy_eV": 5.0,
            "sigma_table": [[100.0, 5e-22]],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"species": [entry, entry]}))
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(CatalogError, match="JSON"):
            load_catalog(path)
