"""Potential construction, time averaging and the species catalog."""

import json
import math
import re

import numpy as np
import pytest

from xkd import feasibility as feas
from xkd.constants import EV, R_BOHR
from xkd.diffraction import (
    PhaseSet,
    bessel_J,
    dipole_pattern,
    phase_grating_oracle,
    phases_from_potential,
)
from xkd.fitting import ObservedPattern, fit_dipole
from xkd.potentials import (
    AtomSpecies,
    CatalogError,
    LaserGrating,
    _need,
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
        # c_dc = c_cos2 = U0/2 and no other term: U0 cos^2 = U0/2 (1 + cos 2kX)
        m = build_potential(-3e-22, 0.0, 0.0, 1e10)
        x = np.linspace(-3e-10, 3e-10, 101)
        assert np.array_equal(evaluate_potential(m, x), -1.5e-22 + -1.5e-22 * np.cos(2e10 * x))
        assert evaluate_potential(m, 0.0) == -3e-22

    def test_a_only_coefficients(self):
        # c_sin2 = UA/4, c_sin4 = UA/8 and no other term, the DC one included
        m = build_potential(0.0, 8e-23, 0.0, 1e10)
        x = np.linspace(-3e-10, 3e-10, 101)
        phase = 2e10 * x
        expected = 2e-23 * np.sin(phase) + 1e-23 * np.sin(2.0 * phase)
        assert np.array_equal(evaluate_potential(m, x), expected)
        assert evaluate_potential(m, 0.0) == 0.0

    def test_coefficient_identities(self):
        # the five coefficients read off a DFT over one period pi/k of the
        # 2kX harmonic: c_dc = U0/2 + UC/8, c_cos2 = U0/2, c_sin2 = UA/4,
        # c_sin4 = UA/8, c_cos4 = -UC/8
        m = build_potential(-2e-22, 5e-23, 3e-23, 1e10)
        n = 64
        spectrum = np.fft.fft(evaluate_potential(m, np.arange(n) * (math.pi / 1e10) / n)) / n
        got = [spectrum[0].real, 2 * spectrum[1].real, -2 * spectrum[1].imag,
               -2 * spectrum[2].imag, 2 * spectrum[2].real]
        expected = [m.U0 / 2 + m.UC / 8, m.U0 / 2, m.UA / 4, m.UA / 8, -m.UC / 8]
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12 * abs(m.U0))
        assert np.max(np.abs(spectrum[3 : n - 2])) <= 1e-12 * abs(m.U0)

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
        # a NaN compares false both ways, so the order and sign checks pass it
        for bad in ((math.nan, 5e-22), (200.0, math.nan), (math.inf, 5e-22)):
            with pytest.raises(ValueError, match="finite"):
                make_atom(sigma_table=((100.0, 5e-22), bad, (300.0, 4e-22)))

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


# Every number a type or public function takes, as (id, call with the value
# in that place, what the ValueError must start with, a value that breaks
# its sign rule or None).  Photon energies meet the table's range rule, so
# they are refused as outside the table.
MODEL = build_potential(-1e-22, 1e-23, 1e-23, 1e10)
LASER = dict(wavelength=5e-10, intensity=1e14, pulse_duration=1e-12, spot_radius=1e-6)
TABLE_ATOM = make_atom(sigma_table=((100.0, 5e-22), (3000.0, 1e-24)))
NUMBER_INPUTS = [
    *((f"LaserGrating.{f}", lambda v, f=f: LaserGrating(**{**LASER, f: v}), f,
       -1e-300 if f == "intensity" else 0.0)
      for f in LASER),
    *((f"AtomSpecies.{f}", lambda v, f=f: make_atom(**{f: v}), f, sign)
      for f, sign in (("mass", 0.0), ("alpha", 0.0), ("ionization_energy", -1e-300),
                      ("A_dq", -1e-300), ("C_qq", -1e-300))),
    ("AtomSpecies.sigma_table energy", lambda v: make_atom(sigma_table=((v, 5e-22),)),
     "sigma_table entry 0 energy", 0.0),
    ("AtomSpecies.sigma_table sigma", lambda v: make_atom(sigma_table=((100.0, v),)),
     "sigma_table entry 0 cross section", 0.0),
    *((f"PotentialModel.{f}",
       lambda v, f=f: build_potential(**{**dict(U0=-1e-22, UA=0.0, UC=0.0, k_L=1e10), f: v}),
       f, 0.0 if f == "k_L" else None)
      for f in ("U0", "UA", "UC", "k_L")),
    *((f"PhaseSet.{f}", lambda v, f=f: PhaseSet(**{"theta0": 0.5, f: v}), f, None)
      for f in ("theta0", "thetaA2", "thetaC4")),
    ("PhaseSet.thetaA4", lambda v: PhaseSet(0.5, 0.1, v), "thetaA4", None),
    ("ObservedPattern.intensity", lambda v: ObservedPattern(((0, v, 1.0), (2, 0.1, 1.0))),
     "order 0: intensity", -1e-300),
    ("ObservedPattern.weight", lambda v: ObservedPattern.from_arrays([0, 2], [0.5, 0.1], [1.0, v]),
     "order 2: weight", 0.0),
    ("phases_from_potential.tau", lambda v: phases_from_potential(MODEL, v), "tau", 0.0),
    ("phase_grating_oracle.tau", lambda v: phase_grating_oracle(MODEL, v, 4096), "tau", 0.0),
    ("phase_grating_oracle.tolerance", lambda v: phase_grating_oracle(MODEL, 1e-12, 4096, v),
     "tolerance", 0.0),
    ("recoil_energy.mass", lambda v: feas.recoil_energy(v, 1e10), "mass", 0.0),
    ("recoil_energy.k_L", lambda v: feas.recoil_energy(1e-26, v), "k_L", None),
    ("regime_ratio.U", lambda v: feas.regime_ratio(v, 1e-25), "U", None),
    ("regime_ratio.epsilon", lambda v: feas.regime_ratio(1e-22, v), "epsilon", 0.0),
    ("required_intensity.U_target", lambda v: feas.required_intensity(TABLE_ATOM, v),
     "U_target", 0.0),
    ("interaction_time.U", lambda v: feas.interaction_time(v), "U", 0.0),
    ("photon_energy.wavelength", lambda v: feas.photon_energy(v), "wavelength", 0.0),
    ("interpolate_cross_section.energy_ev",
     lambda v: feas.interpolate_cross_section(TABLE_ATOM.sigma_table, v), "photon energy", 0.0),
    ("ionization_survival.intensity",
     lambda v: feas.ionization_survival(TABLE_ATOM, v, 200.0, 1e-12), "intensity", -1e-300),
    ("ionization_survival.photon_energy_ev",
     lambda v: feas.ionization_survival(TABLE_ATOM, 1e14, v, 1e-12), "photon energy", 0.0),
    ("ionization_survival.tau", lambda v: feas.ionization_survival(TABLE_ATOM, 1e14, 200.0, v),
     "tau", 0.0),
    *((f"semiclassical_check.{f}",
       lambda v, f=f: feas.semiclassical_check(**{**dict(intensity=1e14, wavelength=5e-10), f: v}),
       f, -1e-300 if f == "intensity" else 0.0)
      for f in ("intensity", "wavelength", "volume", "min_photons")),
    *((f"atom_velocity_needed.{f}",
       lambda v, f=f: feas.atom_velocity_needed(**{**dict(spot_radius=1e-6, tau=1e-12), f: v}),
       f, 0.0)
      for f in ("spot_radius", "tau")),
    *((f"plan_experiment.{f}",
       lambda v, f=f: feas.plan_experiment(TABLE_ATOM, make_laser(wavelength=5e-10),
                                           **{**dict(U_target=1e-3 * EV), f: v}),
       f, -1e-300 if f == "U_target" else 0.0)
      for f in ("U_target", "volume", "min_photons")),
]
NUMBER_CASES = [
    pytest.param(call, field, bad, id=f"{name}-{bad_id}")
    for name, call, field, sign in NUMBER_INPUTS
    for bad, bad_id in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                        (10**400, "huge-int"), (sign, "sign"))
    if bad is not None
]


@pytest.mark.parametrize("call, field, bad", NUMBER_CASES)
def test_bad_input_number_is_refused_naming_its_field(call, field, bad):
    with pytest.raises(ValueError, match="^" + re.escape(field) + " "):
        call(bad)


# The integer rule and the Bessel path's one range test, as (id, call with
# the value in that place, what the ValueError must start with, the values).
# A Bessel argument is refused as a phase, the name the range test gives it.
OBSERVED = ObservedPattern.from_arrays([-2, 0, 2], [0.2, 0.5, 0.2])
HUGE = 10**400
NON_FINITE = (math.nan, math.inf, -math.inf, HUGE)
REFUSED_INPUTS = [
    ("bessel_J.n", lambda v: bessel_J(v, 1.0), "n must be finite", NON_FINITE),
    ("bessel_J.n", lambda v: bessel_J(v, 1.0), "n must be an integer", (2.7, -0.5)),
    ("bessel_J.n", lambda v: bessel_J(v, 1.0), "n must be within +-10185",
     (10186, -10186, 10**6)),
    ("bessel_J.x", lambda v: bessel_J(0, v), "phase", (*NON_FINITE, 1.0001e4, -2e4)),
    ("dipole_pattern.theta0", dipole_pattern, "theta0 must be finite", NON_FINITE),
    ("dipole_pattern.theta0", dipole_pattern, "phase", (1.0001e4,)),
    ("fit_dipole.theta0_init", lambda v: fit_dipole(OBSERVED, v), "theta0_init must be finite",
     NON_FINITE),
    ("ObservedPattern.order", lambda v: ObservedPattern(((v, 0.1, 1.0), (0, 0.5, 1.0))),
     "order must be finite", NON_FINITE),
    ("ObservedPattern.order", lambda v: ObservedPattern(((v, 0.1, 1.0), (0, 0.5, 1.0))),
     "order must be an integer", (2.9, -0.5)),
    ("from_arrays.order", lambda v: ObservedPattern.from_arrays([v, 0], [0.1, 0.5]),
     "order must be an integer", (2.7, np.float64(4.5))),
    ("phase_grating_oracle.grid_points", lambda v: phase_grating_oracle(MODEL, 1e-12, v),
     "grid_points must be finite", NON_FINITE),
    ("phase_grating_oracle.grid_points", lambda v: phase_grating_oracle(MODEL, 1e-12, v),
     "grid_points must be an integer", (4096.7,)),
    ("time_average.samples_per_period", lambda v: time_average(math.cos, v),
     "samples_per_period must be finite", NON_FINITE),
    ("time_average.samples_per_period", lambda v: time_average(math.cos, v),
     "samples_per_period must be an integer", (16.9,)),
]
REFUSED_CASES = [
    pytest.param(call, start, bad, id=f"{name}-{'huge-int' if bad is HUGE else bad}")
    for name, call, start, values in REFUSED_INPUTS
    for bad in values
]


@pytest.mark.parametrize("call, start, bad", REFUSED_CASES)
def test_bad_integer_or_bessel_input_is_refused_naming_it(call, start, bad):
    with pytest.raises(ValueError, match="^" + re.escape(start)) as info:
        call(bad)
    # a huge int is printed capped, not with all its 401 digits
    assert len(str(info.value)) < 100


def test_integral_neighbours_of_refused_inputs_keep_their_results():
    # integral floats and numpy ints pass the integer rule as the int they equal
    rows = ((2, 0.1, 1.0), (0, 0.5, 1.0))
    for orders in ([2, 0], np.array([2.0, 0.0]), np.array([2, 0], dtype=np.int64)):
        observed = ObservedPattern.from_arrays(orders, [0.1, 0.5])
        assert observed.rows == rows
        assert all(type(q) is int for q, _, _ in observed.rows)
    assert ObservedPattern(((2.0, 0.1, 1.0), (0, 0.5, 1.0))).rows == rows
    for n in (2.0, np.int64(2), np.float64(2.0)):
        assert bessel_J(n, 1.0) == bessel_J(2, 1.0)
    # the highest order allowed, at both ends of the argument range, pinned to the bit
    assert bessel_J(10185, 1e4) == bessel_J(-10185, -1e4) == float.fromhex("0x1.032485f48844dp-41")
    assert bessel_J(-10185, 1e4) == -bessel_J(10185, 1e4)
    assert time_average(math.cos, 16.0) == time_average(math.cos, 16)
    oracle = phase_grating_oracle(MODEL, 1e-12, 4096)
    assert phase_grating_oracle(MODEL, 1e-12, 4096.0).amplitudes.tobytes() == oracle.amplitudes.tobytes()


@pytest.mark.parametrize("field, key, flags", [
    ("wavelength", "wavelength_m", {"positive": True}),
    ("intensity", "intensity_W_m2", {"nonnegative": True}),
    ("pulse_duration", "pulse_duration_s", {"positive": True}),
    ("spot_radius", "spot_radius_m", {"positive": True}),
])
def test_laser_field_and_config_key_refuse_the_same_values(field, key, flags):
    # the type and the config reader (with the CLI's flags) apply one rule
    for value in (math.nan, math.inf, -math.inf, 10**400, -(10**400), 1e308, -1e308,
                  -1.0, -1e-300, -0.0, 0.0, 0, 5e-324, 1e-300, 1, 2.5):
        try:
            LaserGrating(**{**LASER, field: value})
            type_refuses = False
        except ValueError:
            type_refuses = True
        try:
            _need({key: value}, key, "cfg.json", **flags)
            config_refuses = False
        except CatalogError:
            config_refuses = True
        assert type_refuses == config_refuses, value


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
