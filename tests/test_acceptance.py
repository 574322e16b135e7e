"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Frozen reference constants were derived independently in 40-digit
arithmetic through the explicit Gaussian-unit chain (see test_feasibility
for the derivation notes); Bessel references come from the 50-digit
ascending-series oracle in conftest.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from xkd import constants, diffraction, fitting
from xkd.constants import EV, HBAR, M_PROTON
from xkd.diffraction import PhaseSet, dipole_pattern, phase_grating_oracle, quadrupole_pattern
from xkd.feasibility import (
    interaction_time,
    ionization_survival,
    recoil_energy,
    required_intensity,
)
from xkd.potentials import AtomSpecies, build_potential, time_average

from conftest import bessel_series_oracle

TAU = 1e-12
K_L = 1.2566e10
_suite_cache = {}


def random_suite():
    """100 seeded random phase sets with every |phase| <= 3, plus patterns."""
    if "sets" not in _suite_cache:
        rng = np.random.default_rng(20260810)
        sets = []
        t0 = time.perf_counter()
        for _ in range(100):
            theta0, theta_a2, theta_c4 = rng.uniform(-3.0, 3.0, 3)
            model = build_potential(
                U0=theta0 * 2.0 * HBAR / TAU,
                UA=theta_a2 * 4.0 * HBAR / TAU,
                UC=-theta_c4 * 8.0 * HBAR / TAU,
                k_L=K_L,
            )
            phases = diffraction.phases_from_potential(model, TAU)
            analytic = quadrupole_pattern(phases, tolerance=1e-10)
            oracle = phase_grating_oracle(model, TAU, grid_points=2**14, tolerance=1e-10)
            sets.append((phases, analytic, oracle))
        _suite_cache["sets"] = sets
        _suite_cache["elapsed"] = time.perf_counter() - t0
    return _suite_cache["sets"], _suite_cache["elapsed"]


def aligned_deviation(analytic, oracle) -> float:
    """Largest per-order amplitude gap after removing one global phase."""
    orders = sorted(set(map(int, analytic.orders)) | set(map(int, oracle.orders)))
    a = np.array([analytic.amplitude(q) for q in orders])
    o = np.array([oracle.amplitude(q) for q in orders])
    z = np.vdot(o, a)
    phase = z / abs(z) if abs(z) > 0 else 1.0
    return float(np.max(np.abs(a - o * phase)))


def test_criterion_1_analytic_vs_oracle_equivalence():
    sets, elapsed = random_suite()
    worst = max(aligned_deviation(analytic, oracle) for _, analytic, oracle in sets)
    assert worst < 1e-9
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 (analytic vs oracle, 100 seeded sets): "
        f"max deviation {worst:.3e}, runtime {elapsed:.2f} s -- PASS"
    )


def test_criterion_2_unitarity():
    sets, _ = random_suite()
    low, high = 1.0, 1.0
    for _, analytic, oracle in sets:
        for pattern in (analytic, oracle):
            total = float(np.sum(pattern.intensities))
            low = min(low, total)
            high = max(high, total)
    assert low >= 1.0 - 1e-10
    assert high <= 1.0 + 1e-12
    print(
        f"ACCEPTANCE 2 (unitarity): intensity totals in "
        f"[{low:.15f}, {high:.15f}] -- PASS"
    )


def test_criterion_3_parity():
    sets, _ = random_suite()
    worst = max(oracle.odd_leakage for _, _, oracle in sets)
    assert worst < 1e-12
    print(f"ACCEPTANCE 3 (odd-order parity): max odd amplitude {worst:.3e} -- PASS")


def test_criterion_4_reduction():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(25):
        theta0 = float(rng.uniform(-3.0, 3.0))
        dip = dipole_pattern(theta0)
        quad = quadrupole_pattern(PhaseSet(theta0))
        orders = sorted(set(map(int, dip.orders)) | set(map(int, quad.orders)))
        worst = max(
            worst, max(abs(dip.amplitude(q) - quad.amplitude(q)) for q in orders)
        )
    assert worst <= 1e-14
    print(f"ACCEPTANCE 4 (dipole reduction): max deviation {worst:.3e} -- PASS")


def test_criterion_5_bessel_layer():
    worst_scaled = 0.0
    for x in (0.25, 1.0, 2.0, 3.7, 5.0, 7.9, 12.0, 20.0):
        for n in range(0, 51):
            ref = bessel_series_oracle(n, x)
            err = abs(diffraction.bessel_J(n, x) - ref)
            # relative contract with the near-zero absolute floor
            allowed = max(1e-13 * abs(ref), 1e-15)
            worst_scaled = max(worst_scaled, err / allowed)
            assert err <= allowed, (n, x)
    total = diffraction.bessel_J(0, 2.0) ** 2 + 2.0 * sum(
        diffraction.bessel_J(n, 2.0) ** 2 for n in range(1, 51)
    )
    assert abs(total - 1.0) < 1e-13
    print(
        f"ACCEPTANCE 5 (Bessel layer): worst error at {worst_scaled:.3f} of "
        f"contract, completeness gap {abs(total - 1.0):.3e} -- PASS"
    )


def test_criterion_6_headline_reproduction():
    # each value must match its independently hand-derived constant to 1e-12
    # relative AND sit within a factor 5 of the round-number benchmark
    atom = AtomSpecies(
        name="t",
        mass=15 * M_PROTON,
        alpha=1e-29,
        ionization_energy=10.0,
        sigma_table=((100.0, 5e-22),),
    )
    k_l = 2.0 * math.pi / 5e-10
    cases = []

    eps = recoil_energy(atom.mass, k_l)
    cases.append(("recoil energy [eV]", eps, 2.1844525562957031e-4, 1e-4))

    intensity = required_intensity(atom, 1e-3 * EV)
    cases.append(("required intensity [W/m^2]", intensity, 1.9111344317196095e14, 1e14))

    tau = interaction_time(1e-3 * EV)
    cases.append(("interaction time [s]", tau, 6.5821195695090657e-13, 1e-12))

    _, gamma_tau, _ = ionization_survival(atom, 1e14, 100.0, 1e-12)
    cases.append(("Gamma*tau", gamma_tau, 3.1207545372303813e-3, 1e-3))

    for label, value, frozen, benchmark in cases:
        assert value == pytest.approx(frozen, rel=1e-12), label
        ratio = value / benchmark
        assert 1.0 / 5.0 <= ratio <= 5.0, label

    # documented reference constant for the electron-beam demonstration
    assert constants.ELECTRON_KD_INTENSITY == 5e14

    summary = ", ".join(f"{label} {value:.4e}" for label, value, _, _ in cases)
    print(f"ACCEPTANCE 6 (headline estimates): {summary} -- PASS")


def test_criterion_7_fit_round_trip():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        truth = (
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(-2.0, 2.0)),
        )
        pattern = quadrupole_pattern(PhaseSet(truth[0], truth[1], thetaC4=truth[2]))
        observed = fitting.ObservedPattern.from_arrays(
            pattern.orders, pattern.intensities
        )
        init = PhaseSet(
            truth[0] * 1.03 + 0.02, truth[1] * 0.97 + 0.02, thetaC4=truth[2] * 1.03 - 0.02
        )
        result = fitting.fit_quadrupole(observed, init)
        hat = (result.theta0_hat, result.thetaA2_hat, result.thetaC4_hat)
        # recovery judged up to the documented exact equivalences of the model
        dev = min(
            max(abs(h - t) for h, t in zip(hat, cand))
            for cand in fitting.equivalent_triples(*truth)
        )
        worst = max(worst, dev)
        assert dev <= 1e-6, (truth, hat)

    nested = fitting.fit_quadrupole(
        fitting.ObservedPattern.from_arrays(
            dipole_pattern(0.9).orders, dipole_pattern(0.9).intensities
        ),
        PhaseSet(0.8, 0.05, thetaC4=0.02),
    )
    assert abs(nested.thetaA2_hat) < 1e-6
    assert abs(nested.thetaC4_hat) < 1e-6
    print(
        f"ACCEPTANCE 7 (fit round trips): worst parameter deviation {worst:.3e}, "
        f"nested quad leakage {max(abs(nested.thetaA2_hat), abs(nested.thetaC4_hat)):.3e} "
        f"-- PASS"
    )


def test_criterion_8_time_averages():
    dev_cos = abs(time_average(math.cos))
    dev_cos2 = abs(time_average(lambda p: math.cos(p) ** 2) - 0.5)
    dev_cos2cos = abs(time_average(lambda p: math.cos(p) ** 2 * math.cos(p)))
    assert dev_cos < 1e-12
    assert dev_cos2 < 1e-12
    assert dev_cos2cos < 1e-12
    print(
        f"ACCEPTANCE 8 (time averages): cos {dev_cos:.2e}, cos^2 {dev_cos2:.2e}, "
        f"cos^2 cos {dev_cos2cos:.2e} -- PASS"
    )


def test_criterion_9_verify_determinism(tmp_path):
    reports = []
    for name in ("r1.txt", "r2.txt"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "xkd", "verify", "--seed", "2026", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    print(
        f"ACCEPTANCE 9 (verify determinism): {len(reports[0])} bytes, "
        f"identical across runs -- PASS"
    )
