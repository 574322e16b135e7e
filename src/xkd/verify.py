"""Seeded self-verification: analytic engines against independent checks.

Runs the identity suite the package's correctness rests on: analytic
patterns against the Fourier oracle, unitarity, parity, the dipole pattern
against its Jacobi-Anger comb, Bessel identities and frozen reference
values, time averages and fit round-trips.  Deterministic for a fixed
seed; the report text is byte-stable so repeated runs can be diffed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from . import diffraction
from .fitting import ObservedPattern, equivalent_triples, fit_quadrupole
from .potentials import build_potential, time_average
from .diffraction import PhaseSet

__all__ = ["CheckResult", "run_checks", "format_report"]

# frozen J_n(x) references, computed once with a 50-digit ascending power
# series; the runtime layer must reproduce them to near machine precision
_BESSEL_REFERENCES = (
    (0, 1.0, 0.76519768655796655145),
    (1, 1.0, 0.44005058574493351596),
    (2, 1.0, 0.11490348493190048047),
    (5, 10.0, -0.23406152818679364044),
    (10, 7.5, 0.038998257889412210093),
    (20, 15.0, 0.0073602340792234852583),
    (0, 0.5, 0.93846980724081290423),
    (3, 2.0, 0.1289432494744020511),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    limit: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.limit


def _pattern_pair_dev(p1, p2) -> float:
    qs = np.union1d(p1.orders, p2.orders)
    diff = p1.amplitudes_at(qs) - p2.amplitudes_at(qs)
    # hypot, as abs(complex) is, so the deviation keeps its last bit
    return float(np.max(np.hypot(diff.real, diff.imag)))


def _random_model(rng: np.random.Generator, tau: float, k_l: float):
    theta0, theta_a2, theta_c4 = rng.uniform(-3.0, 3.0, 3)
    return build_potential(
        U0=theta0 * 2.0 * HBAR / tau,
        UA=theta_a2 * 4.0 * HBAR / tau,
        UC=-theta_c4 * 8.0 * HBAR / tau,
        k_L=k_l,
    )


def run_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    tau, k_l = 1e-12, 1.2566e10

    oracle_dev = 0.0
    unitarity_dev = 0.0
    parity_dev = 0.0
    for _ in range(25):
        model = _random_model(rng, tau, k_l)
        phases = diffraction.phases_from_potential(model, tau)
        analytic = diffraction.quadrupole_pattern(phases)
        oracle = diffraction.phase_grating_oracle(model, tau)
        oracle_dev = max(oracle_dev, _pattern_pair_dev(analytic, oracle))
        for pattern in (analytic, oracle):
            unitarity_dev = max(
                unitarity_dev, abs(1.0 - float(np.sum(pattern.intensities)))
            )
        parity_dev = max(parity_dev, oracle.odd_leakage)

    reduction_dev = 0.0
    for _ in range(10):
        theta0 = float(rng.uniform(-3.0, 3.0))
        row, tail = diffraction._truncated_bessel(theta0)  # comb i^n J_n(theta0)
        comb = diffraction.DiffractionPattern(diffraction._times_i_powers(row), tail)
        dip = diffraction.dipole_pattern(theta0)
        reduction_dev = max(reduction_dev, _pattern_pair_dev(dip, comb))

    bessel_dev = 0.0
    for n, x, ref in _BESSEL_REFERENCES:
        bessel_dev = max(bessel_dev, abs(diffraction.bessel_J(n, x) - ref) / abs(ref))
    for x in rng.uniform(0.1, 20.0, 8):
        x = float(x)
        total = diffraction.bessel_J(0, x) ** 2 + 2.0 * sum(
            diffraction.bessel_J(n, x) ** 2 for n in range(1, 61)
        )
        bessel_dev = max(bessel_dev, abs(1.0 - total))
        for n in range(1, 15):
            sym = diffraction.bessel_J(-n, x) - (-1.0) ** n * diffraction.bessel_J(n, x)
            bessel_dev = max(bessel_dev, abs(sym))

    avg_dev = max(
        abs(time_average(np.cos)),
        abs(time_average(lambda p: np.cos(p) ** 2) - 0.5),
        abs(time_average(lambda p: np.cos(p) ** 2 * np.cos(p))),
    )

    fit_dev = 0.0
    for _ in range(3):
        truth = (
            float(rng.uniform(0.2, 1.5)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-1.0, 1.0)),
        )
        pattern = diffraction.quadrupole_pattern(
            PhaseSet(truth[0], truth[1], thetaC4=truth[2])
        )
        observed = ObservedPattern.from_arrays(pattern.orders, pattern.intensities)
        init = PhaseSet(
            truth[0] * 1.02 + 0.01,
            truth[1] * 0.98 + 0.01,
            thetaC4=truth[2] * 1.02 - 0.01,
        )
        result = fit_quadrupole(observed, init)
        hat = (result.theta0_hat, result.thetaA2_hat, result.thetaC4_hat)
        fit_dev = max(
            fit_dev,
            min(
                max(abs(h - t) for h, t in zip(hat, cand))
                for cand in equivalent_triples(*truth)
            ),
        )

    return [
        CheckResult("analytic_vs_oracle", oracle_dev, 1e-9),
        CheckResult("unitarity", unitarity_dev, 1e-10),
        CheckResult("odd_order_parity", parity_dev, 1e-12),
        CheckResult("dipole_reduction", reduction_dev, 1e-14),
        CheckResult("bessel_identities", bessel_dev, 1e-13),
        CheckResult("time_averages", avg_dev, 1e-12),
        CheckResult("fit_round_trip", fit_dev, 1e-6),
    ]


def format_report(checks: list[CheckResult], seed: int) -> str:
    lines = [f"self-verification (seed {seed})"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{c.name:<20s} max deviation {c.max_deviation:.6e} "
            f"(limit {c.limit:.0e})  {status}"
        )
    lines.append(
        "all checks passed" if all(c.passed for c in checks) else "CHECKS FAILED"
    )
    return "\n".join(lines) + "\n"
