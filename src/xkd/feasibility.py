"""Experiment feasibility envelope for short-wavelength atom diffraction.

Collects the standard planning estimates into one report: recoil energy and
the depth-to-recoil ratio that marks the thin-grating diffraction regime,
the laser intensity needed for a target potential depth, the interaction
time for an order-unity imprinted phase, photoionization losses, the
photon count that justifies treating the field classically, and the atom
velocity implied by transit through a focused spot.

Two conventions worth noting.  The exact lightshift depth is
``U0 = -alpha E0^2/4``; intensity sizing here follows the cruder
``U ~ alpha E0^2`` rule-of-thumb (so a requested depth converts into a
field without the factor 4), while the regime ratio uses the exact |U0| of
the actual field.  Both choices are recorded in the report notes.  All
pass/fail flags use strict inequalities except the photon-count criterion,
which passes at its stated benchmark count.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .constants import C, EV, HBAR, NONLINEAR_INTENSITY
from .potentials import AtomSpecies, LaserGrating, _number, _sigma_table, lightshift_depth

__all__ = [
    "SigmaRangeError",
    "FeasibilityFlags",
    "FeasibilityReport",
    "recoil_energy",
    "regime_ratio",
    "required_intensity",
    "interaction_time",
    "photon_energy",
    "interpolate_cross_section",
    "ionization_survival",
    "semiclassical_check",
    "atom_velocity_needed",
    "plan_experiment",
]

# defaults for the semiclassical criterion: benchmark photon count in a
# typical interaction volume (10 um x 1 mm x 100 um)
DEFAULT_INTERACTION_VOLUME = 1e-12   # m^3
DEFAULT_MIN_PHOTONS = 1e6

# pass bands for the planning flags (documented conventions)
VISIBILITY_BAND = 3.0               # |U| tau / hbar within (1/3, 3)
MAX_GAMMA_TAU = 0.1                 # ionized fraction below ~10%


class SigmaRangeError(ValueError):
    """Photon energy outside the tabulated cross-section range."""


@dataclass(frozen=True)
class FeasibilityFlags:
    diffraction_regime: bool
    visibility: bool
    semiclassical: bool
    low_ionization: bool
    below_nonlinear_threshold: bool

    def all_pass(self) -> bool:
        return all(astuple(self))


@dataclass(frozen=True)
class FeasibilityReport:
    recoil_energy: float          # eV
    regime_ratio: float           # |U0| / recoil
    required_intensity: float     # W/m^2 for the target depth
    interaction_time: float       # s (planned exposure)
    photon_energy: float          # eV
    ionization_rate: float        # 1/s
    gamma_tau: float
    survival_fraction: float
    photon_density: float         # 1/m^3
    photons_in_volume: float
    atom_velocity_needed: float   # m/s
    flags: FeasibilityFlags
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        # a report is written as JSON, which has no inf or NaN
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} is not finite ({value})")


def recoil_energy(mass: float, k_L: float) -> float:
    """Single-photon recoil energy hbar^2 k_L^2 / 2m, in eV."""
    _number("mass", mass, positive=True)
    _number("k_L", k_L)
    return (HBAR * k_L) ** 2 / (2.0 * mass) / EV


def regime_ratio(U: float, epsilon: float) -> float:
    """|U| / epsilon with both in J; above one marks the diffraction regime."""
    _number("U", U)
    _number("epsilon", epsilon, positive=True)
    return abs(U) / epsilon


def required_intensity(atom: AtomSpecies, U_target: float) -> float:
    """Intensity (W/m^2) giving depth U_target (J) under U ~ alpha E0^2.

    Inverts the rule-of-thumb depth against I = c E0^2 / 8 pi; the exact
    cos^2-well depth of the resulting field is U_target / 4.
    """
    _number("U_target", U_target, positive=True)
    return U_target * C / (8.0 * math.pi * atom.alpha)


def interaction_time(U: float) -> float:
    """Exposure tau = hbar / |U| that imprints an order-unity phase, in s."""
    if _number("U", U) == 0:
        raise ValueError("U must be nonzero")
    return HBAR / abs(U)


def photon_energy(wavelength: float) -> float:
    """Photon energy 2 pi hbar c / lambda, in eV."""
    _number("wavelength", wavelength, positive=True)
    return 2.0 * math.pi * HBAR * C / wavelength / EV


def interpolate_cross_section(
    sigma_table: tuple[tuple[float, float], ...], energy_ev: float
) -> float:
    """Cross section at energy_ev by log-log linear interpolation.

    Nodes return the tabulated value untouched; a table that breaks
    AtomSpecies's rules raises ValueError, and energies outside it (NaN
    too) SigmaRangeError naming the range: photoionization data follow
    steep power laws, so extrapolating would just invent physics.
    """
    sigma_table = _sigma_table(sigma_table)
    lo, hi = sigma_table[0][0], sigma_table[-1][0]
    if not lo <= energy_ev <= hi:
        raise SigmaRangeError(
            f"photon energy {energy_ev!s:.40} eV outside cross-section table "
            f"range [{lo:g}, {hi:g}] eV"
        )
    for (e0, s0), (e1, s1) in zip(sigma_table, sigma_table[1:]):
        if e0 <= energy_ev < e1:  # at a node t = 0, and x ** 0.0 is exactly 1.0
            t = math.log(energy_ev / e0) / math.log(e1 / e0)
            return s0 * (s1 / s0) ** t
    return sigma_table[-1][1]  # energy_ev == hi


def ionization_survival(
    atom: AtomSpecies, intensity: float, photon_energy_ev: float, tau: float
) -> tuple[float, float, float]:
    """Ionization rate, accumulated Gamma*tau and surviving fraction.

    Gamma = sigma I / (hbar omega) with sigma interpolated from the species
    table at the photon energy; the rate is treated as constant over the
    exposure, so N(tau)/N0 = exp(-Gamma tau).
    """
    _number("intensity", intensity, nonnegative=True)
    _number("tau", tau, positive=True)
    sigma = interpolate_cross_section(atom.sigma_table, photon_energy_ev)
    gamma = sigma * intensity / (photon_energy_ev * EV)
    gamma_tau = gamma * tau
    return gamma, gamma_tau, math.exp(-gamma_tau)


def semiclassical_check(
    intensity: float,
    wavelength: float,
    volume: float = DEFAULT_INTERACTION_VOLUME,
    min_photons: float = DEFAULT_MIN_PHOTONS,
) -> tuple[float, float, bool]:
    """Photon density I / (c hbar omega), count in the volume, and verdict.

    Treating the grating classically is safe when many photons occupy the
    interaction region; the benchmark count is one million.
    """
    _number("intensity", intensity, nonnegative=True)
    _number("wavelength", wavelength, positive=True)
    _number("volume", volume, positive=True)
    _number("min_photons", min_photons, positive=True)
    density = intensity / (C * photon_energy(wavelength) * EV)
    count = density * volume
    return density, count, count >= min_photons


def atom_velocity_needed(spot_radius: float, tau: float) -> float:
    """Velocity for a transit time tau across the focal spot, m/s.

    Uses the spot diameter, 2 r / tau; the factor-two transit convention is
    fixed here rather than hidden in callers.
    """
    _number("spot_radius", spot_radius, positive=True)
    _number("tau", tau, positive=True)
    return 2.0 * spot_radius / tau


def plan_experiment(
    atom: AtomSpecies,
    laser: LaserGrating,
    U_target: float,
    volume: float = DEFAULT_INTERACTION_VOLUME,
    min_photons: float = DEFAULT_MIN_PHOTONS,
) -> FeasibilityReport:
    """Compose the whole feasibility envelope for one scenario.

    ``laser`` carries the actual planned field (its intensity may be the one
    solved for from U_target, or an independently chosen value, including
    zero); ``U_target`` is the rule-of-thumb depth used for intensity sizing
    and the visibility phase.  Pure and deterministic.
    """
    _number("U_target", U_target, nonnegative=True)
    tau = laser.pulse_duration
    eps_ev = recoil_energy(atom.mass, laser.k_L)
    u0 = lightshift_depth(atom, laser)
    ratio = regime_ratio(u0, eps_ev * EV)
    req_intensity = required_intensity(atom, U_target) if U_target > 0 else 0.0
    e_ph = photon_energy(laser.wavelength)
    gamma, gamma_tau, survival = ionization_survival(atom, laser.intensity, e_ph, tau)
    density, count, sc_ok = semiclassical_check(
        laser.intensity, laser.wavelength, volume, min_photons
    )
    velocity = atom_velocity_needed(laser.spot_radius, tau)
    vis_phase = U_target * tau / HBAR

    flags = FeasibilityFlags(
        diffraction_regime=ratio > 1.0,
        visibility=(1.0 / VISIBILITY_BAND) < vis_phase < VISIBILITY_BAND,
        semiclassical=sc_ok,
        low_ionization=gamma_tau < MAX_GAMMA_TAU,
        below_nonlinear_threshold=req_intensity < NONLINEAR_INTENSITY,
    )

    notes = [
        "intensity sizing uses the rule-of-thumb depth U ~ alpha E0^2; the "
        "exact cos^2 well depth of that field is U/4 and the regime ratio "
        f"uses the exact value (|U0| = {abs(u0) / EV:.6e} eV)",
        f"actual laser intensity {laser.intensity:.6e} W/m^2 vs "
        f"{req_intensity:.6e} W/m^2 required for the target depth",
    ]
    if U_target > 0:
        notes.append(
            "exposure matching an order-unity imprinted phase would be "
            f"{interaction_time(U_target):.6e} s (planned: {tau:.6e} s)"
        )
    if atom.ionization_energy > 0:
        notes.append(
            f"adiabaticity: photon energy {e_ph:.6e} eV is "
            f"{e_ph / atom.ionization_energy:.1f}x the {atom.ionization_energy:g} eV "
            "ionization energy, far from any internal resonance, so the "
            "internal state follows the field adiabatically"
        )

    return FeasibilityReport(
        recoil_energy=eps_ev,
        regime_ratio=ratio,
        required_intensity=req_intensity,
        interaction_time=tau,
        photon_energy=e_ph,
        ionization_rate=gamma,
        gamma_tau=gamma_tau,
        survival_fraction=survival,
        photon_density=density,
        photons_in_volume=count,
        atom_velocity_needed=velocity,
        flags=flags,
        notes=tuple(notes),
    )
