"""Atom diffraction from standing-wave light gratings at atom-scale wavelengths.

Subpackages: :mod:`xkd.potentials` (interaction potential and species
catalog), :mod:`xkd.diffraction` (Bessel-row patterns, one FFT of the exit
wave that long patterns and the fits share, and an independent Fourier
oracle), :mod:`xkd.feasibility` (planning estimates and pass/fail flags),
:mod:`xkd.fitting` (phase and polarizability recovery from measured peak
intensities by damped Gauss-Newton), :mod:`xkd.cli` (the ``xkd`` command).

Everything is a pure function of immutable inputs; there is no global
mutable state and no cache anywhere, so concurrent use needs no
coordination.
"""

from .potentials import (
    AtomSpecies,
    LaserGrating,
    PotentialModel,
    build_potential,
    evaluate_potential,
    lightshift_depth,
    quadrupole_scales,
    load_catalog,
    bundled_catalog,
)
from .diffraction import (
    TruncationError,
    PhaseSet,
    DiffractionPattern,
    bessel_J,
    dipole_pattern,
    quadrupole_pattern,
    phase_grating_oracle,
    phases_from_potential,
    intensities_csv,
)
from .feasibility import FeasibilityReport, plan_experiment
from .fitting import ObservedPattern, FitResult, fit_dipole, fit_quadrupole

__version__ = "0.1.0"

__all__ = [
    "AtomSpecies",
    "LaserGrating",
    "PotentialModel",
    "build_potential",
    "evaluate_potential",
    "lightshift_depth",
    "quadrupole_scales",
    "load_catalog",
    "bundled_catalog",
    "TruncationError",
    "PhaseSet",
    "DiffractionPattern",
    "bessel_J",
    "dipole_pattern",
    "quadrupole_pattern",
    "phase_grating_oracle",
    "phases_from_potential",
    "intensities_csv",
    "FeasibilityReport",
    "plan_experiment",
    "ObservedPattern",
    "FitResult",
    "fit_dipole",
    "fit_quadrupole",
    "__version__",
]
