"""Time-averaged optical potential felt by a polarizable atom in a standing wave.

The potential seen by the centre of mass is built from three pieces, each a
separate Fourier scale of the grating:

* ``U0 cos^2(kx)``           dipole lightshift, ``U0 = -alpha E0^2 / 4``
* ``UA cos^3(kx) sin(kx)``   quadrupole moment induced by the field itself
* ``UC cos^2(kx) sin^2(kx)`` quadrupole moment induced by the field gradient

All three survive averaging over an optical period because they go as
``cos^2(w t)``.  Permanent multipole couplings oscillate as ``cos(w t)``
instead and average away; :func:`time_average` and
:func:`multipole_magnitude` exist to demonstrate both facts numerically.

The trigonometric expansion of the three spatial profiles gives five Fourier
coefficients (a DC term plus harmonics at 2k and 4k); :class:`PotentialModel`
carries the coefficient set and guarantees the identities between them.

All quantities are SI; Gaussian-convention field conversions happen only in
:mod:`xkd.constants`.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .constants import (
    C,
    E2_GAUSS,
    HARTREE_NOMINAL,
    R_BOHR,
    field_amplitude,
    field_amplitude_squared,
)


@dataclass(frozen=True)
class AtomSpecies:
    """Atom-side inputs: mass, polarizabilities and photoionization table.

    ``alpha`` is the dipole polarizability *volume* (m^3, Gaussian
    convention).  ``A_dq`` and ``C_qq`` are the induced-quadrupole
    polarizabilities expressed as dimensionless multiples of the atomic-scale
    units e^2 r0^3/E_h and e^2 r0^4/E_h; reliable measured values are scarce,
    so they default to zero.  ``sigma_table`` is a sequence of
    (photon energy [eV], cross section [m^2]) pairs with strictly increasing
    energies.
    """

    name: str
    mass: float                 # kg
    alpha: float                # m^3
    ionization_energy: float    # eV
    sigma_table: tuple[tuple[float, float], ...]
    A_dq: float = 0.0
    C_qq: float = 0.0

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"mass must be > 0, got {self.mass}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.A_dq < 0:
            raise ValueError(f"A_dq must be >= 0, got {self.A_dq}")
        if self.C_qq < 0:
            raise ValueError(f"C_qq must be >= 0, got {self.C_qq}")
        table = tuple((float(e), float(s)) for e, s in self.sigma_table)
        object.__setattr__(self, "sigma_table", table)
        if len(table) < 1:
            raise ValueError("sigma_table needs at least one entry")
        energies = [e for e, _ in table]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise ValueError("sigma_table energies must be strictly increasing")
        if any(s <= 0 for _, s in table):
            raise ValueError("sigma_table cross sections must be > 0")


@dataclass(frozen=True)
class LaserGrating:
    """Light-side inputs for one standing-wave grating."""

    wavelength: float       # m
    intensity: float        # W/m^2 (peak, standing wave)
    pulse_duration: float   # s
    spot_radius: float      # m

    def __post_init__(self):
        for name in ("wavelength", "pulse_duration", "spot_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        # intensity 0 is a legitimate degenerate case (no grating)
        if self.intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {self.intensity}")

    @property
    def k_L(self) -> float:
        """Grating wavevector, 1/m."""
        return 2.0 * math.pi / self.wavelength

    @property
    def omega_L(self) -> float:
        """Optical angular frequency, rad/s."""
        return 2.0 * math.pi * C / self.wavelength

    @property
    def optical_period(self) -> float:
        """One field period 2 pi / omega_L, s."""
        return self.wavelength / C

    @property
    def E0_squared(self) -> float:
        """Gaussian-convention E0^2 as an energy density, J/m^3."""
        return field_amplitude_squared(self.intensity)

    @property
    def E0(self) -> float:
        return field_amplitude(self.intensity)


class FourierCoefficients(NamedTuple):
    """Coefficients of U(X) = c_dc + c_cos2 cos(2kX) + c_sin2 sin(2kX)
    + c_sin4 sin(4kX) + c_cos4 cos(4kX), all in joules."""

    c_dc: float
    c_cos2: float
    c_sin2: float
    c_sin4: float
    c_cos4: float


@dataclass(frozen=True)
class PotentialModel:
    """Periodic potential with its five-term Fourier decomposition.

    The coefficients are derived, not free: c_dc = U0/2 + UC/8,
    c_cos2 = U0/2, c_sin2 = UA/4, c_sin4 = UA/8, c_cos4 = -UC/8.
    With UA = UC = 0 the model is exactly U0 cos^2(k_L X).
    """

    U0: float       # J
    UA: float       # J
    UC: float       # J
    k_L: float      # 1/m
    fourier: FourierCoefficients = field(init=False)

    def __post_init__(self):
        for name in ("U0", "UA", "UC", "k_L"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.k_L > 0:
            raise ValueError(f"k_L must be > 0, got {self.k_L}")
        object.__setattr__(
            self,
            "fourier",
            FourierCoefficients(
                c_dc=self.U0 / 2.0 + self.UC / 8.0,
                c_cos2=self.U0 / 2.0,
                c_sin2=self.UA / 4.0,
                c_sin4=self.UA / 8.0,
                c_cos4=-self.UC / 8.0,
            ),
        )


def lightshift_depth(atom: AtomSpecies, laser: LaserGrating) -> float:
    """Dipole lightshift well depth U0 = -alpha E0^2 / 4, in J.

    Negative for alpha > 0: the wells sit at the field antinodes.  The 1/4
    is the product of the cos^2 spatial profile written out and the 1/2 from
    averaging cos^2(w t) over an optical period.
    """
    return -atom.alpha * laser.E0_squared / 4.0


def quadrupole_scales(atom: AtomSpecies, laser: LaserGrating) -> tuple[float, float]:
    """Induced-quadrupole term scales (UA, UC) in J.

    UA = A_dq (e^2 r0^3/E_h) k_L E0^2 couples the field-induced quadrupole
    to the field gradient; UC = C_qq (e^2 r0^4/E_h) (k_L E0)^2 is the
    gradient-induced quadrupole against the gradient.  Both are a factor
    (r0 k_L) resp. (r0 k_L)^2 below the atomic-scale estimate
    (e r0 E0)^2 / E_h, which for fields deep in the diffraction regime lands
    in the 1e-4..1e-5 eV decade.
    """
    a_unit = E2_GAUSS * R_BOHR**3 / HARTREE_NOMINAL   # m^4
    c_unit = E2_GAUSS * R_BOHR**4 / HARTREE_NOMINAL   # m^5
    e0_sq = laser.E0_squared
    ua = atom.A_dq * a_unit * laser.k_L * e0_sq
    uc = atom.C_qq * c_unit * laser.k_L**2 * e0_sq
    return ua, uc


def build_potential(U0: float, UA: float, UC: float, k_L: float) -> PotentialModel:
    """Assemble a PotentialModel; coefficients follow from the invariants."""
    return PotentialModel(U0=U0, UA=UA, UC=UC, k_L=k_L)


def evaluate_potential(model: PotentialModel, X):
    """Potential at position(s) X in metres, in J.  Accepts scalars or arrays."""
    f = model.fourier
    phase = 2.0 * model.k_L * np.asarray(X, dtype=float)
    out = (
        f.c_dc
        + f.c_cos2 * np.cos(phase)
        + f.c_sin2 * np.sin(phase)
        + f.c_sin4 * np.sin(2.0 * phase)
        + f.c_cos4 * np.cos(2.0 * phase)
    )
    if np.isscalar(X) or getattr(X, "ndim", 0) == 0:
        return float(out)
    return out


def time_average(integrand: Callable, samples_per_period: int = 4096) -> float:
    """Average ``integrand(phi)`` over one period phi = omega t in [0, 2pi).

    Uniform sampling of a trigonometric polynomial over a full period is
    exact up to rounding once the sample count exceeds the bandwidth, so the
    canonical facts are reproduced at machine precision: cos^2 averages to
    1/2 (the lightshift's extra factor of two), while cos and cos^2*cos
    average to zero (what removes every permanent multipole term and the
    magnetic-dipole term from the effective potential).
    """
    m = int(samples_per_period)
    if m < 16:
        raise ValueError(f"samples_per_period must be >= 16, got {samples_per_period}")
    phi = 2.0 * math.pi * np.arange(m) / m
    return float(np.mean([integrand(p) for p in phi]))


def multipole_magnitude(order_n: int, laser: LaserGrating) -> float:
    """Instantaneous scale e r0^n k_L^(n-1) E0 of the n-th permanent multipole, J.

    For r0 k_L near one every order is comparable to e r0 E0, i.e. no
    multipole is individually negligible while the field is on; they drop
    out only because their cos(w t) time dependence averages to zero.
    """
    n = int(order_n)
    if n < 2:
        raise ValueError(f"order_n must be >= 2, got {order_n}")
    e_gauss = math.sqrt(E2_GAUSS)
    return e_gauss * R_BOHR**n * laser.k_L ** (n - 1) * laser.E0


class CatalogError(ValueError):
    """Malformed catalog or config value; the message names the offending key."""


_REQUIRED = object()
_KIND_NAMES = {str: "a string", dict: "an object", list: "an array",
               (str, dict): "a string or an object"}


def _need(doc: dict, key: str, where: str, kind=float, default=_REQUIRED,
          positive: bool = False, nonnegative: bool = False):
    """The one reader of config and catalog values: ``doc[key]`` as ``kind``.

    A number must be a JSON number (not a bool, null or string), finite as a
    float, and ``> 0``/``>= 0`` where asked; it comes back as a float.  A
    missing key gives ``default`` if one is passed.  Failures raise
    CatalogError reading "<where>: key '<key>' ...".
    """
    if key not in doc:
        if default is _REQUIRED:
            raise CatalogError(f"{where}: key '{key}' is missing")
        return default
    value = doc[key]
    if kind is not float:
        if isinstance(value, kind):
            return value
        problem = "must be " + _KIND_NAMES[kind]
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = "must be a number"
    elif not -sys.float_info.max <= value <= sys.float_info.max:  # also NaN, huge ints
        problem = "must be finite"
    elif positive and not value > 0:
        problem = "must be > 0"
    elif nonnegative and value < 0:
        problem = "must be >= 0"
    else:
        return float(value)
    raise CatalogError(f"{where}: key '{key}' {problem}, got {json.dumps(value)[:40]}")


def _known(doc: dict, where: str, keys: frozenset) -> dict:
    """``doc``, once every key in it is one of ``keys``: a misspelt optional
    key would otherwise fall back to its default without a word."""
    unknown = sorted(set(doc) - keys)
    if unknown:
        names = ", ".join(f"'{key}'" for key in unknown)
        raise CatalogError(
            f"{where}: unknown key {names} (known: {', '.join(sorted(keys))})"
        )
    return doc


def _read_object(path: str | os.PathLike) -> dict:
    """The JSON object in the file at ``path`` (a config or a catalog)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # also bytes that are not UTF-8
            raise CatalogError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise CatalogError(f"{path}: top level must be an object")
    return doc


_CATALOG_KEYS = frozenset({"notes", "species"})
_SPECIES_KEYS = frozenset({"name", "mass_kg", "alpha_m3", "ionization_energy_eV", "sigma_table",
                           "A_dq", "C_qq"})


def _parse_species(entry: dict, where: str) -> AtomSpecies:
    if not isinstance(entry, dict):
        raise CatalogError(f"{where}: species entry must be an object")
    _known(entry, where, _SPECIES_KEYS)
    name = _need(entry, "name", where, str)
    where = f"{where} ('{name}')"
    mass, alpha = (_need(entry, k, where, positive=True) for k in ("mass_kg", "alpha_m3"))
    ionization_energy = _need(entry, "ionization_energy_eV", where, nonnegative=True)
    table = []
    for i, pair in enumerate(_need(entry, "sigma_table", where, list)):
        pair_where = f"{where}: key 'sigma_table' entry {i}"
        if not isinstance(pair, list) or len(pair) != 2:
            raise CatalogError(f"{pair_where} must be [energy_eV, sigma_m2]")
        fields = dict(zip(("energy_eV", "sigma_m2"), pair))
        table.append(tuple(_need(fields, k, pair_where, positive=True) for k in fields))
    A_dq, C_qq = (_need(entry, k, where, default=0.0, nonnegative=True) for k in ("A_dq", "C_qq"))
    try:
        return AtomSpecies(name, mass, alpha, ionization_energy, tuple(table), A_dq, C_qq)
    except ValueError as exc:  # the scalars are checked above: the table's length or order
        raise CatalogError(f"{where}: key 'sigma_table': {exc}") from exc


def load_catalog(path: str | os.PathLike) -> dict[str, AtomSpecies]:
    """Load a species catalog JSON file.

    Schema: a top-level object with a "species" array; each entry carries
    name, mass_kg, alpha_m3, ionization_energy_eV, a sigma_table array of
    [energy_eV, sigma_m2] pairs, and optional A_dq / C_qq multipliers; an
    optional top-level "notes" is the only other key allowed.  Raises
    CatalogError naming the offending key on any malformed or unknown one.
    """
    catalog: dict[str, AtomSpecies] = {}
    doc = _known(_read_object(path), str(path), _CATALOG_KEYS)
    for i, entry in enumerate(_need(doc, "species", str(path), list)):
        species = _parse_species(entry, f"species entry {i}")
        if species.name in catalog:
            raise CatalogError(f"species entry {i}: duplicate name '{species.name}'")
        catalog[species.name] = species
    return catalog


def bundled_catalog() -> dict[str, AtomSpecies]:
    """The illustrative catalog shipped with the package."""
    from importlib.resources import files

    return load_catalog(str(files("xkd").joinpath("data/atoms.json")))
