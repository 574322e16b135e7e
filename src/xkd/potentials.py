"""Time-averaged optical potential felt by a polarizable atom in a standing wave.

The potential seen by the centre of mass is built from three pieces, each a
separate Fourier scale of the grating:

* ``U0 cos^2(kx)``           dipole lightshift, ``U0 = -alpha E0^2 / 4``
* ``UA cos^3(kx) sin(kx)``   quadrupole moment induced by the field itself
* ``UC cos^2(kx) sin^2(kx)`` quadrupole moment induced by the field gradient

All three survive averaging over an optical period because they go as
``cos^2(w t)``.  Permanent multipole couplings oscillate as ``cos(w t)``
instead and average away, however large they are while the field is on;
:func:`time_average` demonstrates both facts numerically.

The trigonometric expansion of the three spatial profiles gives five Fourier
coefficients (a DC term plus harmonics at 2k and 4k), all fixed by U0, UA and
UC, so :class:`PotentialModel` keeps only those three depths and k_L.

All quantities are SI; Gaussian-convention field conversions happen only in
:mod:`xkd.constants`.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import (
    E2_GAUSS,
    HARTREE_NOMINAL,
    R_BOHR,
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
        for name in ("mass", "alpha"):
            _number(name, getattr(self, name), positive=True)
        for name in ("ionization_energy", "A_dq", "C_qq"):
            _number(name, getattr(self, name), nonnegative=True)
        object.__setattr__(self, "sigma_table", _sigma_table(self.sigma_table))


@dataclass(frozen=True)
class LaserGrating:
    """Light-side inputs for one standing-wave grating."""

    wavelength: float       # m
    intensity: float        # W/m^2 (peak, standing wave)
    pulse_duration: float   # s
    spot_radius: float      # m

    def __post_init__(self):
        for name in ("wavelength", "pulse_duration", "spot_radius"):
            _number(name, getattr(self, name), positive=True)
        # intensity 0 is a legitimate degenerate case (no grating)
        _number("intensity", self.intensity, nonnegative=True)

    @property
    def k_L(self) -> float:
        """Grating wavevector, 1/m."""
        return 2.0 * math.pi / self.wavelength

    @property
    def E0_squared(self) -> float:
        """Gaussian-convention E0^2 as an energy density, J/m^3."""
        return field_amplitude_squared(self.intensity)


@dataclass(frozen=True)
class PotentialModel:
    """Periodic potential U0 cos^2(kX) + UA cos^3(kX) sin(kX) + UC cos^2(kX) sin^2(kX).

    With UA = UC = 0 it is exactly U0 cos^2(k_L X).
    """

    U0: float       # J
    UA: float       # J
    UC: float       # J
    k_L: float      # 1/m

    def __post_init__(self):
        for name in ("U0", "UA", "UC"):
            _number(name, getattr(self, name))
        _number("k_L", self.k_L, positive=True)


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
    """Assemble a PotentialModel from its three depths and wavevector."""
    return PotentialModel(U0=U0, UA=UA, UC=UC, k_L=k_L)


def _mean(model: PotentialModel) -> float:
    """The DC Fourier term U0/2 + UC/8, in J."""
    return model.U0 / 2.0 + model.UC / 8.0


def evaluate_potential(model: PotentialModel, X):
    """Potential at position(s) X in metres, in J.  An array comes back as an
    array; a scalar comes back as ``np.float64``, which is a ``float``.

    The five Fourier coefficients are derived, not free: U(X) = (U0/2 + UC/8)
    + U0/2 cos(2kX) + UA/4 sin(2kX) + UA/8 sin(4kX) - UC/8 cos(4kX).
    """
    phase = 2.0 * model.k_L * np.asarray(X, dtype=float)
    return (
        _mean(model)
        + model.U0 / 2.0 * np.cos(phase)
        + model.UA / 4.0 * np.sin(phase)
        + model.UA / 8.0 * np.sin(2.0 * phase)
        - model.UC / 8.0 * np.cos(2.0 * phase)
    )


def time_average(integrand: Callable, samples_per_period: int = 4096) -> float:
    """Average ``integrand(phi)`` over one period phi = omega t in [0, 2pi).

    Uniform sampling of a trigonometric polynomial over a full period is
    exact up to rounding once the sample count exceeds the bandwidth, so the
    canonical facts are reproduced at machine precision: cos^2 averages to
    1/2 (the lightshift's extra factor of two), while cos and cos^2*cos
    average to zero (what removes every permanent multipole term and the
    magnetic-dipole term from the effective potential).
    """
    m = _integer("samples_per_period", samples_per_period)
    if m < 16:
        raise ValueError(f"samples_per_period must be >= 16, got {samples_per_period}")
    phi = 2.0 * math.pi * np.arange(m) / m
    return float(np.mean([integrand(p) for p in phi]))


class CatalogError(ValueError):
    """Malformed catalog or config value; the message names the offending key."""


_REQUIRED = object()
_MAX = sys.float_info.max
_KIND_NAMES = {str: "a string", dict: "an object", list: "an array",
               (str, dict): "a string or an object"}


def _number(label: str, value, positive: bool = False, nonnegative: bool = False):
    """``value``, untouched, once it is finite as a double and ``> 0``/``>= 0`` where asked:
    the one rule for input numbers.  Raises ValueError "<label> must be ..., got <value>"."""
    if not -_MAX <= value <= _MAX:  # also NaN and huge ints, which float() overflows on
        problem = "finite"
    elif positive and not value > 0:
        problem = "> 0"
    elif nonnegative and value < 0:
        problem = ">= 0"
    else:
        return value
    raise ValueError(f"{label} must be {problem}, got {value!s:.40}")


def _integer(label: str, value) -> int:
    """``value`` as an int, once it passes :func:`_number` and equals that int
    (so 2.0 and numpy ints pass, 2.7 does not): the one rule for input integers."""
    whole = int(_number(label, value))
    if whole != value:
        raise ValueError(f"{label} must be an integer, got {value!s:.40}")
    return whole


def _sigma_table(table) -> tuple[tuple[float, float], ...]:
    """``table`` as float (energy eV, cross section m^2) pairs, once it has an entry,
    its values pass :func:`_number` as > 0 and its energies strictly increase."""
    pairs = tuple(table)
    if not pairs:
        raise ValueError("sigma_table needs at least one entry")
    for i, (energy, sigma) in enumerate(pairs):
        _number(f"sigma_table entry {i} energy", energy, positive=True)
        _number(f"sigma_table entry {i} cross section", sigma, positive=True)
    pairs = tuple((float(e), float(s)) for e, s in pairs)
    if any(b <= a for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise ValueError("sigma_table energies must be strictly increasing")
    return pairs


def _need(doc: dict, key: str, where: str, kind=float, default=_REQUIRED,
          positive: bool = False, nonnegative: bool = False):
    """The one reader of config and catalog values: ``doc[key]`` as ``kind``.

    A number must be a JSON number (not a bool, null or string) that passes
    :func:`_number` with ``positive``/``nonnegative``; it comes back as a
    float.  A missing key gives ``default`` if one is passed.  Failures
    raise CatalogError reading "<where>: key '<key>' ...".
    """
    if key not in doc:
        if default is _REQUIRED:
            raise CatalogError(f"{where}: key '{key}' is missing")
        return default
    value = doc[key]
    label = f"{where}: key '{key}'"
    if kind is not float:
        if isinstance(value, kind):
            return value
        problem = "must be " + _KIND_NAMES[kind]
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = "must be a number"
    else:
        try:
            return float(_number(label, value, positive, nonnegative))
        except ValueError as exc:
            raise CatalogError(str(exc)) from None
    raise CatalogError(f"{label} {problem}, got {json.dumps(value)[:40]}")


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
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is not JSON
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
