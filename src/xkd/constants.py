"""Physical constants (SI) and the Gaussian-convention field conversion.

Everything stored and passed around this package is SI.  The optical-trap
literature writes the lightshift and intensity relations in Gaussian units
(``U = -alpha E^2 / 2`` with alpha a polarizability *volume*, and
``I = c E0^2 / 8 pi``).  Those relations are honoured through exactly one
chokepoint: :func:`field_amplitude_squared` returns the Gaussian-convention
``E0^2`` expressed as an SI energy density (J/m^3), so that

    alpha_volume [m^3] * E0^2 [J/m^3]  ->  energy [J]

without any further unit factors.  Likewise ``E2_GAUSS = e^2 / (4 pi eps0)``
is the Gaussian-convention squared electron charge in J*m, the quantity for
which ``E2_GAUSS / r`` is a Coulomb energy.  Keeping both conversions here
is deliberate: a single place to audit prevents silent factor errors.
"""

import math

# CODATA 2018 / SI defining values
C = 299792458.0                    # speed of light, m/s (exact)
H = 6.62607015e-34                 # Planck constant, J*s (exact)
HBAR = H / (2.0 * math.pi)         # J*s
E_CHARGE = 1.602176634e-19         # elementary charge, C (exact)
EV = 1.602176634e-19               # 1 eV in J
EPS0 = 8.8541878128e-12            # vacuum permittivity, F/m
M_PROTON = 1.67262192369e-27       # kg
R_BOHR = 5.29177210903e-11         # Bohr radius, m

# Gaussian-convention squared electron charge, J*m  (e^2/r is an energy)
E2_GAUSS = E_CHARGE**2 / (4.0 * math.pi * EPS0)

# Rounded Hartree energy used as the normalisation of the quadrupole
# polarizability units (A in e^2 r0^3/E_h, C in e^2 r0^4/E_h).  The rounded
# value, not the exact 4.3597e-18 J, is part of that unit convention here.
HARTREE_NOMINAL = 4e-18            # J

# Documented reference points (order-of-magnitude anchors, not inputs):
# intensity used in the electron-beam demonstration of standing-wave
# diffraction, and the onset of non-linear polarizability response.
ELECTRON_KD_INTENSITY = 5e14       # W/m^2
NONLINEAR_INTENSITY = 1e18         # W/m^2


def field_amplitude_squared(intensity: float) -> float:
    """Gaussian-convention E0^2, as an SI energy density (J/m^3).

    Inverts ``I = c E0^2 / 8 pi`` for a standing wave of peak intensity
    ``intensity`` (W/m^2).  Multiplying the result by a polarizability
    volume in m^3 yields joules directly.
    """
    return 8.0 * math.pi * intensity / C
