"""The benchmark's three workloads.

Each workload builds its inputs from a seeded generator, one *round* at a
time (a ``scan`` or ``fit`` round is a complete stratified sample of the
workload's input space with a fixed mix, so every round carries about the
same work), runs one operation per input, and checks each output.  Only ``op`` is timed.  ``check`` runs after
the round's clock has stopped and returns ``(passed, sound, diagnostics)``:
``passed`` is the operation's success criterion, ``sound`` says the output
keeps the package's documented contract (a fit that stops in a local
minimum is unsuccessful but sound), and the diagnostics are maxima that a
traced run reports.  ``digest`` fingerprints an output so that runs can be
compared bit for bit.

``round_seconds`` is the measured cost of one round and its checks on the
reference host (2 vCPUs, Python 3.11, numpy 2.4); the harness turns
``--seconds`` into a fixed number of rounds with it, so every run of a
given seed and length does exactly the same work, however fast the host
happens to be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import xkd
from xkd import verify
from xkd.constants import C, E2_GAUSS, HARTREE_NOMINAL, HBAR, R_BOHR

TOLERANCE = 1e-10            # truncation tolerance, the package default


def _digest_arrays(*arrays: np.ndarray) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


# ---------------------------------------------------------------------------
# scan: one point of an intensity scan, large phases included
# ---------------------------------------------------------------------------

SCAN_THETA = (0.1, 2000.0)   # |theta0| range, log-stratified
SCAN_RATIO = (1e-3, 1.0)     # |thetaA2/theta0| = 2 |thetaC4/theta0|, log-stratified
SCAN_CELLS = (32, 6)         # strata per round along theta0 and the ratio
SCAN_TAU = 1e-13             # s
SCAN_WAVELENGTH = 1e-9       # m
SCAN_ALPHA = 1e-29           # m^3
ORACLE_GRID = 16384
ORACLE_AGREEMENT = 1e-9
# the oracle resolves a pattern when its support stays well inside the
# grid's Nyquist order ORACLE_GRID / 2
ORACLE_MAX_ORDER = 3 * ORACLE_GRID // 8


@dataclass(frozen=True)
class ScanPoint:
    atom: xkd.AtomSpecies
    laser: xkd.LaserGrating


def _scan_point(theta0: float, ratio: float) -> ScanPoint:
    """Species and laser whose imprinted phases are |theta0| and the ratio.

    thetaA2/theta0 = UA / 2 U0 and thetaC4/theta0 = -UC / 4 U0 fix A_dq and
    C_qq; |theta0| = alpha E0^2 tau / 8 hbar with E0^2 = 8 pi I / c fixes I.
    """
    k_l = 2.0 * math.pi / SCAN_WAVELENGTH
    a_unit = E2_GAUSS * R_BOHR**3 / HARTREE_NOMINAL
    c_unit = a_unit * R_BOHR
    atom = xkd.AtomSpecies(
        name="scan",
        mass=2.5e-26,
        alpha=SCAN_ALPHA,
        ionization_energy=10.0,
        sigma_table=((30.0, 1e-21),),
        A_dq=ratio * SCAN_ALPHA / (2.0 * a_unit * k_l),
        C_qq=ratio * SCAN_ALPHA / (2.0 * c_unit * k_l**2),
    )
    laser = xkd.LaserGrating(
        wavelength=SCAN_WAVELENGTH,
        intensity=theta0 * HBAR * C / (math.pi * SCAN_ALPHA * SCAN_TAU),
        pulse_duration=SCAN_TAU,
        spot_radius=1e-6,
    )
    return ScanPoint(atom, laser)


def _log_strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One log-uniform draw inside each of n equal log-width cells of [lo, hi]."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    return np.exp(rng.uniform(edges[:-1], edges[1:]))


def scan_round(rng: np.random.Generator) -> list[ScanPoint]:
    points = [
        _scan_point(float(theta0), float(ratio))
        for theta0 in _log_strata(rng, *SCAN_THETA, SCAN_CELLS[0])
        for ratio in _log_strata(rng, *SCAN_RATIO, SCAN_CELLS[1])
    ]
    rng.shuffle(points)
    return points


def scan_op(point: ScanPoint):
    u0 = xkd.lightshift_depth(point.atom, point.laser)
    ua, uc = xkd.quadrupole_scales(point.atom, point.laser)
    model = xkd.build_potential(u0, ua, uc, point.laser.k_L)
    phases = xkd.phases_from_potential(model, SCAN_TAU)
    quad = xkd.quadrupole_pattern(phases, TOLERANCE)
    dip = xkd.dipole_pattern(phases.theta0, TOLERANCE)
    return model, quad, dip


def _padded_amplitudes(pattern, half: int) -> np.ndarray:
    """Amplitudes on orders -2 half .. 2 half; the pattern must be contiguous."""
    k = len(pattern.orders) // 2
    if not np.array_equal(pattern.orders, 2 * np.arange(-k, k + 1)):
        raise ValueError("pattern orders are not a symmetric contiguous range")
    out = np.zeros(2 * half + 1, dtype=complex)
    out[half - k : half + k + 1] = pattern.amplitudes
    return out


def scan_check(point: ScanPoint, output):
    model, quad, dip = output
    passed = all(
        p.truncation_residual < TOLERANCE
        and abs(1.0 - float(np.sum(p.intensities))) <= TOLERANCE
        for p in (quad, dip)
    )
    if quad.truncation_order <= ORACLE_MAX_ORDER:
        oracle = xkd.phase_grating_oracle(model, SCAN_TAU, ORACLE_GRID, TOLERANCE)
        half = max(len(quad.orders), len(oracle.orders)) // 2
        dev = np.max(np.abs(_padded_amplitudes(quad, half) - _padded_amplitudes(oracle, half)))
        passed = passed and dev <= ORACLE_AGREEMENT
    return passed, passed, {}


def scan_digest(output) -> bytes:
    _, quad, dip = output
    return _digest_arrays(quad.amplitudes, dip.amplitudes)


def scan_warmup():
    scan_op(_scan_point(1.0, 0.01))


# ---------------------------------------------------------------------------
# fit: Gauss-Newton on noisy, unnormalised peak intensities
# ---------------------------------------------------------------------------

FIT_THETA_CELLS = 16         # linear theta0 strata per round
FIT_MIX = (1, 2)             # dipole and quadrupole inputs per theta0 stratum
FIT_THETA0 = (0.2, 3.0)
FIT_QUAD = (-1.0, 1.0)       # thetaA2 and thetaC4
FIT_FLOOR = 1e-5             # detection floor on the true intensity
FIT_NOISE = 0.03             # multiplicative, 1 sigma
FIT_BACKGROUND = 2e-5        # additive level, also the noise floor
FIT_INIT_OFFSET = (0.02, 0.05)  # relative distance of the initial guess
FIT_RESIDUAL_SLACK = 1e-9    # relative; rounding between two evaluations


@dataclass(frozen=True)
class FitInput:
    dipole: bool
    orders: np.ndarray
    intensities: np.ndarray
    weights: np.ndarray
    init: tuple[float, float, float]
    truth_residual: float    # weighted residual at the generating phases
    init_residual: float     # weighted residual at the initial guess


def _model(dipole: bool, params, orders: np.ndarray) -> np.ndarray:
    """The intensities fit_dipole or fit_quadrupole models at these orders."""
    theta0, a2, c4 = params
    if dipole:
        return np.array([xkd.bessel_J(int(q) // 2, theta0) ** 2 for q in orders])
    pattern = xkd.quadrupole_pattern(xkd.PhaseSet(theta0, a2, 0.5 * a2, c4))
    return np.array([pattern.intensity(int(q)) for q in orders])


def _fit_input(rng: np.random.Generator, dipole: bool, truth) -> FitInput:
    theta0, a2, c4 = truth
    pattern = xkd.quadrupole_pattern(xkd.PhaseSet(theta0, a2, 0.5 * a2, c4))
    orders = pattern.orders[pattern.intensities > FIT_FLOOR]
    exact = _model(dipole, truth, orders)
    noise = 1.0 + FIT_NOISE * rng.standard_normal(len(orders))
    observed = np.maximum(exact * noise + FIT_BACKGROUND, 0.0)
    weights = 1.0 / ((FIT_NOISE * observed) ** 2 + FIT_BACKGROUND**2)
    offsets = rng.uniform(*FIT_INIT_OFFSET, 3) * rng.choice([-1.0, 1.0], 3)
    init = tuple(t * (1.0 + o) for t, o in zip(truth, offsets))

    def residual(params):
        r = np.sqrt(weights) * (observed - _model(dipole, params, orders))
        return float(r @ r)

    return FitInput(dipole, orders, observed, weights, init, residual(truth), residual(init))


def _linear_strata(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw inside each of n equal cells of [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    return rng.uniform(edges[:-1], edges[1:])


def fit_round(rng: np.random.Generator) -> list[FitInput]:
    """A fixed mix: each theta0 stratum holds FIT_MIX dipole and quadrupole
    sets; thetaA2 and thetaC4 form a Latin hypercube over the quadrupole sets."""
    n_dip, n_quad = (FIT_THETA_CELLS * m for m in FIT_MIX)
    truths = [(float(t), 0.0, 0.0) for t in _linear_strata(rng, *FIT_THETA0, n_dip)]
    a2 = rng.permutation(_linear_strata(rng, *FIT_QUAD, n_quad))
    c4 = rng.permutation(_linear_strata(rng, *FIT_QUAD, n_quad))
    truths += [(float(t), float(a), float(c)) for t, a, c in
               zip(_linear_strata(rng, *FIT_THETA0, n_quad), a2, c4)]
    inputs = [_fit_input(rng, k < n_dip, truth) for k, truth in enumerate(truths)]
    rng.shuffle(inputs)
    return inputs


def fit_op(inp: FitInput):
    observed = xkd.ObservedPattern.from_arrays(inp.orders, inp.intensities, inp.weights)
    if inp.dipole:
        return xkd.fit_dipole(observed, inp.init[0])
    theta0, a2, c4 = inp.init
    return xkd.fit_quadrupole(observed, xkd.PhaseSet(theta0, a2, 0.5 * a2, c4))


def fit_check(inp: FitInput, result):
    # the fitter promises descent from its starting point; reaching the
    # residual of the generating phases is the success criterion
    slack = 1.0 + FIT_RESIDUAL_SLACK
    sound = math.isfinite(result.residual) and result.residual <= inp.init_residual * slack
    passed = sound and result.converged and result.residual <= inp.truth_residual * slack
    return passed, sound, {}


def fit_digest(result) -> bytes:
    return repr((result.theta0_hat, result.thetaA2_hat, result.thetaC4_hat,
                 result.residual, result.iterations)).encode()


def fit_warmup():
    orders = np.arange(-4, 5, 2)
    exact = _model(True, (1.0, 0.0, 0.0), orders)
    xkd.fit_dipole(xkd.ObservedPattern.from_arrays(orders, exact), 0.9)


# ---------------------------------------------------------------------------
# verify: the release self-check, `xkd verify` defaults
# ---------------------------------------------------------------------------

VERIFY_PER_ROUND = 3


def verify_round(rng: np.random.Generator) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, VERIFY_PER_ROUND)]


def verify_op(seed: int):
    return verify.run_checks(seed)


def verify_check(seed: int, checks):
    devs = {f"verify.dev.{c.name}": c.max_deviation for c in checks}
    passed = all(c.passed for c in checks)
    return passed, passed, devs


def verify_digest(checks) -> bytes:
    return repr([(c.name, c.max_deviation) for c in checks]).encode()


def verify_warmup():
    model = xkd.build_potential(U0=-1e-22, UA=1e-23, UC=1e-23, k_L=1e10)
    xkd.quadrupole_pattern(xkd.phases_from_potential(model, 1e-12))
    xkd.phase_grating_oracle(model, 1e-12, grid_points=4096)
    xkd.potentials.time_average(np.cos, samples_per_period=16)
    fit_warmup()


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    make_round: Callable[[np.random.Generator], list]
    op: Callable
    check: Callable
    digest: Callable
    warmup: Callable[[], None]
    round_seconds: float         # one round and its checks on the reference host


WORKLOADS = {
    # checking a scan round against the oracle takes twice as long as the round
    "scan": Workload(scan_round, scan_op, scan_check, scan_digest, scan_warmup, 0.7),
    "fit": Workload(fit_round, fit_op, fit_check, fit_digest, fit_warmup, 0.32),
    "verify": Workload(verify_round, verify_op, verify_check, verify_digest, verify_warmup, 1.05),
}
