"""Recover grating phases (and polarizabilities) from measured peak intensities.

The forward model is the exit wave
``psi(u) = exp(i[theta0 cos u + thetaA2 (sin u + sin 2u / 2) + thetaC4 cos 2u])``,
whose coefficient at ``exp(i q u / 2)`` is the amplitude A(q) of order q.
One FFT of psi (:func:`xkd.diffraction._exit_wave`, which long patterns
also read) gives every A(q).  Fitting is weighted
least squares on the per-order intensities by Gauss-Newton with Marquardt
damping (smooth, low-dimensional problem; an accepted step never
increases the weighted residual, and a rejected one is retried with more
damping).  The derivatives are exact: differentiating psi multiplies it by
``i cos u``, ``i (sin u + sin 2u / 2)`` or ``i cos 2u``, which only shifts
amplitudes by one or two order pairs, so each trial evaluation returns its
intensities and its Jacobian together.

One routine takes a model, a start and the observations to the fit's
result, so the dipole fit is the quadrupole fit with thetaA2 = thetaC4 = 0
held fixed.  Identifiability caveats, all exact properties of the model
and resolved by convention or documentation rather than by the data:

* flipping theta0 and thetaC4 together leaves every intensity unchanged
  (it maps the potential to the reflection of its negative; the dipole
  model is even in theta0), so both fits report theta0 >= 0 by that flip;
* beyond sign flips, the intensities only pin down the two harmonic
  amplitudes R2 = hypot(theta0, thetaA2), R4 = hypot(thetaA2/2, thetaC4)
  and one relative phase (spatial translations of the grating drop out of
  the intensities), so a handful of distinct tied triples can reproduce a
  pattern exactly.  :func:`equivalent_triples` enumerates them as roots of
  a quartic; a fit converges to the representative nearest its start.

Flipping thetaA2 (with its tied 4k companion) mirrors the pattern instead,
so its sign is carried by the +q/-q asymmetry.  Data symmetrised over +-q
carry no sign.  A fit to them heads for thetaA2 = 0, where the model is
itself mirror symmetric and the normal matrix stays regular.

Fitted phases convert back to polarizabilities when the laser context
(intensity, wavelength) and the interaction time are known; see
:func:`polarizability_estimates`.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .constants import E2_GAUSS, HARTREE_NOMINAL, HBAR, R_BOHR
from . import diffraction
from .diffraction import PhaseSet
from .potentials import LaserGrating

__all__ = [
    "ObservedPattern",
    "FitResult",
    "PolarizabilityEstimate",
    "fit_dipole",
    "fit_quadrupole",
    "equivalent_triples",
    "polarizability_estimates",
]

MAX_ITERATIONS = 200
MAX_STEP_NORM = 0.2         # rad, trust-radius cap; keeps the fit on the
                            # alias branch nearest the starting point
STEP_TOLERANCE = 1e-10      # rad
RESIDUAL_TOLERANCE = 1e-12  # relative change
DEGENERACY_CONDITION = 1e10
TOTAL_EXCESS = 1e-6         # observed totals above 1 + this are noted in fits
MATCH_TOLERANCE = 1e-11     # per-order intensity match of equivalent triples


@dataclass(frozen=True)
class ObservedPattern:
    """Measured (or synthetic) intensities per even diffraction order.

    Each row is (order, intensity, weight): the order must be even and not
    repeated, the intensity finite and >= 0, the weight finite and > 0.
    Intensities may be noisy or unnormalised, so their total is not
    checked; a total above 1 is stated in the fit's ``covariance_note``.
    """

    rows: tuple[tuple[int, float, float], ...]   # (order, intensity, weight)

    def __post_init__(self):
        rows = tuple((int(q), float(i), float(w)) for q, i, w in self.rows)
        object.__setattr__(self, "rows", rows)
        seen = set()
        for q, intensity, weight in rows:
            if q % 2 != 0:
                raise ValueError(f"order {q} is odd; only even orders exist")
            if q in seen:
                raise ValueError(f"duplicate order {q}")
            seen.add(q)
            if not math.isfinite(intensity):
                raise ValueError(f"order {q}: intensity must be finite, got {intensity}")
            if intensity < 0:
                raise ValueError(f"order {q}: intensity must be >= 0")
            if not math.isfinite(weight):
                raise ValueError(f"order {q}: weight must be finite, got {weight}")
            if not weight > 0:
                raise ValueError(f"order {q}: weight must be > 0")

    @property
    def orders(self) -> np.ndarray:
        return np.array([q for q, _, _ in self.rows], dtype=int)

    @property
    def intensities(self) -> np.ndarray:
        return np.array([i for _, i, _ in self.rows])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, _, w in self.rows])

    @classmethod
    def from_arrays(cls, orders, intensities, weights=None) -> "ObservedPattern":
        if weights is None:
            weights = np.ones(len(orders))
        return cls(rows=tuple(zip(map(int, orders), intensities, weights)))

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "ObservedPattern":
        """Read a CSV headed exactly order,intensity[,weight], each row as wide as its header."""
        rows = []
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # Excel writes a BOM
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            if header not in (["order", "intensity"], ["order", "intensity", "weight"]):
                raise ValueError(f"{path}: expected header 'order,intensity[,weight]'")
            for line_no, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != len(header):
                    raise ValueError(f"{path}:{line_no}: row {rec!r} needs {len(header)} cells")
                try:
                    q = int(rec[0])
                    intensity = float(rec[1])
                    weight = float(rec[2]) if len(rec) > 2 else 1.0
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: bad row {rec!r}") from exc
                rows.append((q, intensity, weight))
        try:
            return cls(rows=tuple(rows))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class FitResult:
    theta0_hat: float
    thetaA2_hat: float
    thetaC4_hat: float
    residual: float              # weighted sum of squared intensity errors
    converged: bool
    iterations: int
    covariance_note: str
    degenerate: bool = False
    param_sigma: tuple[float | None, ...] = ()   # None where undefined


# d amplitude(q) / d(theta0, thetaA2, thetaC4) from the amplitudes at
# q + _SHIFTS: the exit wave's derivatives multiply it by i cos u,
# i (sin u + sin 2u / 2) (PhaseSet derives thetaA4 from thetaA2) and i cos 2u
_SHIFTS = np.array([-4, -2, 0, 2, 4])
_SHIFT_COEFFS = np.array([
    [0.0, 0.5j, 0.0, 0.5j, 0.0],
    [0.25, 0.5, 0.0, -0.5, -0.25],
    [0.5j, 0.0, 0.0, 0.0, 0.5j],
])

# Marquardt damping of the Gauss-Newton step
DAMPING_START = 1e-3
DAMPING_FLOOR = 1e-12
DAMPING_DOWN = 3.0          # divides the damping after an accepted step
DAMPING_UP = 4.0            # multiplies it after a rejected one
MAX_REJECTIONS = 60         # in a row, before the fit stops


def _amplitudes(phases, qs: np.ndarray) -> np.ndarray:
    """A(q) at the even orders ``qs`` (any shape) for (theta0, thetaA2, thetaC4);
    orders with |q|/2 > H read exactly 0, so they never enlarge the grid."""
    spectrum, half = diffraction._exit_wave(*phases)
    k = qs // 2
    return np.where(np.abs(k) <= half, spectrum[k % len(spectrum)], 0.0)


def _with_jacobian(phases, orders: np.ndarray, n_params: int):
    """Intensities at ``orders`` and their derivatives by the first
    ``n_params`` phases, d I / d p = 2 Re(conj(A) d A / d p)."""
    shifted = _amplitudes(phases, orders[:, None] + _SHIFTS)
    amps = shifted[:, 2]  # the unshifted column
    d_amps = shifted @ _SHIFT_COEFFS[:n_params].T
    return amps.real**2 + amps.imag**2, 2.0 * (amps.conj()[:, None] * d_amps).real


def _dipole_model(params: np.ndarray, orders: np.ndarray):
    """Intensities and their (n, 1) Jacobian by theta0 at ``orders``."""
    return _with_jacobian((float(params[0]), 0.0, 0.0), orders, 1)


def _quad_model(params: np.ndarray, orders: np.ndarray):
    """Intensities and their (n, 3) Jacobian by (theta0, thetaA2, thetaC4)."""
    return _with_jacobian(tuple(float(v) for v in params), orders, 3)


def _fit(model, p0, observed: ObservedPattern, describe) -> FitResult:
    """Gauss-Newton with Marquardt damping from ``p0``, shared by both fits.

    ``model(p, orders)`` returns the intensities and their Jacobian.  Each
    trial step solves (JtJ + lambda diag JtJ) s = -Jt r, capped at
    ``MAX_STEP_NORM``; a step that raises the weighted residual is rejected
    and lambda grows, an accepted one shrinks it.  The weights are divided
    by their largest value first, so the fit does not depend on their
    absolute scale.  An exactly zero Jacobian stops the fit, converged
    only at residual 0.  The result has theta0 >= 0 by the joint (theta0,
    thetaC4) flip and omitted phases 0.0; ``describe(cond, degenerate,
    sigmas)``, from the normal matrix at the result, opens the covariance
    note, and an observed total above 1 closes it.
    """
    orders = observed.orders
    y = observed.intensities
    weights = observed.weights
    scale = float(np.max(weights))
    sqrt_w = np.sqrt(weights / scale)

    def residuals(p):
        """Weighted residuals at p and their Jacobian."""
        intensities, d_intensities = model(p, orders)
        return sqrt_w * (y - intensities), -sqrt_w[:, None] * d_intensities

    p = np.array(p0, dtype=float)
    with np.errstate(over="ignore"):
        r, jac = residuals(p)
        s = float(r @ r)
    if not math.isfinite(s * scale):
        raise ValueError("the weighted residual at the start is not finite "
                         "(weights or intensities too large)")
    damping = DAMPING_START
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        if not jac.any():
            converged = s == 0.0
            break
        jtj = jac.T @ jac
        rhs = -jac.T @ r
        trial = None
        for _ in range(MAX_REJECTIONS):
            matrix = jtj + damping * np.diag(np.diag(jtj))
            try:
                step = np.linalg.solve(matrix, rhs)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
            norm = float(np.linalg.norm(step))
            if norm > MAX_STEP_NORM:
                step = step * (MAX_STEP_NORM / norm)
            if not np.all(np.isfinite(step)):
                break
            # a wild trial step (flat direction of a degenerate normal matrix)
            # can leave the model's domain; report it as an unacceptable step
            try:
                trial = residuals(p + step)
            except diffraction.PhaseRangeError:
                pass
            else:
                s_new = float(trial[0] @ trial[0])
                if s_new <= s:
                    break
            trial = None
            damping *= DAMPING_UP
        if trial is None:
            # no descent direction left at any damping, unless the step
            # itself could not be computed
            converged = bool(np.all(np.isfinite(step)))
            break
        p, (r, jac) = p + step, trial
        ds = s - s_new
        s = s_new
        damping = max(damping / DAMPING_DOWN, DAMPING_FLOOR)
        if (float(np.linalg.norm(step)) < STEP_TOLERANCE
                or ds <= RESIDUAL_TOLERANCE * max(s, 1e-300)):
            converged = True
            break
    jtj = jac.T @ jac
    cond = float(np.linalg.cond(jtj))
    degenerate = not math.isfinite(cond) or cond > DEGENERACY_CONDITION
    # first-order 1-sigma errors, None where the normal matrix leaves one
    # undefined (singular, or overflowing); both fits have dof >= 1.  The
    # weight scale cancels between the residual and the normal matrix.
    try:
        variances = np.diag(s / (len(orders) - len(p)) * np.linalg.inv(jtj))
    except np.linalg.LinAlgError:
        variances = [math.nan] * len(p)
    sigmas = tuple(float(math.sqrt(max(v, 0.0))) if math.isfinite(v) else None
                   for v in variances)
    theta0, theta_a2, theta_c4 = [*map(float, p), 0.0, 0.0][:3]
    if math.copysign(1.0, theta0) < 0:
        # an exact symmetry; 0.0 - x keeps a dipole fit's thetaC4 at 0.0
        theta0, theta_c4 = -theta0, 0.0 - theta_c4
    note = describe(cond, degenerate, sigmas)
    total = sum(i for _, i, _ in observed.rows)
    if total > 1.0 + TOTAL_EXCESS:
        note += f"; observed intensities sum to {total:.10g}, above 1 (noisy or unnormalised data)"
    return FitResult(
        theta0_hat=theta0,
        thetaA2_hat=theta_a2,
        thetaC4_hat=theta_c4,
        residual=s * scale,
        converged=converged,
        iterations=iterations,
        covariance_note=note,
        degenerate=degenerate,
        param_sigma=sigmas,
    )


def fit_dipole(observed: ObservedPattern, theta0_init: float = 0.5) -> FitResult:
    """Fit the single-phase cos^2 model I(2n) = J_n(theta0)^2.

    Needs at least two distinct observed orders.  The model is even in
    theta0, so the result is reported with theta0 >= 0.  As in
    :func:`fit_quadrupole`, a normal-matrix condition number above 1e10
    marks the fit degenerate: at theta0 = 0 no intensity moves, so the
    matrix is zero, ``param_sigma`` is (None,) and the fit stops there.
    """
    if len(observed.rows) < 2:
        raise ValueError("need at least 2 distinct orders to fit theta0")

    def describe(cond, degenerate, sigmas):
        (sigma,) = sigmas
        return "theta0 reported non-negative (intensities are even in theta0); " + (
            f"1-sigma estimate {sigma:.3e} rad from the final normal matrix"
            if sigma is not None else "no 1-sigma estimate: the final normal matrix "
            "cannot be inverted (it is zero at theta0 = 0)"
        )

    return _fit(_dipole_model, [float(theta0_init)], observed, describe)


def fit_quadrupole(observed: ObservedPattern, init: PhaseSet) -> FitResult:
    """Fit (theta0, thetaA2, thetaC4); PhaseSet derives the 4k sine phase.

    Needs at least four distinct orders including a +-q pair: the +-q
    asymmetry is the only carrier of the thetaA2 sign.  A normal-matrix
    condition number above 1e10 at the solution marks the fit degenerate:
    some combination of the phases is then not fixed by the data.
    """
    if len(observed.rows) < 4:
        raise ValueError("need at least 4 distinct orders to fit the quadrupole model")
    orders = set(int(q) for q in observed.orders)
    if not any(q > 0 and -q in orders for q in orders):
        raise ValueError("need at least one +q/-q order pair to expose the asymmetry")

    def describe(cond, degenerate, sigmas):
        return (
            f"normal-matrix condition number {cond:.3e}"
            + (
                f"; degeneracy warning: above {DEGENERACY_CONDITION:.0e}, some "
                "parameter combination (e.g. thetaC4 at thetaA2 = thetaC4 = 0, "
                "as on dipole-only data) is unconstrained"
                if degenerate
                else ""
            )
            + "; theta0 normalised >= 0 via the exact (theta0, thetaC4) joint flip"
        )

    return _fit(_quad_model, [init.theta0, init.thetaA2, init.thetaC4], observed, describe)


def equivalent_triples(
    theta0: float, thetaA2: float, thetaC4: float
) -> list[tuple[float, float, float]]:
    """All tied phase triples producing exactly the given intensity pattern.

    The per-order intensities determine only the translation-invariant
    content of the imprinted phase profile
    ``theta0 cos(u) + thetaA2 sin(u) + (thetaA2/2) sin(2u) + thetaC4 cos(2u)``:
    the harmonic amplitudes ``R2 = hypot(theta0, thetaA2)`` and
    ``R4 = hypot(thetaA2/2, thetaC4)`` plus the relative phase
    ``delta = phi4 - 2 phi2`` up to the reflection class ``pi - delta``.
    Each tied triple in that class solves

        g(phi) = R4 sin(delta + 2 phi) - (R2 / 2) sin(phi) = 0

    for the free angle phi.  With t = tan(phi/2), (1 + t^2)^2 g is the quartic
    [s, -4c - R2, -6s, 4c - R2, s] in t, s = R4 sin(delta), c = R4 cos(delta).
    Its nearly real roots, polished by a few Newton steps on g, are the
    candidates; phi = pi joins them when s vanishes, since the root t = inf
    then drops out.  A root whose cell of a fixed 8196-point grid brackets a
    sign change of g is finished by bisecting that cell, so no member hangs on
    the last bits of the quartic's roots.  A candidate ``(R2 cos phi,
    R2 sin phi, R4 cos(delta + 2 phi))`` is kept when it lies 1e-9 or more from
    every earlier one and its intensities, read from the fits' FFT model on
    the input's support, match within ``MATCH_TOLERANCE`` per order.
    The input triple always comes first.
    """
    phases = PhaseSet(theta0, thetaA2, thetaC4=thetaC4)
    r2 = math.hypot(theta0, thetaA2)
    r4 = math.hypot(phases.thetaA4, thetaC4)
    found = [(theta0, thetaA2, thetaC4)]
    # every candidate has the input's R2 and R4, so the input's support
    # covers its pattern too
    half = diffraction._support(*found[0])
    qs = 2 * np.arange(-half, half + 1)

    def intensities(triple):
        amps = _amplitudes(triple, qs)
        return amps.real**2 + amps.imag**2

    base = intensities(found[0])

    def consider(candidate: tuple[float, float, float]):
        if any(max(abs(a - b) for a, b in zip(candidate, known)) < 1e-9 for known in found):
            return
        if np.max(np.abs(base - intensities(candidate))) <= MATCH_TOLERANCE:
            found.append(candidate)

    phi2 = math.atan2(thetaA2, theta0)
    phi4 = math.atan2(phases.thetaA4, thetaC4)
    delta = phi4 - 2.0 * phi2
    step = 2.0 * math.pi / 8192
    grid = np.linspace(-math.pi, math.pi + 3 * step, 8196)
    for delta_c in (delta, math.pi - delta):

        def g(phi):
            return r4 * math.sin(delta_c + 2.0 * phi) - 0.5 * r2 * math.sin(phi)

        s, c = r4 * math.sin(delta_c), r4 * math.cos(delta_c)
        roots = np.roots([s, -4.0 * c - r2, -6.0 * s, 4.0 * c - r2, s])
        phis = [2.0 * math.atan(t.real) for t in roots if abs(t.imag) <= 1e-6 * (1.0 + abs(t))]
        if abs(s) <= 1e-9 * r4:
            phis.append(math.pi)
        for phi in sorted(phis):
            for _ in range(3):
                slope = 2.0 * r4 * math.cos(delta_c + 2.0 * phi) - 0.5 * r2 * math.cos(phi)
                phi -= g(phi) / slope if slope else 0.0
            k = int(np.searchsorted(grid, phi, side="right")) - 1
            if 0 <= k < len(grid) - 1 and g(grid[k]) * g(grid[k + 1]) < 0.0:
                lo, hi = grid[k], grid[k + 1]
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if g(lo) * g(mid) <= 0.0 else (mid, hi)
                phi = 0.5 * (lo + hi)
            consider((r2 * math.cos(phi), r2 * math.sin(phi), r4 * math.cos(delta_c + 2.0 * phi)))
    return found


@dataclass(frozen=True)
class PolarizabilityEstimate:
    """Polarizabilities implied by fitted phases for a known laser and tau;
    a sigma is None where the fit's sigma is."""

    alpha: float          # m^3
    alpha_sigma: float | None
    A_dq: float           # units e^2 r0^3 / E_h
    A_sigma: float | None
    C_qq: float           # units e^2 r0^4 / E_h
    C_sigma: float | None


def polarizability_estimates(result: FitResult, laser: LaserGrating) -> PolarizabilityEstimate:
    """Invert the phase definitions for alpha, A_dq and C_qq, taking alpha > 0.

    U0 = -alpha E0^2/4 then makes the true theta0 = U0 tau / 2 hbar negative,
    so the fit's theta0 >= 0 is the joint flip: |U0| = 2 hbar theta0 / tau,
    UC = 8 hbar thetaC4 / tau and UA = 4 hbar thetaA2 / tau.  Uncertainties
    propagate the fit's sigmas to first order (a dipole fit has none for
    A_dq and C_qq, so those are None).
    """
    tau = laser.pulse_duration  # the interaction time
    if not laser.intensity > 0:
        raise ValueError("laser intensity must be > 0 to recover polarizabilities")
    e0_sq = laser.E0_squared
    k_l = laser.k_L
    alpha_per_rad = 8.0 * HBAR / (tau * e0_sq)
    a_per_rad = 4.0 * HBAR / (tau * E2_GAUSS * R_BOHR**3 / HARTREE_NOMINAL * k_l * e0_sq)
    c_per_rad = 8.0 * HBAR / (tau * E2_GAUSS * R_BOHR**4 / HARTREE_NOMINAL * k_l**2 * e0_sq)
    sig = list(result.param_sigma) + [None, None, None]
    alpha_s, a_s, c_s = (
        None if s is None else k * s for k, s in zip((alpha_per_rad, a_per_rad, c_per_rad), sig)
    )
    estimate = PolarizabilityEstimate(
        alpha=alpha_per_rad * result.theta0_hat,
        alpha_sigma=alpha_s,
        A_dq=a_per_rad * result.thetaA2_hat,
        A_sigma=a_s,
        C_qq=c_per_rad * result.thetaC4_hat + 0.0,  # 0.0, not -0.0, at thetaC4 = 0
        C_sigma=c_s,
    )
    if not all(math.isfinite(v) for v in (estimate.alpha, estimate.A_dq, estimate.C_qq)):
        raise ValueError("the recovered polarizabilities are not finite for this laser")
    return estimate
