"""Recover grating phases (and polarizabilities) from measured peak intensities.

The forward models are the analytic engines of :mod:`xkd.diffraction`;
fitting is weighted least squares on the per-order intensities by damped
Gauss-Newton (smooth, low-dimensional problem; an accepted step never
increases the weighted residual).  The derivatives are exact and come from
the pattern itself: differentiating the exit wave
``exp(i[theta0 cos u + thetaA2 (sin u + sin 2u / 2) + thetaC4 cos 2u])``
multiplies it by ``i cos u``, ``i (sin u + sin 2u / 2)`` or ``i cos 2u``,
which only shifts amplitudes by one or two order pairs, so each trial
evaluation returns its intensities and its Jacobian together.

Identifiability caveats, all exact properties of the model and resolved by
convention or documentation rather than by the data:

* dipole model: intensities are even in theta0, so theta0 >= 0 is reported;
* quadrupole model: flipping theta0 and thetaC4 together leaves every
  intensity unchanged (it maps the potential to the reflection of its
  negative), so solutions are normalised to theta0 >= 0 by that joint flip;
* beyond sign flips, the intensities only pin down the two harmonic
  amplitudes R2 = hypot(theta0, thetaA2), R4 = hypot(thetaA2/2, thetaC4)
  and one relative phase (spatial translations of the grating drop out of
  the intensities), so a handful of distinct tied triples can reproduce a
  pattern exactly.  :func:`equivalent_triples` enumerates them as roots of
  a quartic; a fit converges to the representative nearest its start.

Flipping thetaA2 (with its tied 4k companion) mirrors the pattern instead,
so its sign is carried by the +q/-q asymmetry; data symmetrised over +-q
cannot determine it, which surfaces as a rank-deficient normal matrix and a
degeneracy warning, not as a silent wrong answer.

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
        """Read a header-led CSV with columns order, intensity[, weight]."""
        rows = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["order", "intensity"]:
                raise ValueError(f"{path}: expected header 'order,intensity[,weight]'")
            has_weight = len(header) >= 3 and header[2].strip() == "weight"
            for line_no, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                try:
                    q = int(rec[0])
                    intensity = float(rec[1])
                    weight = float(rec[2]) if has_weight and len(rec) > 2 else 1.0
                except (ValueError, IndexError) as exc:
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


def _with_jacobian(pattern: diffraction.DiffractionPattern, orders: np.ndarray, n_params: int):
    """Intensities at ``orders`` and their derivatives by the first
    ``n_params`` phases, d I / d p = 2 Re(conj(A) d A / d p)."""
    shifted = pattern.amplitudes_at(orders[:, None] + _SHIFTS)
    amps = shifted[:, 2]  # the unshifted column
    d_amps = shifted @ _SHIFT_COEFFS[:n_params].T
    return amps.real**2 + amps.imag**2, 2.0 * (amps.conj()[:, None] * d_amps).real


def _dipole_model(params: np.ndarray, orders: np.ndarray):
    """Intensities and their (n, 1) Jacobian by theta0 at ``orders``."""
    return _with_jacobian(diffraction.dipole_pattern(float(params[0])), orders, 1)


def _quad_model(params: np.ndarray, orders: np.ndarray):
    """Intensities and their (n, 3) Jacobian by (theta0, thetaA2, thetaC4)."""
    theta0, theta_a2, theta_c4 = (float(v) for v in params)
    pattern = diffraction.quadrupole_pattern(PhaseSet(theta0, theta_a2, thetaC4=theta_c4))
    return _with_jacobian(pattern, orders, 3)


def _gauss_newton(model, p0: np.ndarray, observed: ObservedPattern):
    """Damped Gauss-Newton core shared by both fits.

    ``model(p, orders)`` returns the intensities and their Jacobian.
    Returns (params, residual, converged, iterations, cond, degenerate,
    sigmas), the last three from the normal matrix at the returned params.
    An exactly zero Jacobian stops the fit, converged only at residual 0.
    """
    orders = observed.orders
    y = observed.intensities
    sqrt_w = np.sqrt(observed.weights)

    def residuals(p):
        """Weighted residuals at p and their Jacobian."""
        intensities, d_intensities = model(p, orders)
        return sqrt_w * (y - intensities), -sqrt_w[:, None] * d_intensities

    def try_residuals(p):
        # a wild trial step (flat direction of a degenerate normal matrix)
        # can leave the model's domain; report it as an unacceptable step
        try:
            return residuals(p)
        except diffraction.TruncationError:
            return None

    p = np.array(p0, dtype=float)
    with np.errstate(over="ignore"):
        r, jac = residuals(p)
        s = float(r @ r)
    if not math.isfinite(s):
        raise ValueError("the weighted residual at the start is not finite "
                         "(weights or intensities too large)")
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        if not jac.any():
            converged = s == 0.0
            break
        jtj = jac.T @ jac
        rhs = -jac.T @ r
        try:
            step = np.linalg.solve(jtj, rhs)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jtj, rhs, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        norm = float(np.linalg.norm(step))
        if norm > MAX_STEP_NORM:
            step = step * (MAX_STEP_NORM / norm)
        # halve the step until the weighted residual does not increase
        accepted = False
        for _ in range(60):
            candidate = p + step
            trial = try_residuals(candidate)
            if trial is not None:
                s_new = float(trial[0] @ trial[0])
                if s_new <= s:
                    accepted = True
                    break
            step = 0.5 * step
        if not accepted:
            converged = True  # no descent direction left at this scale
            break
        p, (r, jac) = candidate, trial
        ds = s - s_new
        s = s_new
        if float(np.linalg.norm(step)) < STEP_TOLERANCE:
            converged = True
            break
        if ds <= RESIDUAL_TOLERANCE * max(s, 1e-300):
            converged = True
            break
    jtj = jac.T @ jac
    cond = float(np.linalg.cond(jtj))
    degenerate = not math.isfinite(cond) or cond > DEGENERACY_CONDITION
    # first-order 1-sigma errors, None where the normal matrix leaves one
    # undefined (singular, or overflowing); both fits have dof >= 1
    try:
        variances = np.diag(s / (len(orders) - len(p)) * np.linalg.inv(jtj))
    except np.linalg.LinAlgError:
        variances = [math.nan] * len(p)
    sigmas = tuple(float(math.sqrt(max(v, 0.0))) if math.isfinite(v) else None
                   for v in variances)
    return p, s, converged, iterations, cond, degenerate, sigmas


def _total_note(observed: ObservedPattern) -> str:
    """Diagnostic for an observed total above 1 (noise or missing
    normalisation); empty when the total is consistent with a pattern."""
    total = sum(i for _, i, _ in observed.rows)
    if total > 1.0 + TOTAL_EXCESS:
        return (
            f"; observed intensities sum to {total:.10g}, above 1 "
            "(noisy or unnormalised data)"
        )
    return ""


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
    p, s, converged, iterations, _, degenerate, (sigma,) = _gauss_newton(
        _dipole_model, np.array([float(theta0_init)]), observed
    )
    theta0 = abs(float(p[0]))
    note = (
        "theta0 reported non-negative (intensities are even in theta0); "
        + (f"1-sigma estimate {sigma:.3e} rad from the final normal matrix"
           if sigma is not None else "no 1-sigma estimate: the final normal matrix "
           "cannot be inverted (it is zero at theta0 = 0)")
        + _total_note(observed)
    )
    return FitResult(
        theta0_hat=theta0,
        thetaA2_hat=0.0,
        thetaC4_hat=0.0,
        residual=s,
        converged=converged,
        iterations=iterations,
        covariance_note=note,
        degenerate=degenerate,
        param_sigma=(sigma,),
    )


def fit_quadrupole(observed: ObservedPattern, init: PhaseSet) -> FitResult:
    """Fit (theta0, thetaA2, thetaC4); PhaseSet derives the 4k sine phase.

    Needs at least four distinct orders including a +-q pair: the +-q
    asymmetry is the only carrier of the thetaA2 sign.  A normal-matrix
    condition number above 1e10 at the solution marks the fit degenerate
    (typically: symmetrised data).
    """
    if len(observed.rows) < 4:
        raise ValueError("need at least 4 distinct orders to fit the quadrupole model")
    orders = set(int(q) for q in observed.orders)
    if not any(q > 0 and -q in orders for q in orders):
        raise ValueError("need at least one +q/-q order pair to expose the asymmetry")

    p0 = np.array([init.theta0, init.thetaA2, init.thetaC4], dtype=float)
    p, s, converged, iterations, cond, degenerate, sigmas = _gauss_newton(
        _quad_model, p0, observed
    )

    theta0, theta_a2, theta_c4 = (float(v) for v in p)
    if theta0 < 0:
        # joint flip is an exact symmetry of all intensities
        theta0, theta_c4 = -theta0, -theta_c4

    note = (
        f"normal-matrix condition number {cond:.3e}"
        + (
            f"; degeneracy warning: above {DEGENERACY_CONDITION:.0e}, some "
            "parameter combination (e.g. the thetaA2 sign under symmetrised "
            "data) is unconstrained"
            if degenerate
            else ""
        )
        + "; theta0 normalised >= 0 via the exact (theta0, thetaC4) joint flip"
        + _total_note(observed)
    )
    return FitResult(
        theta0_hat=theta0,
        thetaA2_hat=theta_a2,
        thetaC4_hat=theta_c4,
        residual=s,
        converged=converged,
        iterations=iterations,
        covariance_note=note,
        degenerate=degenerate,
        param_sigma=sigmas,
    )


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
    every earlier one and its pattern matches within ``MATCH_TOLERANCE`` per order.
    The input triple always comes first.
    """
    phases = PhaseSet(theta0, thetaA2, thetaC4=thetaC4)
    base = diffraction.quadrupole_pattern(phases)
    r2 = math.hypot(theta0, thetaA2)
    r4 = math.hypot(phases.thetaA4, thetaC4)
    found = [(theta0, thetaA2, thetaC4)]

    def consider(candidate: tuple[float, float, float]):
        if any(max(abs(a - b) for a, b in zip(candidate, known)) < 1e-9 for known in found):
            return
        pattern = diffraction.quadrupole_pattern(PhaseSet(*candidate[:2], thetaC4=candidate[2]))
        qs = np.union1d(base.orders, pattern.orders)
        if np.max(np.abs(base.intensities_at(qs) - pattern.intensities_at(qs))) <= MATCH_TOLERANCE:
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


def polarizability_estimates(
    result: FitResult, laser: LaserGrating, tau: float
) -> PolarizabilityEstimate:
    """Invert the phase definitions for alpha, A_dq and C_qq.

    |U0| = 2 hbar theta0 / tau with U0 = -alpha E0^2/4;
    UA = 4 hbar thetaA2 / tau; UC = -8 hbar thetaC4 / tau.  Uncertainties
    propagate the fit's sigmas to first order (a dipole fit has none for
    A_dq and C_qq, so those are None).
    """
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
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
        C_qq=0.0 - c_per_rad * result.thetaC4_hat,  # 0.0, not -0.0, at thetaC4 = 0
        C_sigma=c_s,
    )
    if not all(math.isfinite(v) for v in (estimate.alpha, estimate.A_dq, estimate.C_qq)):
        raise ValueError("the recovered polarizabilities are not finite for this laser")
    return estimate
