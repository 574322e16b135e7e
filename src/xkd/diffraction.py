"""Far-field diffraction orders of the standing-wave phase grating.

In the thin-grating (Raman-Nath) limit the interaction only imprints a
position-dependent phase, ``exp(i U(X) tau / hbar)``.  Expanding each
Fourier component of the phase with the Jacobi-Anger identities

    exp(i xi cos phi) = sum_n  i^n J_n(xi) exp(i n phi)
    exp(i xi sin phi) = sum_n      J_n(xi) exp(i n phi)

turns the exit wave into a discrete comb of momentum components spaced by
the grating wavevector k_L.  A pure ``cos^2`` grating gives amplitude
``i^n J_n(theta0)`` at order q = 2n; with the induced-quadrupole terms the
amplitude at order q becomes a four-fold convolution

    A(q) = sum_{2n+2m+4l+4r=q} i^(n+r) J_n(t0) J_m(tA2) J_l(tA4) J_r(tC4)

evaluated here as the 1-D convolution of the truncated Bessel rows of the
nonzero phases, one engine for both cases: a zero phase's comb is the
factor 1 and gets no row.  Long convolutions (:func:`_fft_pays`) give way
to one FFT of the sampled exit wave, the fits' model.  Only even q ever
appear (the potential contains only the 2k_L and 4k_L harmonics).

Conventions:

* Orders q are multiples of k_L *relative to the incident wavevector*, so
  the pattern document's ``k0`` entry is always 0.
* The overall phase ``exp(i (U0/2 + UC/8) tau / hbar)`` is reported in
  ``global_phase`` and never multiplied into the amplitudes, which keeps
  analytic patterns directly comparable with the Fourier oracle.
* Each Bessel row is cut once, at N = ceil(|xi| + 8 |xi|^(1/3) + 12)
  (J_n dies super-exponentially past n ~ xi), and reports the probability
  2 sum_{n>N} J_n^2 it discards, at most ~1e-24 for any |xi| <= 1e4.  A
  pattern whose truncation residual (see :func:`quadrupole_pattern`) is
  not below the requested tolerance raises TruncationError.

:func:`phase_grating_oracle` is an independent check on all of the above:
it samples the exit wave on a grid over one full spatial period 2 pi / k_L
and reads the order amplitudes off a discrete Fourier transform, never
touching the Bessel layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR
from .potentials import PotentialModel, _mean, evaluate_potential

__all__ = [
    "TruncationError",
    "PhaseSet",
    "DiffractionPattern",
    "bessel_J",
    "phases_from_potential",
    "dipole_pattern",
    "quadrupole_pattern",
    "phase_grating_oracle",
    "intensities_csv",
    "pattern_to_dict",
]

_MAX_BESSEL_ARG = 1e4

# exact unit values of i**n, indexed by n mod 4
_I_POW = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


class TruncationError(RuntimeError):
    """The truncated series discards the requested tolerance or more."""


class PhaseRangeError(TruncationError, ValueError):
    """A phase beyond the |xi| <= 1e4 range: bad input, hence a ValueError."""


# ---------------------------------------------------------------------------
# Bessel functions of the first kind
# ---------------------------------------------------------------------------

def _bessel_row_series(x: float, nmax: int) -> tuple[np.ndarray, float]:
    """J_0..J_nmax by the ascending power series, and a tail bound; x in [0, 2)."""
    out = []
    half = 0.5 * x
    ratio = -(half * half)
    term0 = 1.0
    for n in range(nmax + 1):
        # term0 = (x/2)^n / n!, built multiplicatively so underflow is graceful
        s = term0
        term = term0
        k = 0
        while True:
            k += 1
            term *= ratio / (k * (n + k))
            s += term
            if abs(term) <= 1e-18 * abs(s) or term == 0.0:
                break
        out.append(s)
        term0 *= half / (n + 1)
    # J_{nmax+1} lies below its series' first three terms (they alternate and
    # shrink); beyond, |J_n| <= (x/2)^n / n! (DLMF 10.14.4), term0 at nmax + 1
    m = nmax + 2
    first = term0 * (1.0 + ratio / m * (1.0 + ratio / (2.0 * (m + 1))))
    r = half / m
    return np.array(out), 2.0 * (first * first + (term0 * r) ** 2 / (1.0 - r * r))


def _bessel_row_miller(x: float, nmax: int) -> tuple[np.ndarray, float]:
    """J_0..J_nmax by normalised downward recurrence, and their tail; x >= 2.

    Seeds the two-term recurrence high above both nmax and the turning
    point n ~ x, recurses down, and rescales on the fly to dodge overflow.
    The run is normalised with J_0 + 2 sum_k J_2k = 1, which fixes the
    arbitrary seed to better than a few ulps of the dominant orders.
    """
    top = max(nmax, int(math.ceil(x)))
    start = top + 24 + int(12.0 * (0.5 * max(nmax, x)) ** (1.0 / 3.0))
    # a list of Python floats: indexing it is several times cheaper than
    # indexing an array, and the arithmetic is the same IEEE double
    j = [0.0] * (start + 2)
    j[start] = 1e-30
    for k in range(start, 0, -1):
        j[k - 1] = (2.0 * k / x) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            # growing downward from the tiny seed; rescale everything written
            # so far to keep the chain inside double range
            j[k - 1 :] = [v * 1e-250 for v in j[k - 1 :]]
    norm = j[0] + 2.0 * math.fsum(j[2 : start + 1 : 2])
    # hypot scales its arguments, so the squares cannot overflow
    tail = 2.0 * (math.hypot(*j[nmax + 1 : start + 1]) / norm) ** 2
    return np.array(j[: nmax + 1]) / norm, tail


def _bessel_row(x: float, nmax: int) -> tuple[np.ndarray, float]:
    """J_n(x) for n = 0..nmax at x >= 0, and the tail 2 sum_{n>nmax} J_n(x)^2."""
    if x < 2.0:
        return _bessel_row_series(x, nmax)
    return _bessel_row_miller(x, nmax)


def bessel_J(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x).

    Accurate to ~1e-13 relative (1e-15 absolute near zeros) for |n| <= 200;
    the argument is restricted to |x| <= 1e4.  Uses the ascending series for
    small arguments and normalised downward recurrence otherwise, so the
    reflection identities J_{-n}(x) = (-1)^n J_n(x) and
    J_n(-x) = (-1)^n J_n(x) hold exactly.
    """
    n = int(n)
    x = float(x)
    if not math.isfinite(x) or abs(x) > _MAX_BESSEL_ARG:
        raise ValueError(f"bessel_J argument out of range (|x| <= {_MAX_BESSEL_ARG:g}): {x}")
    # an odd n flips the sign once per negative of n and x
    sign = -1.0 if n % 2 and (n < 0) != (x < 0.0) else 1.0
    return sign * float(_bessel_row(abs(x), abs(n))[0][abs(n)])


# ---------------------------------------------------------------------------
# Phase bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSet:
    """Arguments of the four Bessel expansions, all in radians.

    theta0 drives the 2k_L cosine harmonic, thetaA2 the 2k_L sine harmonic
    and thetaC4 the 4k_L cosine harmonic.  UA cos^3(kX) sin(kX) drives both
    sine harmonics (UA/4 and UA/8), so thetaA4 = thetaA2/2 is derived; a
    ``thetaA4`` argument must equal it.  The order-independent prefactor
    (U0/2 + UC/8) tau / hbar equals theta0 - thetaC4 and is stored
    separately as ``global_phase``.
    """

    theta0: float
    thetaA2: float = 0.0
    thetaA4: float | None = None
    thetaC4: float = 0.0
    global_phase: float = field(init=False)

    def __post_init__(self):
        for name in ("theta0", "thetaA2", "thetaC4"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        theta_a4 = 0.5 * self.thetaA2
        if self.thetaA4 is not None and self.thetaA4 != theta_a4:
            raise ValueError(f"thetaA4 must be thetaA2/2 = {theta_a4!r}, got {self.thetaA4!r}")
        object.__setattr__(self, "thetaA4", theta_a4)
        object.__setattr__(self, "global_phase", self.theta0 - self.thetaC4)
        if not math.isfinite(self.global_phase):
            raise ValueError("global_phase must be finite")


def phases_from_potential(model: PotentialModel, tau: float) -> PhaseSet:
    """Imprinted phases for interaction time tau (s).

    theta0 = U0 tau / 2 hbar, thetaA2 = UA tau / 4 hbar,
    thetaC4 = -UC tau / 8 hbar; the PhaseSet derives thetaA4.
    """
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    return PhaseSet(
        theta0=model.U0 * tau / (2.0 * HBAR),
        thetaA2=model.UA * tau / (4.0 * HBAR),
        thetaC4=-model.UC * tau / (8.0 * HBAR),
    )


# ---------------------------------------------------------------------------
# Diffraction patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiffractionPattern:
    """Per-order complex amplitudes and intensities of the exit wave.

    The odd-length ``amplitudes`` are the symmetric window of even orders
    q = -2h..2h (units of k_L, relative to the incident beam), from which
    ``orders``, ``truncation_order`` = 2h and the |amplitude|^2
    ``intensities`` derive.  ``truncation_residual`` is a leading-order
    bound on sum_q |A(q) - A_exact(q)|^2 (Bessel rows) or the discarded
    probability (exit wave, oracle).  ``odd_leakage`` is filled by the oracle
    with the largest amplitude it saw on any odd order (an
    internal-consistency diagnostic; analytic engines report 0).  Patterns
    compare and hash by identity: two patterns with equal values differ.
    """

    amplitudes: np.ndarray        # complex, orders -2h..2h
    truncation_residual: float
    global_phase: float = 0.0
    odd_leakage: float = 0.0
    orders: np.ndarray = field(init=False)
    truncation_order: int = field(init=False)
    intensities: np.ndarray = field(init=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or len(amps) % 2 == 0:
            raise ValueError("amplitudes must be a 1-D window of odd length, orders -2h..2h")
        h = (len(amps) - 1) // 2
        orders = 2 * np.arange(-h, h + 1)
        intens = amps.real**2 + amps.imag**2
        for arr in (orders, amps, intens):
            arr.setflags(write=False)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "truncation_order", 2 * h)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "intensities", intens)

    def amplitude(self, q: int) -> complex:
        """Amplitude at order q (0 when q lies outside the kept support)."""
        return complex(self.amplitudes_at(q)[0])

    def intensity(self, q: int) -> float:
        return float(self.intensities_at(q)[0])

    def amplitudes_at(self, qs) -> np.ndarray:
        """Amplitudes at the integer orders ``qs``, 0 at odd q and outside the window."""
        qs = np.atleast_1d(qs)
        top = self.truncation_order
        hit = (qs % 2 == 0) & (np.abs(qs) <= top)
        out = np.zeros(qs.shape, complex)
        out[hit] = self.amplitudes[(qs[hit] + top) // 2]
        return out

    def intensities_at(self, qs) -> np.ndarray:
        amps = self.amplitudes_at(qs)
        return amps.real**2 + amps.imag**2


def _check_tolerance(tolerance: float):
    if not (0.0 < tolerance <= 1e-3):
        raise ValueError(f"tolerance must be in (0, 1e-3], got {tolerance}")


def _truncation_order(a: float) -> int:
    return int(math.ceil(a + 8.0 * a ** (1.0 / 3.0) + 12.0))


def _check_phase(xi: float):
    if not math.isfinite(xi) or abs(xi) > _MAX_BESSEL_ARG:
        raise PhaseRangeError(f"phase {xi!r} is beyond the {_MAX_BESSEL_ARG:g} rad range")


def _truncated_bessel(xi: float) -> tuple[np.ndarray, float]:
    """J_n(xi) for n = -N..N, N = ceil(|xi| + 8 |xi|^(1/3) + 12), and the
    probability 2 sum_{n>N} J_n(xi)^2 the row discards.

    Returns the signed row (J_{-n} = (-1)^n J_n).
    """
    _check_phase(xi)
    a = abs(xi)
    n = _truncation_order(a)
    row, tail = _bessel_row(a, n)
    # J_k(|xi|) for k = -n..n, using J_{-k}(x) = (-1)^k J_k(x); a negative
    # argument's row is that row reversed, since J_k(-x) = J_{-k}(x)
    full = np.concatenate((row[:0:-1], row))
    full[n - 1 :: -2] *= -1.0  # the odd negative orders
    return (full if xi > 0.0 else full[::-1]), tail


def _times_i_powers(row: np.ndarray) -> np.ndarray:
    """A symmetric row of terms n = -N..N, each times the exact i**n."""
    n = (len(row) - 1) // 2
    return _I_POW[np.arange(-n, n + 1) & 3] * row


def _dilate(row: np.ndarray, step: int) -> np.ndarray:
    """Spread a symmetric coefficient row onto every ``step``-th lattice site."""
    out = np.zeros(step * (len(row) - 1) + 1, dtype=row.dtype)
    out[::step] = row
    return out


# the direct path stays below this many multiply-adds; the floor sits far
# above every verify and fit input and the shipped configs, so their
# amplitudes keep the direct path's exact bytes
_FFT_MIN_DIRECT = 2e5


def _fft_pays(lengths) -> bool:
    """Whether the successive direct convolutions of rows of these lengths
    cost more than ``_FFT_MIN_DIRECT`` multiply-adds (sum la*lb)."""
    direct = 0
    span = lengths[0]
    for n in lengths[1:]:
        direct += span * n
        span += n - 1
    return direct > _FFT_MIN_DIRECT


def _support(theta0: float, thetaA2: float, thetaC4: float) -> int:
    """Half-orders H = h + 2 on which the exit wave's coefficients are read.

    a = R2 + 2 R4 bounds the exit phase's slope, so the coefficients die
    past about a half-orders as J_n(a) does, and h is the Bessel truncation
    rule at a; the 2 covers the fits' Jacobian shifts by two half-orders.
    """
    a = math.hypot(theta0, thetaA2) + 2.0 * math.hypot(0.5 * thetaA2, thetaC4)
    return _truncation_order(a) + 2


def _exit_wave(theta0: float, thetaA2: float, thetaC4: float) -> tuple[np.ndarray, int]:
    """Coefficients of the exit wave and its support H (:func:`_support`).

    One FFT of exp(i[theta0 cos u + thetaA2 (sin u + sin 2u / 2) +
    thetaC4 cos 2u]) sampled on M points, M the next power of two above
    2 H + 1: the trapezoidal rule on a periodic analytic function, so the
    aliasing error dies super-exponentially.  A(q) sits at index (q/2) mod
    M.  A phase beyond the engine's range raises PhaseRangeError.
    """
    for xi in (theta0, thetaA2, thetaC4):
        _check_phase(xi)
    half = _support(theta0, thetaA2, thetaC4)
    m = 1 << (2 * half + 1).bit_length()
    u = np.arange(m) * (2.0 * math.pi / m)
    c, s = np.cos(u), np.sin(u)
    phase = theta0 * c + thetaA2 * s * (1.0 + c) + thetaC4 * (c - s) * (c + s)
    return np.fft.fft(np.exp(1j * phase)) / m, half


def dipole_pattern(theta0: float, tolerance: float = 1e-10) -> DiffractionPattern:
    """Diffraction orders of the pure cos^2 grating.

    Order q = 2n carries amplitude i^n J_n(theta0), intensity J_n(theta0)^2;
    this is :func:`quadrupole_pattern` at zero quadrupole phases, so
    ``truncation_residual`` is the row's tail.  theta0 = U0 tau / 2 hbar.
    """
    return quadrupole_pattern(PhaseSet(float(theta0)), tolerance)


def quadrupole_pattern(phases: PhaseSet, tolerance: float = 1e-10) -> DiffractionPattern:
    """Diffraction orders with the induced-quadrupole harmonics included.

    The exit wave is the product of four Jacobi-Anger combs (harmonics at
    2k_L from theta0 and thetaA2, at 4k_L from the derived thetaA4 and
    thetaC4); the per-order amplitude is their discrete convolution, carried
    out in units of half-orders so the 4k_L rows land on even lattice sites.
    A zero phase's comb is the factor 1 and gets no row: with all quadrupole
    phases zero this is :func:`dipole_pattern`, with every phase zero the
    single amplitude 1.  ``truncation_residual`` is (sum_i sqrt t_i)^2 over
    the tails t_i of the rows built.  Each comb is a unit-modulus factor of
    the exit wave, so swapping them one at a time for their truncations
    telescopes: to leading order this bounds sum_q |A(q) - A_exact(q)|^2.

    Where the rows' direct convolutions would pass 2e5 multiply-adds
    (:func:`_fft_pays`; phases from a few tens of radians up) the
    amplitudes are read off :func:`_exit_wave` instead, on its window
    -H..H and accurate to about |phase| 2^-53 each; ``truncation_residual``
    is then the power outside that window.  TruncationError is raised
    unless the residual is below ``tolerance``.
    """
    _check_tolerance(tolerance)
    # the cosine harmonics carry i^n; the 4k_L combs sit on every other site
    combs = [
        (float(xi), i_powers, step)
        for xi, i_powers, step in (
            (phases.theta0, True, 1),
            (phases.thetaA2, False, 1),
            (phases.thetaA4, False, 2),
            (phases.thetaC4, True, 2),
        )
        if xi != 0.0
    ]
    if combs and _fft_pays([2 * step * _truncation_order(abs(xi)) + 1 for xi, _, step in combs]):
        spectrum, half = _exit_wave(phases.theta0, phases.thetaA2, phases.thetaC4)
        outside = spectrum[half + 1 : -half]
        residual = float(np.sum(outside.real**2 + outside.imag**2))
        amplitudes = np.concatenate((spectrum[-half:], spectrum[: half + 1]))
    else:
        conv, roots = np.ones(1, complex), 0.0
        for k, (xi, i_powers, step) in enumerate(combs):
            row, tail = _truncated_bessel(xi)
            roots += math.sqrt(tail)
            row = _dilate(_times_i_powers(row) if i_powers else row, step)
            # a complex first row: numpy sums a real convolution in another order
            conv = np.convolve(conv, row) if k else row + 0j
        residual = roots**2
        # strip end pairs that underflowed to exactly 0 (some amplitude is not)
        lo, hi = 0, len(conv) - 1
        while conv[lo] == 0 and conv[hi] == 0:
            lo, hi = lo + 1, hi - 1
        amplitudes = conv[lo : hi + 1] + 0.0  # no signed zeros
    if not residual < tolerance:
        raise TruncationError(f"cannot reach tolerance {tolerance:g} for phases {phases}")
    return DiffractionPattern(
        amplitudes=amplitudes,
        truncation_residual=residual,
        global_phase=float(phases.global_phase),
    )


def phase_grating_oracle(
    model: PotentialModel,
    tau: float,
    grid_points: int = 16384,
    tolerance: float = 1e-10,
) -> DiffractionPattern:
    """Order amplitudes by direct Fourier analysis of exp(i U(X) tau / hbar).

    Samples the exit phase factor on a uniform grid over one full spatial
    period 2 pi / k_L (the joint period of the 2k_L and 4k_L harmonics) and
    reads amplitudes off the DFT, so the momentum order equals the harmonic
    index.  Entirely independent of the Bessel machinery; used to
    cross-validate the analytic engines.  The overall phase from the DC
    Fourier term is divided out and reported in ``global_phase`` so the
    amplitudes are directly comparable with the analytic patterns.

    The window ends at the outermost even order above intensity 1e-26;
    ``truncation_residual`` sums the even orders beyond it, so it is never
    negative.  TruncationError is raised if the window reaches the grid
    edge, or unless the residual is below ``tolerance``.
    """
    m = int(grid_points)
    if m < 4096 or (m & (m - 1)) != 0:
        raise ValueError(f"grid_points must be a power of two >= 4096, got {grid_points}")
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    _check_tolerance(tolerance)
    x = np.arange(m) * (2.0 * math.pi / model.k_L) / m
    phase = evaluate_potential(model, x) * (tau / HBAR)
    coeff = np.fft.fft(np.exp(1j * phase)) / m
    gp = _mean(model) * tau / HBAR
    coeff = coeff * np.exp(-1j * gp)

    odd_leakage = float(np.max(np.abs(coeff[1::2])))
    # even harmonics, reordered to signed q = 2k for k = -m/4 .. m/4 - 1
    signed = np.fft.fftshift(coeff[::2])
    hmax = m // 4
    power = signed.real**2 + signed.imag**2
    # the even orders carry probability ~1, so some order passes 1e-26
    h = int(np.max(np.abs(np.flatnonzero(power > 1e-26) - hmax)))
    if h >= hmax - 1:
        raise TruncationError(f"the pattern reaches the edge of the {m}-point grid")
    residual = float(np.sum(power[: hmax - h]) + np.sum(power[hmax + h + 1 :]))
    if not residual < tolerance:
        raise TruncationError(f"cannot reach tolerance {tolerance:g} on a {m}-point grid")
    return DiffractionPattern(
        amplitudes=signed[hmax - h : hmax + h + 1],
        truncation_residual=residual,
        global_phase=float(gp),
        odd_leakage=odd_leakage,
    )


def intensities_csv(pattern: DiffractionPattern) -> str:
    """Render a pattern as CSV text: order, amplitude_re, amplitude_im, intensity."""
    lines = ["order,amplitude_re,amplitude_im,intensity"]
    for q, amp, intens in zip(pattern.orders, pattern.amplitudes, pattern.intensities):
        lines.append(
            f"{int(q)},{float(amp.real)!r},{float(amp.imag)!r},{float(intens)!r}"
        )
    return "\n".join(lines) + "\n"


def pattern_to_dict(pattern: DiffractionPattern) -> dict:
    """Structured-document form of a pattern (JSON-serialisable)."""
    return {
        "orders": [int(q) for q in pattern.orders],
        "amplitude_re": [float(a.real) for a in pattern.amplitudes],
        "amplitude_im": [float(a.imag) for a in pattern.amplitudes],
        "intensities": [float(v) for v in pattern.intensities],
        "truncation_order": int(pattern.truncation_order),
        "truncation_residual": float(pattern.truncation_residual),
        "global_phase": float(pattern.global_phase),
        "k0": 0.0,  # orders are relative to the incident beam
        "odd_leakage": float(pattern.odd_leakage),
    }

