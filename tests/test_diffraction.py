"""Analytic pattern engines against the Fourier oracle and frozen values."""

import mpmath as mp
import numpy as np
import pytest

import xkd
from xkd import diffraction, verify
from xkd.constants import HBAR
from xkd.diffraction import (
    DiffractionPattern,
    PhaseSet,
    TruncationError,
    dipole_pattern,
    intensities_csv,
    pattern_to_dict,
    phase_grating_oracle,
    phases_from_potential,
    quadrupole_pattern,
)
from xkd.potentials import build_potential, evaluate_potential

from conftest import bessel_series_oracle, pattern_max_dev

TAU = 1e-12
K_L = 1.2566e10


def model_from_phases(theta0, theta_a2=0.0, theta_c4=0.0, tau=TAU, k_l=K_L):
    """Potential whose imprinted phases are exactly the given values."""
    return build_potential(
        U0=theta0 * 2.0 * HBAR / tau,
        UA=theta_a2 * 4.0 * HBAR / tau,
        UC=-theta_c4 * 8.0 * HBAR / tau,
        k_L=k_l,
    )


class TestPhaseSet:
    def test_direct_substitution(self):
        m = model_from_phases(1.0)
        ph = phases_from_potential(m, TAU)
        assert ph.theta0 == pytest.approx(1.0, rel=1e-12)
        assert ph.thetaA2 == 0.0
        assert ph.thetaA4 == 0.0
        assert ph.thetaC4 == 0.0

    def test_a_term_phases(self):
        m = model_from_phases(0.0, theta_a2=1.0)
        ph = phases_from_potential(m, TAU)
        assert ph.theta0 == 0.0
        assert ph.thetaA2 == pytest.approx(1.0, rel=1e-12)
        assert ph.thetaA4 == ph.thetaA2 / 2  # exact tie

    def test_order_unity_visibility_phase(self):
        # depth U with exposure hbar/U gives U tau/hbar = 1, theta0 = -1/2
        u = 1e-3 * 1.602176634e-19
        m = build_potential(-u, 0.0, 0.0, K_L)
        ph = phases_from_potential(m, HBAR / u)
        assert ph.theta0 == pytest.approx(-0.5, rel=1e-12)

    def test_global_phase_identity(self):
        ph = PhaseSet(0.7, 0.2, thetaC4=-0.3)
        assert ph.global_phase == pytest.approx(0.7 - (-0.3), rel=1e-15)

    def test_thetaA4_is_derived_from_thetaA2(self):
        ph = PhaseSet(0.7, 0.3, thetaC4=-0.2)
        assert ph.thetaA4 == 0.15
        # the positional thetaA4 is accepted only when it equals thetaA2/2
        assert PhaseSet(0.7, 0.3, 0.15, -0.2) == ph
        for bad in (0.3, 0.0, -0.15, float("nan")):
            with pytest.raises(ValueError, match="thetaA4"):
                PhaseSet(0.7, 0.3, bad, -0.2)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            phases_from_potential(model_from_phases(1.0), 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="theta0 must be finite"):
            PhaseSet(float("nan"))
        with pytest.raises(ValueError, match="thetaC4 must be finite"):
            PhaseSet(0.5, 0.2, thetaC4=float("inf"))
        with pytest.raises(ValueError, match="global_phase must be finite"):
            PhaseSet(1e308, thetaC4=-1e308)


class TestDipolePattern:
    def test_no_grating(self):
        p = dipole_pattern(0.0)
        assert list(p.orders) == [0]
        assert p.intensities[0] == 1.0
        assert p.truncation_residual == 0.0

    def test_unit_phase_frozen_intensities(self):
        # frozen from the 50-digit series oracle: J_n(1)^2
        p = dipole_pattern(1.0)
        assert p.intensity(0) == pytest.approx(0.585527499513664024, rel=1e-13)
        assert p.intensity(2) == pytest.approx(0.193644518014459085, rel=1e-13)
        assert p.intensity(-2) == pytest.approx(0.193644518014459085, rel=1e-13)
        assert p.intensity(4) == pytest.approx(0.0132028108494954808, rel=1e-13)

    @pytest.mark.parametrize("theta0", [0.1, 1.0, 2.5, 5.0, 10.0, -3.0])
    def test_unitarity(self, theta0):
        p = dipole_pattern(theta0, tolerance=1e-10)
        total = float(np.sum(p.intensities))
        assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12

    def test_symmetric_intensities_exact(self):
        p = dipole_pattern(1.7)
        for q in p.orders:
            if q > 0:
                assert p.intensity(int(q)) == p.intensity(-int(q))

    def test_amplitude_phases_follow_i_to_the_n(self):
        p = dipole_pattern(0.8)
        j0 = bessel_series_oracle(0, 0.8)
        j1 = bessel_series_oracle(1, 0.8)
        j2 = bessel_series_oracle(2, 0.8)
        assert p.amplitude(0) == pytest.approx(j0, rel=1e-13)
        assert p.amplitude(2) == pytest.approx(1j * j1, rel=1e-13)
        assert p.amplitude(4) == pytest.approx(-j2, rel=1e-13)
        # negative order: i^-n J_-n = (-i)^n (-1)^n J_n
        assert p.amplitude(-2) == pytest.approx(1j * j1, rel=1e-13)

    def test_global_phase_reported(self):
        assert dipole_pattern(0.6).global_phase == 0.6

    def test_tolerance_domain(self):
        for bad in (0.0, -1e-6, 2e-3, 1.0):
            with pytest.raises(ValueError):
                dipole_pattern(1.0, tolerance=bad)

    def test_truncation_failure_on_absurd_phase(self):
        with pytest.raises(TruncationError):
            dipole_pattern(1e6)

    def test_only_an_out_of_range_phase_is_bad_input(self):
        # beyond |xi| <= 1e4 the input is at fault (a ValueError, so the CLI
        # exits 1); an unreachable tolerance stays a numeric failure
        with pytest.raises(diffraction.PhaseRangeError) as info:
            dipole_pattern(1e6)
        assert isinstance(info.value, TruncationError) and isinstance(info.value, ValueError)
        # the true tail at 9000 rad is 7.9e-25: a tolerance below it is a
        # numeric failure, not bad input
        with pytest.raises(TruncationError) as info:
            dipole_pattern(9000.0, tolerance=1e-30)
        assert not isinstance(info.value, ValueError)

    def test_truncation_residual_upper_bounds_discarded(self):
        # a row over twice the support measures the probability the engine's
        # own truncation discards: it must stay below the tolerance, and the
        # reported residual must match it (theta0 = 1.5 takes the series path,
        # whose tail is a bound that lies a few parts in 1e5 above it)
        for theta0 in (1.5, 3.0, 300.0, 5000.0):
            p = dipole_pattern(theta0)
            n = p.truncation_order // 2
            row = diffraction._bessel_row(theta0, 2 * n)[0]
            discarded = 2.0 * float(np.sum(row[n + 1 :] ** 2))
            assert discarded < 1e-10, theta0
            assert p.truncation_residual >= discarded * (1.0 - 1e-9), theta0
            assert p.truncation_residual <= discarded * 1.05, theta0


class TestQuadrupolePattern:
    def test_reduction_is_bit_identical(self):
        # at zero quadrupole phases the engine returns the Jacobi-Anger comb
        # i^n J_n(theta0) of one Bessel row, bit for bit, and that row's tail
        for theta0 in (0.3, 1.0, -2.2):
            row, tail = diffraction._truncated_bessel(theta0)
            quad = quadrupole_pattern(PhaseSet(theta0))
            assert np.array_equal(quad.amplitudes, diffraction._times_i_powers(row))
            assert quad.truncation_residual == pytest.approx(tail, rel=3e-16)
            for q in (0, 2, -4):
                exact = 1j ** (q // 2 % 4) * bessel_series_oracle(q // 2, theta0)
                assert abs(quad.amplitude(q) - exact) <= 1e-15

    def test_all_zero_phases(self):
        p = quadrupole_pattern(PhaseSet(0.0))
        assert list(p.orders) == [0]
        assert p.intensities[0] == 1.0

    def test_sine_series_case_against_oracle(self):
        # pure A-term grating: asymmetry in q is real, and the independent
        # Fourier oracle must agree per complex amplitude
        m = model_from_phases(0.0, theta_a2=1.0)
        ph = phases_from_potential(m, TAU)
        assert ph.thetaA2 == pytest.approx(1.0, rel=1e-12)
        assert ph.thetaA4 == pytest.approx(0.5, rel=1e-12)
        analytic = quadrupole_pattern(ph)
        oracle = phase_grating_oracle(m, TAU)
        assert pattern_max_dev(analytic, oracle) < 1e-10
        assert analytic.intensity(2) != pytest.approx(analytic.intensity(-2), rel=1e-3)

    def test_unitarity_full_model(self):
        p = quadrupole_pattern(PhaseSet(2.0, 1.5, thetaC4=-1.0), tolerance=1e-10)
        total = float(np.sum(p.intensities))
        assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12
        assert p.truncation_residual <= 1e-10

    def test_only_even_orders(self):
        p = quadrupole_pattern(PhaseSet(1.0, 0.5, thetaC4=-0.2))
        assert np.all(p.orders % 2 == 0)

    def test_tolerance_domain(self):
        for bad in (0.0, -1e-9, 1.01e-3):
            with pytest.raises(ValueError):
                quadrupole_pattern(PhaseSet(0.5), tolerance=bad)

    def test_truncation_failure_on_absurd_phase(self):
        with pytest.raises(TruncationError):
            quadrupole_pattern(PhaseSet(0.5, 1e7))

    def test_truncation_failure_builds_the_rows_once(self, monkeypatch):
        # the theta0 row discards 7.9e-25, above 1e-30: the one nonzero
        # phase's row is built once, at the rule's N, and the pattern fails
        calls = []
        row = diffraction._truncated_bessel

        def counting(xi):
            calls.append(xi)
            return row(xi)

        monkeypatch.setattr(diffraction, "_truncated_bessel", counting)
        with pytest.raises(TruncationError, match="cannot reach tolerance 1e-30"):
            quadrupole_pattern(PhaseSet(9000.0), tolerance=1e-30)
        assert calls == [9000.0]

    def test_residual_sums_the_row_tails(self, monkeypatch):
        # direct path (forced on every draw): (sum_i sqrt t_i)^2 over the four
        # rows' discarded tails; exit-wave path: the power the FFT puts
        # outside the window
        rng = np.random.default_rng(5)
        paths = []
        for _ in range(40):
            # three free phases; the PhaseSet derives thetaA4
            t0, a2, c4 = (float(v) for v in rng.uniform(-2.0, 2.0, 3) ** 5 * 300.0)
            phases = PhaseSet(t0, a2, thetaC4=c4)
            direct, _ = pattern_on_path(monkeypatch, phases, fft=False)
            tails = [
                diffraction._truncated_bessel(xi)[1]
                for xi in (phases.theta0, phases.thetaA2, phases.thetaA4, phases.thetaC4)
            ]
            assert direct.truncation_residual == sum(np.sqrt(t) for t in tails) ** 2, phases
            p, fft = pattern_on_path(monkeypatch, phases)
            paths.append(fft)
            assert p.truncation_residual >= 0.0, phases
            if fft:
                total = float(np.sum(p.intensities))
                assert abs(1.0 - total - p.truncation_residual) <= 1e-14, phases
        assert True in paths and False in paths

    def test_exit_wave_path_against_a_30_digit_dft(self):
        # a long-path set from the bench scan; at the window's edge orders a
        # Bessel-row product, its theta0 row cut at N = 1840, errs 2.8e-14 to
        # 4.9e-14, and the exit wave must not
        theta0, theta_a2, theta_c4 = -1731.1593482715286, 2.5893179305953185, -1.2946589652976597
        p = quadrupole_pattern(PhaseSet(theta0, theta_a2, thetaC4=theta_c4))
        half = 1845  # the exit wave's window -H..H for this set
        assert p.truncation_order >= 2 * half
        ks = [-half, -half + 1, -half + 2, -half + 3, -1731, -1, 0, 1, 1731,
              half - 3, half - 2, half - 1, half]
        m = 4096  # aliases of |k| <= 1845 sit past order 2251, below 1e-100
        with mp.workdps(30):
            t0, a2, c4 = (mp.mpf(v) for v in (theta0, theta_a2, theta_c4))
            roots = [mp.expjpi(mp.mpf(2 * j) / m) for j in range(m)]
            psi = []
            for j in range(m):
                c, s = roots[j].real, roots[j].imag
                psi.append(mp.expj(t0 * c + a2 * (s + s * c) + c4 * (2 * c * c - 1)))
            for k in ks:
                exact = mp.fsum(psi[j] * roots[-k * j % m] for j in range(m)) / m
                assert abs(p.amplitude(2 * k) - complex(exact)) <= 2e-14, k


def padded(pattern, half):
    """Amplitudes on orders -2 half .. 2 half of a contiguous symmetric pattern."""
    k = len(pattern.orders) // 2
    assert np.array_equal(pattern.orders, 2 * np.arange(-k, k + 1))
    out = np.zeros(2 * half + 1, dtype=complex)
    out[half - k : half + k + 1] = pattern.amplitudes
    return out


def pattern_on_path(monkeypatch, phases, fft=None):
    """quadrupole_pattern with its path forced (unless ``fft`` is None), plus
    the path it would have chosen by itself (None for a single amplitude)."""
    chosen = [None]
    choose = diffraction._fft_pays

    def forced(lengths):
        chosen.append(choose(lengths))
        return chosen[-1] if fft is None else fft

    with monkeypatch.context() as m:
        m.setattr(diffraction, "_fft_pays", forced)
        pattern = quadrupole_pattern(phases)
    return pattern, chosen[-1]


class TestConvolutionPaths:
    # (below, above) straddle the 2e5 multiply-add floor of the direct path
    STRADDLES = [
        (PhaseSet(37.0, 37.0, thetaC4=-18.5), PhaseSet(38.0, 38.0, thetaC4=-19.0)),
    ]

    @pytest.mark.parametrize("below, above", STRADDLES)
    def test_paths_agree_at_the_switch(self, monkeypatch, below, above):
        for phases, natural in ((below, False), (above, True)):
            direct, chosen = pattern_on_path(monkeypatch, phases, fft=False)
            fft, _ = pattern_on_path(monkeypatch, phases, fft=True)
            assert chosen is natural
            # the exit wave's window -H..H against the longer row product
            qs = fft.orders
            assert np.max(np.abs(direct.amplitudes_at(qs) - fft.amplitudes)) <= 1e-14
            outside = np.abs(direct.orders) > fft.truncation_order
            assert float(np.sum(direct.intensities[outside])) < 1e-23
            assert 0.0 <= fft.truncation_residual < 1e-23
            unforced = quadrupole_pattern(phases)
            assert np.array_equal((fft if natural else direct).amplitudes, unforced.amplitudes)

    def test_phases_up_to_20_rad_take_the_direct_path(self, monkeypatch):
        # row lengths depend on |phase| only, so one sign covers both
        _, chosen = pattern_on_path(monkeypatch, PhaseSet(20.0, 20.0, thetaC4=20.0), fft=False)
        assert chosen is False

    def test_zero_phase_rows_keep_the_bytes_of_convolving_with_one(self):
        # a zero phase gets no row; the amplitudes must keep the bytes of the
        # explicit convolution of all four combs, [1] for each zero phase,
        # signed zeros included, and of the window cut at the outermost
        # nonzero order (a first row left real would break this: numpy sums
        # a real convolution in another order)
        rng = np.random.default_rng(27)
        for _ in range(300):
            draws = rng.uniform(-4.0, 4.0, 3) * 10.0 ** rng.uniform(-3.0, 0.0, 3)
            theta0, a2, c4 = np.where(rng.random(3) < 0.5, 0.0, draws)
            phases = PhaseSet(float(theta0), float(a2), thetaC4=float(c4))
            t0, ra2, ra4, rc4 = (
                diffraction._truncated_bessel(xi)[0] if xi != 0.0 else np.array([1.0])
                for xi in (phases.theta0, phases.thetaA2, phases.thetaA4, phases.thetaC4)
            )
            conv = diffraction._times_i_powers(t0)
            for other in (ra2, diffraction._dilate(ra4, 2),
                          diffraction._dilate(diffraction._times_i_powers(rc4), 2)):
                conv = np.convolve(conv, other)
            h = len(conv) // 2
            k = int(np.max(np.abs(np.flatnonzero(conv) - h)))
            got = quadrupole_pattern(phases).amplitudes
            assert got.tobytes() == conv[h - k : h + k + 1].tobytes(), phases

    def test_end_orders_that_underflow_to_zero_are_trimmed(self):
        # the row of a 1e-200 rad phase is longer than three entries, but
        # every one past J1 = 5e-201 underflows to exactly 0; the bytes
        # also pin +0.0 in every real and imaginary part (no signed zeros)
        assert len(diffraction._truncated_bessel(1e-200)[0]) > 3
        a = 0.5e-200j
        dipole = dipole_pattern(1e-200)
        assert dipole.amplitudes.tobytes() == np.array([a, 1, a]).tobytes()
        assert dipole.truncation_residual == 0.0
        pattern = quadrupole_pattern(PhaseSet(1e-200, 0.0, thetaC4=1e-200))
        assert pattern.amplitudes.tobytes() == np.array([a, a, 1, a, a]).tobytes()
        assert pattern.truncation_residual == 0.0

    def test_bessel_argument_cap(self):
        # every phase at the 1e4 cap: about 1e5 orders, against the oracle on
        # a grid wide enough to resolve them all
        m = model_from_phases(1e4, -1e4, 1e4)
        phases = phases_from_potential(m, TAU)
        assert abs(phases.theta0) <= 1e4 and abs(phases.thetaC4) <= 1e4
        pattern = quadrupole_pattern(phases)
        oracle = phase_grating_oracle(m, TAU, grid_points=2**19)
        assert pattern.truncation_order >= oracle.truncation_order
        half = len(pattern.orders) // 2
        assert np.max(np.abs(padded(pattern, half) - padded(oracle, half))) <= 1e-9
        assert abs(1.0 - float(np.sum(pattern.intensities))) <= 1e-10
        assert 0.0 <= pattern.truncation_residual < 1.2e-23
        with pytest.raises(xkd.TruncationError):
            quadrupole_pattern(PhaseSet(1e4, -1e4, thetaC4=1.0001e4))


class TestOracle:
    def test_grid_validation(self):
        m = model_from_phases(0.5)
        with pytest.raises(ValueError):
            phase_grating_oracle(m, TAU, grid_points=4095)
        with pytest.raises(ValueError):
            phase_grating_oracle(m, TAU, grid_points=6000)

    def test_zero_potential(self):
        m = build_potential(0.0, 0.0, 0.0, K_L)
        p = phase_grating_oracle(m, TAU)
        assert list(p.orders) == [0]
        assert p.intensities[0] == pytest.approx(1.0, abs=1e-14)

    def test_dipole_agreement(self):
        m = model_from_phases(0.5)
        oracle = phase_grating_oracle(m, TAU)
        analytic = dipole_pattern(phases_from_potential(m, TAU).theta0)
        assert pattern_max_dev(analytic, oracle) < 1e-10

    def test_full_model_agreement(self):
        m = model_from_phases(0.3, 0.3, 0.3)
        ph = phases_from_potential(m, TAU)
        assert pattern_max_dev(
            quadrupole_pattern(ph), phase_grating_oracle(m, TAU)
        ) < 1e-10

    def test_odd_orders_vanish(self):
        m = model_from_phases(1.2, -0.7, 0.4)
        assert phase_grating_oracle(m, TAU).odd_leakage < 1e-12

    def test_random_cross_validation(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            theta0, theta_a2, theta_c4 = rng.uniform(-3, 3, 3)
            m = model_from_phases(theta0, theta_a2, theta_c4)
            ph = phases_from_potential(m, TAU)
            worst = max(
                worst,
                pattern_max_dev(quadrupole_pattern(ph), phase_grating_oracle(m, TAU)),
            )
        assert worst < 1e-9

    def test_window_reaching_the_grid_edge_fails(self):
        # theta0 = 2000 fills q = 2n for |n| up to about 2,100, and a
        # 4096-point grid holds only |n| <= 1024
        with pytest.raises(TruncationError, match="edge of the 4096-point grid"):
            phase_grating_oracle(model_from_phases(2000.0), TAU, grid_points=4096)

    def test_tolerance_below_the_residual_fails_at_once(self):
        with pytest.raises(TruncationError, match="cannot reach tolerance 1e-30"):
            phase_grating_oracle(model_from_phases(1.0), TAU, tolerance=1e-30)

    def test_residual_is_the_power_outside_the_window(self):
        # on every oracle input of verify seeds 0-39: the even-order power
        # the window leaves out, summed here from a fresh transform
        m = 16384
        x = np.arange(m) * (2.0 * np.pi / K_L) / m
        k = np.fft.fftfreq(m // 2, 1.0 / (m // 2)).astype(int)  # even harmonics q = 2k
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for _ in range(25):
                model = verify._random_model(rng, TAU, K_L)
                p = phase_grating_oracle(model, TAU, grid_points=m)
                psi = np.exp(1j * evaluate_potential(model, x) * (TAU / HBAR))
                evens = np.fft.fft(psi)[::2] / m
                outside = np.sum(np.abs(evens[np.abs(k) > p.truncation_order // 2]) ** 2)
                assert p.truncation_residual >= 0.0
                assert p.truncation_residual == pytest.approx(outside, rel=1e-12, abs=0.0)

    def test_verify_deviation_keeps_the_bits_of_the_order_loop(self):
        # verify's one-search deviation against the per-order loop it replaced
        rng = np.random.default_rng(7)
        for _ in range(8):
            m = model_from_phases(*rng.uniform(-3, 3, 3))
            analytic = quadrupole_pattern(phases_from_potential(m, TAU))
            oracle = phase_grating_oracle(m, TAU)
            assert verify._pattern_pair_dev(analytic, oracle) == pattern_max_dev(analytic, oracle)


class TestPatternType:
    def test_every_engine_returns_the_symmetric_even_window(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            theta0, theta_a2, theta_c4 = rng.uniform(-2.0, 2.0, 3) ** 3 * 5.0
            m = model_from_phases(theta0, theta_a2, theta_c4)
            for p in (
                dipole_pattern(theta0),
                quadrupole_pattern(phases_from_potential(m, TAU)),
                phase_grating_oracle(m, TAU),
            ):
                h = len(p.amplitudes) // 2
                assert np.array_equal(p.orders, 2 * np.arange(-h, h + 1))
                assert p.truncation_order == p.orders[-1]

    def test_patterns_compare_and_hash_by_identity(self):
        p = dipole_pattern(0.5)
        assert p == p and p != dipole_pattern(0.5)
        assert hash(p) == hash(p) and {p: 1}[p] == 1

    def test_intensity_is_exact_square(self):
        p = quadrupole_pattern(PhaseSet(1.1, 0.4, thetaC4=-0.6))
        for amp, intens in zip(p.amplitudes, p.intensities):
            assert intens == amp.real**2 + amp.imag**2

    def test_rejects_a_window_that_is_not_odd_and_1d(self):
        # the amplitudes are the window q = -2h..2h, so only an odd-length
        # row can be one
        for amps in (np.array([]), np.ones(2, complex), np.ones((3, 3), complex)):
            with pytest.raises(ValueError, match="odd length"):
                DiffractionPattern(amplitudes=amps, truncation_residual=0.0)
        p = DiffractionPattern(amplitudes=np.ones(5, complex), truncation_residual=0.0)
        assert p.orders.tolist() == [-4, -2, 0, 2, 4] and p.truncation_order == 4

    def test_amplitude_lookup_outside_support(self):
        p = dipole_pattern(0.5)
        assert p.amplitude(10**6) == 0.0
        assert p.intensity(10**6) == 0.0

    def test_vector_lookup_matches_the_scalar_one(self):
        p = quadrupole_pattern(PhaseSet(1.1, 0.4, thetaC4=-0.6))
        lo, hi = int(p.orders[0]), int(p.orders[-1])
        qs = [lo - 4, lo - 2, lo, lo + 2, -2, 0, 2, 3, hi - 2, hi, hi + 2, hi + 4,
              -10**6, 10**6]
        amp_of = dict(zip(p.orders.tolist(), p.amplitudes.tolist()))
        intensity_of = dict(zip(p.orders.tolist(), p.intensities.tolist()))
        amps, intens = p.amplitudes_at(qs), p.intensities_at(qs)
        assert amps.shape == intens.shape == (len(qs),)
        for q, a, i in zip(qs, amps, intens):
            assert a == p.amplitude(q) == amp_of.get(q, 0.0)
            assert i == p.intensity(q) == intensity_of.get(q, 0.0)
        assert amps[0] == amps[-1] == intens[0] == intens[-1] == 0.0
        assert p.intensities_at(p.orders).tolist() == p.intensities.tolist()
        assert p.amplitudes_at(2).tolist() == [p.amplitude(2)]

    def test_arrays_are_frozen(self):
        p = dipole_pattern(0.5)
        with pytest.raises(ValueError):
            p.amplitudes[0] = 0.0


class TestCsvAndDict:
    def test_empty_interaction_row(self):
        text = intensities_csv(dipole_pattern(0.0))
        assert text == "order,amplitude_re,amplitude_im,intensity\n0,1.0,0.0,1.0\n"

    def test_unit_phase_center_row(self):
        text = intensities_csv(dipole_pattern(1.0))
        row = next(line for line in text.splitlines() if line.startswith("0,"))
        assert float(row.split(",")[3]) == pytest.approx(0.585527499513664, rel=1e-13)

    def test_row_count_and_sorting(self):
        p = quadrupole_pattern(PhaseSet(0.9, 0.3, thetaC4=-0.1))
        lines = intensities_csv(p).strip().splitlines()
        assert len(lines) == len(p.orders) + 1
        orders = [int(line.split(",")[0]) for line in lines[1:]]
        assert orders == sorted(orders)

    def test_dict_mirrors_pattern(self):
        p = dipole_pattern(0.7)
        doc = pattern_to_dict(p)
        assert doc["orders"] == [int(q) for q in p.orders]
        assert doc["truncation_residual"] == p.truncation_residual
        assert doc["global_phase"] == 0.7
        assert doc["k0"] == 0.0
