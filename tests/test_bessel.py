"""Bessel layer against the extended-precision power-series oracle, mpmath
and scipy.special.jv."""

import math

import numpy as np
import pytest

from xkd.diffraction import _bessel_row, _comb, _truncation_order, bessel_J, dipole_pattern

from conftest import bessel_series_oracle


GRID_X = [0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 8.3, 12.0, 16.9, 20.0]


@pytest.mark.parametrize("x", GRID_X)
def test_accuracy_grid_against_series_oracle(x):
    # contract: 1e-13 relative, with a 1e-15 absolute floor near zeros
    for n in range(0, 51):
        ref = bessel_series_oracle(n, x)
        val = bessel_J(n, x)
        err = abs(val - ref)
        assert err <= 1e-15 or err <= 1e-13 * abs(ref), (n, x, val, ref)


def test_spot_values():
    assert bessel_J(0, 0.0) == 1.0
    assert bessel_J(3, 0.0) == 0.0
    # a zero argument gives the exact unit row, +0.0 beyond J_0, at either sign
    unit_row = np.eye(1, 201).ravel().tobytes()
    assert _bessel_row(0.0, 200)[0].tobytes() == unit_row
    assert _bessel_row(-0.0, 200)[0].tobytes() == unit_row
    assert math.copysign(1.0, bessel_J(-3, 0.0)) == -1.0
    # frozen from the 50-digit series oracle
    assert bessel_J(1, 1.0) == pytest.approx(0.44005058574493351596, rel=1e-14)
    assert bessel_J(5, 10.0) == pytest.approx(-0.23406152818679364044, rel=1e-13)
    assert bessel_J(20, 15.0) == pytest.approx(0.0073602340792234852583, rel=1e-13)


def test_completeness_identity():
    total = bessel_J(0, 2.0) ** 2 + 2.0 * sum(
        bessel_J(n, 2.0) ** 2 for n in range(1, 51)
    )
    assert abs(total - 1.0) < 1e-13


def test_reflection_identities_exact():
    for n in range(0, 12):
        for x in (0.3, 1.7, 6.2):
            assert bessel_J(-n, x) == (-1.0) ** n * bessel_J(n, x)
            assert bessel_J(n, -x) == (-1.0) ** n * bessel_J(n, x)


def test_large_arguments():
    # contract covers |n| <= 200, |x| <= 1e4; the ascending series is useless
    # out here (it cancels catastrophically), so check against mpmath's
    # arbitrary-precision evaluation instead; (200, 2.5) seeds the Miller
    # recurrence so far above x that its overflow rescale fires twice, and
    # the four (+-200, +-1e4) pairs are the corners of the contract (there
    # scipy.special.jv is itself off by ~7e-14, so it is no oracle)
    import mpmath as mp

    for n, x in [(0, 1000.0), (3, 1000.0), (200, 250.0), (150, 9999.0), (0, 1e4),
                 (200, 2.5), (200, 1e4), (-200, 1e4), (200, -1e4), (-200, -1e4)]:
        with mp.workdps(40):
            ref = float(mp.besselj(n, mp.mpf(repr(x))))
        val = bessel_J(n, x)
        err = abs(val - ref)
        assert err <= 1e-15 or err <= 5e-13 * abs(ref), (n, x, val, ref)



def test_rescaled_miller_row_against_mpmath():
    # the row behind bessel_J(200, 2.5): every order must survive the two
    # overflow rescales, not only the last one (J_200(2.5) ~ 1e-356 meets
    # any absolute floor, right or wrong)
    import mpmath as mp

    row = _bessel_row(2.5, 200)[0]
    for n in range(0, 201):
        with mp.workdps(40):
            ref = float(mp.besselj(n, mp.mpf("2.5")))
        err = abs(row[n] - ref)
        assert err <= 1e-15 or err <= 1e-13 * abs(ref), (n, row[n], ref)


def _scipy_tail(x, nmax):
    """2 sum_{n>nmax} J_n(x)^2 by scipy.special.jv, until the terms fall
    1e-20 below the running total."""
    from scipy.special import jv

    total, n = 0.0, nmax + 1
    while True:
        term = 2.0 * float(jv(n, x)) ** 2
        total += term
        if term <= 1e-20 * total:
            return total
        n += 1


@pytest.mark.parametrize("x", [*np.logspace(-6.0, 4.0, 80), 1.999, 2.0, 2.001])
def test_row_tail_against_scipy(x):
    # the tail a row cut at the engine's N discards: the Miller path sums
    # its own orders above N, the series path bounds them from above
    x = float(x)
    nmax = math.ceil(x + 8.0 * x ** (1.0 / 3.0) + 12.0)
    tail = _bessel_row(x, nmax)[1]
    ref = _scipy_tail(x, nmax)
    if x >= 2.0:
        assert abs(tail - ref) <= 1e-10 * ref, (x, tail, ref)
    else:
        assert ref * (1.0 - 1e-12) <= tail <= 1.05 * ref, (x, tail, ref)


def test_residual_at_the_phase_range_corners():
    for theta0 in (1e4, -1e4):
        assert 0.0 < dipole_pattern(theta0).truncation_residual < 1e-24


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("i_powers", [True, False])
@pytest.mark.parametrize("xi", [0.7, -0.7, 3.5, -12.0])
def test_comb_against_scipy(xi, i_powers, step):
    # both row algorithms at both signs: site step (n + N) holds J_n(xi),
    # times i^n for a cosine harmonic, and every other site is exactly 0
    from scipy.special import jv

    comb, tail = _comb(xi, i_powers, step)
    top = _truncation_order(abs(xi))
    assert len(comb) == 2 * step * top + 1
    n = np.arange(-top, top + 1)
    ref = jv(n, xi) * (np.array([1, 1j, -1, -1j])[n % 4] if i_powers else 1.0)
    err = np.abs(comb[::step] - ref)
    assert np.all((err <= 1e-15) | (err <= 1e-13 * np.abs(ref))), np.flatnonzero(err > 1e-15) - top
    off = np.ones(len(comb), bool)
    off[::step] = False
    assert np.all(comb[off] == 0)
    assert 0.0 <= tail <= 1e-24


def test_deep_evanescent_orders_underflow_gracefully():
    # true value ~1e-130; anything below the absolute floor is acceptable
    assert abs(bessel_J(50, 0.1)) < 1e-15
    assert abs(bessel_J(200, 1.9)) < 1e-15


def test_domain_rejection():
    with pytest.raises(ValueError):
        bessel_J(0, 1.0001e4)
    with pytest.raises(ValueError):
        bessel_J(0, -2e4)
    with pytest.raises(ValueError):
        bessel_J(0, float("nan"))


def test_random_orders_and_arguments_against_oracle():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n = int(rng.integers(0, 120))
        x = float(rng.uniform(0.0, 30.0))
        ref = bessel_series_oracle(n, x)
        val = bessel_J(n, x)
        err = abs(val - ref)
        assert err <= 1e-15 or err <= 1e-13 * abs(ref), (n, x, val, ref)
