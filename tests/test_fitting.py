"""Phase recovery: round trips, degeneracies, noise behaviour."""

import math

import numpy as np
import pytest

from xkd.diffraction import PhaseSet, dipole_pattern, quadrupole_pattern
from xkd.fitting import (
    ObservedPattern,
    equivalent_triples,
    fit_dipole,
    fit_quadrupole,
    polarizability_estimates,
)
from xkd.potentials import (
    AtomSpecies,
    LaserGrating,
    build_potential,
    lightshift_depth,
    quadrupole_scales,
)
from xkd import diffraction, fitting


def observed_from_pattern(pattern, weights=None):
    return ObservedPattern.from_arrays(pattern.orders, pattern.intensities, weights)


def assert_same_members(got, expected, tol):
    """Equal sets of triples, member for member within ``tol``."""
    assert len(got) == len(expected), (got, expected)
    for e in expected:
        assert any(max(abs(a - b) for a, b in zip(g, e)) <= tol for g in got), (e, got)


def scan_equivalent_triples(theta0, thetaA2, thetaC4, match_tol=1e-12):
    """Reference: the tied triples found by scanning g for sign changes on an
    8196-point grid and bisecting each bracket 80 times (no closed form)."""
    base = quadrupole_pattern(PhaseSet(theta0, thetaA2, thetaC4=thetaC4))
    r2, r4 = math.hypot(theta0, thetaA2), math.hypot(0.5 * thetaA2, thetaC4)
    delta = math.atan2(0.5 * thetaA2, thetaC4) - 2.0 * math.atan2(thetaA2, theta0)
    found = []

    def consider(cand):
        if any(max(abs(a - b) for a, b in zip(cand, k)) < 1e-9 for k in found):
            return
        pattern = quadrupole_pattern(PhaseSet(*cand[:2], thetaC4=cand[2]))
        qs = set(map(int, base.orders)) | set(map(int, pattern.orders))
        if max(abs(base.intensity(q) - pattern.intensity(q)) for q in qs) <= match_tol:
            found.append(cand)

    consider((theta0, thetaA2, thetaC4))
    step = 2.0 * math.pi / 8192
    grid = np.linspace(-math.pi, math.pi + 3 * step, 8196)
    for dc in (delta, math.pi - delta):

        def g(phi):
            return r4 * math.sin(dc + 2.0 * phi) - 0.5 * r2 * math.sin(phi)

        for a, b in zip(grid[:-1], grid[1:]):
            if g(a) * g(b) < 0.0:
                lo, hi = a, b
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if g(lo) * g(mid) <= 0.0 else (mid, hi)
                phi = 0.5 * (lo + hi)
                consider((r2 * math.cos(phi), r2 * math.sin(phi), r4 * math.cos(dc + 2.0 * phi)))
    return found


# equivalent_triples as found by the 8196-point sign-change scan with 80-step
# bisections, sorted; the closed form must reproduce these sets
SCAN_MEMBERS = {
    (0.8, 0.2, -0.05): [
        (-0.8010746164966396, 0.1956513705670419, 0.05413072416668313),
        (-0.8, 0.20000000000000015, 0.05000000000000004),
        (0.8, 0.2, -0.05),
        (0.8010746164966396, 0.19565137056704177, -0.054130724166683054),
    ],
    (1.1, -0.7, 0.9): [
        (-1.2510252069624996, 0.36733626494594146, 0.9480327088839771),
        (-1.0999999999999999, -0.7000000000000002, -0.8999999999999999),
        (-0.8015126297520215, 1.0283858732732567, 0.8173772837025743),
        (-0.014026296784158942, -1.3037650336615576, -0.7124248621787207),
        (0.014026296784159101, -1.3037650336615576, 0.7124248621787207),
        (0.8015126297520206, 1.0283858732732574, -0.8173772837025753),
        (1.1, -0.7, 0.9),
        (1.2510252069624999, 0.3673362649459412, -0.9480327088839768),
    ],
    (0.9, 0.0, 0.4): [
        (-0.9, -1.1021821192326179e-16, -0.4),
        (-0.9, 1.1021821192326179e-16, 0.4),
        (-0.5062500000000002, -0.744117556236916, 0.14687499999999976),
        (-0.5062500000000002, 0.744117556236916, 0.14687499999999984),
        (0.50625, -0.7441175562369161, -0.14687500000000006),
        (0.50625, 0.7441175562369161, -0.14687500000000006),
        (0.9, 0.0, 0.4),
        (0.9, 9.797174393177548e-17, -0.4),
    ],
    (-1.3, 2.1, 0.6): [
        (-2.469378779965067, 0.04656652293479453, 1.209114506461419),
        (-2.465636525089571, -0.1436541894419577, -1.2072037394176443),
        (-1.3, 2.1, 0.6),
        (-1.2216909728242142, -2.146502077082579, 0.557343886904704),
        (1.2216909728242136, -2.146502077082579, -0.5573438869047048),
        (1.2999999999999996, 2.1, -0.5999999999999992),
        (2.465636525089571, -0.14365418944195904, 1.207203739417644),
        (2.469378779965067, 0.04656652293479425, -1.209114506461419),
    ],
}


class TestObservedPattern:
    def test_rejects_odd_order(self):
        with pytest.raises(ValueError, match="odd"):
            ObservedPattern(rows=((1, 0.5, 1.0),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ObservedPattern(rows=((0, 0.5, 1.0), (0, 0.4, 1.0)))

    def test_rejects_negative_intensity_and_bad_weight(self):
        with pytest.raises(ValueError):
            ObservedPattern(rows=((0, -0.1, 1.0),))
        with pytest.raises(ValueError):
            ObservedPattern(rows=((0, 0.1, 0.0),))

    def test_rejects_overweight_total(self):
        # noisy data may sum above 1, so the rows are accepted; the excess
        # must not go unnoticed: the fit states the observed total
        obs = ObservedPattern(rows=((0, 0.7, 1.0), (2, 0.5, 1.0)))
        assert "sum to 1.2," in fit_dipole(obs, 0.5).covariance_note

    def test_quadrupole_fit_notes_overweight_total(self):
        pattern = quadrupole_pattern(PhaseSet(0.8, 0.2, thetaC4=-0.05))
        obs = ObservedPattern.from_arrays(pattern.orders, 1.05 * pattern.intensities)
        result = fit_quadrupole(obs, PhaseSet(0.7, 0.25, thetaC4=-0.02))
        assert f"sum to {sum(obs.intensities):.10g}," in result.covariance_note

    def test_total_within_one_is_not_noted(self):
        obs = observed_from_pattern(dipole_pattern(1.0))
        assert "sum to" not in fit_dipole(obs, 0.5).covariance_note
        start = PhaseSet(0.9, 0.05, thetaC4=0.02)
        assert "sum to" not in fit_quadrupole(obs, start).covariance_note

    def test_rejects_non_finite_intensity_and_weight(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="order 2: intensity must be finite"):
                ObservedPattern(rows=((0, 0.5, 1.0), (2, bad, 1.0)))
        with pytest.raises(ValueError, match="order -2: weight must be finite"):
            ObservedPattern(rows=((0, 0.5, 1.0), (-2, 0.2, math.inf)))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("order,intensity,weight\n0,0.5,1.0\n2,0.25,2.0\n-2,0.2,1.5\n")
        obs = ObservedPattern.from_csv(path)
        assert list(obs.orders) == [0, 2, -2]
        assert list(obs.weights) == [1.0, 2.0, 1.5]

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("0,0.5\n")
        with pytest.raises(ValueError, match="header"):
            ObservedPattern.from_csv(path)

    def test_csv_bad_row_is_located(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("order,intensity\n0,0.5\nx,0.1\n")
        with pytest.raises(ValueError, match=":3"):
            ObservedPattern.from_csv(path)


class TestFitDipole:
    def test_round_trip_unit_phase(self):
        obs = observed_from_pattern(dipole_pattern(1.0))
        result = fit_dipole(obs, theta0_init=0.5)
        assert result.converged
        assert result.theta0_hat == pytest.approx(1.0, abs=1e-8)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="2 distinct orders"):
            fit_dipole(ObservedPattern(rows=((0, 1.0, 1.0),)), 0.5)

    def test_zero_phase_synthetic(self):
        obs = ObservedPattern(rows=((0, 1.0, 1.0), (2, 0.0, 1.0)))
        result = fit_dipole(obs, theta0_init=0.0)
        assert result.theta0_hat == 0.0
        assert result.converged

    def test_stationary_start_is_degenerate_with_no_sigma(self):
        # every intensity is even in theta0, so at 0 the normal matrix is 0
        obs = observed_from_pattern(dipole_pattern(1.0))
        stuck = fit_dipole(obs, theta0_init=0.0)
        assert not stuck.converged and stuck.iterations == 1 and stuck.theta0_hat == 0.0
        assert stuck.degenerate and stuck.param_sigma == (None,)
        assert "no 1-sigma estimate" in stuck.covariance_note
        laser = LaserGrating(5e-10, 1.9e14, 1e-12, 1e-6)
        assert polarizability_estimates(stuck, laser, 1e-12).alpha_sigma is None
        moving = fit_dipole(obs, theta0_init=0.5)
        assert not moving.degenerate and math.isfinite(moving.param_sigma[0])

    def test_sigma_that_overflows_is_none(self):
        # subnormal weights: the inverse of the 1x1 normal matrix is inf
        obs = ObservedPattern(rows=((0, 0.5, 1e-310), (2, 0.25, 1e-310), (-2, 0.2, 1e-310)))
        assert fit_dipole(obs, 0.5).param_sigma == (None,)

    def test_sign_convention(self):
        # data generated at negative phase fits to the non-negative alias
        obs = observed_from_pattern(dipole_pattern(-0.9))
        result = fit_dipole(obs, theta0_init=0.5)
        assert result.theta0_hat == pytest.approx(0.9, abs=1e-8)

    def test_random_round_trips(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            theta = float(rng.uniform(0.05, 2.0))
            obs = observed_from_pattern(dipole_pattern(theta))
            result = fit_dipole(obs, theta0_init=0.5)
            assert result.theta0_hat == pytest.approx(theta, abs=1e-7)

    def test_residual_never_exceeds_initial(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            theta = float(rng.uniform(0.2, 2.0))
            obs = observed_from_pattern(dipole_pattern(theta))
            init = float(rng.uniform(0.05, 2.5))
            model0 = np.array(
                [diffraction.bessel_J(int(q) // 2, init) ** 2 for q in obs.orders]
            )
            s0 = float(np.sum((obs.intensities - model0) ** 2))
            result = fit_dipole(obs, theta0_init=init)
            assert result.residual <= s0 + 1e-18


class TestFitQuadrupole:
    def test_reference_round_trip(self):
        truth = (0.8, 0.2, -0.05)
        obs = observed_from_pattern(quadrupole_pattern(PhaseSet(*truth[:2], thetaC4=truth[2])))
        result = fit_quadrupole(obs, PhaseSet(0.7, 0.25, thetaC4=-0.02))
        assert result.converged
        assert result.theta0_hat == pytest.approx(truth[0], abs=1e-6)
        assert result.thetaA2_hat == pytest.approx(truth[1], abs=1e-6)
        assert result.thetaC4_hat == pytest.approx(truth[2], abs=1e-6)

    def test_nested_dipole_only_data(self):
        obs = observed_from_pattern(dipole_pattern(0.9))
        result = fit_quadrupole(obs, PhaseSet(0.8, 0.05, thetaC4=0.02))
        assert result.theta0_hat == pytest.approx(0.9, abs=1e-6)
        assert abs(result.thetaA2_hat) < 1e-6
        assert abs(result.thetaC4_hat) < 1e-6

    def test_preconditions(self):
        with pytest.raises(ValueError, match="4 distinct"):
            fit_quadrupole(
                ObservedPattern(rows=((0, 0.5, 1.0), (2, 0.2, 1.0), (4, 0.1, 1.0))),
                PhaseSet(0.5),
            )
        with pytest.raises(ValueError, match="pair"):
            fit_quadrupole(
                ObservedPattern(
                    rows=((0, 0.5, 1.0), (2, 0.2, 1.0), (4, 0.1, 1.0), (6, 0.05, 1.0))
                ),
                PhaseSet(0.5),
            )

    def test_symmetrised_data_raises_degeneracy_warning(self):
        truth = PhaseSet(0.8, 0.2, thetaC4=-0.05)
        pattern = quadrupole_pattern(truth)
        rows = []
        for q in sorted({abs(int(v)) for v in pattern.orders}):
            if q == 0:
                rows.append((0, pattern.intensity(0), 1.0))
            else:
                avg = 0.5 * (pattern.intensity(q) + pattern.intensity(-q))
                rows.append((q, avg, 1.0))
                rows.append((-q, avg, 1.0))
        start = PhaseSet(0.7, 0.25, thetaC4=-0.02)
        result = fit_quadrupole(ObservedPattern(rows=tuple(rows)), start)
        assert result.degenerate
        assert "degeneracy warning" in result.covariance_note

    def test_theta0_normalised_by_joint_flip(self):
        truth = PhaseSet(0.9, 0.3, thetaC4=-0.2)
        obs = observed_from_pattern(quadrupole_pattern(truth))
        # start near the exactly-equivalent negative-theta0 representation
        result = fit_quadrupole(obs, PhaseSet(-0.88, 0.32, thetaC4=0.19))
        assert result.theta0_hat >= 0.0
        assert result.theta0_hat == pytest.approx(0.9, abs=1e-6)
        assert result.thetaC4_hat == pytest.approx(-0.2, abs=1e-6)


def _central_differences(model, p, orders, h=1e-6):
    """Jacobian of ``model``'s intensities by central differences of step h."""
    columns = []
    for j in range(len(p)):
        bump = np.zeros(len(p))
        bump[j] = h
        columns.append((model(p + bump, orders)[0] - model(p - bump, orders)[0]) / (2.0 * h))
    return np.column_stack(columns)


class TestExactJacobian:
    """The models' derivatives are read off the amplitudes at q +- 2, q +- 4."""

    def test_quadrupole_model_matches_central_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            p = np.array([rng.uniform(0.2, 3.0), *rng.uniform(-1.0, 1.0, 2)])
            pattern = quadrupole_pattern(PhaseSet(*p[:2], thetaC4=p[2]))
            orders = pattern.orders[pattern.intensities > 1e-12]
            intensities, jac = fitting._quad_model(p, orders)
            assert np.array_equal(intensities, pattern.intensities_at(orders))
            numeric = _central_differences(fitting._quad_model, p, orders)
            assert np.max(np.abs(jac - numeric)) <= 1e-7 * np.max(np.abs(numeric))

    def test_dipole_model_matches_central_differences(self):
        rng = np.random.default_rng(14)
        orders = np.arange(-30, 32, 2)
        for theta in rng.uniform(0.1, 8.0, 40):
            intensities, jac = fitting._dipole_model(np.array([theta]), orders)
            assert jac.shape == (len(orders), 1)
            assert np.array_equal(intensities, dipole_pattern(theta).intensities_at(orders))
            numeric = _central_differences(fitting._dipole_model, np.array([theta]), orders)
            assert np.max(np.abs(jac - numeric)) <= 1e-7 * np.max(np.abs(numeric))


def _recorded_calls(monkeypatch, name):
    """Every (params, intensities) the fitting model ``name`` returns."""
    calls = []
    model = getattr(fitting, name)

    def recording(params, orders):
        out = model(params, orders)
        calls.append((np.array(params, dtype=float, ndmin=1), out[0]))
        return out

    monkeypatch.setattr(fitting, name, recording)
    return calls


def _trials(calls, observed):
    """Replay a fit's model calls as Gauss-Newton trials from the first.

    A call that does not raise the weighted residual is an accepted step;
    any other must be followed by the same step halved.  Returns the
    accepted and rejected counts.
    """
    sqrt_w = np.sqrt(observed.weights)

    def weighted(intensities):
        r = sqrt_w * (observed.intensities - intensities)
        return float(r @ r)

    point, best = calls[0][0], weighted(calls[0][1])
    accepted = rejected = 0
    last_step = None
    for params, intensities in calls[1:]:
        step = params - point
        if last_step is not None:
            np.testing.assert_allclose(step, 0.5 * last_step, rtol=1e-6, atol=1e-14)
        s = weighted(intensities)
        if s <= best:
            accepted += 1
            point, best, last_step = params, s, None
        else:
            rejected += 1
            last_step = step
    return accepted, rejected


class TestModelCalls:
    """A fit evaluates its model at the start and at each trial step, never
    for a Jacobian column."""

    @pytest.mark.parametrize("truth, init", [(1.0, 0.5), (2.3, 1.4), (0.4, 2.1)])
    def test_dipole_fit(self, monkeypatch, truth, init):
        calls = _recorded_calls(monkeypatch, "_dipole_model")
        obs = observed_from_pattern(dipole_pattern(truth))
        result = fit_dipole(obs, theta0_init=init)
        accepted, rejected = _trials(calls, obs)
        assert len(calls) == 1 + accepted + rejected
        assert result.iterations - accepted in (0, 1)

    @pytest.mark.parametrize("truth, init, halved", [
        ((0.8, 0.2, -0.05), (0.7, 0.25, -0.02), False),
        ((0.8, 0.2, -0.05), (2.5, 0.9, -0.9), True),
        ((0.9, 0.3, -0.2), (-0.88, 0.32, 0.19), False),
    ])
    def test_quadrupole_fit(self, monkeypatch, truth, init, halved):
        calls = _recorded_calls(monkeypatch, "_quad_model")
        obs = observed_from_pattern(quadrupole_pattern(PhaseSet(*truth[:2], thetaC4=truth[2])))
        result = fit_quadrupole(obs, PhaseSet(*init[:2], thetaC4=init[2]))
        accepted, rejected = _trials(calls, obs)
        assert len(calls) == 1 + accepted + rejected
        assert result.iterations - accepted in (0, 1)
        assert (rejected > 0) == halved


def test_fit_with_its_optimum_at_the_phase_range_edge_returns_the_edge(monkeypatch):
    # every evaluation brings its own derivatives, so no Jacobian column
    # steps past the range and only trial steps can leave it
    pattern = quadrupole_pattern(PhaseSet(2.0056, 0.3, thetaC4=-0.2))
    keep = pattern.intensities > 1e-5
    obs = ObservedPattern.from_arrays(pattern.orders[keep], pattern.intensities[keep])
    monkeypatch.setattr(diffraction, "_MAX_BESSEL_ARG", 2.0055)
    result = fit_quadrupole(obs, PhaseSet(1.95, 0.31, thetaC4=-0.19))
    assert result.converged
    assert result.theta0_hat <= 2.0055
    assert result.theta0_hat == pytest.approx(2.0055, abs=1e-6)


class TestEquivalentTriples:
    def test_contains_input_and_joint_flip(self):
        triples = equivalent_triples(0.8, 0.2, -0.05)
        assert any(
            max(abs(a - b) for a, b in zip(t, (0.8, 0.2, -0.05))) < 1e-9
            for t in triples
        )
        assert any(
            max(abs(a - b) for a, b in zip(t, (-0.8, 0.2, 0.05))) < 1e-9
            for t in triples
        )

    def test_every_candidate_reproduces_the_pattern(self):
        base = quadrupole_pattern(PhaseSet(1.1, -0.7, thetaC4=0.9))
        for cand in equivalent_triples(1.1, -0.7, 0.9):
            pattern = quadrupole_pattern(PhaseSet(*cand[:2], thetaC4=cand[2]))
            qs = set(map(int, base.orders)) | set(map(int, pattern.orders))
            dev = max(abs(base.intensity(q) - pattern.intensity(q)) for q in qs)
            assert dev < 1e-12

    def test_dipole_limit(self):
        triples = equivalent_triples(0.7, 0.0, 0.0)
        signs = sorted(round(t[0], 9) for t in triples)
        assert signs == [-0.7, 0.7]

    def test_zero_phases_have_one_member(self):
        # R2 = R4 = 0: the quartic is all zeros and only phi = pi is tried,
        # which rebuilds the input triple itself
        assert equivalent_triples(0.0, 0.0, 0.0) == [(0.0, 0.0, 0.0)]

    @pytest.mark.parametrize("triple", sorted(SCAN_MEMBERS))
    def test_members_match_the_grid_scan(self, triple):
        assert_same_members(equivalent_triples(*triple), SCAN_MEMBERS[triple], 1e-12)

    def test_members_equal_the_scan_to_the_bit(self):
        # each root bracketed by a grid cell is bisected in that cell, so a
        # member carries the same float as the scan's, not just a close one
        rng = np.random.default_rng(801)
        for _ in range(4):
            triple = tuple(float(v) for v in rng.uniform(-3.0, 3.0, 3))
            assert sorted(equivalent_triples(*triple)) == sorted(scan_equivalent_triples(*triple))

    def test_phi_pi_root_when_sin_delta_vanishes(self):
        # thetaA2 = 0 gives delta = 0: the quartic's leading coefficient
        # R4 sin(delta) is exactly 0, and the members at phi = pi (theta0
        # flipped to -0.9) come from the added root, not from np.roots
        triples = equivalent_triples(0.9, 0.0, 0.4)
        assert_same_members(triples, SCAN_MEMBERS[(0.9, 0.0, 0.4)], 1e-12)
        flipped = [t for t in triples if abs(t[0] + 0.9) < 1e-12]
        assert sorted(round(t[2], 12) for t in flipped) == [-0.4, 0.4]

    def test_near_tangent_roots_are_both_found(self):
        # g(phi) = R4 sin(delta + 2 phi) - (R2/2) sin(phi) has a double root
        # at phi = 1 for delta0; delta0 + 1e-9 splits it into two real roots
        # 3e-5 rad apart, inside one cell of a 2 pi / 8192 grid, where a
        # sign-change scan sees nothing
        r2, phi_double = 1.0, 1.0
        a, b = 0.5 * r2 * math.sin(phi_double), 0.25 * r2 * math.cos(phi_double)
        r4, delta = math.hypot(a, b), math.atan2(a, b) - 2.0 * phi_double + 1e-9

        def g(phi):
            return r4 * math.sin(delta + 2.0 * phi) - 0.5 * r2 * math.sin(phi)

        lo, hi = -0.8, -0.7           # a simple root, which gives the input
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if g(lo) * g(mid) <= 0.0 else (mid, hi)
        triple = (r2 * math.cos(lo), r2 * math.sin(lo), r4 * math.cos(delta + 2.0 * lo))
        triples = equivalent_triples(*triple)
        near = sorted(math.atan2(t[1], t[0]) for t in triples
                      if abs(math.atan2(t[1], t[0]) - phi_double) < 1e-3)
        assert len(near) == 2
        assert 1e-6 < near[1] - near[0] < 1e-4
        assert len(triples) == 8

    @pytest.mark.parametrize("triple", [(0.8, 0.2, -0.05), (1.1, -0.7, 0.9), (-1.3, 2.1, 0.6)])
    def test_every_member_gives_back_the_same_set(self, triple):
        members = equivalent_triples(*triple)
        for member in members:
            assert_same_members(equivalent_triples(*member), members, 1e-9)

    @pytest.mark.parametrize("triple", [(0.8, 0.2, -0.05), (1.1, -0.7, 0.9), (0.9, 0.0, 0.4),
                                        (-1.3, 2.1, 0.6), (2.7, -0.3, -2.2)])
    def test_members_keep_the_harmonic_amplitudes(self, triple):
        r2 = math.hypot(triple[0], triple[1])
        r4 = math.hypot(0.5 * triple[1], triple[2])
        for t0, a2, c4 in equivalent_triples(*triple):
            assert math.hypot(t0, a2) == pytest.approx(r2, abs=1e-12)
            assert math.hypot(0.5 * a2, c4) == pytest.approx(r4, abs=1e-12)


class TestWeights:
    def test_weights_steer_the_fit(self):
        # corrupt one order, then downweight it: the weighted fit must land
        # much closer to the generating phase than the unweighted one
        truth = 1.1
        pattern = dipole_pattern(truth)
        orders = [int(q) for q in pattern.orders if abs(q) <= 6]
        clean = {q: pattern.intensity(q) for q in orders}
        corrupted = dict(clean)
        corrupted[4] = min(clean[4] + 0.05, 0.9)

        flat = ObservedPattern.from_arrays(orders, [corrupted[q] for q in orders])
        downweighted = ObservedPattern.from_arrays(
            orders,
            [corrupted[q] for q in orders],
            [1e-6 if q == 4 else 1.0 for q in orders],
        )
        biased = fit_dipole(flat, 1.0)
        trusted = fit_dipole(downweighted, 1.0)
        assert abs(trusted.theta0_hat - truth) < 1e-4
        assert abs(trusted.theta0_hat - truth) < 0.1 * abs(biased.theta0_hat - truth)


class TestNoiseRobustness:
    def test_three_sigma_coverage(self):
        # 200 trials with iid intensity noise sigma = 1e-3 on orders +-2, +-4
        # (clipped at zero); the recovered theta0 must sit within the
        # 3-sigma bound propagated from the known noise level through the
        # unweighted normal equations in at least 95% of trials
        rng = np.random.default_rng(777)
        sigma = 1e-3
        orders = np.array([-4, -2, 2, 4])
        hits = 0
        trials = 200
        for _ in range(trials):
            theta = float(rng.uniform(0.3, 2.0))
            clean = np.array(
                [diffraction.bessel_J(int(q) // 2, theta) ** 2 for q in orders]
            )
            noisy = np.clip(clean + rng.normal(0.0, sigma, len(orders)), 0.0, None)
            obs = ObservedPattern.from_arrays(orders, noisy)
            result = fit_dipole(obs, theta0_init=1.0)
            # propagated bound from the model Jacobian at the true phase
            step = 1e-6
            bumped = np.array(
                [diffraction.bessel_J(int(q) // 2, theta + step) ** 2 for q in orders]
            )
            jac = (bumped - clean) / step
            sigma_theta = sigma / math.sqrt(float(jac @ jac))
            hits += abs(result.theta0_hat - theta) < 3.0 * sigma_theta
        assert hits / trials >= 0.95


class TestPolarizabilityRecovery:
    def test_full_chain_recovery(self):
        atom = AtomSpecies(
            name="t",
            mass=2.5e-26,
            alpha=1e-29,
            ionization_energy=10.0,
            sigma_table=((100.0, 5e-22),),
            A_dq=1.0,
            C_qq=1.0,
        )
        laser = LaserGrating(5e-10, 1.9111344317196095e14, 1e-12, 1e-6)
        tau = laser.pulse_duration
        u0 = lightshift_depth(atom, laser)
        ua, uc = quadrupole_scales(atom, laser)
        model = build_potential(u0, ua, uc, laser.k_L)
        phases = diffraction.phases_from_potential(model, tau)
        pattern = quadrupole_pattern(phases)
        obs = observed_from_pattern(pattern)
        init = PhaseSet(
            phases.theta0 * 1.02 + 0.01, phases.thetaA2 * 0.98, thetaC4=phases.thetaC4 * 1.02
        )
        result = fit_quadrupole(obs, init)
        # the physical solution has theta0 < 0; the fitter reports the
        # joint-flip representative, so map back before converting
        estimate = polarizability_estimates(result, laser, tau)
        assert estimate.alpha == pytest.approx(atom.alpha, rel=1e-6)
        assert abs(estimate.A_dq) == pytest.approx(atom.A_dq, rel=1e-4)
        assert abs(estimate.C_qq) == pytest.approx(atom.C_qq, rel=1e-4)

    def test_requires_positive_context(self):
        obs = observed_from_pattern(dipole_pattern(1.0))
        result = fit_dipole(obs, 0.5)
        with pytest.raises(ValueError):
            polarizability_estimates(
                result, LaserGrating(5e-10, 0.0, 1e-12, 1e-6), 1e-12
            )

    def test_non_finite_conversion_refused(self):
        # tau underflows the unit product to 0 while k_L = inf: 0 * inf is
        # NaN, which must not reach a written report
        obs = observed_from_pattern(dipole_pattern(1.0))
        result = fit_dipole(obs, 0.5)
        laser = LaserGrating(1e-308, 1.9e14, 1e-300, 1e-6)
        with pytest.raises(ValueError, match="not finite"):
            polarizability_estimates(result, laser, laser.pulse_duration)
