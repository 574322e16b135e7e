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
from xkd import diffraction


def observed_from_pattern(pattern, weights=None):
    return ObservedPattern.from_arrays(pattern.orders, pattern.intensities, weights)


def tied(theta0, theta_a2=0.0, theta_c4=0.0):
    return PhaseSet(theta0, theta_a2, 0.5 * theta_a2, theta_c4)


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
        pattern = quadrupole_pattern(tied(0.8, 0.2, -0.05))
        obs = ObservedPattern.from_arrays(pattern.orders, 1.05 * pattern.intensities)
        result = fit_quadrupole(obs, tied(0.7, 0.25, -0.02))
        assert f"sum to {sum(obs.intensities):.10g}," in result.covariance_note

    def test_total_within_one_is_not_noted(self):
        obs = observed_from_pattern(dipole_pattern(1.0))
        assert "sum to" not in fit_dipole(obs, 0.5).covariance_note
        assert "sum to" not in fit_quadrupole(obs, tied(0.9, 0.05, 0.02)).covariance_note

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
        obs = observed_from_pattern(quadrupole_pattern(tied(*truth)))
        result = fit_quadrupole(obs, tied(0.7, 0.25, -0.02))
        assert result.converged
        assert result.theta0_hat == pytest.approx(truth[0], abs=1e-6)
        assert result.thetaA2_hat == pytest.approx(truth[1], abs=1e-6)
        assert result.thetaC4_hat == pytest.approx(truth[2], abs=1e-6)

    def test_nested_dipole_only_data(self):
        obs = observed_from_pattern(dipole_pattern(0.9))
        result = fit_quadrupole(obs, tied(0.8, 0.05, 0.02))
        assert result.theta0_hat == pytest.approx(0.9, abs=1e-6)
        assert abs(result.thetaA2_hat) < 1e-6
        assert abs(result.thetaC4_hat) < 1e-6

    def test_preconditions(self):
        with pytest.raises(ValueError, match="4 distinct"):
            fit_quadrupole(
                ObservedPattern(rows=((0, 0.5, 1.0), (2, 0.2, 1.0), (4, 0.1, 1.0))),
                tied(0.5),
            )
        with pytest.raises(ValueError, match="pair"):
            fit_quadrupole(
                ObservedPattern(
                    rows=((0, 0.5, 1.0), (2, 0.2, 1.0), (4, 0.1, 1.0), (6, 0.05, 1.0))
                ),
                tied(0.5),
            )

    def test_symmetrised_data_raises_degeneracy_warning(self):
        truth = tied(0.8, 0.2, -0.05)
        pattern = quadrupole_pattern(truth)
        rows = []
        for q in sorted({abs(int(v)) for v in pattern.orders}):
            if q == 0:
                rows.append((0, pattern.intensity(0), 1.0))
            else:
                avg = 0.5 * (pattern.intensity(q) + pattern.intensity(-q))
                rows.append((q, avg, 1.0))
                rows.append((-q, avg, 1.0))
        result = fit_quadrupole(ObservedPattern(rows=tuple(rows)), tied(0.7, 0.25, -0.02))
        assert result.degenerate
        assert "degeneracy warning" in result.covariance_note

    def test_theta0_normalised_by_joint_flip(self):
        truth = tied(0.9, 0.3, -0.2)
        obs = observed_from_pattern(quadrupole_pattern(truth))
        # start near the exactly-equivalent negative-theta0 representation
        result = fit_quadrupole(obs, tied(-0.88, 0.32, 0.19))
        assert result.theta0_hat >= 0.0
        assert result.theta0_hat == pytest.approx(0.9, abs=1e-6)
        assert result.thetaC4_hat == pytest.approx(-0.2, abs=1e-6)


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
        base = quadrupole_pattern(tied(1.1, -0.7, 0.9))
        for cand in equivalent_triples(1.1, -0.7, 0.9):
            pattern = quadrupole_pattern(tied(*cand))
            qs = set(map(int, base.orders)) | set(map(int, pattern.orders))
            dev = max(abs(base.intensity(q) - pattern.intensity(q)) for q in qs)
            assert dev < 1e-12

    def test_dipole_limit(self):
        triples = equivalent_triples(0.7, 0.0, 0.0)
        signs = sorted(round(t[0], 9) for t in triples)
        assert signs == [-0.7, 0.7]


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
        init = tied(phases.theta0 * 1.02 + 0.01, phases.thetaA2 * 0.98, phases.thetaC4 * 1.02)
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
