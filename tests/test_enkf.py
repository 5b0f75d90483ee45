import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumeplace import dispersion
from plumeplace.config import ExperimentConfig
from plumeplace.enkf import (
    AugmentedEnsemble,
    analysis,
    assimilate_conditions,
    assimilate_run,
    forecast,
    inflate,
)
from plumeplace.mi import knn_entropy


def scenario_ensemble(theta, sensors, cfg=None, bias=None, noise_var=None):
    """Ensemble at release onset; bias and noise_var, when given, set the
    config's noise_mean and noise_std = sqrt(noise_var)."""
    cfg = cfg or ExperimentConfig().with_profile("desk")
    if bias is not None:
        cfg = replace(cfg, noise_mean=bias, noise_std=math.sqrt(noise_var))
    n = theta.shape[0]
    members = np.hstack(
        [theta, np.full((n, len(sensors)), np.log(cfg.conc_floor))]
    )
    return AugmentedEnsemble(cfg, np.asarray(sensors, dtype=float), members)


class TestAugmentedEnsemble:
    @pytest.mark.parametrize("sensors", [np.empty((0, 2)), [], [(1.0, 2.0, 3.0)]])
    def test_rejects_sensors_without_rows(self, sensors):
        with pytest.raises(ValueError, match=r"sensors must be an \(S, 2\) array"):
            scenario_ensemble(np.zeros((3, 2)), sensors)


class TestForecast:
    def test_theta_unchanged(self):
        rng = np.random.default_rng(0)
        theta = np.column_stack([rng.uniform(-3000, 3000, 50), rng.normal(0, 0.17, 50)])
        ens = scenario_ensemble(theta, [(2000.0, 0.0)])
        out = forecast(ens, 60.0)
        np.testing.assert_array_equal(out.theta, theta)

    def test_far_plume_reads_floor(self):
        theta = np.array([[0.0, 0.0], [500.0, 0.1]])
        ens = scenario_ensemble(theta, [(-8000.0, -8000.0)])
        out = forecast(ens, 60.0)
        np.testing.assert_allclose(out.log_obs, np.log(1e-12))

    def test_single_member_matches_dispersion_path(self):
        cfg = ExperimentConfig().with_profile("desk")
        truth = np.array([-700.0, 0.05])
        sensors = np.array([[1200.0, -500.0], [2400.0, 0.0]])
        quiet = replace(cfg, noise_mean=0.0, noise_std=1e-30)
        reference = dispersion.simulate_observations(quiet, truth, sensors, 0)
        ens = scenario_ensemble(truth[None, :], sensors, cfg)
        for j, t in enumerate(cfg.times()):
            ens = forecast(ens, t)
            np.testing.assert_array_equal(ens.log_obs[0], reference[:, j])


class TestAnalysis:
    def test_identical_members_unchanged(self):
        members = np.tile([100.0, 0.05, -3.0, -5.0], (200, 1))
        ens = scenario_ensemble(
            members[:, :2], [(1000.0, 0.0), (2000.0, 0.0)], bias=-0.005, noise_var=0.01
        )
        ens.members = members.copy()
        out = analysis(ens, np.array([-2.0, -4.0]), seed=1)
        np.testing.assert_array_equal(out.members, members)

    def test_linear_gaussian_toy_matches_kalman(self):
        # one parameter observed directly through one linear channel
        n = 10_000
        prior_mean, prior_var = 2.0, 4.0
        noise_var = 0.25
        obs_value = 3.1
        rng = np.random.default_rng(123)
        theta = rng.normal(prior_mean, np.sqrt(prior_var), n)
        members = np.column_stack([theta, np.zeros(n), theta])
        ens = scenario_ensemble(members[:, :2], [(0.0, 0.0)], bias=0.0, noise_var=noise_var)
        ens.members = members.copy()
        out = analysis(ens, np.array([obs_value]), seed=5)

        gain = prior_var / (prior_var + noise_var)
        post_mean = prior_mean + gain * (obs_value - prior_mean)
        post_var = (1 - gain) * prior_var
        assert out.members[:, 0].mean() == pytest.approx(post_mean, rel=0.03)
        assert out.members[:, 0].var(ddof=1) == pytest.approx(post_var, rel=0.03)

    def test_matching_observation_leaves_member_still_on_average(self):
        # when obs equals a member's prediction plus the bias, that member's
        # expected update is zero across perturbation draws
        rng = np.random.default_rng(7)
        n = 400
        theta = np.column_stack([rng.normal(0, 1, n), rng.normal(0, 1, n)])
        lnu = theta[:, :1] * 0.8 + rng.normal(0, 0.3, (n, 1))
        members = np.hstack([theta, lnu])
        bias = -0.005
        obs = np.array([lnu[0, 0] + bias])
        updates = []
        for seed in range(300):
            ens = scenario_ensemble(theta, [(1000.0, 0.0)], bias=bias, noise_var=0.01)
            ens.members = members.copy()
            out = analysis(ens, obs, seed=seed)
            updates.append(out.members[0, 0] - members[0, 0])
        assert abs(np.mean(updates)) < 0.02

    def test_zero_cross_block_leaves_theta_untouched(self):
        # sign patterns make the theta/ln-u cross-covariance exactly zero
        a, b = 1.5, 2.5
        theta = np.array([[a, a], [a, a], [-a, -a], [-a, -a]])
        lnu = np.array([[b], [-b], [b], [-b]])
        members = np.hstack([theta, lnu])
        ens = scenario_ensemble(theta, [(1000.0, 0.0)], bias=0.0, noise_var=0.01)
        ens.members = members.copy()
        out = analysis(ens, np.array([0.7]), seed=3)
        np.testing.assert_array_equal(out.members[:, :2], theta)
        assert not np.array_equal(out.members[:, 2], members[:, 2])

    def test_collapsed_ensemble_with_rank_deficient_noise_rejected(self):
        members = np.tile([0.0, 0.0, -1.0, -2.0, -3.0], (2, 1))
        ens = scenario_ensemble(
            members[:, :2], [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)], bias=0.0, noise_var=0.01
        )
        ens.members = members.copy()
        with pytest.raises(np.linalg.LinAlgError, match="inflation"):
            analysis(ens, np.array([-1.0, -2.0, -3.0]), seed=0)

    def test_rejects_single_member(self):
        ens = scenario_ensemble(np.array([[0.0, 0.0]]), [(1000.0, 0.0)])
        with pytest.raises(ValueError, match="at least 2 ensemble members, got 1"):
            analysis(ens, np.array([-1.0]), seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(11)
        theta = np.column_stack([rng.normal(0, 1000, 100), rng.normal(0, 0.17, 100)])
        lnu = rng.normal(-10, 2, (100, 2))
        ens = scenario_ensemble(theta, [(1.0, 0.0), (2.0, 0.0)], bias=-0.005, noise_var=0.01)
        ens.members = np.hstack([theta, lnu])
        a = analysis(ens, np.array([-9.0, -11.0]), seed=9)
        b = analysis(ens, np.array([-9.0, -11.0]), seed=9)
        assert np.array_equal(a.members, b.members)


class TestInflate:
    def test_noop_at_one(self):
        rng = np.random.default_rng(1)
        theta = np.column_stack([rng.normal(0, 1, 30), rng.normal(0, 1, 30)])
        ens = scenario_ensemble(theta, [(1.0, 0.0)])
        assert ens.cfg.inflation == 1.0
        assert inflate(ens) is ens

    def test_scales_spread(self):
        rng = np.random.default_rng(2)
        theta = np.column_stack([rng.normal(0, 1, 500), rng.normal(0, 1, 500)])
        cfg = replace(ExperimentConfig().with_profile("desk"), inflation=1.5)
        ens = scenario_ensemble(theta, [(1.0, 0.0)], cfg)
        out = inflate(ens)
        assert out.members[:, 0].std() == pytest.approx(1.5 * theta[:, 0].std(), rel=1e-9)
        assert out.members[:, 0].mean() == pytest.approx(theta[:, 0].mean(), abs=1e-9)


class TestStackedConditions:
    """A (C, n, 2 + S) stack runs each condition as it would run alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        n_conditions=st.integers(1, 5),
        n=st.integers(8, 60),
        n_sensors=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_each_slice(self, n_conditions, n, n_sensors, seed):
        cfg = replace(ExperimentConfig().with_profile("desk"), inflation=1.5)
        rng = np.random.default_rng(seed)
        sensors = np.column_stack(
            [rng.uniform(200.0, 2500.0, n_sensors), rng.uniform(-1500.0, 1500.0, n_sensors)]
        )
        theta = np.stack([cfg.draw_prior(n, rng) for _ in range(n_conditions)])
        lnu = rng.normal(-8.0, 2.0, (n_conditions, n, n_sensors))
        stack = AugmentedEnsemble(cfg, sensors, np.concatenate([theta, lnu], axis=-1))

        def alone(c):
            return AugmentedEnsemble(cfg, sensors, stack.members[c])

        t = rng.choice(cfg.times())
        obs = rng.normal(-8.0, 2.0, (n_conditions, n_sensors))
        seeds = rng.integers(0, 2**32, n_conditions)
        stepped = (
            forecast(stack, t),
            inflate(stack),
            analysis(stack, obs, seeds),
        )
        for c in range(n_conditions):
            one = (
                forecast(alone(c), t),
                inflate(alone(c)),
                analysis(alone(c), obs[c], int(seeds[c])),
            )
            for batched, single in zip(stepped, one):
                np.testing.assert_array_equal(batched.members[c], single.members)

    def test_one_collapsed_condition_is_named(self):
        # near-noiseless sensors, and in condition 1 the second sensor reads
        # the floor for every member: its innovation covariance is singular
        rng = np.random.default_rng(3)
        members = np.concatenate(
            [rng.normal(0.0, 1.0, (3, 50, 2)), rng.normal(-8.0, 1.0, (3, 50, 2))], axis=-1
        )
        members[1, :, 3] = np.log(1e-12)
        ens = scenario_ensemble(members[0, :, :2], [(1.0, 0.0), (2.0, 0.0)],
                                bias=0.0, noise_var=1e-18)
        ens.members = members
        analysis(replace(ens, members=members[[0, 2]]), np.full((2, 2), -8.0), [1, 2])
        with pytest.raises(np.linalg.LinAlgError, match=r"condition 1 .*inflation"):
            analysis(ens, np.full((3, 2), -8.0), [1, 2, 3])

    def test_rejects_observations_without_the_condition_axis(self):
        members = np.random.default_rng(4).normal(size=(2, 20, 3))
        ens = scenario_ensemble(members[0, :, :2], [(1.0, 0.0)])
        ens.members = members
        with pytest.raises(ValueError, match=r"expected observations of shape \(2, 1\)"):
            analysis(ens, np.array([-1.0]), [1, 2])

    def test_conditions_run_as_they_would_alone(self, desk_config):
        truths = np.array([[-800.0, 0.05], [1200.0, -0.1], [0.0, 0.0]])
        placement = [(1500.0, 1000.0), (2500.0, -500.0)]
        prior, thetas = assimilate_conditions(desk_config, placement, truths, [6, 7, 8])
        assert thetas.shape == (len(desk_config.times()), 3, desk_config.enkf_members, 2)
        for c, seed in enumerate([6, 7, 8]):
            trace = assimilate_run(desk_config, placement, truths[c], seed)
            np.testing.assert_array_equal(prior[c], trace.prior_theta)
            np.testing.assert_array_equal(thetas[:, c], trace.thetas)


class TestAssimilateRun:
    def test_full_scale_truth_recovery(self):
        cfg = ExperimentConfig(enkf_members=1000)
        truth = np.array([-1291.7, -0.026])
        placement = [(4800.0, -2800.0), (2800.0, 2600.0), (3400.0, 4100.0)]
        trace = assimilate_run(cfg, placement, truth, seed=3)
        posterior = trace.thetas[-1][:, 0]
        assert posterior.min() <= truth[0] <= posterior.max()
        h_prior = knn_entropy(trace.prior_theta[:, 0])
        h_post = knn_entropy(posterior)
        assert h_post < h_prior - 0.5

    def test_zero_information_placement_keeps_prior(self, desk_config):
        truth = np.array([500.0, 0.02])
        placement = [(-5000.0, -5000.0), (-6000.0, 0.0), (-5000.0, 5000.0)]
        trace = assimilate_run(desk_config, placement, truth, seed=4)
        h_prior = knn_entropy(trace.prior_theta[:, 0])
        h_post = knn_entropy(trace.thetas[-1][:, 0])
        assert abs(h_post - h_prior) < 0.1

    def test_deterministic(self, desk_config):
        truth = np.array([-800.0, 0.05])
        placement = [(2000.0, 2000.0), (2000.0, -2000.0)]
        a = assimilate_run(desk_config, placement, truth, seed=6)
        b = assimilate_run(desk_config, placement, truth, seed=6)
        for ta, tb in zip(a.thetas, b.thetas):
            assert np.array_equal(ta, tb)

    @pytest.mark.parametrize(
        "placement", [[], np.empty((0, 2)), [(1.0, 2.0, 3.0)], np.zeros((2, 2, 2))]
    )
    def test_rejects_placement_without_sensor_rows(self, desk_config, placement):
        truth = np.array([0.0, 0.0])
        with pytest.raises(ValueError, match=r"placement must be an \(S, 2\) array"):
            assimilate_run(desk_config, placement, truth, seed=1)

    def test_trace_shapes(self, desk_config):
        truth = np.array([0.0, 0.0])
        trace = assimilate_run(desk_config, [(2000.0, 0.0)], truth, seed=1)
        assert len(trace.thetas) == len(desk_config.times())
        assert trace.thetas[0].shape == (desk_config.enkf_members, 2)
