import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumeplace.bo import (
    BoConfig,
    BoTrace,
    ObjectiveError,
    expected_improvement,
    maximize,
    propose_next,
)
from plumeplace.gp import GpSurrogate, fit


class TestExpectedImprovement:
    def test_zero_sigma_gives_zero(self):
        assert expected_improvement(5.0, 0.0, 0.0) == 0.0

    def test_at_incumbent(self):
        # mu == f_best, sigma 1: EI reduces to the standard normal pdf at 0
        assert expected_improvement(1.0, 1.0, 1.0) == pytest.approx(
            0.3989422804014327, abs=1e-12
        )

    def test_one_sigma_above(self):
        assert expected_improvement(1.0, 1.0, 0.0) == pytest.approx(
            1.0833154705876864, abs=1e-12
        )

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            expected_improvement(0.0, -1.0, 0.0)

    @given(
        st.floats(-50, 50),
        st.floats(0, 20),
        st.floats(-50, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_negative(self, mu, sigma, f_best):
        assert expected_improvement(mu, sigma, f_best) >= 0.0

    def test_strictly_increasing_in_mu(self):
        mus = np.linspace(-3, 3, 41)
        vals = expected_improvement(mus, np.full_like(mus, 0.7), 0.5)
        assert np.all(np.diff(vals) > 0)

    def test_strictly_increasing_in_sigma(self):
        sigmas = np.linspace(0.05, 4.0, 41)
        vals = expected_improvement(np.zeros_like(sigmas), sigmas, 0.5)
        assert np.all(np.diff(vals) > 0)


def quadratic_surrogate():
    x = np.array([[0.0], [1.0], [3.0], [4.0]])
    f = -((x[:, 0] - 2.0) ** 2)
    return fit(x, f)


class TestProposeNext:
    def test_targets_unexplored_peak_region(self):
        g = quadratic_surrogate()
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=0, seed=0)
        x = propose_next(g, cfg, f_best=-1.0)
        assert 1.0 <= x[0] <= 3.0
        # dense-grid oracle: the proposal's EI is essentially the global max
        from plumeplace.bo import _ei_at

        grid = np.linspace(0.0, 4.0, 10_000)[:, None]
        best_grid = np.max(_ei_at(g, grid, -1.0))
        assert _ei_at(g, x[None, :], -1.0)[0] >= 0.999 * best_grid

    def test_flat_zero_ei_returns_first_candidate(self):
        g = quadratic_surrogate()
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=0, seed=3)
        # an unreachable incumbent drives every EI to exactly zero
        x = propose_next(g, cfg, f_best=1e9)
        from scipy.stats import qmc

        first = qmc.scale(qmc.Halton(1, seed=3).random(cfg.acq_candidates), 0.0, 4.0)[0]
        assert x[0] == first[0]

    def test_deterministic_per_seed(self):
        g = quadratic_surrogate()
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=0, seed=11)
        assert np.array_equal(propose_next(g, cfg, -1.0), propose_next(g, cfg, -1.0))


class TestMaximize:
    def test_zero_iterations_returns_initial_design(self):
        cfg = BoConfig(domain=[[0.0, 1.0], [0.0, 1.0]], init_count=5, iter_count=0, seed=1)
        trace = maximize(lambda p: -np.sum(p**2), cfg)
        assert len(trace.values) == 5
        assert trace.incumbent_value == trace.values.max()

    def test_deterministic(self):
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=4, seed=9, acq_candidates=256)
        a = maximize(lambda p: np.sin(3 * p[0]) + p[0], cfg)
        b = maximize(lambda p: np.sin(3 * p[0]) + p[0], cfg)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.values, b.values)

    def test_points_stay_inside_box(self):
        box = np.array([[-2.0, 1.0], [3.0, 5.0]])
        cfg = BoConfig(domain=box, init_count=5, iter_count=6, seed=2, acq_candidates=128)
        trace = maximize(lambda p: -np.sum((p - np.array([0.0, 4.0])) ** 2), cfg)
        assert np.all(trace.points >= box[:, 0] - 1e-12)
        assert np.all(trace.points <= box[:, 1] + 1e-12)

    def test_running_incumbent_non_decreasing(self):
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=6, seed=5, acq_candidates=128)
        trace = maximize(lambda p: np.cos(p[0]), cfg)
        running = np.maximum.accumulate(trace.values)
        assert np.all(np.diff(running) >= 0)

    def test_finds_2d_quadratic_optimum(self):
        center = np.array([2.5, 7.0])
        cfg = BoConfig(domain=[[0.0, 10.0], [0.0, 10.0]], init_count=6, iter_count=15, seed=0)
        trace = maximize(lambda p: -np.sum((p - center) ** 2), cfg)
        assert np.linalg.norm(trace.incumbent_point - center) <= 0.05 * np.sqrt(200.0)

    def test_objective_failure_carries_point(self):
        def bad(p):
            raise RuntimeError("boom")

        cfg = BoConfig(domain=[[0.0, 1.0]], init_count=2, iter_count=0, seed=0)
        with pytest.raises(ObjectiveError) as err:
            maximize(bad, cfg)
        assert err.value.point.shape == (1,)
        assert 0.0 <= err.value.point[0] <= 1.0

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_carries_point(self, bad_value):
        cfg = BoConfig(domain=[[0.0, 1.0]], init_count=6, iter_count=2, seed=0)
        with pytest.raises(ObjectiveError, match="non-finite") as err:
            maximize(lambda p: bad_value if p[0] > 0.5 else p[0], cfg)
        assert 0.5 < err.value.point[0] <= 1.0


class TestConfigAndTrace:
    def test_rejects_degenerate_box(self):
        with pytest.raises(ValueError):
            BoConfig(domain=[[1.0, 1.0]])

    def test_rejects_small_init(self):
        with pytest.raises(ValueError):
            BoConfig(domain=[[0.0, 1.0]], init_count=1)

    def test_trace_incumbent_is_argmax(self):
        trace = BoTrace(points=[[0.0], [1.0], [2.0]], values=[0.5, 2.0, 1.0])
        assert trace.incumbent_index == 1
        assert trace.incumbent_value == 2.0
