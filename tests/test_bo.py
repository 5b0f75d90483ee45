import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import plumeplace
from plumeplace import gp
from plumeplace.bo import (
    BoConfig,
    ObjectiveError,
    _ei_at,
    expected_improvement,
    maximize,
    propose_next,
)
from plumeplace.gp import GpSurrogate, fit

from oracles import sequential_polish


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
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=0)
        x = propose_next(g, cfg, f_best=-1.0, seed=0)
        assert 1.0 <= x[0] <= 3.0
        # dense-grid oracle: the proposal's EI is essentially the global max
        grid = np.linspace(0.0, 4.0, 10_000)[:, None]
        best_grid = np.max(_ei_at(g, grid, -1.0))
        assert _ei_at(g, x[None, :], -1.0)[0] >= 0.999 * best_grid

    def test_flat_zero_ei_returns_first_candidate(self):
        g = quadratic_surrogate()
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=0)
        # an unreachable incumbent drives every EI to exactly zero
        x = propose_next(g, cfg, f_best=1e9, seed=3)
        first = qmc.scale(qmc.Halton(1, seed=3).random(cfg.acq_candidates), 0.0, 4.0)[0]
        assert x[0] == first[0]

    def test_deterministic_per_seed(self):
        g = quadratic_surrogate()
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=0)
        assert np.array_equal(propose_next(g, cfg, -1.0, 11), propose_next(g, cfg, -1.0, 11))


def random_surrogate(seed, box):
    """A fixed-hyperparameter surrogate on 12 random points in box."""
    rng = np.random.default_rng(seed)
    x = box[:, 0] + rng.uniform(0.0, 1.0, (12, len(box))) * (box[:, 1] - box[:, 0])
    f = np.sin(x @ rng.normal(0.0, 0.5, len(box))) + rng.normal(0.0, 0.1, 12)
    ls = rng.uniform(0.05, 0.5, len(box)) * (box[:, 1] - box[:, 0]) ** 2
    return GpSurrogate(
        train_x=x, train_f=f, lengthscales=ls, signal_var=1.0, noise_var=1e-4, mean_offset=f.mean()
    )


class TestPolish:
    BOX = np.array([[0.0, 10.0], [-5.0, 5.0]])

    def test_matches_sequential_reference(self):
        cfg = BoConfig(domain=self.BOX, acq_candidates=64)
        moved = 0
        for seed in range(24):
            g = random_surrogate(seed, self.BOX)
            f_best = g.train_f.max()
            cand = qmc.scale(qmc.Halton(2, seed=seed).random(64), self.BOX[:, 0], self.BOX[:, 1])
            scores = _ei_at(g, cand, f_best)
            start = int(np.argmax(scores))
            expected = sequential_polish(
                lambda y: _ei_at(g, y[None, :], f_best)[0], cand[start], scores[start], self.BOX
            )
            np.testing.assert_array_equal(propose_next(g, cfg, f_best, seed), expected)
            moved += not np.array_equal(expected, cand[start])
        assert moved >= 12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("incumbent", ["max", "unreachable"])
    def test_one_predict_per_coordinate_and_sweep(self, monkeypatch, dim, incumbent):
        box = np.array([[0.0, 10.0], [-5.0, 5.0], [1.0, 2.0]])[:dim]
        g = random_surrogate(dim, box)
        f_best = g.train_f.max() if incumbent == "max" else 1e9
        calls = []
        predict = gp.predict

        def counting(*args):
            calls.append(1)
            return predict(*args)

        monkeypatch.setattr(gp, "predict", counting)
        propose_next(g, BoConfig(domain=box, acq_candidates=64), f_best, 5)
        assert len(calls) <= 1 + 10 * dim


class TestMaximize:
    def test_zero_iterations_returns_initial_design(self):
        cfg = BoConfig(domain=[[0.0, 1.0], [0.0, 1.0]], init_count=5, iter_count=0)
        trace = maximize(lambda p: -np.sum(p**2), cfg, 1)
        assert len(trace.values) == 5

    def test_deterministic(self):
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=4, acq_candidates=256)
        a = maximize(lambda p: np.sin(3 * p[0]) + p[0], cfg, 9)
        b = maximize(lambda p: np.sin(3 * p[0]) + p[0], cfg, 9)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.values, b.values)

    def test_points_stay_inside_box(self):
        box = np.array([[-2.0, 1.0], [3.0, 5.0]])
        cfg = BoConfig(domain=box, init_count=5, iter_count=6, acq_candidates=128)
        trace = maximize(lambda p: -np.sum((p - np.array([0.0, 4.0])) ** 2), cfg, 2)
        assert np.all(trace.points >= box[:, 0] - 1e-12)
        assert np.all(trace.points <= box[:, 1] + 1e-12)

    def test_running_incumbent_non_decreasing(self):
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=6, acq_candidates=128)
        trace = maximize(lambda p: np.cos(p[0]), cfg, 5)
        running = np.maximum.accumulate(trace.values)
        assert np.all(np.diff(running) >= 0)

    def test_finds_2d_quadratic_optimum(self):
        center = np.array([2.5, 7.0])
        cfg = BoConfig(domain=[[0.0, 10.0], [0.0, 10.0]], init_count=6, iter_count=15)
        trace = maximize(lambda p: -np.sum((p - center) ** 2), cfg, 0)
        assert np.linalg.norm(trace.points[trace.values.argmax()] - center) <= 0.05 * np.sqrt(200.0)

    def test_objective_failure_carries_point(self):
        def bad(p):
            raise RuntimeError("boom")

        cfg = BoConfig(domain=[[0.0, 1.0]], init_count=2, iter_count=0)
        with pytest.raises(ObjectiveError) as err:
            maximize(bad, cfg, 0)
        assert err.value.point.shape == (1,)
        assert 0.0 <= err.value.point[0] <= 1.0

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_carries_point(self, bad_value):
        cfg = BoConfig(domain=[[0.0, 1.0]], init_count=6, iter_count=2)
        with pytest.raises(ObjectiveError, match="non-finite") as err:
            maximize(lambda p: bad_value if p[0] > 0.5 else p[0], cfg, 0)
        assert 0.5 < err.value.point[0] <= 1.0


class TestConfigAndTrace:
    def test_rejects_degenerate_box(self):
        with pytest.raises(ValueError):
            BoConfig(domain=[[1.0, 1.0]])

    def test_rejects_small_init(self):
        with pytest.raises(ValueError):
            BoConfig(domain=[[0.0, 1.0]], init_count=1)


def test_import_leaves_scipy_stats_unloaded():
    # qmc is imported where BO uses it: scipy.stats is most of the start-up
    src = str(Path(plumeplace.__file__).resolve().parent.parent)
    code = "import sys, plumeplace; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == "[]"
