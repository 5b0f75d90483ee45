import ast
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
from plumeplace import bo, gp
from plumeplace.bo import (
    BoConfig,
    ObjectiveError,
    _halton,
    _latin_hypercube,
    maximize,
    propose_next,
)
from plumeplace.config import MAX_BO_DIM, MAX_COUNT
from plumeplace.gp import GpSurrogate, fit

from oracles import (
    expected_improvement,
    full_scoring_proposal,
    masked_expected_improvement,
    predicted_ei,
    sequential_polish,
)
from source_scan import library_modules


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

    @pytest.mark.parametrize("name, args", [
        ("mu", ([0.5, np.nan], 1.0, 0.0)),
        ("mu", (np.inf, 1.0, 0.0)),
        ("sigma", (0.5, [1.0, np.nan], 0.0)),
        ("sigma", (0.5, np.inf, 0.0)),
        ("f_best", (0.5, 1.0, np.inf)),
        ("f_best", (0.5, 1.0, np.nan)),
    ])
    def test_rejects_non_finite_input_by_name(self, name, args):
        # these gave NaN, or 0 for a NaN sigma
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            expected_improvement(*args)

    @given(
        st.floats(-50, 50),
        st.floats(0, 20),
        st.floats(-50, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_negative(self, mu, sigma, f_best):
        assert expected_improvement(mu, sigma, f_best) >= 0.0

    def test_equals_masked_closed_form_bit_for_bit(self):
        # the whole-array form against gathers of the sigma > 0 elements:
        # sigma == 0 above, at (0/0) and below the incumbent, and z large
        # enough that z * z overflows; the suite turns any warning into an
        # error
        rng = np.random.default_rng(3)
        mu = np.concatenate([rng.normal(0.0, 2.0, 500), [0.5, 0.5, 0.4, 0.6, 1e200, -1e200, 0.5]])
        sigma = np.concatenate(
            [rng.uniform(0.0, 3.0, 500), [0.0, 0.0, 0.0, 0.0, 1e-200, 1e-200, 1e-300]]
        )
        sigma[::7] = 0.0
        for f_best in (0.5, -1.0, 2.0):
            out = expected_improvement(mu, sigma, f_best)
            np.testing.assert_array_equal(out, masked_expected_improvement(mu, sigma, f_best))
            assert np.all(np.isfinite(out))
            assert np.all(out[sigma == 0] == 0.0)
        # broadcast and scalar arguments
        np.testing.assert_array_equal(
            expected_improvement(mu[:5], 0.7, 0.5), masked_expected_improvement(mu[:5], 0.7, 0.5)
        )
        assert expected_improvement(0.5, 0.0, 0.5) == 0.0
        assert expected_improvement(1e200, 1e-200, 0.0) == 1e200

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
        best_grid = np.max(predicted_ei(g, grid, -1.0))
        assert predicted_ei(g, x[None, :], -1.0)[0] >= 0.999 * best_grid

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

    @pytest.mark.parametrize("f_best", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_incumbent(self, f_best):
        # a NaN score won the argmax, so this returned the first candidate
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=4, iter_count=0)
        with pytest.raises(ValueError, match="^f_best must be finite"):
            propose_next(quadratic_surrogate(), cfg, f_best, 0)


def random_surrogate(seed, box, noise_var=1e-4):
    """A fixed-hyperparameter surrogate on 12 random points in box."""
    rng = np.random.default_rng(seed)
    x = box[:, 0] + rng.uniform(0.0, 1.0, (12, len(box))) * (box[:, 1] - box[:, 0])
    f = np.sin(x @ rng.normal(0.0, 0.5, len(box))) + rng.normal(0.0, 0.1, 12)
    ls = rng.uniform(0.05, 0.5, len(box)) * (box[:, 1] - box[:, 0]) ** 2
    return GpSurrogate(
        train_x=x, train_f=f, lengthscales=ls, signal_var=1.0, noise_var=noise_var,
        mean_offset=f.mean(),
    )


BOX3 = np.array([[0.0, 10.0], [-5.0, 5.0], [1.0, 2.0]])


class TestPolish:
    BOX = np.array([[0.0, 10.0], [-5.0, 5.0]])

    def test_matches_sequential_reference(self):
        cfg = BoConfig(domain=self.BOX, acq_candidates=64)
        moved = 0
        for seed in range(24):
            g = random_surrogate(seed, self.BOX)
            f_best = g.train_f.max()
            cand = qmc.scale(qmc.Halton(2, seed=seed).random(64), self.BOX[:, 0], self.BOX[:, 1])
            scores = predicted_ei(g, cand, f_best)
            start = int(np.argmax(scores))
            expected = sequential_polish(
                lambda pair: predicted_ei(g, pair, f_best), cand[start], scores[start], self.BOX
            )
            np.testing.assert_array_equal(propose_next(g, cfg, f_best, seed), expected)
            moved += not np.array_equal(expected, cand[start])
        assert moved >= 12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("incumbent", ["max", "unreachable"])
    def test_one_predict_per_sweep(self, monkeypatch, dim, incumbent):
        # counted at the variance, the exact scoring that both the
        # candidate passes and the polish steps go through
        box = BOX3[:dim]
        g = random_surrogate(dim, box)
        f_best = g.train_f.max() if incumbent == "max" else 1e9
        calls = []
        variance = gp._variance

        def counting(*args):
            calls.append(1)
            return variance(*args)

        monkeypatch.setattr(gp, "_variance", counting)
        propose_next(g, BoConfig(domain=box, acq_candidates=64), f_best, 5)
        assert 10 < len(calls) <= 12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_pairs_mean_is_its_own_two_row_product(self, monkeypatch, dim):
        # a mean's rounding depends on the row count, so a sweep's means
        # come in stacked pairs, each the floats of a 2-row product
        box = BOX3[:dim]
        g = random_surrogate(dim, box)
        stacks = []
        mean = gp._mean

        def recording(surrogate, ks):
            out = mean(surrogate, ks)
            if ks.ndim == 3:
                stacks.append((ks, out))
            return out

        monkeypatch.setattr(gp, "_mean", recording)
        propose_next(g, BoConfig(domain=box, acq_candidates=64), g.train_f.max(), 5)
        assert len(stacks) == 10
        for ks, out in stacks:
            assert ks.shape == (3**dim // 2, 2, len(g.train_f))
            for pair, got in zip(ks, out):
                assert np.array_equal(got, mean(g, np.array(pair)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("incumbent", ["max", "far", "unreachable"])
    def test_screen_matches_full_scoring(self, monkeypatch, dim, incumbent):
        # 2048 candidates, so that the screen leaves most of them out; "far"
        # puts the incumbent 6 prior sigmas above the best value, where every
        # EI is tiny but positive, and "unreachable" makes every EI exactly 0
        box = BOX3[:dim]
        cfg = BoConfig(domain=box, acq_candidates=2048)
        rows = []
        variance = gp._variance

        def counting(g, ks):
            rows.append(len(ks))
            return variance(g, ks)

        monkeypatch.setattr(gp, "_variance", counting)
        pruned = 0
        for seed in range(8):
            g = random_surrogate(seed, box, noise_var=(1e-4, 1e-8)[seed % 2])
            f_best = {"max": g.train_f.max(), "far": g.train_f.max() + 6.0, "unreachable": 1e9}[
                incumbent]
            rows.clear()
            got = propose_next(g, cfg, f_best, seed)
            # the candidate passes come before the polish's 10 sweeps
            pruned += sum(rows[:-10]) < cfg.acq_candidates
            np.testing.assert_array_equal(got, full_scoring_proposal(g, box, 2048, f_best, seed))
        if incumbent == "max":  # beyond reach, the prior-sigma bound reaches every candidate
            assert pruned > 4


class TestScreen:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(2, 30),
        st.floats(-8.0, 0.0),
        st.floats(-3.0, 12.0),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_covers_every_exact_ei(self, seed, dim, n, log_ratio, lift, twins):
        # near-duplicate training points at the noise floor make the
        # variance's rounding largest; points 2 to 6 lengthscales from the
        # data have a variance just below the prior, where an incumbent
        # several sigmas up leaves EI to cancellation, and a bound without
        # its margin falls below the exact EI at about 1 example in 15
        rng = np.random.default_rng(seed)
        box = BOX3[:dim]
        span = box[:, 1] - box[:, 0]
        x = box[:, 0] + rng.uniform(0.0, 1.0, (n, dim)) * span
        if twins:
            x[n // 2:] = x[: n - n // 2] + rng.normal(0.0, 1e-7, (n - n // 2, dim))
        f = np.sin(x @ rng.normal(0.0, 0.5, dim))
        sv = 10.0 ** rng.uniform(-3.0, 3.0)
        ls = rng.uniform(0.05, 0.5, dim) * span**2
        g = GpSurrogate(x, f, ls, sv, 10.0**log_ratio * sv, mean_offset=f.mean())
        heading = rng.normal(0.0, 1.0, (600, dim))
        heading /= np.linalg.norm(heading, axis=1, keepdims=True)
        pts = np.vstack([
            box[:, 0] + rng.uniform(-0.5, 1.5, (300, dim)) * span,
            x[rng.integers(0, n, 600)] + heading * np.sqrt(ls) * rng.uniform(2.0, 6.0, (600, 1)),
            x + rng.normal(0.0, 1e-6, x.shape),
            x,
        ])
        mean, var = gp.predict(g, pts)
        assert np.all(var <= gp._variance_ceiling(g))
        f_best = f.max() + lift * np.sqrt(sv)
        exact = expected_improvement(mean, np.sqrt(var), f_best)
        assert np.all(bo._ei_bound(g, mean, f_best) >= exact)


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

    @pytest.mark.parametrize("iters, refits", [(30, 6), (3, 1), (0, 0)])
    def test_refits_on_schedule(self, monkeypatch, iters, refits):
        calls = []  # (name, seed or None, log parameters passed in, surrogate)
        fit_, build_ = gp.fit, gp.build

        def recording_fit(x, f, seed, warm_start):
            calls.append(("fit", seed, warm_start, fit_(x, f, seed=seed, warm_start=warm_start)))
            return calls[-1][3]

        def recording_build(x, f, log_params):
            calls.append(("build", None, log_params, build_(x, f, log_params)))
            return calls[-1][3]

        monkeypatch.setattr(gp, "fit", recording_fit)
        monkeypatch.setattr(gp, "build", recording_build)
        cfg = BoConfig(domain=[[0.0, 4.0]], init_count=5, iter_count=iters, acq_candidates=64)
        maximize(lambda p: np.sin(3 * p[0]) + p[0], cfg, 3)
        assert bo.REFIT_EVERY == 5
        assert [name for name, *_ in calls] == [
            "fit" if it % 5 == 0 else "build" for it in range(iters)
        ]
        assert sum(name == "fit" for name, *_ in calls) == refits
        assert len({seed for name, seed, *_ in calls if name == "fit"}) == refits
        # a refit warm-starts from, and a build keeps, the last refit's optimum
        last = None
        for name, _, log_params, surrogate in calls:
            if last is None:
                assert log_params is None
            else:
                np.testing.assert_array_equal(log_params, last)
            if name == "fit":
                last = surrogate.log_params

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bounds(self, bad):
        with pytest.raises(ValueError, match="domain must be finite"):
            BoConfig(domain=[[0.0, 1.0], [0.0, bad]])

    @pytest.mark.parametrize("rows", [MAX_BO_DIM + 1, 10])
    def test_rejects_a_box_beyond_max_bo_dim(self, rows):
        # a polish sweep scores 3**dim - 1 points: 80 at dim 4 and 59,048
        # at dim 10
        with pytest.raises(ValueError, match=rf"^domain must have at most 3 rows, got {rows}: "):
            BoConfig(domain=[[0.0, 1.0]] * rows)
        assert len(BoConfig(domain=[[0.0, 1.0]] * MAX_BO_DIM).domain) == 3

    def test_rejects_small_init(self):
        with pytest.raises(ValueError):
            BoConfig(domain=[[0.0, 1.0]], init_count=1)

    @pytest.mark.parametrize("name", ["init_count", "iter_count", "acq_candidates"])
    @pytest.mark.parametrize("value", [2.5, 4.0, "4", None, True])
    def test_counts_must_be_integers(self, name, value):
        # a float count failed later, inside numpy, without its name
        expected = rf"^{name} must be an integer in \[[012], {MAX_COUNT}\], got "
        with pytest.raises(ValueError, match=expected):
            BoConfig(domain=[[0.0, 1.0]], **{name: value})

    def test_counts_may_be_numpy_integers(self):
        cfg = BoConfig(domain=[[0.0, 1.0]], init_count=np.int64(3), iter_count=np.uint32(0))
        assert len(maximize(lambda p: float(p[0]), cfg, 0).values) == 3


ORACLE_SEEDS = [*range(30), 2**32 - 1]


class TestDesigns:
    """The numpy designs against scipy.stats.qmc, bit for bit."""

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_halton_matches_qmc(self, dim):
        for seed in ORACLE_SEEDS:
            for n in (1, 2, 3, 100, 2048, 5000):
                expected = qmc.Halton(dim, seed=seed).random(n)
                got = _halton(dim, n, seed)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (
                    seed, n)
                # the same memory layout too: the kernel matrix over the
                # candidates is about twice as slow on row-major points
                assert got.strides == expected.strides, (seed, n)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_latin_hypercube_matches_qmc(self, dim):
        for seed in ORACLE_SEEDS:
            for n in (2, 5, 10, 40):
                expected = qmc.LatinHypercube(dim, seed=np.random.default_rng(seed)).random(n)
                got = _latin_hypercube(dim, n, np.random.default_rng(seed))
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (
                    seed, n)


def test_import_leaves_scipy_stats_unloaded():
    # the designs are numpy's, so scipy.stats (0.6-0.85 s and 34 MB to
    # import) stays out of the process through a BO placement
    src = str(Path(plumeplace.__file__).resolve().parent.parent)
    code = """
import sys
import numpy as np
import plumeplace
from plumeplace import bo, placement
from plumeplace.config import ExperimentConfig
assert not [m for m in sys.modules if m.startswith("scipy.stats")]
box = [[0.0, 1.0], [0.0, 1.0]]
bo.maximize(lambda p: -np.sum(p**2), bo.BoConfig(box, init_count=3, iter_count=2,
                                                  acq_candidates=16), 0)
cfg = ExperimentConfig(placement_members=50, n_steps=3, bo_init=3, bo_iters=1,
                       bo_candidates=16, n_sensors=1)
ens = placement.build_ensemble(cfg, 50, 0)
placement.greedy_place(ens, 1, cfg.bo_config(), cfg.min_sep_m)
print(sorted(m for m in sys.modules if m.startswith("scipy.stats")))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_no_library_module_imports_scipy_stats():
    imports = []
    for file_name, tree in library_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            imports += [f"{file_name}:{node.lineno}" for name in names
                        if name == "scipy.stats" or name.startswith("scipy.stats.")]
    assert imports == []
