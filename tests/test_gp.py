import numpy as np
import pytest
import scipy.linalg

from plumeplace import gp
from plumeplace.gp import GpSurrogate, build, fit, predict

from oracles import (
    cho_solve_gp_predict,
    dense_gp_predict,
    gp_neg_log_likelihood,
    se_kernel,
    se_matrix,
)
from source_scan import callers_of, definitions_calling


class TestSeKernel:
    def test_zero_distance_gives_signal_var(self):
        assert se_kernel([1.0, 2.0], [1.0, 2.0], [0.5, 2.0], signal_var=3.0) == 3.0

    def test_squared_distance_equal_to_lengthscale(self):
        # 1D, signal_var 1: distance^2 == lambda gives exp(-1)
        assert se_kernel([0.0], [2.0], [4.0]) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_decays_to_zero(self):
        assert se_kernel([0.0], [1e6], [1.0]) == 0.0

    def test_rejects_nonpositive_lengthscale(self):
        with pytest.raises(ValueError):
            se_kernel([0.0], [1.0], [0.0])

    def test_library_kernel_matrix_agrees_elementwise(self):
        rng = np.random.default_rng(6)
        xa, xb = rng.uniform(-3, 3, (6, 3)), rng.uniform(-3, 3, (9, 3))
        ls = np.array([0.7, 2.0, 5.5])
        k = gp._kernel_matrix(xa, xb, ls, 1.9)
        expected = [[se_kernel(a, b, ls, signal_var=1.9) for b in xb] for a in xa]
        np.testing.assert_allclose(k, expected, rtol=1e-14, atol=0)


    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_library_kernel_matrix_equals_broadcast_sum_bit_for_bit(self, dim, order):
        # summing per coordinate gives the floats of the (m, n, dim) sum,
        # on row- and column-major points alike
        rng = np.random.default_rng(dim)
        for _ in range(10):
            xa = np.asarray(rng.uniform(-3, 3, (301, dim)), order=order)
            xb = np.asarray(rng.uniform(-3, 3, (37, dim)), order=order)
            ls = rng.uniform(0.05, 5.0, dim)
            sv = rng.uniform(0.1, 3.0)
            np.testing.assert_array_equal(gp._kernel_matrix(xa, xb, ls, sv), se_matrix(xa, xb, ls, sv))


class TestChoFactor:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 39, 40])
    def test_matches_scipy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            m = rng.standard_normal((n, n))
            a = m @ m.T + rng.uniform(1e-6, 1.0) * np.eye(n)
            expected, lower = scipy.linalg.cho_factor(a, lower=True)
            before = a.copy()
            assert lower is True
            np.testing.assert_array_equal(gp.cho_factor(a), expected)
            np.testing.assert_array_equal(a, before)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(np.linalg.LinAlgError):
            gp.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def toy_surrogate(noise_var=1e-10):
    x = np.array([[-1.0], [1.0]])
    f = np.array([-1.0, 1.0])
    return GpSurrogate(
        train_x=x, train_f=f, lengthscales=np.array([1.0]), signal_var=1.0, noise_var=noise_var
    )


class TestPredict:
    def test_interpolates_training_points(self):
        g = toy_surrogate()
        mean, var = predict(g, g.train_x)
        np.testing.assert_allclose(mean, g.train_f, atol=1e-4)
        assert np.all(var < 1e-4)

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError, match="need at least 1 training point"):
            GpSurrogate(
                train_x=np.empty((0, 2)),
                train_f=np.empty(0),
                lengthscales=np.array([1.0, 1.0]),
                signal_var=2.5,
                noise_var=1e-6,
            )

    def test_antisymmetric_mean_zero_at_origin(self):
        mean, _ = predict(toy_surrogate(), [[0.0]])
        assert mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, (25, 2))
        f = np.sin(x[:, 0]) + 0.2 * x[:, 1]
        g = GpSurrogate(
            train_x=x,
            train_f=f,
            lengthscales=np.array([1.5, 2.5]),
            signal_var=1.7,
            noise_var=1e-4,
            mean_offset=f.mean(),
        )
        x_new = rng.uniform(-3, 3, (40, 2))
        mean, var = predict(g, x_new)
        mean_o, var_o = dense_gp_predict(x, f, g.lengthscales, 1.7, 1e-4, f.mean(), x_new)
        np.testing.assert_allclose(mean, mean_o, rtol=1e-8)
        np.testing.assert_allclose(var, var_o, rtol=1e-8, atol=1e-12)

    def test_matches_cho_solve_reference_bit_for_bit(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-3, 3, (30, 2))
        f = np.cos(x[:, 0]) * x[:, 1]
        g = GpSurrogate(
            train_x=x,
            train_f=f,
            lengthscales=np.array([0.8, 3.1]),
            signal_var=2.3,
            noise_var=1e-5,
            mean_offset=f.mean(),
        )
        x_new = rng.uniform(-4, 4, (60, 2))
        mean, var = predict(g, x_new)
        mean_o, var_o = cho_solve_gp_predict(x, f, g.lengthscales, 2.3, 1e-5, f.mean(), x_new)
        np.testing.assert_array_equal(mean, mean_o)
        np.testing.assert_array_equal(var, var_o)

    def test_solves_the_mean_weights_once(self, monkeypatch):
        # the weights are solved when the surrogate is built; each predict
        # solves only for its variance
        rng = np.random.default_rng(8)
        x = rng.uniform(-3, 3, (12, 2))
        f = np.sin(x[:, 0]) + x[:, 1]
        g = GpSurrogate(x, f, np.array([1.2, 0.6]), signal_var=1.5, noise_var=1e-4, mean_offset=0.3)
        np.testing.assert_array_equal(
            g.weights, scipy.linalg.cho_solve((g.chol, True), f - 0.3, check_finite=False)
        )
        calls = []
        solve = gp.dpotrs

        def counting(c, b, **kwargs):
            calls.append(np.shape(b))
            return solve(c, b, **kwargs)

        monkeypatch.setattr(gp, "dpotrs", counting)
        predict(g, rng.uniform(-3, 3, (5, 2)))
        predict(g, rng.uniform(-3, 3, (7, 2)))
        assert calls == [(12, 5), (12, 7)]

    @pytest.mark.parametrize("x_new", [[[0.0, 1.0]], np.zeros((3, 2)), np.zeros((2, 1, 1))])
    def test_rejects_points_of_another_width(self, x_new):
        with pytest.raises(ValueError, match="x_new must have 1 columns"):
            predict(toy_surrogate(), x_new)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        # these gave a NaN mean and variance
        with pytest.raises(ValueError, match="^x_new must be finite"):
            predict(toy_surrogate(), [[bad]])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_each_variance_gets_the_floats_of_predicting_all(self, dim):
        # bo's screen computes the variances of a subset of its candidates,
        # on column-major points like these, and relies on the floats of
        # computing them all. The mean has no such rule: on this BLAS a
        # subset whose size is not a multiple of 4 can get other floats
        # from the matrix-vector product, so the screen takes every
        # candidate's mean from one product
        rng = np.random.default_rng(20 + dim)
        x = rng.uniform(0.0, 5.0, (30, dim))
        g = fit(x, np.sin(x.sum(axis=1)), seed=dim)
        pts = np.asfortranarray(np.vstack([rng.uniform(-1.0, 6.0, (2000, dim)), x + 1e-6]))
        _, var = predict(g, pts)
        for size in (1, 2, 3, 7, 64, 501, len(pts)):
            idx = rng.choice(len(pts), size, replace=size > 501)
            np.testing.assert_array_equal(predict(g, pts[idx])[1], var[idx])

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 5, (15, 1))
        g = fit(x, np.sin(x[:, 0]))
        _, var = predict(g, rng.uniform(-5, 10, (200, 1)))
        assert np.all(var <= g.signal_var + 1e-9)

    def test_extra_point_cannot_increase_variance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 5, (10, 1))
        f = np.cos(x[:, 0])
        q = rng.uniform(0, 5, (50, 1))
        base = GpSurrogate(
            train_x=x, train_f=f, lengthscales=np.array([1.0]), signal_var=1.0, noise_var=1e-4
        )
        grown = GpSurrogate(
            train_x=np.vstack([x, [[2.5]]]),
            train_f=np.append(f, np.cos(2.5)),
            lengthscales=np.array([1.0]),
            signal_var=1.0,
            noise_var=1e-4,
        )
        _, var_base = predict(base, q)
        _, var_grown = predict(grown, q)
        assert np.all(var_grown <= var_base + 1e-9)


class TestFit:
    def test_recovers_known_lengthscale(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            x = rng.uniform(0, 5, (40, 1))
            d2 = (x - x.T) ** 2
            k = np.exp(-d2) + 1e-8 * np.eye(40)
            f = np.linalg.cholesky(k) @ rng.standard_normal(40)
            g = fit(x, f)
            hits += 0.5 <= g.lengthscales[0] <= 2.0
        assert hits >= 18

    def test_signed_zero_rows_are_not_distinct(self):
        # 0.0 == -0.0, so the two rows are one point
        with pytest.raises(ValueError, match="^need at least 2 distinct training points$"):
            fit([[0.0], [-0.0]], [1.0, 2.0])

    def test_near_duplicate_rows_are_distinct(self):
        x = np.array([[1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)], [1.0, 2.0]])
        got_x, got_f = gp._training_data(x, [1.0, 2.0, 3.0])
        assert np.array_equal(got_x, x)
        assert np.array_equal(got_f, [1.0, 2.0, 3.0])

    def test_constant_values_degenerate(self):
        x = np.linspace(0, 5, 10)[:, None]
        g = fit(x, np.full(10, 3.0))
        assert g.noise_var == pytest.approx(1e-8 * g.signal_var, rel=1e-9)
        mean, _ = predict(g, [[2.2], [7.5]])
        np.testing.assert_allclose(mean, 3.0, atol=1e-6)

    def test_output_scaling_moves_signal_var_not_lengthscale(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 5, (40, 1))
        d2 = (x - x.T) ** 2
        k = np.exp(-d2) + 0.01 * np.eye(40)
        f = np.linalg.cholesky(k) @ rng.standard_normal(40)
        a = fit(x, f)
        b = fit(x, 10.0 * f)
        assert b.signal_var / a.signal_var == pytest.approx(100.0, rel=0.05)
        assert b.lengthscales[0] == pytest.approx(a.lengthscales[0], rel=0.05)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 5, (20, 2))
        f = np.sin(x[:, 0]) * x[:, 1]
        a, b = fit(x, f), fit(x, f)
        np.testing.assert_array_equal(a.lengthscales, b.lengthscales)
        assert a.signal_var == b.signal_var

    def test_revisited_search_points_are_not_refactorised(self, monkeypatch):
        visited, factored = [], []
        search, cho_factor = gp._coordinate_search, gp.cho_factor

        def recording_search(objective, *args):
            def recorded(logp):
                visited.append(logp.tobytes())
                return objective(logp)

            return search(recorded, *args)

        def counting_factor(*args, **kwargs):
            factored.append(1)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(gp, "_coordinate_search", recording_search)
        monkeypatch.setattr(gp, "cho_factor", counting_factor)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 5, (15, 2))
        fit(x, np.sin(x[:, 0]) * x[:, 1])
        assert len(set(visited)) < len(visited)
        # one factorisation per distinct point, plus the fitted surrogate's
        assert len(factored) == len(set(visited)) + 1

    def test_refit_never_ends_below_its_warm_start(self):
        # two fixed corners keep the spans, so the box, of the refit's data
        # the same as those of the fit that gave the warm start
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            x = np.vstack([[[0.0, 0.0], [5.0, 5.0]], rng.uniform(0.0, 5.0, (14, 2))])
            f = np.sin(x[:, 0]) * x[:, 1] + rng.normal(0.0, 0.05, 16)
            warm = fit(x[:-1], f[:-1], seed=seed).log_params
            refit = fit(x, f, seed=seed + 1, warm_start=warm)
            start = gp_neg_log_likelihood(x, f, warm)
            assert gp_neg_log_likelihood(x, f, refit.log_params) <= start + 1e-9 * abs(start)

    def test_starts_are_default_warm_and_random(self, monkeypatch):
        starts = []
        search = gp._coordinate_search

        def recording_search(objective, p0, *args):
            starts.append(p0)
            return search(objective, p0, *args)

        monkeypatch.setattr(gp, "_coordinate_search", recording_search)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 5.0, (15, 2))
        warm = np.array([0.5, 1.5, -3.0])
        fit(x, np.sin(x[:, 0]) * x[:, 1], warm_start=warm)
        assert len(starts) == gp.FIT_RESTARTS == 4
        default = np.append(np.log(np.ptp(x, axis=0) ** 2 / 4), np.log(1e-2))
        np.testing.assert_array_equal(starts[0], default)
        np.testing.assert_array_equal(starts[1], warm)
        assert not any(np.array_equal(p, q) for p in starts[2:] for q in starts[:2])

    def test_golden_log_params_and_signal_var(self):
        # recorded when FIT_RESTARTS went from 8 to 4
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 5.0, (18, 2))
        g = fit(x, np.sin(x[:, 0]) * x[:, 1] + 0.1 * x[:, 0], seed=3)
        assert [float(v).hex() for v in g.log_params] == [
            "0x1.1290c8c8c2a5bp+1",
            "0x1.39bb275e6865fp+2",
            "-0x1.26bb1bbb55516p+4",
        ]
        assert float(g.signal_var).hex() == "0x1.27a5fa1076032p+5"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["train_x", "train_f"])
    def test_rejects_non_finite_training_data(self, name, bad):
        rng = np.random.default_rng(8)
        data = {"train_x": rng.uniform(0, 5, (10, 2)), "train_f": rng.standard_normal(10)}
        data[name].flat[3] = bad
        with pytest.raises(ValueError, match=name):
            fit(data["train_x"], data["train_f"])

    @pytest.mark.parametrize("warm", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [0.1, np.nan, 0.3],
                                      [0.1, 0.2, -np.inf], [[0.1, 0.2, 0.3]]])
    def test_rejects_bad_warm_start(self, warm):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 5, (10, 2))
        with pytest.raises(ValueError, match="warm_start must be 3 finite values"):
            fit(x, np.sin(x[:, 0]), warm_start=warm)

    def test_rejects_row_count_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match=r"train_x has 10 rows, train_f has shape \(9,\)"):
            fit(rng.uniform(0, 5, (10, 2)), rng.standard_normal(9))

    def test_rejects_insufficient_points(self):
        with pytest.raises(ValueError):
            fit(np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit(np.array([[1.0], [1.0]]), np.array([0.0, 5.0]))

    def test_surrogate_rejects_row_count_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match=r"train_x has 10 rows, train_f has shape \(9,\)"):
            GpSurrogate(
                train_x=rng.uniform(0, 5, (10, 2)),
                train_f=rng.standard_normal(9),
                lengthscales=np.array([1.0, 1.0]),
                signal_var=1.0,
                noise_var=1e-2,
            )

    def test_duplicate_points_with_conflict_rejected_at_floor(self):
        x = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(ValueError, match="singular|duplicate"):
            GpSurrogate(
                train_x=x,
                train_f=np.array([0.0, 10.0, 1.0]),
                lengthscales=np.array([1e6]),
                signal_var=1.0,
                noise_var=1e-18,
            )


def grown_training_set(seed, n_fit=16, n_more=6):
    """A fit's data and the same data with points added after it, as the
    BO loop has them between refits."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 5.0, (n_fit + n_more, 2))
    f = np.sin(x[:, 0]) * x[:, 1] + rng.normal(0.0, 0.05, n_fit + n_more)
    return x, f, fit(x[:n_fit], f[:n_fit], seed=seed).log_params


class TestBuild:
    @pytest.mark.parametrize("seed", range(5))
    def test_at_fitted_log_params_reproduces_fit(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = rng.uniform(0.0, 5.0, (18, 2))
        # the last case has constant values: the degenerate surrogate
        f = np.sin(x[:, 0]) * x[:, 1] + 0.1 * x[:, 0] if seed < 4 else np.full(18, 3.0)
        fitted = fit(x, f, seed=seed)
        built = build(x, f, fitted.log_params)
        for name in ("train_x", "train_f", "lengthscales", "signal_var", "noise_var",
                     "mean_offset", "log_params", "chol"):
            np.testing.assert_array_equal(getattr(built, name), getattr(fitted, name), err_msg=name)

    @pytest.mark.parametrize("seed", range(4))
    def test_predict_matches_dense_oracle(self, seed):
        x, f, kept = grown_training_set(500 + seed)
        g = build(x, f, kept)
        x_new = np.random.default_rng(seed).uniform(-1.0, 6.0, (40, 2))
        mean, var = predict(g, x_new)
        mean_o, var_o = dense_gp_predict(
            x, f, g.lengthscales, g.signal_var, g.noise_var, g.mean_offset, x_new
        )
        assert np.max(np.abs(mean - mean_o) / np.maximum(np.abs(mean_o), 1e-12)) < 1e-8
        assert np.max(np.abs(var - var_o) / np.maximum(np.abs(var_o), 1e-12)) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_signal_var_minimises_likelihood(self, seed):
        x, f, kept = grown_training_set(600 + seed)
        g = build(x, f, kept)
        sv = g.signal_var / f.std() ** 2  # the standardised values' signal variance
        at_sv = gp_neg_log_likelihood(x, f, kept, signal_var=sv)
        assert at_sv == pytest.approx(gp_neg_log_likelihood(x, f, kept), rel=1e-12)
        for factor in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
            assert at_sv < gp_neg_log_likelihood(x, f, kept, signal_var=factor * sv)
        assert g.noise_var / g.signal_var == pytest.approx(max(np.exp(kept[-1]), 1e-8), rel=1e-12)
        np.testing.assert_allclose(g.lengthscales, np.exp(kept[:-1]), rtol=1e-15)

    def test_noise_ratio_is_floored(self):
        x, f, kept = grown_training_set(10)
        g = build(x, f, np.append(kept[:-1], np.log(1e-12)))
        assert g.noise_var / g.signal_var == pytest.approx(gp.NOISE_RATIO_FLOOR, rel=1e-12)

    def test_does_not_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("build ran a search")

        x, f, kept = grown_training_set(7)
        monkeypatch.setattr(gp, "_coordinate_search", no_search)
        build(x, f, kept)

    @pytest.mark.parametrize("log_params", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [np.nan, 0.2, 0.3],
                                            [0.1, np.inf, 0.3], [[0.1, 0.2, 0.3]]])
    def test_rejects_bad_log_params(self, log_params):
        x, f, _ = grown_training_set(8)
        with pytest.raises(ValueError, match="log_params must be 3 finite values"):
            build(x, f, log_params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_training_data(self, bad):
        x, f, kept = grown_training_set(9)
        f[2] = bad
        with pytest.raises(ValueError, match="train_f"):
            build(x, f, kept)


def test_predictive_moments_have_one_owner():
    # the kernel and the Cholesky solves stay in gp, and the predictive
    # variance in one function of it, so bo's EI screen scores through
    # gp's core and cannot grow a second variance formula
    assert callers_of({"dpotrs", "_kernel_matrix"}) == {"gp.py"}
    assert definitions_calling("gp.py", {"dpotrs"}) == {"GpSurrogate", "_Likelihood", "_variance"}
