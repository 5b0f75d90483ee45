import numpy as np
import pytest
import scipy.linalg

from plumeplace import gp
from plumeplace.gp import GpSurrogate, fit, predict

from oracles import cho_solve_gp_predict, dense_gp_predict, se_kernel


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


class TestChoFactor:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 39, 40])
    def test_matches_scipy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            m = rng.standard_normal((n, n))
            a = m @ m.T + rng.uniform(1e-6, 1.0) * np.eye(n)
            expected, lower = scipy.linalg.cho_factor(a, lower=True)
            before = a.copy()
            c, flag = gp.cho_factor(a)
            assert lower is True and flag is True
            np.testing.assert_array_equal(c, expected)
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

    def test_prior_fallback_without_training_points(self):
        g = GpSurrogate(
            train_x=np.empty((0, 2)),
            train_f=np.empty(0),
            lengthscales=np.array([1.0, 1.0]),
            signal_var=2.5,
            noise_var=1e-6,
        )
        mean, var = predict(g, [[0.0, 0.0], [5.0, -3.0]])
        np.testing.assert_array_equal(mean, 0.0)
        np.testing.assert_array_equal(var, 2.5)

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

    def test_golden_log_params_and_signal_var(self):
        # recorded from the scipy.linalg.cho_factor/cho_solve implementation
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 5.0, (18, 2))
        g = fit(x, np.sin(x[:, 0]) * x[:, 1] + 0.1 * x[:, 0], seed=3)
        assert [float(v).hex() for v in g.log_params] == [
            "0x1.12463324ef2a0p+1",
            "0x1.399fc517b2317p+2",
            "-0x1.26bb1bbb55516p+4",
        ]
        assert float(g.signal_var).hex() == "0x1.25f3575e7b1d7p+5"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["train_x", "train_f"])
    def test_rejects_non_finite_training_data(self, name, bad):
        rng = np.random.default_rng(8)
        data = {"train_x": rng.uniform(0, 5, (10, 2)), "train_f": rng.standard_normal(10)}
        data[name].flat[3] = bad
        with pytest.raises(ValueError, match=name):
            fit(data["train_x"], data["train_f"])

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
