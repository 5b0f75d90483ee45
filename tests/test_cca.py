import numpy as np
import pytest

from plumeplace import cca
from plumeplace.cca import extend, factor, first_canonical, mi_lower_bound
from plumeplace.mi import KnnConfig, ksg_mi

from oracles import eigh_first_canonical, sweep_first_correlation


def assert_same_pair(pair, reference):
    """rho1 to 1e-12 and the directions to 1e-9 of their largest entry,
    up to one common sign."""
    alpha, beta, rho1 = reference
    assert pair.rho1 == pytest.approx(rho1, abs=1e-12)
    sign = np.sign(pair.alpha @ alpha)
    for got, want in ((pair.alpha, alpha), (pair.beta, beta)):
        np.testing.assert_allclose(got, sign * want, rtol=0, atol=1e-9 * np.abs(want).max())


def correlated_blocks(seed, n=800, d_dim=6):
    """A 2-column block with scales 150 apart, and a noisy linear image."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, 2)) * np.array([3.0, 0.02])
    return q, q @ rng.standard_normal((2, d_dim)) + rng.standard_normal((n, d_dim))


class TestFirstCanonical:
    def test_identical_blocks_give_rho_one(self):
        # one short of 1 by exactly the regularization: the top eigenvalue
        # lam of the sample correlation matrix whitens to lam / (lam + 1e-8)
        q = np.random.default_rng(0).standard_normal((500, 2))
        pair = first_canonical(q, q.copy())
        lam = np.linalg.eigvalsh(np.corrcoef(q.T))[-1]
        assert pair.rho1 == pytest.approx(lam / (lam + 1e-8), abs=1e-12)

    def test_independent_blocks_small_rho(self):
        rng = np.random.default_rng(1)
        pair = first_canonical(rng.standard_normal((5000, 2)), rng.standard_normal((5000, 3)))
        assert pair.rho1 < 0.1

    def test_matches_direction_sweep_oracle(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal(2000)
        d = np.column_stack([q + 0.5 * rng.standard_normal(2000), rng.standard_normal(2000)])
        pair = first_canonical(q, d)
        assert pair.rho1 == pytest.approx(sweep_first_correlation(q, d), abs=1e-3)

    def test_projection_correlation_equals_rho1(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((1500, 2))
        d = q @ rng.standard_normal((2, 3)) + 0.8 * rng.standard_normal((1500, 3))
        pair = first_canonical(q, d)
        corr = np.corrcoef(q @ pair.alpha, d @ pair.beta)[0, 1]
        assert corr == pytest.approx(pair.rho1, abs=1e-8)

    def test_alpha_unit_under_q_covariance(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((1000, 2)) * np.array([100.0, 0.01])
        d = q @ rng.standard_normal((2, 2)) + rng.standard_normal((1000, 2))
        pair = first_canonical(q, d)
        cov_q = np.cov(q.T, ddof=1)
        assert pair.alpha @ cov_q @ pair.alpha == pytest.approx(1.0, rel=1e-6)

    def test_affine_invariance_of_rho1(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal(1000)
        d = np.column_stack([q + rng.standard_normal(1000), q - 0.3 * rng.standard_normal(1000)])
        m = np.array([[1.3, -0.7], [0.4, 2.2]])
        r_raw = first_canonical(q, d).rho1
        r_map = first_canonical(q, d @ m + np.array([5.0, -2.0])).rho1
        assert r_map == pytest.approx(r_raw, abs=1e-6)

    def test_rho1_monotone_in_snr(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal(2000)
        noise = rng.standard_normal(2000)
        rhos = [first_canonical(q, a * q + noise).rho1 for a in (0.2, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))

    def test_constant_coordinate_is_regularized(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal(300)
        d = np.column_stack([q + rng.standard_normal(300), np.ones(300)])
        pair = first_canonical(q, d)
        assert 0.5 < pair.rho1 < 1.0
        assert np.all(np.isfinite(pair.beta))

    def test_rejects_block_without_variance(self):
        q = np.random.default_rng(7).standard_normal(300)
        with pytest.raises(ValueError, match="every coordinate is constant"):
            first_canonical(q, np.ones((300, 2)))

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            first_canonical(np.eye(3), np.eye(3))


class TestCholeskyWhitening:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_eigh_oracle(self, seed):
        q, d = correlated_blocks(seed)
        assert_same_pair(first_canonical(q, d), eigh_first_canonical(q, d))

    @pytest.mark.parametrize("seed", range(4))
    def test_extended_block_matches_eigh_oracle(self, seed):
        # a fixed block of 12 columns factored once, a candidate's 6 appended
        q, d = correlated_blocks(seed, d_dim=18)
        pair = first_canonical(factor(q), extend(factor(d[:, :12]), d[:, 12:]))
        assert_same_pair(pair, eigh_first_canonical(q, d))

    def test_extend_keeps_the_old_rows_and_matches_one_factor(self):
        _, d = correlated_blocks(4, d_dim=9)
        fixed = factor(d[:, :5])
        grown = extend(fixed, d[:, 5:])
        assert np.array_equal(grown.white[:5, :5], fixed.white)
        assert not np.any(grown.white[:5, 5:])
        assert np.array_equal(grown.data, d)
        np.testing.assert_allclose(grown.white, factor(d).white, rtol=0, atol=1e-12)

    def test_arrays_and_blocks_give_the_same_pair(self):
        q, d = correlated_blocks(5)
        a = first_canonical(q, d)
        b = first_canonical(factor(q), factor(d))
        assert (a.rho1, a.alpha.tolist(), a.beta.tolist()) == (b.rho1, b.alpha.tolist(), b.beta.tolist())
        assert mi_lower_bound(q, d) == mi_lower_bound(factor(q), factor(d))

    def test_extend_rejects_other_sample_count(self):
        _, d = correlated_blocks(6)
        with pytest.raises(ValueError, match="same number of samples"):
            extend(factor(d), d[:-1])


class TestStandardizeColumns:
    @staticmethod
    def two_pass(x):
        """The standardisation as two numpy reductions: std, then mean."""
        std = x.std(axis=0, ddof=1)
        scale = np.where(std > 0, std, 1.0)
        return (x - x.mean(axis=0)) / scale, scale

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_std_and_mean_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 700)), int(rng.integers(2, 12))
        x = rng.normal(rng.normal(0.0, 1e3, m), 10.0 ** rng.uniform(-4, 4, m), (n, m))
        x[:, rng.integers(m)] = 3.0  # a constant column, whose mean is exact
        blocks = [x, x[:, :1], np.asfortranarray(x), x[:, ::2], x[::3]]
        for block in blocks:
            z, scale = cca._standardize_columns(block)
            want_z, want_scale = self.two_pass(block)
            assert np.array_equal(z.view(np.uint64), want_z.view(np.uint64))
            assert np.array_equal(scale.view(np.uint64), want_scale.view(np.uint64))
        assert np.sum(cca._standardize_columns(x)[1] == 1.0) >= 1


class TestMiLowerBound:
    def test_1d_gaussian_matches_full_ksg(self):
        rng = np.random.default_rng(8)
        z = rng.multivariate_normal([0, 0], [[1, 0.7], [0.7, 1]], size=2000)
        lb = mi_lower_bound(z[:, 0], z[:, 1])
        full = ksg_mi(z[:, 0], z[:, 1])
        assert lb == pytest.approx(full, abs=0.08)
        assert lb == pytest.approx(-0.5 * np.log(0.51), abs=0.08)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(9)
        est = mi_lower_bound(rng.standard_normal(2000), rng.standard_normal((2000, 3)))
        assert abs(est) < 0.05

    def test_statistical_dpi_on_3d_channel(self):
        lbs, fulls = [], []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            q = rng.standard_normal(2000)
            noise = rng.standard_normal((2000, 3)) @ np.diag([0.7, 1.0, 1.3])
            d = np.column_stack([q, 0.8 * q, -0.5 * q]) + noise
            lbs.append(mi_lower_bound(q, d))
            fulls.append(ksg_mi(q, d))
        assert np.mean(lbs) <= np.mean(fulls) + 2 * np.std(fulls)

    def test_noise_columns_do_not_help(self):
        rng = np.random.default_rng(10)
        q = rng.standard_normal(1500)
        d = np.column_stack([q + 0.5 * rng.standard_normal(1500)])
        base = mi_lower_bound(q, d)
        padded = mi_lower_bound(q, np.column_stack([d, rng.standard_normal((1500, 3))]))
        assert padded <= base + 0.1
