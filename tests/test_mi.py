import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumeplace.mi import (
    _JITTER_SEED,
    KnnConfig,
    _jitter_draw,
    _jittered,
    _knn_radii,
    _strict_counts,
    knn_entropy,
    ksg_mi,
)

from oracles import (
    brute_knn_entropy,
    brute_knn_radii,
    brute_ksg_mi,
    brute_strict_counts,
    chebyshev_all_pairs,
)

GAUSS_ENTROPY = 1.4189385332046727  # 0.5 * ln(2*pi*e)


class TestKnnConfig:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KnnConfig(k=0)

    @pytest.mark.parametrize("k", [2.5, 6.0, "6", None])
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            KnnConfig(k=k)

    def test_accepts_numpy_integer_k(self):
        assert KnnConfig(k=np.int64(4)).k == 4

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1e-10])
    def test_rejects_bad_jitter_scale(self, scale):
        with pytest.raises(ValueError, match="jitter_scale must be finite"):
            KnnConfig(jitter_scale=scale)


class TestKnnEntropy:
    def test_uniform_close_to_zero(self):
        x = np.random.default_rng(0).uniform(0, 1, 5000)
        assert abs(knn_entropy(x)) < 0.05

    def test_standard_normal(self):
        x = np.random.default_rng(1).standard_normal(5000)
        assert knn_entropy(x) == pytest.approx(GAUSS_ENTROPY, abs=0.05)

    def test_scaling_law_exact(self):
        x = np.random.default_rng(2).standard_normal((500, 2))
        shift = knn_entropy(3.0 * x) - knn_entropy(x)
        assert shift == pytest.approx(2 * np.log(3.0), abs=1e-9)

    def test_needs_k_plus_one_samples(self):
        with pytest.raises(ValueError):
            knn_entropy(np.arange(5.0), KnnConfig(k=6))

    def test_rejects_duplicate_saturated(self):
        with pytest.raises(ValueError, match="duplicate"):
            knn_entropy(np.zeros(100))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            knn_entropy(np.array([1.0, np.nan, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))

    def test_matches_brute_force(self):
        x = np.random.default_rng(3).standard_normal((300, 2))
        cfg = KnnConfig(k=4, jitter_scale=0.0)
        assert knn_entropy(x, cfg) == pytest.approx(brute_knn_entropy(x, 4), abs=1e-12)

    def test_matches_brute_force_1d(self):
        x = np.random.default_rng(3).standard_normal(300)
        cfg = KnnConfig(k=4, jitter_scale=0.0)
        assert knn_entropy(x, cfg) == pytest.approx(brute_knn_entropy(x, 4), abs=1e-12)


class TestKsgMi:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(4)
        est = ksg_mi(rng.uniform(size=2000), rng.uniform(size=2000))
        assert abs(est) < 0.05

    def test_gaussian_rho_09(self):
        rng = np.random.default_rng(5)
        z = rng.multivariate_normal([0, 0], [[1, 0.9], [0.9, 1]], size=2000)
        truth = -0.5 * np.log(1 - 0.81)
        assert ksg_mi(z[:, 0], z[:, 1]) == pytest.approx(truth, abs=0.08)

    def test_symmetry_bit_for_bit(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((400, 2))
        y = x[:, :1] + 0.5 * rng.standard_normal((400, 1))
        assert ksg_mi(x, y) == ksg_mi(y, x)

    def test_monotone_map_invariance(self):
        rng = np.random.default_rng(7)
        z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=2000)
        base = ksg_mi(z[:, 0], z[:, 1])
        warped = ksg_mi(np.exp(z[:, 0]), z[:, 1])
        assert abs(warped - base) < 0.05

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((300, 2))
        y = x @ np.array([[1.0], [0.5]]) + 0.3 * rng.standard_normal((300, 1))
        cfg = KnnConfig(k=5, jitter_scale=0.0)
        assert ksg_mi(x, y, cfg) == pytest.approx(brute_ksg_mi(x, y, 5), abs=1e-12)

    def test_matches_brute_force_1d_by_1d(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300)
        y = x + 0.3 * rng.standard_normal(300)
        cfg = KnnConfig(k=5, jitter_scale=0.0)
        assert ksg_mi(x, y, cfg) == pytest.approx(brute_ksg_mi(x, y, 5), abs=1e-12)

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            ksg_mi(np.arange(10.0), np.arange(11.0))

    def test_rejects_duplicate_saturated(self):
        with pytest.raises(ValueError, match="duplicate"):
            ksg_mi(np.zeros(50), np.zeros(50))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_entropy_deterministic_per_input(seed):
    x = np.random.default_rng(seed).standard_normal(64)
    assert knn_entropy(x) == knn_entropy(x)


def _tie_heavy(data, max_dim):
    """Rounded samples, many duplicates, and radii of which about half equal
    an exact pairwise distance, so boundary cases are common."""
    n = data.draw(st.integers(min_value=8, max_value=80), label="n")
    dim = data.draw(st.integers(min_value=1, max_value=max_dim), label="dim")
    decimals = data.draw(st.integers(min_value=0, max_value=3), label="decimals")
    offset = data.draw(st.sampled_from([0.0, 1e3, -7.3e5]), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    block = np.round(3.0 * rng.standard_normal((n, dim)), decimals) + offset
    pairs = chebyshev_all_pairs(block)[np.arange(n), rng.integers(0, n, n)]
    radii = np.where(rng.uniform(size=n) < 0.5, pairs, rng.uniform(0.0, 3.0, n))
    return block, np.where(radii > 0, radii, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_strict_counts_match_brute_force(data):
    block, radii = _tie_heavy(data, max_dim=4)
    np.testing.assert_array_equal(_strict_counts(block, radii), brute_strict_counts(block, radii))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_1d_knn_radii_match_brute_force(data):
    block, _ = _tie_heavy(data, max_dim=1)
    k = data.draw(st.integers(min_value=1, max_value=7), label="k")
    expected = brute_knn_radii(block, k)
    if np.any(expected == 0):
        with pytest.raises(ValueError, match="duplicate"):
            _knn_radii(block, k)
    else:
        np.testing.assert_array_equal(_knn_radii(block, k), expected)


class TestJitterDraw:
    def test_cached_draw_is_read_only(self):
        g = _jitter_draw((40, 2))
        assert _jitter_draw((40, 2)) is g
        assert not g.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g[0, 0] = 1.0

    def test_jitter_is_the_fixed_streams_draw(self):
        x = np.random.default_rng(4).standard_normal((60, 3))
        fresh = np.random.default_rng(_JITTER_SEED).standard_normal(x.shape)
        assert np.array_equal(_jittered(x, 1e-10), x * (1.0 + 1e-10 * fresh))

    def test_repeat_estimates_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        y = 10.0 + np.round(x + rng.standard_normal(300), 1)  # ties only the jitter breaks
        assert ksg_mi(x, y) == ksg_mi(x, y)
        assert knn_entropy(y) == knn_entropy(y)
