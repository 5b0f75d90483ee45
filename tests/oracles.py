"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (quadratic scans, dense solves,
adaptive quadrature) and shares no code with the library paths it checks.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma as _digamma


def _as2d(x):
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def chebyshev_all_pairs(x):
    """(n, n) max-norm distance matrix by brute force."""
    x = _as2d(x)
    return np.max(np.abs(x[:, None, :] - x[None, :, :]), axis=-1)


def brute_knn_radii(x, k):
    """Max-norm distance from each row to its k-th nearest other row."""
    d = chebyshev_all_pairs(x)
    np.fill_diagonal(d, np.inf)
    return np.sort(d, axis=1)[:, k - 1]


def brute_strict_counts(x, radii):
    """Per-row count of other rows at max-norm distance strictly below radii."""
    d = chebyshev_all_pairs(x)
    np.fill_diagonal(d, np.inf)
    return np.sum(d < np.asarray(radii)[:, None], axis=1)


def brute_knn_entropy(x, k):
    """Kozachenko-Leonenko entropy via a full pairwise scan."""
    x = _as2d(x)
    n, dim = x.shape
    radii = brute_knn_radii(x, k)
    return float(
        _digamma(n) - _digamma(k) + dim * np.log(2.0) + dim * np.mean(np.log(radii))
    )


def brute_ksg_mi(x, y, k):
    """Kraskov MI via full pairwise scans with strict marginal counts."""
    x = _as2d(x)
    y = _as2d(y)
    n = x.shape[0]
    dx = chebyshev_all_pairs(x)
    dy = chebyshev_all_pairs(y)
    joint = np.maximum(dx, dy)
    np.fill_diagonal(joint, np.inf)
    radii = np.sort(joint, axis=1)[:, k - 1]
    np.fill_diagonal(dx, np.inf)
    np.fill_diagonal(dy, np.inf)
    n_x = np.sum(dx < radii[:, None], axis=1)
    n_y = np.sum(dy < radii[:, None], axis=1)
    return float(
        -np.mean(_digamma(n_x + 1) + _digamma(n_y + 1)) + _digamma(k) + _digamma(n)
    )


def dense_gp_predict(train_x, train_f, lengthscales, signal_var, noise_var, mean_offset, x_new):
    """GP prediction by direct dense solve, no factorization reuse."""
    train_x = _as2d(train_x)
    x_new = _as2d(x_new)

    def kmat(a, b):
        d2 = (a[:, None, :] - b[None, :, :]) ** 2
        return signal_var * np.exp(-np.sum(d2 / lengthscales, axis=-1))

    k_tt = kmat(train_x, train_x) + noise_var * np.eye(len(train_x))
    k_nt = kmat(x_new, train_x)
    centered = np.asarray(train_f, dtype=float) - mean_offset
    mean = mean_offset + k_nt @ np.linalg.solve(k_tt, centered)
    cov = kmat(x_new, x_new) - k_nt @ np.linalg.solve(k_tt, k_nt.T)
    return mean, np.maximum(np.diag(cov), 0.0)


def quad_expected_improvement(mu, sigma, f_best):
    """EI by adaptive quadrature of (y - f_best) against the Gaussian
    density of the belief, from f_best to infinity."""

    def integrand(y):
        z = (y - mu) / sigma
        return (y - f_best) * np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))

    return quad(integrand, f_best, np.inf, epsabs=1e-13, epsrel=1e-13)[0]


def sweep_first_correlation(q, d, n_angles=20001):
    """Best |correlation| between 1D q and a swept direction in 2D d."""
    q = np.asarray(q, dtype=float).ravel()
    best = -1.0
    for theta in np.linspace(0.0, np.pi, n_angles):
        proj = d @ np.array([np.cos(theta), np.sin(theta)])
        best = max(best, abs(np.corrcoef(q, proj)[0, 1]))
    return best
