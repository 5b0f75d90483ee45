"""Nonparametric entropy and mutual information estimation from samples.

Both estimators are k-nearest-neighbor based and work under the max
(Chebyshev) norm: differential entropy via the Kozachenko-Leonenko
construction, mutual information via the Kraskov-style estimator that
counts marginal neighbors strictly inside the joint kNN distance.

Estimates are in nats. Samples are row-major: one row per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special
from scipy.spatial import cKDTree

# Fixed stream for tie-break jitter so repeated estimates are reproducible
# and ksg_mi(x, y) == ksg_mi(y, x) bit for bit.
_JITTER_SEED = 202306


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor-count and tie-break settings for the kNN estimators.

    Small k gives low bias / high variance and vice versa; 6 is a sane
    default around a thousand samples. jitter_scale is a tiny
    multiplicative perturbation applied before neighbor searches because
    clamped observations produce exact duplicates.
    """

    k: int = 6
    jitter_scale: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not np.isfinite(self.jitter_scale) or self.jitter_scale < 0:
            raise ValueError(f"jitter_scale must be finite and >= 0, got {self.jitter_scale!r}")


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected 1D or 2D sample array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample matrix contains non-finite values")
    return x


@lru_cache(maxsize=16)
def _jitter_draw(shape: tuple[int, ...]) -> np.ndarray:
    """The fixed stream's standard-normal draw of one sample shape, made
    once and read-only, since every caller shares it."""
    g = np.random.default_rng(_JITTER_SEED).standard_normal(shape)
    g.flags.writeable = False
    return g


def _jittered(x: np.ndarray, scale: float) -> np.ndarray:
    if scale == 0:
        return x
    return x * (1.0 + scale * _jitter_draw(x.shape))


def _knn_radii(block: np.ndarray, k: int) -> np.ndarray:
    """Max-norm distance from each row to its k-th nearest other row.

    In 1D, fl(s_j - s_i) is monotone in s_j, so the k nearest neighbors lie
    within k places in sorted order; the k-th smallest distance in that
    window comes from the same subtraction as the k-d tree's, bit for bit.
    """
    if len(block) < k + 1:
        raise ValueError(f"need at least k+1={k + 1} samples, got {len(block)}")
    if block.shape[1] == 1:
        order = np.argsort(block[:, 0])
        s = block[order, 0]
        window = sliding_window_view(np.pad(s, k, constant_values=(-np.inf, np.inf)), 2 * k + 1)
        radii = np.empty_like(s)
        radii[order] = np.partition(np.abs(window - s[:, None]), k, axis=1)[:, k]
    else:
        radii = cKDTree(block).query(block, k=k + 1, p=np.inf)[0][:, k]
    if np.any(radii <= 0):
        raise ValueError("duplicate-saturated input: k-th neighbor at distance 0 after jitter")
    return radii


def knn_entropy(x, cfg: KnnConfig = KnnConfig()) -> float:
    """Kozachenko-Leonenko differential entropy estimate in nats.

    Under the max norm the estimator reads
        psi(N) - psi(k) + d*log 2 + (d/N) * sum_i log r_i
    with r_i the Chebyshev distance from sample i to its k-th neighbor,
    from a sorted window in 1D and a k-d tree otherwise (see _knn_radii).
    """
    x = _as_matrix(x)
    n, dim = x.shape
    radii = _knn_radii(_jittered(x, cfg.jitter_scale), cfg.k)
    return float(
        special.digamma(n) - special.digamma(cfg.k)
        + dim * np.log(2.0) + dim * np.mean(np.log(radii))
    )


def _strict_counts(block: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per-row count of other rows at max-norm distance strictly below radii.

    For floats d <= nextafter(r, 0) iff d < r, so the tree's closed ball at
    nextafter(r, 0) is the strict ball. In 1D fl(s - v_i) is monotone in s,
    so the passing rows are contiguous in sorted order: the searchsorted
    window [fl(v - r), fl(v + r)] holds them, since rounding is monotone
    too, and its edges step inwards, for all rows at once, until both
    pass. Self always passes.
    """
    if block.shape[1] > 1:
        r = np.nextafter(radii, 0)
        return cKDTree(block).query_ball_point(block, r, p=np.inf, return_length=True) - 1
    v = block[:, 0]
    s = np.sort(v)
    lo = np.searchsorted(s, v - radii, side="left")
    hi = np.searchsorted(s, v + radii, side="right") - 1
    for edge, step in ((lo, 1), (hi, -1)):
        idx = np.arange(len(s))
        while idx.size:
            idx = idx[np.abs(s[edge[idx]] - v[idx]) >= radii[idx]]
            edge[idx] += step
    return hi - lo


def ksg_mi(x, y, cfg: KnnConfig = KnnConfig()) -> float:
    """Kraskov kNN mutual information estimate in nats.

    Joint distances use the max norm across both blocks; the marginal
    neighbor counts n_x(i), n_y(i) are strict (< joint kNN distance).
    The estimate can come out slightly negative for independent data.
    """
    x = _as_matrix(x)
    y = _as_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must hold the same number of samples")
    xj = _jittered(x, cfg.jitter_scale)
    yj = _jittered(y, cfg.jitter_scale)
    radii = _knn_radii(np.hstack([xj, yj]), cfg.k)
    n_x, n_y = _strict_counts(xj, radii), _strict_counts(yj, radii)
    mean_psi = np.mean(special.digamma(n_x + 1) + special.digamma(n_y + 1))
    return float(-mean_psi + special.digamma(cfg.k) + special.digamma(len(x)))
