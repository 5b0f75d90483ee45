"""Nonparametric entropy and mutual information estimation from samples.

Both estimators are k-nearest-neighbor based and work under the max
(Chebyshev) norm: differential entropy via the Kozachenko-Leonenko
construction, mutual information via the Kraskov-style estimator that
counts marginal neighbors strictly inside the joint kNN distance.

The kNN radii come from the sorted 1D radii r_w of a set's widest
column whenever every other column's spread is at most min(r_w): a
max-norm distance is at least its gap in w, so each radius is at least
r_w, and the k nearest rows in w lie within r_w in every column, so it
is at most r_w. A set whose next widest spread exceeds the pigeonhole
bound k * span_w / (n - k) on min(r_w) goes straight to a k-d tree, as
does every set the certificate fails. Either way the floats are the
tree's, and a stack of sets is bit-equal to each set alone. ksg_mi's
joints are unit-variance projections, which that bound rejects once n
is in the hundreds, so they go to the tree directly.

Estimates are in nats. Samples are row-major: one row per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.spatial import cKDTree

# Fixed stream for tie-break jitter so repeated estimates are reproducible
# and ksg_mi(x, y) == ksg_mi(y, x) bit for bit.
_JITTER_SEED = 202306
_SATURATED = "duplicate-saturated input: k-th neighbor at distance 0 after jitter"


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


def _as_matrix(x, stacks: bool = False) -> np.ndarray:
    """x as an (n, d) sample matrix; with stacks, an (..., n, d) stack of
    sample sets passes as it is."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 and not (stacks and x.ndim > 2):
        expected = "1D or 2D sample array" + (", or an (..., n, d) stack" if stacks else "")
        raise ValueError(f"expected {expected}, got shape {x.shape}")
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
    """x times (1 + scale * the fixed draw of one sample set's shape), so
    every set of a stack gets the jitter it would get alone."""
    if scale == 0:
        return x
    return x * (1.0 + scale * _jitter_draw(x.shape[-2:]))


def _sorted_radii(v: np.ndarray, k: int) -> np.ndarray:
    """k-th neighbor distance of each entry of a (B, n) stack of 1D sets.

    fl(s_j - s_i) is monotone in s_j, so after sorting the k nearest
    neighbors are the j nearest on the left and the k - j nearest on the
    right, for some j. The k-th distance is thus the least, over j, of
    the larger of the j-th left gap and the (k - j)-th right gap, each
    from the same subtraction as the k-d tree's, bit for bit. Every set
    is sorted along its last axis, all at once.
    """
    n = v.shape[-1]
    order = np.argsort(v, axis=-1)
    padded = np.empty((len(v), n + 2 * k))  # s between k pads of -inf and +inf
    padded[:, :k] = -np.inf
    padded[:, k + n :] = np.inf
    s = padded[:, k : k + n]
    s[...] = np.take_along_axis(v, order, axis=-1)
    kth = np.minimum(s - padded[:, :n], padded[:, 2 * k :] - s)  # j = k and j = 0
    for j in range(1, k):
        left = s - padded[:, k - j : k - j + n]  # gap to the j-th neighbor on the left
        right = padded[:, 2 * k - j : 2 * k - j + n] - s  # to the (k - j)-th on the right
        np.minimum(kth, np.maximum(left, right), out=kth)
    radii = np.empty_like(s)
    np.put_along_axis(radii, order, kth, axis=-1)
    return radii


def _check_count(n: int, k: int) -> None:
    if n < k + 1:
        raise ValueError(f"need at least k+1={k + 1} samples, got {n}")


def _tree_radii(block: np.ndarray, k: int) -> np.ndarray:
    """Max-norm distance from each row of one (n, d) set to its k-th
    nearest other row, by a k-d tree; a zero distance is an error."""
    _check_count(len(block), k)
    radii = cKDTree(block).query(block, k=k + 1, p=np.inf)[0][:, k]
    if np.any(radii <= 0):
        raise ValueError(_SATURATED)
    return radii


def _knn_radii(block: np.ndarray, k: int) -> np.ndarray:
    """Max-norm distance from each row to its k-th nearest other row.

    block is an (n, d) sample matrix or an (..., n, d) stack of sets,
    whose radii come back with the stack's leading shape. A set whose
    widest column w dominates takes w's 1D radii r_w (_sorted_radii):
    it is certified when every other column's spread is at most
    min(r_w), and then r_w is exact, bit for bit:
      - a max-norm distance is at least its |dw|, so radius >= r_w;
      - the k nearest rows in w lie within r_w in every column, so
        radius <= r_w.
    A 1D set has no other column and always passes. The least 1D radius
    is at most k * span_w / (n - k) (pigeonhole over the n - k windows
    of k + 1 sorted points), so a set whose next widest spread exceeds
    that bound cannot pass and skips the 1D radii. Every other set goes
    to a k-d tree (_tree_radii).
    """
    n, d = block.shape[-2:]
    _check_count(n, k)
    flat = block.reshape(-1, n, d)
    cols = np.ascontiguousarray(flat.swapaxes(1, 2))  # one row per column: fast reductions
    spans = cols.max(axis=2) - cols.min(axis=2)
    ranked = np.sort(spans, axis=1)
    other = ranked[:, :-1].max(axis=1, initial=0.0)  # next widest spread, 0 in 1D
    radii = np.empty(flat.shape[:2])
    todo = np.ones(len(flat), dtype=bool)
    cand = np.flatnonzero(other <= k * ranked[:, -1] / (n - k))
    if cand.size:
        r_w = _sorted_radii(cols[cand, np.argmax(spans[cand], axis=1)], k)
        ok = other[cand] <= r_w.min(axis=1)
        if np.any(r_w[ok] <= 0):
            raise ValueError(_SATURATED)
        radii[cand[ok]] = r_w[ok]
        todo[cand[ok]] = False
    for b in np.flatnonzero(todo):
        radii[b] = _tree_radii(flat[b], k)
    return radii.reshape(block.shape[:-1])


def knn_entropy(x, cfg: KnnConfig = KnnConfig()):
    """Kozachenko-Leonenko differential entropy estimate in nats.

    Under the max norm the estimator reads
        psi(N) - psi(k) + d*log 2 + (d/N) * sum_i log r_i
    with r_i the Chebyshev distance from sample i to its k-th neighbor,
    from the sorted 1D radii of the widest column where a certificate
    proves them exact, and from a k-d tree otherwise (see _knn_radii).
    x is one sample set, (n,) or (n, d), and gives a float; or an
    (..., n, d) stack of sets, and gives an array of the stack's leading
    shape, each entry bit-equal to that set's own estimate.
    """
    x = _as_matrix(x, stacks=True)
    n, dim = x.shape[-2:]
    radii = _knn_radii(_jittered(x, cfg.jitter_scale), cfg.k)
    h = (
        special.digamma(n) - special.digamma(cfg.k)
        + dim * np.log(2.0) + dim * np.mean(np.log(radii), axis=-1)
    )
    return float(h) if x.ndim == 2 else h


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
    # cca.mi_lower_bound, the one caller, passes unit-variance projections.
    # Two sets of one variance have spreads within a factor sqrt(n / 2) of
    # each other (Popoviciu's inequality), so _knn_radii's pigeonhole bound
    # would reject every such joint once n is in the hundreds: the tree
    # takes it without the spans, which cost about 3 % of a grid placement.
    radii = _tree_radii(np.hstack([xj, yj]), cfg.k)
    n_x, n_y = _strict_counts(xj, radii), _strict_counts(yj, radii)
    mean_psi = np.mean(special.digamma(n_x + 1) + special.digamma(n_y + 1))
    return float(-mean_psi + special.digamma(cfg.k) + special.digamma(len(x)))
