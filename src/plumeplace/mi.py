"""Nonparametric entropy and mutual information estimation from samples.

Both estimators are k-nearest-neighbor based and work under the max
(Chebyshev) norm: differential entropy via the Kozachenko-Leonenko
construction, mutual information via the Kraskov-style estimator that
counts marginal neighbors strictly inside the joint kNN distance.

The kNN radii come from the sorted 1D radii r_w of a set's widest
column whenever every other column's spread is at most min(r_w): a
max-norm distance is at least its gap in w, so each radius is at least
r_w, and the k nearest rows in w lie within r_w in every column, so it
is at most r_w. A set that fails this whole-set certificate, and every
joint of ksg_mi, goes to a row-certified sorted window (_window_radii):
each row's k-th distance among the w rows on either side of it in the
first column's order is exact when the first-column gap to the first
row outside the window, on both sides, is at least that distance. Only
the rows no window certifies reach a k-d tree. Either way the floats
are the tree's, and a stack of sets is bit-equal to each set alone.

Estimates are in nats. Samples are row-major: one row per sample. The
estimators' settings, KnnConfig, are defined in config, which owns every
setting and its input rules; mi imports the class from there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special
from scipy.spatial import cKDTree

from .config import KnnConfig

# Fixed stream for tie-break jitter so repeated estimates are reproducible
# and ksg_mi(x, y) == ksg_mi(y, x) bit for bit.
_JITTER_SEED = 202306
_SATURATED = "duplicate-saturated input: k-th neighbor at distance 0 after jitter"


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


def _window_radii(block: np.ndarray, k: int, w: int) -> np.ndarray:
    """Max-norm distance from each row of one (n, d) set to its k-th
    nearest other row; a zero distance is an error.

    The rows are sorted by the first column, and each row's candidate is
    the k-th least distance to the w rows on either side of it (the
    window; pads of -inf and +inf stand beyond the ends). Every max-norm
    distance is at least its first-column gap, and fl(s_j - s_i) is
    monotone in s_j, so a row whose gaps to the first rows outside the
    window, on both sides, are at least its candidate has no nearer row
    outside it: the candidate is its radius, from the tree's own
    subtractions. A k-d tree of the set takes the other rows, queried at
    those rows only. w is at least k, so that a window holds k rows.
    """
    n, d = block.shape
    _check_count(n, k)
    order = np.argsort(block[:, 0], kind="stable")  # ties keep row order
    padded = np.empty((d, n + 2 * w + 2))  # each sorted column between w + 1 pads
    padded[:, : w + 1] = -np.inf
    padded[:, w + 1 + n :] = np.inf
    s = padded[:, w + 1 : w + 1 + n]
    s[...] = block[order].T
    windows = sliding_window_view(padded[:, 1:-1], 2 * w + 1, axis=1)  # (d, n, 2w + 1)
    dist = windows[0] - s[0, :, None]  # row i: its window, itself at column w
    np.abs(dist, out=dist)
    step = np.empty_like(dist)
    for c in range(1, d):
        np.subtract(windows[c], s[c, :, None], out=step)
        np.maximum(dist, np.abs(step, out=step), out=dist)
    dist.sort(axis=1)  # numpy's SIMD row sort is no slower than a partition here
    kth = dist[:, k]
    gap = np.minimum(s[0] - padded[0, :n], padded[0, 2 * w + 2 :] - s[0])
    radii = np.empty(n)
    radii[order] = kth
    rows = order[gap < kth]
    if rows.size:
        radii[rows] = cKDTree(block).query(block[rows], k=k + 1, p=np.inf)[0][:, k]
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
    A 1D set has no other column and always passes. Every other set
    goes to _window_radii with w moved first, since the max norm does
    not depend on the order of the columns, and a window of k rows a
    side: there w's gaps certify almost every row, and a wider window
    costs more than the few rows it spares the tree.
    """
    n, d = block.shape[-2:]
    _check_count(n, k)
    flat = block.reshape(-1, n, d)
    cols = np.ascontiguousarray(flat.swapaxes(1, 2))  # one row per column: fast reductions
    spans = cols.max(axis=2) - cols.min(axis=2)
    wide = np.argmax(spans, axis=1)
    ranked = np.sort(spans, axis=1)
    other = ranked[:, :-1].max(axis=1, initial=0.0)  # next widest spread, 0 in 1D
    radii = _sorted_radii(cols[np.arange(len(flat)), wide], k)
    ok = other <= radii.min(axis=1)
    if np.any(radii[ok] <= 0):
        raise ValueError(_SATURATED)
    for b in np.flatnonzero(~ok):
        radii[b] = _window_radii(np.roll(flat[b], -wide[b], axis=1), k, k)
    return radii.reshape(block.shape[:-1])


def knn_entropy(x, cfg: KnnConfig = KnnConfig()):
    """Kozachenko-Leonenko differential entropy estimate in nats.

    Under the max norm the estimator reads
        psi(N) - psi(k) + d*log 2 + (d/N) * sum_i log r_i
    with r_i the Chebyshev distance from sample i to its k-th neighbor,
    from the sorted 1D radii of the widest column where a certificate
    proves them exact, and otherwise from a row-certified window, whose
    uncertified rows a k-d tree takes (see _knn_radii).
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


def _search_sorted(s: np.ndarray, keys: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(s, keys, side), searched in the keys' sorted order,
    in which numpy narrows each search by the last one's result."""
    order = np.argsort(keys)
    idx = np.empty(len(keys), dtype=np.intp)
    idx[order] = np.searchsorted(s, keys[order], side=side)
    return idx


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
    lo = _search_sorted(s, v - radii, "left")
    hi = _search_sorted(s, v + radii, "right") - 1
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
    # cca.mi_lower_bound, the one caller, passes unit-variance projections,
    # which no whole-set certificate takes; sorted by x, a window of 32
    # rows a side certifies about 88 % of a grid placement's rows.
    radii = _window_radii(np.hstack([xj, yj]), cfg.k, max(cfg.k, 32))
    n_x, n_y = _strict_counts(xj, radii), _strict_counts(yj, radii)
    mean_psi = np.mean(special.digamma(n_x + 1) + special.digamma(n_y + 1))
    return float(-mean_psi + special.digamma(cfg.k) + special.digamma(len(x)))
