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
row outside the window, on both sides, is at least that distance. The
rows a window leaves uncertified take a window twice as wide, until
every row is certified; no k-d tree is built. The same window gives
ksg_mi each row's strict count in x, its first block, since no row
outside is nearer in x than the radius. Either way the floats are the
tree's, and a stack of sets is bit-equal to each set alone.

Estimates are in nats. Samples are row-major: one row per sample. The
estimators' settings, KnnConfig, are defined in config, which owns every
setting and its input rules; mi imports the class from there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import special
from scipy.spatial import cKDTree

from .config import KnnConfig

# Fixed stream for tie-break jitter so repeated estimates are reproducible
# and ksg_mi(x, y) == ksg_mi(y, x) bit for bit.
_JITTER_SEED = 202306
_SATURATED = "duplicate-saturated input: k-th neighbor at distance 0 after jitter"
_KSG_WIDTH = 48  # rows a side of ksg_mi's first window
_GROWTH = 2  # each later window's rows a side over the last one's


def _as_matrix(x, stacks: bool = False) -> np.ndarray:
    """x as an (n, d) sample matrix; with stacks, an (..., n, d) stack of
    sample sets passes as it is."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 and not (stacks and x.ndim > 2):
        expected = "1D or 2D sample array" + (", or an (..., n, d) stack" if stacks else "")
        raise ValueError(f"expected {expected}, got shape {x.shape}")
    if x.shape[-1] == 0:
        raise ValueError(f"sample block has no columns, got shape {x.shape}")
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


def _window_radii(
    block: np.ndarray, k: int, w: int, x_dim: int = 0
) -> tuple[np.ndarray, np.ndarray | None]:
    """(radii, counts): the max-norm distance from each row of one (n, d)
    set to its k-th nearest other row, where a zero distance is an
    error; and with x_dim, each row's count of other rows strictly
    nearer than its radius in the first x_dim columns (else None).

    The rows are sorted by the first column, and each row's candidate is
    the k-th least distance to the w rows on either side of it (the
    window; pads of -inf and +inf stand beyond the ends). Every max-norm
    distance is at least its first-column gap, and fl(s_j - s_i) is
    monotone in s_j. So a row whose gaps to the first rows outside the
    window, on both sides, are at least its candidate r has no nearer
    row outside it: r is its radius, from a k-d tree's own subtractions,
    and every row outside is at least r away in the first x_dim columns
    too, so the window's count is exact. The rows a window leaves
    uncertified take a window _GROWTH times as wide, and so on; one of
    n - 1 rows a side reaches the pads from every row and certifies it.
    A wider pass goes in row blocks of at most the first pass's
    n * (2w + 1) distances. w is at least k, so that a window holds k
    rows.
    """
    n, d = block.shape
    _check_count(n, k)
    order = np.argsort(block[:, 0], kind="stable")  # ties keep row order
    padded = np.empty((d, 3 * n))  # each sorted column between n pads a side
    padded[:, :n] = -np.inf
    padded[:, 2 * n :] = np.inf
    s = padded[:, n : 2 * n]
    s[...] = block[order].T
    radii = np.empty(n)
    counts = np.empty(n, dtype=np.intp) if x_dim else None
    w = min(w, n - 1)
    size = n * (2 * w + 1)
    rows = np.arange(n)  # the sorted positions not yet certified
    while rows.size:
        # row i's window, with the first row outside it at either end; the
        # view ends at column 2n + w of padded, inside it as w <= n - 1
        shape, strides = (d, n, 2 * w + 3), (*padded.strides, padded.itemsize)
        windows = as_strided(padded[:, n - w - 1 :], shape, strides, writeable=False)
        block_rows = size // (2 * w + 1)
        wider = []
        for lo in range(0, rows.size, block_rows):
            at = rows[lo : lo + block_rows]
            # a run of positions reads the windows as views, others gather
            take = slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else at
            dist = windows[0, take, 1:-1] - s[0, take, None]  # itself at column w
            np.abs(dist, out=dist)
            dx = dist
            for c in range(1, d):
                step = windows[c, take, 1:-1] - s[c, take, None]
                np.abs(step, out=step)
                if c == x_dim:  # keep the distances in the first x_dim columns
                    dx, dist = dist, np.maximum(dist, step, out=step)
                else:
                    np.maximum(dist, step, out=dist)
            dist.sort(axis=1)  # numpy's SIMD row sort is no slower than a partition here
            kth = dist[:, k]
            gap = np.minimum(s[0, take] - windows[0, take, 0], windows[0, take, -1] - s[0, take])
            radii[order[take]] = kth
            if x_dim:  # itself included; summed in the least type that holds it: faster
                near = dx < kth[:, None]
                counts[order[take]] = np.sum(near, axis=1, dtype=np.min_scalar_type(2 * w + 1))
            wider.append(at[gap < kth])
        rows = np.concatenate(wider)
        w = min(_GROWTH * w, n - 1)
    if np.any(radii <= 0):
        raise ValueError(_SATURATED)
    return radii, (counts - 1 if x_dim else None)


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
    not depend on the order of the columns, and a first window of k
    rows a side: there w's gaps certify almost every row, and the few
    rows left take wider windows.
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
        radii[b] = _window_radii(np.roll(flat[b], -wide[b], axis=1), k, k)[0]
    return radii.reshape(block.shape[:-1])


def knn_entropy(x, cfg: KnnConfig = KnnConfig()):
    """Kozachenko-Leonenko differential entropy estimate in nats.

    Under the max norm the estimator reads
        psi(N) - psi(k) + d*log 2 + (d/N) * sum_i log r_i
    with r_i the Chebyshev distance from sample i to its k-th neighbor,
    from the sorted 1D radii of the widest column where a certificate
    proves them exact, and otherwise from row-certified windows (see
    _knn_radii).
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
    n_x comes from the window that certifies row i's joint distance,
    n_y from _strict_counts.
    The estimate can come out slightly negative for independent data.
    """
    x = _as_matrix(x)
    y = _as_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must hold the same number of samples")
    xj = _jittered(x, cfg.jitter_scale)
    yj = _jittered(y, cfg.jitter_scale)
    # cca.mi_lower_bound, the one caller, passes unit-variance projections,
    # which no whole-set certificate takes; sorted by x, a first window of
    # 48 rows a side certifies about 97 % of a desk grid placement's rows.
    radii, n_x = _window_radii(np.hstack([xj, yj]), cfg.k, max(cfg.k, _KSG_WIDTH), x.shape[1])
    n_y = _strict_counts(yj, radii)
    mean_psi = np.mean(special.digamma(n_x + 1) + special.digamma(n_y + 1))
    return float(-mean_psi + special.digamma(cfg.k) + special.digamma(len(x)))
