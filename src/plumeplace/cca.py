"""First canonical correlation and the projected mutual-information bound.

Mutual information survives transformations of either variable only by
shrinking, so the MI between 1D projections of two sample blocks lower
bounds the MI of the full blocks. Choosing the projections as the first
canonical pair keeps as much linear dependence as possible, and the kNN
estimator becomes reliable again because it only ever sees 1D data.

The canonical problem is solved by whitening both blocks and taking the
SVD of the whitened cross-covariance, which is numerically stabler than
the equivalent generalized eigenproblem. Coordinates are standardized
internally (canonical correlations are affine invariant, so this only
affects conditioning) and the returned directions are mapped back so
they apply to the raw data. Each standardized block covariance carries
a relative regularization of 1e-8 * trace/dim, so a block with a constant
coordinate or a deficient rank still has a whitening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mi import KnnConfig, ksg_mi

_REG_REL = 1e-8


@dataclass(frozen=True)
class CanonicalPair:
    """First canonical directions and correlation for two sample blocks.

    alpha projects the first block, beta the second; alpha is unit
    normalized under the first block's sample covariance.
    """

    alpha: np.ndarray
    beta: np.ndarray
    rho1: float


def _standardize_columns(x: np.ndarray):
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1)
    std = np.where(std > 0, std, 1.0)
    return (x - mean) / std, std


def _inv_sqrt(cov: np.ndarray) -> np.ndarray:
    dim = cov.shape[0]
    lam = _REG_REL * np.trace(cov) / dim
    w, v = np.linalg.eigh(cov + lam * np.eye(dim))
    if w[-1] <= 0:
        raise ValueError("block has no variance: every coordinate is constant")
    return (v / np.sqrt(w)) @ v.T


def first_canonical(q, d) -> CanonicalPair:
    """Top solution of the CCA problem on two paired sample blocks."""
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    q = q[:, None] if q.ndim == 1 else q
    d = d[:, None] if d.ndim == 1 else d
    n = q.shape[0]
    if d.shape[0] != n:
        raise ValueError("blocks must hold the same number of samples")
    if n <= q.shape[1] + d.shape[1]:
        raise ValueError("need more samples than total dimensions")

    qs, q_scale = _standardize_columns(q)
    ds, d_scale = _standardize_columns(d)
    cqq = qs.T @ qs / (n - 1)
    cdd = ds.T @ ds / (n - 1)
    cqd = qs.T @ ds / (n - 1)

    wq = _inv_sqrt(cqq)
    wd = _inv_sqrt(cdd)
    u, s, vt = np.linalg.svd(wq @ cqd @ wd)

    # map directions back to raw coordinates (standardization is affine)
    alpha = (wq @ u[:, 0]) / q_scale
    beta = (wd @ vt[0]) / d_scale
    pivot = int(np.argmax(np.abs(alpha)))
    if alpha[pivot] < 0:
        alpha, beta = -alpha, -beta
    return CanonicalPair(alpha=alpha, beta=beta, rho1=float(np.clip(s[0], 0.0, 1.0)))


def _unit_variance(v: np.ndarray) -> np.ndarray:
    std = v.std(ddof=1)
    return (v - v.mean()) / std if std > 0 else v - v.mean()


def mi_lower_bound(q, d, knn: KnnConfig = KnnConfig()) -> float:
    """kNN MI between the first canonical projections of q and d.

    A 1D q is used as-is (projecting a scalar is a monotone map and the
    kNN estimate is invariant to it). Projections are standardized to
    unit sample variance before the neighbor search so the estimator
    operates at a fixed scale.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    q2 = q[:, None] if q.ndim == 1 else q
    d2 = d[:, None] if d.ndim == 1 else d
    pair = first_canonical(q2, d2)
    u = q2[:, 0] if q2.shape[1] == 1 else q2 @ pair.alpha
    v = d2[:, 0] if d2.shape[1] == 1 else d2 @ pair.beta
    return ksg_mi(_unit_variance(u), _unit_variance(v), knn)
