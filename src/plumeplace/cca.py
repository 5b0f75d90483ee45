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
they apply to the raw data.

Each block is whitened one way: by W = L^-1, with L the Cholesky
factor of its standardized covariance plus _REG on the diagonal. A
standardized coordinate has unit variance, so the ridge is relative,
and a block with a constant coordinate or a deficient rank still has a
factor. A Block holds a block with its W. Appending columns to a Block
computes only the new rows of L and W (block Cholesky; Bjorck & Golub
1973 orthogonalise the same way), so a placement factors the parameters
once and its fixed sensors once per step, and each candidate pays only
for its own columns. All of it runs in numpy's LAPACK. scipy bundles a
second OpenBLAS: its triangular solves, called between numpy's products,
took 1-3 ms each at the full profile on 2 cores with 2 BLAS threads,
against 30-60 us with one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import KnnConfig
from .mi import ksg_mi

_REG = 1e-8


@dataclass(frozen=True)
class CanonicalPair:
    """First canonical directions and correlation for two sample blocks.

    alpha projects the first block, beta the second; alpha is unit
    normalized under the first block's sample covariance.
    """

    alpha: np.ndarray
    beta: np.ndarray
    rho1: float


@dataclass(frozen=True)
class Block:
    """A sample block factored for whitening: the raw columns, the
    standardized columns z with the scales that map directions back, and
    the whitening white = L^-1, with L the lower Cholesky factor of z's
    covariance plus _REG."""

    data: np.ndarray
    z: np.ndarray
    scale: np.ndarray
    white: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _columns(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def _standardize_columns(x: np.ndarray):
    """The columns centred and divided by their scales, and the scales:
    the sample standard deviation, or 1 for a constant column. The mean
    is taken once; the deviation reuses the centred columns with the
    operations of x.std(axis=0, ddof=1), so it has its bits."""
    centred = x - x.mean(axis=0)
    std = np.sqrt(np.square(centred).sum(axis=0) / (len(x) - 1))
    scale = np.where(std > 0, std, 1.0)
    centred /= scale
    return centred, scale


def _inv_cholesky(cov: np.ndarray) -> np.ndarray:
    return np.linalg.inv(np.linalg.cholesky(cov + _REG * np.eye(len(cov))))


def factor(x) -> Block:
    """Standardize and factor one sample block; a 1D block is one
    coordinate."""
    x = _columns(x)
    z, scale = _standardize_columns(x)
    if not np.any(z):
        raise ValueError("block has no variance: every coordinate is constant")
    return Block(x, z, scale, _inv_cholesky(z.T @ z / (len(z) - 1)))


def extend(block: Block, x) -> Block:
    """block with the columns of x appended, by block Cholesky: with C21
    and C22 the new columns' covariances with the old and with
    themselves, the factor gains the rows L21 = C21 W11^T and
    L22 = chol(C22 + _REG - L21 L21^T), and the whitening the rows
    [-W22 L21 W11, W22] with W22 = L22^-1. The old rows stay as they are."""
    x = _columns(x)
    if len(x) != len(block.data):
        raise ValueError("blocks must hold the same number of samples")
    z, scale = _standardize_columns(x)
    n1 = len(z) - 1
    l21 = (block.white @ (block.z.T @ z / n1)).T
    w22 = _inv_cholesky(z.T @ z / n1 - l21 @ l21.T)
    m = len(block.white)
    white = np.zeros((m + len(w22), m + len(w22)))
    white[:m, :m] = block.white
    white[m:, :m] = -w22 @ l21 @ block.white
    white[m:, m:] = w22
    return Block(
        np.hstack([block.data, x]),
        np.hstack([block.z, z]),
        np.concatenate([block.scale, scale]),
        white,
    )


def first_canonical(q, d) -> CanonicalPair:
    """Top solution of the CCA problem on two paired sample blocks, each
    an array or a Block."""
    q, d = (b if isinstance(b, Block) else _columns(b) for b in (q, d))
    n = q.shape[0]
    if d.shape[0] != n:
        raise ValueError("blocks must hold the same number of samples")
    if n <= q.shape[1] + d.shape[1]:
        raise ValueError("need more samples than total dimensions")
    q, d = (b if isinstance(b, Block) else factor(b) for b in (q, d))

    cqd = q.z.T @ d.z / (n - 1)
    u, s, vt = np.linalg.svd(q.white @ cqd @ d.white.T, full_matrices=False)

    # map directions back to raw coordinates (standardization is affine)
    alpha = (q.white.T @ u[:, 0]) / q.scale
    beta = (d.white.T @ vt[0]) / d.scale
    pivot = int(np.argmax(np.abs(alpha)))
    if alpha[pivot] < 0:
        alpha, beta = -alpha, -beta
    return CanonicalPair(alpha=alpha, beta=beta, rho1=float(np.clip(s[0], 0.0, 1.0)))


def _unit_variance(v: np.ndarray) -> np.ndarray:
    std = v.std(ddof=1)
    return (v - v.mean()) / std if std > 0 else v - v.mean()


def mi_lower_bound(q, d, knn: KnnConfig = KnnConfig()) -> float:
    """kNN MI between the first canonical projections of q and d, each an
    array or a Block.

    A 1D q is used as-is (projecting a scalar is a monotone map and the
    kNN estimate is invariant to it). Projections are standardized to
    unit sample variance before the neighbor search so the estimator
    operates at a fixed scale.
    """
    q, d = (b if isinstance(b, Block) else _columns(b) for b in (q, d))
    pair = first_canonical(q, d)
    q, d = (b.data if isinstance(b, Block) else b for b in (q, d))
    u = q[:, 0] if q.shape[1] == 1 else q @ pair.alpha
    v = d[:, 0] if d.shape[1] == 1 else d @ pair.beta
    return ksg_mi(_unit_variance(u), _unit_variance(v), knn)
