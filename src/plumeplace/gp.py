"""Gaussian-process surrogate with a squared-exponential kernel.

The kernel is k(x, x') = signal_var * exp(-sum_j (x_j - x'_j)^2 / ls_j),
i.e. the lengthscales divide the squared coordinate distances directly
(no conventional factor 1/2 in the exponent). Hyperparameters come from
maximizing the log marginal likelihood with a multi-start coordinate
search on log parameters; the optimal signal variance is available in
closed form for fixed lengthscales and noise-to-signal ratio, so the
search runs over the remaining parameters only.

Observed values are centered internally (the prior mean is zero) and the
noise variance is floored at 1e-8 * signal_var because the objective
values fed to the surrogate are themselves noisy estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

NOISE_RATIO_FLOOR = 1e-8
FIT_RESTARTS = 8  # coordinate searches per fit
FIT_BUDGET = 200  # likelihood steps per search


def cho_factor(a, overwrite_a=False):
    """Lower Cholesky factor `(c, True)` of a symmetric positive-definite
    matrix: the LAPACK call of `scipy.linalg.cho_factor(a, lower=True,
    check_finite=False)` without its per-call checks, upper triangle of
    `c` uncleaned. Callers resolve it as a module attribute at call time,
    so one wrapper sees every factorisation (the benchmark counts
    likelihood evaluations per fit that way).
    """
    c, info = dpotrf(a, lower=1, clean=0, overwrite_a=overwrite_a)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf failed with info={info}: not positive definite")
    return c, True


def _check_rows(x: np.ndarray, f: np.ndarray) -> None:
    if f.shape != (x.shape[0],):
        raise ValueError(
            f"train_f must hold one value per train_x row: train_x has {x.shape[0]} rows, "
            f"train_f has shape {f.shape}"
        )


def _kernel_matrix(xa: np.ndarray, xb: np.ndarray, ls, signal_var) -> np.ndarray:
    d2 = (xa[:, None, :] - xb[None, :, :]) ** 2
    return signal_var * np.exp(-np.sum(d2 / ls, axis=-1))


@dataclass
class GpSurrogate:
    """Fitted surrogate; prediction uses the cached Cholesky factor.

    An empty training set is allowed and yields the prior (mean 0,
    variance signal_var). Instances are treated as immutable after
    construction.
    """

    train_x: np.ndarray
    train_f: np.ndarray
    lengthscales: np.ndarray
    signal_var: float
    noise_var: float
    mean_offset: float = 0.0
    chol: object = field(default=None, repr=False)

    def __post_init__(self):
        self.train_x = np.atleast_2d(np.asarray(self.train_x, dtype=float))
        self.train_f = np.asarray(self.train_f, dtype=float)
        _check_rows(self.train_x, self.train_f)
        self.lengthscales = np.asarray(self.lengthscales, dtype=float)
        if np.any(self.lengthscales <= 0):
            raise ValueError("lengthscales must be > 0")
        if self.signal_var <= 0 or self.noise_var <= 0:
            raise ValueError("signal_var and noise_var must be > 0")
        n = self.train_f.shape[0]
        if n == 0:
            self.chol = None
            return
        k = _kernel_matrix(self.train_x, self.train_x, self.lengthscales, self.signal_var)
        k[np.diag_indices(n)] += self.noise_var
        try:
            self.chol = cho_factor(k, overwrite_a=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "training covariance is singular at the noise floor; "
                "check for duplicate points with conflicting values"
            ) from exc


def predict(g: GpSurrogate, x_new):
    """Predictive mean and variance at new points.

    The variance is the latent-function (Schur-complement) variance,
    clamped at zero against roundoff; it never exceeds signal_var.
    """
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    m = x_new.shape[0]
    if g.chol is None:
        return np.zeros(m), np.full(m, g.signal_var)
    ks = _kernel_matrix(x_new, g.train_x, g.lengthscales, g.signal_var)
    mean = g.mean_offset + ks @ dpotrs(g.chol[0], g.train_f - g.mean_offset, lower=1)[0]
    var = g.signal_var - np.sum(ks * dpotrs(g.chol[0], ks.T, lower=1)[0].T, axis=1)
    return mean, np.maximum(var, 0.0)


def _coordinate_search(objective, p0, lo, hi, budget):
    """Greedy per-coordinate line search on a box; returns best point."""
    p = np.clip(p0, lo, hi)
    val, aux = objective(p)
    evals = 1
    step = 1.0
    while evals < budget and step > 1e-2:
        improved = False
        for j in range(len(p)):
            for sign in (step, -step):
                if evals >= budget:
                    break
                q = p.copy()
                q[j] = min(max(q[j] + sign, lo[j]), hi[j])
                v, a = objective(q)
                evals += 1
                if v < val - 1e-10:
                    p, val, aux = q, v, a
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return p, val, aux


def fit(
    train_x,
    train_f,
    seed: int = 0,
    warm_start=None,
) -> GpSurrogate:
    """Maximum-likelihood surrogate fit.

    Runs FIT_RESTARTS coordinate searches of at most FIT_BUDGET steps
    each over (log lengthscales, log noise ratio); the signal variance
    maximizing the likelihood is computed in closed form at every step.
    Every step counts against the budget, but a point visited before in
    the same fit (by any restart) is looked up, not refactorised.
    Deterministic for a fixed seed. `warm_start`
    optionally seeds one restart with a previous solution's log
    parameters (used by the optimization loop when refitting).
    """
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    f = np.asarray(train_f, dtype=float)
    _check_rows(x, f)
    for name, arr in (("train_x", x), ("train_f", f)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
    n, dim = x.shape
    if n < 2:
        raise ValueError("need at least 2 training points")
    if np.unique(x, axis=0).shape[0] < 2:
        raise ValueError("need at least 2 distinct training points")

    f_mean = f.mean()
    f_scale = f.std()
    degenerate = f_scale == 0
    if degenerate:
        f_scale = 1.0
    g = (f - f_mean) / f_scale

    d2_flat = ((x[:, None, :] - x[None, :, :]) ** 2).reshape(n * n, dim)
    const = 0.5 * n * (1.0 + np.log(2 * np.pi))

    seen = {}
    # Unit-signal kernel per lengthscale vector, flat; a step that moves only
    # the noise ratio reuses it. Adding the ratio to a copy's diagonal gives
    # the floats `+ ratio * eye` gave: its off-diagonal adds were + 0.0.
    kernels = {}

    def neg_loglik(logp):
        key = logp.tobytes()
        if key not in seen:
            seen[key] = _neg_loglik(logp)
        return seen[key]

    def _neg_loglik(logp):
        key = logp[:dim].tobytes()
        if key not in kernels:
            kernels[key] = np.exp(-(d2_flat @ np.exp(-logp[:dim])))
        b = kernels[key].copy()
        b[:: n + 1] += max(np.exp(logp[dim]), NOISE_RATIO_FLOOR)
        try:
            c, _ = cho_factor(b.reshape(n, n), overwrite_a=True)
        except np.linalg.LinAlgError:
            return np.inf, 1.0
        alpha, info = dpotrs(c, g, lower=1)
        if info != 0:
            return np.inf, 1.0
        sv = max(g @ alpha / n, 1e-12)
        return 0.5 * n * np.log(sv) + np.log(c.diagonal()).sum() + const, sv

    spans = np.ptp(x, axis=0)
    spans[spans == 0] = 1.0
    lo = np.concatenate([np.log(1e-4 * spans**2), [np.log(NOISE_RATIO_FLOOR)]])
    hi = np.concatenate([np.log(4e2 * spans**2), [np.log(10.0)]])
    starts = [np.concatenate([np.log(spans**2 / 4), [np.log(1e-2)]])]
    if warm_start is not None:
        starts.append(np.asarray(warm_start, dtype=float))
    rng = np.random.default_rng(seed)
    while len(starts) < FIT_RESTARTS:
        starts.append(lo + rng.uniform(0.0, 1.0, dim + 1) * (hi - lo))

    best_val, best_p, best_sv = np.inf, None, 1.0
    for p0 in starts:
        p, val, sv = _coordinate_search(neg_loglik, p0, lo, hi, FIT_BUDGET)
        if val < best_val:
            best_val, best_p, best_sv = val, p, sv
    if best_p is None or not np.isfinite(best_val):
        raise ValueError("likelihood evaluation failed for all hyperparameters")

    ls = np.exp(best_p[:dim])
    ratio = max(np.exp(best_p[dim]), NOISE_RATIO_FLOOR)
    sv = best_sv * f_scale**2
    if degenerate:
        sv = 1.0
        ratio = NOISE_RATIO_FLOOR
    surrogate = GpSurrogate(
        train_x=x,
        train_f=f,
        lengthscales=ls,
        signal_var=sv,
        noise_var=ratio * sv,
        mean_offset=f_mean,
    )
    surrogate.log_params = best_p  # warm-start handle for refits
    return surrogate
