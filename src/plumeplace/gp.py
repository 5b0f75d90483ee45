"""Gaussian-process surrogate with a squared-exponential kernel.

The kernel is k(x, x') = signal_var * exp(-sum_j (x_j - x'_j)^2 / ls_j),
i.e. the lengthscales divide the squared coordinate distances directly
(no conventional factor 1/2 in the exponent). Hyperparameters come from
maximizing the log marginal likelihood with a multi-start coordinate
search on log parameters; the optimal signal variance is available in
closed form for fixed lengthscales and noise-to-signal ratio, so the
search runs over the remaining parameters only. `build` takes that
closed-form step once, at given log parameters, so a surrogate can be
rebuilt on grown data without a new search.

Observed values are centered internally (the prior mean is zero) and the
noise variance is floored at 1e-8 * signal_var because the objective
values fed to the surrogate are themselves noisy estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

NOISE_RATIO_FLOOR = 1e-8
FIT_RESTARTS = 4  # coordinate searches per fit
FIT_BUDGET = 200  # likelihood steps per search


def cho_factor(a):
    """Lower Cholesky factor of a symmetric positive-definite matrix: the
    LAPACK call of `scipy.linalg.cho_factor(a, lower=True,
    check_finite=False)` without its per-call checks, upper triangle
    uncleaned. Callers resolve it as a module attribute at call time,
    so one wrapper sees every factorisation (the benchmark counts
    likelihood evaluations per fit that way).
    """
    c, info = dpotrf(a, lower=1, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf failed with info={info}: not positive definite")
    return c


def _check_rows(x: np.ndarray, f: np.ndarray) -> None:
    if f.shape != (x.shape[0],):
        raise ValueError(
            f"train_f must hold one value per train_x row: train_x has {x.shape[0]} rows, "
            f"train_f has shape {f.shape}"
        )


def _kernel_matrix(xa: np.ndarray, xb: np.ndarray, ls, signal_var) -> np.ndarray:
    # one coordinate at a time, in coordinate order: the floats of summing
    # an (m, n, dim) stack over its last axis (numpy adds fewer than 8
    # terms in order), at a cost that does not depend on the points'
    # layout; in place, by the operations of signal_var * exp(-sum of
    # (xa_j - xb_j)**2 / ls_j) in that order, with each term divided by
    # -ls_j instead of negating the sum: IEEE division and addition are
    # sign-symmetric, so the bits are the same
    d = np.subtract(xa[:, 0, None], xb[None, :, 0])
    np.square(d, out=d)
    d /= -ls[0]
    term = np.empty_like(d)
    for j in range(1, xa.shape[1]):
        np.subtract(xa[:, j, None], xb[None, :, j], out=term)
        np.square(term, out=term)
        term /= -ls[j]
        d += term
    np.exp(d, out=d)
    d *= signal_var
    return d


@dataclass
class GpSurrogate:
    """Fitted surrogate; prediction uses the cached lower Cholesky factor
    `chol` of the training covariance and the mean weights `weights`,
    K^-1 (train_f - mean_offset), solved once at construction.

    At least one training point is required. `log_params` holds the log
    lengthscales and log noise ratio that `fit` found or `build` was
    given, which seed the next refit; it is None for a surrogate built
    by hand. Instances are
    treated as immutable after construction.
    """

    train_x: np.ndarray
    train_f: np.ndarray
    lengthscales: np.ndarray
    signal_var: float
    noise_var: float
    mean_offset: float = 0.0
    log_params: np.ndarray | None = field(default=None, repr=False)
    chol: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

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
            raise ValueError("need at least 1 training point")
        k = _kernel_matrix(self.train_x, self.train_x, self.lengthscales, self.signal_var)
        k[np.diag_indices(n)] += self.noise_var
        try:
            self.chol = cho_factor(k)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "training covariance is singular at the noise floor; "
                "check for duplicate points with conflicting values"
            ) from exc
        self.weights = dpotrs(self.chol, self.train_f - self.mean_offset, lower=1)[0]


def predict(g: GpSurrogate, x_new):
    """Predictive mean and variance at new points.

    The variance is the latent-function (Schur-complement) variance
    signal_var - k' K^-1 k, clamped at zero against roundoff. In exact
    arithmetic it never exceeds signal_var; in floats the subtracted
    term can round below zero, and `_variance_ceiling(g)` bounds what
    that can add. A point's variance is the same floats whichever other
    points share the call; its mean need not be, as the matrix-vector
    product may sum a row by another path at another position.
    """
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    if x_new.ndim != 2 or x_new.shape[1] != g.train_x.shape[1]:
        raise ValueError(
            f"x_new must have {g.train_x.shape[1]} columns like train_x, got shape {x_new.shape}"
        )
    if not np.all(np.isfinite(x_new)):
        raise ValueError("x_new must be finite")
    ks = _kernel_rows(g, x_new)
    return _mean(g, ks), _variance(g, ks)


# The predictive core, without predict's input checks: bo's acquisition
# calls it directly, once per proposal for the candidates' kernel rows
# and means and once per exact scoring for the variances.


def _kernel_rows(g: GpSurrogate, x: np.ndarray) -> np.ndarray:
    """(m, n) prior covariances of m points with the n training points."""
    return _kernel_matrix(x, g.train_x, g.lengthscales, g.signal_var)


def _mean(g: GpSurrogate, ks: np.ndarray) -> np.ndarray:
    """Predictive means of the points whose kernel rows are ks."""
    return g.mean_offset + ks @ g.weights


def _variance(g: GpSurrogate, ks: np.ndarray) -> np.ndarray:
    """Predictive variances of the points whose kernel rows are ks."""
    var = g.signal_var - np.sum(ks * dpotrs(g.chol, ks.T, lower=1)[0].T, axis=1)
    return np.maximum(var, 0.0)


def _variance_ceiling(g: GpSurrogate) -> float:
    """An upper bound on every variance `_variance` returns for g, at
    any points: signal_var plus what rounding can add, or inf where this
    analysis gives no bound.

    With n training points, u = eps / 2 the unit roundoff, sv the signal
    and nv the noise variance, K = kernel + nv I has eigenvalues >= nv.
    - The matrix that was factored differs from K by at most
      (dim + 8) u (sv + nv) per entry (the distance sum, exp, the product
      with sv and the diagonal add), and the Cholesky solve returns x
      with (K~ + E) x = k, |E| <= gamma_{3n+1} |L||L'| (Higham 2002,
      Accuracy and Stability of Numerical Algorithms, Thm 10.4), where
      each row of L has norm sqrt(sv + nv). So the symmetric part of
      K~ + E has eigenvalues >= mu = nv - n (3n + dim + 10) u (sv + nv).
    - For mu > 0 the exact k'x = x'(K~ + E)x is >= 0, and
      ||x|| <= ||k|| / mu with ||k||^2 <= n sv^2.
    - The rounded product-and-sum k'x is off by <= (n + 1) u ||k|| ||x||,
      so it is >= -n eps n sv^2 / mu, and the variance, one rounded
      subtraction, is <= (sv + n^2 eps sv^2 / mu) (1 + u).
    The bound below doubles every rounding term, and its own rounding
    is covered by the final factor. At the desk profile's surrogates
    (n <= 40, nv >= 1e-8 sv) it is at most sv (1 + 8e-5).
    """
    n, dim = g.train_x.shape
    eps = np.finfo(float).eps
    mu = g.noise_var - n * (3 * n + dim + 10) * eps * (g.signal_var + g.noise_var)
    if mu <= 0:
        return np.inf
    return (g.signal_var + 2 * n * n * eps * g.signal_var**2 / mu) * (1 + 2 * eps)


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


def _training_data(train_x, train_f) -> tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    f = np.asarray(train_f, dtype=float)
    _check_rows(x, f)
    for name, arr in (("train_x", x), ("train_f", f)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training points")
    if not np.any(x != x[0]):
        raise ValueError("need at least 2 distinct training points")
    return x, f


def _log_params(name: str, value, dim: int) -> np.ndarray:
    p = np.asarray(value, dtype=float)
    if p.shape != (dim + 1,) or not np.all(np.isfinite(p)):
        raise ValueError(
            f"{name} must be {dim + 1} finite values (log lengthscales, log noise ratio), "
            f"got {value!r}"
        )
    return p


class _Likelihood:
    """The closed-form step of the log marginal likelihood on one
    training set, which `fit` searches with and `build` takes once.

    The values are standardised; a constant set is degenerate and keeps
    scale 1. At log parameters p (log lengthscales, log noise ratio) the
    step builds the unit-signal kernel, adds the noise ratio floored at
    NOISE_RATIO_FLOOR to its diagonal, factors it and takes the signal
    variance g'K^-1 g / n that maximises the likelihood for that p.
    """

    def __init__(self, x: np.ndarray, f: np.ndarray):
        self.x, self.f = x, f
        n, self.dim = x.shape
        self.f_mean = f.mean()
        self.f_scale = f.std()
        self.degenerate = self.f_scale == 0
        if self.degenerate:
            self.f_scale = 1.0
        self.g = (f - self.f_mean) / self.f_scale
        self.d2_flat = ((x[:, None, :] - x[None, :, :]) ** 2).reshape(n * n, self.dim)
        self.const = 0.5 * n * (1.0 + np.log(2 * np.pi))
        # Unit-signal kernel per lengthscale vector, flat; a step that moves only
        # the noise ratio reuses it. Adding the ratio to a copy's diagonal gives
        # the floats `+ ratio * eye` gave: its off-diagonal adds were + 0.0.
        self.kernels = {}

    def __call__(self, logp: np.ndarray) -> tuple[float, float]:
        """Negative log likelihood and standardised signal variance at
        `logp`; (inf, 1.0) where the kernel does not factor."""
        n, dim, g = self.g.shape[0], self.dim, self.g
        key = logp[:dim].tobytes()
        if key not in self.kernels:
            self.kernels[key] = np.exp(-(self.d2_flat @ np.exp(-logp[:dim])))
        b = self.kernels[key].copy()
        b[:: n + 1] += max(np.exp(logp[dim]), NOISE_RATIO_FLOOR)
        try:
            c = cho_factor(b.reshape(n, n))
        except np.linalg.LinAlgError:
            return np.inf, 1.0
        alpha, info = dpotrs(c, g, lower=1)
        if info != 0:
            return np.inf, 1.0
        sv = max(g @ alpha / n, 1e-12)
        return 0.5 * n * np.log(sv) + np.log(c.diagonal()).sum() + self.const, sv

    def surrogate(self, logp: np.ndarray, sv: float) -> GpSurrogate:
        """The surrogate at `logp` with standardised signal variance `sv`;
        a degenerate set gets unit signal and the floor noise ratio."""
        ratio = max(np.exp(logp[self.dim]), NOISE_RATIO_FLOOR)
        sv = sv * self.f_scale**2
        if self.degenerate:
            sv = 1.0
            ratio = NOISE_RATIO_FLOOR
        return GpSurrogate(
            train_x=self.x,
            train_f=self.f,
            lengthscales=np.exp(logp[: self.dim]),
            signal_var=sv,
            noise_var=ratio * sv,
            mean_offset=self.f_mean,
            log_params=logp,
        )


def fit(
    train_x,
    train_f,
    seed: int = 0,
    warm_start=None,
) -> GpSurrogate:
    """Maximum-likelihood surrogate fit.

    Runs FIT_RESTARTS (4) coordinate searches of at most FIT_BUDGET
    steps each over (log lengthscales, log noise ratio); the signal
    variance maximizing the likelihood is computed in closed form at
    every step. The searches start from the default (lengthscales
    span**2 / 4 per coordinate, noise ratio 1e-2), from `warm_start`
    when given, and from uniform draws over the box for the rest: two
    with a warm start, three without. `bo.maximize` passes the previous
    refit's optimum as `warm_start` on each scheduled refit, so a refit
    never ends below the likelihood of that start (clipped to the box).
    Every step counts against the budget, but a point visited before in
    the same fit (by any restart) is looked up, not refactorised.
    Deterministic for a fixed seed.
    """
    x, f = _training_data(train_x, train_f)
    dim = x.shape[1]
    likelihood = _Likelihood(x, f)
    seen = {}

    def neg_loglik(logp):
        key = logp.tobytes()
        if key not in seen:
            seen[key] = likelihood(logp)
        return seen[key]

    spans = np.ptp(x, axis=0)
    spans[spans == 0] = 1.0
    lo = np.concatenate([np.log(1e-4 * spans**2), [np.log(NOISE_RATIO_FLOOR)]])
    hi = np.concatenate([np.log(4e2 * spans**2), [np.log(10.0)]])
    starts = [np.concatenate([np.log(spans**2 / 4), [np.log(1e-2)]])]
    if warm_start is not None:
        starts.append(_log_params("warm_start", warm_start, dim))
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
    return likelihood.surrogate(best_p, best_sv)


def build(train_x, train_f, log_params) -> GpSurrogate:
    """Surrogate at fixed log parameters, with the signal variance in
    closed form: the step `fit` takes at each point of its search, taken
    once. At `fit(x, f).log_params` it returns `fit`'s surrogate field
    for field; `bo.maximize` uses it between refits.
    """
    x, f = _training_data(train_x, train_f)
    p = _log_params("log_params", log_params, x.shape[1])
    likelihood = _Likelihood(x, f)
    val, sv = likelihood(p)
    if not np.isfinite(val):
        raise ValueError("training covariance does not factor at log_params")
    return likelihood.surrogate(p, sv)
