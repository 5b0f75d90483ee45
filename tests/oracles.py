"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (quadratic scans, dense solves,
the checked scipy.linalg wrappers, adaptive quadrature, scalar puff
stepping) and shares no code with the library paths it checks. Two
exceptions check that a reorganisation of the library's work changes
nothing, so they run the library's smaller calls: per_job_compare runs
each of a placement's conditions alone through the one-condition calls,
and per_instant_trajectories makes one log_concentrations_at call per
observation instant.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve
from scipy.special import digamma as _digamma
from scipy.special import ndtr

from plumeplace.dispersion import log_concentrations_at
from plumeplace.enkf import assimilate_run
from plumeplace.evaluate import draw_conditions
from plumeplace.mi import knn_entropy


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


def se_kernel(x, x2, ls, signal_var: float = 1.0) -> float:
    """Squared-exponential covariance between two points."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    ls = np.asarray(ls, dtype=float)
    if x.shape != x2.shape:
        raise ValueError("point dimensions must match")
    if np.any(ls <= 0):
        raise ValueError("lengthscales must be > 0")
    return float(signal_var * np.exp(-np.sum((x - x2) ** 2 / ls)))


def se_matrix(a, b, lengthscales, signal_var):
    """Squared-exponential covariance matrix, the squared coordinate
    differences summed over the last axis of an (m, n, dim) stack."""
    d2 = (a[:, None, :] - b[None, :, :]) ** 2
    return signal_var * np.exp(-np.sum(d2 / lengthscales, axis=-1))


def dense_gp_predict(train_x, train_f, lengthscales, signal_var, noise_var, mean_offset, x_new):
    """GP prediction by direct dense solve, no factorization reuse."""
    train_x = _as2d(train_x)
    x_new = _as2d(x_new)

    def kmat(a, b):
        return se_matrix(a, b, lengthscales, signal_var)

    k_tt = kmat(train_x, train_x) + noise_var * np.eye(len(train_x))
    k_nt = kmat(x_new, train_x)
    centered = np.asarray(train_f, dtype=float) - mean_offset
    mean = mean_offset + k_nt @ np.linalg.solve(k_tt, centered)
    cov = kmat(x_new, x_new) - k_nt @ np.linalg.solve(k_tt, k_nt.T)
    return mean, np.maximum(np.diag(cov), 0.0)


def cho_solve_gp_predict(
    train_x, train_f, lengthscales, signal_var, noise_var, mean_offset, x_new
):
    """GP prediction through the checked scipy.linalg Cholesky wrappers."""
    train_x = _as2d(train_x)
    x_new = _as2d(x_new)
    k_tt = se_matrix(train_x, train_x, lengthscales, signal_var)
    k_tt[np.diag_indices(len(train_x))] += noise_var
    chol = cho_factor(k_tt, lower=True)
    k_nt = se_matrix(x_new, train_x, lengthscales, signal_var)
    mean = mean_offset + k_nt @ cho_solve(chol, np.asarray(train_f, dtype=float) - mean_offset)
    var = signal_var - np.sum(k_nt * cho_solve(chol, k_nt.T).T, axis=1)
    return mean, np.maximum(var, 0.0)


def gp_neg_log_likelihood(train_x, train_f, log_params, signal_var=None):
    """Negative log marginal likelihood that a GP fit minimizes, by a
    checked Cholesky solve: the values standardized, unit-signal kernel
    exp(-sum_j d_j^2 / ls_j) with ls = exp(log_params[:-1]), noise ratio
    exp(log_params[-1]) floored at 1e-8, times the signal variance of the
    standardized values: `signal_var` when given, else its closed-form
    optimum."""
    x = _as2d(train_x)
    f = np.asarray(train_f, dtype=float)
    g = (f - f.mean()) / f.std()
    n = len(g)
    k = se_matrix(x, x, np.exp(log_params[:-1]), 1.0)
    k += max(np.exp(log_params[-1]), 1e-8) * np.eye(n)
    chol = cho_factor(k, lower=True)
    quad = g @ cho_solve(chol, g)
    sv = quad / n if signal_var is None else signal_var
    return (
        0.5 * quad / sv
        + 0.5 * n * np.log(sv)
        + np.log(np.diag(chol[0])).sum()
        + 0.5 * n * np.log(2 * np.pi)
    )


def sequential_polish(score, x, val, box):
    """Coordinate polish of a start point x with score val inside box,
    scoring one point per call, in 10 sweeps: at each coordinate the
    step up, then, if that does not strictly gain, the step down; a sweep
    without a move halves the steps (first 5 % of each box side)."""
    x = np.array(x, dtype=float)
    step = 0.05 * (box[:, 1] - box[:, 0])
    for _ in range(10):
        improved = False
        for j in range(len(x)):
            for sign in (1.0, -1.0):
                y = x.copy()
                y[j] = min(max(x[j] + sign * step[j], box[j, 0]), box[j, 1])
                v = score(y)
                if v > val + 1e-15:
                    x, val = y, v
                    improved = True
                    break
        if not improved:
            step = step * 0.5
    return x


def quad_expected_improvement(mu, sigma, f_best):
    """EI by adaptive quadrature of (y - f_best) against the Gaussian
    density of the belief, from f_best to infinity."""

    def integrand(y):
        z = (y - mu) / sigma
        return (y - f_best) * np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))

    return quad(integrand, f_best, np.inf, epsabs=1e-13, epsrel=1e-13)[0]


def masked_expected_improvement(mu, sigma, f_best):
    """Closed-form EI evaluated only where sigma > 0, on gathered
    elements, and zero elsewhere."""
    mu_b, sigma_b = np.broadcast_arrays(np.asarray(mu, float), np.asarray(sigma, float))
    out = np.zeros(mu_b.shape)
    pos = sigma_b > 0
    diff = mu_b[pos] - f_best
    with np.errstate(over="ignore"):
        z = diff / sigma_b[pos]
        out[pos] = diff * ndtr(z) + sigma_b[pos] * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return np.maximum(out, 0.0)


def eigh_first_canonical(q, d, ridge=1e-8):
    """First canonical pair by symmetric inverse square-root whitening:
    eigh of each standardized block covariance plus the library's ridge.
    Returns (alpha, beta, rho1); the directions apply to the raw data and
    their common sign is not fixed."""
    q = _as2d(q)
    d = _as2d(d)
    n = len(q)

    def standardized(x):
        std = x.std(axis=0, ddof=1)
        std = np.where(std > 0, std, 1.0)
        return (x - x.mean(axis=0)) / std, std

    def inv_sqrt(cov):
        w, v = np.linalg.eigh(cov + ridge * np.eye(len(cov)))
        return (v / np.sqrt(w)) @ v.T

    qs, q_scale = standardized(q)
    ds, d_scale = standardized(d)
    wq = inv_sqrt(qs.T @ qs / (n - 1))
    wd = inv_sqrt(ds.T @ ds / (n - 1))
    u, s, vt = np.linalg.svd(wq @ (qs.T @ ds / (n - 1)) @ wd)
    return (wq @ u[:, 0]) / q_scale, (wd @ vt[0]) / d_scale, float(s[0])


def sweep_first_correlation(q, d, n_angles=20001):
    """Best |correlation| between 1D q and a swept direction in 2D d."""
    q = np.asarray(q, dtype=float).ravel()
    best = -1.0
    for theta in np.linspace(0.0, np.pi, n_angles):
        proj = d @ np.array([np.cos(theta), np.sin(theta)])
        best = max(best, abs(np.corrcoef(q, proj)[0, 1]))
    return best


@dataclass(frozen=True)
class PuffState:
    """One puff: center (x, y), travelled distance s, radius r, mass.

    r is tied to s through r = p_y * s**q_y once the puff has moved;
    a freshly released puff has s = r = 0 and must receive a transport
    step before it can contribute concentration. Mass never changes.
    """

    x: float
    y: float
    s: float
    r: float
    mass: float

    def __post_init__(self):
        if self.s < 0 or self.r < 0:
            raise ValueError("puff distance and radius must be >= 0")
        if self.mass < 0:
            raise ValueError("puff mass must be >= 0")


def step_puff(p, cfg, wind_dir, dt):
    """Advance one puff by one transport step of dt seconds under the
    heading wind_dir (radians), with the wind speed and diffusion
    constants of cfg."""
    s = p.s + cfg.wind_speed_m_s * dt
    return PuffState(
        x=p.x + cfg.wind_speed_m_s * math.cos(wind_dir) * dt,
        y=p.y + cfg.wind_speed_m_s * math.sin(wind_dir) * dt,
        s=s,
        r=cfg.p_y * s**cfg.q_y,
        mass=p.mass,
    )


def concentration(puffs, at) -> float:
    """Total concentration at a point: sum of all puff Gaussians.

    Rejects puffs with r = 0, which signals a puff queried before its
    first transport step; callers filter those out instead.
    """
    x, y = float(at[0]), float(at[1])
    total = 0.0
    for p in puffs:
        if p.r <= 0:
            raise ValueError("puff with r=0 queried before its first step")
        d2 = (p.x - x) ** 2 + (p.y - y) ** 2
        total += p.mass / (2 * math.pi * p.r**2) * math.exp(-d2 / (2 * p.r**2))
    return total


def stepped_observations(cfg, truth, sensors, rng_seed):
    """simulate_observations by stepping scalar puffs one observation
    interval dt per instant of cfg.times().

    truth is the (release_y, wind_dir) row. At each observation instant
    all active puffs take one transport step of dt seconds, then the
    puffs of cfg.release_times() up to that instant spawn at
    (0, release_y) with s = 0 and mass cfg.release_mass. The config
    releases on its own observation grid, so this is the closed form's
    transport; the noise stream is the same.
    """
    dt = cfg.interval_min * 60.0
    times = cfg.times()
    release_y, wind_dir = (float(v) for v in truth)
    pending = cfg.release_times().tolist()
    puffs = []

    def spawn_through(t):
        while pending and pending[0] <= t:
            pending.pop(0)
            puffs.append(PuffState(x=0.0, y=release_y, s=0.0, r=0.0, mass=cfg.release_mass))

    spawn_through(times[0] - dt)
    log_c = np.empty((len(sensors), len(times)))
    for j, t in enumerate(times):
        puffs[:] = [step_puff(p, cfg, wind_dir, dt) for p in puffs]
        spawn_through(t)
        live = [p for p in puffs if p.r > 0]
        for i, sensor in enumerate(sensors):
            log_c[i, j] = math.log(max(concentration(live, sensor), cfg.conc_floor))
    rng = np.random.default_rng(rng_seed)
    return log_c + rng.normal(cfg.noise_mean, cfg.noise_std, log_c.shape)


def per_instant_trajectories(cfg, params, sensors):
    """Noise-free (n_members, n_sensors, n_times) trajectories of the
    (n_members, 2) parameter rows, one log_concentrations_at call per
    instant of cfg.times(), stacked on the last axis."""
    release_y, wind_dir = np.asarray(params, dtype=float).T
    return np.stack(
        [log_concentrations_at(cfg, release_y, wind_dir, sensors, t) for t in cfg.times()],
        axis=-1,
    )


def np_exp_footprint(puffs, sx, sy):
    """dispersion._footprint with np.exp over the whole array, as it was
    before the exact exponential that skips numpy's per-lane slow path."""
    px, py, two_r2, amp = puffs
    return amp * np.exp(-((px - sx) ** 2 + (py - sy) ** 2) / two_r2)


def per_job_compare(cfg, placements, n_conditions, seed):
    """compare_placements one (placement, condition) job at a time: one
    assimilate_run per job and three knn_entropy calls (release_y,
    wind_dir, joint) per step, with the seeds compare_placements derives.
    Returns the (n_conditions, n_steps, 3) traces by name and the prior
    entropy triplet."""
    conditions = draw_conditions(cfg, n_conditions, seed)
    knn = cfg.knn()
    run_seeds = np.random.SeedSequence([seed, 0x3A55]).generate_state(n_conditions)

    def triplet(theta):
        return (knn_entropy(theta[:, 0], knn), knn_entropy(theta[:, 1], knn),
                knn_entropy(theta, knn))

    prior_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9910]))
    prior_entropy = triplet(cfg.draw_prior(cfg.enkf_members, prior_rng))

    def run_job(name, ci):
        trace = assimilate_run(cfg, placements[name], conditions[ci], int(run_seeds[ci]))
        return np.array([triplet(theta) for theta in trace.thetas])

    traces = {
        name: np.stack([run_job(name, ci) for ci in range(n_conditions)])
        for name in placements
    }
    return traces, prior_entropy
