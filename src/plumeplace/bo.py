"""Bayesian optimization with expected improvement over a GP surrogate.

The loop evaluates a Latin-hypercube initial design, then alternates
updating the surrogate, maximizing expected improvement, and evaluating
the objective at the proposal. The surrogate's hyperparameters are
refitted by maximum likelihood on every REFIT_EVERY-th iteration only,
starting with the first; the iterations in between rebuild it on the
grown data at the last refit's log parameters, with the signal variance
in closed form (`gp.build`). Acquisition maximization scores a
low-discrepancy candidate set and polishes the best candidate with a
local coordinate search that scores the two steps along a coordinate,
up then down, in one surrogate prediction. Everything is deterministic
for a fixed seed.

Both designs are drawn here in numpy: the candidates by Owen's
randomized Halton algorithm (Owen 2017, arXiv:1706.02808), the initial
design by a scrambled Latin hypercube. They equal, draw for draw, the
`scipy.stats.qmc` samplers `Halton(dim, seed=seed)` and
`LatinHypercube(dim, seed=rng)`, which the tests hold them to; the
library itself never imports `scipy.stats`.

The search box and loop sizes, `BoConfig`, are defined in `config`,
which owns every setting and its input rules; bo imports the class from
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import gp
from .config import BoConfig

_SQRT_2PI = np.sqrt(2.0 * np.pi)
REFIT_EVERY = 5  # iterations per maximum-likelihood refit of the surrogate


class ObjectiveError(RuntimeError):
    """Objective evaluation failed; carries the offending point."""

    def __init__(self, point, cause):
        super().__init__(f"objective failed at {np.asarray(point)!r}: {cause}")
        self.point = np.asarray(point, dtype=float)


@dataclass
class BoTrace:
    """Evaluated points and values in evaluation order."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.values = np.asarray(self.values, dtype=float)


def expected_improvement(mu, sigma, f_best: float):
    """Closed-form EI of a Gaussian belief over the incumbent f_best.

    Zero wherever sigma is zero; otherwise sigma*(z*Phi(z) + phi(z))
    with z = (mu - f_best) / sigma. Never negative.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("sigma must be >= 0")
    # (mu - f_best)*Phi(z) + sigma*phi(z): same closed form, but stays
    # finite when z overflows at extreme mu/sigma ratios. It runs on the
    # whole arrays; where sigma is zero it is 0/0 or inf * 0, and zeroed.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = mu - f_best
        z = diff / sigma
        ei = diff * ndtr(z) + sigma * np.exp(-0.5 * z * z) / _SQRT_2PI
    out = np.maximum(np.where(sigma > 0, ei, 0.0), 0.0)
    return float(out) if out.ndim == 0 else out


def _primes(count: int) -> list[int]:
    """The first count primes."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton(dim: int, n: int, seed: int) -> np.ndarray:
    """(n, dim) points of Owen's randomized Halton sequence in [0, 1).

    Coordinate d is the base-b radical inverse of the point index, b the
    d-th prime, with its j-th digit mapped through the j-th of
    ceil(54 / log2(b)) - 1 permutations of range(b); the permutations of
    every base come from one default_rng(seed) stream, base by base.
    Equals scipy.stats.qmc.Halton(dim, seed=seed).random(n) bit for bit.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((dim, n))
    for d, base in enumerate(_primes(dim)):
        perms = np.tile(np.arange(base), (math.ceil(54 / math.log2(base)) - 1, 1))
        for perm in perms:
            rng.shuffle(perm)
        quotient, top = np.arange(n), n - 1
        seq, b2r = np.zeros(n), 1.0 / base
        for perm in perms:
            if top:
                seq += perm[quotient % base] * b2r
                quotient //= base
                top //= base
            else:  # every quotient is 0 from here on, so every digit is too
                seq += perm[0] * b2r
            b2r /= base
        out[d] = seq
    # column-major, as scipy returns it, so the layout of the points
    # matches scipy's too; gp's kernel matrix, which sums one coordinate
    # at a time, costs the same on either layout
    return out.T


def _latin_hypercube(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, dim) scrambled Latin hypercube in [0, 1): one point in each of
    the n strata of every coordinate, uniform within its stratum. The
    draws come from a child spawned off rng's seed sequence, so this
    equals scipy.stats.qmc.LatinHypercube(dim, seed=rng).random(n) bit
    for bit."""
    child = rng.spawn(1)[0]
    samples = child.uniform(size=(n, dim))
    perms = np.tile(np.arange(1, n + 1), (dim, 1))
    for perm in perms:
        child.shuffle(perm)
    return (perms.T - samples) / n


def _scale(unit: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Points of the unit cube mapped onto the (dim, 2) box."""
    return unit * (box[:, 1] - box[:, 0]) + box[:, 0]


def _ei_at(surrogate, pts, f_best):
    mean, var = gp.predict(surrogate, pts)
    return expected_improvement(mean, np.sqrt(var), f_best)


def propose_next(surrogate: gp.GpSurrogate, cfg: BoConfig, f_best: float, seed: int) -> np.ndarray:
    """EI argmax over a Halton candidate set seeded by `seed`, plus local polish.

    The candidates are `_halton(dim, acq_candidates, seed)` scaled to the
    box, the same points as scipy's `qmc.Halton(dim, seed=seed)`.

    The polish makes 10 sweeps over the coordinates. At each coordinate
    it scores the step up and the step down (each clipped to the box) in
    one `gp.predict` call, and moves to the step up if it strictly
    improves EI, else to the step down if that does. A sweep without a
    move halves the steps. So a proposal makes 1 + 10 * dim predictions.
    Ties (e.g. a flat zero-EI posterior) resolve to the first candidate
    in index order.
    """
    box = cfg.domain
    dim = box.shape[0]
    cand = _scale(_halton(dim, cfg.acq_candidates, seed), box)
    scores = _ei_at(surrogate, cand, f_best)
    best = int(np.argmax(scores))
    x, val = cand[best].copy(), scores[best]
    step = 0.05 * (box[:, 1] - box[:, 0])
    for _ in range(10):
        improved = False
        for j in range(dim):
            pair = np.array([x, x])
            pair[:, j] = np.clip(x[j] + np.array([step[j], -step[j]]), box[j, 0], box[j, 1])
            v = _ei_at(surrogate, pair, f_best)
            gains = np.flatnonzero(v > val + 1e-15)
            if gains.size:
                x, val = pair[gains[0]], v[gains[0]]
                improved = True
        if not improved:
            step = step * 0.5
    return x


def maximize(objective, cfg: BoConfig, seed: int) -> BoTrace:
    """Run the full loop from `seed`: initial design, then iter_count EI proposals.

    The initial design is `_latin_hypercube` of a generator on the first
    child of `seed`'s SeedSequence, the same points as scipy's
    `qmc.LatinHypercube(dim, seed=rng)`.

    Iterations 0, REFIT_EVERY, 2 * REFIT_EVERY, ... refit the surrogate
    with `gp.fit`, seeded per iteration and warm-started at the previous
    refit's optimum; the others build it with `gp.build` at that optimum
    on all points so far. The incumbent is the best of all init_count +
    iter_count evaluations. Objective exceptions surface as
    ObjectiveError with the failing point attached, and so does a
    non-finite objective value.
    """
    box = cfg.domain
    dim = box.shape[0]
    root = np.random.SeedSequence(seed)
    ss_init, ss_fit, ss_acq = root.spawn(3)

    unit = _latin_hypercube(dim, cfg.init_count, np.random.default_rng(ss_init))
    points = list(_scale(unit, box))
    values = []
    for p in points:
        values.append(_evaluate(objective, p))

    fit_seeds = ss_fit.generate_state(max(cfg.iter_count, 1))
    acq_seeds = ss_acq.generate_state(max(cfg.iter_count, 1))
    warm = None
    for it in range(cfg.iter_count):
        train_x, train_f = np.asarray(points), np.asarray(values)
        if it % REFIT_EVERY == 0:
            surrogate = gp.fit(train_x, train_f, seed=int(fit_seeds[it]), warm_start=warm)
            warm = surrogate.log_params
        else:
            surrogate = gp.build(train_x, train_f, warm)
        x = propose_next(surrogate, cfg, max(values), int(acq_seeds[it]))
        points.append(x)
        values.append(_evaluate(objective, x))
    return BoTrace(points=np.asarray(points), values=np.asarray(values))


def _evaluate(objective, point) -> float:
    try:
        value = float(objective(point))
    except Exception as exc:  # noqa: BLE001 - re-raised with context
        raise ObjectiveError(point, exc) from exc
    if not np.isfinite(value):
        raise ObjectiveError(point, f"non-finite value {value}")
    return value
