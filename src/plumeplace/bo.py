"""Bayesian optimization with expected improvement over a GP surrogate.

The loop evaluates a Latin-hypercube initial design, then alternates
updating the surrogate, maximizing expected improvement, and evaluating
the objective at the proposal. The surrogate's hyperparameters are
refitted by maximum likelihood on every REFIT_EVERY-th iteration only,
starting with the first; the iterations in between rebuild it on the
grown data at the last refit's log parameters, with the signal variance
in closed form (`gp.build`). Acquisition maximization scores a
low-discrepancy candidate set and polishes the best candidate with a
local coordinate search: at each coordinate the step up, then the step
down. The points a sweep can reach are known before it starts (a
coordinate's pair of steps from each point the coordinates before it may
have moved to: 3**dim - 1 of them, 8 in the plane), so a sweep scores them
all in one surrogate prediction and then walks its moves, 10 predictions
per proposal. That count grows threefold per coordinate, so a BoConfig
box has at most MAX_BO_DIM = 3 coordinates (26 points per sweep). Each
pair's mean is its own 2-row product, as the mean's rounding depends on
the row count, so the walk reads the floats of predicting each pair in
turn. Everything is deterministic for a fixed seed.

Only the candidates that can win are scored exactly. EI grows with the
predictive sigma, and no computed variance exceeds the surrogate's
`gp._variance_ceiling`: the signal variance plus a rounding bound, at
most 8e-5 of it at the desk profile. So EI at that ceiling, widened by
a rounding margin of EI_MARGIN = 1e-12 relative plus 1e-12 sigma
(`_ei_bound` derives it), bounds every candidate's EI from above.
Every candidate's kernel row and mean are computed once; the
SCREEN_HEAD (64) candidates of highest bound are scored exactly (their
variance is the costly part), then every other candidate whose bound
reaches the best exact score. A candidate left out scores strictly
below the best, so the argmax, its index among ties and its score are
those of scoring all of them. At the desk profile (seed 0) the median
proposal scores 5 % of its 2,048 candidates exactly and the mean one
26 %, as early iterations' posteriors leave more candidates in reach.
A flat zero-EI posterior leaves every candidate in reach.

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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import gp
from .config import BoConfig

_SQRT_2PI = np.sqrt(2.0 * np.pi)
REFIT_EVERY = 5  # iterations per maximum-likelihood refit of the surrogate
SCREEN_HEAD = 64  # candidates scored exactly before the rest are screened
EI_MARGIN = 1e-12  # relative and absolute rounding margin of the EI bound


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
    with z = (mu - f_best) / sigma. Never negative. Non-finite input and
    a negative sigma raise ValueError naming the argument.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    for name, value in (("mu", mu), ("sigma", sigma), ("f_best", f_best)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")
    if np.any(sigma < 0):
        raise ValueError("sigma must be >= 0")
    out = _ei(mu, sigma, f_best)
    return float(out) if out.ndim == 0 else out


def _ei(mu, sigma, f_best):
    # (mu - f_best)*Phi(z) + sigma*phi(z): same closed form, but stays
    # finite when z overflows at extreme mu/sigma ratios. It runs on the
    # whole arrays; where sigma is zero it is 0/0 or inf * 0, and zeroed.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = mu - f_best
        z = diff / sigma
        ei = diff * ndtr(z) + sigma * np.exp(-0.5 * z * z) / _SQRT_2PI
    return np.maximum(np.where(sigma > 0, ei, 0.0), 0.0)


def _primes(count: int) -> list[int]:
    """The first count primes."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


@functools.lru_cache(maxsize=1)
def _digit_rows(dim: int, n: int) -> tuple[np.ndarray, ...]:
    """Per base of `_halton(dim, n)`, the base-b digits of range(n) as
    rows, least significant first, up to the last nonzero digit of
    n - 1. Read-only, and kept for the last (dim, n) only: 0.3 MB at
    the desk profile's (2, 2048)."""
    out = []
    for base in _primes(dim):
        rows, quotient, top = [], np.arange(n), n - 1
        while top:
            rows.append(quotient % base)
            quotient //= base
            top //= base
        digits = np.array(rows, dtype=np.intp).reshape(len(rows), n)
        digits.setflags(write=False)
        out.append(digits)
    return tuple(out)


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
    for d, (base, digits) in enumerate(zip(_primes(dim), _digit_rows(dim, n))):
        perms = np.tile(np.arange(base), (math.ceil(54 / math.log2(base)) - 1, 1))
        # shuffles each row in turn, drawing what a per-row shuffle draws
        rng.permuted(perms, axis=1, out=perms)
        seq, b2r = np.zeros(n), 1.0 / base
        for j, perm in enumerate(perms):
            if j < len(digits):
                seq += (perm * b2r)[digits[j]]
            else:  # every digit is 0 from here on
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


def _exact_ei(surrogate, ks, mean, f_best):
    return _ei(mean, np.sqrt(gp._variance(surrogate, ks)), f_best)


def _ei_bound(surrogate, mean, f_best):
    """Upper bounds on the exact EI of points with means `mean`.

    EI at sigma_max = sqrt(`gp._variance_ceiling`), the largest sigma a
    prediction can return, widened to
    EI(sigma_max) (1 + EI_MARGIN) + EI_MARGIN sigma_max, which covers the
    rounding of both EI evaluations. The mean and the incumbent are the
    same floats in both, so diff = mean - f_best is too. An evaluation
    rounds each term by a few ulps, plus about z^2 u through
    z = diff / sigma; with diff = z sigma, the Mills ratio
    |z| Phi(z) <= phi(z) for z < 0, and z^2 phi(z) <= 0.3, its error is
    at most c u (EI + sigma) with c well below 100. EI is nondecreasing
    in sigma, so the exact EI is at most EI(sigma_max) plus both errors;
    a margin of 2 * 100 u = 2.2e-14 would do, and EI_MARGIN is 45 times
    that.
    """
    sigma_max = np.sqrt(gp._variance_ceiling(surrogate))
    return _ei(mean, sigma_max, f_best) * (1.0 + EI_MARGIN) + EI_MARGIN * sigma_max


def _screened_scores(surrogate, cand, f_best):
    """Exact EI of each candidate that can hold the argmax, -inf for the
    rest: the SCREEN_HEAD of highest `_ei_bound`, then every other one
    whose bound reaches their best score. The means come from one product
    over every candidate, as in `gp.predict`, because a subset's product
    may round a row differently; a subset's variances are the floats of
    computing them all."""
    ks = gp._kernel_rows(surrogate, cand)
    mean = gp._mean(surrogate, ks)
    bound = _ei_bound(surrogate, mean, f_best)
    scores = np.full(len(cand), -np.inf)
    head = np.argsort(bound)[-SCREEN_HEAD:]
    scores[head] = _exact_ei(surrogate, ks[head], mean[head], f_best)
    rest = np.flatnonzero((bound >= scores.max()) & (scores == -np.inf))
    if rest.size:
        scores[rest] = _exact_ei(surrogate, ks[rest], mean[rest], f_best)
    return scores


def propose_next(surrogate: gp.GpSurrogate, cfg: BoConfig, f_best: float, seed: int) -> np.ndarray:
    """EI argmax over a Halton candidate set seeded by `seed`, plus local polish.

    The candidates are `_halton(dim, acq_candidates, seed)` scaled to the
    box, the same points as scipy's `qmc.Halton(dim, seed=seed)`. The
    argmax and its EI are those of scoring every candidate with
    `gp.predict`, but only the candidates whose EI bound reaches the best
    exact score are scored exactly (see the module docstring): the
    SCREEN_HEAD (64) of highest bound, then any other that could still
    win. So a proposal makes one or two exact candidate passes.

    The polish makes 10 sweeps over the coordinates. At each coordinate
    it takes the step up and the step down (each clipped to the box), and
    moves to the step up if it strictly improves EI, else to the step
    down if that does. A sweep without a move halves the steps. A sweep
    first scores every point it can reach (`_sweep_moves`: 3**dim - 1,
    8 in the plane; BoConfig refuses a box of more than MAX_BO_DIM = 3
    coordinates, 26 points) in one prediction, each pair's mean
    from its own 2-row product, then walks the moves: the moves and the
    point of predicting each coordinate's pair in turn, with 10 polish
    predictions per proposal. Ties (e.g. a flat zero-EI posterior)
    resolve to the first candidate in index order. A non-finite f_best
    raises ValueError.
    """
    if not np.isfinite(f_best):
        raise ValueError(f"f_best must be finite, got {f_best!r}")
    box = cfg.domain
    dim = box.shape[0]
    cand = _scale(_halton(dim, cfg.acq_candidates, seed), box)
    scores = _screened_scores(surrogate, cand, f_best)
    best = int(np.argmax(scores))
    x, val = cand[best].copy(), scores[best]
    step = 0.05 * (box[:, 1] - box[:, 0])
    for _ in range(10):
        # each coordinate's value with no move, after its step up or down
        choices = np.vstack([x, np.clip(x + np.array([step, -step]), box[:, 0], box[:, 1])])
        pts = choices[_sweep_moves(dim), np.arange(dim)]
        ks = gp._kernel_rows(surrogate, pts)
        # matmul runs one matrix-vector product per stacked pair, so each
        # pair's means are the floats of predicting that pair alone
        mean = gp._mean(surrogate, ks.reshape(-1, 2, ks.shape[1])).ravel()
        v = _exact_ei(surrogate, ks, mean, f_best)
        improved, origin = False, 0
        for j in range(dim):
            up = 3**j - 1 + 2 * origin  # the row of this origin's step up
            move = 0
            for r in (up, up + 1):
                if v[r] > val + 1e-15:
                    x, val = pts[r], v[r]
                    move = 1 + r - up
                    improved = True
                    break
            origin = 3 * origin + move
        if not improved:
            step = step * 0.5
    return x


@functools.lru_cache(maxsize=1)
def _sweep_moves(dim: int) -> np.ndarray:
    """The moves behind every point a polish sweep in dim coordinates can
    score, as read-only (3**dim - 1, dim) rows of 0 (no move), 1 (step
    up) or 2 (step down) per coordinate: for each coordinate j in turn,
    and for each of the 3**j moves o the coordinates before j may have
    made, j's step up and then its step down. o is read in base 3,
    coordinate 0 first, so its pair is rows 3**j - 1 + 2 o and the row
    after."""
    rows = []
    for j in range(dim):
        pair = np.zeros((2 * 3**j, dim), dtype=np.intp)
        pair[:, :j] = np.repeat(list(itertools.product(range(3), repeat=j)), 2, axis=0)
        pair[:, j] = np.tile([1, 2], 3**j)
        rows.append(pair)
    moves = np.concatenate(rows)
    moves.setflags(write=False)
    return moves


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
