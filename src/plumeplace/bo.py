"""Bayesian optimization with expected improvement over a GP surrogate.

The loop evaluates a Latin-hypercube initial design, then alternates
refitting the surrogate, maximizing expected improvement, and evaluating
the objective at the proposal. Acquisition maximization scores a
low-discrepancy candidate set and polishes the best candidate with a
local coordinate search that scores the two steps along a coordinate,
up then down, in one surrogate prediction. Everything is deterministic
for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import gp

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class ObjectiveError(RuntimeError):
    """Objective evaluation failed; carries the offending point."""

    def __init__(self, point, cause):
        super().__init__(f"objective failed at {np.asarray(point)!r}: {cause}")
        self.point = np.asarray(point, dtype=float)


@dataclass(frozen=True)
class BoConfig:
    """Search box and loop sizes for the optimization."""

    domain: np.ndarray  # (dim, 2) box bounds
    init_count: int = 10
    iter_count: int = 30
    acq_candidates: int = 2048

    def __post_init__(self):
        box = np.atleast_2d(np.asarray(self.domain, dtype=float))
        if box.ndim != 2 or box.shape[1] != 2:
            raise ValueError("domain must be a (dim, 2) array of bounds")
        if np.any(box[:, 1] <= box[:, 0]):
            raise ValueError("domain box is degenerate")
        object.__setattr__(self, "domain", box)
        if self.init_count < 2:
            raise ValueError("init_count must be >= 2")
        if self.iter_count < 0:
            raise ValueError("iter_count must be >= 0")
        if self.acq_candidates < 1:
            raise ValueError("acq_candidates must be >= 1")


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
    out = np.zeros(np.broadcast(mu, sigma).shape)
    mu_b, sigma_b = np.broadcast_arrays(mu, sigma)
    pos = sigma_b > 0
    diff = mu_b[pos] - f_best
    # (mu - f_best)*Phi(z) + sigma*phi(z): same closed form, but stays
    # finite when z overflows at extreme mu/sigma ratios
    with np.errstate(over="ignore"):
        z = diff / sigma_b[pos]
        out[pos] = diff * ndtr(z) + sigma_b[pos] * np.exp(-0.5 * z * z) / _SQRT_2PI
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out


def _ei_at(surrogate, pts, f_best):
    mean, var = gp.predict(surrogate, pts)
    return expected_improvement(mean, np.sqrt(var), f_best)


def propose_next(surrogate: gp.GpSurrogate, cfg: BoConfig, f_best: float, seed: int) -> np.ndarray:
    """EI argmax over a Halton candidate set seeded by `seed`, plus local polish.

    The polish makes 10 sweeps over the coordinates. At each coordinate
    it scores the step up and the step down (each clipped to the box) in
    one `gp.predict` call, and moves to the step up if it strictly
    improves EI, else to the step down if that does. A sweep without a
    move halves the steps. So a proposal makes 1 + 10 * dim predictions.
    Ties (e.g. a flat zero-EI posterior) resolve to the first candidate
    in index order.
    """
    from scipy.stats import qmc  # imported here: it is most of the library's start-up

    box = cfg.domain
    dim = box.shape[0]
    cand = qmc.scale(qmc.Halton(dim, seed=seed).random(cfg.acq_candidates), box[:, 0], box[:, 1])
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

    The incumbent is the best of all init_count + iter_count
    evaluations. Objective exceptions surface as ObjectiveError with the
    failing point attached, and so does a non-finite objective value.
    """
    from scipy.stats import qmc

    box = cfg.domain
    dim = box.shape[0]
    root = np.random.SeedSequence(seed)
    ss_init, ss_fit, ss_acq = root.spawn(3)

    lhs = qmc.LatinHypercube(dim, seed=np.random.default_rng(ss_init))
    points = list(qmc.scale(lhs.random(cfg.init_count), box[:, 0], box[:, 1]))
    values = []
    for p in points:
        values.append(_evaluate(objective, p))

    fit_seeds = ss_fit.generate_state(max(cfg.iter_count, 1))
    acq_seeds = ss_acq.generate_state(max(cfg.iter_count, 1))
    warm = None
    for it in range(cfg.iter_count):
        surrogate = gp.fit(
            np.asarray(points), np.asarray(values), seed=int(fit_seeds[it]), warm_start=warm
        )
        warm = surrogate.log_params
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
