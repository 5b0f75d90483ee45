"""Placement scoring: assimilate simulated accidents, track entropy.

A placement is judged by the posterior uncertainty it leaves behind:
for a set of initial conditions drawn from the prior, each placement
assimilates the simulated data and the per-step entropy of the
parameter ensemble is estimated. The conditions are prior draws, so the
conditional entropy used for ranking is their uniform average.

A placement's conditions run in lockstep (enkf.assimilate_conditions):
one forward evaluation per instant for all their members and one for
all their truths, one stacked analysis, and per step two knn_entropy
calls: one for both 1D marginals of every condition and one for every
condition's 2D joint. release_y spans kilometres and wind_dir less than
a radian, so a joint's radii are almost always release_y's own, which
knn_entropy certifies without a k-d tree. Each condition keeps its own
streams, so its trace equals a run of that condition alone, bit for bit.
The conditions' EnKF randomness (enkf.draw_accidents) depends on the
sensor count only, so it is drawn once per sensor count, not once per
placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dispersion
from .config import ExperimentConfig, KnnConfig, check_count
from .enkf import assimilate_conditions, draw_accidents
from .enkf import assimilate_run  # noqa: F401  (bench/layers.py wraps this attribute)
from .mi import knn_entropy

ENTROPY_COLUMNS = ("release_y", "wind_dir", "joint")


def _entropy_traces(thetas: np.ndarray, knn: KnnConfig) -> np.ndarray:
    """(C, n_steps, 3) entropies of (n_steps, C, n, 2) parameter ensembles:
    release_y, wind_dir and joint, per condition and step."""
    out = np.empty((thetas.shape[1], thetas.shape[0], 3))
    for i, theta in enumerate(thetas):
        # (C, 2, n, 1): both marginals of every condition in one call
        out[:, i, :2] = knn_entropy(theta.swapaxes(-1, -2)[..., None], knn)
        out[:, i, 2] = knn_entropy(theta, knn)
    return out


def draw_conditions(cfg: ExperimentConfig, n_conditions: int, seed: int) -> np.ndarray:
    """Simulated accidents, an (n_conditions, 2) array of (release_y,
    wind_dir) rows: one prior draw per condition."""
    check_count(n_conditions, "n_conditions", 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC04D]))
    return np.array([cfg.draw_prior(1, rng)[0] for _ in range(n_conditions)]).reshape(-1, 2)


def random_placements(cfg: ExperimentConfig, count: int, seed: int) -> dict:
    """Uniformly random sensor sets over the domain, for comparison."""
    check_count(count, "count", 0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A4D]))
    box = cfg.domain_m()
    out = {}
    for i in range(count):
        pts = np.column_stack(
            [
                rng.uniform(box[0, 0], box[0, 1], cfg.n_sensors),
                rng.uniform(box[1, 0], box[1, 1], cfg.n_sensors),
            ]
        )
        out[f"random-{i:02d}"] = [tuple(p) for p in pts]
    return out


@dataclass
class EvaluationReport:
    """Entropy traces per placement and condition, plus the aggregate."""

    placements: dict
    conditions: np.ndarray  # (n_conditions, 2): release_y, wind_dir
    times: np.ndarray
    traces: dict  # name -> (n_conditions, n_steps, 3)
    prior_entropy: tuple[float, float, float]

    def conditional(self, name: str) -> np.ndarray:
        """(n_steps, 3) conditional entropy trace for one placement: the
        uniform average over conditions, since they are prior draws."""
        runs = self.traces[name]
        # each (step, column) cell sums its scaled conditions over a
        # contiguous last axis: np.sum's pairwise sum of a 1D array
        return np.sum(np.moveaxis(runs * (1.0 / runs.shape[0]), 0, -1).copy(), axis=-1)

    def final_release_entropy(self, name: str) -> float:
        return float(self.conditional(name)[-1, 0])

    def ranking(self) -> list[str]:
        """Placement names, best (lowest final release entropy) first."""
        return sorted(self.placements, key=self.final_release_entropy)


def compare_placements(
    cfg: ExperimentConfig,
    placements: dict,
    n_conditions: int,
    seed: int,
) -> EvaluationReport:
    """Assimilate every (placement, condition) pair and aggregate.

    Each condition's draws (readings' noise stream, prior ensemble and
    perturbations) are shared by every placement of one sensor count,
    so placements are compared on the same random numbers, a
    placement's traces do not depend on the others, and a placement
    listed twice under different names produces identical traces.
    """
    if len(placements) < 2:
        raise ValueError("need at least two placements to compare")
    check_count(n_conditions, "n_conditions")
    cfg.check_entropy_members()
    conditions = draw_conditions(cfg, n_conditions, seed)
    knn = cfg.knn()
    run_seeds = np.random.SeedSequence([seed, 0x3A55]).generate_state(n_conditions)

    prior_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9910]))
    prior = cfg.draw_prior(cfg.enkf_members, prior_rng)
    # the prior as one step of one condition
    prior_entropy = tuple(float(h) for h in _entropy_traces(prior[None, None], knn)[0, 0])

    draws = {}  # sensor count -> the accidents' draws, shared by its placements
    traces = {}
    for name, locs in placements.items():
        sensors = dispersion.sensor_rows(locs, "placement")
        n_sensors = sensors.shape[0]
        if n_sensors not in draws:
            draws[n_sensors] = draw_accidents(cfg, run_seeds, n_sensors)
        thetas = assimilate_conditions(cfg, sensors, conditions, draws[n_sensors])
        traces[name] = _entropy_traces(thetas, knn)
    return EvaluationReport(
        placements=dict(placements),
        conditions=conditions,
        times=cfg.times(),
        traces=traces,
        prior_entropy=prior_entropy,
    )
