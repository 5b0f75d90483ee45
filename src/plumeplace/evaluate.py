"""Placement scoring: assimilate simulated accidents, track entropy.

A placement is judged by the posterior uncertainty it leaves behind:
for a set of initial conditions drawn from the prior, each placement
assimilates the simulated data and the per-step entropy of the
parameter ensemble is estimated. The prior-weighted average over
conditions (uniform here, since conditions are prior draws) gives the
conditional entropy used for ranking.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .dispersion import ScenarioParams
from .enkf import assimilate_run
from .mi import KnnConfig, knn_entropy

ENTROPY_COLUMNS = ("release_y", "wind_dir", "joint")


def conditional_entropy(traces, weights) -> float:
    """Weighted average of per-condition entropies.

    weights must be nonnegative and sum to one, one weight per entropy.
    """
    traces = np.asarray(traces, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if traces.shape != weights.shape:
        raise ValueError("one weight per entropy value is required")
    if np.any(weights < 0):
        raise ValueError("weights must be >= 0")
    if not np.isclose(weights.sum(), 1.0, atol=1e-9):
        raise ValueError("weights must sum to 1")
    return float(np.sum(weights * traces))


def _entropy_triplet(theta: np.ndarray, knn: KnnConfig) -> tuple[float, float, float]:
    return (
        knn_entropy(theta[:, 0], knn),
        knn_entropy(theta[:, 1], knn),
        knn_entropy(theta, knn),
    )


def draw_conditions(cfg: ExperimentConfig, n_conditions: int, seed: int) -> list[ScenarioParams]:
    """Simulated accidents: one prior draw per condition."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC04D]))
    return [ScenarioParams(*map(float, cfg.draw_prior(1, rng)[0])) for _ in range(n_conditions)]


def random_placements(cfg: ExperimentConfig, count: int, seed: int) -> dict:
    """Uniformly random sensor sets over the domain, for comparison."""
    if count < 0:
        raise ValueError(f"random placement count must be >= 0, got {count}")
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
    conditions: list[ScenarioParams]
    times: np.ndarray
    traces: dict  # name -> (n_conditions, n_steps, 3)
    prior_entropy: tuple[float, float, float]

    def conditional(self, name: str) -> np.ndarray:
        """(n_steps, 3) uniform-weighted entropy trace for one placement."""
        runs = self.traces[name]
        weights = np.full(runs.shape[0], 1.0 / runs.shape[0])
        return np.array(
            [
                [conditional_entropy(runs[:, t, c], weights) for c in range(3)]
                for t in range(runs.shape[1])
            ]
        )

    def final_release_entropy(self, name: str) -> float:
        return float(self.conditional(name)[-1, 0])

    def ranking(self) -> list[str]:
        """Placement names, best (lowest final release entropy) first."""
        return sorted(self.placements, key=self.final_release_entropy)

    def to_dict(self) -> dict:
        return {
            "prior_entropy": dict(zip(ENTROPY_COLUMNS, self.prior_entropy)),
            "conditions": [
                {"release_y_m": c.release_y, "wind_dir_rad": c.wind_dir}
                for c in self.conditions
            ],
            "placements": {
                name: {
                    "locations_m": [list(loc) for loc in locs],
                    "final_conditional_entropy": dict(
                        zip(ENTROPY_COLUMNS, self.conditional(name)[-1])
                    ),
                }
                for name, locs in self.placements.items()
            },
            "ranking": self.ranking(),
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_traces_csv(self, path) -> None:
        """Plot-ready long format: one row per placement, step and measure."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["placement", "t_s", "measure", "conditional_entropy_nats"])
            for name in self.placements:
                agg = self.conditional(name)
                for ti, t in enumerate(self.times):
                    for ci, col in enumerate(ENTROPY_COLUMNS):
                        writer.writerow([name, repr(float(t)), col, repr(float(agg[ti, ci]))])


def compare_placements(
    cfg: ExperimentConfig,
    placements: dict,
    n_conditions: int,
    seed: int,
) -> EvaluationReport:
    """Assimilate every (placement, condition) pair and aggregate.

    Per-condition seeds are shared across placements, so a placement
    listed twice under different names produces identical traces.
    """
    if len(placements) < 2:
        raise ValueError("need at least two placements to compare")
    if n_conditions < 1:
        raise ValueError(f"n_conditions must be >= 1, got {n_conditions}")
    conditions = draw_conditions(cfg, n_conditions, seed)
    knn = cfg.knn()
    run_seeds = np.random.SeedSequence([seed, 0x3A55]).generate_state(n_conditions)

    prior_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9910]))
    prior_entropy = _entropy_triplet(cfg.draw_prior(cfg.enkf_members, prior_rng), knn)

    def run_job(name, ci):
        trace = assimilate_run(cfg, placements[name], conditions[ci], int(run_seeds[ci]))
        return np.array([_entropy_triplet(theta, knn) for theta in trace.thetas])

    n_steps = len(cfg.times())
    traces = {
        name: np.stack([run_job(name, ci) for ci in range(n_conditions)])
        for name in placements
    }
    assert all(t.shape == (n_conditions, n_steps, 3) for t in traces.values())
    return EvaluationReport(
        placements=dict(placements),
        conditions=conditions,
        times=cfg.times(),
        traces=traces,
        prior_entropy=prior_entropy,
    )
