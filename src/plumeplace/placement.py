"""Greedy multi-sensor selection driven by the projected MI bound.

Sensors are chosen one at a time. Each step maximizes the MI lower
bound between the unknown parameters and the stacked observation
trajectories of the already-fixed sensors plus one candidate, either by
Bayesian optimization over the continuous domain or exhaustively on a
grid. Simulated observations (including their noise realizations) are
cached per location so every candidate comparison sees the same random
world; without that, objective noise across optimizer iterations would
swamp the surrogate.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import bo, dispersion
from .cca import mi_lower_bound
from .config import ExperimentConfig
from .mi import KnnConfig

_NOISE_TAG = 0x6F62  # distinguishes the observation-noise stream


def _location_key(location) -> tuple[float, float]:
    return (float(location[0]), float(location[1]))


def _location_seed(seed: int, key: tuple[float, float]) -> np.random.SeedSequence:
    bits = np.array(key, dtype=np.float64).view(np.uint64)
    return np.random.SeedSequence([seed, _NOISE_TAG, int(bits[0]), int(bits[1])])


@dataclass
class PriorEnsemble:
    """Prior parameter draws plus lazily cached observation trajectories.

    Cache entries are reproducible from (location, seed): the noise
    stream is keyed by the location's coordinate bits, so rebuilding a
    location yields a bit-identical matrix.
    """

    params: np.ndarray  # (n_members, 2): release_y, wind_dir
    meteo: dispersion.MeteoConfig
    observation: dispersion.ObservationModel
    times: np.ndarray
    release_schedule: dispersion.ReleaseSchedule
    knn: KnnConfig
    seed: int
    obs_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_members(self) -> int:
        return self.params.shape[0]

    def trajectories(self, location) -> np.ndarray:
        """(n_members, n_times) noisy log-observations at one location."""
        key = _location_key(location)
        if key not in self.obs_cache:
            rng_seed = _location_seed(self.seed, key)
            self.obs_cache[key] = dispersion.simulate_ensemble(
                self.params,
                self.meteo,
                key,
                self.times,
                self.release_schedule,
                self.observation,
                rng_seed,
            )
        return self.obs_cache[key]


def build_ensemble(cfg: ExperimentConfig, n_members: int, seed: int) -> PriorEnsemble:
    """Draw parameter members from cfg.draw_prior, seeded by `seed`;
    trajectories fill lazily."""
    if n_members < 50:
        raise ValueError("need at least 50 ensemble members")
    return PriorEnsemble(
        params=cfg.draw_prior(n_members, np.random.default_rng(seed)),
        meteo=cfg.meteo(),
        observation=cfg.observation(),
        times=cfg.times(),
        release_schedule=cfg.release_schedule(),
        knn=cfg.knn(),
        seed=seed,
    )


def objective(ens: PriorEnsemble, fixed, candidate) -> float:
    """MI lower bound of (parameters ; stacked sensor trajectories).

    The observation block concatenates the full time trajectories of
    every fixed sensor and the candidate, one row per member.
    """
    blocks = [ens.trajectories(s) for s in fixed]
    blocks.append(ens.trajectories(candidate))
    return mi_lower_bound(ens.params, np.hstack(blocks), ens.knn)


@dataclass
class PlacementResult:
    """Ordered sensor locations with the bound value achieved per step."""

    locations: list[tuple[float, float]]
    bound_values: list[float]
    traces: list = field(default_factory=list, repr=False)
    seed: int = 0
    config_digest: str = ""
    method: str = ""

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "locations_m": [list(loc) for loc in self.locations],
            "bound_values_nats": list(self.bound_values),
            "seed": self.seed,
            "config_digest": self.config_digest,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def load_placement(path) -> PlacementResult:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return PlacementResult(
            locations=[tuple(loc) for loc in doc["locations_m"]],
            bound_values=list(doc["bound_values_nats"]),
            seed=int(doc.get("seed", 0)),
            config_digest=doc.get("config_digest", ""),
            method=doc.get("method", ""),
        )
    except KeyError as exc:
        raise ValueError(f"placement file {path} is missing required key: {exc}") from exc


def greedy_place(
    ens: PriorEnsemble,
    n_sensors: int,
    bo_cfg: bo.BoConfig,
    min_sep: float = 500.0,
) -> PlacementResult:
    """Algorithmic placement: one Bayesian optimization per greedy step.

    An incumbent closer than min_sep to an already-selected sensor is
    rejected in favor of the best trace point that satisfies the
    separation; coincident sensors only duplicate noise columns and
    stall the step.
    """
    if n_sensors < 1:
        raise ValueError("n_sensors must be >= 1")
    selected: list[tuple[float, float]] = []
    bounds: list[float] = []
    traces: list[bo.BoTrace] = []
    step_seeds = np.random.SeedSequence([ens.seed, bo_cfg.seed]).generate_state(n_sensors)
    for i in range(n_sensors):
        step_cfg = replace(bo_cfg, seed=int(step_seeds[i]))
        trace = bo.maximize(lambda p: objective(ens, selected, p), step_cfg)
        pick = None
        for j in np.argsort(trace.values)[::-1]:
            point = trace.points[j]
            if all(np.linalg.norm(point - np.asarray(s)) >= min_sep for s in selected):
                pick = (trace.points[j], float(trace.values[j]))
                break
        if pick is None:
            raise RuntimeError(
                f"no trace point at step {i + 1} satisfies min_sep={min_sep}; "
                "lower the separation or enlarge the domain"
            )
        selected.append(_location_key(pick[0]))
        bounds.append(pick[1])
        traces.append(trace)
    return PlacementResult(
        locations=selected,
        bound_values=bounds,
        traces=traces,
        seed=ens.seed,
        method="bo",
    )


@dataclass(frozen=True)
class GridSpec:
    """Regular node grid covering the domain box."""

    nx: int
    ny: int
    domain: np.ndarray

    def nodes(self) -> list[tuple[float, float]]:
        xs = np.linspace(self.domain[0, 0], self.domain[0, 1], self.nx)
        ys = np.linspace(self.domain[1, 0], self.domain[1, 1], self.ny)
        return [(float(x), float(y)) for x in xs for y in ys]


def grid_place(ens: PriorEnsemble, n_sensors: int, grid: GridSpec) -> PlacementResult:
    """Exhaustive baseline: evaluate every grid node each greedy step.

    Ties resolve to the lexicographically smallest point; selected nodes
    are excluded from later steps. The per-step surfaces are kept in the
    result's traces as (x, y, value) arrays.
    """
    nodes = grid.nodes()
    if not 1 <= n_sensors <= len(nodes):
        raise ValueError(f"n_sensors must be in [1, {len(nodes)}] for this grid, got {n_sensors}")
    selected: list[tuple[float, float]] = []
    bounds: list[float] = []
    surfaces: list[np.ndarray] = []
    for _ in range(n_sensors):
        rows = []
        best = None
        for node in nodes:
            if node in selected:
                continue
            value = objective(ens, selected, node)
            rows.append((node[0], node[1], value))
            # nodes iterate in lexicographic order, so strict > keeps the
            # lexicographically smallest argmax on ties
            if best is None or value > best[1]:
                best = (node, value)
        selected.append(best[0])
        bounds.append(best[1])
        surfaces.append(np.asarray(rows))
    return PlacementResult(
        locations=selected,
        bound_values=bounds,
        traces=surfaces,
        seed=ens.seed,
        method="grid",
    )


def write_surface_csv(result: PlacementResult, path) -> None:
    """Per-step MI surface as x_m, y_m, step, mi_nats rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_m", "y_m", "step", "mi_nats"])
        for step, surface in enumerate(result.traces, start=1):
            for x, y, value in surface:
                writer.writerow([repr(float(x)), repr(float(y)), step, repr(float(value))])
