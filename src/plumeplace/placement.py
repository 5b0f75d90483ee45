"""Greedy multi-sensor selection driven by the projected MI bound.

Sensors are chosen one at a time. Each step maximizes the MI lower
bound between the unknown parameters and the stacked observation
trajectories of the already-fixed sensors plus one candidate, either by
Bayesian optimization over the continuous domain or exhaustively on a
grid. Simulated observations (including their noise realizations) are
cached per location so every candidate comparison sees the same random
world; without that, objective noise across optimizer iterations would
swamp the surrogate.

The grid (dispersion.GridSpec) fills that cache for all its nodes with
one simulate_ensemble call, one pass over all instants, before its
first step. The ensemble also keeps the CCA factors that do not change
between candidates: the parameter block's, once, and the stacked fixed
sensors' for the last fixed set, so each candidate adds only its own
rows to the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import bo, cca, dispersion
from .config import ExperimentConfig, check_box, check_count
from .dispersion import GridSpec

_NOISE_TAG = 0x6F62  # distinguishes the observation-noise stream


def _location_key(location) -> tuple[float, float]:
    # a finite float pair is a key already and passes without sensor_rows'
    # numpy check (about 10 us): a desk grid call keys about 1,600
    # locations, all of them keys
    if (
        type(location) is tuple
        and len(location) == 2
        and all(type(v) is float and math.isfinite(v) for v in location)
    ):
        return location
    return tuple(dispersion.sensor_rows([location], "location")[0].tolist())


def _location_seed(seed: int, key: tuple[float, float]) -> np.random.SeedSequence:
    bits = np.array(key, dtype=np.float64).view(np.uint64)
    return np.random.SeedSequence([seed, _NOISE_TAG, int(bits[0]), int(bits[1])])


@dataclass
class PriorEnsemble:
    """Prior parameter draws plus lazily cached observation trajectories.

    The config owns every model setting; the ensemble holds only its
    draws, the seed of its noise streams and the caches. Cache entries
    are reproducible from (location, seed): the noise stream is keyed by
    the location's coordinate bits, so rebuilding a point entry yields a
    bit-identical matrix; an entry fill wrote has the same noise, and the
    point path matches it to rounding. An entry, once made, never changes.
    """

    cfg: ExperimentConfig
    params: np.ndarray  # (n_members, 2): release_y, wind_dir
    seed: int
    obs_cache: dict = field(default_factory=dict, repr=False)
    # (locations, cca.Block) of the last fixed sensor set factored
    _fixed: tuple = field(default=((), None), init=False, repr=False)

    def trajectories(self, location) -> np.ndarray:
        """(n_members, n_times) noisy log-observations at one location."""
        key = _location_key(location)
        if key not in self.obs_cache:
            self.obs_cache[key] = dispersion.simulate_ensemble(
                self.cfg, self.params, [key], [_location_seed(self.seed, key)]
            )[0]
        return self.obs_cache[key]

    def fill(self, grid: GridSpec) -> None:
        """Cache every node of grid, unless all are cached already, with one
        pass over all instants of the separable footprint (simulate_ensemble
        on the grid). Each node's entry is a view of one (n_nodes,
        n_members, n_times) array and keeps its own noise stream; a node
        cached before keeps its entry."""
        keys = [_location_key(node) for node in grid.nodes()]
        if all(key in self.obs_cache for key in keys):
            return
        rows = dispersion.simulate_ensemble(
            self.cfg, self.params, grid, [_location_seed(self.seed, key) for key in keys]
        )
        for key, row in zip(keys, rows):
            self.obs_cache.setdefault(key, row)

    @cached_property
    def param_block(self) -> cca.Block:
        """The parameter draws, factored once for CCA."""
        return cca.factor(self.params)

    def fixed_block(self, fixed) -> cca.Block | None:
        """The stacked trajectories of the fixed sensors factored for CCA,
        or None for no sensor. The factor of the last set asked for is
        kept, so a greedy step factors its fixed set once."""
        key = tuple(_location_key(s) for s in fixed)
        if key and self._fixed[0] != key:
            self._fixed = (key, cca.factor(np.hstack([self.trajectories(s) for s in key])))
        return self._fixed[1] if key else None


def build_ensemble(cfg: ExperimentConfig, n_members: int, seed: int) -> PriorEnsemble:
    """Draw parameter members from cfg.draw_prior, seeded by `seed`;
    trajectories fill lazily."""
    check_count(n_members, "n_members", 50)
    return PriorEnsemble(cfg, cfg.draw_prior(n_members, np.random.default_rng(seed)), seed)


def objective(ens: PriorEnsemble, fixed, candidate) -> float:
    """MI lower bound of (parameters ; stacked sensor trajectories).

    The observation block concatenates the full time trajectories of
    every fixed sensor and the candidate, one row per member. The
    candidate's columns extend the ensemble's factor of the fixed block.
    """
    block = ens.fixed_block(fixed)
    obs = ens.trajectories(candidate)
    obs_block = cca.factor(obs) if block is None else cca.extend(block, obs)
    return cca.mi_lower_bound(ens.param_block, obs_block, ens.cfg.knn())


@dataclass
class PlacementResult:
    """Ordered sensor locations with the bound value achieved per step,
    and each step's BO trace or grid surface."""

    locations: list[tuple[float, float]]
    bound_values: list[float]
    traces: list = field(default_factory=list, repr=False)


def greedy_place(
    ens: PriorEnsemble,
    n_sensors: int,
    bo_cfg: bo.BoConfig,
    min_sep: float,
) -> PlacementResult:
    """Algorithmic placement: one Bayesian optimization per greedy step.

    An incumbent closer than min_sep to an already-selected sensor is
    rejected in favor of the best trace point that satisfies the
    separation; coincident sensors only duplicate noise columns and
    stall the step. The steps' BO seeds derive from the ensemble's seed
    and the config's.
    """
    check_count(n_sensors, "n_sensors")
    check_box(bo_cfg.domain, "bo_cfg.domain", 2)  # the plane: x and y bounds
    if not (np.isfinite(min_sep) and min_sep >= 0):
        raise ValueError(f"min_sep must be finite and >= 0, got {min_sep}")
    selected: list[tuple[float, float]] = []
    bounds: list[float] = []
    traces: list[bo.BoTrace] = []
    step_seeds = np.random.SeedSequence([ens.seed, ens.cfg.seed]).generate_state(n_sensors)
    for i in range(n_sensors):
        trace = bo.maximize(lambda p: objective(ens, selected, p), bo_cfg, int(step_seeds[i]))
        pick = None
        for j in np.argsort(trace.values)[::-1]:
            point = trace.points[j]
            if all(np.linalg.norm(point - np.asarray(s)) >= min_sep for s in selected):
                pick = (trace.points[j], float(trace.values[j]))
                break
        if pick is None:
            raise ValueError(
                f"no trace point at step {i + 1} satisfies min_sep={min_sep}; "
                "lower the separation or enlarge the domain"
            )
        selected.append(_location_key(pick[0]))
        bounds.append(pick[1])
        traces.append(trace)
    return PlacementResult(locations=selected, bound_values=bounds, traces=traces)


def grid_place(ens: PriorEnsemble, n_sensors: int, grid: GridSpec) -> PlacementResult:
    """Exhaustive baseline: evaluate every grid node each greedy step.

    The trajectories of every node are cached in one pass before the
    first step. Ties resolve to the lexicographically smallest point;
    selected nodes are excluded from later steps. The per-step surfaces
    are kept in the result's traces as (x, y, value) arrays.
    """
    nodes = grid.nodes()
    check_count(n_sensors, "n_sensors", 1, len(nodes))
    ens.fill(grid)
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
    return PlacementResult(locations=selected, bound_values=bounds, traces=surfaces)
