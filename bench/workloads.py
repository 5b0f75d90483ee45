"""Benchmark workloads: inputs from a seed, the timed library call, the
correctness gate and the science numbers each run reports.

All three run the desk profile (500 members, 10 steps, 3 sensors) and
stress different layers, so that an optimisation of one layer has a
workload that exercises it and one that bypasses it:

- place-bo: greedy BO placement; GP fitting and EI proposals dominate
  and every candidate misses the trajectory cache (each BO point is new;
  only the fixed sensors of earlier steps hit).
- grid-surface: exhaustive grid placement; no GP, KSG counting dominates
  and the trajectory cache fills in step 1 and only hits afterwards.
- compare: EnKF scoring of a fixed and 10 random placements; no GP and
  no KSG, kNN entropy and the EnKF forecast/analysis dominate.

Each top-level call is resolved through its module attribute at call
time, so the tracer can wrap it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from plumeplace import evaluate, placement
from plumeplace.config import ExperimentConfig

# Fixed reference placement for `compare`, metres.
REF = [(3000.0, -1000.0), (3000.0, 1000.0), (6000.0, 0.0)]
N_RANDOM = 10
N_CONDITIONS = 10
PANEL_SEED = 0x5C1
PANEL_ENSEMBLES = 16
PANEL_CONDITIONS = 20


def desk_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed).with_profile("desk")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _ensemble(cfg):
    return placement.build_ensemble(cfg, cfg.placement_members, cfg.seed)


def science(cfg, locations) -> dict:
    """Science numbers, untimed and untraced, on one fixed panel whatever
    the run's seed, so that they move only when the placement or the
    scoring code changes.

    bound_final_nats is the MI bound of the workload's sensor set averaged
    over PANEL_ENSEMBLES prior ensembles; it follows the optimiser.
    entropy_reduction_nats is the release_y entropy reduction (prior minus
    final conditional entropy) of REF over PANEL_CONDITIONS simulated
    accidents; it follows the EnKF and entropy code on a fixed yardstick.
    The set's own reduction is recorded too, but varies by a fifth from
    seed to seed with the placements found.
    """
    locations = [(float(x), float(y)) for x, y in locations]
    seeds = np.random.SeedSequence(PANEL_SEED).generate_state(PANEL_ENSEMBLES)
    bounds = [
        placement.objective(
            placement.build_ensemble(cfg, cfg.placement_members, int(s)), locations[:-1], locations[-1]
        )
        for s in seeds
    ]
    report = evaluate.compare_placements(
        cfg, {"ref": REF, "placed": locations}, PANEL_CONDITIONS, PANEL_SEED
    )
    prior = report.prior_entropy[0]
    return {
        "bound_final_nats": float(np.mean(bounds)),
        "entropy_reduction_nats": prior - report.final_release_entropy("ref"),
        "placed_entropy_reduction_nats": prior - report.final_release_entropy("placed"),
    }


# --- place-bo ---------------------------------------------------------------


def _bo_prepare(cfg):
    return (_ensemble(cfg),)


def _bo_call(cfg, ens):
    return placement.greedy_place(ens, cfg.n_sensors, cfg.bo_config(), cfg.min_sep_m)


def _bo_operations(cfg) -> int:
    return cfg.n_sensors * (cfg.bo_init + cfg.bo_iters)


def _bo_check(cfg, result) -> list[str]:
    problems = []
    locs = np.asarray(result.locations, dtype=float)
    if locs.shape != (cfg.n_sensors, 2):
        problems.append(f"expected {cfg.n_sensors} locations, got shape {locs.shape}")
        return problems
    if not np.all(locs[:, 0] > 0):
        problems.append(f"a sensor sits at x <= 0: {locs.tolist()}")
    for i in range(len(locs)):
        for j in range(i):
            if np.linalg.norm(locs[i] - locs[j]) < cfg.min_sep_m:
                problems.append(f"sensors {j} and {i} closer than min_sep_m={cfg.min_sep_m}")
    per_step = cfg.bo_init + cfg.bo_iters
    for step, trace in enumerate(result.traces, start=1):
        if len(trace.values) != per_step:
            problems.append(f"step {step}: {len(trace.values)} evaluations, expected {per_step}")
    if not np.all(np.isfinite(result.bound_values)):
        problems.append(f"non-finite bounds {result.bound_values}")
    return problems


def _bo_fingerprint(result) -> str:
    return _digest(
        result.locations,
        result.bound_values,
        *[t.points for t in result.traces],
        *[t.values for t in result.traces],
    )


# --- grid-surface -------------------------------------------------------------


def _grid_prepare(cfg):
    return _ensemble(cfg), placement.GridSpec(nx=cfg.grid_nx, ny=cfg.grid_ny, domain=cfg.domain_m())


def _grid_call(cfg, ens, grid):
    return placement.grid_place(ens, cfg.n_sensors, grid)


def _grid_operations(cfg) -> int:
    # selected nodes drop out of later steps
    return sum(cfg.grid_nx * cfg.grid_ny - i for i in range(cfg.n_sensors))


def _grid_check(cfg, result) -> list[str]:
    problems = []
    if len(result.locations) != cfg.n_sensors or len(result.traces) != cfg.n_sensors:
        return [f"expected {cfg.n_sensors} steps, got {len(result.locations)}"]
    for step, (bound, surface) in enumerate(zip(result.bound_values, result.traces)):
        expected_rows = cfg.grid_nx * cfg.grid_ny - step
        if surface.shape != (expected_rows, 3):
            problems.append(f"step {step + 1}: surface shape {surface.shape}")
        elif not np.all(np.isfinite(surface[:, 2])):
            problems.append(f"step {step + 1}: non-finite surface values")
        elif bound != surface[:, 2].max():
            problems.append(f"step {step + 1}: bound {bound} != surface max {surface[:, 2].max()}")
    return problems


def _grid_fingerprint(result) -> str:
    return _digest(result.locations, result.bound_values, *result.traces)


# --- compare ----------------------------------------------------------------


def _compare_prepare(cfg):
    placements = {"ref": REF}
    placements.update(evaluate.random_placements(cfg, N_RANDOM, cfg.seed))
    return (placements,)


def _compare_call(cfg, placements):
    return evaluate.compare_placements(cfg, placements, N_CONDITIONS, cfg.seed)


def _compare_operations(cfg) -> int:
    return (1 + N_RANDOM) * N_CONDITIONS


def _compare_check(cfg, report) -> list[str]:
    problems = []
    runs = sum(t.shape[0] for t in report.traces.values())
    if runs != _compare_operations(cfg):
        problems.append(f"{runs} condition traces, expected {_compare_operations(cfg)}")
    if not all(np.all(np.isfinite(t)) for t in report.traces.values()):
        problems.append("non-finite entropy in the traces")
    if not np.all(np.isfinite(report.prior_entropy)):
        problems.append(f"non-finite prior entropy {report.prior_entropy}")
    if not report.final_release_entropy("ref") < report.prior_entropy[0]:
        problems.append("ref does not end below the prior release_y entropy")
    return problems


def _compare_fingerprint(report) -> str:
    return _digest(report.prior_entropy, *[report.traces[n] for n in sorted(report.traces)])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable  # cfg -> inputs; untimed, fresh per call (empty caches)
    call: Callable  # (cfg, *inputs) -> result; the timed top-level call
    operations: Callable  # cfg -> operations per call, the unit of `attempted`
    check: Callable  # (cfg, result) -> list of problems; empty when correct
    fingerprint: Callable  # result -> digest; repeats of one seed must agree
    placed: Callable  # result -> the sensor set the science numbers describe


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "place-bo",
            "greedy GP/EI BO placement, the paper's path: gp.fit and propose_next dominate, "
            "and each new BO point misses the trajectory cache",
            _bo_prepare, _bo_call, _bo_operations, _bo_check, _bo_fingerprint,
            lambda result: result.locations,
        ),
        Workload(
            "grid-surface",
            "exhaustive 11x21 grid placement: no GP, KSG strict counting dominates, "
            "the trajectory cache fills in step 1 and then only hits",
            _grid_prepare, _grid_call, _grid_operations, _grid_check, _grid_fingerprint,
            lambda result: result.locations,
        ),
        Workload(
            "compare",
            "EnKF scoring of ref plus 10 random placements over 10 conditions: no GP or KSG, "
            "knn_entropy and EnKF forecast/analysis dominate",
            _compare_prepare, _compare_call, _compare_operations, _compare_check,
            _compare_fingerprint, lambda report: REF,
        ),
    )
}


def sizes(cfg: ExperimentConfig, workload: Workload) -> dict:
    """Everything that sets how much work one call does."""
    return {
        "workload": workload.name,
        "placement_members": cfg.placement_members,
        "enkf_members": cfg.enkf_members,
        "n_steps": len(cfg.times()),
        "n_sensors": cfg.n_sensors,
        "bo_init": cfg.bo_init,
        "bo_iters": cfg.bo_iters,
        "bo_candidates": cfg.bo_candidates,
        "grid": [cfg.grid_nx, cfg.grid_ny],
        "random_placements": N_RANDOM,
        "conditions": N_CONDITIONS,
        "operations": workload.operations(cfg),
        "panel": {"ensembles": PANEL_ENSEMBLES, "conditions": PANEL_CONDITIONS},
    }


def setup(name: str, seed: int) -> None:
    """What every CLI call pays before its main call: config and inputs."""
    WORKLOADS[name].prepare(desk_config(seed))
