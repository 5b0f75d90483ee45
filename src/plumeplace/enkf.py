"""Augmented-state ensemble Kalman filter for release-parameter inference.

Each member carries [release_y, wind_dir, ln u_1 .. ln u_S]: the static
parameters augmented with the member's predicted log-concentrations at
the sensors. The forecast predicts every member's readings at the next
observation instant from the member's own current parameters (so a
parameter update propagates into the member's subsequent predictions);
the transport is in closed form, so it needs the instant only, not a
step. The analysis applies the perturbed-observation Kalman update with
a bias-corrected residual, since the log-space measurement noise has a
nonzero mean.

The members of C conditions, accidents that share the sensors, can run
in lockstep as one (C, n, 2 + S) stack; a plain (n, 2 + S) ensemble is
the same code with no condition axis. The forecast then makes one
forward evaluation for all C * n members, and the analysis updates
every condition from its own covariance, with its own perturbations,
so each condition's members are bit-equal to a run of that condition
alone.

All randomness of a run is drawn before it: draw_accidents spawns each
accident's streams from its seed, keeps its readings' stream and draws
its prior ensemble and every step's perturbations with their
covariance. None of it depends on where the sensors are, only on how
many, so placements of one sensor count share one draw.
assimilate_conditions runs the stack on a draw, and assimilate_run is
its one-condition case.

Like placement.PriorEnsemble, the ensemble keeps its ExperimentConfig
and no copies of its settings: forecast hands it to the forward model,
analysis reads the noise from it and inflate the inflation factor. A
truth is one (release_y, wind_dir) row, the format of the parameter
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dispersion
from .config import ExperimentConfig

THETA_DIM = 2  # release_y, wind_dir


@dataclass
class AugmentedEnsemble:
    """Member array [release_y, wind_dir, ln u_1..ln u_S] at the sensors,
    (n, 2 + S) or a (C, n, 2 + S) stack of C conditions; the config owns
    every model setting."""

    cfg: ExperimentConfig
    sensors: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=float)
        self.sensors = dispersion.sensor_rows(self.sensors, "sensors")
        if self.members.ndim not in (2, 3):
            raise ValueError(
                f"members must be (n, 2 + S) or (C, n, 2 + S), got shape {self.members.shape}"
            )
        expected = THETA_DIM + self.sensors.shape[0]
        if self.members.shape[-1] != expected:
            raise ValueError(
                f"member columns {self.members.shape[-1]} != 2 + {self.sensors.shape[0]} sensors"
            )

    @property
    def n_members(self) -> int:
        return self.members.shape[-2]

    @property
    def theta(self) -> np.ndarray:
        return self.members[..., :THETA_DIM]


def forecast(ens: AugmentedEnsemble, t: float) -> AugmentedEnsemble:
    """Predict every member's readings at the absolute time t.

    Each member's puffs are placed under its own current wind direction
    and release position; the parameter columns pass through unchanged.
    Predicted log-concentrations are clamped like real readings. The
    members of every condition go through one forward evaluation.
    """
    theta = ens.theta
    lnu = dispersion.log_concentrations_at(ens.cfg, theta.reshape(-1, THETA_DIM), ens.sensors, t)
    members = np.concatenate([theta, lnu.reshape(theta.shape[:-1] + (-1,))], axis=-1)
    return replace(ens, members=members)


def _cov(x: np.ndarray) -> np.ndarray:
    """Sample covariance (ddof 1) of the columns of each (n, d) slice of
    x, with the operations of np.cov(slice.T, ddof=1)."""
    centred = x - x.mean(axis=-2, keepdims=True)
    return np.matmul(centred.swapaxes(-1, -2), centred) * (1.0 / (x.shape[-2] - 1))


def _check_members(n: int) -> None:
    if n < 2:
        raise ValueError(f"analysis needs at least 2 ensemble members, got {n}")


def draw_perturbations(
    cfg: ExperimentConfig, step_seeds, n: int, n_sensors: int
) -> tuple[np.ndarray, np.ndarray]:
    """The observation perturbations of analysis steps and their sample
    covariances, filled in place.

    For each step seed s, the (n, n_sensors) perturbations are
    default_rng(s).normal(0, cfg.noise_std, (n, n_sensors)), so step_seeds
    of any shape B give perturbations (*B, n, n_sensors) and covariances
    (*B, n_sensors, n_sensors).
    """
    _check_members(n)
    step_seeds = np.asarray(step_seeds)
    eps = np.empty(step_seeds.shape + (n, n_sensors))
    for idx, s in np.ndenumerate(step_seeds):
        eps[idx] = np.random.default_rng(int(s)).normal(0.0, cfg.noise_std, (n, n_sensors))
    return eps, _cov(eps)


def analysis(ens: AugmentedEnsemble, obs, eps, eps_cov) -> AugmentedEnsemble:
    """Perturbed-observation Kalman update of the augmented state.

    The gain is S_e H^T [H S_e H^T + R_e]^{-1} with S_e the ensemble
    sample covariance, R_e = eps_cov the empirical covariance of the
    drawn perturbations eps and H the selection of the ln-u block,
    applied by slicing. Each member sees its own perturbed observation:
    its row of eps added to obs, and a residual corrected by the config's
    noise_mean. draw_perturbations draws eps and eps_cov.

    For a (C, n, 2 + S) stack, obs is (C, S), eps (C, n, S) and eps_cov
    (C, S, S): condition c is updated from its own covariance and
    perturbations, as if it were analysed alone.
    """
    a = ens.members
    batch = a.shape[:-2]
    n_sensors = ens.sensors.shape[0]
    obs = np.asarray(obs, dtype=float)
    if obs.shape != batch + (n_sensors,):
        raise ValueError(
            f"expected observations of shape {batch + (n_sensors,)}, got shape {obs.shape}"
        )
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    n = ens.n_members
    _check_members(n)
    if eps.shape != batch + (n, n_sensors) or eps_cov.shape != batch + (n_sensors, n_sensors):
        raise ValueError(
            f"expected perturbations of shape {batch + (n, n_sensors)} and their covariance, "
            f"got shapes {eps.shape} and {eps_cov.shape}"
        )
    cov = _cov(a)
    innov_cov = cov[..., THETA_DIM:, THETA_DIM:] + eps_cov
    # reject a collapsed ensemble instead of amplifying roundoff;
    # covariance inflation is the documented remedy
    collapsed = np.flatnonzero(np.linalg.cond(innov_cov) > 1e12)
    if collapsed.size:
        raise np.linalg.LinAlgError(
            f"analysis innovation covariance of condition {collapsed[0]} is singular "
            "(collapsed ensemble); consider covariance inflation"
        )
    gain = cov[..., THETA_DIM:] @ np.linalg.inv(innov_cov)
    residual = (obs[..., None, :] + eps) - a[..., THETA_DIM:] - ens.cfg.noise_mean
    return replace(ens, members=a + residual @ gain.swapaxes(-1, -2))


def inflate(ens: AugmentedEnsemble) -> AugmentedEnsemble:
    """Spread each condition's members about their mean by the config's
    inflation factor (1.0 is a no-op)."""
    factor = ens.cfg.inflation
    if factor == 1.0:
        return ens
    mean = ens.members.mean(axis=-2, keepdims=True)
    return replace(ens, members=mean + factor * (ens.members - mean))


@dataclass
class PosteriorTrace:
    """Parameter ensembles recorded after each analysis step."""

    times: np.ndarray
    thetas: list[np.ndarray]  # one (n_members, 2) array per time
    prior_theta: np.ndarray


@dataclass
class AccidentDraws:
    """Every random number of C accidents' EnKF runs at S sensors, drawn
    by draw_accidents. None depends on where the sensors are."""

    reading_seeds: list[np.random.SeedSequence]  # C streams of the readings' noise
    prior: np.ndarray  # (C, n, 2) prior parameter ensembles
    eps: np.ndarray  # (n_times, C, n, S) perturbations of each analysis
    eps_cov: np.ndarray  # (n_times, C, S, S) their sample covariances


def draw_accidents(cfg: ExperimentConfig, seeds, n_sensors: int) -> AccidentDraws:
    """Draw the EnKF randomness of one accident per seed, for S = n_sensors
    sensors and cfg.enkf_members members.

    Accident c's streams of readings, prior and perturbations are spawned
    from seeds[c] alone, so its draws do not depend on the other seeds.
    Every placement of S sensors can share one set of draws.
    """
    # per accident: the streams of its readings, prior and perturbations
    streams = [np.random.SeedSequence([int(s), 0x656E6B66]).spawn(3) for s in seeds]
    n = cfg.enkf_members
    step_seeds = np.stack([ss[2].generate_state(len(cfg.times())) for ss in streams], axis=-1)
    eps, eps_cov = draw_perturbations(cfg, step_seeds, n, n_sensors)
    prior = np.stack([cfg.draw_prior(n, np.random.default_rng(ss[1])) for ss in streams])
    return AccidentDraws([ss[0] for ss in streams], prior, eps, eps_cov)


def assimilate_conditions(
    cfg: ExperimentConfig, placement, truths, draws: AccidentDraws
) -> np.ndarray:
    """Simulate C accidents and assimilate them in lockstep.

    truths is a (C, 2) array of (release_y, wind_dir) rows, and draws
    holds their randomness (draw_accidents). Accident c uses only its own
    draws, so it runs exactly as it would alone (assimilate_run). Returns
    the parameter ensembles after each analysis, (n_times, C, n, 2); the
    prior ensembles are draws.prior.
    """
    sensors = dispersion.sensor_rows(placement, "placement")
    times = cfg.times()
    expected = (len(times), len(truths), cfg.enkf_members, sensors.shape[0])
    if draws.eps.shape != expected:
        raise ValueError(
            f"draws of shape {draws.eps.shape} do not fit {expected} "
            "(steps, accidents, members, sensors)"
        )
    truth_obs = dispersion.simulate_accidents(cfg, truths, sensors, draws.reading_seeds)

    floor = np.full(draws.prior.shape[:-1] + (sensors.shape[0],), np.log(cfg.conc_floor))
    ens = AugmentedEnsemble(cfg, sensors, np.concatenate([draws.prior, floor], axis=-1))

    thetas = np.empty((len(times),) + draws.prior.shape)
    for i, t in enumerate(times):
        ens = forecast(ens, t)
        ens = inflate(ens)
        ens = analysis(ens, truth_obs[..., i], draws.eps[i], draws.eps_cov[i])
        thetas[i] = ens.theta
    return thetas


def assimilate_run(cfg: ExperimentConfig, placement, truth, seed: int) -> PosteriorTrace:
    """Simulate one accident and assimilate it over all time points.

    truth is the accident's (release_y, wind_dir) row. Its observations
    are generated once, then the filter alternates forecast and analysis
    at every observation instant, recording the parameter ensemble after
    each analysis. This is assimilate_conditions for one condition, with
    the draws of its one seed.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (2,):
        raise ValueError(f"truth must be a (release_y, wind_dir) row, got shape {truth.shape}")
    sensors = dispersion.sensor_rows(placement, "placement")
    draws = draw_accidents(cfg, [seed], sensors.shape[0])
    thetas = assimilate_conditions(cfg, sensors, truth[None], draws)
    return PosteriorTrace(times=cfg.times(), thetas=list(thetas[:, 0]), prior_theta=draws.prior[0])
