"""Augmented-state ensemble Kalman filter for release-parameter inference.

Each member carries [release_y, wind_dir, ln u_1 .. ln u_S]: the static
parameters augmented with the member's predicted log-concentrations at
the sensors. The forecast advances every member's puffs to the next
observation instant using the member's own current parameters (so a
parameter update propagates into the member's subsequent predictions),
and the analysis applies the perturbed-observation Kalman update with a
bias-corrected residual, since the log-space measurement noise has a
nonzero mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dispersion
from .config import ExperimentConfig

THETA_DIM = 2  # release_y, wind_dir


@dataclass(frozen=True)
class ObsOperator:
    """Observation of the log-concentration block plus noise description.

    Observations see exactly the ln-u block, the member columns after
    the THETA_DIM parameters. bias is the mean of the log-space
    measurement noise; the analysis perturbs with zero-mean noise of
    variance noise_var and subtracts the bias from every residual.
    """

    n_sensors: int
    bias: float
    noise_var: float

    def __post_init__(self):
        if self.n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        if self.noise_var <= 0:
            raise ValueError("noise_var must be > 0")


@dataclass
class AugmentedEnsemble:
    """Member matrix [release_y, wind_dir, ln u_1..ln u_S] plus the
    scenario context needed to propagate the members' puffs."""

    members: np.ndarray
    sensors: np.ndarray
    meteo: dispersion.MeteoConfig
    observation: dispersion.ObservationModel
    release_schedule: dispersion.ReleaseSchedule = field(default_factory=list)
    time: float = 0.0

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=float)
        self.sensors = np.atleast_2d(np.asarray(self.sensors, dtype=float))
        expected = THETA_DIM + self.sensors.shape[0]
        if self.members.shape[1] != expected:
            raise ValueError(
                f"member columns {self.members.shape[1]} != 2 + {self.sensors.shape[0]} sensors"
            )

    @property
    def n_members(self) -> int:
        return self.members.shape[0]

    @property
    def theta(self) -> np.ndarray:
        return self.members[:, :THETA_DIM]

    @property
    def log_obs(self) -> np.ndarray:
        return self.members[:, THETA_DIM:]


def forecast(ens: AugmentedEnsemble, dt: float) -> AugmentedEnsemble:
    """Advance members to time + dt and refresh predicted observations.

    Every member's puffs are advanced under its own current wind
    direction and release position; the parameter columns pass through
    unchanged. Predicted log-concentrations are clamped like real
    readings.
    """
    t_next = ens.time + dt
    lnu = dispersion.log_concentrations_at(
        ens.members[:, 0],
        ens.members[:, 1],
        ens.sensors,
        t_next,
        ens.meteo,
        ens.release_schedule,
        ens.observation,
    )
    members = np.hstack([ens.members[:, :THETA_DIM], lnu])
    return replace(ens, members=members, time=t_next)


def analysis(
    ens: AugmentedEnsemble, obs, op: ObsOperator, seed: int
) -> AugmentedEnsemble:
    """Perturbed-observation Kalman update of the augmented state.

    The gain is S_e H^T [H S_e H^T + R_e]^{-1} with S_e the ensemble
    sample covariance, R_e the empirical covariance of the actually
    drawn perturbations and H the selection of the ln-u block, applied
    by slicing. Each member sees its own perturbed observation and a
    bias-corrected residual. Deterministic per seed.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (op.n_sensors,):
        raise ValueError(f"expected {op.n_sensors} observations, got shape {obs.shape}")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    a = ens.members
    n = ens.n_members
    cov = np.cov(a.T, ddof=1)
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, np.sqrt(op.noise_var), (n, op.n_sensors))
    r_e = np.atleast_2d(np.cov(eps.T, ddof=1))
    innov_cov = cov[THETA_DIM:, THETA_DIM:] + r_e
    # reject a collapsed ensemble instead of amplifying roundoff;
    # covariance inflation is the documented remedy
    if np.linalg.cond(innov_cov) > 1e12:
        raise np.linalg.LinAlgError(
            "analysis innovation covariance is singular (collapsed ensemble); "
            "consider covariance inflation"
        )
    gain = cov[:, THETA_DIM:] @ np.linalg.inv(innov_cov)
    residual = (obs[None, :] + eps) - a[:, THETA_DIM:] - op.bias
    return replace(ens, members=a + residual @ gain.T)


def inflate(ens: AugmentedEnsemble, factor: float) -> AugmentedEnsemble:
    """Spread members about their mean by `factor` (1.0 is a no-op)."""
    if factor == 1.0:
        return ens
    mean = ens.members.mean(axis=0)
    return replace(ens, members=mean + factor * (ens.members - mean))


@dataclass
class PosteriorTrace:
    """Parameter ensembles recorded after each analysis step."""

    times: np.ndarray
    thetas: list[np.ndarray]  # one (n_members, 2) array per time
    sensors: np.ndarray
    truth: dispersion.ScenarioParams
    prior_theta: np.ndarray


def assimilate_run(
    cfg: ExperimentConfig,
    placement,
    truth: dispersion.ScenarioParams,
    seed: int,
) -> PosteriorTrace:
    """Simulate one accident and assimilate it over all time points.

    Truth observations are generated once from the scenario parameters,
    then the filter alternates forecast and analysis at every
    observation instant, recording the parameter ensemble after each
    analysis.
    """
    sensors = np.atleast_2d(np.asarray(placement, dtype=float))
    if sensors.ndim != 2 or sensors.shape[0] < 1 or sensors.shape[1] != 2:
        raise ValueError(
            f"placement must be an (S, 2) array of sensor locations with S >= 1, "
            f"got shape {np.shape(placement)}"
        )
    times = cfg.times()
    meteo = cfg.meteo()
    observation = cfg.observation()
    schedule = cfg.release_schedule()
    root = np.random.SeedSequence([seed, 0x656E6B66])
    ss_truth, ss_init, ss_analysis = root.spawn(3)

    truth_obs = dispersion.simulate_observations(
        truth,
        meteo,
        sensors,
        times,
        schedule,
        observation,
        ss_truth,
    )

    rng = np.random.default_rng(ss_init)
    lo, hi = cfg.pipeline_y_m()
    n = cfg.enkf_members
    theta = np.column_stack(
        [
            rng.uniform(lo, hi, n),
            rng.normal(meteo.wind_dir, cfg.wind_dir_std_rad(), n),
        ]
    )
    prior_theta = theta.copy()
    members = np.hstack([theta, np.full((n, sensors.shape[0]), np.log(observation.conc_floor))])
    ens = AugmentedEnsemble(
        members=members,
        sensors=sensors,
        meteo=meteo,
        observation=observation,
        release_schedule=schedule,
        time=times[0] - meteo.dt,
    )
    op = ObsOperator(
        n_sensors=sensors.shape[0],
        bias=observation.noise_mean,
        noise_var=observation.noise_std**2,
    )

    analysis_seeds = ss_analysis.generate_state(len(times))
    thetas = []
    for i, t in enumerate(times):
        ens = forecast(ens, t - ens.time)
        ens = inflate(ens, cfg.inflation)
        ens = analysis(ens, truth_obs[:, i], op, int(analysis_seeds[i]))
        thetas.append(ens.theta.copy())
    return PosteriorTrace(
        times=times,
        thetas=thetas,
        sensors=sensors,
        truth=truth,
        prior_theta=prior_theta,
    )
