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

Like placement.PriorEnsemble, the ensemble keeps its ExperimentConfig
and no copies of its settings: forecast hands it to the forward model,
analysis reads the noise from it and inflate the inflation factor. The
truth is one (release_y, wind_dir) row, the format of the parameter
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dispersion
from .config import ExperimentConfig

THETA_DIM = 2  # release_y, wind_dir


def _sensor_rows(value, name: str) -> np.ndarray:
    sensors = np.atleast_2d(np.asarray(value, dtype=float))
    if sensors.ndim != 2 or sensors.shape[0] < 1 or sensors.shape[1] != 2:
        raise ValueError(
            f"{name} must be an (S, 2) array of sensor locations with S >= 1, "
            f"got shape {np.shape(value)}"
        )
    return sensors


@dataclass
class AugmentedEnsemble:
    """Member matrix [release_y, wind_dir, ln u_1..ln u_S] at the sensors;
    the config owns every model setting."""

    cfg: ExperimentConfig
    sensors: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=float)
        self.sensors = _sensor_rows(self.sensors, "sensors")
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


def forecast(ens: AugmentedEnsemble, t: float) -> AugmentedEnsemble:
    """Predict every member's readings at the absolute time t.

    Each member's puffs are placed under its own current wind direction
    and release position; the parameter columns pass through unchanged.
    Predicted log-concentrations are clamped like real readings.
    """
    lnu = dispersion.log_concentrations_at(
        ens.cfg, ens.members[:, 0], ens.members[:, 1], ens.sensors, t
    )
    members = np.hstack([ens.members[:, :THETA_DIM], lnu])
    return replace(ens, members=members)


def analysis(ens: AugmentedEnsemble, obs, seed: int) -> AugmentedEnsemble:
    """Perturbed-observation Kalman update of the augmented state.

    The gain is S_e H^T [H S_e H^T + R_e]^{-1} with S_e the ensemble
    sample covariance, R_e the empirical covariance of the actually
    drawn perturbations and H the selection of the ln-u block, applied
    by slicing. Each member sees its own perturbed observation: zero-mean
    noise with the config's noise_std, and a residual corrected by its
    noise_mean. Deterministic per seed.
    """
    n_sensors = ens.sensors.shape[0]
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (n_sensors,):
        raise ValueError(f"expected {n_sensors} observations, got shape {obs.shape}")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    a = ens.members
    n = ens.n_members
    if n < 2:
        raise ValueError(f"analysis needs at least 2 ensemble members, got {n}")
    cov = np.cov(a.T, ddof=1)
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, ens.cfg.noise_std, (n, n_sensors))
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
    residual = (obs[None, :] + eps) - a[:, THETA_DIM:] - ens.cfg.noise_mean
    return replace(ens, members=a + residual @ gain.T)


def inflate(ens: AugmentedEnsemble) -> AugmentedEnsemble:
    """Spread members about their mean by the config's inflation factor
    (1.0 is a no-op)."""
    factor = ens.cfg.inflation
    if factor == 1.0:
        return ens
    mean = ens.members.mean(axis=0)
    return replace(ens, members=mean + factor * (ens.members - mean))


@dataclass
class PosteriorTrace:
    """Parameter ensembles recorded after each analysis step."""

    times: np.ndarray
    thetas: list[np.ndarray]  # one (n_members, 2) array per time
    prior_theta: np.ndarray


def assimilate_run(cfg: ExperimentConfig, placement, truth, seed: int) -> PosteriorTrace:
    """Simulate one accident and assimilate it over all time points.

    truth is the accident's (release_y, wind_dir) row. Its observations
    are generated once, then the filter alternates forecast and analysis
    at every observation instant, recording the parameter ensemble after
    each analysis.
    """
    sensors = _sensor_rows(placement, "placement")
    times = cfg.times()
    root = np.random.SeedSequence([seed, 0x656E6B66])
    ss_truth, ss_init, ss_analysis = root.spawn(3)

    truth_obs = dispersion.simulate_observations(cfg, truth, sensors, ss_truth)

    prior_theta = cfg.draw_prior(cfg.enkf_members, np.random.default_rng(ss_init))
    floor = np.full((cfg.enkf_members, sensors.shape[0]), np.log(cfg.conc_floor))
    ens = AugmentedEnsemble(cfg, sensors, np.hstack([prior_theta, floor]))

    analysis_seeds = ss_analysis.generate_state(len(times))
    thetas = []
    for i, t in enumerate(times):
        ens = forecast(ens, t)
        ens = inflate(ens)
        ens = analysis(ens, truth_obs[:, i], int(analysis_seeds[i]))
        thetas.append(ens.theta.copy())
    return PosteriorTrace(times=times, thetas=thetas, prior_theta=prior_theta)
