"""Gaussian-puff dispersion model with noisy log-concentration sensing.

Released mass travels as circular puffs advected by a uniform wind. The
model is the closed form of that transport: at time t a puff released
at time t_r from (0, release_y) has age t - t_r, has travelled
s = wind_speed * age along the wind direction, and has radius
r = p_y * s**q_y. Its concentration footprint is an isotropic 2D
Gaussian of standard deviation r. Sensors report ln(concentration) with
additive Gaussian noise; concentrations are clamped to a small positive
floor before the logarithm so readings stay finite ahead of plume
arrival.

Every function reads its settings from the ExperimentConfig it is
given: the wind speed and diffusion constants, the observation instants
(cfg.times()), the puff release instants (cfg.release_times()), each
puff carrying cfg.release_mass, and the noise and concentration floor.
An accident is one parameter row (release_y, wind_dir), the format of
ExperimentConfig.draw_prior: the heading is an unknown of every member.

Everything here is in meters, seconds and radians. Wind angle 0 points
east (+x), pi/2 north (+y).
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig


def simulate_observations(cfg: ExperimentConfig, truth, sensors, rng_seed: int) -> np.ndarray:
    """Noisy log-concentration trajectories, one row per sensor and one
    column per instant of cfg.times().

    truth is one accident, a (release_y, wind_dir) row. The noise-free
    part is log_concentrations_at for that single member at each instant:
    every puff released before t contributes with age t - release time.
    Each sensor reads ln(max(c, cfg.conc_floor)) plus a Gaussian noise
    draw (cfg.noise_mean, cfg.noise_std) from the seeded stream.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (2,):
        raise ValueError(f"truth must be a (release_y, wind_dir) row, got shape {truth.shape}")
    if len(sensors) == 0:
        raise ValueError("need at least one sensor")
    return _noisy_trajectories(cfg, truth[None], sensors, rng_seed)


def log_concentrations_at(
    cfg: ExperimentConfig,
    release_y: np.ndarray,
    wind_dir: np.ndarray,
    sensors: np.ndarray,
    t: float,
) -> np.ndarray:
    """Clamped log-concentrations for a whole parameter ensemble at time t.

    Vectorized over members, shape (n_members, n_sensors). A puff sits
    at spawn + speed * age * (cos w, sin w), the closed form of the
    module docstring. Noise-free: this is the model prediction, not a
    measurement.
    """
    release_y = np.asarray(release_y, dtype=float)
    wind_dir = np.asarray(wind_dir, dtype=float)
    sensors = np.atleast_2d(np.asarray(sensors, dtype=float))
    released = cfg.release_times()
    ages = t - released[released < t]
    out = np.full((len(release_y), len(sensors)), np.log(cfg.conc_floor))
    if ages.size == 0:
        return out
    s = cfg.wind_speed_m_s * ages
    r2 = (cfg.p_y * s**cfg.q_y) ** 2
    px = np.outer(np.cos(wind_dir), s)  # (n, K)
    py = release_y[:, None] + np.outer(np.sin(wind_dir), s)
    for j, (sx, sy) in enumerate(sensors):
        c = np.sum(
            cfg.release_mass / (2 * np.pi * r2)
            * np.exp(-((px - sx) ** 2 + (py - sy) ** 2) / (2 * r2)),
            axis=1,
        )
        out[:, j] = np.log(np.maximum(c, cfg.conc_floor))
    return out


def simulate_ensemble(cfg: ExperimentConfig, params: np.ndarray, sensor, rng_seed) -> np.ndarray:
    """Noisy log-observation trajectories for an ensemble at one sensor.

    params is an (n_members, 2) array of (release_y, wind_dir); the
    result is (n_members, n_times). The noise matrix comes from a single
    stream keyed by rng_seed, so rebuilding the same location reproduces
    the observations bit for bit.
    """
    return _noisy_trajectories(cfg, params, [sensor], rng_seed)


def _noisy_trajectories(cfg, params, sensors, rng_seed):
    """log_concentrations_at of the (n_members, 2) parameter rows at every
    instant of cfg.times(), plus one seeded noise draw.

    Either the members or the sensors must be a single one; the result
    is (n_members or n_sensors, n_times).
    """
    release_y, wind_dir = np.asarray(params, dtype=float).T
    times = cfg.times()
    clean = np.stack(
        [log_concentrations_at(cfg, release_y, wind_dir, sensors, t) for t in times],
        axis=-1,
    ).reshape(-1, len(times))
    rng = np.random.default_rng(rng_seed)
    return clean + rng.normal(cfg.noise_mean, cfg.noise_std, clean.shape)
