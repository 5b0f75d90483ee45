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

Everything here is in meters, seconds and radians. Wind angle 0 points
east (+x), pi/2 north (+y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ReleaseSchedule = list[tuple[float, float]]  # (release time s, mass)


@dataclass(frozen=True)
class MeteoConfig:
    """Wind and diffusion constants, uniform in space and time. The
    transport is in closed form, so there is no time step."""

    wind_speed: float  # m/s
    wind_dir: float  # rad, 0 = toward +x
    p_y: float  # diffusion coefficient
    q_y: float  # diffusion exponent

    def __post_init__(self):
        if self.wind_speed <= 0:
            raise ValueError("wind_speed must be > 0")
        if self.p_y <= 0:
            raise ValueError("p_y must be > 0")
        if not 0 < self.q_y <= 1:
            raise ValueError("q_y must be in (0, 1]")


@dataclass(frozen=True)
class ScenarioParams:
    """One draw of the unknowns: release position along the pipeline
    (x fixed at 0) and wind direction."""

    release_y: float  # m
    wind_dir: float  # rad


@dataclass(frozen=True)
class ObservationModel:
    """Log-space measurement noise and the positive concentration clamp."""

    noise_mean: float = -0.005
    noise_std: float = 0.1
    conc_floor: float = 1e-12

    def __post_init__(self):
        if self.noise_std <= 0:
            raise ValueError("noise_std must be > 0")
        if self.conc_floor <= 0:
            raise ValueError("conc_floor must be > 0")


def simulate_observations(
    params: ScenarioParams,
    meteo: MeteoConfig,
    sensors,
    times,
    release_schedule: ReleaseSchedule,
    obs: ObservationModel,
    rng_seed: int,
) -> np.ndarray:
    """Noisy log-concentration trajectories, one row per sensor.

    The noise-free part is log_concentrations_at for the single member
    (release_y, wind_dir) at each time: every puff released before t
    contributes with age t - release time. Each sensor reads
    ln(max(c, conc_floor)) plus a Gaussian noise draw from the seeded
    stream. The scenario's wind direction overrides the meteo default.
    """
    times = np.asarray(times, dtype=float)
    if len(sensors) == 0:
        raise ValueError("need at least one sensor")
    if times.ndim != 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return _noisy_trajectories(
        [params.release_y], [params.wind_dir], sensors, times, meteo, release_schedule, obs,
        rng_seed,
    )


def log_concentrations_at(
    release_y: np.ndarray,
    wind_dir: np.ndarray,
    sensors: np.ndarray,
    t: float,
    meteo: MeteoConfig,
    release_schedule: ReleaseSchedule,
    obs: ObservationModel,
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
    ages = np.array([t - rt for rt, _ in release_schedule if rt < t])
    masses = np.array([m for rt, m in release_schedule if rt < t])
    out = np.full((len(release_y), len(sensors)), np.log(obs.conc_floor))
    if ages.size == 0:
        return out
    s = meteo.wind_speed * ages
    r2 = (meteo.p_y * s**meteo.q_y) ** 2
    px = np.outer(np.cos(wind_dir), s)  # (n, K)
    py = release_y[:, None] + np.outer(np.sin(wind_dir), s)
    for j, (sx, sy) in enumerate(sensors):
        c = np.sum(
            masses / (2 * np.pi * r2) * np.exp(-((px - sx) ** 2 + (py - sy) ** 2) / (2 * r2)),
            axis=1,
        )
        out[:, j] = np.log(np.maximum(c, obs.conc_floor))
    return out


def simulate_ensemble(
    params: np.ndarray,
    meteo: MeteoConfig,
    sensor,
    times,
    release_schedule: ReleaseSchedule,
    obs: ObservationModel,
    rng_seed,
) -> np.ndarray:
    """Noisy log-observation trajectories for an ensemble at one sensor.

    params is an (n_members, 2) array of (release_y, wind_dir); the
    result is (n_members, n_times). The noise matrix comes from a single
    stream keyed by rng_seed, so rebuilding the same location reproduces
    the observations bit for bit.
    """
    params = np.asarray(params, dtype=float)
    return _noisy_trajectories(
        params[:, 0], params[:, 1], [sensor], times, meteo, release_schedule, obs, rng_seed
    )


def _noisy_trajectories(
    release_y, wind_dir, sensors, times, meteo, release_schedule, obs, rng_seed
) -> np.ndarray:
    """log_concentrations_at over all times plus one seeded noise draw.

    Either the members or the sensors must be a single one; the result
    is (n_members or n_sensors, n_times).
    """
    times = np.asarray(times, dtype=float)
    clean = np.stack(
        [
            log_concentrations_at(release_y, wind_dir, sensors, t, meteo, release_schedule, obs)
            for t in times
        ],
        axis=-1,
    ).reshape(-1, len(times))
    rng = np.random.default_rng(rng_seed)
    return clean + rng.normal(obs.noise_mean, obs.noise_std, clean.shape)
