"""Experiment configuration: one JSON document drives every subcommand.

The file speaks field units (kilometers, degrees, minutes); everything
internal is meters, radians, seconds. Values are stored exactly as
parsed so a parse -> serialize -> parse round trip is the identity, and
unit conversion happens in the derived accessors.

Defaults encode the reference scenario: a 10 x 20 km domain with the
pipeline on the y axis from -3 to 3 km, westerly wind at 4 m/s with a
10 degree directional spread, puffs released every minute for the first
10 minutes, observations every minute, and 1000-member ensembles.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bo import BoConfig
from .dispersion import MeteoConfig, ObservationModel
from .mi import KnnConfig

PROFILES = ("full", "desk")


@dataclass(frozen=True)
class ExperimentConfig:
    # geometry (km)
    domain_x_km: tuple[float, float] = (0.0, 10.0)
    domain_y_km: tuple[float, float] = (-10.0, 10.0)
    pipeline_y_km: tuple[float, float] = (-3.0, 3.0)
    # meteorology
    wind_speed_m_s: float = 4.0
    wind_dir_deg: float = 0.0
    wind_dir_std_deg: float = 10.0
    p_y: float = 0.466
    q_y: float = 0.866
    # timing (minutes); n_steps overrides the derived observation count
    total_min: float = 30.0
    interval_min: float = 1.0
    release_duration_min: float = 10.0
    n_steps: int | None = None
    release_mass: float = 1.0
    # observation model
    noise_mean: float = -0.005
    noise_std: float = 0.1
    conc_floor: float = 1e-12
    # ensemble sizes
    placement_members: int = 1000
    enkf_members: int = 1000
    # estimators
    knn_k: int = 6
    knn_jitter: float = 1e-10
    # optimization
    bo_init: int = 10
    bo_iters: int = 30
    bo_candidates: int = 2048
    grid_nx: int = 11
    grid_ny: int = 21
    n_sensors: int = 3
    min_sep_m: float = 500.0
    # assimilation
    inflation: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.domain_x_km[1] <= self.domain_x_km[0]:
            raise ValueError("domain x bounds are degenerate")
        if self.domain_y_km[1] <= self.domain_y_km[0]:
            raise ValueError("domain y bounds are degenerate")
        if self.pipeline_y_km[1] <= self.pipeline_y_km[0]:
            raise ValueError("pipeline extent is degenerate")
        for name in ("wind_speed_m_s", "wind_dir_std_deg", "total_min", "interval_min",
                     "release_duration_min", "release_mass", "noise_std", "conc_floor",
                     "p_y", "q_y", "min_sep_m", "inflation"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("placement_members", "enkf_members", "knn_k", "bo_init",
                     "bo_iters", "bo_candidates", "grid_nx", "grid_ny", "n_sensors"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_steps is not None and self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    # --- derived quantities, internal units ---

    def times(self) -> np.ndarray:
        """Observation instants in seconds, starting one interval after
        release onset; the default count spans the total time fencepost
        inclusive (30 min at 1 min spacing gives 31 instants)."""
        n = self.n_steps
        if n is None:
            n = int(round(self.total_min / self.interval_min)) + 1
        dt = self.interval_min * 60.0
        return dt * np.arange(1, n + 1)

    def release_schedule(self) -> list[tuple[float, float]]:
        dt = self.interval_min * 60.0
        duration = self.release_duration_min * 60.0
        out = []
        t = 0.0
        while t < duration:
            out.append((t, self.release_mass))
            t += dt
        return out

    def meteo(self) -> MeteoConfig:
        return MeteoConfig(
            wind_speed=self.wind_speed_m_s,
            wind_dir=math.radians(self.wind_dir_deg),
            p_y=self.p_y,
            q_y=self.q_y,
        )

    def observation(self) -> ObservationModel:
        return ObservationModel(
            noise_mean=self.noise_mean,
            noise_std=self.noise_std,
            conc_floor=self.conc_floor,
        )

    def knn(self) -> KnnConfig:
        return KnnConfig(k=self.knn_k, jitter_scale=self.knn_jitter)

    def domain_m(self) -> np.ndarray:
        return np.array(
            [
                [self.domain_x_km[0] * 1000.0, self.domain_x_km[1] * 1000.0],
                [self.domain_y_km[0] * 1000.0, self.domain_y_km[1] * 1000.0],
            ]
        )

    def pipeline_y_m(self) -> tuple[float, float]:
        return (self.pipeline_y_km[0] * 1000.0, self.pipeline_y_km[1] * 1000.0)

    def wind_dir_std_rad(self) -> float:
        return math.radians(self.wind_dir_std_deg)

    def draw_prior(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(n, 2) prior draws: release_y uniform over the pipeline, then
        wind_dir Gaussian around the meteo heading. Size-1 draws equal
        the scalar draws of the same stream."""
        lo, hi = self.pipeline_y_m()
        return np.column_stack(
            [rng.uniform(lo, hi, n), rng.normal(self.meteo().wind_dir, self.wind_dir_std_rad(), n)]
        )

    def bo_config(self, seed: int | None = None) -> BoConfig:
        return BoConfig(
            domain=self.domain_m(),
            init_count=self.bo_init,
            iter_count=self.bo_iters,
            acq_candidates=self.bo_candidates,
            seed=self.seed if seed is None else seed,
        )

    def with_profile(self, profile: str) -> "ExperimentConfig":
        """Profiles: 'full' is the configuration as-is; 'desk' shrinks
        to 500-member ensembles and 10 observation steps."""
        if profile == "full":
            return self
        if profile == "desk":
            return replace(self, placement_members=500, enkf_members=500, n_steps=10)
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _tuple2(value, name: str) -> tuple[float, float]:
    if len(value) != 2:
        raise ValueError(f"{name} must have exactly two entries")
    return (float(value[0]), float(value[1]))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "domain_km": {"x": list(cfg.domain_x_km), "y": list(cfg.domain_y_km)},
        "pipeline_km": {"x": 0.0, "y": list(cfg.pipeline_y_km)},
        "meteo": {
            "wind_speed_m_s": cfg.wind_speed_m_s,
            "wind_dir_deg": cfg.wind_dir_deg,
            "wind_dir_std_deg": cfg.wind_dir_std_deg,
            "p_y": cfg.p_y,
            "q_y": cfg.q_y,
        },
        "time": {
            "total_min": cfg.total_min,
            "interval_min": cfg.interval_min,
            "release_duration_min": cfg.release_duration_min,
            "n_steps": cfg.n_steps,
        },
        "release_mass": cfg.release_mass,
        "observation": {
            "noise_mean": cfg.noise_mean,
            "noise_std": cfg.noise_std,
            "conc_floor": cfg.conc_floor,
        },
        "ensemble": {
            "placement_members": cfg.placement_members,
            "enkf_members": cfg.enkf_members,
        },
        "knn": {"k": cfg.knn_k, "jitter_scale": cfg.knn_jitter},
        "bo": {
            "init_count": cfg.bo_init,
            "iter_count": cfg.bo_iters,
            "acq_candidates": cfg.bo_candidates,
        },
        "grid": {"nx": cfg.grid_nx, "ny": cfg.grid_ny},
        "placement": {"n_sensors": cfg.n_sensors, "min_sep_m": cfg.min_sep_m},
        "enkf": {"inflation": cfg.inflation},
        "seed": cfg.seed,
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            domain_x_km=_tuple2(doc["domain_km"]["x"], "domain_km.x"),
            domain_y_km=_tuple2(doc["domain_km"]["y"], "domain_km.y"),
            pipeline_y_km=_tuple2(doc["pipeline_km"]["y"], "pipeline_km.y"),
            wind_speed_m_s=float(doc["meteo"]["wind_speed_m_s"]),
            wind_dir_deg=float(doc["meteo"]["wind_dir_deg"]),
            wind_dir_std_deg=float(doc["meteo"]["wind_dir_std_deg"]),
            p_y=float(doc["meteo"]["p_y"]),
            q_y=float(doc["meteo"]["q_y"]),
            total_min=float(doc["time"]["total_min"]),
            interval_min=float(doc["time"]["interval_min"]),
            release_duration_min=float(doc["time"]["release_duration_min"]),
            n_steps=None if doc["time"].get("n_steps") is None else int(doc["time"]["n_steps"]),
            release_mass=float(doc["release_mass"]),
            noise_mean=float(doc["observation"]["noise_mean"]),
            noise_std=float(doc["observation"]["noise_std"]),
            conc_floor=float(doc["observation"]["conc_floor"]),
            placement_members=int(doc["ensemble"]["placement_members"]),
            enkf_members=int(doc["ensemble"]["enkf_members"]),
            knn_k=int(doc["knn"]["k"]),
            knn_jitter=float(doc["knn"]["jitter_scale"]),
            bo_init=int(doc["bo"]["init_count"]),
            bo_iters=int(doc["bo"]["iter_count"]),
            bo_candidates=int(doc["bo"]["acq_candidates"]),
            grid_nx=int(doc["grid"]["nx"]),
            grid_ny=int(doc["grid"]["ny"]),
            n_sensors=int(doc["placement"]["n_sensors"]),
            min_sep_m=float(doc["placement"]["min_sep_m"]),
            inflation=float(doc["enkf"]["inflation"]),
            seed=int(doc["seed"]),
        )
    except KeyError as exc:
        raise ValueError(f"config is missing required key: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
