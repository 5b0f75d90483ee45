"""Experiment configuration: one JSON document drives every subcommand.

The file speaks field units (kilometers, degrees, minutes); everything
internal is meters, radians, seconds. Values are stored in file units,
so a parse -> serialize -> parse round trip is the identity, and unit
conversion happens in the derived accessors.

The file layout is declared once, in LAYOUT, and drives both
config_to_dict and config_from_dict. The file parser only maps keys: an
undeclared or a missing required key raises a ValueError that names it,
and the values go to the constructor as the document holds them.

Every setting and every input rule has one owner, and it is this
module. One rule per field type, picked by the type of the field's
default, serves configs built in code and loaded from files alike: a
count (check_count: a Python or numpy integer, not a bool, in [least,
MAX_COUNT]), a real (check_real: a finite Python or numpy number, not a
bool or a string), a pair (check_pair: two reals) and, for n_steps, None
or a count. A field is stored as its rule returns it (int, float or a
tuple of floats), so equal configs hash and digest alike. A box is a
float (dims, 2) array of finite (low, high) bounds with low < high
(check_box); a BO box has at most MAX_BO_DIM rows. Every entry point
that takes a count or a box calls these.

The sub-configs KnnConfig (mi's neighbour settings) and BoConfig (bo's
box and loop sizes) check the values they own and hold their ranges and
the defaults ExperimentConfig shares. ExperimentConfig checks the rest,
builds the two, stores the values they checked, and checks the counts it
derives (observation instants, puffs). An error names its file key, or
the file sections of the sub-config that raised it.

Defaults encode the reference scenario: a 10 x 20 km domain with the
pipeline on the y axis from -3 to 3 km, westerly wind at 4 m/s with a
10 degree directional spread, puffs released every minute for the first
10 minutes, observations every minute, and 1000-member ensembles.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

PROFILES = ("full", "desk")
# Every count (ensemble sizes, steps, grid nodes, sensors, BO sizes, k,
# the observation instants and puffs the timing derives, and every count
# an entry point takes) is at most this, so no setting or argument asks
# numpy for an allocation it cannot make.
MAX_COUNT = 10**7
# A BO box has at most this many coordinates: each sweep of bo's polish
# scores every point it can reach, 3**dim - 1 of them (26 at this limit).
MAX_BO_DIM = 3


@dataclass(frozen=True)
class KnnConfig:
    """Neighbor-count and tie-break settings for the kNN estimators.

    Small k gives low bias / high variance and vice versa; 6 is a sane
    default around a thousand samples. jitter_scale is a tiny
    multiplicative perturbation applied before neighbor searches because
    clamped observations produce exact duplicates.
    """

    k: int = 6
    jitter_scale: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "k", check_count(self.k, "k"))
        object.__setattr__(self, "jitter_scale", check_real(self.jitter_scale, "jitter_scale"))
        if self.jitter_scale < 0:
            raise ValueError(f"jitter_scale must be >= 0, got {self.jitter_scale!r}")


@dataclass(frozen=True)
class BoConfig:
    """Search box and loop sizes for the optimization. The box has 1 to
    MAX_BO_DIM rows."""

    domain: np.ndarray  # (dim, 2) box bounds
    init_count: int = 10
    iter_count: int = 30
    acq_candidates: int = 2048

    def __post_init__(self):
        object.__setattr__(self, "domain", check_box(self.domain, "domain"))
        if len(self.domain) > MAX_BO_DIM:
            raise ValueError(
                f"domain must have at most {MAX_BO_DIM} rows, got {len(self.domain)}: "
                "each polish sweep scores 3**dim - 1 points"
            )
        for name, least in (("init_count", 2), ("iter_count", 0), ("acq_candidates", 1)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, least))


@dataclass(frozen=True)
class ExperimentConfig:
    """Every experiment setting, in file units. A default shared with a
    sub-config is read from that class, and each sub-config checks the
    values it owns when __post_init__ builds it."""

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
    knn_k: int = KnnConfig.k
    knn_jitter: float = KnnConfig.jitter_scale
    # optimization
    bo_init: int = BoConfig.init_count
    bo_iters: int = BoConfig.iter_count
    bo_candidates: int = BoConfig.acq_candidates
    grid_nx: int = 11
    grid_ny: int = 21
    n_sensors: int = 3
    min_sep_m: float = 500.0
    # assimilation
    inflation: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # each field ExperimentConfig owns goes through the rule of its
        # default's type and is stored as the rule returns it; its counts
        # are in [1, MAX_COUNT], and the seed has no upper bound
        for f in fields(self):
            if _SECTIONS[f.name] in _SUB_CONFIGS:
                continue
            value = getattr(self, f.name)
            try:
                if isinstance(f.default, tuple):
                    value = check_pair(value, f.name)
                elif isinstance(f.default, float):
                    value = check_real(value, f.name)
                elif f.name == "seed":
                    value = check_count(value, f.name, 0, None)
                elif value is not None or f.default is not None:  # n_steps may be None
                    value = check_count(value, f.name)
            except ValueError as exc:
                raise ValueError(f"{exc}{_where(f.name)}") from None
            object.__setattr__(self, f.name, value)
        # the sub-configs check the fields they own, and each is stored as
        # its sub-config holds it; an error names the file sections the
        # sub-config is built from
        for section, build in (("knn", self.knn), ("bo", self.bo_config)):
            try:
                sub = build()
            except ValueError as exc:
                raise ValueError(f"{exc} (config section {_SUB_CONFIGS[section]})") from exc
            for part, key, name in LAYOUT:
                if part == section:
                    object.__setattr__(self, name, getattr(sub, key))
        if self.pipeline_y_km[1] <= self.pipeline_y_km[0]:
            raise ValueError(f"pipeline extent is degenerate{_where('pipeline_y_km')}")
        for name in ("wind_speed_m_s", "wind_dir_std_deg", "p_y", "total_min", "interval_min",
                     "release_duration_min", "release_mass", "noise_std", "conc_floor",
                     "min_sep_m", "inflation"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0{_where(name)}")
        if not 0 < self.q_y <= 1:
            raise ValueError(f"q_y must be in (0, 1]{_where('q_y')}")
        # the counts the timing derives obey MAX_COUNT too; the ratio is
        # checked first, so one that overflows never reaches int()
        if self.release_duration_min / self.interval_min > MAX_COUNT:
            raise ValueError(
                "config keys 'time.release_duration_min' and 'time.interval_min' "
                f"give more than {MAX_COUNT} puffs"
            )
        if self.n_steps is None and (
            self.total_min / self.interval_min > MAX_COUNT or self._n_times() > MAX_COUNT
        ):
            raise ValueError(
                "config keys 'time.total_min' and 'time.interval_min' "
                f"give more than {MAX_COUNT} observation instants"
            )
        # the last instants in seconds must be finite as well: the interval
        # in seconds can overflow where interval_min does not
        interval_s = self.interval_min * 60.0
        observed = "'time.n_steps'" if self.n_steps is not None else "'time.total_min'"
        for last, keys, what in (
            (interval_s * self._n_times(), observed, "observation"),
            (interval_s * (self._n_puffs() - 1), "'time.release_duration_min'", "release"),
        ):
            if not math.isfinite(last):
                raise ValueError(
                    f"config keys {keys} and 'time.interval_min' "
                    f"give a last {what} instant that is not finite in seconds"
                )

    # --- derived quantities, internal units ---

    def _n_times(self) -> int:
        if self.n_steps is not None:
            return self.n_steps
        return int(round(self.total_min / self.interval_min)) + 1

    def _n_puffs(self) -> int:
        # one puff every interval before the release ends; the ratio is
        # rounded to 9 places so float noise (16.1 / 0.7 is
        # 23.000000000000004) adds no puff, and a release of any length
        # has its puff at onset
        return max(1, math.ceil(round(self.release_duration_min / self.interval_min, 9)))

    def times(self) -> np.ndarray:
        """Observation instants in seconds, starting one interval after
        release onset; the default count spans the total time fencepost
        inclusive (30 min at 1 min spacing gives 31 instants)."""
        return self.interval_min * 60.0 * np.arange(1, self._n_times() + 1)

    def release_times(self) -> np.ndarray:
        """Puff release instants in seconds, one per interval from onset
        while the release lasts (10 min at 1 min spacing gives 0..540 s).
        Every puff carries release_mass."""
        return self.interval_min * 60.0 * np.arange(self._n_puffs())

    def knn(self) -> KnnConfig:
        return KnnConfig(k=self.knn_k, jitter_scale=self.knn_jitter)

    def check_entropy_members(self) -> None:
        """An EnKF ensemble's kNN entropy needs k + 1 members; assimilation
        alone needs 2, so construction does not check this."""
        if self.enkf_members <= self.knn_k:
            raise ValueError(
                f"enkf_members must exceed knn k for kNN entropies, got {self.enkf_members} "
                f"and {self.knn_k} (config keys {_KEYS['enkf_members']!r} and {_KEYS['knn_k']!r})"
            )

    def check_grid_sensors(self) -> None:
        """A grid placement picks n_sensors distinct nodes of the
        grid_nx-by-grid_ny grid; a BO placement has no grid, so
        construction does not check this."""
        keys = f"{_KEYS['n_sensors']!r}, {_KEYS['grid_nx']!r} and {_KEYS['grid_ny']!r}"
        check_count(self.n_sensors, f"n_sensors (config keys {keys})", 1,
                    self.grid_nx * self.grid_ny)

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
        wind_dir Gaussian around wind_dir_deg. Size-1 draws equal the
        scalar draws of the same stream."""
        lo, hi = self.pipeline_y_m()
        mean = math.radians(self.wind_dir_deg)
        return np.column_stack(
            [rng.uniform(lo, hi, n), rng.normal(mean, self.wind_dir_std_rad(), n)]
        )

    def bo_config(self) -> BoConfig:
        return BoConfig(
            domain=self.domain_m(),
            init_count=self.bo_init,
            iter_count=self.bo_iters,
            acq_candidates=self.bo_candidates,
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


def _where(name: str) -> str:
    return f" (config key {_KEYS[name]!r})"


def check_count(value, name: str, least: int = 1, most: int | None = MAX_COUNT) -> int:
    """value as a Python int if it is a count: an integer, Python's or
    numpy's but not a bool, in [least, most]; anything else raises a
    ValueError that names the argument `name`. most=None, for a seed,
    sets no upper bound."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < least or (most is not None and value > most):
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def check_real(value, name: str) -> float:
    """value as a Python float if it is a Python or numpy number, not a
    bool or a string, and finite; anything else raises a ValueError that
    names the argument `name`."""
    number = isinstance(value, (int, float, np.integer, np.floating))
    # NaN fails the comparison, and so does an integer beyond every float
    if not number or isinstance(value, bool) or not abs(value) <= np.finfo(float).max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_pair(value, name: str) -> tuple[float, float]:
    """value as a tuple of two Python floats if it is a list or tuple of
    two reals (check_real); anything else raises a ValueError that names
    the argument `name`."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return (check_real(value[0], name), check_real(value[1], name))
        except ValueError:
            pass
    raise ValueError(f"{name} must be a pair of finite numbers, got {value!r}")


def check_box(value, name: str, dims: int | None = None) -> np.ndarray:
    """value as a float (dims, 2) array of finite (low, high) bounds with
    low < high, a copy; dims=None takes any number of rows but none.
    Anything else, ragged or non-numeric input included, raises a
    ValueError that names the argument `name`."""
    rows = "dims" if dims is None else dims
    expected = f"{name} must be a ({rows}, 2) array of (low, high) bounds"
    try:
        box = np.array(value, dtype=float)
    except (TypeError, ValueError):  # ragged rows or not numbers
        raise ValueError(f"{expected}, got {value!r}") from None
    if box.ndim != 2 or box.shape[1] != 2 or not len(box) or dims not in (None, len(box)):
        raise ValueError(f"{expected}, got shape {box.shape}")
    if not np.isfinite(box).all() or np.any(box[:, 1] <= box[:, 0]):
        raise ValueError(f"{name} must be finite with low < high, got {box.tolist()}")
    return box


# The file layout, once: (section, key, field) in file order. Section None
# is the top level. Field None is pipeline_km.x, written as 0.0 and never
# read: the pipeline lies on the y axis.
LAYOUT = (
    ("domain_km", "x", "domain_x_km"), ("domain_km", "y", "domain_y_km"),
    ("pipeline_km", "x", None), ("pipeline_km", "y", "pipeline_y_km"),
    ("meteo", "wind_speed_m_s", "wind_speed_m_s"), ("meteo", "wind_dir_deg", "wind_dir_deg"),
    ("meteo", "wind_dir_std_deg", "wind_dir_std_deg"),
    ("meteo", "p_y", "p_y"), ("meteo", "q_y", "q_y"),
    ("time", "total_min", "total_min"), ("time", "interval_min", "interval_min"),
    ("time", "release_duration_min", "release_duration_min"), ("time", "n_steps", "n_steps"),
    (None, "release_mass", "release_mass"),
    ("observation", "noise_mean", "noise_mean"), ("observation", "noise_std", "noise_std"),
    ("observation", "conc_floor", "conc_floor"),
    ("ensemble", "placement_members", "placement_members"),
    ("ensemble", "enkf_members", "enkf_members"),
    ("knn", "k", "knn_k"), ("knn", "jitter_scale", "knn_jitter"),
    ("bo", "init_count", "bo_init"), ("bo", "iter_count", "bo_iters"),
    ("bo", "acq_candidates", "bo_candidates"),
    ("grid", "nx", "grid_nx"), ("grid", "ny", "grid_ny"),
    ("placement", "n_sensors", "n_sensors"), ("placement", "min_sep_m", "min_sep_m"),
    ("enkf", "inflation", "inflation"),
    (None, "seed", "seed"),
)
_KEYS = {name: key if section is None else f"{section}.{key}" for section, key, name in LAYOUT}
_SECTIONS = {name: section for section, _, name in LAYOUT}
# the file sections of each sub-config's fields, and how an error names them
_SUB_CONFIGS = {"knn": "'knn'", "bo": "'domain_km' or 'bo'"}
# section -> the keys it declares; the top level (None) also declares the sections
_DECLARED = {
    part: {key for section, key, _ in LAYOUT if section == part}
    for part in {section for section, _, _ in LAYOUT}
}
_DECLARED[None] |= _DECLARED.keys() - {None}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc: dict = {}
    for section, key, name in LAYOUT:
        value = 0.0 if name is None else getattr(cfg, name)
        part = doc if section is None else doc.setdefault(section, {})
        part[key] = list(value) if isinstance(value, tuple) else value
    return doc


def config_from_dict(doc) -> ExperimentConfig:
    """The config a document describes. A document with a key or section
    LAYOUT does not declare, or without a required key, raises a
    ValueError that names the key; the constructor checks the values."""
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
    undeclared = [key for key in doc if key not in _DECLARED[None]] + [
        f"{section}.{key}" for section, part in doc.items()
        if section in _DECLARED and isinstance(part, dict) for key in part
        if key not in _DECLARED[section]
    ]
    if undeclared:
        raise ValueError(f"config has undeclared key(s): {', '.join(map(repr, undeclared))}")
    values = {}
    for section, key, name in LAYOUT:
        part = doc if section is None else doc.get(section, {})
        if not isinstance(part, dict):
            raise ValueError(f"config key {section!r} must be an object, got {part!r}")
        if name is None:
            continue
        # a field that defaults to None (n_steps) may be absent
        if key not in part and getattr(ExperimentConfig, name) is not None:
            raise ValueError(f"config is missing required key: {_KEYS[name]!r}")
        values[name] = part.get(key)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"config file {path} is not JSON: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
