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
A sensor set is an (S, 2) array of points or a GridSpec. _trajectories
is the one pass over all instants for both; simulate_ensemble adds one
noise stream per sensor, simulate_accidents one per accident, and
simulate_observations is its one-accident case. The EnKF forecast calls
log_concentrations_at, the per-instant point path.

A puff's centre, radius and amplitude depend on its age alone, and the
puffs alive at the observation instants share few ages (at 1 min
spacing every age is a whole number of minutes). So _trajectories
evaluates the footprint once per distinct age, then sums each instant's
rows in release order: the floats of one evaluation per instant (at
points, log_concentrations_at's), bit for bit, for far fewer
exponentials. Which rows those are depends on the config alone:
_age_table holds the distinct ages and, per instant, its puffs' rows in
release order, padded to the longest instant with the row number of an
all-zero footprint row. It is built once per config and read-only. At
points the footprint gains that zero row, one gather through the table
stacks every instant's rows, (J, n_times, n_members), and _sum_rows adds
them left to right, every instant at once; a pad adds +0.0 to a
nonnegative sum, which leaves its bits. The grid reads each instant's
rows without the pads.

The point footprint is puff-major: centres and footprints are
(K, n_members) arrays, one row per puff. A reading sums K <= 10 puffs
(desk and full profiles) over hundreds to thousands of members. In this
layout every numpy call runs over n_members values; in the member-major
layout (n_members, K), np.sum(..., axis=1) and each per-puff broadcast
run numpy's inner loop once per member over only K values, which costs
several times more. _sum_rows adds each member's K terms in release
order, whatever the member count, so a member's reading has the same
bits alone or in an ensemble.

The footprint is chosen by the sensors' form. At arbitrary points it is
the joint exp(-(dx**2 + dy**2) / 2r**2), one exponential per member,
puff and point. On a GridSpec, every node of an X-by-Y grid, it is the
separable exp(-dx**2 / 2r**2) * exp(-dy**2 / 2r**2): X + Y exponentials
per member and puff, and the sum over puffs is a batched matrix product.
The two agree to rounding (a few 1e-15 in log space); the separable form
is slower on a handful of points, so points keep the joint one. Both
read the puffs' centres, radii and amplitudes from one transport helper,
and the separable factors are puff-major too, (K, n_members, X) arrays
whose gathered rows the product reads through transposed views.
Sensors at points must be finite (x, y) pairs (sensor_rows), and
accidents (C, 2) rows (_accident_rows).

Most puffs are far from a given point, so most joint exponents are
hugely negative: over a desk compare call, 55 % of them lie below -700.
numpy's vectorised exp computes a whole vector one lane at a time when
any lane lies below about -708, and a subnormal result (-709 to -745)
costs over 100 times a normal one. _exp gives np.exp's bits without
that path: every lane np.exp returns +0 for (below -746) is set to 0,
the few lanes between -746 and -700 get np.exp on their own, and the
rest run at full speed. np.exp gives each lane the same bits whatever
its neighbours, so the thresholds decide speed only, never the result.

Everything here is in meters, seconds and radians. Wind angle 0 points
east (+x), pi/2 north (+y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig, check_box, check_count


@dataclass(frozen=True)
class GridSpec:
    """Sensors on every node of an nx-by-ny grid over the domain box
    [[x0, x1], [y0, y1]], x-major: (xs[i], ys[j]) is node i * ny + j.
    nx and ny are counts and the domain a (2, 2) box, by the rules of
    config.check_count and config.check_box; the grid keeps a float copy
    of the domain."""

    nx: int
    ny: int
    domain: np.ndarray

    def __post_init__(self):
        check_count(self.nx, "nx")
        check_count(self.ny, "ny")
        object.__setattr__(self, "domain", check_box(self.domain, "domain", 2))

    def _key(self) -> tuple:
        return self.nx, self.ny, self.domain.tobytes()

    def __eq__(self, other):
        """Grids are equal when nx, ny and the domain's bits are."""
        if not isinstance(other, GridSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.domain[0, 0], self.domain[0, 1], self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.domain[1, 0], self.domain[1, 1], self.ny)

    def nodes(self) -> list[tuple[float, float]]:
        return [(float(x), float(y)) for x in self.xs for y in self.ys]


def simulate_observations(cfg: ExperimentConfig, truth, sensors, rng_seed: int) -> np.ndarray:
    """Noisy log-concentration trajectories, one row per sensor and one
    column per instant of cfg.times().

    truth is one accident, a (release_y, wind_dir) row. The noise-free
    part is log_concentrations_at for that single member at each instant:
    every puff released before t contributes with age t - release time.
    Each sensor reads ln(max(c, cfg.conc_floor)) plus a Gaussian noise
    draw (cfg.noise_mean, cfg.noise_std) from the seeded stream. This is
    simulate_accidents for one accident.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (2,):
        raise ValueError(f"truth must be a (release_y, wind_dir) row, got shape {truth.shape}")
    return simulate_accidents(cfg, truth[None], sensors, [rng_seed])[0]


def simulate_accidents(cfg: ExperimentConfig, truths, sensors, rng_seeds) -> np.ndarray:
    """simulate_observations of C accidents at once, shape (C, n_sensors,
    n_times), with one forward pass over all instants for all of them.

    truths is a (C, 2) array of (release_y, wind_dir) rows. Accident c
    draws its noise from its own stream rng_seeds[c], so row c is
    simulate_observations(cfg, truths[c], sensors, rng_seeds[c]) bit for
    bit.
    """
    truths = _accident_rows(truths, "truths")
    if len(sensors) == 0:
        raise ValueError("need at least one sensor")
    clean = np.ascontiguousarray(_trajectories(cfg, truths, sensors).swapaxes(0, 1))
    return _add_noise(cfg, clean, rng_seeds, "accident")


def simulate_ensemble(cfg: ExperimentConfig, params, sensors, rng_seeds) -> np.ndarray:
    """Noisy log-observation trajectories of an ensemble's (n_members, 2)
    parameter rows at a sensor set, (S, 2) points or a GridSpec, shape
    (n_sensors, n_members, n_times). Sensor i's noise comes from its own
    stream rng_seeds[i], so a grid node's row is the point row of that
    node up to the rounding of the separable footprint."""
    return _add_noise(cfg, _trajectories(cfg, params, sensors), rng_seeds, "sensor")


def _add_noise(cfg: ExperimentConfig, rows: np.ndarray, rng_seeds, what: str) -> np.ndarray:
    """rows plus Gaussian noise (cfg.noise_mean, cfg.noise_std) in place,
    row i's from its own stream rng_seeds[i]; `what` names a row."""
    try:
        n_seeds = len(rng_seeds)
    except TypeError:  # a single seed, not one per row
        raise ValueError(f"rng_seeds must hold one seed per {what}, got {rng_seeds!r}") from None
    if n_seeds != len(rows):
        raise ValueError(
            f"need one noise seed per {what}: {len(rows)} {what}s, {n_seeds} seeds"
        )
    for row, seed in zip(rows, rng_seeds):
        row += np.random.default_rng(seed).normal(cfg.noise_mean, cfg.noise_std, row.shape)
    return rows


def log_concentrations_at(cfg: ExperimentConfig, params, sensors, t: float) -> np.ndarray:
    """Clamped log-concentrations for a whole parameter ensemble at time t.

    params holds (n_members, 2) accident rows (release_y, wind_dir);
    sensors is an (n_sensors, 2) array of points. Vectorized over members,
    shape (n_members, n_sensors). A puff sits at spawn + speed * age *
    (cos w, sin w), the closed form of the module docstring. Noise-free:
    this is the model prediction, not a measurement.
    """
    release_y, wind_dir = _accident_rows(params, "params").T
    sensors = sensor_rows(sensors, "sensors")
    out = np.full((len(release_y), len(sensors)), np.log(cfg.conc_floor))
    ages = _ages(cfg, t)
    if ages.size == 0:
        return out
    puffs = _puffs(cfg, release_y, wind_dir, ages)
    for j, (sx, sy) in enumerate(sensors):
        c = _sum_rows(_footprint(puffs, sx, sy))
        out[:, j] = np.log(np.maximum(c, cfg.conc_floor, out=c), out=c)
    return out


def sensor_rows(value, name: str) -> np.ndarray:
    """value as an (S, 2) array of sensor points with S >= 1, the one
    check of point sensors: a ValueError names `name` unless every row
    is a finite (x, y) pair."""
    expected = f"{name} must be an (S, 2) array of sensor locations with S >= 1"
    try:
        sensors = np.atleast_2d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):  # ragged rows or not numbers
        raise ValueError(f"{expected}, got {value!r}") from None
    if sensors.ndim != 2 or sensors.shape[0] < 1 or sensors.shape[1] != 2:
        raise ValueError(f"{expected}, got shape {np.shape(value)}")
    if not np.isfinite(sensors).all():
        raise ValueError(f"{name} must be finite (x, y) pairs, got {sensors.tolist()}")
    return sensors


def _accident_rows(value, name: str) -> np.ndarray:
    """value as a float (C, 2) array of (release_y, wind_dir) rows, the
    one check of accidents: a ValueError names `name` unless it has
    that shape."""
    rows = np.asarray(value, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError(
            f"{name} must be (C, 2) (release_y, wind_dir) rows, got shape {rows.shape}"
        )
    return rows


def _ages(cfg: ExperimentConfig, t: float) -> np.ndarray:
    """Ages at time t of the puffs released before it, in release order."""
    released = cfg.release_times()
    return t - released[released < t]


def _puffs(cfg: ExperimentConfig, release_y, wind_dir, ages):
    """Centres px, py (K, n_members), and twice the squared radii and the
    peak amplitudes (K, 1) of puffs of the K given ages: puff-major, one
    row per puff, so that the footprint and its sum over puffs run each
    numpy call over all members (module docstring)."""
    s = cfg.wind_speed_m_s * ages[:, None]
    r2 = (cfg.p_y * s**cfg.q_y) ** 2
    px = s * np.cos(wind_dir)
    py = release_y + s * np.sin(wind_dir)
    return px, py, 2 * r2, cfg.release_mass / (2 * np.pi * r2)


def _footprint(puffs, sx, sy, out=None) -> np.ndarray:
    """Each puff's concentration at the point (sx, sy), a (K, n_members)
    array shaped like the centres, new or written into `out`: the joint
    footprint amp * exp(-(dx**2 + dy**2) / 2r**2). The exponent is built
    in place and divided by -2r**2, which gives the bits of negating it
    first: IEEE division is sign-symmetric."""
    px, py, two_r2, amp = puffs
    x = np.subtract(px, sx, out=out)
    np.square(x, out=x)
    x += (py - sy) ** 2
    x /= -two_r2
    x = _exp(x)
    x *= amp
    return x


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sum of the K rows of a (K, ...) array, added in release order:
    ((a[0] + a[1]) + a[2]) + ... for every K and n. Not np.sum(a,
    axis=0): numpy picks its order from the shape, and for n up to 3 it
    sums pairwise along K, so a member's reading would depend on how
    many members share the call."""
    out = a[0].copy()
    for row in a[1:]:
        out += row
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x) bit for bit, computed in the float array x, which it
    returns: lanes below -746, where np.exp is +0, become 0, lanes in
    [-746, -700) get np.exp alone, and the rest stay on the vector path
    (module docstring)."""
    keep = x >= -746.0
    band = np.flatnonzero((x < -700.0) & keep)
    band_values = np.exp(np.take(x, band))
    np.maximum(x, -700.0, out=x)
    np.exp(x, out=x)
    x *= keep
    np.put(x, band, band_values)
    return x


class _AgeTable(NamedTuple):
    """The puff ages of cfg.times(): `ages`, the distinct ages, ascending;
    `rows`, an (n_times, J) table whose row k holds instant k's puffs'
    rows in `ages`, in release order, padded with len(ages), the row
    number of an all-zero footprint row; `counts`, each instant's number
    of puffs. J is the largest count."""

    ages: np.ndarray
    rows: np.ndarray
    counts: np.ndarray


@functools.lru_cache(maxsize=16)
def _age_table(cfg: ExperimentConfig) -> _AgeTable:
    """The _AgeTable of cfg, built once per config and read-only, since
    every caller shares it."""
    ages = [_ages(cfg, t) for t in cfg.times()]
    counts = np.array([a.size for a in ages])
    distinct, inverse = np.unique(np.concatenate(ages), return_inverse=True)
    rows = np.full((len(ages), counts.max()), len(distinct))
    for row, idx in zip(rows, np.split(inverse, np.cumsum(counts)[:-1])):
        row[: len(idx)] = idx
    for a in (distinct, rows, counts):
        a.flags.writeable = False
    return _AgeTable(distinct, rows, counts)


def _trajectories(cfg, params, sensors):
    """Noise-free log-concentrations of the (n_members, 2) parameter rows
    at a sensor set at every instant of cfg.times(), shape (n_sensors,
    n_members, n_times), in one pass (module docstring).

    The footprint is evaluated once per distinct age of cfg's _age_table.
    At points it gains the table's zero row, and _sum_rows sums the rows
    the table gathers, every instant at once; on a GridSpec each
    instant's gathered (K, block, X) and (K, block, Y) factors of a block
    of members, without pads, go into the batched matrix product,
    written into one (block, X, Y) buffer. A gather along the first axis
    copies no more than its rows.
    """
    release_y, wind_dir = _accident_rows(params, "params").T
    grid = isinstance(sensors, GridSpec)
    if not grid:
        sensors = sensor_rows(sensors, "sensors")
    n = len(release_y)
    table = _age_table(cfg)
    n_sensors = sensors.nx * sensors.ny if grid else len(sensors)
    # every instant follows the puff released at onset, so each is written
    out = np.empty((n_sensors, n, len(table.rows)))
    puffs = _puffs(cfg, release_y, wind_dir, table.ages)
    if grid:
        px, py, two_r2, amp = (a[:, :, None] for a in puffs)
        gx = np.exp(-((px - sensors.xs) ** 2) / two_r2)  # (n_distinct, n, X)
        gy = np.exp(-((py - sensors.ys) ** 2) / two_r2)  # (n_distinct, n, Y)
        gx *= amp
        block = 128  # members per gather, which bounds the gathered copies
        buffer = np.empty((block, sensors.nx, sensors.ny))
        for k, (row, count) in enumerate(zip(table.rows, table.counts)):
            idx = row[:count]
            for m in range(0, n, block):
                x, y = gx[idx, m : m + block], gy[idx, m : m + block]
                c = buffer[: x.shape[1]]
                np.matmul(x.transpose(1, 2, 0), y.transpose(1, 0, 2), out=c)
                np.log(np.maximum(c, cfg.conc_floor, out=c), out=c)
                out[:, m : m + len(c), k] = c.reshape(len(c), n_sensors).T
        return out
    g = np.zeros((len(table.ages) + 1, n))  # the last row is the pads' zero
    for j, (sx, sy) in enumerate(sensors):
        _footprint(puffs, sx, sy, out=g[:-1])
        c = _sum_rows(g[table.rows.T])  # (n_times, n_members)
        out[j] = np.log(np.maximum(c, cfg.conc_floor, out=c), out=c).T
    return out
