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
simulate_accidents observes C accidents with one forward pass over all
instants, each with its own noise stream; simulate_observations is its
one-accident case.

A puff's centre, radius and amplitude depend on its age alone, and the
puffs alive at the observation instants share few ages (at 1 min
spacing every age is a whole number of minutes). So the point path
over all instants (simulate_ensemble, simulate_accidents) evaluates one
footprint row per distinct age and sensor, then sums each instant's
rows in release order: the floats log_concentrations_at gives instant
by instant, bit for bit, for far fewer exponentials.

The point footprint is puff-major: centres and footprints are
(K, n_members) arrays, one row per puff. A reading sums K <= 10 puffs
(desk and full profiles) over hundreds to thousands of members. In this
layout every numpy call runs over n_members values; in the member-major
layout (n_members, K), np.sum(..., axis=1) and each per-puff broadcast
run numpy's inner loop once per member over only K values, which costs
several times more. _sum_rows adds each member's K terms in the order
numpy's pairwise sum adds a contiguous row, so the readings keep the
member-major layout's bits.

The footprint is chosen by the sensors' form. At arbitrary points it is
the joint exp(-(dx**2 + dy**2) / 2r**2), one exponential per member,
puff and point. On a GridSpec, every node of an X-by-Y grid, it is the
separable exp(-dx**2 / 2r**2) * exp(-dy**2 / 2r**2): X + Y exponentials
per member and puff, and the sum over puffs is a batched matrix product.
The two agree to rounding (a few 1e-15 in log space); the separable form
is slower on a handful of points, so points keep the joint one. Both
read the puffs' centres, radii and amplitudes from one transport helper;
the separable form reads the centres through transposed views and keeps
its (n_members, K, X) arrays.
Sensors at points must be finite (x, y) pairs (sensor_rows).

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

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig


@dataclass(frozen=True)
class GridSpec:
    """Sensors on every node of an nx-by-ny grid over the domain box
    [[x0, x1], [y0, y1]], x-major: (xs[i], ys[j]) is node i * ny + j."""

    nx: int
    ny: int
    domain: np.ndarray

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
    truths = np.asarray(truths, dtype=float)
    if truths.ndim != 2 or truths.shape[1] != 2:
        raise ValueError(
            f"truths must be (C, 2) (release_y, wind_dir) rows, got shape {truths.shape}"
        )
    if len(rng_seeds) != len(truths):
        raise ValueError(
            f"need one noise seed per accident: {len(truths)} accidents, {len(rng_seeds)} seeds"
        )
    if len(sensors) == 0:
        raise ValueError("need at least one sensor")
    clean = _trajectories(cfg, truths, sensors)
    return np.stack(
        [
            rows + np.random.default_rng(seed).normal(cfg.noise_mean, cfg.noise_std, rows.shape)
            for rows, seed in zip(clean, rng_seeds)
        ]
    )


def log_concentrations_at(cfg: ExperimentConfig, params, sensors, t: float) -> np.ndarray:
    """Clamped log-concentrations for a whole parameter ensemble at time t.

    params holds (n_members, 2) accident rows (release_y, wind_dir);
    sensors is an (n_sensors, 2) array of points or a GridSpec, whose
    nodes are the sensors in x-major order. Vectorized over members,
    shape (n_members, n_sensors). A puff sits at spawn + speed * age *
    (cos w, sin w), the closed form of the module docstring; a GridSpec
    takes the separable footprint, points the joint one. Noise-free: this
    is the model prediction, not a measurement.
    """
    release_y, wind_dir = np.asarray(params, dtype=float).T
    if isinstance(sensors, GridSpec):
        n_sensors = sensors.nx * sensors.ny
    else:
        sensors = sensor_rows(sensors, "sensors")
        n_sensors = len(sensors)
    out = np.full((len(release_y), n_sensors), np.log(cfg.conc_floor))
    ages = _ages(cfg, t)
    if ages.size == 0:
        return out
    puffs = _puffs(cfg, release_y, wind_dir, ages)
    if isinstance(sensors, GridSpec):
        px, py, two_r2, amp = puffs
        gx = np.exp(-((px.T[:, :, None] - sensors.xs) ** 2) / two_r2)  # (n, K, X)
        gy = np.exp(-((py.T[:, :, None] - sensors.ys) ** 2) / two_r2)  # (n, K, Y)
        gx *= amp
        c = np.matmul(gx.transpose(0, 2, 1), gy).reshape(len(release_y), n_sensors)
        return np.log(np.maximum(c, cfg.conc_floor, out=c), out=c)
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


def _footprint(puffs, sx, sy) -> np.ndarray:
    """Each puff's concentration at the point (sx, sy), a new (K,
    n_members) array shaped like the centres: the joint footprint
    amp * exp(-(dx**2 + dy**2) / 2r**2). The exponent is built in place
    and divided by -2r**2, which gives the bits of negating it first:
    IEEE division is sign-symmetric."""
    px, py, two_r2, amp = puffs
    x = (px - sx) ** 2
    x += (py - sy) ** 2
    x /= -two_r2
    x = _exp(x)
    x *= amp
    return x


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sum of the K rows of a (K, n) array with the floats of
    np.sum(a.T.copy(), axis=1), each column added in the order numpy's
    pairwise sum adds a contiguous row of K terms. That order is
    numpy's, not an API; TestSumRows pins it on the installed numpy.
    Below 8 terms they are added in order. Up to 128, eight interleaved
    partial sums are joined pairwise, then the rest are added in order.
    Above 128, the two halves, the first a multiple of 8, are summed
    alike and added. numpy also adds the 0.0 it starts from, which
    changes only a sum of -0 terms, to +0; a footprint is never -0."""
    k = len(a)
    if k < 8:
        out = a[0].copy()
        for row in a[1:]:
            out += row
        return out
    if k > 128:
        half = k // 2 - k // 2 % 8
        out = _sum_rows(a[:half])
        out += _sum_rows(a[half:])
        return out
    r = a[:8].copy()
    whole = k - k % 8
    for i in range(8, whole, 8):
        r += a[i : i + 8]
    r[0::2] += r[1::2]  # r0 + r1, r2 + r3, r4 + r5, r6 + r7
    r[0::4] += r[2::4]
    out = r[0]
    out += r[4]
    for row in a[whole:]:
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


def simulate_ensemble(cfg: ExperimentConfig, params: np.ndarray, sensor, rng_seed) -> np.ndarray:
    """Noisy log-observation trajectories for an ensemble at one sensor.

    params is an (n_members, 2) array of (release_y, wind_dir); the
    result is (n_members, n_times). The noise matrix comes from a single
    stream keyed by rng_seed, so rebuilding the same location reproduces
    the observations bit for bit.
    """
    clean = _trajectories(cfg, params, [sensor])[:, 0]
    return clean + np.random.default_rng(rng_seed).normal(cfg.noise_mean, cfg.noise_std, clean.shape)


def simulate_lattice(cfg: ExperimentConfig, params: np.ndarray, grid: GridSpec, rng_seeds) -> np.ndarray:
    """Noisy log-observation trajectories for an ensemble at every node of
    a grid, shape (n_nodes, n_members, n_times), with one separable
    forward evaluation per instant.

    Node i's noise is drawn from its own stream rng_seeds[i] exactly as
    simulate_ensemble draws it, so row i is simulate_ensemble at that
    node up to the rounding of the separable footprint.
    """
    times = cfg.times()
    out = np.empty((grid.nx * grid.ny, len(params), len(times)))
    if len(rng_seeds) != len(out):
        raise ValueError(f"need one noise seed per node: {len(out)} nodes, {len(rng_seeds)} seeds")
    for row, seed in zip(out, rng_seeds):
        row[...] = np.random.default_rng(seed).normal(cfg.noise_mean, cfg.noise_std, row.shape)
    for j, t in enumerate(times):
        out[:, :, j] += log_concentrations_at(cfg, params, grid, t).T
    return out


def _trajectories(cfg, params, sensors):
    """log_concentrations_at of the (n_members, 2) parameter rows at the
    point sensors at every instant of cfg.times(), shape (n_members,
    n_sensors, n_times), bit for bit, in one pass.

    The footprint is evaluated once per distinct puff age and sensor,
    puff-major (n_distinct, n_members) like _puffs. Each instant then
    gathers its puffs' rows in release order and sums them with
    _sum_rows, as log_concentrations_at sums its own footprint.
    """
    release_y, wind_dir = np.asarray(params, dtype=float).T
    sensors = sensor_rows(sensors, "sensors")
    times = cfg.times()
    out = np.full((len(release_y), len(sensors), len(times)), np.log(cfg.conc_floor))
    ages = [_ages(cfg, t) for t in times]
    distinct, inverse = np.unique(np.concatenate(ages), return_inverse=True)
    rows = np.split(inverse, np.cumsum([a.size for a in ages])[:-1])
    puffs = _puffs(cfg, release_y, wind_dir, distinct)
    for j, (sx, sy) in enumerate(sensors):
        g = _footprint(puffs, sx, sy)  # (n_distinct, n_members)
        for k, idx in enumerate(rows):
            if idx.size:
                c = _sum_rows(np.take(g, idx, axis=0))
                out[:, j, k] = np.log(np.maximum(c, cfg.conc_floor, out=c), out=c)
    return out
