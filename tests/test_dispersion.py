import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumeplace.dispersion import (
    MeteoConfig,
    ObservationModel,
    simulate_ensemble,
    simulate_observations,
)

from oracles import PuffState, concentration, step_puff, stepped_observations

METEO = MeteoConfig(wind_speed=4.0, p_y=0.466, q_y=0.866)
EAST = 0.0  # the oracle's heading, toward +x
DT = 60.0  # the oracle's transport step, one observation interval
QUIET = ObservationModel(noise_mean=0.0, noise_std=1e-30, conc_floor=1e-12)


def fresh_puff(mass=1.0):
    return PuffState(x=0.0, y=0.0, s=0.0, r=0.0, mass=mass)


class TestStepPuff:
    def test_straight_east_transport(self):
        p = step_puff(fresh_puff(), METEO, EAST, DT)
        assert p.x == pytest.approx(240.0)
        assert p.y == pytest.approx(0.0)
        assert p.s == pytest.approx(240.0)

    def test_radius_growth_law(self):
        p = step_puff(fresh_puff(), METEO, EAST, DT)
        assert p.r == pytest.approx(0.466 * 240.0**0.866, rel=1e-12)
        assert p.r == pytest.approx(53.6598, abs=1e-3)

    def test_northward_wind(self):
        p = step_puff(fresh_puff(), METEO, math.pi / 2, DT)
        assert p.x == pytest.approx(0.0, abs=1e-9)
        assert p.y == pytest.approx(240.0)

    def test_mass_conserved_and_s_monotone(self):
        p = fresh_puff(mass=2.5)
        travelled = [0.0]
        for _ in range(20):
            p = step_puff(p, METEO, EAST, DT)
            travelled.append(p.s)
            assert p.mass == 2.5
            assert p.r == pytest.approx(METEO.p_y * p.s**METEO.q_y, rel=1e-12)
        assert all(b > a for a, b in zip(travelled, travelled[1:]))

    def test_peak_concentration_decreases(self):
        p = step_puff(fresh_puff(), METEO, EAST, DT)
        peaks = []
        for _ in range(10):
            peaks.append(concentration([p], (p.x, p.y)))
            p = step_puff(p, METEO, EAST, DT)
        assert all(b < a for a, b in zip(peaks, peaks[1:]))


class TestConcentration:
    def test_center_value(self):
        p = step_puff(fresh_puff(mass=3.0), METEO, EAST, DT)
        assert concentration([p], (p.x, p.y)) == pytest.approx(
            3.0 / (2 * math.pi * p.r**2), rel=1e-12
        )

    def test_empty_list_is_zero(self):
        assert concentration([], (0.0, 0.0)) == 0.0

    def test_two_colocated_puffs_double(self):
        p = step_puff(fresh_puff(), METEO, EAST, DT)
        single = concentration([p], (100.0, 50.0))
        assert concentration([p, p], (100.0, 50.0)) == pytest.approx(2 * single, rel=1e-12)

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError, match="r=0"):
            concentration([fresh_puff()], (0.0, 0.0))

    def test_plane_integral_equals_mass(self):
        p = step_puff(step_puff(fresh_puff(mass=2.0), METEO, EAST, DT), METEO, EAST, DT)
        half = 8 * p.r
        xs = np.linspace(p.x - half, p.x + half, 401)
        ys = np.linspace(p.y - half, p.y + half, 401)
        dx = xs[1] - xs[0]
        grid = np.array([[concentration([p], (x, y)) for x in xs] for y in ys])
        integral = grid.sum() * dx * dx
        assert integral == pytest.approx(2.0, rel=0.01)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_mass(self, scale):
        p = step_puff(fresh_puff(), METEO, EAST, DT)
        boosted = PuffState(x=p.x, y=p.y, s=p.s, r=p.r, mass=p.mass * scale)
        at = (200.0, 30.0)
        assert concentration([boosted], at) == pytest.approx(
            scale * concentration([p], at), rel=1e-12
        )


SENSORS = [(240.0, 0.0), (1000.0, 500.0)]
TIMES = 60.0 * np.arange(1, 6)
SCHEDULE = [(0.0, 1.0)]


class TestSimulateObservations:
    def test_far_upwind_sensor_reads_floor(self):
        params = np.array([0.0, 0.0])
        out = simulate_observations(
            params, METEO, [(-5000.0, -5000.0)], TIMES, SCHEDULE, QUIET, rng_seed=1
        )
        assert np.allclose(out, math.log(QUIET.conc_floor), atol=1e-9)

    def test_deterministic_per_seed(self):
        params = np.array([-500.0, 0.1])
        obs = ObservationModel()
        a = simulate_observations(params, METEO, SENSORS, TIMES, SCHEDULE, obs, rng_seed=7)
        b = simulate_observations(params, METEO, SENSORS, TIMES, SCHEDULE, obs, rng_seed=7)
        assert np.array_equal(a, b)
        c = simulate_observations(params, METEO, SENSORS, TIMES, SCHEDULE, obs, rng_seed=8)
        assert not np.array_equal(a, c)

    def test_single_puff_center_reading(self):
        # sensor sits exactly where the first transport step puts the puff
        params = np.array([0.0, 0.0])
        p = step_puff(fresh_puff(), METEO, EAST, DT)
        out = simulate_observations(
            params, METEO, [(p.x, p.y)], TIMES[:1], SCHEDULE, QUIET, rng_seed=0
        )
        assert out[0, 0] == pytest.approx(math.log(1.0 / (2 * math.pi * p.r**2)), abs=1e-9)

    def test_rotation_equivariance(self):
        release_y = -800.0
        angle = 0.35
        base = np.array([release_y, 0.1])
        turned = np.array([release_y, 0.1 + angle])
        sensors = [(900.0, -400.0), (1500.0, 200.0)]
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        pivot = np.array([0.0, release_y])
        moved = [tuple(pivot + rot @ (np.asarray(s) - pivot)) for s in sensors]
        schedule = [(0.0, 1.0), (60.0, 1.0), (120.0, 1.0)]
        a = simulate_observations(base, METEO, sensors, TIMES, schedule, QUIET, 0)
        b = simulate_observations(turned, METEO, moved, TIMES, schedule, QUIET, 0)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_mass_conservation_across_run(self):
        # every scheduled release shows up with unchanged mass at the end
        params = np.array([0.0, 0.0])
        schedule = [(0.0, 1.5), (60.0, 2.5), (120.0, 3.0)]
        times = 60.0 * np.arange(1, 8)
        # run the oracle's stepping loop manually to inspect the puff list
        puffs = []
        pending = sorted(schedule)
        while pending and pending[0][0] <= times[0] - DT:
            _, mass = pending.pop(0)
            puffs.append(PuffState(0.0, params[0], 0.0, 0.0, mass))
        for t in times:
            puffs = [step_puff(p, METEO, EAST, DT) for p in puffs]
            while pending and pending[0][0] <= t:
                _, mass = pending.pop(0)
                puffs.append(PuffState(0.0, params[0], 0.0, 0.0, mass))
        assert sum(p.mass for p in puffs) == pytest.approx(7.0)

    def test_matches_stepped_oracle_on_config_schedule(self, desk_config):
        # the schedules ExperimentConfig makes release on the observation grid
        params = np.array([-700.0, 0.05])
        sensors = [(1200.0, -500.0), (2400.0, 0.0), (600.0, 300.0)]
        args = (
            params,
            desk_config.meteo(),
            sensors,
            desk_config.times(),
            desk_config.release_schedule(),
            QUIET,
        )
        dt = desk_config.interval_min * 60.0
        np.testing.assert_allclose(
            simulate_observations(*args, 0),
            stepped_observations(*args, 0, dt),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_validates_times_and_sensors(self):
        params = np.array([0.0, 0.0])
        with pytest.raises(ValueError):
            simulate_observations(params, METEO, [], TIMES, SCHEDULE, QUIET, 0)
        with pytest.raises(ValueError):
            simulate_observations(
                params, METEO, SENSORS, [60.0, 60.0], SCHEDULE, QUIET, 0
            )

    @pytest.mark.parametrize("truth", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_rejects_truth_that_is_not_one_row(self, truth):
        with pytest.raises(ValueError, match=r"truth must be a \(release_y, wind_dir\) row"):
            simulate_observations(truth, METEO, SENSORS, TIMES, SCHEDULE, QUIET, 0)


class TestSimulateEnsemble:
    def test_matches_scalar_path(self):
        # closed form against the oracle's scalar stepper, on a release
        # schedule aligned to the observation grid
        rng = np.random.default_rng(11)
        params = np.column_stack(
            [rng.uniform(-2000, 2000, 8), rng.normal(0.0, 0.17, 8)]
        )
        schedule = [(0.0, 1.0), (60.0, 1.0)]
        sensor = (700.0, 150.0)
        batch = simulate_ensemble(params, METEO, sensor, TIMES, schedule, QUIET, rng_seed=3)
        for i in range(len(params)):
            row = stepped_observations(
                params[i], METEO, [sensor], TIMES, schedule, QUIET, 4, DT
            )[0]
            np.testing.assert_allclose(batch[i], row, rtol=1e-9, atol=1e-9)

    def test_member_rows_equal_simulate_observations(self):
        # one forward model: each ensemble row is the single-member truth
        rng = np.random.default_rng(12)
        params = np.column_stack(
            [rng.uniform(-2000, 2000, 8), rng.normal(0.0, 0.17, 8)]
        )
        schedule = [(0.0, 1.0), (60.0, 1.0)]
        sensor = (700.0, 150.0)
        batch = simulate_ensemble(params, METEO, sensor, TIMES, schedule, QUIET, rng_seed=3)
        for i in range(len(params)):
            row = simulate_observations(
                params[i], METEO, [sensor], TIMES, schedule, QUIET, rng_seed=4
            )[0]
            np.testing.assert_array_equal(batch[i], row)

    def test_noise_reproducible_per_seed(self):
        params = np.array([[0.0, 0.0], [500.0, 0.1]])
        obs = ObservationModel()
        a = simulate_ensemble(params, METEO, (500.0, 0.0), TIMES, SCHEDULE, obs, rng_seed=5)
        b = simulate_ensemble(params, METEO, (500.0, 0.0), TIMES, SCHEDULE, obs, rng_seed=5)
        assert np.array_equal(a, b)


class TestValidation:
    def test_meteo_invariants(self):
        with pytest.raises(ValueError):
            MeteoConfig(wind_speed=0.0, p_y=0.466, q_y=0.866)
        with pytest.raises(ValueError):
            MeteoConfig(wind_speed=4.0, p_y=0.466, q_y=1.5)

    def test_observation_invariants(self):
        with pytest.raises(ValueError):
            ObservationModel(noise_std=0.0)
        with pytest.raises(ValueError):
            ObservationModel(conc_floor=0.0)

    def test_puff_invariants(self):
        with pytest.raises(ValueError):
            PuffState(x=0.0, y=0.0, s=-1.0, r=0.0, mass=1.0)
