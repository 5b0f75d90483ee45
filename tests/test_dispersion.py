import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from plumeplace import dispersion
from plumeplace.config import ExperimentConfig
from plumeplace.dispersion import (
    Lattice,
    log_concentrations_at,
    sensor_rows,
    simulate_accidents,
    simulate_ensemble,
    simulate_lattice,
    simulate_observations,
)

from oracles import (
    PuffState,
    concentration,
    np_exp_footprint,
    per_instant_trajectories,
    step_puff,
    stepped_observations,
)

CFG = ExperimentConfig()  # the stepper reads its wind speed and diffusion constants
EAST = 0.0  # the oracle's heading, toward +x
DT = 60.0  # the oracle's transport step, one observation interval


@pytest.fixture
def quiet(desk_config):
    """The desk scenario without noise, observed at 60..300 s, with one
    puff released at onset."""
    return replace(
        desk_config, noise_mean=0.0, noise_std=1e-30, n_steps=5, release_duration_min=1.0
    )


def fresh_puff(mass=1.0):
    return PuffState(x=0.0, y=0.0, s=0.0, r=0.0, mass=mass)


class TestStepPuff:
    def test_straight_east_transport(self):
        p = step_puff(fresh_puff(), CFG, EAST, DT)
        assert p.x == pytest.approx(240.0)
        assert p.y == pytest.approx(0.0)
        assert p.s == pytest.approx(240.0)

    def test_radius_growth_law(self):
        p = step_puff(fresh_puff(), CFG, EAST, DT)
        assert p.r == pytest.approx(0.466 * 240.0**0.866, rel=1e-12)
        assert p.r == pytest.approx(53.6598, abs=1e-3)

    def test_northward_wind(self):
        p = step_puff(fresh_puff(), CFG, math.pi / 2, DT)
        assert p.x == pytest.approx(0.0, abs=1e-9)
        assert p.y == pytest.approx(240.0)

    def test_mass_conserved_and_s_monotone(self):
        p = fresh_puff(mass=2.5)
        travelled = [0.0]
        for _ in range(20):
            p = step_puff(p, CFG, EAST, DT)
            travelled.append(p.s)
            assert p.mass == 2.5
            assert p.r == pytest.approx(CFG.p_y * p.s**CFG.q_y, rel=1e-12)
        assert all(b > a for a, b in zip(travelled, travelled[1:]))

    def test_peak_concentration_decreases(self):
        p = step_puff(fresh_puff(), CFG, EAST, DT)
        peaks = []
        for _ in range(10):
            peaks.append(concentration([p], (p.x, p.y)))
            p = step_puff(p, CFG, EAST, DT)
        assert all(b < a for a, b in zip(peaks, peaks[1:]))


class TestConcentration:
    def test_center_value(self):
        p = step_puff(fresh_puff(mass=3.0), CFG, EAST, DT)
        assert concentration([p], (p.x, p.y)) == pytest.approx(
            3.0 / (2 * math.pi * p.r**2), rel=1e-12
        )

    def test_empty_list_is_zero(self):
        assert concentration([], (0.0, 0.0)) == 0.0

    def test_two_colocated_puffs_double(self):
        p = step_puff(fresh_puff(), CFG, EAST, DT)
        single = concentration([p], (100.0, 50.0))
        assert concentration([p, p], (100.0, 50.0)) == pytest.approx(2 * single, rel=1e-12)

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError, match="r=0"):
            concentration([fresh_puff()], (0.0, 0.0))

    def test_plane_integral_equals_mass(self):
        p = step_puff(step_puff(fresh_puff(mass=2.0), CFG, EAST, DT), CFG, EAST, DT)
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
        p = step_puff(fresh_puff(), CFG, EAST, DT)
        boosted = PuffState(x=p.x, y=p.y, s=p.s, r=p.r, mass=p.mass * scale)
        at = (200.0, 30.0)
        assert concentration([boosted], at) == pytest.approx(
            scale * concentration([p], at), rel=1e-12
        )


SENSORS = [(240.0, 0.0), (1000.0, 500.0)]


class TestSimulateObservations:
    def test_far_upwind_sensor_reads_floor(self, quiet):
        params = np.array([0.0, 0.0])
        out = simulate_observations(quiet, params, [(-5000.0, -5000.0)], rng_seed=1)
        assert np.allclose(out, math.log(quiet.conc_floor), atol=1e-9)

    def test_deterministic_per_seed(self, desk_config):
        params = np.array([-500.0, 0.1])
        a = simulate_observations(desk_config, params, SENSORS, rng_seed=7)
        b = simulate_observations(desk_config, params, SENSORS, rng_seed=7)
        assert np.array_equal(a, b)
        c = simulate_observations(desk_config, params, SENSORS, rng_seed=8)
        assert not np.array_equal(a, c)

    def test_single_puff_center_reading(self, quiet):
        # sensor sits exactly where the first transport step puts the puff
        params = np.array([0.0, 0.0])
        p = step_puff(fresh_puff(), quiet, EAST, DT)
        out = simulate_observations(replace(quiet, n_steps=1), params, [(p.x, p.y)], rng_seed=0)
        assert out[0, 0] == pytest.approx(math.log(1.0 / (2 * math.pi * p.r**2)), abs=1e-9)

    def test_rotation_equivariance(self, quiet):
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
        cfg = replace(quiet, release_duration_min=3.0)  # puffs at 0, 60 and 120 s
        a = simulate_observations(cfg, base, sensors, 0)
        b = simulate_observations(cfg, turned, moved, 0)
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_mass_conservation_across_run(self, quiet):
        # every scheduled release shows up with unchanged mass at the end
        params = np.array([0.0, 0.0])
        cfg = replace(quiet, release_duration_min=3.0, release_mass=2.5, n_steps=7)
        # run the oracle's stepping loop manually to inspect the puff list
        times = cfg.times()
        puffs = []
        pending = cfg.release_times().tolist()
        while pending and pending[0] <= times[0] - DT:
            pending.pop(0)
            puffs.append(PuffState(0.0, params[0], 0.0, 0.0, cfg.release_mass))
        for t in times:
            puffs = [step_puff(p, cfg, EAST, DT) for p in puffs]
            while pending and pending[0] <= t:
                pending.pop(0)
                puffs.append(PuffState(0.0, params[0], 0.0, 0.0, cfg.release_mass))
        assert sum(p.mass for p in puffs) == pytest.approx(7.5)

    def test_matches_stepped_oracle_on_config_schedule(self, desk_config):
        # the config releases its puffs on its observation grid
        cfg = replace(desk_config, noise_mean=0.0, noise_std=1e-30)
        params = np.array([-700.0, 0.05])
        sensors = [(1200.0, -500.0), (2400.0, 0.0), (600.0, 300.0)]
        np.testing.assert_allclose(
            simulate_observations(cfg, params, sensors, 0),
            stepped_observations(cfg, params, sensors, 0),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_rejects_no_sensors(self, quiet):
        with pytest.raises(ValueError, match="need at least one sensor"):
            simulate_observations(quiet, np.array([0.0, 0.0]), [], 0)

    @pytest.mark.parametrize("truth", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_rejects_truth_that_is_not_one_row(self, quiet, truth):
        with pytest.raises(ValueError, match=r"truth must be a \(release_y, wind_dir\) row"):
            simulate_observations(quiet, truth, SENSORS, 0)


class TestSimulateAccidents:
    def test_rows_equal_simulate_observations(self, desk_config):
        truths = np.array([[-700.0, 0.05], [1200.0, -0.1], [0.0, 0.0]])
        seeds = [np.random.SeedSequence(4), 9, 2**40]
        out = simulate_accidents(desk_config, truths, SENSORS, seeds)
        assert out.shape == (3, len(SENSORS), len(desk_config.times()))
        for row, truth, seed in zip(out, truths, seeds):
            np.testing.assert_array_equal(row, simulate_observations(desk_config, truth, SENSORS, seed))

    def test_rejects_a_seed_count_other_than_the_accident_count(self, desk_config):
        with pytest.raises(ValueError, match="one noise seed per accident: 2 accidents, 1 seeds"):
            simulate_accidents(desk_config, np.zeros((2, 2)), SENSORS, [0])

    @pytest.mark.parametrize("truths", [[0.0, 0.0], np.zeros((2, 3)), np.zeros((1, 1, 2))])
    def test_rejects_truths_that_are_not_rows(self, desk_config, truths):
        with pytest.raises(ValueError, match=r"truths must be \(C, 2\)"):
            simulate_accidents(desk_config, truths, SENSORS, [0, 1])


class TestSimulateEnsemble:
    def test_matches_scalar_path(self, quiet):
        # closed form against the oracle's scalar stepper
        rng = np.random.default_rng(11)
        params = np.column_stack(
            [rng.uniform(-2000, 2000, 8), rng.normal(0.0, 0.17, 8)]
        )
        cfg = replace(quiet, release_duration_min=2.0)  # puffs at 0 and 60 s
        sensor = (700.0, 150.0)
        batch = simulate_ensemble(cfg, params, sensor, rng_seed=3)
        for i in range(len(params)):
            row = stepped_observations(cfg, params[i], [sensor], 4)[0]
            np.testing.assert_allclose(batch[i], row, rtol=1e-9, atol=1e-9)

    def test_member_rows_equal_simulate_observations(self, quiet):
        # one forward model: each ensemble row is the single-member truth
        rng = np.random.default_rng(12)
        params = np.column_stack(
            [rng.uniform(-2000, 2000, 8), rng.normal(0.0, 0.17, 8)]
        )
        cfg = replace(quiet, release_duration_min=2.0)
        sensor = (700.0, 150.0)
        batch = simulate_ensemble(cfg, params, sensor, rng_seed=3)
        for i in range(len(params)):
            row = simulate_observations(cfg, params[i], [sensor], rng_seed=4)[0]
            np.testing.assert_array_equal(batch[i], row)

    def test_noise_reproducible_per_seed(self, desk_config):
        params = np.array([[0.0, 0.0], [500.0, 0.1]])
        a = simulate_ensemble(desk_config, params, (500.0, 0.0), rng_seed=5)
        b = simulate_ensemble(desk_config, params, (500.0, 0.0), rng_seed=5)
        assert np.array_equal(a, b)


class TestLatticeFootprint:
    @pytest.mark.parametrize(
        "xs, ys",
        [
            (np.linspace(0.0, 10000.0, 11), np.linspace(-10000.0, 10000.0, 21)),  # desk grid
            (np.linspace(0.0, 3000.0, 7), np.linspace(-3500.0, 3500.0, 9)),  # on the plume
        ],
    )
    def test_equals_point_footprint(self, desk_config, xs, ys):
        # separable against joint exponentials: rounding only, and the
        # floor in the same places
        params = desk_config.draw_prior(200, np.random.default_rng(21))
        lattice = Lattice(xs, ys)
        points = np.array(lattice.nodes())
        floor = math.log(desk_config.conc_floor)
        above = 0
        for t in desk_config.times():
            grid = log_concentrations_at(desk_config, *params.T, lattice, t)
            point = log_concentrations_at(desk_config, *params.T, points, t)
            np.testing.assert_allclose(grid, point, rtol=0, atol=1e-14)
            assert np.array_equal(grid == floor, point == floor)
            above += np.sum(point > floor)
        assert above > 0

    def test_nodes_are_x_major(self):
        lattice = Lattice(np.array([0.0, 1.0]), np.array([5.0, 6.0, 7.0]))
        assert lattice.nodes() == [(0.0, 5.0), (0.0, 6.0), (0.0, 7.0), (1.0, 5.0), (1.0, 6.0), (1.0, 7.0)]

    def test_before_any_release_reads_floor(self, desk_config):
        params = desk_config.draw_prior(5, np.random.default_rng(2))
        out = log_concentrations_at(desk_config, *params.T, Lattice(np.zeros(2), np.zeros(3)), 0.0)
        assert out.shape == (5, 6)
        assert np.all(out == math.log(desk_config.conc_floor))

    def test_rows_carry_each_nodes_noise_stream(self, desk_config):
        params = desk_config.draw_prior(50, np.random.default_rng(3))
        lattice = Lattice(np.array([500.0, 9000.0]), np.array([-200.0, 0.0, 9000.0]))
        rows = simulate_lattice(desk_config, params, lattice, list(range(6)))
        for seed, (node, row) in enumerate(zip(lattice.nodes(), rows)):
            np.testing.assert_allclose(
                row, simulate_ensemble(desk_config, params, node, seed), rtol=0, atol=1e-13
            )

    def test_rejects_a_seed_count_other_than_the_nodes(self, desk_config):
        params = desk_config.draw_prior(50, np.random.default_rng(3))
        with pytest.raises(ValueError, match="one noise seed per node: 4 nodes, 3 seeds"):
            simulate_lattice(desk_config, params, Lattice(np.zeros(2), np.zeros(2)), [0, 1, 2])


class TestValidation:
    def test_puff_invariants(self):
        with pytest.raises(ValueError):
            PuffState(x=0.0, y=0.0, s=-1.0, r=0.0, mass=1.0)


DESK = ExperimentConfig().with_profile("desk")
ON_PLUME = [(900.0, -300.0), (2400.0, 200.0), (4000.0, 0.0)]


class TestOnePassTrajectories:
    """_trajectories, one footprint per distinct puff age and sensor,
    against one log_concentrations_at call per instant: bit for bit."""

    @pytest.mark.parametrize(
        "interval, release, n_steps, total",
        [
            (1.0, 10.0, 10, 30.0),  # desk: 10 puffs, ages 60..600 s
            (1.0, 10.0, None, 30.0),  # the full profile's 31 instants
            (0.7, 16.1, None, 20.0),  # ages that are not whole minutes
            (0.3, 4.0, 40, 30.0),
            (1.7, 40.0, 12, 30.0),  # the release outlasts the window
        ],
    )
    def test_timing_cases(self, interval, release, n_steps, total):
        cfg = replace(
            DESK, interval_min=interval, release_duration_min=release, n_steps=n_steps,
            total_min=total,
        )
        params = cfg.draw_prior(200, np.random.default_rng(5))
        out = dispersion._trajectories(cfg, params, ON_PLUME)
        oracle = per_instant_trajectories(cfg, params, ON_PLUME)
        assert out.shape == (200, len(ON_PLUME), len(cfg.times()))
        np.testing.assert_array_equal(out, oracle)
        # the plume reaches the sensors, and instants with 8 or more
        # puffs sum them in numpy's pairwise blocks
        assert np.mean(out > math.log(cfg.conc_floor)) > 0.2
        released = cfg.release_times()
        assert max(np.sum(released < t) for t in cfg.times()) >= 8

    @given(
        interval=st.one_of(st.sampled_from([0.3, 0.7, 1.7]), st.floats(0.2, 3.0)),
        release=st.floats(0.1, 30.0),
        n_steps=st.one_of(st.none(), st.integers(1, 40)),
        total=st.floats(1.0, 40.0),
        members=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        sensors=st.lists(
            st.tuples(st.floats(-500.0, 8000.0), st.floats(-4000.0, 4000.0)),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_instant_stack(self, interval, release, n_steps, total, members, seed,
                                      sensors):
        cfg = replace(
            DESK, interval_min=interval, release_duration_min=release, n_steps=n_steps,
            total_min=total,
        )
        params = cfg.draw_prior(members, np.random.default_rng(seed))
        np.testing.assert_array_equal(
            dispersion._trajectories(cfg, params, sensors),
            per_instant_trajectories(cfg, params, sensors),
        )

    def test_one_transport_pass_per_location(self, monkeypatch):
        # the saved work: one _puffs call over the distinct ages, and no
        # per-instant forward call
        calls = []
        puffs = dispersion._puffs

        def counting(cfg, release_y, wind_dir, ages):
            calls.append(ages)
            return puffs(cfg, release_y, wind_dir, ages)

        def per_instant(*args):
            raise AssertionError("simulate_ensemble made a per-instant forward call")

        monkeypatch.setattr(dispersion, "_puffs", counting)
        monkeypatch.setattr(dispersion, "log_concentrations_at", per_instant)
        params = DESK.draw_prior(50, np.random.default_rng(1))
        simulate_ensemble(DESK, params, (1000.0, 0.0), rng_seed=0)
        assert len(calls) == 1
        # desk: 55 (instant, puff) pairs, 10 distinct ages 60..600 s
        np.testing.assert_array_equal(calls[0], 60.0 * np.arange(1, 11))


# the edges of _exp's lanes: the vector path's floor, np.exp's last
# subnormal (5e-324 just above -745.1332191019412) and its +0 region
EDGES = [-700.0, -746.0, -745.1332191019412, -745.13321910194, 0.0, -0.0, math.inf,
         -math.inf, math.nan, -math.nan]
EXPONENTS = st.one_of(
    st.floats(-50.0, 0.0),
    st.floats(-746.0, -700.0, exclude_max=True),  # the subnormal and slow band
    st.floats(max_value=-746.0, exclude_max=True),  # np.exp is +0
    st.sampled_from(EDGES),
)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestExactExp:
    """_exp against np.exp, bit for bit. It rests on two facts about
    np.exp, which these tests also hold: a lane's bits do not depend on
    its neighbours, and every exponent below -746 gives +0."""

    @given(
        arrays(
            np.float64,
            st.one_of(
                array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=70),
                array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=9),
            ),
            elements=EXPONENTS,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_np_exp(self, x):
        expected = np.exp(x)
        work = x.copy()
        out = dispersion._exp(work)
        assert out is work
        np.testing.assert_array_equal(bits(out), bits(expected))
        # lane independence: each lane alone gives the bits it gives in x
        alone = np.array([np.exp(x.reshape(-1)[i : i + 1])[0] for i in range(x.size)])
        np.testing.assert_array_equal(bits(alone), bits(expected.reshape(-1)))

    @given(arrays(np.float64, st.integers(1, 70),
                  elements=st.floats(max_value=-746.0, exclude_max=True)))
    @settings(max_examples=100, deadline=None)
    def test_np_exp_is_positive_zero_below_746(self, x):
        assert not bits(np.exp(x)).any()

    @pytest.mark.parametrize("fill", [-10.0, -720.0, -800.0])
    def test_edges_among_any_neighbours(self, fill):
        # each edge at every position of a 17-lane array whose other lanes
        # sit on the fast path, in the slow band or in the +0 region
        for value in EDGES:
            for i in range(17):
                x = np.full(17, fill)
                x[i] = value
                np.testing.assert_array_equal(bits(dispersion._exp(x.copy())), bits(np.exp(x)))

    def test_footprint_and_log_concentrations_equal_np_exp(self, monkeypatch):
        # sensors where most exponents lie below -700, as in compare,
        # and one near the plume so that some readings clear the floor
        sensors = [(9000.0, 5000.0), (6000.0, 0.0), (5000.0, 800.0), (4000.0, -2500.0),
                   (600.0, 0.0)]
        t = 240.0
        params = DESK.draw_prior(200, np.random.default_rng(3))
        puffs = dispersion._puffs(DESK, *params.T, dispersion._ages(DESK, t))
        px, py, two_r2, _ = puffs
        exponents = np.stack([-((px - sx) ** 2 + (py - sy) ** 2) / two_r2 for sx, sy in sensors])
        assert np.mean(exponents < -700) >= 0.5
        assert np.any((exponents >= -746) & (exponents < -700))
        for sx, sy in sensors:
            np.testing.assert_array_equal(
                bits(dispersion._footprint(puffs, sx, sy)), bits(np_exp_footprint(puffs, sx, sy))
            )
        out = log_concentrations_at(DESK, *params.T, sensors, t)
        monkeypatch.setattr(dispersion, "_footprint", np_exp_footprint)
        oracle = log_concentrations_at(DESK, *params.T, sensors, t)
        np.testing.assert_array_equal(bits(out), bits(oracle))
        assert np.any(out > math.log(DESK.conc_floor))


BAD_SENSORS = [
    ((1000.0,), r"must be an \(S, 2\) array"),
    ((1000.0, 0.0, 5.0), r"must be an \(S, 2\) array"),
    ((np.nan, 0.0), r"must be finite \(x, y\) pairs"),
    ((1000.0, np.inf), r"must be finite \(x, y\) pairs"),
]


class TestPointSensors:
    """Every point path takes finite (x, y) pairs only."""

    def test_rows_pass_through(self):
        rows = sensor_rows([(1.0, 2.0), (3.0, 4.0)], "sensors")
        np.testing.assert_array_equal(rows, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(sensor_rows((5.0, 6.0), "sensors"), [[5.0, 6.0]])

    @pytest.mark.parametrize("sensor, message", BAD_SENSORS)
    def test_simulate_ensemble(self, sensor, message):
        params = DESK.draw_prior(5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sensors " + message):
            simulate_ensemble(DESK, params, sensor, rng_seed=0)

    @pytest.mark.parametrize("sensor, message", BAD_SENSORS)
    def test_simulate_accidents(self, sensor, message):
        with pytest.raises(ValueError, match="sensors " + message):
            simulate_accidents(DESK, np.zeros((2, 2)), [(500.0, 0.0), sensor], [0, 1])

    @pytest.mark.parametrize("sensor, message", BAD_SENSORS)
    def test_log_concentrations_at(self, sensor, message):
        with pytest.raises(ValueError, match="sensors " + message):
            log_concentrations_at(DESK, np.zeros(3), np.zeros(3), [sensor], 300.0)
