import json

import numpy as np
import pytest

from plumeplace import cca, cli, dispersion, placement as pl
from plumeplace.bo import BoConfig
from plumeplace.config import ExperimentConfig
from plumeplace.mi import ksg_mi


@pytest.fixture(scope="module")
def small_ensemble():
    cfg = ExperimentConfig(placement_members=300, n_steps=8)
    return pl.build_ensemble(cfg, 300, seed=42)


class TestBuildEnsemble:
    def test_prior_moments(self):
        cfg = ExperimentConfig()
        ens = pl.build_ensemble(cfg, 1000, seed=0)
        release = ens.params[:, 0]
        wind = ens.params[:, 1]
        se_mean = (6000.0 / np.sqrt(12)) / np.sqrt(1000)
        assert abs(release.mean()) < 3 * se_mean
        assert np.all(release >= -3000.0) and np.all(release <= 3000.0)
        assert wind.std() == pytest.approx(np.deg2rad(10.0), rel=0.15)

    def test_deterministic(self):
        cfg = ExperimentConfig()
        a = pl.build_ensemble(cfg, 200, seed=5)
        b = pl.build_ensemble(cfg, 200, seed=5)
        assert np.array_equal(a.params, b.params)

    def test_rejects_tiny_ensembles(self):
        with pytest.raises(ValueError):
            pl.build_ensemble(ExperimentConfig(), 10, seed=0)


class TestTrajectoriesCache:
    def test_cache_hit_returns_same_array(self, small_ensemble):
        loc = (2000.0, 1000.0)
        a = small_ensemble.trajectories(loc)
        b = small_ensemble.trajectories(loc)
        assert a is b
        assert a.shape == (300, 8)

    @pytest.mark.parametrize(
        "location",
        [(1500.0, -500.0), np.array([1500.0, -500.0]), (1500, -500), [1500.0, -500.0]],
    )
    def test_every_form_of_a_location_shares_one_entry(self, small_ensemble, location):
        key = pl._location_key(location)
        assert key == (1500.0, -500.0)
        assert all(type(v) is float for v in key)
        assert small_ensemble.trajectories(location) is small_ensemble.trajectories(key)

    def test_rebuild_is_bit_identical(self, small_ensemble):
        cfg = ExperimentConfig(placement_members=300, n_steps=8)
        fresh = pl.build_ensemble(cfg, 300, seed=42)
        loc = (1500.0, -500.0)
        assert np.array_equal(small_ensemble.trajectories(loc), fresh.trajectories(loc))


class TestObjective:
    def test_uninformative_far_corner(self, small_ensemble):
        # plume never reaches a far upwind corner: observations are clamp
        # plus noise, independent of the parameters
        value = pl.objective(small_ensemble, [], (0.0, -10000.0))
        assert abs(value) < 0.1

    def test_duplicate_sensor_adds_nothing(self, small_ensemble):
        spot = (2000.0, 2000.0)
        base = pl.objective(small_ensemble, [], spot)
        doubled = pl.objective(small_ensemble, [spot], spot)
        assert doubled == pytest.approx(base, abs=0.15)

    def test_a_changed_fixed_set_of_one_size_is_factored_again(self, small_ensemble):
        a, b, c = (2000.0, 1000.0), (3000.0, -500.0), (4000.0, 0.0)
        first = pl.objective(small_ensemble, [a], c)
        swapped = pl.objective(small_ensemble, [b], c)
        fresh = pl.build_ensemble(small_ensemble.cfg, 300, seed=42)
        assert swapped == pl.objective(fresh, [b], c) != first

    def test_ranking_matches_full_ksg_on_small_instance(self):
        # small instance where the full-space estimator is still reliable:
        # a narrow pipeline keeps the joint space at 4 dimensions with two
        # transport steps, and off-axis candidates keep the response
        # monotone so the linear projection sees what full KSG sees
        cfg = ExperimentConfig(placement_members=500, n_steps=2, pipeline_y_km=(-0.5, 0.5))
        ens = pl.build_ensemble(cfg, 500, seed=7)
        candidates = [(450.0, 300.0), (850.0, 700.0), (9000.0, 9000.0)]
        bounds = [pl.objective(ens, [], c) for c in candidates]
        fulls = [
            ksg_mi(ens.params, ens.trajectories(c), cfg.knn()) for c in candidates
        ]
        assert np.argsort(bounds).tolist() == np.argsort(fulls).tolist()


    @pytest.mark.parametrize(
        "candidate, message",
        [
            ((1000.0,), r"must be an \(S, 2\) array"),
            ((1000.0, 2000.0, 3.0), r"must be an \(S, 2\) array"),
            ((np.nan, 0.0), r"must be finite \(x, y\) pairs"),
        ],
    )
    def test_rejects_a_location_that_is_not_a_finite_pair(self, small_ensemble, candidate,
                                                          message):
        # a third coordinate was dropped, and NaN reached the CCA's SVD
        with pytest.raises(ValueError, match="location " + message):
            pl.objective(small_ensemble, [], candidate)
        with pytest.raises(ValueError, match="location " + message):
            pl.objective(small_ensemble, [candidate], (2000.0, 0.0))
        assert not any(np.isnan(key).any() or len(key) != 2 for key in small_ensemble.obs_cache)


class TestGreedyPlace:
    def test_structure_and_separation(self, small_ensemble):
        bo_cfg = BoConfig(
            domain=[[0.0, 10000.0], [-10000.0, 10000.0]],
            init_count=4,
            iter_count=3,
            acq_candidates=128,
        )
        result = pl.greedy_place(small_ensemble, 2, bo_cfg, min_sep=500.0)
        assert len(result.locations) == 2
        assert len(result.bound_values) == 2
        assert len(result.traces[0].values) == 7
        gap = np.linalg.norm(np.subtract(result.locations[0], result.locations[1]))
        assert gap >= 500.0

    def test_deterministic(self, small_ensemble):
        bo_cfg = BoConfig(
            domain=[[0.0, 10000.0], [-10000.0, 10000.0]],
            init_count=4,
            iter_count=2,
            acq_candidates=64,
        )
        a = pl.greedy_place(small_ensemble, 2, bo_cfg, min_sep=500.0)
        cfg = ExperimentConfig(placement_members=300, n_steps=8)
        fresh = pl.build_ensemble(cfg, 300, seed=42)
        b = pl.greedy_place(fresh, 2, bo_cfg, min_sep=500.0)
        assert a.locations == b.locations
        assert a.bound_values == b.bound_values

    def test_unsatisfiable_separation(self, small_ensemble):
        bo_cfg = BoConfig(
            domain=[[0.0, 10000.0], [-10000.0, 10000.0]],
            init_count=4,
            iter_count=2,
            acq_candidates=64,
        )
        with pytest.raises(ValueError, match="min_sep"):
            pl.greedy_place(small_ensemble, 2, bo_cfg, min_sep=1e9)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_rejects_domain_that_is_not_the_plane(self, small_ensemble, rows):
        # the location key and the forward model read exactly two coordinates
        bo_cfg = BoConfig(domain=[[0.0, 10000.0]] * rows, init_count=4, iter_count=0)
        with pytest.raises(ValueError, match=rf"got shape \({rows}, 2\)"):
            pl.greedy_place(small_ensemble, 1, bo_cfg, min_sep=500.0)

    @pytest.mark.parametrize("min_sep", [-5.0, np.nan, np.inf])
    def test_rejects_bad_min_sep(self, small_ensemble, min_sep):
        bo_cfg = BoConfig(domain=[[0.0, 10000.0], [-10000.0, 10000.0]], init_count=4, iter_count=0)
        with pytest.raises(ValueError, match=f"min_sep must be finite and >= 0, got {min_sep}"):
            pl.greedy_place(small_ensemble, 1, bo_cfg, min_sep=min_sep)


class TestGridPlace:
    def test_grid_cardinality_and_surface(self, small_ensemble):
        grid = pl.GridSpec(nx=11, ny=21, domain=np.array([[0.0, 10000.0], [-10000.0, 10000.0]]))
        result = pl.grid_place(small_ensemble, 1, grid)
        assert result.traces[0].shape == (231, 3)
        assert len(result.locations) == 1

    def test_later_steps_exclude_selected(self, small_ensemble):
        grid = pl.GridSpec(nx=4, ny=5, domain=np.array([[0.0, 10000.0], [-10000.0, 10000.0]]))
        result = pl.grid_place(small_ensemble, 2, grid)
        assert result.traces[1].shape == (19, 3)
        assert result.locations[0] != result.locations[1]

    def test_tie_break_lexicographic(self, small_ensemble, monkeypatch):
        monkeypatch.setattr(pl, "objective", lambda ens, fixed, cand: 1.0)
        grid = pl.GridSpec(nx=3, ny=3, domain=np.array([[0.0, 1.0], [0.0, 1.0]]))
        result = pl.grid_place(small_ensemble, 2, grid)
        assert result.locations[0] == (0.0, 0.0)
        assert result.locations[1] == (0.0, 0.5)

    def test_domain_may_be_nested_lists(self, small_ensemble):
        grid = pl.GridSpec(3, 3, [[0, 1000], [0, 1000]])
        result = pl.grid_place(small_ensemble, 1, grid)
        assert result.traces[0].shape == (9, 3)

    @pytest.mark.parametrize("n_sensors", [0, -1, 10])
    def test_rejects_bad_sensor_count(self, small_ensemble, n_sensors):
        grid = pl.GridSpec(nx=3, ny=3, domain=np.array([[0.0, 1.0], [0.0, 1.0]]))
        expected = rf"n_sensors must be an integer in \[1, 9\], got {n_sensors}"
        with pytest.raises(ValueError, match=expected):
            pl.grid_place(small_ensemble, n_sensors, grid)

    def test_fixed_keys_skip_the_numpy_check(self, monkeypatch):
        # a fixed set of keys passes without sensor_rows' numpy check; a set
        # of lists goes through it on every objective call, to the same
        # placement
        cfg = ExperimentConfig(placement_members=100, n_steps=5)
        grid = pl.GridSpec(nx=11, ny=21, domain=cfg.domain_m())
        names = []
        rows = dispersion.sensor_rows

        def counting(value, name):
            names.append(name)
            return rows(value, name)

        monkeypatch.setattr(dispersion, "sensor_rows", counting)
        result = pl.grid_place(pl.build_ensemble(cfg, 100, seed=4), 3, grid)
        keyed = names.count("location")
        names.clear()
        fixed_block = pl.PriorEnsemble.fixed_block

        def fixed_as_lists(ens, fixed):
            return fixed_block(ens, [list(s) for s in fixed])

        monkeypatch.setattr(pl.PriorEnsemble, "fixed_block", fixed_as_lists)
        as_lists = pl.grid_place(pl.build_ensemble(cfg, 100, seed=4), 3, grid)
        # steps 2 and 3 score 230 and 229 nodes against 1 and 2 fixed sensors
        assert keyed == 0 and names.count("location") == 230 * 1 + 229 * 2
        assert result.locations == as_lists.locations
        assert result.bound_values == as_lists.bound_values
        for a, b in zip(result.traces, as_lists.traces, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_upwind_edge_near_zero(self, small_ensemble):
        grid = pl.GridSpec(nx=11, ny=21, domain=np.array([[0.0, 10000.0], [-10000.0, 10000.0]]))
        result = pl.grid_place(small_ensemble, 1, grid)
        surface = result.traces[0]
        far = surface[np.abs(surface[:, 1]) >= 9000.0]
        assert np.all(np.abs(far[:, 2]) < 0.12)


class TestGridCache:
    @pytest.fixture
    def setup(self):
        cfg = ExperimentConfig(placement_members=100, n_steps=5)
        grid = pl.GridSpec(nx=4, ny=5, domain=cfg.domain_m())
        return cfg, grid, pl.build_ensemble(cfg, 100, seed=4)

    def test_nodes_keep_their_order(self, setup):
        _, grid, _ = setup
        xs = np.linspace(0.0, 10000.0, 4)
        ys = np.linspace(-10000.0, 10000.0, 5)
        assert grid.nodes() == [(float(x), float(y)) for x in xs for y in ys]
        assert pl.GridSpec is dispersion.GridSpec

    def test_entries_carry_each_nodes_noise(self, setup):
        # against the point path of a fresh ensemble: the same noise bits,
        # so equal where both read the floor and within rounding elsewhere
        cfg, grid, ens = setup
        ens.fill(grid)
        fresh = pl.build_ensemble(cfg, 100, seed=4)
        floor = np.log(cfg.conc_floor)
        at_floor = 0
        for node in grid.nodes():
            point = fresh.trajectories(node)
            clean = [
                dispersion.log_concentrations_at(cfg, fresh.params, [node], t) for t in cfg.times()
            ]
            if np.all(np.asarray(clean) == floor):
                at_floor += 1
                assert np.array_equal(ens.obs_cache[node], point)
            else:
                np.testing.assert_allclose(ens.obs_cache[node], point, rtol=0, atol=1e-13)
        assert 0 < at_floor < len(grid.nodes())

    def test_fill_keeps_entries_made_before(self, setup):
        _, grid, ens = setup
        first = ens.trajectories(grid.nodes()[7])
        ens.fill(grid)
        assert ens.trajectories(grid.nodes()[7]) is first
        rows = [ens.trajectories(node) for node in grid.nodes()]
        ens.fill(grid)
        assert all(ens.trajectories(n) is r for n, r in zip(grid.nodes(), rows))

    def test_one_lattice_pass_and_one_parameter_factor(self, setup, monkeypatch):
        # one transport pass over the distinct puff ages fills every node
        _, grid, ens = setup
        transports, factored = [], []
        puffs = dispersion._puffs
        factor = cca.factor

        def counting_puffs(cfg, release_y, wind_dir, ages):
            transports.append(ages)
            return puffs(cfg, release_y, wind_dir, ages)

        def per_instant(*args):
            raise AssertionError("grid_place made a per-instant forward call")

        def counting_factor(x):
            factored.append(x is ens.params)
            return factor(x)

        monkeypatch.setattr(dispersion, "_puffs", counting_puffs)
        monkeypatch.setattr(dispersion, "log_concentrations_at", per_instant)
        monkeypatch.setattr(cca, "factor", counting_factor)
        pl.grid_place(ens, 3, grid)
        assert len(transports) == 1
        # the parameters once, each node alone in step 1, each later
        # step's fixed set once
        assert sum(factored) == 1
        assert len(factored) == 1 + len(grid.nodes()) + 2


class TestPlacementResultIo:
    def test_json_round_trip(self, tmp_path):
        result = pl.PlacementResult(
            locations=[(1000.0, -2000.0), (3000.0, 500.0)], bound_values=[0.8, 1.3]
        )
        path = tmp_path / "placement.json"
        cli._write_placement(path, "bo", result, ExperimentConfig(seed=7))
        assert cli.load_placement(path) == ("bo", result.locations)
        doc = json.loads(path.read_text())
        assert doc["bound_values_nats"] == result.bound_values
        assert doc["seed"] == 7
        assert doc["config_digest"] == ExperimentConfig(seed=7).digest()

    @pytest.mark.parametrize("seed", [2.5, 2.0, "x", "7", True, None, -1])
    def test_seed_must_be_an_integer(self, tmp_path, seed):
        # the rule of a config's seed: a negative one is refused as well
        path = tmp_path / "placement.json"
        doc = {"locations_m": [[1000.0, 0.0]], "bound_values_nats": [0.5], "seed": seed}
        path.write_text(json.dumps(doc))
        message = f"placement file {path} is malformed: seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(ValueError) as info:
            cli.load_placement(path)
        assert str(info.value) == message
