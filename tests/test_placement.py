import json

import numpy as np
import pytest

from plumeplace import placement as pl
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
            ksg_mi(ens.params, ens.trajectories(c), ens.knn) for c in candidates
        ]
        assert np.argsort(bounds).tolist() == np.argsort(fulls).tolist()


class TestGreedyPlace:
    def test_structure_and_separation(self, small_ensemble):
        bo_cfg = BoConfig(
            domain=[[0.0, 10000.0], [-10000.0, 10000.0]],
            init_count=4,
            iter_count=3,
            acq_candidates=128,
            seed=1,
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
            seed=2,
        )
        a = pl.greedy_place(small_ensemble, 2, bo_cfg)
        cfg = ExperimentConfig(placement_members=300, n_steps=8)
        fresh = pl.build_ensemble(cfg, 300, seed=42)
        b = pl.greedy_place(fresh, 2, bo_cfg)
        assert a.locations == b.locations
        assert a.bound_values == b.bound_values

    def test_unsatisfiable_separation(self, small_ensemble):
        bo_cfg = BoConfig(
            domain=[[0.0, 10000.0], [-10000.0, 10000.0]],
            init_count=4,
            iter_count=2,
            acq_candidates=64,
            seed=3,
        )
        with pytest.raises(RuntimeError, match="min_sep"):
            pl.greedy_place(small_ensemble, 2, bo_cfg, min_sep=1e9)


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

    @pytest.mark.parametrize("n_sensors", [0, -1, 10])
    def test_rejects_bad_sensor_count(self, small_ensemble, n_sensors):
        grid = pl.GridSpec(nx=3, ny=3, domain=np.array([[0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"n_sensors must be in \[1, 9\]"):
            pl.grid_place(small_ensemble, n_sensors, grid)

    def test_upwind_edge_near_zero(self, small_ensemble):
        grid = pl.GridSpec(nx=11, ny=21, domain=np.array([[0.0, 10000.0], [-10000.0, 10000.0]]))
        result = pl.grid_place(small_ensemble, 1, grid)
        surface = result.traces[0]
        far = surface[np.abs(surface[:, 1]) >= 9000.0]
        assert np.all(np.abs(far[:, 2]) < 0.12)


class TestPlacementResultIo:
    def test_json_round_trip(self, tmp_path):
        result = pl.PlacementResult(
            locations=[(1000.0, -2000.0), (3000.0, 500.0)],
            bound_values=[0.8, 1.3],
            seed=7,
            config_digest="abc",
            method="bo",
        )
        path = tmp_path / "placement.json"
        result.write_json(path)
        loaded = pl.load_placement(path)
        assert loaded.locations == result.locations
        assert loaded.bound_values == result.bound_values
        assert loaded.seed == 7
        assert loaded.method == "bo"

    def test_surface_csv(self, tmp_path, small_ensemble):
        grid = pl.GridSpec(nx=3, ny=3, domain=np.array([[0.0, 10000.0], [-10000.0, 10000.0]]))
        result = pl.grid_place(small_ensemble, 1, grid)
        path = tmp_path / "surface.csv"
        pl.write_surface_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x_m,y_m,step,mi_nats"
        assert len(lines) == 10
