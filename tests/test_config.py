import json

import numpy as np
import pytest

from plumeplace import evaluate, placement
from plumeplace.config import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from plumeplace.dispersion import ScenarioParams
from plumeplace.enkf import assimilate_run


class TestDefaults:
    def test_reference_scenario_constants(self):
        cfg = ExperimentConfig()
        assert cfg.domain_x_km == (0.0, 10.0)
        assert cfg.domain_y_km == (-10.0, 10.0)
        assert cfg.pipeline_y_km == (-3.0, 3.0)
        assert cfg.wind_speed_m_s == 4.0
        assert cfg.wind_dir_std_deg == 10.0
        assert cfg.total_min == 30.0
        assert cfg.interval_min == 1.0
        assert cfg.release_duration_min == 10.0
        assert cfg.placement_members == 1000
        assert cfg.noise_mean == -0.005
        assert cfg.noise_std == 0.1
        assert (cfg.grid_nx, cfg.grid_ny) == (11, 21)

    def test_derived_times_and_schedule(self):
        cfg = ExperimentConfig()
        times = cfg.times()
        assert len(times) == 31
        assert times[0] == 60.0
        assert np.all(np.diff(times) == 60.0)
        schedule = cfg.release_schedule()
        assert len(schedule) == 10
        assert schedule[0] == (0.0, 1.0)
        assert schedule[-1][0] == 540.0

    def test_unit_conversion(self):
        cfg = ExperimentConfig()
        assert cfg.pipeline_y_m() == (-3000.0, 3000.0)
        np.testing.assert_array_equal(
            cfg.domain_m(), [[0.0, 10000.0], [-10000.0, 10000.0]]
        )
        assert cfg.wind_dir_std_rad() == pytest.approx(np.deg2rad(10.0))
        assert ExperimentConfig(wind_dir_deg=90.0).meteo().wind_dir == pytest.approx(np.pi / 2)

    def test_desk_profile(self):
        desk = ExperimentConfig().with_profile("desk")
        assert desk.placement_members == 500
        assert desk.enkf_members == 500
        assert len(desk.times()) == 10

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            ExperimentConfig().with_profile("galactic")


class TestDrawPrior:
    def test_shape_and_support(self):
        cfg = ExperimentConfig()
        theta = cfg.draw_prior(2000, np.random.default_rng(0))
        assert theta.shape == (2000, 2)
        assert np.all((theta[:, 0] >= -3000.0) & (theta[:, 0] < 3000.0))
        assert theta[:, 1].mean() == pytest.approx(0.0, abs=0.02)
        assert theta[:, 1].std() == pytest.approx(np.deg2rad(10.0), rel=0.05)

    def test_prior_stream_golden(self):
        # every prior consumer draws these exact floats (float.hex), so a
        # change to the prior stream or its seeding fails here
        cfg = ExperimentConfig(placement_members=60, enkf_members=4, n_steps=2)
        ens = placement.build_ensemble(cfg, 60, 5)
        assert [[v.hex() for v in row] for row in ens.params[:3].tolist()] == [
            ["0x1.c9811f6a762f4p+10", "0x1.2e097f800da65p-3"],
            ["0x1.cde94364edfacp+10", "0x1.2c7f1f4f8d918p-3"],
            ["0x1.6fd03f3e34700p+6", "-0x1.b1a89b21ccef5p-4"],
        ]
        trace = assimilate_run(cfg, [(2000.0, 0.0)], ScenarioParams(100.0, 0.01), 3)
        assert [[v.hex() for v in row] for row in trace.prior_theta.tolist()] == [
            ["0x1.011d475663cd8p+9", "-0x1.3acfb98273363p-5"],
            ["-0x1.95d023f291998p+10", "-0x1.fb2b56d1269a7p-3"],
            ["-0x1.328008adeea7ap+11", "0x1.d630c36a3e237p-3"],
            ["-0x1.6804dd622a826p+11", "0x1.d55b1571edccep-4"],
        ]
        conditions = evaluate.draw_conditions(cfg, 3, 2)
        assert [(c.release_y.hex(), c.wind_dir.hex()) for c in conditions] == [
            ("-0x1.17c8e7cee6ee0p+9", "-0x1.74eea7afaae0cp-7"),
            ("0x1.16145bfec8250p+8", "-0x1.86414f9f18b62p-3"),
            ("0x1.0c3129228dc6ep+10", "0x1.68e3ff538502bp-3"),
        ]


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        cfg = ExperimentConfig(seed=17, n_steps=12, wind_dir_deg=5.0)
        path = tmp_path / "config.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        path2 = tmp_path / "config2.json"
        save_config(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_dict_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_missing_key_is_informative(self):
        doc = config_to_dict(ExperimentConfig())
        del doc["meteo"]
        with pytest.raises(ValueError, match="missing"):
            config_from_dict(doc)


class TestValidation:
    def test_degenerate_domain(self):
        with pytest.raises(ValueError):
            ExperimentConfig(domain_x_km=(5.0, 5.0))

    def test_nonpositive_wind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(wind_speed_m_s=0.0)

    def test_bad_member_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(placement_members=0)

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(seed=99)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
