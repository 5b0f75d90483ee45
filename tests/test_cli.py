import json

import pytest

from plumeplace.cli import main
from plumeplace.config import save_config


@pytest.fixture
def config_path(tiny_config, tmp_path):
    path = tmp_path / "config.json"
    save_config(tiny_config, path)
    return path


@pytest.fixture
def one_sensor(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"locations_m": [[600.0, 0.0]], "bound_values_nats": [0.0]}))
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestPlace:
    def test_writes_placement_and_traces(self, config_path, tmp_path):
        out = tmp_path / "placement.json"
        traces = tmp_path / "traces.csv"
        code = run(
            ["place", "--config", config_path, "--out", out, "--traces-csv", traces]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["locations_m"]) == 2
        assert doc["method"] == "bo"
        assert doc["config_digest"]
        lines = traces.read_text().strip().splitlines()
        assert lines[0] == "step,iteration,x_m,y_m,objective,incumbent"
        # 2 greedy steps x (4 init + 3 iterations)
        assert len(lines) == 1 + 2 * 7

    def test_rerun_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["place", "--config", config_path, "--out", a]) == 0
        assert run(["place", "--config", config_path, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_changes_output(self, config_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["place", "--config", config_path, "--out", a])
        run(["place", "--config", config_path, "--seed", 123, "--out", b])
        assert a.read_bytes() != b.read_bytes()


class TestGridSurface:
    def test_surface_row_count(self, config_path, tmp_path):
        out = tmp_path / "surface.csv"
        code = run(["grid-surface", "--config", config_path, "--out", out, "--steps", 1])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 7  # header + nx * ny

    def test_full_default_grid_is_231(self, tiny_config, tmp_path):
        from dataclasses import replace

        cfg = replace(tiny_config, grid_nx=11, grid_ny=21)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        out = tmp_path / "surface.csv"
        assert run(["grid-surface", "--config", path, "--out", out, "--steps", 1]) == 0
        assert len(out.read_text().strip().splitlines()) == 232


class TestAssimilate:
    def test_trace_and_summary(self, config_path, tmp_path):
        placement = tmp_path / "placement.json"
        run(["place", "--config", config_path, "--out", placement])
        out = tmp_path / "posterior.csv"
        summary = tmp_path / "summary.csv"
        code = run(
            [
                "assimilate",
                "--config", config_path,
                "--placement", placement,
                "--truth-release-km", -1.2917,
                "--truth-wind-deg", -1.49,
                "--out", out,
                "--summary", summary,
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_s,member_id,release_y_m,wind_dir_rad"
        assert len(lines) == 1 + 5 * 80  # steps x members
        slines = summary.read_text().strip().splitlines()
        assert slines[0] == "t_s,parameter,mean,std,entropy_nats"
        assert len(slines) == 1 + 5 * 2


class TestCompare:
    def test_report_and_ranking(self, config_path, tmp_path):
        placement = tmp_path / "placement.json"
        run(["place", "--config", config_path, "--out", placement])
        out = tmp_path / "report.json"
        traces = tmp_path / "traces.csv"
        code = run(
            [
                "compare",
                "--config", config_path,
                "--placements", placement,
                "--random", 2,
                "--conditions", 2,
                "--out", out,
                "--traces-csv", traces,
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["placements"]) == {"bo", "random-00", "random-01"}
        assert len(doc["ranking"]) == 3
        assert traces.exists()


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        code = run(["place", "--config", tmp_path / "nope.json", "--out", tmp_path / "o.json"])
        assert code == 1

    def test_invalid_config_values(self, tmp_path, capsys):
        from plumeplace.config import ExperimentConfig, config_to_dict

        doc = config_to_dict(ExperimentConfig())
        doc["meteo"]["wind_speed_m_s"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run(["place", "--config", path, "--out", tmp_path / "o.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_grid_steps_beyond_node_count(self, config_path, tmp_path, capsys):
        code = run(
            ["grid-surface", "--config", config_path, "--out", tmp_path / "s.csv", "--steps", 36]
        )
        assert code == 1
        assert "plumeplace: error: n_sensors must be in [1, 35]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "assimilate"])
    def test_placement_without_sensors(self, config_path, tmp_path, capsys, command):
        placement = tmp_path / "empty.json"
        placement.write_text(json.dumps({"locations_m": [], "bound_values_nats": []}))
        if command == "compare":
            extra = ["--placements", placement, "--random", 1, "--conditions", 1]
        else:
            extra = ["--placement", placement]
        code = run([command, "--config", config_path, *extra, "--out", tmp_path / "o"])
        assert code == 1
        assert "plumeplace: error: placement must be an (S, 2) array" in capsys.readouterr().err

    def test_assimilate_needs_both_truth_flags(self, config_path, one_sensor, tmp_path, capsys):
        for flag, value in (("--truth-release-km", -1.2), ("--truth-wind-deg", 3.0)):
            code = run(
                ["assimilate", "--config", config_path, "--placement", one_sensor,
                 flag, value, "--out", tmp_path / "o.csv"]
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "plumeplace: error: --truth-release-km and --truth-wind-deg" in err

    def test_grid_zero_steps(self, config_path, tmp_path, capsys):
        code = run(
            ["grid-surface", "--config", config_path, "--out", tmp_path / "s.csv", "--steps", 0]
        )
        assert code == 1
        assert "plumeplace: error: n_sensors must be in [1, 35]" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_compare_negative_random(self, config_path, one_sensor, tmp_path, capsys):
        code = run(
            ["compare", "--config", config_path, "--placements", one_sensor, one_sensor,
             "--random", -3, "--conditions", 1, "--out", tmp_path / "r.json"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "plumeplace: error: random placement count must be >= 0, got -3" in err

    def test_placement_file_without_locations(self, config_path, tmp_path, capsys):
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps({"bound_values_nats": []}))
        code = run(
            ["assimilate", "--config", config_path, "--placement", placement,
             "--out", tmp_path / "o.csv"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "plumeplace: error: placement file" in err
        assert "is missing required key: 'locations_m'" in err

    def test_assimilate_single_member(self, tiny_config, one_sensor, tmp_path, capsys):
        from dataclasses import replace

        path = tmp_path / "c.json"
        save_config(replace(tiny_config, enkf_members=1), path)
        code = run(
            ["assimilate", "--config", path, "--placement", one_sensor, "--out", tmp_path / "o.csv"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "plumeplace: error: analysis needs at least 2 ensemble members, got 1" in err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["place", "--config", path, "--out", tmp_path / "o.json"]) == 1
