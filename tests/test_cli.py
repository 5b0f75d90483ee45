import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from plumeplace.cli import main
from plumeplace.config import MAX_COUNT, config_to_dict, save_config
from source_scan import callers_of


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


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("plumeplace: error: "), err
    return err


def edited(doc, keys, value):
    """doc with the entry at the key path replaced; () replaces the whole document."""
    if not keys:
        return value
    part = doc
    for key in keys[:-1]:
        part = part[key]
    part[keys[-1]] = value
    return doc


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
        assert lines[0] == "x_m,y_m,step,mi_nats"
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
        assert set(doc["prior_entropy"]) == {"release_y", "wind_dir", "joint"}
        lines = traces.read_text().strip().splitlines()
        assert lines[0] == "placement,t_s,measure,conditional_entropy_nats"
        assert len(lines) == 1 + 3 * 5 * 3  # placements x steps x measures


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
        err = capsys.readouterr().err
        assert "plumeplace: error: --steps must be an integer in [1, 35], got 36" in err

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

    @pytest.mark.parametrize(
        "release_km, wind_deg, flag",
        [
            ("inf", 3.0, "--truth-release-km"),
            ("nan", 3.0, "--truth-release-km"),
            (1e308, 3.0, "--truth-release-km"),  # finite in km, inf in meters
            (-1.2, "-inf", "--truth-wind-deg"),
            (-1.2, "nan", "--truth-wind-deg"),
        ],
    )
    def test_assimilate_rejects_non_finite_truth(
        self, config_path, one_sensor, tmp_path, capsys, release_km, wind_deg, flag
    ):
        out = tmp_path / "o.csv"
        code = run(
            ["assimilate", "--config", config_path, "--placement", one_sensor,
             f"--truth-release-km={release_km}", f"--truth-wind-deg={wind_deg}", "--out", out]
        )
        assert code == 1
        assert one_error_line(capsys).startswith(
            f"plumeplace: error: {flag} must be finite in meters and radians, got "
        )
        assert not out.exists()

    def test_grid_zero_steps(self, config_path, tmp_path, capsys):
        code = run(
            ["grid-surface", "--config", config_path, "--out", tmp_path / "s.csv", "--steps", 0]
        )
        assert code == 1
        assert one_error_line(capsys) == (
            "plumeplace: error: --steps must be an integer in [1, 35], got 0\n"
        )
        assert not (tmp_path / "s.csv").exists()

    def test_grid_config_sensors_beyond_node_count(self, tiny_config, tmp_path, capsys,
                                                    monkeypatch):
        # without --steps the count is the config's, checked before any
        # ensemble is drawn
        path = tmp_path / "c.json"
        save_config(replace(tiny_config, n_sensors=36), path)

        def no_ensemble(*args):
            raise AssertionError("grid-surface drew an ensemble before checking n_sensors")

        monkeypatch.setattr("plumeplace.placement.build_ensemble", no_ensemble)
        assert run(["grid-surface", "--config", path, "--out", tmp_path / "s.csv"]) == 1
        assert one_error_line(capsys) == (
            "plumeplace: error: n_sensors (config keys 'placement.n_sensors', 'grid.nx' and "
            "'grid.ny') must be an integer in [1, 35], got 36\n"
        )
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["compare", "assimilate"])
    def test_entropy_members_name_their_keys(self, tiny_config, one_sensor, tmp_path, capsys,
                                              command):
        # 6 members cannot give a kNN entropy with k = 6; assimilate needs
        # entropies for --summary only, and must not write --out first
        path = tmp_path / "c.json"
        save_config(replace(tiny_config, enkf_members=6), path)
        out, summary = tmp_path / "o", tmp_path / "summary.csv"
        if command == "compare":
            extra = ["--placements", one_sensor, one_sensor, "--random", 1, "--conditions", 1]
        else:
            extra = ["--placement", one_sensor, "--summary", summary]
        assert run([command, "--config", path, *extra, "--out", out]) == 1
        assert one_error_line(capsys) == (
            "plumeplace: error: enkf_members must exceed knn k for kNN entropies, got 6 and 6 "
            "(config keys 'ensemble.enkf_members' and 'knn.k')\n"
        )
        assert not out.exists() and not summary.exists()

    def test_assimilate_without_summary_needs_no_entropy_members(
        self, tiny_config, one_sensor, tmp_path
    ):
        path = tmp_path / "c.json"
        save_config(replace(tiny_config, enkf_members=6), path)
        out = tmp_path / "o.csv"
        assert run(["assimilate", "--config", path, "--placement", one_sensor, "--out", out]) == 0
        assert out.exists()

    def test_compare_negative_random(self, config_path, one_sensor, tmp_path, capsys):
        code = run(
            ["compare", "--config", config_path, "--placements", one_sensor, one_sensor,
             "--random", -3, "--conditions", 1, "--out", tmp_path / "r.json"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "plumeplace: error: count must be an integer in [0, 10000000], got -3" in err

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

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["place", "--config", path, "--out", tmp_path / "o.json"]) == 1
        assert one_error_line(capsys).startswith(
            f"plumeplace: error: config file {path} is not JSON: Expecting property name"
        )

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            ((), [], "config must be a JSON object, got list"),
            (("meteo",), 5, "config key 'meteo' must be an object, got 5"),
            (("meteo", "p_y"), None,
             "p_y must be a finite number, got None (config key 'meteo.p_y')"),
            (("domain_km", "x"), 5,
             "domain_x_km must be a pair of finite numbers, got 5 (config key 'domain_km.x')"),
            (("seed",), [1], "seed must be an integer >= 0, got [1] (config key 'seed')"),
            (("knn", "k"), 2.5,
             f"k must be an integer in [1, {MAX_COUNT}], got 2.5 (config section 'knn')"),
            (("time", "n_steps"), 3.7,
             f"n_steps must be an integer in [1, {MAX_COUNT}], got 3.7 "
             "(config key 'time.n_steps')"),
            (("grid", "nx"), 1e300,
             f"grid_nx must be an integer in [1, {MAX_COUNT}], got 1e+300 (config key 'grid.nx')"),
            (("ensemble", "enkf_members"), True,
             f"enkf_members must be an integer in [1, {MAX_COUNT}], got True "
             "(config key 'ensemble.enkf_members')"),
            (("meteo", "wind_speed_m_s"), "4",
             "wind_speed_m_s must be a finite number, got '4' (config key 'meteo.wind_speed_m_s')"),
            (("seed",), "7", "seed must be an integer >= 0, got '7' (config key 'seed')"),
        ],
        ids=["list", "scalar-section", "null-value", "scalar-pair", "list-seed", "float-k",
             "float-n-steps", "huge-nx", "bool-members", "string-wind", "string-seed"],
    )
    def test_malformed_config_document(self, tiny_config, tmp_path, capsys, keys, value, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(edited(config_to_dict(tiny_config), keys, value)))
        assert run(["place", "--config", path, "--out", tmp_path / "o.json"]) == 1
        assert one_error_line(capsys) == f"plumeplace: error: {message}\n"

    def test_nan_interval(self, tiny_config, tmp_path, capsys):
        path = tmp_path / "c.json"
        doc = edited(config_to_dict(tiny_config), ("time", "interval_min"), float("nan"))
        path.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        assert run(["place", "--config", path, "--out", out]) == 1
        assert one_error_line(capsys) == (
            "plumeplace: error: interval_min must be a finite number, got nan "
            "(config key 'time.interval_min')\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_negative_seed(self, tiny_config, tmp_path, capsys, where):
        # numpy's own message for a negative seed names no flag or key
        path = tmp_path / "c.json"
        doc = config_to_dict(tiny_config)
        if where == "file":
            doc["seed"] = -1
        path.write_text(json.dumps(doc))
        flags = ["--seed", -1] if where == "flag" else []
        out = tmp_path / "o.json"
        assert run(["place", "--config", path, "--out", out, *flags]) == 1
        assert one_error_line(capsys) == (
            "plumeplace: error: seed must be an integer >= 0, got -1 (config key 'seed')\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"locations_m": 5, "bound_values_nats": []},
            {"locations_m": [[600.0, 0.0]], "bound_values_nats": [0.0], "seed": 2.5},
            {"locations_m": [[600.0, 0.0]], "bound_values_nats": [0.0], "seed": "x"},
            {"locations_m": [["3000", "-1000"]], "bound_values_nats": [0.0]},
            {"locations_m": [[True, 0]], "bound_values_nats": [0.0]},
            {"locations_m": [[1000, None]], "bound_values_nats": [0.0]},
            {"locations_m": [[float("nan"), 0]], "bound_values_nats": [0.0]},
            {"locations_m": [[600.0, 0.0]], "bound_values_nats": ["0.5"]},
            {"locations_m": [[600.0, 0.0]], "bound_values_nats": [float("nan")]},
            {"locations_m": [[600.0, 0.0]], "bound_values_nats": [0.0], "method": ["bo"]},
            "{not json",
        ],
        ids=["list", "scalar-locations", "float-seed", "string-seed", "string-location",
             "bool-location", "null-location", "nan-location", "string-bound", "nan-bound",
             "list-method",
             "not-json"],
    )
    def test_malformed_placement_file(self, config_path, tmp_path, capsys, doc):
        placement = tmp_path / "p.json"
        placement.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = run(
            ["assimilate", "--config", config_path, "--placement", placement,
             "--out", tmp_path / "o.csv"]
        )
        assert code == 1
        err = one_error_line(capsys)
        assert err.startswith(f"plumeplace: error: placement file {placement} is malformed")

    def test_data_block_wider_than_ensemble(self, tiny_config, tmp_path, capsys):
        # step 2 stacks 2 x 30 observation columns against 50 members
        path = tmp_path / "c.json"
        save_config(replace(tiny_config, placement_members=50, n_steps=30), path)
        assert run(["place", "--config", path, "--out", tmp_path / "o.json"]) == 1
        err = one_error_line(capsys)
        assert err.startswith("plumeplace: error: objective failed at")
        assert "need more samples than total dimensions" in err

    def test_unsatisfiable_separation(self, tiny_config, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_config(replace(tiny_config, min_sep_m=1e9), path)
        assert run(["place", "--config", path, "--out", tmp_path / "o.json"]) == 1
        err = one_error_line(capsys)
        assert err.startswith("plumeplace: error: no trace point at step 2 satisfies min_sep=")


# sha256 of each tiny-config output, recorded at the commit before the
# removal of unused options. A change that moves output bits on purpose
# re-records them and logs old and new values with the reason.
GOLDEN_SHA256 = {
    "placement.json":
        "030307cde9cd379ef4c70748689ccdcb73458ee53ba1cb409e6875fb613396d1",
    # re-recorded when bo.maximize went to a refit every bo.REFIT_EVERY iterations
    "bo-traces.csv":
        "0ae079ddb3dadc961f31a125ad278f21f4ffc20dd8ac94cb0647baa68e91f1c7",
    "surface.csv":
        "690d750e77019b38385e66dc11bb73c82c545f40f9df7b33d5d570a31668790b",
    "report.json":
        "779ec00319fab249a7ba7a0642af3e9a32ad65db61002784071586b616db4f2d",
    "entropy-traces.csv":
        "e88b517d103be40d38e9b7facc8471c9bdd101d4537e22e26f88acf777520876",
    "posterior.csv":
        "969a2b781939fc7deae2b62ab815d80b7e51542dc21dd12121de8caa0bd99211",
    "summary.csv":
        "63a0ac0b282ffde60efb1fe8edf02c15571e70ad0d3ecf7758f73cc819ca5a93",
    # recorded at the commit before the CLI took over writing its files
    "grid-placement.json":
        "0a821715b8d896b7b488e37fa1fdda2b6fb679e4567616776d01646cc0ae5428",
}


def test_golden_outputs(config_path, tmp_path):
    out = {name: tmp_path / name for name in GOLDEN_SHA256}
    common = ["--config", config_path]
    assert run(["place", *common, "--out", out["placement.json"],
                "--traces-csv", out["bo-traces.csv"]]) == 0
    assert run(["grid-surface", *common, "--out", out["surface.csv"], "--steps", 1,
                "--placement-out", out["grid-placement.json"]]) == 0
    assert run(["compare", *common, "--placements", out["placement.json"], "--random", 2,
                "--conditions", 2, "--out", out["report.json"],
                "--traces-csv", out["entropy-traces.csv"]]) == 0
    assert run(["assimilate", *common, "--placement", out["placement.json"],
                "--out", out["posterior.csv"], "--summary", out["summary.csv"]]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert digests == GOLDEN_SHA256


@pytest.mark.parametrize(
    "setting",
    [{"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
     {"OPENBLAS_CORETYPE": "Haswell"}],
    ids=["numpy-without-avx512", "openblas-haswell"],
)
def test_golden_outputs_on_a_second_dispatch_path(setting):
    """The CLI golden holds when numpy runs without its AVX-512 kernels, or
    OpenBLAS with its Haswell ones: each setting is made in a child
    process only. The gp golden is left out: its signal_var bits move on
    both paths, and how it should behave there is an open question."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_cli.py::test_golden_outputs"],
        cwd=root, env={**os.environ, **setting}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_only_cli_and_config_open_files():
    """The bytes of every file have one owner: no other module calls open."""
    assert callers_of({"open"}) == {"cli.py", "config.py"}
