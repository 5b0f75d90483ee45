import ast
import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumeplace import evaluate, placement
from plumeplace.config import (
    LAYOUT,
    MAX_COUNT,
    BoConfig,
    ExperimentConfig,
    KnnConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from plumeplace.dispersion import GridSpec, simulate_ensemble
from plumeplace.enkf import assimilate_run
from source_scan import callers_of, library_modules


SUB_CONFIG_SECTIONS = {"knn": "'knn'", "bo": "'domain_km' or 'bo'"}


def error_names(field: str) -> tuple[str, str]:
    """The name and the suffix of an error in an ExperimentConfig field: a
    field ExperimentConfig owns names the field and its file key, a
    sub-config's field the sub-config's argument (its key in the file)
    and its file sections."""
    section, key = next((s, k) for s, k, name in LAYOUT if name == field)
    if section in SUB_CONFIG_SECTIONS:
        return key, f"(config section {SUB_CONFIG_SECTIONS[section]})"
    return field, f"(config key {key if section is None else f'{section}.{key}'!r})"


def default_doc_with(keys, value) -> dict:
    """The default config document with the entry at the key path set."""
    doc = config_to_dict(ExperimentConfig())
    part = doc
    for key in keys[:-1]:
        part = part[key]
    part[keys[-1]] = value
    return doc


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
        assert cfg.conc_floor == 1e-12
        assert (cfg.grid_nx, cfg.grid_ny) == (11, 21)
        assert cfg.knn() == KnnConfig()

    def test_derived_times_and_schedule(self):
        cfg = ExperimentConfig()
        times = cfg.times()
        assert len(times) == 31
        assert times[0] == 60.0
        assert np.all(np.diff(times) == 60.0)
        np.testing.assert_array_equal(cfg.release_times(), 60.0 * np.arange(10))
        assert cfg.release_mass == 1.0

    @pytest.mark.parametrize(
        "interval_min, release_duration_min, puffs",
        [(1.0, 10.0, 10), (1.0, 10.5, 11), (0.7, 16.1, 23), (0.01, 0.1, 10), (1.0, 1e-12, 1)],
    )
    def test_puff_count(self, interval_min, release_duration_min, puffs):
        # one puff per interval from onset while the release lasts; float
        # noise in the ratio (16.1 / 0.7 is 23.000000000000004) adds none
        cfg = ExperimentConfig(interval_min=interval_min, release_duration_min=release_duration_min)
        np.testing.assert_array_equal(
            cfg.release_times(), interval_min * 60.0 * np.arange(puffs)
        )

    def test_unit_conversion(self):
        cfg = ExperimentConfig()
        assert cfg.pipeline_y_m() == (-3000.0, 3000.0)
        np.testing.assert_array_equal(
            cfg.domain_m(), [[0.0, 10000.0], [-10000.0, 10000.0]]
        )
        assert cfg.wind_dir_std_rad() == pytest.approx(np.deg2rad(10.0))
        # the 90-degree heading is the mean of the wind_dir draw: the same
        # stream around pi/2 gives the same double
        north = ExperimentConfig(wind_dir_deg=90.0).draw_prior(1, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        rng.uniform(-3000.0, 3000.0, 1)
        assert north[0, 1] == rng.normal(np.pi / 2, np.deg2rad(10.0), 1)[0]

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
        trace = assimilate_run(cfg, [(2000.0, 0.0)], np.array([100.0, 0.01]), 3)
        assert [[v.hex() for v in row] for row in trace.prior_theta.tolist()] == [
            ["0x1.011d475663cd8p+9", "-0x1.3acfb98273363p-5"],
            ["-0x1.95d023f291998p+10", "-0x1.fb2b56d1269a7p-3"],
            ["-0x1.328008adeea7ap+11", "0x1.d630c36a3e237p-3"],
            ["-0x1.6804dd622a826p+11", "0x1.d55b1571edccep-4"],
        ]
        conditions = evaluate.draw_conditions(cfg, 3, 2)
        assert conditions.shape == (3, 2)
        assert [(y.hex(), w.hex()) for y, w in conditions.tolist()] == [
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


def _positive(hi=1e4):
    return st.floats(min_value=1e-3, max_value=hi)


def _span():
    pairs = st.tuples(st.floats(-50.0, 50.0), st.floats(0.5, 50.0))
    return pairs.map(lambda p: (p[0], p[0] + p[1]))


VALID_CONFIGS = st.builds(
    ExperimentConfig,
    domain_x_km=_span(),
    domain_y_km=_span(),
    pipeline_y_km=_span(),
    wind_speed_m_s=_positive(),
    wind_dir_deg=st.floats(-360.0, 360.0),
    wind_dir_std_deg=_positive(),
    p_y=_positive(),
    q_y=st.floats(0.01, 1.0),
    total_min=_positive(1e3),
    interval_min=_positive(),
    release_duration_min=_positive(),
    n_steps=st.none() | st.integers(1, 1000),
    release_mass=_positive(),
    noise_mean=st.floats(-1.0, 1.0),
    noise_std=_positive(),
    conc_floor=st.floats(1e-300, 1.0),
    placement_members=st.integers(1, 10_000),
    enkf_members=st.integers(1, 10_000),
    knn_k=st.integers(1, 50),
    knn_jitter=st.floats(0.0, 1e-3),
    bo_init=st.integers(2, 100),
    bo_iters=st.integers(0, 100),
    bo_candidates=st.integers(1, 10_000),
    grid_nx=st.integers(1, 100),
    grid_ny=st.integers(1, 100),
    n_sensors=st.integers(1, 10),
    min_sep_m=_positive(),
    inflation=_positive(10.0),
    seed=st.integers(0, 2**63),
)
BAD_VALUES = (None, [], {}, "x", [1, 2, 3], float("nan"), float("inf"), float("-inf"), -1, 0)


class TestLayout:
    def test_names_every_field_once(self):
        named = [name for _, _, name in LAYOUT if name is not None]
        assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))

    @settings(max_examples=50, deadline=None)
    @given(VALID_CONFIGS)
    def test_round_trip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp, "a.json"), Path(tmp, "b.json")
            save_config(cfg, a)
            save_config(load_config(a), b)
            assert a.read_bytes() == b.read_bytes()

    def test_bad_values_give_a_config_or_value_error(self):
        sections = {(section, None) for section, _, _ in LAYOUT if section is not None}
        keys = [(section, key) for section, key, _ in LAYOUT] + sorted(sections)
        for section, key in keys:
            for bad in BAD_VALUES:
                doc = config_to_dict(ExperimentConfig())
                if key is None:
                    doc[section] = bad
                else:
                    (doc if section is None else doc[section])[key] = bad
                try:
                    config_from_dict(doc)
                except ValueError:
                    pass
                except Exception as exc:  # noqa: BLE001 - any other type fails the test
                    pytest.fail(f"{section}.{key} = {bad!r} raised {exc!r}")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("knn", "k", 2.5),
            ("time", "n_steps", 3.7),
            ("grid", "nx", 1e300),
            ("grid", "ny", 21.0),
            ("ensemble", "enkf_members", True),
            ("meteo", "wind_speed_m_s", "4"),
            ("meteo", "p_y", False),
            ("domain_km", "y", [-10.0, "10"]),
            (None, "seed", "7"),
            (None, "seed", 7.0),
        ],
    )
    def test_takes_json_numbers_only(self, section, key, value):
        # integer keys take only JSON integers; real keys and pairs take
        # JSON numbers, never bools or strings; the error names the key
        doc = config_to_dict(ExperimentConfig())
        (doc if section is None else doc[section])[key] = value
        field = next(name for s, k, name in LAYOUT if (s, k) == (section, key))
        name, suffix = error_names(field)
        with pytest.raises(
            ValueError, match=rf"^{name} must be .*, got {re.escape(repr(value))} "
            + re.escape(suffix) + "$"
        ):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("grid", "nx", 10**30),
            ("grid", "ny", MAX_COUNT + 1),
            ("ensemble", "placement_members", 10**12),
            ("ensemble", "enkf_members", 10**8),
            ("bo", "acq_candidates", 10**15),
            ("bo", "iter_count", 10**9),
            ("knn", "k", 10**10),
            ("time", "n_steps", 10**20),
            ("placement", "n_sensors", 10**7 + 1),
        ],
    )
    def test_counts_have_one_upper_bound(self, section, key, value):
        # loading only: nothing is allocated or run at these sizes
        doc = config_to_dict(ExperimentConfig())
        doc[section][key] = MAX_COUNT
        config_from_dict(doc)
        doc[section][key] = value
        field = next(name for s, k, name in LAYOUT if (s, k) == (section, key))
        name, suffix = error_names(field)
        with pytest.raises(
            ValueError,
            match=rf"^{name} must be an integer in \[[01], {MAX_COUNT}\], got {value} "
            + re.escape(suffix) + "$",
        ):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "time, too_many",
        [
            ({"total_min": MAX_COUNT - 1.0}, None),
            ({"total_min": float(MAX_COUNT)}, ("total_min", "observation instants")),
            ({"total_min": 1e12}, ("total_min", "observation instants")),
            ({"total_min": 1e308, "interval_min": 1e-300, "release_duration_min": 1e-300},
             ("total_min", "observation instants")),
            ({"total_min": 1e12, "n_steps": 10}, None),
            ({"release_duration_min": float(MAX_COUNT)}, None),
            ({"release_duration_min": MAX_COUNT + 1.0}, ("release_duration_min", "puffs")),
            ({"release_duration_min": 1e9, "interval_min": 1e-6, "n_steps": 10},
             ("release_duration_min", "puffs")),
        ],
    )
    def test_derived_counts_have_the_same_bound(self, time, too_many):
        # loading only: no instant or puff is allocated; without n_steps
        # the instants are total_min / interval_min + 1
        doc = config_to_dict(ExperimentConfig())
        doc["time"].update(time)
        if too_many is None:
            config_from_dict(doc)
            return
        key, what = too_many
        with pytest.raises(
            ValueError,
            match=f"^config keys 'time.{key}' and 'time.interval_min' give more than "
            f"{MAX_COUNT} {what}$",
        ):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "time, keys, what",
        [
            ({"interval_min": 1e307, "n_steps": 3}, "'time.n_steps'", "observation"),
            ({"total_min": 1e307, "interval_min": 1e301}, "'time.total_min'", "observation"),
            ({"interval_min": 1e300, "release_duration_min": 1e307, "n_steps": 1},
             "'time.release_duration_min'", "release"),
        ],
    )
    def test_last_instants_in_seconds_are_finite(self, time, keys, what):
        # interval_min * 60 overflows although every file value is finite
        doc = config_to_dict(ExperimentConfig())
        doc["time"].update(time)
        with pytest.raises(
            ValueError,
            match=f"^config keys {keys} and 'time.interval_min' give a last {what} instant "
            "that is not finite in seconds$",
        ):
            config_from_dict(doc)

    def test_integers_load_as_real_settings(self):
        doc = config_to_dict(ExperimentConfig())
        doc["meteo"]["wind_speed_m_s"] = 4
        doc["domain_km"]["x"] = [0, 10]
        cfg = config_from_dict(doc)
        assert cfg == ExperimentConfig()
        assert type(cfg.wind_speed_m_s) is float and type(cfg.domain_x_km[1]) is float

    def test_n_steps_may_be_absent(self):
        doc = config_to_dict(ExperimentConfig())
        del doc["time"]["n_steps"]
        assert config_from_dict(doc) == ExperimentConfig()

    @pytest.mark.parametrize(
        "keys, value, undeclared",
        [
            (("time", "nsteps"), 3, "'time.nsteps'"),
            (("meteo", "wind_dir_rad"), 0.0, "'meteo.wind_dir_rad'"),
            (("tme",), {"n_steps": 3}, "'tme'"),
            (("seeds",), 1, "'seeds'"),
        ],
    )
    def test_rejects_undeclared_keys(self, keys, value, undeclared):
        # before this check a misspelled optional key (time.nsteps) loaded
        # silently as the full run
        with pytest.raises(ValueError, match=f"^config has undeclared key\\(s\\): {undeclared}$"):
            config_from_dict(default_doc_with(keys, value))


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

    def test_sub_config_rules(self):
        # BO with no iterations runs only its initial design
        assert ExperimentConfig(bo_iters=0).bo_config().iter_count == 0
        for bad in ({"bo_init": 1}, {"q_y": 1.5}, {"knn_k": 2.5}, {"knn_jitter": -1.0}):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(ExperimentConfig) if f.type.startswith("int")]
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_counts_must_be_integers(self, name, value):
        arg, suffix = error_names(name)
        with pytest.raises(
            ValueError, match=rf"^{arg} must be an integer (in|>=) .*, got .* " + re.escape(suffix)
        ):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_floats(self, value):
        for f in fields(ExperimentConfig):
            if isinstance(f.default, float):
                bad = {f.name: value}
            elif isinstance(f.default, tuple):
                bad = {f.name: (f.default[0], value)}
            else:
                continue
            name, suffix = error_names(f.name)
            with pytest.raises(
                ValueError, match=rf"^{name} must be (a|a pair of) finite number.*"
                + re.escape(suffix)
            ):
                ExperimentConfig(**bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            # each failed inside Python or numpy, without naming the field
            ({"noise_std": "0.1"},
             "noise_std must be a finite number, got '0.1' (config key 'observation.noise_std')"),
            ({"domain_x_km": (0, "a")},
             "domain_x_km must be a pair of finite numbers, got (0, 'a') "
             "(config key 'domain_km.x')"),
            # each was accepted
            ({"wind_speed_m_s": True},
             "wind_speed_m_s must be a finite number, got True "
             "(config key 'meteo.wind_speed_m_s')"),
            ({"pipeline_y_km": [0.0, float("nan")]},
             "pipeline_y_km must be a pair of finite numbers, got [0.0, nan] "
             "(config key 'pipeline_km.y')"),
        ],
        ids=["string-real", "string-in-pair", "bool-real", "nan-in-list-pair"],
    )
    def test_reals_and_pairs_take_finite_numbers_only(self, bad, message):
        with pytest.raises(ValueError) as info:
            ExperimentConfig(**bad)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_a_string_in_any_field_names_its_key(self, name):
        # "12" would unpack as a pair and "1" as a real under a looser rule
        arg, suffix = error_names(name)
        with pytest.raises(ValueError, match=rf"^{arg} must be .*, got '12' {re.escape(suffix)}$"):
            ExperimentConfig(**{name: "12"})

    def test_values_are_stored_as_python_numbers(self, tmp_path):
        # numpy numbers and list pairs are stored as the file would load
        # them, so the config equals, hashes, digests and saves alike
        cfg = ExperimentConfig(
            placement_members=np.int64(60), n_steps=np.int16(5), knn_k=np.int32(4),
            bo_init=np.uint8(5), wind_speed_m_s=np.float32(4.0), knn_jitter=np.float64(0.0),
            pipeline_y_km=[-3, np.int64(3)],
        )
        plain = ExperimentConfig(placement_members=60, n_steps=5, knn_k=4, bo_init=5,
                                 knn_jitter=0.0)
        assert cfg == plain and hash(cfg) == hash(plain)
        assert type(cfg.pipeline_y_km) is tuple
        reals = (*cfg.pipeline_y_km, cfg.wind_speed_m_s, cfg.knn_jitter)
        counts = (cfg.placement_members, cfg.n_steps, cfg.knn_k, cfg.bo_init)
        assert {type(v) for v in reals} == {float} and {type(v) for v in counts} == {int}
        assert cfg.digest() == plain.digest()
        save_config(cfg, tmp_path / "c.json")
        assert load_config(tmp_path / "c.json") == cfg

    @pytest.mark.parametrize(
        "keys, value, suffix",
        [
            (("grid", "nx"), 0, "(config key 'grid.nx')"),
            (("ensemble", "enkf_members"), 0, "(config key 'ensemble.enkf_members')"),
            (("time", "n_steps"), 0, "(config key 'time.n_steps')"),
            (("time", "interval_min"), 0.0, "(config key 'time.interval_min')"),
            (("meteo", "wind_dir_std_deg"), -1.0, "(config key 'meteo.wind_dir_std_deg')"),
            (("enkf", "inflation"), 0.0, "(config key 'enkf.inflation')"),
            (("release_mass",), 0.0, "(config key 'release_mass')"),
            (("pipeline_km", "y"), [1.0, 1.0], "(config key 'pipeline_km.y')"),
            (("meteo", "p_y"), float("nan"), "(config key 'meteo.p_y')"),
            (("bo", "init_count"), 1, "(config section 'domain_km' or 'bo')"),
            (("domain_km", "x"), [5.0, 5.0], "(config section 'domain_km' or 'bo')"),
            (("meteo", "q_y"), 1.5, "(config key 'meteo.q_y')"),
            (("observation", "noise_std"), 0.0, "(config key 'observation.noise_std')"),
            (("knn", "k"), 0, "(config section 'knn')"),
            (("meteo", "wind_speed_m_s"), 0.0, "(config key 'meteo.wind_speed_m_s')"),
            (("observation", "conc_floor"), 0.0, "(config key 'observation.conc_floor')"),
            (("seed",), -1, "(config key 'seed')"),
        ],
    )
    def test_errors_name_the_file_key(self, keys, value, suffix):
        with pytest.raises(ValueError) as info:
            config_from_dict(default_doc_with(keys, value))
        assert str(info.value).endswith(suffix)

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(seed=99)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        # an equal config spelled with an integer had its own digest
        assert ExperimentConfig(wind_speed_m_s=4).digest() == a.digest()


CONFIG_BUILT = {"BoConfig"}


def test_only_config_builds_model_settings():
    """Each model setting has one owner: only config.py constructs a
    BoConfig, and no dataclass keeps one as a field, so a setting is read
    from the ExperimentConfig that owns it instead of from a copy."""
    mentions = re.compile(r"\b(" + "|".join(sorted(CONFIG_BUILT)) + r")\b")
    held = [
        f"{file_name}:{node.name}.{stmt.target.id}"
        for file_name, tree in library_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and mentions.search(ast.unparse(stmt.annotation))
    ]
    assert callers_of(CONFIG_BUILT) <= {"config.py"}
    assert held == []


def test_config_owns_the_input_rules():
    """config.py defines the sub-configs, and no other library module
    names np.integer: one rule (check_count) decides what a count is."""
    classes = {
        (node.name, file_name)
        for file_name, tree in library_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in ("KnnConfig", "BoConfig")
    }
    integer = {
        file_name
        for file_name, tree in library_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "integer"
    }
    assert classes == {("KnnConfig", "config.py"), ("BoConfig", "config.py")}
    assert integer == {"config.py"}



@pytest.mark.parametrize(
    "call, bad, good, message",
    [
        (lambda cfg, ens, grid, n: placement.grid_place(ens, n, grid), 2.0, np.int64(1),
         "n_sensors .* 2.0"),
        (lambda cfg, ens, grid, n: placement.greedy_place(ens, n, cfg.bo_config(), 1.0), 1.5,
         np.int32(1), "n_sensors .* 1.5"),
        (lambda cfg, ens, grid, n: placement.build_ensemble(cfg, n, 0), 60.5, np.int64(60),
         "n_members .* 60.5"),
        (lambda cfg, ens, grid, n: evaluate.compare_placements(
            cfg, {"a": [(1.0, 0.0)], "b": [(2.0, 0.0)]}, n, 0), 2.5, np.int64(1),
         "n_conditions .* 2.5"),
        (lambda cfg, ens, grid, n: evaluate.random_placements(cfg, n, 0), 1.5, np.uint8(2),
         "count .* 1.5"),
        (lambda cfg, ens, grid, n: evaluate.draw_conditions(cfg, n, 0), 1.5, np.int64(2),
         "n_conditions .* 1.5"),
        (lambda cfg, ens, grid, n: evaluate.draw_conditions(cfg, n, 0), True, np.int16(0),
         "n_conditions .* True"),
        (lambda cfg, ens, grid, seeds: simulate_ensemble(cfg, ens.params, [(1.0, 0.0)], seeds),
         7, [np.int64(7)], "rng_seeds must hold one seed per sensor, got 7"),
        # a numpy count above MAX_COUNT was taken where a Python one was not
        (lambda cfg, ens, grid, n: ExperimentConfig(placement_members=n), np.int64(10**9),
         np.int64(60), rf"placement_members must be an integer in \[1, {MAX_COUNT}\], got "
         r"np.int64\(1000000000\) \(config key 'ensemble.placement_members'\)$"),
        (lambda cfg, ens, grid, n: KnnConfig(k=n), 10**9, np.int64(4),
         rf"k must be an integer in \[1, {MAX_COUNT}\], got 1000000000$"),
        (lambda cfg, ens, grid, n: BoConfig(domain=[[0.0, 1.0]], acq_candidates=n), 10**9,
         np.int64(64),
         rf"acq_candidates must be an integer in \[1, {MAX_COUNT}\], got 1000000000$"),
        (lambda cfg, ens, grid, n: GridSpec(n, 3, grid.domain), 10**9, np.int64(3),
         rf"nx must be an integer in \[1, {MAX_COUNT}\], got 1000000000$"),
        # a ragged or non-numeric box failed inside numpy, without its name
        (lambda cfg, ens, grid, box: BoConfig(domain=box), [[0, 1], [0]], [[0, 1], [0, 2]],
         r"domain must be a \(dims, 2\) array of \(low, high\) bounds, got \[\[0, 1\], \[0\]\]$"),
        (lambda cfg, ens, grid, box: BoConfig(domain=box), "ab", np.array([[0, 1]]),
         r"domain must be a \(dims, 2\) array of \(low, high\) bounds, got 'ab'$"),
    ],
    ids=["grid_place", "greedy_place", "build_ensemble", "compare_placements",
         "random_placements", "draw_conditions", "draw_conditions-bool", "simulate_ensemble",
         "ExperimentConfig-numpy-huge", "KnnConfig-huge", "BoConfig-huge", "GridSpec-huge",
         "BoConfig-ragged-domain", "BoConfig-string-domain"],
)
def test_entry_points_refuse_non_integer_counts(tiny_config, call, bad, good, message):
    # a float count failed later, inside Python or numpy, without its name;
    # an in-range numpy count is taken
    ens = placement.build_ensemble(tiny_config, tiny_config.placement_members, 0)
    grid = GridSpec(2, 2, [[100.0, 2000.0], [-500.0, 500.0]])
    with pytest.raises(ValueError, match=f"^{message}"):
        call(tiny_config, ens, grid, bad)
    call(tiny_config, ens, grid, good)
