import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumeplace.config import ExperimentConfig
from plumeplace.evaluate import (
    compare_placements,
    conditional_entropy,
    draw_conditions,
    random_placements,
)


class TestConditionalEntropy:
    def test_equal_weights_mean(self):
        assert conditional_entropy([1.0, 3.0], [0.5, 0.5]) == 2.0

    def test_single_condition(self):
        assert conditional_entropy([7.3], [1.0]) == 7.3

    def test_weighted(self):
        assert conditional_entropy([4.0, 0.0], [0.25, 0.75]) == 1.0

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            conditional_entropy([1.0, 2.0], [1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            conditional_entropy([1.0, 2.0], [1.5, -0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            conditional_entropy([1.0, 2.0], [0.3, 0.3])

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_weighting_stays_in_range(self, values):
        weights = np.full(len(values), 1.0 / len(values))
        out = conditional_entropy(values, weights)
        assert min(values) - 1e-9 <= out <= max(values) + 1e-9


@pytest.fixture(scope="module")
def mini_cfg():
    return ExperimentConfig(
        placement_members=100,
        enkf_members=120,
        n_steps=6,
        n_sensors=2,
    )


class TestHelpers:
    def test_conditions_deterministic_and_in_prior_support(self, mini_cfg):
        a = draw_conditions(mini_cfg, 5, seed=1)
        b = draw_conditions(mini_cfg, 5, seed=1)
        assert a == b
        lo, hi = mini_cfg.pipeline_y_m()
        assert all(lo <= c.release_y <= hi for c in a)

    def test_random_placements_shape(self, mini_cfg):
        out = random_placements(mini_cfg, 3, seed=2)
        assert len(out) == 3
        assert all(len(locs) == mini_cfg.n_sensors for locs in out.values())
        box = mini_cfg.domain_m()
        for locs in out.values():
            for x, y in locs:
                assert box[0, 0] <= x <= box[0, 1]
                assert box[1, 0] <= y <= box[1, 1]


class TestComparePlacements:
    def test_duplicate_placement_identical_traces(self, mini_cfg):
        good = [(2000.0, 1500.0), (2000.0, -1500.0)]
        report = compare_placements(
            mini_cfg, {"a": good, "b": list(good)}, n_conditions=2, seed=3
        )
        np.testing.assert_array_equal(report.traces["a"], report.traces["b"])

    def test_upwind_placement_ranks_worst(self, mini_cfg):
        named = {
            "informative": [(1500.0, 1000.0), (1500.0, -1000.0)],
            "upwind": [(-8000.0, -8000.0), (-8000.0, 8000.0)],
        }
        report = compare_placements(mini_cfg, named, n_conditions=3, seed=4)
        assert report.ranking()[-1] == "upwind"
        assert report.final_release_entropy("upwind") > report.final_release_entropy(
            "informative"
        )

    def test_trace_layout_and_exports(self, mini_cfg, tmp_path):
        named = {
            "a": [(1500.0, 1000.0), (1500.0, -1000.0)],
            "b": [(-8000.0, -8000.0), (-8000.0, 8000.0)],
        }
        report = compare_placements(mini_cfg, named, n_conditions=2, seed=5)
        assert report.traces["a"].shape == (2, 6, 3)
        agg = report.conditional("a")
        assert agg.shape == (6, 3)

        jpath = tmp_path / "report.json"
        report.write_json(jpath)
        text = jpath.read_text()
        assert "ranking" in text and "prior_entropy" in text

        cpath = tmp_path / "traces.csv"
        report.write_traces_csv(cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "placement,t_s,measure,conditional_entropy_nats"
        assert len(lines) == 1 + 2 * 6 * 3

    def test_requires_two_placements(self, mini_cfg):
        with pytest.raises(ValueError):
            compare_placements(mini_cfg, {"only": [(0.0, 0.0)]}, 2, seed=0)

    def test_requires_a_condition(self, mini_cfg):
        named = {"a": [(1500.0, 1000.0)], "b": [(2500.0, 2000.0)]}
        with pytest.raises(ValueError, match="n_conditions must be >= 1"):
            compare_placements(mini_cfg, named, n_conditions=0, seed=0)
