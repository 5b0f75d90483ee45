import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumeplace.config import ExperimentConfig
from plumeplace.evaluate import (
    EvaluationReport,
    compare_placements,
    draw_conditions,
    random_placements,
)

from oracles import per_job_compare


def report_of(runs) -> EvaluationReport:
    """A report holding one placement's (n_conditions, n_steps, 3) traces."""
    runs = np.asarray(runs, dtype=float)
    return EvaluationReport(
        placements={"p": []},
        conditions=np.empty((0, 2)),
        times=np.arange(runs.shape[1], dtype=float),
        traces={"p": runs},
        prior_entropy=(0.0, 0.0, 0.0),
    )


class TestConditionalEntropy:
    """EvaluationReport.conditional: the uniform average over conditions."""

    def test_equal_weights_mean(self):
        runs = [[[1.0, 3.0, 5.0]], [[3.0, 5.0, 9.0]]]
        np.testing.assert_array_equal(report_of(runs).conditional("p"), [[2.0, 4.0, 7.0]])

    def test_single_condition(self):
        runs = [[[7.3, -1.0, 2.5], [0.1, 0.2, 0.3]]]
        np.testing.assert_array_equal(report_of(runs).conditional("p"), runs[0])

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_uniform_weighting_stays_in_range(self, values):
        runs = np.repeat(np.asarray(values)[:, None, None], 3, axis=2)
        out = report_of(runs).conditional("p")
        assert out.shape == (1, 3)
        assert np.all((min(values) - 1e-9 <= out) & (out <= max(values) + 1e-9))


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
        assert a.shape == (5, 2)
        np.testing.assert_array_equal(a, b)
        lo, hi = mini_cfg.pipeline_y_m()
        assert np.all((lo <= a[:, 0]) & (a[:, 0] <= hi))

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

    def test_trace_layout(self, mini_cfg):
        named = {
            "a": [(1500.0, 1000.0), (1500.0, -1000.0)],
            "b": [(-8000.0, -8000.0), (-8000.0, 8000.0)],
        }
        report = compare_placements(mini_cfg, named, n_conditions=2, seed=5)
        assert report.traces["a"].shape == (2, 6, 3)
        agg = report.conditional("a")
        assert agg.shape == (6, 3)

    def test_equals_the_per_job_oracle(self, mini_cfg):
        named = {
            "one": [(700.0, 1400.0)],
            "three": [(600.0, 1000.0), (600.0, 1900.0), (1200.0, 1400.0)],
        }
        report = compare_placements(mini_cfg, named, n_conditions=3, seed=7)
        traces, prior_entropy = per_job_compare(mini_cfg, named, 3, 7)
        assert report.prior_entropy == prior_entropy
        assert report.traces.keys() == traces.keys()
        for name, expected in traces.items():
            np.testing.assert_array_equal(report.traces[name], expected)
            # the sensors sit near the accidents (release_y 1.0 to 1.9 km), so
            # every condition's posterior moves away from the prior
            assert np.all(expected[:, -1, 0] < prior_entropy[0] - 0.2)

    def test_requires_two_placements(self, mini_cfg):
        with pytest.raises(ValueError):
            compare_placements(mini_cfg, {"only": [(0.0, 0.0)]}, 2, seed=0)

    def test_requires_a_condition(self, mini_cfg):
        named = {"a": [(1500.0, 1000.0)], "b": [(2500.0, 2000.0)]}
        with pytest.raises(ValueError, match="n_conditions must be >= 1"):
            compare_placements(mini_cfg, named, n_conditions=0, seed=0)
