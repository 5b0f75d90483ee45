"""Properties over random placements at the tiny config: one to three
sensors anywhere in the domain, the pipeline line x = 0 included, give a
finite MI bound and a finite posterior, and a rerun repeats both."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plumeplace import evaluate, placement as pl
from plumeplace.enkf import assimilate_run

# sensors as fractions of the domain box; x fraction 0 is the pipeline line
FRACTIONS = st.lists(
    st.tuples(st.just(0.0) | st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=3
)
# the tiny config is a frozen dataclass, so sharing it across examples is safe
PROPERTY = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def in_domain(cfg, fractions) -> list[tuple[float, float]]:
    box = cfg.domain_m()
    return [tuple(box[:, 0] + np.asarray(f) * (box[:, 1] - box[:, 0])) for f in fractions]


@PROPERTY
@given(FRACTIONS, st.integers(0, 2**32 - 1))
def test_objective_finite_and_repeatable(tiny_config, fractions, seed):
    sensors = in_domain(tiny_config, fractions)
    values = [
        pl.objective(pl.build_ensemble(tiny_config, 60, seed), sensors[:-1], sensors[-1])
        for _ in range(2)
    ]
    assert np.isfinite(values[0])
    assert values[0] == values[1]


@PROPERTY
@given(FRACTIONS, st.integers(0, 2**32 - 1))
def test_assimilate_run_finite_and_repeatable(tiny_config, fractions, seed):
    sensors = in_domain(tiny_config, fractions)
    truth = evaluate.draw_conditions(tiny_config, 1, seed)[0]
    a, b = (assimilate_run(tiny_config, sensors, truth, seed) for _ in range(2))
    assert all(np.all(np.isfinite(theta)) for theta in a.thetas)
    for theta_a, theta_b in zip(a.thetas, b.thetas, strict=True):
        np.testing.assert_array_equal(theta_a, theta_b)
