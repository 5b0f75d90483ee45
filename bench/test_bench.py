"""Self-tests of the benchmark at tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import time

import pytest

import run

run.import_library()

import layers  # noqa: E402
import record  # noqa: E402
import workloads  # noqa: E402
from plumeplace.config import ExperimentConfig  # noqa: E402
from tracer import Tracer  # noqa: E402


def tiny(seed: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        placement_members=60,
        enkf_members=80,
        n_steps=10,  # fewer steps and the plume never reaches REF
        bo_init=4,
        bo_iters=3,
        bo_candidates=64,
        grid_nx=5,
        grid_ny=7,
        seed=seed,
    )


@pytest.fixture(scope="module")
def traced_runs():
    """One traced run per workload, with the wrapped attributes seen before it."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in layers.SPANNED]
        originals.append((layers.gp, "cho_factor", layers.gp.cho_factor))
        t0 = time.perf_counter()
        result, rec = run.run_workload(workload, tiny(), 0.0, trace=True)
        out[name] = (result, rec, originals, time.perf_counter() - t0)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric_with_its_unit(name):
    result, rec = run.run_workload(workloads.WORKLOADS[name], tiny(), 0.0, trace=False,
                                   setup_repeats=1)
    assert result["correct"], rec["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()
    }
    assert all(result["metrics"][k]["value"] > 0 for k in ("setup_s", "run_cal", "peak_rss_mb"))
    json.dumps(result)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_with_its_unit(traced_runs, name):
    result, rec, _, _ = traced_runs[name]
    assert result["correct"], rec["problems"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        k: unit for k, (unit, _) in layers.PER_LAYER.items()
    }
    json.dumps(result)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_nest(traced_runs, name):
    _, rec, _, _ = traced_runs[name]
    for tracer in rec["tracers"]:
        assert tracer.spans and tracer.spans[0].parent == -1
        for span in tracer.spans:
            assert span.start <= span.end
            if span.parent >= 0:
                outer = tracer.spans[span.parent]
                assert outer.start <= span.start and span.end <= outer.end


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_are_nonnegative_and_within_wall_time(traced_runs, name):
    _, rec, _, wall = traced_runs[name]
    for tracer, traced_s in zip(rec["tracers"], rec["traced_run_s"]):
        own = tracer.self_times()
        assert min(own) >= -1e-9
        assert sum(own) <= traced_s + 1e-9
        assert traced_s <= wall


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrapped_attributes_are_restored(traced_runs, name):
    _, _, originals, _ = traced_runs[name]
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_attributes_are_restored_when_the_call_raises():
    tracer = Tracer()
    original = layers.gp.fit
    with pytest.raises(ValueError):
        with tracer.patched(layers.targets(tracer, tiny())):
            layers.gp.fit([[0.0, 0.0]], [1.0])
    assert layers.gp.fit is original
    assert tracer.spans[0].name == "gp.fit" and tracer.spans[0].failed


def test_workloads_separate_the_layers(traced_runs):
    calls = {name: r[0]["metrics"] for name, r in traced_runs.items()}
    assert calls["place-bo"]["gp.fit.calls"]["value"] > 0
    assert calls["grid-surface"]["gp.fit.calls"]["value"] == 0
    assert calls["compare"]["gp.fit.calls"]["value"] == 0
    assert calls["grid-surface"]["mi.ksg_mi.calls"]["value"] > 0
    assert calls["compare"]["mi.ksg_mi.calls"]["value"] == 0
    assert calls["compare"]["mi.knn_entropy.calls"]["value"] > 0
    assert calls["place-bo"]["mi.knn_entropy.calls"]["value"] == 0
    assert calls["grid-surface"]["mi.knn_entropy.calls"]["value"] == 0


def test_a_gate_failure_is_counted_as_failed_operations(monkeypatch):
    workload = workloads.WORKLOADS["compare"]
    monkeypatch.setattr(workloads.evaluate, "compare_placements",
                        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
    result, rec = run.run_workload(workload, tiny(), 0.0, trace=False, setup_repeats=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == workload.operations(tiny())
    assert "boom" in rec["problems"][0]


def test_compare_refuses_records_whose_sizes_differ(capsys):
    def rec(members):
        return {"stamp": {}, "workloads": {"compare": {
            "sizes": {"enkf_members": members},
            "summary": {"end_to_end": {"run_s": 1.0}}}}}

    assert record.compare(rec(500), rec(500)) == 0
    assert record.compare(rec(500), rec(80)) == 2
    assert "sizes differ" in capsys.readouterr().err


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
