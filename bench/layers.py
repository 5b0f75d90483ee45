"""Which library functions the traced run wraps, and the per-layer
metrics it derives from their spans.

Each target is the module attribute the caller resolves at call time:
`cca` calls its own `ksg_mi` name and `evaluate` its own `knn_entropy`
and `assimilate_run`, so those are wrapped there, not in `mi`/`enkf`.
"""

from __future__ import annotations

import statistics
from functools import partial

import numpy as np

from plumeplace import bo, cca, dispersion, enkf, evaluate, gp, placement

# (span name, owner, attribute)
SPANNED = [
    ("placement.greedy_place", placement, "greedy_place"),
    ("placement.grid_place", placement, "grid_place"),
    ("evaluate.compare_placements", evaluate, "compare_placements"),
    ("gp.fit", gp, "fit"),
    ("gp.predict", gp, "predict"),
    ("bo.propose_next", bo, "propose_next"),
    ("placement.objective", placement, "objective"),
    ("placement.trajectories", placement.PriorEnsemble, "trajectories"),
    ("dispersion.simulate_ensemble", dispersion, "simulate_ensemble"),
    ("dispersion.log_concentrations_at", dispersion, "log_concentrations_at"),
    ("dispersion.simulate_observations", dispersion, "simulate_observations"),
    ("cca.first_canonical", cca, "first_canonical"),
    ("mi.ksg_mi", cca, "ksg_mi"),
    ("mi.knn_entropy", evaluate, "knn_entropy"),
    ("enkf.assimilate_run", evaluate, "assimilate_run"),
    ("enkf.forecast", enkf, "forecast"),
    ("enkf.analysis", enkf, "analysis"),
]


def _count_outside(tracer, cfg, trace) -> None:
    lo, hi = cfg.pipeline_y_m()
    release_y = trace.thetas[-1][:, 0]
    tracer.counts["release.members"] += release_y.size
    tracer.counts["release.outside"] += int(np.sum((release_y < lo) | (release_y > hi)))


def targets(tracer, cfg) -> list:
    """(owner, attribute, wrap) triples for Tracer.patched."""
    out = []
    for name, owner, attr in SPANNED:
        observe = partial(_count_outside, tracer, cfg) if name == "enkf.assimilate_run" else None
        out.append((owner, attr, partial(tracer.spanned, name=name, observe=observe)))
    # one count per likelihood evaluation; too frequent for a span
    out.append((gp, "cho_factor", partial(tracer.counted, name="gp.cho_factor", within="gp.fit")))
    return out


# name -> (unit, better)
PER_LAYER = {
    "gp.fit.calls": ("count", "lower"),
    "gp.fit.self_s": ("s", "lower"),
    "gp.fit.p50_ms": ("ms", "lower"),
    "gp.fit.loglik_evals_per_fit": ("count", "lower"),
    "gp.fit.loglik_failed_frac": ("ratio", "lower"),
    "gp.predict.calls": ("count", "lower"),
    "gp.predict.self_s": ("s", "lower"),
    "bo.propose_next.calls": ("count", "lower"),
    "bo.propose_next.self_s": ("s", "lower"),
    "bo.propose_next.p50_ms": ("ms", "lower"),
    "bo.improve_frac": ("ratio", "higher"),
    "placement.objective.calls": ("count", "lower"),
    "placement.objective.self_s": ("s", "lower"),
    "placement.objective.p50_ms": ("ms", "lower"),
    "placement.objective.p90_ms": ("ms", "lower"),
    "placement.obs_cache.hit_frac": ("ratio", "higher"),
    "dispersion.simulate_ensemble.calls": ("count", "lower"),
    "dispersion.simulate_ensemble.self_s": ("s", "lower"),
    "dispersion.log_concentrations_at.calls": ("count", "lower"),
    "dispersion.log_concentrations_at.self_s": ("s", "lower"),
    "dispersion.simulate_observations.calls": ("count", "lower"),
    "dispersion.simulate_observations.self_s": ("s", "lower"),
    "cca.first_canonical.calls": ("count", "lower"),
    "cca.first_canonical.self_s": ("s", "lower"),
    "mi.ksg_mi.calls": ("count", "lower"),
    "mi.ksg_mi.self_s": ("s", "lower"),
    "mi.ksg_mi.p50_ms": ("ms", "lower"),
    "mi.knn_entropy.calls": ("count", "lower"),
    "mi.knn_entropy.self_s": ("s", "lower"),
    "mi.knn_entropy.p50_ms": ("ms", "lower"),
    "enkf.assimilate_run.calls": ("count", "lower"),
    "enkf.assimilate_run.p50_ms": ("ms", "lower"),
    "enkf.assimilate_run.p90_ms": ("ms", "lower"),
    "enkf.forecast.calls": ("count", "lower"),
    "enkf.forecast.self_s": ("s", "lower"),
    "enkf.analysis.calls": ("count", "lower"),
    "enkf.analysis.self_s": ("s", "lower"),
    "enkf.analysis.failed": ("count", "lower"),
    "enkf.release_outside_frac": ("ratio", "lower"),
    "evaluate.compare_placements.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Per-layer metric -> (end-to-end metric it should move, workloads where it
# does). Every layer's time feeds run_cal, since one caller runs serially.
MAPPING = {
    "gp.fit.*": ("run_cal", ["place-bo"]),
    "gp.predict.*": ("run_cal", ["place-bo"]),
    "bo.propose_next.*": ("run_cal", ["place-bo"]),
    "bo.improve_frac": ("run_cal", ["place-bo"]),
    "placement.objective.*": ("run_cal", ["grid-surface", "place-bo"]),
    "placement.obs_cache.hit_frac": ("run_cal", ["grid-surface"]),
    "dispersion.simulate_ensemble.*": ("run_cal", ["grid-surface", "place-bo"]),
    "dispersion.log_concentrations_at.*": ("run_cal", ["compare"]),
    "dispersion.simulate_observations.*": ("run_cal", ["compare"]),
    "cca.first_canonical.*": ("run_cal", ["grid-surface", "place-bo"]),
    "mi.ksg_mi.*": ("run_cal", ["grid-surface", "place-bo"]),
    "mi.knn_entropy.*": ("run_cal", ["compare"]),
    "enkf.assimilate_run.*": ("run_cal", ["compare"]),
    "enkf.forecast.*": ("run_cal", ["compare"]),
    "enkf.analysis.*": ("run_cal", ["compare"]),
    "enkf.release_outside_frac": ("entropy_reduction_nats", ["compare"]),
    "evaluate.compare_placements.self_s": ("run_cal", ["compare"]),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _ms(durations, q) -> float:
    if not durations:
        return 0.0
    return 1e3 * float(np.percentile(durations, q))


def improve_frac(result, init_count: int) -> float:
    """Share of EI proposals that raised the incumbent, over all BO steps."""
    improved = proposals = 0
    for trace in getattr(result, "traces", []):
        if not isinstance(trace, bo.BoTrace):
            continue
        values = trace.values
        for i in range(init_count, len(values)):
            proposals += 1
            improved += int(values[i] > values[:i].max())
    return _ratio(improved, proposals)


def per_layer(tracers, result, cfg, run_s: float, traced_run_s: float) -> dict:
    """Per-layer metrics from the traced calls of one workload.

    Counts come from the last traced call (repeats of one seed do the same
    work); self times are medians over traced calls; percentiles pool the
    span durations of all traced calls.
    """
    aggs = [t.by_name() for t in tracers]
    last, counts = aggs[-1], tracers[-1].counts

    def calls(name):
        return last.get(name, {}).get("calls", 0)

    def self_s(name):
        return statistics.median(a.get(name, {}).get("self_s", 0.0) for a in aggs)

    def durations(name):
        return [d for a in aggs for d in a.get(name, {}).get("durations_s", [])]

    last_tracer = tracers[-1]
    misses = sum(
        1
        for s in last_tracer.spans
        if s.name == "dispersion.simulate_ensemble"
        and s.parent >= 0
        and last_tracer.spans[s.parent].name == "placement.trajectories"
    )
    out = {}
    for name, _, _ in SPANNED:
        spans = durations(name)
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.failed"] = last.get(name, {}).get("failed", 0)
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.p50_ms"] = _ms(spans, 50)
        out[f"{name}.p90_ms"] = _ms(spans, 90)
    out["gp.fit.loglik_evals_per_fit"] = _ratio(counts["gp.cho_factor.calls"], calls("gp.fit"))
    out["gp.fit.loglik_failed_frac"] = _ratio(
        counts["gp.cho_factor.failed"], counts["gp.cho_factor.calls"]
    )
    out["bo.improve_frac"] = improve_frac(result, cfg.bo_init)
    trajectories = calls("placement.trajectories")
    out["placement.obs_cache.hit_frac"] = _ratio(trajectories - misses, trajectories)
    out["enkf.release_outside_frac"] = _ratio(counts["release.outside"], counts["release.members"])
    out["trace.run_s"] = traced_run_s
    out["trace.overhead_frac"] = traced_run_s / run_s - 1.0
    return {name: out[name] for name in PER_LAYER}
