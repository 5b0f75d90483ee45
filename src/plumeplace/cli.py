"""Command-line front end.

Subcommands:
    place         greedy sensor placement via Bayesian optimization
    grid-surface  exhaustive grid placement, exporting the MI surface
    compare       score placements against random ones by assimilation
    assimilate    one assimilation run with posterior trace export

All distance flags are kilometers and angles degrees, matching the
config file; outputs are meters and radians. Outputs are a pure
function of (config, flags, seeds): identical invocations write
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from . import evaluate, placement as pl
from .bo import ObjectiveError
from .config import PROFILES, ExperimentConfig, load_config
from .dispersion import ScenarioParams
from .enkf import assimilate_run
from .mi import knn_entropy


def _add_common(parser):
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--profile", choices=PROFILES, default="full")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config).with_profile(args.profile)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _cmd_place(args) -> int:
    cfg = _load(args)
    ens = pl.build_ensemble(cfg, cfg.placement_members, cfg.seed)
    result = pl.greedy_place(ens, cfg.n_sensors, cfg.bo_config(), cfg.min_sep_m)
    result.config_digest = cfg.digest()
    result.write_json(args.out)
    if args.traces_csv:
        with open(args.traces_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "iteration", "x_m", "y_m", "objective", "incumbent"])
            for step, trace in enumerate(result.traces, start=1):
                best = -np.inf
                for i, (p, v) in enumerate(zip(trace.points, trace.values)):
                    best = max(best, float(v))
                    writer.writerow(
                        [step, i, repr(float(p[0])), repr(float(p[1])), repr(float(v)), repr(best)]
                    )
    return 0


def _cmd_grid_surface(args) -> int:
    cfg = _load(args)
    ens = pl.build_ensemble(cfg, cfg.placement_members, cfg.seed)
    grid = pl.GridSpec(nx=cfg.grid_nx, ny=cfg.grid_ny, domain=cfg.domain_m())
    result = pl.grid_place(ens, cfg.n_sensors if args.steps is None else args.steps, grid)
    result.config_digest = cfg.digest()
    pl.write_surface_csv(result, args.out)
    if args.placement_out:
        result.write_json(args.placement_out)
    return 0


def _cmd_compare(args) -> int:
    cfg = _load(args)
    named = {}
    for path in args.placements:
        result = pl.load_placement(path)
        name = result.method or "placement"
        key = name
        suffix = 1
        while key in named:
            key = f"{name}-{suffix}"
            suffix += 1
        named[key] = result.locations
    named.update(evaluate.random_placements(cfg, args.random, cfg.seed))
    report = evaluate.compare_placements(cfg, named, args.conditions, cfg.seed)
    report.write_json(args.out)
    if args.traces_csv:
        report.write_traces_csv(args.traces_csv)
    return 0


def _cmd_assimilate(args) -> int:
    cfg = _load(args)
    result = pl.load_placement(args.placement)
    if (args.truth_release_km is None) != (args.truth_wind_deg is None):
        raise ValueError("--truth-release-km and --truth-wind-deg must be given together")
    if args.truth_release_km is not None:
        truth = ScenarioParams(
            release_y=args.truth_release_km * 1000.0,
            wind_dir=np.deg2rad(args.truth_wind_deg),
        )
    else:
        truth = evaluate.draw_conditions(cfg, 1, cfg.seed)[0]
    trace = assimilate_run(cfg, result.locations, truth, cfg.seed)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "member_id", "release_y_m", "wind_dir_rad"])
        for t, theta in zip(trace.times, trace.thetas):
            for m, row in enumerate(theta):
                writer.writerow([repr(float(t)), m, repr(float(row[0])), repr(float(row[1]))])
    if args.summary:
        knn = cfg.knn()
        with open(args.summary, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_s", "parameter", "mean", "std", "entropy_nats"])
            for t, theta in zip(trace.times, trace.thetas):
                for col, name in ((0, "release_y"), (1, "wind_dir")):
                    writer.writerow(
                        [
                            repr(float(t)),
                            name,
                            repr(float(theta[:, col].mean())),
                            repr(float(theta[:, col].std(ddof=1))),
                            repr(knn_entropy(theta[:, col], knn)),
                        ]
                    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumeplace",
        description="Information-driven sensor placement and assimilation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="greedy placement by Bayesian optimization")
    _add_common(p)
    p.add_argument("--out", required=True, help="PlacementResult JSON path")
    p.add_argument("--traces-csv", default=None, help="per-step BO trace CSV")
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("grid-surface", help="grid placement with MI surface export")
    _add_common(p)
    p.add_argument("--out", required=True, help="surface CSV path")
    p.add_argument("--steps", type=int, default=None, help="greedy steps (default: n_sensors)")
    p.add_argument("--placement-out", default=None, help="also write the grid PlacementResult")
    p.set_defaults(func=_cmd_grid_surface)

    p = sub.add_parser("compare", help="rank placements by conditional entropy")
    _add_common(p)
    p.add_argument("--placements", nargs="+", required=True, help="PlacementResult JSON files")
    p.add_argument("--random", type=int, default=10, help="number of random placements to add")
    p.add_argument("--conditions", type=int, default=10, help="number of initial conditions")
    p.add_argument("--out", required=True, help="EvaluationReport JSON path")
    p.add_argument("--traces-csv", default=None, help="entropy trace CSV")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("assimilate", help="single assimilation run")
    _add_common(p)
    p.add_argument("--placement", required=True, help="PlacementResult JSON")
    p.add_argument("--truth-release-km", type=float, default=None)
    p.add_argument("--truth-wind-deg", type=float, default=None)
    p.add_argument("--out", required=True, help="posterior trace CSV")
    p.add_argument("--summary", default=None, help="per-step summary CSV")
    p.set_defaults(func=_cmd_assimilate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ObjectiveError, np.linalg.LinAlgError) as exc:
        print(f"plumeplace: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
