"""Command-line front end, and the one owner of the bytes of every file
the CLI reads or writes (the config file's layout stays with `config`).

Subcommands:
    place         greedy sensor placement via Bayesian optimization
    grid-surface  exhaustive grid placement, exporting the MI surface
    compare       score placements against random ones by assimilation
    assimilate    one assimilation run with posterior trace export

All distance flags are kilometers and angles degrees, matching the
config file; outputs are meters and radians. Outputs are a pure
function of (config, flags, seeds): identical invocations write
byte-identical files. JSON files are indented by two spaces and end in
a newline; CSV floats are written as their repr, so they read back
exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import evaluate, placement as pl
from .bo import ObjectiveError
from .config import PROFILES, ExperimentConfig, check_count, check_pair, check_real, load_config
from .enkf import assimilate_run
from .mi import knn_entropy


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """numpy floats become plain floats, which csv writes as their repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([float(c) if isinstance(c, float) else c for c in row] for row in rows)


def _write_placement(path, method: str, result: pl.PlacementResult, cfg: ExperimentConfig) -> None:
    _write_json(
        path,
        {
            "method": method,
            "locations_m": [list(loc) for loc in result.locations],
            "bound_values_nats": list(result.bound_values),
            "seed": cfg.seed,
            "config_digest": cfg.digest(),
        },
    )


def load_placement(path) -> tuple[str, list[tuple[float, float]]]:
    """The method and the locations of a placement file. The file must be
    JSON, with pairs of finite numbers as locations, finite numbers as
    bound values, an integer seed >= 0 and a string method; anything
    else raises a ValueError that names the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        locations = [check_pair(loc, "locations_m") for loc in doc["locations_m"]]
        for value in doc["bound_values_nats"]:
            check_real(value, "bound_values_nats")
        check_count(doc.get("seed", 0), "seed", 0, None)
        method = doc.get("method", "")
        if not isinstance(method, str):
            raise ValueError(f"'method' must be a string, got {method!r}")
        return method, locations
    except KeyError as exc:
        raise ValueError(f"placement file {path} is missing required key: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"placement file {path} is malformed: {exc}") from exc


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
    _write_placement(args.out, "bo", result, cfg)
    if args.traces_csv:
        _write_csv(
            args.traces_csv,
            ["step", "iteration", "x_m", "y_m", "objective", "incumbent"],
            (
                [step, i, x, y, value, best]
                for step, trace in enumerate(result.traces, start=1)
                for i, ((x, y), value, best) in enumerate(
                    zip(trace.points, trace.values, np.maximum.accumulate(trace.values))
                )
            ),
        )
    return 0


def _cmd_grid_surface(args) -> int:
    cfg = _load(args)
    grid = pl.GridSpec(nx=cfg.grid_nx, ny=cfg.grid_ny, domain=cfg.domain_m())
    if args.steps is None:
        cfg.check_grid_sensors()
    else:
        check_count(args.steps, "--steps", 1, grid.nx * grid.ny)
    ens = pl.build_ensemble(cfg, cfg.placement_members, cfg.seed)
    result = pl.grid_place(ens, cfg.n_sensors if args.steps is None else args.steps, grid)
    _write_csv(
        args.out,
        ["x_m", "y_m", "step", "mi_nats"],
        (
            [x, y, step, value]
            for step, surface in enumerate(result.traces, start=1)
            for x, y, value in surface
        ),
    )
    if args.placement_out:
        _write_placement(args.placement_out, "grid", result, cfg)
    return 0


def _cmd_compare(args) -> int:
    cfg = _load(args)
    named = {}
    for path in args.placements:
        method, locations = load_placement(path)
        name = method or "placement"
        key = name
        suffix = 1
        while key in named:
            key = f"{name}-{suffix}"
            suffix += 1
        named[key] = locations
    named.update(evaluate.random_placements(cfg, args.random, cfg.seed))
    report = evaluate.compare_placements(cfg, named, args.conditions, cfg.seed)
    columns = evaluate.ENTROPY_COLUMNS
    _write_json(
        args.out,
        {
            "prior_entropy": dict(zip(columns, report.prior_entropy)),
            "conditions": [
                {"release_y_m": release_y, "wind_dir_rad": wind_dir}
                for release_y, wind_dir in report.conditions.tolist()
            ],
            "placements": {
                name: {
                    "locations_m": [list(loc) for loc in locs],
                    "final_conditional_entropy": dict(
                        zip(columns, report.conditional(name)[-1])
                    ),
                }
                for name, locs in report.placements.items()
            },
            "ranking": report.ranking(),
        },
    )
    if args.traces_csv:
        # plot-ready long format: one row per placement, step and measure
        _write_csv(
            args.traces_csv,
            ["placement", "t_s", "measure", "conditional_entropy_nats"],
            (
                [name, t, column, entropy]
                for name in report.placements
                for t, row in zip(report.times, report.conditional(name))
                for column, entropy in zip(columns, row)
            ),
        )
    return 0


def _cmd_assimilate(args) -> int:
    cfg = _load(args)
    if args.summary:
        cfg.check_entropy_members()
    _, locations = load_placement(args.placement)
    if (args.truth_release_km is None) != (args.truth_wind_deg is None):
        raise ValueError("--truth-release-km and --truth-wind-deg must be given together")
    if args.truth_release_km is not None:
        truth = np.array([args.truth_release_km * 1000.0, np.deg2rad(args.truth_wind_deg)])
        for flag, raw, value in zip(("--truth-release-km", "--truth-wind-deg"),
                                    (args.truth_release_km, args.truth_wind_deg), truth):
            if not np.isfinite(value):
                raise ValueError(f"{flag} must be finite in meters and radians, got {raw!r}")
    else:
        truth = evaluate.draw_conditions(cfg, 1, cfg.seed)[0]
    trace = assimilate_run(cfg, locations, truth, cfg.seed)

    _write_csv(
        args.out,
        ["t_s", "member_id", "release_y_m", "wind_dir_rad"],
        (
            [t, m, release_y, wind_dir]
            for t, theta in zip(trace.times, trace.thetas)
            for m, (release_y, wind_dir) in enumerate(theta)
        ),
    )
    if args.summary:
        # one knn_entropy call per parameter, over the (n_times, n, 1) stack of steps
        thetas = np.stack(trace.thetas)
        entropies = [knn_entropy(thetas[..., col, None], cfg.knn()) for col in range(2)]
        _write_csv(
            args.summary,
            ["t_s", "parameter", "mean", "std", "entropy_nats"],
            (
                [t, name, theta[:, col].mean(), theta[:, col].std(ddof=1), entropies[col][i]]
                for i, (t, theta) in enumerate(zip(trace.times, trace.thetas))
                for col, name in enumerate(("release_y", "wind_dir"))
            ),
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
