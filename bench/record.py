#!/usr/bin/env python3
"""Collect benchmark records and compare two of them.

    python3 bench/record.py collect --seconds 30 --out RECORD.json [--seeds 0 1]
    python3 bench/record.py compare OLD.json NEW.json

`collect` runs bench/run.py once untraced and once traced per workload
and seed, each in its own process, and writes one record: the
environment stamp, every run's raw output, per-workload medians of the
end-to-end metrics, each layer's share of the traced call time, and the
metric definitions with the layer-to-end-to-end mapping.

`compare` prints old and new medians per workload and metric, and
refuses (exit 2) when a workload's sizes differ between the records.

Seed 0 is the default seed; seed 1 is held out for checking claims made
while tuning on seed 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def _run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"record: {workload} seed={seed} printed no result:\n{done.stderr}")
    return {"exit": done.returncode, **json.loads(lines[-2]), "result": json.loads(lines[-1])}


def _summary(runs: list[dict]) -> dict:
    """Medians over seeds; layer shares of the traced call time."""
    def median_of(trace: int, name: str):
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if r["record"]["trace"] == trace and name in r["result"]["metrics"]]
        return statistics.median(values) if values else None

    import layers

    e2e = {name: median_of(0, name) for name in run.END_TO_END}
    wall = [statistics.median(r["record"]["run_s"]) for r in runs
            if r["record"]["trace"] == 0 and r["record"]["run_s"]]
    layer = {name: median_of(1, name) for name in layers.PER_LAYER}
    traced = layer["trace.run_s"]
    shares = {
        name[: -len(".self_s")]: value / traced
        for name, value in layer.items()
        if name.endswith(".self_s") and traced and value
    }
    return {
        "end_to_end": e2e,
        "wall_run_s": statistics.median(wall) if wall else None,
        "per_layer": layer,
        "self_time_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "all_correct": all(r["result"]["correct"] and r["exit"] == 0 for r in runs),
    }


def collect(seeds: list[int], seconds: float) -> dict:
    run.import_library()
    import layers
    import workloads

    out = {
        "stamp": None,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED, "run": seeds},
        "seconds": seconds,
        "metrics": {
            "end_to_end": {k: {"unit": u, "better": b} for k, (u, b) in run.END_TO_END.items()},
            "per_layer": {k: {"unit": u, "better": b} for k, (u, b) in layers.PER_LAYER.items()},
        },
        "mapping": {k: {"end_to_end": e, "workloads": w} for k, (e, w) in layers.MAPPING.items()},
        "workloads": {},
    }
    for name, workload in workloads.WORKLOADS.items():
        runs = []
        for seed in seeds:
            for trace in (0, 1):
                runs.append(_run_once(name, seed, seconds, trace))
                print(f"{name} seed={seed} trace={trace}: correct="
                      f"{runs[-1]['result']['correct']}", file=sys.stderr)
        stamp = dict(runs[0]["record"]["stamp"])
        sizes = stamp.pop("sizes")
        out["stamp"] = out["stamp"] or stamp
        out["workloads"][name] = {"why": workload.why, "sizes": sizes, "summary": _summary(runs),
                                  "runs": runs}
    return out


def compare(old: dict, new: dict) -> int:
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        a, b = old["workloads"][name], new["workloads"][name]
        if a["sizes"] != b["sizes"]:
            print(f"record: refusing to compare {name}: sizes differ\n  old {a['sizes']}\n"
                  f"  new {b['sizes']}", file=sys.stderr)
            return 2
    for key in sorted(set(old["stamp"]) | set(new["stamp"])):
        if key != "commit" and old["stamp"].get(key) != new["stamp"].get(key):
            print(f"note: environment differs in {key}: {old['stamp'].get(key)} -> "
                  f"{new['stamp'].get(key)}")
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        for metric in run.END_TO_END:
            x = old["workloads"][name]["summary"]["end_to_end"].get(metric)
            y = new["workloads"][name]["summary"]["end_to_end"].get(metric)
            change = f"{y / x - 1:+.1%}" if x and y is not None else "n/a"
            print(f"{name:13s} {metric:24s} {x!s:>22} -> {y!s:<22} {change}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("--seeds", type=int, nargs="+", default=[DEFAULT_SEED, HELD_OUT_SEED])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("compare")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "collect":
        record = collect(args.seeds, args.seconds)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        return 0 if all(w["summary"]["all_correct"] for w in record["workloads"].values()) else 1
    return compare(json.loads(args.old.read_text()), json.loads(args.new.read_text()))


if __name__ == "__main__":
    sys.exit(main())
