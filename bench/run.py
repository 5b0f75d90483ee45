#!/usr/bin/env python3
"""Benchmark: time one workload through the public plumeplace API.

    python3 bench/run.py --workload {place-bo,grid-surface,compare} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its
`src/`. One caller in one process (a closed loop), PLUMEPLACE_WORKERS
removed from the environment so `compare` runs on 1 worker, BLAS
threads at their default. Inputs come from the seed only.

Each run repeats the call until `--seconds` is spent, at least once.
Every call gets fresh inputs, so caches start empty, as in a CLI call.
Every call's output goes through the workload's correctness gate and
must repeat the first call's output exactly.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
interpreters that import the library and build the inputs), run_cal
(median over calls of the call's wall time divided by that of a fixed
calibration kernel run next to it), peak_rss_mb, and the science
numbers bound_final_nats and entropy_reduction_nats. The raw wall
times are in the record line. --trace 1 alternates untraced and traced
calls and reports the per-layer metrics.

Output: human-readable lines, one `{"record": ...}` line with the
environment stamp and raw samples, and as the last line
`{"correct", "attempted", "failed", "metrics"}`. Exit code 1 if the
gate fails or the library cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CALIBRATION_REPEATS = 3  # kernel runs on each side of a call; one varies by +-30 %
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.setup(sys.argv[3], int(sys.argv[4]))"
)

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_cal": ("cal", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "bound_final_nats": ("nats", "higher"),
    "entropy_reduction_nats": ("nats", "higher"),
}


def import_library():
    """Import plumeplace from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import plumeplace
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import plumeplace from {SRC}: {exc}")
    if Path(plumeplace.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: plumeplace imported from {plumeplace.__file__}, not {SRC}")


def _blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS, as the library reports it."""
    import numpy
    import scipy

    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    out = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for sym in symbols:
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    out[f"{mod.__name__}:{sym}"] = fn()
                    break
    return out


def _commit() -> str | None:
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(sizes: dict, workers_env: str | None) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        # removed from the environment for the run, so compare uses 1 worker
        "PLUMEPLACE_WORKERS": {"in_environment": workers_env, "in_run": None},
        "sizes": sizes,
    }


def setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import and build the inputs."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), workload,
                        str(seed)], cwd=ROOT, check=True, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


class Gate:
    """Correctness of every call: raises, gate problems, repeat mismatches."""

    def __init__(self, workload, cfg):
        self.workload, self.cfg = workload, cfg
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def judge(self, result, error) -> bool:
        ops = self.workload.operations(self.cfg)
        self.attempted += ops
        if error is not None:
            problems = [f"call raised {type(error).__name__}: {error}"]
        else:
            problems = self.workload.check(self.cfg, result)
            fingerprint = self.workload.fingerprint(result)
            if self.reference is None:
                self.reference = fingerprint
            elif fingerprint != self.reference:
                problems.append("repeat of the same seed gave different outputs")
        if problems:
            self.failed += ops
            self.problems.extend(problems)
        return not problems


def timed_call(workload, cfg, tracer=None):
    """(seconds, result, error) of one call on fresh inputs."""
    import layers

    inputs = workload.prepare(cfg)
    patches = tracer.patched(layers.targets(tracer, cfg)) if tracer else nullcontext()
    try:
        with patches:
            t0 = time.perf_counter()
            result = workload.call(cfg, *inputs)
            elapsed = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - counted as failed operations
        return 0.0, None, exc
    return elapsed, result, None


def calibrate() -> float:
    """Wall time of a fixed kernel that never touches plumeplace.

    On a shared 2-core virtual machine, speed can swing by up to 70 % for
    a minute or more at a time, so each call's wall time is divided by the
    median of this kernel's runs right before and after the call. The
    kernel mixes what the workloads spend their time in: interpreted
    Python, k-d tree queries, small Cholesky factorisations and a product
    large enough for BLAS threads.
    """
    rng = np.random.default_rng(0)
    points = rng.standard_normal((500, 2))
    wide = rng.standard_normal((2048, 40))
    spd = wide.T @ wide
    t0 = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    for _ in range(80):
        cKDTree(points).query(points, k=7, p=np.inf)
        np.linalg.cholesky(spd)
        np.sort(points[:, 0])
    for _ in range(20):
        wide @ spd
    return time.perf_counter() - t0


def measure(workload, cfg, seconds: float, trace: bool) -> dict:
    """Calls on fresh inputs until the budget is spent. Untraced runs put
    a calibration between calls; traced runs follow each untraced call by
    a traced one. The first call's output is the reference every repeat
    must match."""
    deadline = time.perf_counter() + seconds
    gate = Gate(workload, cfg)
    out = {"gate": gate, "first": None, "untraced": [], "calibration": [], "relative": [],
           "traced": [], "tracers": []}
    cal = out["calibration"]
    if not trace:
        calibrate()  # the first runs in a process are up to 2.5x slower
        cal.append([calibrate() for _ in range(CALIBRATION_REPEATS)])
    # a traced call is a little slower than an untraced one
    per_round = 2.2 if trace else 1.0
    while not out["untraced"] or (
        time.perf_counter() + per_round * statistics.median(out["untraced"]) <= deadline
    ):
        elapsed, result, error = timed_call(workload, cfg)
        if not gate.judge(result, error):
            break
        if out["first"] is None:
            out["first"] = result
        out["untraced"].append(elapsed)
        if not trace:
            cal.append([calibrate() for _ in range(CALIBRATION_REPEATS)])
            out["relative"].append(elapsed / statistics.median(cal[-2] + cal[-1]))
            continue
        tracer = Tracer()
        elapsed, result, error = timed_call(workload, cfg, tracer)
        if not gate.judge(result, error):
            break
        out["traced"].append(elapsed)
        out["tracers"].append(tracer)
    return out


def run_workload(workload, cfg, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS,
                 workers_env: str | None = None) -> tuple[dict, dict]:
    """(result, record): the result object the benchmark prints last, and
    the stamped record of raw samples."""
    import layers
    import workloads

    setup = [] if trace else setup_seconds(workload.name, cfg.seed, setup_repeats)
    run = measure(workload, cfg, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate = run["gate"]
    science = {}
    if not gate.failed and not trace:
        science = workloads.science(cfg, workload.placed(run["first"]))
        if not all(math.isfinite(v) for v in science.values()):
            gate.failed += workload.operations(cfg)
            gate.problems.append(f"non-finite science numbers {science}")

    metrics = {}
    if not gate.failed:
        if trace:
            values = layers.per_layer(run["tracers"], run["first"], cfg,
                                      statistics.median(run["untraced"]),
                                      statistics.median(run["traced"]))
            units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
        else:
            values = {
                "setup_s": statistics.median(setup),
                "run_cal": statistics.median(run["relative"]),
                "peak_rss_mb": peak_rss_mb,
                **science,
            }
            units = {k: unit for k, (unit, _) in END_TO_END.items()}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    result = {
        "correct": not gate.failed,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    record = {
        "stamp": stamp(workloads.sizes(cfg, workload), workers_env),
        "seed": cfg.seed,
        "trace": int(trace),
        "setup_s": setup,
        "run_s": run["untraced"],
        "calibration_s": run["calibration"],
        "traced_run_s": run["traced"],
        "tracers": run["tracers"],
        "science": science,
        "problems": gate.problems,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workers_env = os.environ.pop("PLUMEPLACE_WORKERS", None)
    workload = workloads.WORKLOADS[args.workload]
    result, record = run_workload(workload, workloads.desk_config(args.seed), args.seconds,
                                  bool(args.trace), workers_env=workers_env)

    label = f"{workload.name} seed={args.seed}"
    for problem in record["problems"]:
        print(f"FAIL {label}: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{label} {name} = {m['value']:.6g} {m['unit']}")
    if record["run_s"]:
        print(f"{label} run_s = {statistics.median(record['run_s']):.6g} s (wall, median of "
              f"{len(record['run_s'])} calls)")
    del record["tracers"]
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
