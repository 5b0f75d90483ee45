"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from plumeplace import bo, gp, placement as pl
from plumeplace.cca import mi_lower_bound
from plumeplace.cli import main as cli_main
from plumeplace.config import ExperimentConfig, save_config
from plumeplace.enkf import AugmentedEnsemble, analysis, draw_perturbations
from plumeplace.evaluate import compare_placements, random_placements
from plumeplace.mi import KnnConfig, ksg_mi

from oracles import dense_gp_predict, quad_expected_improvement


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status}: {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_ksg_calibration():
    t0 = time.monotonic()
    cfg = KnnConfig(k=6)
    worst = 0.0
    for rho in (0.3, 0.5, 0.7, 0.9):
        truth = -0.5 * np.log(1 - rho**2)
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = rng.multivariate_normal([0, 0], [[1, rho], [rho, 1]], size=2000)
            errs.append(abs(ksg_mi(z[:, 0], z[:, 1], cfg) - truth))
        worst = max(worst, float(np.mean(errs)))
    elapsed = time.monotonic() - t0
    ok = worst < 0.05 and elapsed < 30
    assert report(
        1, ok, f"KSG calibration worst mean|err|={worst:.4f} (<0.05), {elapsed:.1f}s (<30s)"
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_dpi_lower_bound():
    t0 = time.monotonic()
    lbs, fulls = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(2000)
        noise = rng.standard_normal((2000, 3)) @ np.diag([0.7, 1.0, 1.3])
        d = np.column_stack([q, 0.8 * q, -0.5 * q]) + noise
        lbs.append(mi_lower_bound(q, d))
        fulls.append(ksg_mi(q, d))
    dpi_ok = np.mean(lbs) <= np.mean(fulls) + 2 * np.std(fulls)

    pair_lb, pair_full = [], []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        z = rng.multivariate_normal([0, 0], [[1, 0.7], [0.7, 1]], size=2000)
        pair_lb.append(mi_lower_bound(z[:, 0], z[:, 1]))
        pair_full.append(ksg_mi(z[:, 0], z[:, 1]))
    gap = abs(np.mean(pair_lb) - np.mean(pair_full))
    analytic_gap = abs(np.mean(pair_lb) - (-0.5 * np.log(0.51)))
    eq_ok = gap < 0.08 and analytic_gap < 0.08
    elapsed = time.monotonic() - t0
    ok = dpi_ok and eq_ok and elapsed < 60
    assert report(
        2,
        ok,
        f"DPI mean(lb)={np.mean(lbs):.3f} vs mean(full)+2sd={np.mean(fulls) + 2 * np.std(fulls):.3f}; "
        f"1Dx1D gap={gap:.4f} (<0.08), {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_gp_and_ei_correctness():
    t0 = time.monotonic()
    rel_err = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3, 3, (30, 2))
        f = np.sin(x[:, 0]) + 0.2 * x[:, 1] ** 2
        g = gp.GpSurrogate(
            train_x=x,
            train_f=f,
            lengthscales=rng.uniform(0.5, 3.0, 2),
            signal_var=float(rng.uniform(0.5, 2.0)),
            noise_var=1e-4,
            mean_offset=float(f.mean()),
        )
        x_new = rng.uniform(-3, 3, (50, 2))
        mean, var = gp.predict(g, x_new)
        mean_o, var_o = dense_gp_predict(
            x, f, g.lengthscales, g.signal_var, g.noise_var, g.mean_offset, x_new
        )
        rel_err = max(
            rel_err,
            float(np.max(np.abs(mean - mean_o) / np.maximum(np.abs(mean_o), 1e-12))),
            float(np.max(np.abs(var - var_o) / np.maximum(np.abs(var_o), 1e-12))),
        )
    gp_ok = rel_err < 1e-8

    ei_err = 0.0
    for mu, sigma, f_best in ((1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (-0.4, 2.3, 0.7)):
        closed = bo.expected_improvement(mu, sigma, f_best)
        oracle = quad_expected_improvement(mu, sigma, f_best)
        ei_err = max(ei_err, abs(closed - oracle))
    ei_ok = ei_err < 1e-10
    elapsed = time.monotonic() - t0
    ok = gp_ok and ei_ok and elapsed < 30
    assert report(
        3,
        ok,
        f"GP vs dense oracle rel err={rel_err:.2e} (<1e-8); EI vs quadrature err={ei_err:.2e} (<1e-10); "
        f"{elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_bo_quality():
    t0 = time.monotonic()

    grid1 = np.linspace(0.0, 4.0, 10_000)
    target1 = float(np.max(np.sin(3 * grid1) + grid1))
    hits1 = 0
    for seed in range(20):
        cfg = bo.BoConfig(domain=[[0.0, 4.0]], init_count=10, iter_count=30)
        trace = bo.maximize(lambda p: np.sin(3 * p[0]) + p[0], cfg, seed)
        hits1 += trace.values.max() >= 0.99 * target1

    center = np.array([2.5, 7.0])
    diag2 = 200.0
    gx, gy = np.meshgrid(np.linspace(0, 10, 100), np.linspace(0, 10, 100))
    target2 = float(np.max(1.0 - ((gx - center[0]) ** 2 + (gy - center[1]) ** 2) / diag2))
    hits2 = 0
    for seed in range(20):
        cfg = bo.BoConfig(domain=[[0.0, 10.0], [0.0, 10.0]], init_count=10, iter_count=30)
        trace = bo.maximize(lambda p: 1.0 - np.sum((p - center) ** 2) / diag2, cfg, seed)
        hits2 += trace.values.max() >= 0.99 * target2

    elapsed = time.monotonic() - t0
    ok = hits1 >= 18 and hits2 >= 18 and elapsed < 60
    assert report(
        4,
        ok,
        f"BO quality 1D multimodal {hits1}/20, 2D quadratic {hits2}/20 (each >=18); "
        f"{elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_enkf_linear_gaussian_oracle():
    t0 = time.monotonic()
    n = 10_000
    prior_mean, prior_var = 2.0, 4.0
    noise_var = 0.25
    obs_value = 3.1
    rng = np.random.default_rng(321)
    theta = rng.normal(prior_mean, np.sqrt(prior_var), n)
    members = np.column_stack([theta, np.zeros(n), theta])
    cfg = replace(
        ExperimentConfig().with_profile("desk"), noise_mean=0.0, noise_std=np.sqrt(noise_var)
    )
    ens = AugmentedEnsemble(cfg, np.array([[0.0, 0.0]]), members)
    out = analysis(ens, np.array([obs_value]), *draw_perturbations(cfg, 11, n, 1))

    gain = prior_var / (prior_var + noise_var)
    post_mean = prior_mean + gain * (obs_value - prior_mean)
    post_var = (1 - gain) * prior_var
    mean_err = abs(out.members[:, 0].mean() - post_mean) / abs(post_mean)
    var_err = abs(out.members[:, 0].var(ddof=1) - post_var) / post_var
    elapsed = time.monotonic() - t0
    ok = mean_err < 0.03 and var_err < 0.03 and elapsed < 30
    assert report(
        5,
        ok,
        f"EnKF toy posterior mean err={mean_err:.3%}, var err={var_err:.3%} (<3%); "
        f"{elapsed:.1f}s (<30s)",
    )


# ------------------------------------------------------- criteria 6 and 7


@pytest.fixture(scope="module")
def desk_pipeline():
    cfg = ExperimentConfig(seed=0).with_profile("desk")
    ens = pl.build_ensemble(cfg, cfg.placement_members, cfg.seed)
    t0 = time.monotonic()
    greedy = pl.greedy_place(ens, cfg.n_sensors, cfg.bo_config(), cfg.min_sep_m)
    greedy_seconds = time.monotonic() - t0
    return cfg, ens, greedy, greedy_seconds


def test_criterion_6_placement_parity(desk_pipeline):
    cfg, ens, greedy, greedy_seconds = desk_pipeline
    t0 = time.monotonic()
    grid = pl.GridSpec(nx=cfg.grid_nx, ny=cfg.grid_ny, domain=cfg.domain_m())
    nodes = grid.nodes()
    assert len(nodes) == 231

    ratios = []
    for step in range(cfg.n_sensors):
        prefix = greedy.locations[:step]
        grid_max = max(pl.objective(ens, prefix, node) for node in nodes)
        ratios.append(greedy.bound_values[step] / grid_max)
    parity_ok = all(r >= 0.9 for r in ratios)

    evals_ok = all(len(t.values) == cfg.bo_init + cfg.bo_iters == 40 for t in greedy.traces)
    downwind_ok = all(x > 0 for x, _ in greedy.locations)
    elapsed = greedy_seconds + (time.monotonic() - t0)
    ok = parity_ok and evals_ok and downwind_ok and elapsed < 900
    assert report(
        6,
        ok,
        f"BO/grid per-step ratios {[f'{r:.2f}' for r in ratios]} (>=0.9), "
        f"40 BO evals vs 231 grid per step, all sensors downwind (x>0); "
        f"{elapsed:.1f}s (<900s)",
    )


def test_criterion_7_end_to_end_entropy_reduction(desk_pipeline):
    cfg, _, greedy, _ = desk_pipeline
    t0 = time.monotonic()
    named = {"mi-bo": greedy.locations}
    named.update(random_placements(cfg, 10, cfg.seed))
    rep = compare_placements(cfg, named, n_conditions=10, seed=cfg.seed)

    prior = rep.prior_entropy[0]
    final = rep.final_release_entropy("mi-bo")
    random_finals = [rep.final_release_entropy(n) for n in named if n.startswith("random")]
    reduction = prior - final
    median_random = float(np.median(random_finals))
    elapsed = time.monotonic() - t0
    ok = reduction >= 1.0 and final < median_random and elapsed < 1800
    assert report(
        7,
        ok,
        f"entropy reduction {reduction:.2f} nats (>=1.0), final {final:.2f} < "
        f"random median {median_random:.2f}; {elapsed:.1f}s (<1800s)",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        placement_members=60,
        enkf_members=80,
        n_steps=5,
        bo_init=4,
        bo_iters=3,
        bo_candidates=64,
        grid_nx=5,
        grid_ny=7,
        n_sensors=2,
    )
    cfg_path = tmp_path / "config.json"
    save_config(cfg, cfg_path)

    def byte_identical(name, base_argv, out_flags):
        """Run the command twice into fresh files; compare all outputs."""
        produced = []
        for tag in ("a", "b"):
            argv = list(base_argv)
            outs = []
            for flag in out_flags:
                path = tmp_path / f"{name}-{tag}-{flag.strip('-')}"
                argv.extend([flag, str(path)])
                outs.append(path)
            assert cli_main(argv) == 0, f"{name} run {tag} failed"
            produced.append(outs)
        return all(a.read_bytes() == b.read_bytes() for a, b in zip(*produced))

    base = ["--config", str(cfg_path)]
    results = {
        "place": byte_identical("place", ["place", *base], ["--out", "--traces-csv"]),
        "grid-surface": byte_identical(
            "grid", ["grid-surface", *base, "--steps", "1"], ["--out"]
        ),
    }
    placement_path = tmp_path / "place-a-out"
    results["assimilate"] = byte_identical(
        "assim",
        [
            "assimilate", *base,
            "--placement", str(placement_path),
            "--truth-release-km", "-1.0",
            "--truth-wind-deg", "0.5",
        ],
        ["--out", "--summary"],
    )
    results["compare"] = byte_identical(
        "comp",
        [
            "compare", *base,
            "--placements", str(placement_path),
            "--random", "2",
            "--conditions", "2",
        ],
        ["--out", "--traces-csv"],
    )
    elapsed = time.monotonic() - t0
    ok = all(results.values())
    assert report(8, ok, f"byte-identical reruns: {results}; {elapsed:.1f}s")
