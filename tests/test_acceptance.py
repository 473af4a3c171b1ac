"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints one ``CRITERION n: PASS/FAIL (...)`` line before asserting,
so running ``pytest tests/test_acceptance.py -v -s`` doubles as the report.
"""

import hashlib
import itertools
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import helpers
from bvrvi.geometry import (
    ENTROPY_SIMPLEX,
    EUCLIDEAN_BALL,
    EUCLIDEAN_FREE,
    BlockVector,
    GeometrySpec,
    bregman_divergence,
    dual_norm,
    fused_inertial_prox,
    primal_norm,
    uniform_start,
)
from bvrvi.harness import parse_config, run_experiment
from bvrvi.metrics import (
    duality_gap,
    scaled_norm_residual,
    theory_bounds,
)
from bvrvi.operators import (
    AffineStrongOperator,
    MatrixGameOperator,
    build_linear_rate_fixture,
    build_matrix_game,
    build_regularized_game,
    component_eval,
    estimator_delta,
    make_distribution,
    sample_batch,
)
from bvrvi.solver import (
    SolverParams,
    preset_corollary31,
    preset_example42,
    run,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_estimator_unbiasedness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 3, 4):
        for problem in (build_matrix_game(n, 11 + n), build_regularized_game(n)):
            for _ in range(20):
                z = helpers.random_feasible(problem.geometry, rng)
                dist = make_distribution(
                    problem,
                    helpers.random_feasible(problem.geometry, rng),
                    helpers.random_feasible(problem.geometry, rng),
                )
                acc = BlockVector.zeros(problem.geometry.block_dims)
                for xi in itertools.product(range(problem.n_rows),
                                            range(problem.n_cols)):
                    weight = float(dist.r[xi[0]] * dist.c[xi[1]])
                    if weight == 0.0:
                        continue
                    acc.data += weight * component_eval(problem, xi, z, dist).data
                full = problem.full(z)
                diff = max(float(np.max(np.abs(a - b)))
                           for a, b in zip(acc.blocks, full.blocks))
                worst = max(worst, diff)
    _verdict(1, worst <= 1e-12, f"max per-coordinate bias {worst:.3e} <= 1e-12")


def test_criterion_02_estimator_variance_bound():
    t0 = time.perf_counter()
    problem = build_matrix_game(8, 123)
    pair_rng = np.random.default_rng(7)
    x = helpers.random_feasible(problem.geometry, pair_rng)
    w = helpers.random_feasible(problem.geometry, pair_rng)
    dist = make_distribution(problem, x, w)
    # The solver's estimator anchored at -(F(x) - F(w)) returns the noise
    # of the sampled difference around its mean.
    minus_mean_diff = (problem.full(x) - problem.full(w)).scaled(-1.0)
    gap_sq = primal_norm(problem.geometry, x - w) ** 2
    trials = 100_000
    ok = True
    parts = []
    for b in (1, 4, 16):
        rng = np.random.default_rng(100 + b)
        total = 0.0
        total_sq = 0.0
        for _ in range(trials):
            batch = sample_batch(dist, b, rng)
            noise = estimator_delta(minus_mean_diff, problem, x, w, batch, dist)
            val = dual_norm(problem.geometry, noise) ** 2
            total += val
            total_sq += val * val
        mean = total / trials
        var = max(total_sq / trials - mean * mean, 0.0)
        se = math.sqrt(var / trials)
        bound = problem.lip_bar ** 2 / b * gap_sq
        ok = ok and mean <= bound + 5.0 * se
        parts.append(f"b={b} ratio={mean / bound:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(2, ok, ", ".join(parts) + f", {elapsed:.1f}s < 60s")


def test_criterion_03_prox_brute_force_and_inequality():
    rng = np.random.default_rng(31)
    instances = 100
    worst = 0.0
    ineq_failures = 0
    for kind in (ENTROPY_SIMPLEX, EUCLIDEAN_BALL, EUCLIDEAN_FREE):
        spec = GeometrySpec(kind, (3, 4))
        cur = [helpers.random_feasible(spec, rng) for _ in range(instances)]
        prev = [helpers.random_feasible(spec, rng) for _ in range(instances)]
        vs = [BlockVector(tuple(rng.standard_normal(d) for d in spec.block_dims))
              for _ in range(instances)]
        gammas = rng.uniform(0.05, 1.0, size=instances)
        alphas = rng.uniform(0.02, 0.8, size=instances)
        outs = [fused_inertial_prox(spec, cur[i], prev[i], float(gammas[i]),
                                    vs[i], float(alphas[i]))
                for i in range(instances)]
        err_sq = np.zeros(instances)
        for blk in range(len(spec.block_dims)):
            ref = helpers.brute_prox_oracle(
                kind,
                np.stack([c.blocks[blk] for c in cur]),
                np.stack([p.blocks[blk] for p in prev]),
                gammas,
                np.stack([v.blocks[blk] for v in vs]),
                alphas,
            )
            got = np.stack([o.blocks[blk] for o in outs])
            err_sq += np.sum((got - ref) ** 2, axis=1)
        worst = max(worst, float(np.sqrt(err_sq.max())))
        for i in range(instances):
            for _ in range(50):
                z = helpers.random_feasible(spec, rng)
                if not helpers.prox_inequality_check(spec, outs[i], z, cur[i], prev[i],
                                                     float(gammas[i]), float(alphas[i]),
                                                     vs[i], tol=1e-8):
                    ineq_failures += 1
    ok = worst <= 1e-6 and ineq_failures == 0
    _verdict(3, ok, f"max prox error {worst:.3e} <= 1e-6, "
                    f"{ineq_failures}/15000 inequality failures")


def test_criterion_04_ergodic_gap_bound_and_slope():
    rng = np.random.default_rng(0)
    payoff = rng.standard_normal((20, 20))
    payoff /= np.abs(payoff).max()
    problem = MatrixGameOperator(payoff)
    params0 = preset_corollary31(400, 2, problem.lip, problem.lip_bar, iters=8000)
    checkpoints = (500, 2000, 8000)
    gaps = {s: [] for s in checkpoints}
    for seed in range(10):
        trace = run(problem, replace(params0, seed=seed),
                    metric_fns={"gap": lambda ctx: duality_gap(problem, ctx.ergodic)},
                    log_stride=500)
        series = dict(trace.metric_series("gap"))
        for s in checkpoints:
            gaps[s].append(series[s])
    bounds = theory_bounds(params0, problem)
    assert bounds.failures == ()  # the preset's premises must hold
    coeff = bounds.ergodic_coeff
    d_max = 2.0 * math.log(20.0)
    ok = True
    parts = []
    means = []
    for s in checkpoints:
        mean = sum(gaps[s]) / len(gaps[s])
        means.append(mean)
        bound = coeff * d_max / s
        ok = ok and mean <= bound * 1.1
        parts.append(f"S={s}: {mean:.4f} <= {bound * 1.1:.4f}")
    slope = float(np.polyfit(np.log(checkpoints), np.log(means), 1)[0])
    ok = ok and -1.3 <= slope <= -0.7
    _verdict(4, ok, ", ".join(parts) + f", slope {slope:.3f} in [-1.3, -0.7]")


def test_criterion_05_linear_rate_envelopes():
    checkpoints = (500, 1500, 3000)
    ok = True
    parts = []
    for variant in ("p-lt-1", "p-eq-1"):
        problem, fp = build_linear_rate_fixture(variant)
        if variant == "p-lt-1":
            # beta is the plain strong-monotonicity growth 2*mu here, and the
            # step window (1/2 + gamma)/beta < alpha must be open.
            assert problem.beta == 2.0 * 1.17
            assert (0.5 + fp["gamma"]) / problem.beta < fp["alpha"]
        params0 = SolverParams(gamma=fp["gamma"], p=fp["p"], alpha=fp["alpha"],
                               b=fp["b"], iters=fp["iters"])
        bounds = theory_bounds(params0, problem)
        assert bounds.failures == ()  # the fixture's premises must hold
        xstar = helpers.extragradient_solve(problem)
        assert primal_norm(problem.geometry, xstar - problem.solution) <= 1e-9
        x0 = uniform_start(problem.geometry)
        d0 = bregman_divergence(problem.geometry, xstar, x0)
        envelopes = helpers.linear_rate_envelope(bounds, d0, checkpoints)
        dists = {s: [] for s in checkpoints}
        for seed in range(5):
            trace = run(problem, replace(params0, seed=seed),
                        metric_fns={"dist": lambda ctx, xs=xstar: primal_norm(
                            problem.geometry, ctx.point - xs)},
                        log_stride=500)
            series = dict(trace.metric_series("dist"))
            for s in checkpoints:
                dists[s].append(series[s])
        for s, env in zip(checkpoints, envelopes):
            mean = sum(dists[s]) / len(dists[s])
            ok = ok and mean <= env * 1.1
            parts.append(f"{variant} s={s}: {mean:.2e} <= {env * 1.1:.2e}")
    _verdict(5, ok, "; ".join(parts))


def test_criterion_06_variance_reduction_beats_vr_forb(tmp_path):
    t0 = time.perf_counter()
    argv = ["--experiment", "matrix-game", "--n", "100", "--iters", "15000",
            "--batch", "2", "--seeds", "0,1,2,3,4", "--log-stride", "1000",
            "--methods", "alg1,vr-forb", "--out", str(tmp_path)]
    assert run_experiment(parse_config(argv)) == 0
    medians = {}
    lines = (tmp_path / "matrix-game_compare.csv").read_text("utf-8").splitlines()
    for line in lines[1:]:
        parts = line.split(",")
        if parts[1] == "-1":
            medians[parts[0]] = float(parts[6])
    elapsed = time.perf_counter() - t0
    ok = (0.002 <= medians["alg1"] <= 0.05
          and medians["alg1"] < medians["vr-forb"]
          and elapsed < 300.0)
    _verdict(6, ok, f"alg1 {medians['alg1']:.4f} in [0.002, 0.05], "
                    f"vr-forb {medians['vr-forb']:.4f}, {elapsed:.1f}s < 300s")


def test_criterion_07_nonmonotone_residual_decay():
    problem = build_regularized_game(100)
    start = BlockVector.full(problem.geometry.block_dims, 1.0)
    ok = True
    parts = []
    for variant in ("alg11", "alg12"):
        rho = problem.rho if variant == "alg11" else None
        params0 = preset_example42(variant, rho=rho, iters=15000)
        for seed in (0, 1, 2):
            trace = run(problem, replace(params0, seed=seed), start=start,
                        metric_fns={"res": lambda ctx: scaled_norm_residual(
                            ctx.point, 100)},
                        log_stride=100)
            values = dict(trace.metric_series("res"))
            ratio = values[15000] / values[0]
            window_medians = [
                statistics.median(values[w * 1000 + (j + 1) * 100]
                                  for j in range(10))
                for w in range(15)
            ]
            decreasing = all(b < a for a, b in zip(window_medians,
                                                   window_medians[1:]))
            ok = ok and ratio <= 0.1 and decreasing
            parts.append(f"{variant} seed {seed}: ratio {ratio:.4f}, "
                         f"windows {'down' if decreasing else 'NOT down'}")
    _verdict(7, ok, "; ".join(parts))


def _csv_hashes(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def test_criterion_08_reruns_are_byte_identical(tmp_path):
    configs = {
        "linear-rate": ["--experiment", "linear-rate", "--iters", "200",
                        "--log-stride", "50", "--seeds", "0,1"],
        "matrix-game": ["--experiment", "matrix-game", "--n", "6", "--iters",
                        "60", "--log-stride", "20", "--batch", "2",
                        "--seeds", "0,1"],
    }
    ok = True
    parts = []
    for name, argv in configs.items():
        first = tmp_path / f"{name}-a"
        second = tmp_path / f"{name}-b"
        run_experiment(parse_config(argv + ["--out", str(first)]))
        run_experiment(parse_config(argv + ["--out", str(second)]))
        ha, hb = _csv_hashes(first), _csv_hashes(second)
        same = ha == hb and len(ha) == 3
        ok = ok and same
        parts.append(f"{name}: {len(ha)} files {'identical' if same else 'DIFFER'}")
    _verdict(8, ok, "; ".join(parts))


def _trajectory(problem, alpha: float, iters: int) -> list[BlockVector]:
    points: list[BlockVector] = []

    def grab(ctx) -> float:
        points.append(ctx.point.copy())
        return 0.0

    params = SolverParams(gamma=1.0, p=1.0, alpha=alpha, b=1, iters=iters)
    run(problem, params, metric_fns={"grab": grab}, log_stride=1)
    return points


def test_criterion_09_reduction_to_one_step_method():
    rng = np.random.default_rng(90)
    worst = 0.0

    geo = GeometrySpec(EUCLIDEAN_BALL, (4,))
    skew = rng.standard_normal((4, 4))
    mean = np.eye(4) + 0.3 * (skew - skew.T)
    problem = AffineStrongOperator(mean, 0.5 * rng.standard_normal(4), 1.0,
                                   [np.zeros((4, 4))], geo)
    pts = _trajectory(problem, 0.15, 100)
    ref = helpers.reflected_reference(problem.full, geo, uniform_start(geo),
                                      0.15, 100)
    assert len(pts) == len(ref) == 101
    for a, b in zip(pts, ref):
        worst = max(worst, primal_norm(geo, a - b))

    raw = rng.standard_normal((3, 3))
    simplex_problem = helpers.SingleLinearSimplexProblem(
        0.5 * (raw - raw.T), 0.3 * rng.standard_normal(3))
    spec = simplex_problem.geometry
    pts = _trajectory(simplex_problem, 0.2, 100)
    ref = helpers.reflected_reference(simplex_problem.full, spec,
                                      uniform_start(spec), 0.2, 100)
    for a, b in zip(pts, ref):
        worst = max(worst, primal_norm(spec, a - b))

    _verdict(9, worst <= 1e-12,
             f"max step deviation {worst:.3e} <= 1e-12 over 2x101 points")
