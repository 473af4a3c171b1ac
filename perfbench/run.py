"""Solver benchmark: time and oracle calls to a target accuracy.

Run from the repository root:

    python3 perfbench/run.py --workload matrix-game-large --seed 1 --seconds 30 --trace 0

The workload runs whole rounds of experiments through the package's
command-line entry point until ``--seconds`` have passed, checks every
experiment's outputs against the benchmark's own computations, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  Workloads,
targets, metrics and thread settings are described in perfbench/README.md.
"""

import time

# setup_s is timed from here, before numpy and the package are imported.
_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
GAME_VALUE_FILE = BENCH_DIR / "data" / "game_value.json"

#: One BLAS thread everywhere; the harness may run two seeds at once, so
#: seed workers x BLAS threads stays at two.  Set before numpy loads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BVRVI_THREADS": "2"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A round is ``experiments_per_round`` experiments, each given
    ``seeds_per_experiment`` solver seeds; the round's seeds are the
    consecutive integers starting at ``--seed`` times their count, so a
    seed fixes every input.  An operation is one solver run (one seed of
    one method); it fails when its headline metric never reaches
    ``target``.
    """

    name: str
    experiment: str
    argv: tuple
    methods: tuple
    headline: str
    target: float
    seeds_per_experiment: int
    experiments_per_round: int

    def round_seeds(self, seed: int) -> list[list[int]]:
        per = self.seeds_per_experiment
        base = seed * per * self.experiments_per_round
        return [list(range(base + k * per, base + (k + 1) * per))
                for k in range(self.experiments_per_round)]


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("matrix-game-large", "matrix-game",
                 ("--experiment", "matrix-game", "--n", "1000", "--matrix-seed", "0",
                  "--batch", "2", "--preset", "example41", "--iters", "2500"),
                 ("alg1",), "duality_gap_ergodic", 0.21, 1, 1),
        Workload("nonmonotone-batch15", "nonmonotone-game",
                 ("--experiment", "nonmonotone-game", "--n", "100", "--batch", "15",
                  "--preset", "example42-alg11", "--iters", "300", "--log-stride", "5"),
                 ("alg1",), "residual_scaled", 0.08, 1, 64),
        Workload("linear-rate-sweep", "linear-rate",
                 ("--experiment", "linear-rate", "--methods", "alg1,alg1-p1",
                  "--log-stride", "5"),
                 ("alg1", "alg1-p1"), "dist_to_solution", 1e-6, 8, 1),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "experiment_s": "s", "iters_per_s": "iter/s",
                    "time_to_target_s": "s", "component_calls_to_target": "calls",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Cold set-up: what a user pays before the first iteration.
# ---------------------------------------------------------------------------

def cold_setup(wl: Workload):
    """Build the problems and derive the parameters the experiment uses.

    Returns the package modules so the caller uses this checkout's code.
    """
    from bvrvi import cli, harness, metrics, operators, solver

    config = harness.parse_config([*wl.argv, "--seed", "0"])
    if wl.experiment == "matrix-game":
        problem = operators.build_matrix_game(config.n, config.matrix_seed)
        solver.preset_example41(config.n, config.batch, problem.lip, problem.lip_bar,
                                config.iters)
    elif wl.experiment == "nonmonotone-game":
        problem = operators.build_regularized_game(config.n)
        solver.preset_example42("alg11", rho=problem.rho, iters=config.iters)
    else:
        for variant in ("p-lt-1", "p-eq-1"):
            _, run_params = operators.build_linear_rate_fixture(variant)
            solver.SolverParams(**run_params)
    return cli, harness, metrics, operators, solver


# ---------------------------------------------------------------------------
# Independent references and per-experiment checks.
# ---------------------------------------------------------------------------

def build_reference(wl: Workload, operators):
    import checks

    config_n = int(wl.argv[wl.argv.index("--n") + 1]) if "--n" in wl.argv else None
    if wl.experiment == "matrix-game":
        stored = json.loads(GAME_VALUE_FILE.read_text(encoding="utf-8"))
        if stored["n"] != config_n or stored["matrix_seed"] != 0:
            raise SystemExit(f"error: {GAME_VALUE_FILE} is for n={stored['n']}, "
                             f"matrix_seed={stored['matrix_seed']}")
        return {"payoff": checks.matrix_game_payoff(config_n, 0),
                "game_value": float(stored["value"])}
    if wl.experiment == "nonmonotone-game":
        lam = 0.01
        payoff = checks.regularized_game_payoff(config_n, 10.0)
        rho, v_min = checks.star_modulus(payoff, lam)
        return {"payoff": payoff, "lam": lam, "rho": rho, "v_min": v_min}
    variants = {"alg1": "p-lt-1", "alg1-p1": "p-eq-1"}
    return {method: checks.linear_rate_operator(operators.LINEAR_RATE_VARIANTS[v])
            for method, v in variants.items()}


def read_outputs(wl: Workload, out_dir: Path, groups):
    """Per-seed and aggregate CSV rows of every method, in method order."""
    import checks

    outputs = []
    for method, runs in zip(wl.methods, groups):
        stem = f"{wl.experiment}_{method}"
        per_seed = {seed: checks.read_rows(out_dir / f"{stem}_seed{seed}.csv")
                    for seed in runs}
        outputs.append((method, runs, per_seed,
                        checks.read_rows(out_dir / f"{stem}_aggregate.csv")))
    return outputs


def check_experiment(wl: Workload, outputs, ref) -> None:
    """Raise checks.CheckFailure if any output of the experiment is wrong."""
    import checks

    for method, runs, per_seed, aggregate in outputs:
        checks.check_aggregate(per_seed, aggregate)
        for seed, (trace, _seconds, problem) in runs.items():
            reported = checks.final_value(per_seed[seed], wl.headline)
            if wl.experiment == "matrix-game":
                x, y = trace.ergodic.blocks
                checks.check_matrix_game(x, y, reported, ref["payoff"], ref["game_value"])
            elif wl.experiment == "nonmonotone-game":
                x, y = trace.final_state.x_cur.blocks
                checks.check_nonmonotone(x, y, reported, ref["payoff"], ref["lam"],
                                         ref["rho"])
            else:
                h, q, x_star = ref[method]
                checks.check_linear_solution(h, q, x_star, problem.solution.blocks[0])
                checks.check_linear_distance(trace.final_state.x_cur.blocks[0], x_star,
                                             reported)


def declared_modulus_holds(outputs, ref) -> bool:
    """Whether the problem's declared weak Minty modulus ``rho``, which the
    example42-alg11 preset turns into its step size, satisfies the star
    condition at the fixed point (v_min, 0) of the unit ball."""
    import checks
    import numpy as np

    (_, runs, _, _), = outputs
    _, _, problem = next(iter(runs.values()))
    try:
        checks.check_star_condition(ref["v_min"], np.zeros_like(ref["v_min"]),
                                    ref["payoff"], ref["lam"], problem.rho)
    except checks.CheckFailure:
        return False
    return True


# ---------------------------------------------------------------------------
# Hooks on the harness: captured traces, solve-phase time, oracle tallies.
# ---------------------------------------------------------------------------

class Capture:
    """Traces and timings of one experiment, taken at the harness boundary.

    ``harness._run_seeds`` is entered once per method, so each entry
    opens a new group of runs; ``harness.run`` adds one run per seed.
    Both are called a handful of times per experiment, so the hooks cost
    nothing measurable.
    """

    def __init__(self, harness):
        self._harness = harness
        self.groups: list[dict] = []
        self.solve_s = 0.0
        self.worker_slots_s = 0.0

    def reset(self):
        self.groups = []
        self.solve_s = 0.0
        self.worker_slots_s = 0.0

    def replacements(self):
        def run_factory(orig):
            def run(problem, params, *args, **kwargs):
                t0 = time.perf_counter()
                trace = orig(problem, params, *args, **kwargs)
                group = self.groups[-1]
                group[params.seed] = (trace, time.perf_counter() - t0, problem)
                return trace
            return run

        def run_seeds_factory(orig):
            def run_seeds(fn, seeds):
                self.groups.append({})
                workers = self._harness._worker_count(len(seeds))
                t0 = time.perf_counter()
                out = orig(fn, seeds)
                dt = time.perf_counter() - t0
                self.solve_s += dt
                self.worker_slots_s += dt * workers
                return out
            return run_seeds

        return [(self._harness, "run", run_factory),
                (self._harness, "_run_seeds", run_seeds_factory)]


class OracleTally:
    """Second, independent count of oracle calls per solver run.

    Wrappers on ``full_eval`` and ``component_eval`` count calls made by
    the thread that is inside ``harness.run``; at the end of the run the
    tallies must reproduce the program's own ``OracleCounters``.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.mismatches: list[str] = []
        self.full_calls = 0
        self.bytes_computed = 0

    def count_full(self, orig):
        def full_eval(problem, z, counters=None):
            tally = getattr(self._local, "tally", None)
            if tally is not None:
                tally[0] += 1
            return orig(problem, z, counters)
        return full_eval

    def count_component(self, orig):
        def component_eval(problem, xi, z, dist, counters=None):
            tally = getattr(self._local, "tally", None)
            if tally is not None:
                tally[1] += 1
            return orig(problem, xi, z, dist, counters)
        return component_eval

    def per_run(self, orig):
        def run(problem, params, *args, **kwargs):
            self._local.tally = tally = [0, 0]
            try:
                trace = orig(problem, params, *args, **kwargs)
            finally:
                self._local.tally = None
            counters = trace.final_state.counters
            full, comp = tally
            m = problem.n_rows * problem.n_cols
            if full * m + comp != counters.component_calls or full != counters.full_evals:
                self.mismatches.append(
                    f"seed {params.seed}: wrappers counted {full} full x M={m} + {comp} "
                    f"component calls, program counted {counters.full_evals} full / "
                    f"{counters.component_calls} component calls")
            with self._lock:
                self.full_calls += full
                self.bytes_computed += full * full_eval_bytes(problem)
            return trace
        return run


def full_eval_bytes(problem) -> int:
    """Matrix bytes one full evaluation reads, computed from array sizes:
    both mat-vecs of a bilinear game read the whole payoff, the affine
    operator reads H once."""
    payoff = getattr(problem, "payoff", None)
    return 2 * payoff.nbytes if payoff is not None else problem.h.nbytes


def traced_replacements(tracer, tally, harness, metrics, operators, solver):
    """Span wrappers for the per-layer metrics, placed where each name is
    looked up at call time."""
    def span(name, inner=None):
        if inner is None:
            return lambda orig: tracer.wrap(name, orig)
        return lambda orig: tracer.wrap(name, inner(orig))

    reps = [
        (solver, "full_eval", span("full_eval", tally.count_full)),
        (operators, "component_eval", span("component_eval", tally.count_component)),
        (solver, "estimator_delta", span("estimator_delta")),
        (solver, "make_distribution", span("make_distribution")),
        (solver, "sample_batch", span("sample_batch")),
        (solver, "fused_inertial_prox", span("fused_inertial_prox")),
        (solver, "step", span("step")),
        (harness, "run", span("run", tally.per_run)),
        (operators, "power_iteration_norm", span("power_iteration_norm")),
        (harness, "_write_csv", span("csv_write")),
        (harness, "aggregate_rows", span("aggregate")),
    ]
    reps += [(metrics, fn, span("metrics")) for fn in
             ("duality_gap", "scaled_norm_residual", "distance_to_solution",
              "natural_residual")]
    return reps


def layer_metrics(tracer, tally, experiments: int, busy_s: float, slots_s: float,
                  experiment_s: list[float]) -> dict:
    """Per-layer metrics, per experiment unless the name says otherwise."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / experiments

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / experiments

    steps = totals.get("step", (0,))[0]
    return {
        "operators.full_eval.calls": (calls("full_eval"), "count"),
        "operators.full_eval.self_s": (self_s("full_eval"), "s"),
        "operators.full_eval.bytes_computed":
            (tally.bytes_computed / max(tally.full_calls, 1), "bytes"),
        "operators.component_eval.calls": (calls("component_eval"), "count"),
        "operators.component_eval.self_s": (self_s("component_eval"), "s"),
        "operators.estimator_delta.self_s": (self_s("estimator_delta"), "s"),
        "operators.make_distribution.self_s": (self_s("make_distribution"), "s"),
        "operators.sample_batch.self_s": (self_s("sample_batch"), "s"),
        "operators.power_iteration_norm.calls": (calls("power_iteration_norm"), "count"),
        "operators.power_iteration_norm.self_s": (self_s("power_iteration_norm"), "s"),
        "geometry.fused_inertial_prox.calls": (calls("fused_inertial_prox"), "count"),
        "geometry.fused_inertial_prox.self_s": (self_s("fused_inertial_prox"), "s"),
        "solver.step.self_s": (self_s("step"), "s"),
        "solver.run.self_s": (self_s("run"), "s"),
        "solver.full_evals_per_iter":
            (totals.get("full_eval", (0,))[0] / max(steps, 1), "ratio"),
        "metrics.self_s": (self_s("metrics"), "s"),
        "harness.seed_parallel_efficiency": (busy_s / slots_s, "ratio"),
        "harness.csv_write_s": (self_s("csv_write"), "s"),
        "harness.aggregate_s": (self_s("aggregate"), "s"),
        "traced.experiment_s": (statistics.median(experiment_s), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "bvrvi" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'bvrvi'} not found; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    cli, harness, metrics, operators, solver = cold_setup(wl)
    setup_s = time.perf_counter() - _T_START

    import checks
    import tracing

    ref = build_reference(wl, operators)
    out_dir = OUT_ROOT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)

    capture = Capture(harness)
    replacements = capture.replacements()
    tracer = tally = None
    if args.trace:
        tracer, tally = tracing.Tracer(), OracleTally()
        replacements += traced_replacements(tracer, tally, harness, metrics, operators,
                                            solver)

    correct = True
    attempted = failed = experiments = 0
    experiment_s, iters_per_s = [], []
    to_target = {m: ([], []) for m in wl.methods}    # method -> (seconds, calls)
    busy_s = slots_s = 0.0
    deadline = time.perf_counter() + args.seconds
    with tracing.patched(replacements):
        while correct:
            for seeds in wl.round_seeds(args.seed):
                argv_exp = [*wl.argv, "--seeds", ",".join(map(str, seeds)),
                            "--out", str(out_dir), "--timing"]
                capture.reset()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv_exp)
                elapsed = time.perf_counter() - t0
                if code != 0:
                    print(f"error: experiment {argv_exp} exited with code {code}",
                          file=sys.stderr)
                    return 1
                experiments += 1
                experiment_s.append(elapsed)
                solver_runs = [r for group in capture.groups for r in group.values()]
                iters_per_s.append(sum(tr.final_state.iteration for tr, _, _ in solver_runs)
                                   / capture.solve_s)
                busy_s += sum(seconds for _, seconds, _ in solver_runs)
                slots_s += capture.worker_slots_s
                outputs = read_outputs(wl, out_dir, capture.groups)
                for method, runs, per_seed, _ in outputs:
                    for seed in runs:
                        attempted += 1
                        hit = checks.first_hit(per_seed[seed], wl.headline, wl.target)
                        if hit is None:
                            failed += 1
                        else:
                            to_target[method][0].append(hit[5] / 1000.0)
                            to_target[method][1].append(hit[1])
                # One more operation per nonmonotone experiment, on a point fixed
                # by the payoff alone; it fails every time (see README.md).
                if wl.experiment == "nonmonotone-game":
                    attempted += 1
                    failed += not declared_modulus_holds(outputs, ref)
                try:
                    check_experiment(wl, outputs, ref)
                except checks.CheckFailure as exc:
                    print(f"check failed: {exc}", file=sys.stderr)
                    correct = False
                    break
            if time.perf_counter() >= deadline:
                break

    if tally is not None and tally.mismatches:
        correct = False
        for text in tally.mismatches:
            print(f"oracle accounting mismatch: {text}", file=sys.stderr)
    if any(not seconds for seconds, _ in to_target.values()):
        print(f"error: no run of some method reached {wl.headline} <= {wl.target}",
              file=sys.stderr)
        return 1

    if args.trace:
        values = layer_metrics(tracer, tally, experiments, busy_s, slots_s, experiment_s)
    else:
        # Per-method medians, summed: the sweep's two fixtures reach the target
        # about twenty times apart, so a pooled median would fall between them.
        values = {
            "setup_s": setup_s,
            "experiment_s": statistics.median(experiment_s),
            "iters_per_s": statistics.median(iters_per_s),
            "time_to_target_s": sum(statistics.median(s) for s, _ in to_target.values()),
            "component_calls_to_target":
                sum(statistics.median(c) for _, c in to_target.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values = {name: (v, END_TO_END_UNITS[name]) for name, v in values.items()}

    print(f"workload {wl.name}: seed {args.seed}, {experiments} experiments, "
          f"{attempted} operations, {failed} failed, correct={correct}")
    for name, (value, unit) in values.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
