"""Experiment runner: config parsing, seeded multi-run execution, CSV output.

Four experiments are wired:

* ``matrix-game``: random-payoff simplex game; duality gap of the last
  iterate and of the ergodic average.
* ``nonmonotone-game``: structured payoff with a repulsive regularizer on
  unit balls; scaled norm residual plus the stationarity certificate.
* ``linear-rate``: strongly monotone fixture with a known solution;
  distance to the solution.
* ``variance-check``: Monte Carlo check of the estimator variance bound;
  emits a PASS/FAIL line and the measured ratio.

Every run writes one CSV per seed plus an aggregate CSV with the median
across seeds per logged iteration (seed column -1).  Columns:
``iter, component_calls, full_evals, metric_name, metric_value, wall_ms,
seed``; one row per (iteration, metric); floats in shortest round-trip
form.  Reruns of an identical config produce byte-identical files (wall
times are written as 0.0 unless timing is requested).

Config sources compose as: built-in defaults, then a flat ``key = value``
config file, then command line flags.  The effective config is echoed in
a canonical text form that parses back to itself.
"""

from __future__ import annotations

import argparse
import math
import statistics
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .errors import ParameterError, UsageError
from .geometry import BlockVector, dual_norm, primal_norm
from .operators import (
    FiniteSumProblem,
    build_linear_rate_fixture,
    build_matrix_game,
    build_regularized_game,
    estimator_delta,
    make_distribution,
    sample_batch,
)
from .solver import (
    RunTrace,
    SolverParams,
    VrForbParams,
    preset_corollary31,
    preset_example41,
    preset_example42,
    preset_vr_forb,
    run,
    run_vr_forb,
)

EXPERIMENTS = ("matrix-game", "nonmonotone-game", "linear-rate", "variance-check")
METHODS = ("alg1", "alg1-p1", "vr-forb")
CSV_COLUMNS = ("iter", "component_calls", "full_evals", "metric_name",
               "metric_value", "wall_ms", "seed")

_DEFAULT_SEEDS = (0, 1, 2, 3, 4)

#: Per-experiment defaults for fields left unset: (n, iters, batch).
_EXPERIMENT_DEFAULTS = {
    "matrix-game": (100, 15000, 2),
    "nonmonotone-game": (100, 15000, 15),
    "linear-rate": (8, 3000, 0),      # fixture supplies batch
    "variance-check": (4, 0, 16),
}

#: preset -> (method, experiments it is valid for)
_PRESET_RULES = {
    "corollary31": ("alg1", ("matrix-game", "nonmonotone-game")),
    "example41": ("alg1", ("matrix-game",)),
    "example42-alg11": ("alg1", ("nonmonotone-game",)),
    "example42-alg12": ("alg1-p1", ("nonmonotone-game",)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    ``gamma``, ``p``, ``alpha`` and ``tau`` are None unless set manually;
    a preset (or the fixture) supplies them otherwise.
    """

    experiment: str
    method: str = "alg1"
    methods: tuple[str, ...] = ()
    n: int = 0
    iters: int = 0
    batch: int = 0
    seeds: tuple[int, ...] = _DEFAULT_SEEDS
    log_stride: int = 100
    out: str = "runs"
    preset: str = ""
    gamma: float | None = None
    p: float | None = None
    alpha: float | None = None
    tau: float | None = None
    matrix_seed: int = 0
    timing: bool = False
    mc_batches: int = 20000


_INT_KEYS = {"n", "iters", "batch", "log_stride", "matrix_seed", "mc_batches"}
_FLOAT_KEYS = {"gamma", "p", "alpha", "tau"}
_BOOL_KEYS = {"timing"}
_LIST_KEYS = {"seeds", "methods"}
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _parse_scalar(key: str, text: str):
    text = text.strip()
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _BOOL_KEYS:
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if key == "seeds":
            return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
        if key == "methods":
            return tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")
        return text
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: cannot parse value {text!r}") from exc


def read_config_file(path) -> dict:
    """Flat ``key = value`` lines; blanks and ``#`` comments ignored."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_scalar(key, value)
    return values


class _NoExitParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _NoExitParser(prog="bvrvi", description=__doc__.splitlines()[0],
                       add_help=True)
    ap.add_argument("--config", default=None, metavar="FILE",
                    help="flat 'key = value' config file; flags override it")
    ap.add_argument("--experiment", choices=EXPERIMENTS, default=None)
    ap.add_argument("--method", choices=METHODS, default=None)
    ap.add_argument("--methods", default=None,
                    help="comma list of methods; triggers a comparison run")
    ap.add_argument("--n", type=int, default=None, help="block dimension")
    ap.add_argument("--iters", type=int, default=None)
    ap.add_argument("--batch", type=int, default=None, help="minibatch size b")
    ap.add_argument("--seeds", default=None, help="comma list of seeds")
    ap.add_argument("--seed", type=int, default=None, help="single seed shorthand")
    ap.add_argument("--log-stride", dest="log_stride", type=int, default=None)
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--preset", default=None,
                    choices=sorted(_PRESET_RULES), metavar="PRESET")
    ap.add_argument("--gamma", type=float, default=None)
    ap.add_argument("--p", type=float, default=None)
    ap.add_argument("--alpha", type=float, default=None)
    ap.add_argument("--tau", type=float, default=None, help="vr-forb step size")
    ap.add_argument("--matrix-seed", dest="matrix_seed", type=int, default=None)
    ap.add_argument("--timing", action=argparse.BooleanOptionalAction, default=None,
                    help="record real wall times (breaks byte-reproducibility)")
    ap.add_argument("--mc-batches", dest="mc_batches", type=int, default=None)
    return ap


def parse_config(argv) -> ExperimentConfig:
    """Merge defaults, config file, and flags into a validated config."""
    ns = build_arg_parser().parse_args(list(argv))

    merged: dict = {}
    if ns.config is not None:
        merged.update(read_config_file(ns.config))
    if ns.seed is not None and ns.seeds is not None:
        raise UsageError("give either --seed or --seeds, not both")
    for key in _CONFIG_KEYS:
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            if key in _LIST_KEYS and isinstance(flag_val, str):
                flag_val = _parse_scalar(key, flag_val)
            merged[key] = flag_val
    if ns.seed is not None:
        merged["seeds"] = (ns.seed,)

    if "experiment" not in merged:
        raise UsageError("an experiment is required (--experiment or config file)")
    config = replace(ExperimentConfig(experiment=merged.pop("experiment")), **merged)
    return _validate(_resolve_defaults(config))


def _resolve_defaults(config: ExperimentConfig) -> ExperimentConfig:
    n_def, iters_def, batch_def = _EXPERIMENT_DEFAULTS[config.experiment] \
        if config.experiment in _EXPERIMENT_DEFAULTS else (0, 0, 0)
    updates = {}
    if config.n == 0:
        updates["n"] = n_def
    if config.iters == 0:
        updates["iters"] = iters_def
    if config.batch == 0 and config.experiment != "linear-rate":
        updates["batch"] = batch_def
    return replace(config, **updates) if updates else config


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    if config.experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {config.experiment!r}")
    for m in (config.methods or (config.method,)):
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    if not config.seeds:
        raise UsageError("need at least one seed")
    if config.log_stride < 1:
        raise UsageError(f"log_stride must be >= 1, got {config.log_stride}")
    if config.n < 0 or config.iters < 0 or config.batch < 0:
        raise UsageError("n, iters and batch must be nonnegative")
    if config.mc_batches < 1:
        raise UsageError(f"mc_batches must be >= 1, got {config.mc_batches}")

    if config.preset:
        if config.alpha is not None:
            raise UsageError(
                f"conflicting options: --alpha {config.alpha} with --preset "
                f"{config.preset}; presets derive alpha"
            )
        if config.gamma is not None or config.p is not None:
            raise UsageError(
                f"conflicting options: manual gamma/p with --preset {config.preset}"
            )
        rule = _PRESET_RULES.get(config.preset)
        if rule is None:
            raise UsageError(f"unknown preset {config.preset!r}")
        method_req, experiments_ok = rule
        for m in (config.methods or (config.method,)):
            if m != method_req:
                raise UsageError(
                    f"conflicting pair: method {m!r} with preset {config.preset!r} "
                    f"(preset belongs to method {method_req!r})"
                )
        if config.experiment not in experiments_ok:
            raise UsageError(
                f"conflicting pair: experiment {config.experiment!r} with preset "
                f"{config.preset!r}"
            )

    manual = [k for k in ("gamma", "p", "alpha") if getattr(config, k) is not None]
    if manual and len(manual) < 3:
        missing = [k for k in ("gamma", "p", "alpha") if getattr(config, k) is None]
        raise UsageError(
            f"manual stepping needs gamma, p and alpha together; missing {missing}"
        )
    if config.tau is not None and "vr-forb" not in (config.methods or (config.method,)):
        raise UsageError("--tau applies to the vr-forb method only")
    if config.experiment == "linear-rate":
        if config.preset:
            raise UsageError(
                f"conflicting pair: experiment 'linear-rate' with preset "
                f"{config.preset!r} (the fixture fixes its parameters)"
            )
        if config.n not in (0, 8):
            raise UsageError("linear-rate uses the fixed 8-dimensional fixture")
        for m in (config.methods or (config.method,)):
            if m == "vr-forb":
                raise UsageError(
                    "conflicting pair: method 'vr-forb' with experiment 'linear-rate'"
                )
    return config


def canonical_text(config: ExperimentConfig) -> str:
    """Canonical flat form; parsing it back reproduces the config."""
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(config, f.name)
        if value is None or value == () or value == "":
            continue
        if f.name in _LIST_KEYS:
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Method wiring.
# ---------------------------------------------------------------------------

def _alg1_params(config: ExperimentConfig, method: str,
                 problem: FiniteSumProblem) -> SolverParams:
    if config.alpha is not None:
        gamma, p = config.gamma, config.p
        if method == "alg1-p1":
            if (gamma is not None and gamma != 1.0) or (p is not None and p != 1.0):
                raise UsageError(
                    f"conflicting pair: method 'alg1-p1' with gamma={gamma}, p={p} "
                    "(this method fixes gamma = p = 1)"
                )
            gamma, p = 1.0, 1.0
        return SolverParams(gamma=gamma, p=p, alpha=config.alpha, b=config.batch,
                            iters=config.iters, preset="manual")

    preset = config.preset
    if not preset:
        if config.experiment == "matrix-game":
            preset = "example41" if method == "alg1" else ""
        elif config.experiment == "nonmonotone-game":
            preset = "example42-alg11" if method == "alg1" else "example42-alg12"
    if not preset:
        raise UsageError(
            f"method {method!r} on experiment {config.experiment!r} needs either a "
            "preset or manual gamma/p/alpha"
        )
    if preset == "example41":
        params = preset_example41(config.n, config.batch, problem.lip,
                                  problem.lip_bar, config.iters)
    elif preset == "corollary31":
        params = preset_corollary31(problem.num_components, config.batch,
                                    problem.lip, problem.lip_bar, config.iters)
    elif preset == "example42-alg11":
        params = preset_example42("alg11", rho=problem.rho, iters=config.iters)
        params = replace(params, b=config.batch) if config.batch else params
    elif preset == "example42-alg12":
        params = preset_example42("alg12", iters=config.iters)
        params = replace(params, b=config.batch) if config.batch else params
    else:
        raise UsageError(f"unknown preset {preset!r}")
    return params


def _build_problem(config: ExperimentConfig, method: str):
    """Returns (problem, params_or_vrparams, start, metric names)."""
    if config.experiment == "matrix-game":
        problem = build_matrix_game(config.n, config.matrix_seed)
        metric_names = ["duality_gap", "duality_gap_ergodic"]
        start = None
    elif config.experiment == "nonmonotone-game":
        problem = build_regularized_game(config.n)
        metric_names = ["residual_scaled", "natural_residual"]
        start = BlockVector.full(problem.geometry.block_dims, 1.0)
    elif config.experiment == "linear-rate":
        variant = "p-eq-1" if method == "alg1-p1" else "p-lt-1"
        problem, fixture_params = build_linear_rate_fixture(variant)
        metric_names = ["dist_to_solution", "natural_residual"]
        start = None
        if config.alpha is None:
            params = SolverParams(
                gamma=fixture_params["gamma"], p=fixture_params["p"],
                alpha=fixture_params["alpha"],
                b=config.batch or fixture_params["b"],
                iters=config.iters or fixture_params["iters"])
        else:
            params = _alg1_params(config, method, problem)
        return problem, params, start, metric_names
    else:
        raise UsageError(f"experiment {config.experiment!r} has no solver wiring")

    if method == "vr-forb":
        if config.tau is not None:
            p = config.p if config.p is not None else 8.15 / math.sqrt(config.n)
            params = VrForbParams(tau=config.tau, p=p, iters=config.iters)
        else:
            params = preset_vr_forb(config.n, problem.lip, config.iters)
    else:
        params = _alg1_params(config, method, problem)
    return problem, params, start, metric_names


def _metric_fns(problem: FiniteSumProblem, names, config: ExperimentConfig, params):
    fns = {}
    for name in names:
        if name == "duality_gap":
            fns[name] = lambda ctx: metrics_mod.duality_gap(problem, ctx.point)
        elif name == "duality_gap_ergodic":
            fns[name] = lambda ctx: metrics_mod.duality_gap(problem, ctx.ergodic)
        elif name == "residual_scaled":
            fns[name] = lambda ctx: metrics_mod.scaled_norm_residual(ctx.point, config.n)
        elif name == "dist_to_solution":
            fns[name] = lambda ctx: metrics_mod.distance_to_solution(problem, ctx.point)
        elif name == "natural_residual":
            if isinstance(params, VrForbParams):
                gamma, alpha = 1.0, params.tau
            else:
                gamma, alpha = params.gamma, params.alpha

            def _nat(ctx, gamma=gamma, alpha=alpha):
                if ctx.iteration == 0:
                    return math.nan
                return metrics_mod.natural_residual(problem, ctx.state, gamma, alpha)

            fns[name] = _nat
        else:
            raise ParameterError(f"unknown metric {name!r}")
    return fns


def _headline_metric(experiment: str) -> str:
    return {"matrix-game": "duality_gap_ergodic",
            "nonmonotone-game": "residual_scaled",
            "linear-rate": "dist_to_solution",
            "variance-check": "variance_ratio"}[experiment]


# ---------------------------------------------------------------------------
# CSV plumbing.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def trace_rows(trace: RunTrace, seed: int) -> list[tuple]:
    rows = []
    for rec in trace.records:
        for name, value in rec.metrics.items():
            rows.append((rec.iteration, rec.component_calls, rec.full_evals,
                         name, float(value), float(rec.wall_ms), seed))
    return rows


def _median(values) -> float:
    vals = list(values)
    if any(math.isnan(v) for v in vals):
        return math.nan
    return float(statistics.median(vals))


def aggregate_rows(per_seed_rows: dict[int, list[tuple]]) -> list[tuple]:
    """Median across seeds for every (iteration, metric) pair, seed = -1."""
    seeds = sorted(per_seed_rows)
    keyed: dict[tuple, dict[int, tuple]] = {}
    order: list[tuple] = []
    for seed in seeds:
        for row in per_seed_rows[seed]:
            key = (row[0], row[3])
            if key not in keyed:
                keyed[key] = {}
                order.append(key)
            keyed[key][seed] = row
    out = []
    for key in order:
        group = keyed[key]
        if len(group) != len(seeds):
            raise ParameterError(f"seeds disagree on logged point {key}")
        rows = [group[s] for s in seeds]
        out.append((key[0],
                    int(_median(r[1] for r in rows)),
                    int(_median(r[2] for r in rows)),
                    key[1],
                    _median(r[4] for r in rows),
                    _median(r[5] for r in rows),
                    -1))
    return out


def _worker_count(n_jobs: int) -> int:
    """Seeds run one at a time, whatever their number."""
    return 1


def _run_seeds(fn, seeds) -> dict[int, object]:
    """Run fn(seed) for every seed in order on the calling thread.

    Thread workers were measured slower: the solver loop is Python code,
    so the interpreter lock serializes it and threads only add contention.
    """
    return {seed: fn(seed) for seed in seeds}


# ---------------------------------------------------------------------------
# Experiment execution.
# ---------------------------------------------------------------------------

def _theory_header_lines(problem, params) -> list[str]:
    if isinstance(params, VrForbParams):
        return [f"params.tau = {params.tau!r}", f"params.p = {params.p!r}"]
    lines = [f"params.gamma = {params.gamma!r}", f"params.p = {params.p!r}",
             f"params.alpha = {params.alpha!r}", f"params.b = {params.b}",
             f"params.preset = {params.preset}"]
    try:
        bounds = metrics_mod.theory_bounds(params, problem, strict=False)
    except Exception as exc:  # refusals (no rho/beta, entropy mirror map)
        lines.append(f"theory.unavailable = {exc}")
        return lines
    for field_name in ("ergodic_coeff", "sigma1", "sigma2", "residual_coeff",
                       "sigma1_p1", "sigma2_p1", "residual_coeff_p1",
                       "theta", "varsigma", "envelope_coeff"):
        value = getattr(bounds, field_name)
        if value is not None:
            lines.append(f"theory.{field_name} = {value!r}")
    for failure in bounds.failures:
        lines.append(f"theory.premise_violated = {failure}")
    return lines


def _accounting_lines(problem, params, traces: dict[int, RunTrace]) -> list[str]:
    lines = []
    if not isinstance(params, VrForbParams):
        p = params.p
        expected = p + (1.0 - p) ** 2
        rates = []
        for trace in traces.values():
            st = trace.final_state
            if st.iteration:
                rates.append((st.counters.full_evals - 1) / st.iteration)
        if rates:
            lines.append(f"accounting.fresh_full_rate_measured = {_fmt(sum(rates) / len(rates))}")
            lines.append(f"accounting.fresh_full_rate_memoized = {_fmt(expected)}")
        nominal = expected * problem.num_components + 2 * params.b
        lines.append(f"accounting.component_calls_per_iter_nominal = {_fmt(nominal)}")
    return lines


def _single_method_run(config: ExperimentConfig, method: str, out_dir: Path):
    problem, params, start, metric_names = _build_problem(config, method)
    metric_fns = _metric_fns(problem, metric_names, config, params)
    solve = run_vr_forb if isinstance(params, VrForbParams) else run

    def one_seed(seed: int) -> RunTrace:
        return solve(problem, replace(params, seed=seed), start=start,
                     metric_fns=metric_fns, log_stride=config.log_stride,
                     timing=config.timing)

    traces = _run_seeds(one_seed, config.seeds)
    per_seed_rows = {seed: trace_rows(traces[seed], seed) for seed in config.seeds}

    stem = f"{config.experiment}_{method}"
    for seed in config.seeds:
        _write_csv(out_dir / f"{stem}_seed{seed}.csv", per_seed_rows[seed])
    agg = aggregate_rows(per_seed_rows)
    _write_csv(out_dir / f"{stem}_aggregate.csv", agg)

    header = [f"# {stem} run header", "# --- config ---"]
    header += canonical_text(config).rstrip("\n").splitlines()
    header.append("# --- derived ---")
    header += _theory_header_lines(problem, params)
    header += _accounting_lines(problem, params, traces)
    (out_dir / f"{stem}_header.txt").write_text("\n".join(header) + "\n",
                                                encoding="utf-8")
    return traces, agg, params


def _variance_check(config: ExperimentConfig, out_dir: Path) -> int:
    problem = build_matrix_game(config.n, config.matrix_seed)
    b = config.batch

    def one_seed(seed: int):
        rng = np.random.default_rng(seed)
        x = BlockVector(tuple(rng.dirichlet(np.ones(d))
                              for d in problem.geometry.block_dims))
        w = BlockVector(tuple(rng.dirichlet(np.ones(d))
                              for d in problem.geometry.block_dims))
        dist = make_distribution(problem, x, w)
        bound = (problem.lip_bar ** 2 / b) * primal_norm(problem.geometry, x - w) ** 2
        total = 0.0
        total_sq = 0.0
        # The solver's estimator anchored at -(F(x) - F(w)) returns the noise
        # of the sampled difference around its mean.
        minus_mean_diff = (problem.full(x) - problem.full(w)).scaled(-1.0)
        for _ in range(config.mc_batches):
            batch = sample_batch(dist, b, rng)
            noise = estimator_delta(minus_mean_diff, problem, x, w, batch, dist)
            val = dual_norm(problem.geometry, noise) ** 2
            total += val
            total_sq += val * val
        mean = total / config.mc_batches
        var = max(total_sq / config.mc_batches - mean * mean, 0.0)
        se = math.sqrt(var / config.mc_batches)
        return mean, bound, se

    results = _run_seeds(one_seed, config.seeds)
    rows_by_seed: dict[int, list[tuple]] = {}
    all_pass = True
    for seed in config.seeds:
        mean, bound, se = results[seed]
        ratio = mean / bound
        ok = mean <= bound + 5.0 * se
        all_pass = all_pass and ok
        print(f"variance-check seed {seed}: "
              f"{'PASS' if ok else 'FAIL'} ratio={_fmt(ratio)} "
              f"(empirical={_fmt(mean)}, bound={_fmt(bound)}, se={_fmt(se)})")
        rows_by_seed[seed] = [
            (0, 0, 0, "variance_ratio", float(ratio), 0.0, seed),
            (0, 0, 0, "variance_empirical", float(mean), 0.0, seed),
            (0, 0, 0, "variance_bound", float(bound), 0.0, seed),
        ]
    stem = "variance-check"
    for seed in config.seeds:
        _write_csv(out_dir / f"{stem}_seed{seed}.csv", rows_by_seed[seed])
    _write_csv(out_dir / f"{stem}_aggregate.csv", aggregate_rows(rows_by_seed))
    print(f"variance-check overall: {'PASS' if all_pass else 'FAIL'}")
    return 0


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the configured experiment; returns the process exit code."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print("# effective config")
    print(canonical_text(config), end="")

    if config.experiment == "variance-check":
        return _variance_check(config, out_dir)

    if config.methods:
        return compare_methods(config, out_dir)

    traces, agg, params = _single_method_run(config, config.method, out_dir)
    headline = _headline_metric(config.experiment)
    final_iter = max(r[0] for r in agg)
    for row in agg:
        if row[0] == final_iter and row[3] == headline:
            print(f"final median {headline} at iter {final_iter}: {_fmt(row[4])}")
    return 0


def compare_methods(config: ExperimentConfig, out_dir: Path) -> int:
    """Run every method in config.methods and emit a comparison CSV."""
    headline = _headline_metric(config.experiment)
    compare_rows = []
    medians = {}
    for method in config.methods:
        traces, agg, _params = _single_method_run(config, method, out_dir)
        finals = {}
        for seed in config.seeds:
            trace = traces[seed]
            last = trace.records[-1]
            finals[seed] = (last.iteration, last.metrics[headline],
                            last.component_calls, last.full_evals, last.wall_ms)
            compare_rows.append((method, seed, last.iteration,
                                 last.component_calls, last.full_evals,
                                 headline, float(last.metrics[headline]),
                                 float(last.wall_ms)))
        med = _median(v[1] for v in finals.values())
        medians[method] = med
        any_final = next(iter(finals.values()))
        compare_rows.append((method, -1, any_final[0],
                             int(_median(v[2] for v in finals.values())),
                             int(_median(v[3] for v in finals.values())),
                             headline, med,
                             _median(v[4] for v in finals.values())))
    path = out_dir / f"{config.experiment}_compare.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,seed,iter,component_calls,full_evals,"
                 "metric_name,metric_value,wall_ms\n")
        for row in compare_rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    for method, med in medians.items():
        print(f"median final {headline} [{method}]: {_fmt(med)}")
    return 0
