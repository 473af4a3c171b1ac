"""Experiment runner: config parsing, seeded multi-run execution, CSV output.

Four experiments are wired:

* ``matrix-game``: random-payoff simplex game; duality gap of the last
  iterate and of the ergodic average.
* ``nonmonotone-game``: structured payoff with a repulsive regularizer on
  unit balls; scaled norm residual plus the stationarity certificate.
* ``linear-rate``: strongly monotone fixture with a known solution;
  distance to the solution.
* ``variance-check``: Monte Carlo check of the estimator variance bound;
  emits a PASS/FAIL line and the measured ratio.  It runs no method.

Methods and their flags: ``alg1`` and its gamma = p = 1 variant
``alg1-p1`` take ``--preset`` or manual ``--gamma --p --alpha`` (all three;
1, 1 and any alpha for ``alg1-p1``), else the experiment's default; on
``linear-rate`` that is the fixture, whose b manual stepping keeps unless
``--batch`` is given.  ``vr-forb`` (``solver.VR_FORB``) takes ``--tau`` and
an optional ``--p``, else its preset; both defaults of p need n >= 67, and
with vr-forb among the methods ``--p`` needs ``--tau``.  ``_EXPERIMENTS`` and
``_PRESETS`` say what each experiment and preset accepts, and
``parse_config`` checks every combination against them: every refusal of
the input (exit 2), and of a preset whose premise the config already
breaks (exit 3), happens before anything is printed or written.

Each problem is built once per run and shared by the methods that run on
it.  Every run writes one CSV per seed plus an aggregate CSV with the median
across seeds per logged iteration (seed column -1).  Columns:
``iter, component_calls, full_evals, metric_name, metric_value, wall_ms,
seed``; one row per (iteration, metric); floats in shortest round-trip
form.  Reruns of an identical config produce byte-identical files (wall
times are written as 0.0 unless timing is requested).  ``--methods``
also writes ``<experiment>_compare.csv`` with the final headline rows.

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
from typing import Callable, NamedTuple

import numpy as np

from . import metrics as metrics_mod
from .errors import DomainError, ParameterError, UsageError
from .geometry import BlockVector, dual_norm, primal_norm
from .operators import (LINEAR_RATE_VARIANTS, FiniteSumProblem, build_linear_rate_fixture,
                        build_matrix_game, build_regularized_game, estimator_delta,
                        make_distribution, sample_batch)
from .solver import (VR_FORB, RunTrace, SolverParams, check_sqrt_premise,
                     preset_corollary31, preset_example41, preset_example42,
                     preset_vr_forb, run, vr_forb_p)

METHODS = ("alg1", "alg1-p1", "vr-forb")
CSV_COLUMNS = ("iter", "component_calls", "full_evals", "metric_name",
               "metric_value", "wall_ms", "seed")

_DEFAULT_SEEDS = (0, 1, 2, 3, 4)
_ALG1_STEP_KEYS = ("gamma", "p", "alpha")
_STEP_KEYS = (*_ALG1_STEP_KEYS, "tau")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    ``n``, ``iters`` and ``batch`` are None until validation fills in
    defaults, so an explicit 0 is kept.
    ``gamma``, ``p``, ``alpha`` and ``tau`` are None unless set manually;
    a preset (or the fixture) supplies them otherwise.
    """

    experiment: str
    method: str = "alg1"
    methods: tuple[str, ...] = ()
    n: int | None = None
    iters: int | None = None
    batch: int | None = None
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


# ---------------------------------------------------------------------------
# Presets and experiments; a derive maps (config, method, problem) to params.
# ---------------------------------------------------------------------------

class _Preset(NamedTuple):
    """How a method derives its parameters when it is not stepped manually.

    ``method`` and ``experiments`` say where ``--preset`` may select it.
    ``premise`` (config -> None) refuses from the config alone what
    ``derive`` would refuse once the problem is built.
    """

    method: str
    experiments: tuple[str, ...]
    derive: Callable
    premise: Callable = lambda config: None


_PRESETS = {
    "corollary31": _Preset(
        "alg1", ("matrix-game", "nonmonotone-game"),
        lambda c, m, pb: preset_corollary31(pb.num_components, c.batch, pb.lip,
                                            pb.lip_bar, c.iters),
        # Both games it runs on are n x n grids: M = n^2.
        lambda c: check_sqrt_premise("corollary31", c.n * c.n)),
    "example41": _Preset(
        "alg1", ("matrix-game",),
        lambda c, m, pb: preset_example41(c.n, c.batch, pb.lip, pb.lip_bar, c.iters),
        lambda c: check_sqrt_premise("example41", c.n)),
    "example42-alg11": _Preset(
        "alg1", ("nonmonotone-game",),
        lambda c, m, pb: replace(preset_example42("alg11", rho=pb.rho, iters=c.iters),
                                 b=c.batch)),
    "example42-alg12": _Preset(
        "alg1-p1", ("nonmonotone-game",),
        lambda c, m, pb: replace(preset_example42("alg12", iters=c.iters), b=c.batch)),
}


def _variant(method: str) -> str:
    """The linear-rate fixture a method runs on (``LINEAR_RATE_VARIANTS``)."""
    return "p-eq-1" if method == "alg1-p1" else "p-lt-1"


def _manual_params(config: ExperimentConfig, method: str) -> SolverParams:
    """Parameters from the step flags; they need no problem to build."""
    if method == "vr-forb":
        p = config.p if config.p is not None else vr_forb_p(config.n)
        return SolverParams(**VR_FORB, p=p, alpha=config.tau, iters=config.iters)
    if method == "alg1-p1" and (config.gamma, config.p) != (1, 1):
        raise ParameterError(f"gamma = p = 1 is fixed, got gamma={config.gamma}, "
                             f"p={config.p}")
    # Only linear-rate leaves batch 0: the fixture's b applies then.
    b = config.batch or LINEAR_RATE_VARIANTS[_variant(method)]["b"]
    return SolverParams(gamma=config.gamma, p=config.p, alpha=config.alpha, b=b,
                        iters=config.iters)


def _fixture_params(config, method, problem) -> SolverParams:
    fx = LINEAR_RATE_VARIANTS[_variant(method)]
    return SolverParams(gamma=fx["gamma"], p=fx["p"], alpha=fx["alpha"],
                        b=config.batch or fx["b"], iters=config.iters)


# Defaults that --preset cannot select, so no method or experiment is named.
_FIXTURE = _Preset("", (), _fixture_params)
_VR_FORB = _Preset("", (), lambda c, m, pb: preset_vr_forb(c.n, pb.lip, c.iters),
                   lambda c: vr_forb_p(c.n))


def _natural_residual(problem: FiniteSumProblem):
    def metric(ctx):
        if ctx.iteration == 0:
            return math.nan
        return metrics_mod.natural_residual(problem, ctx.state, ctx.params.gamma,
                                            ctx.params.alpha)
    return metric


def _build_matrix_game(config, method):
    problem = build_matrix_game(config.n, config.matrix_seed)
    return problem, None, {
        "duality_gap": lambda ctx: metrics_mod.duality_gap(problem, ctx.point),
        "duality_gap_ergodic": lambda ctx: metrics_mod.duality_gap(problem, ctx.ergodic),
    }


def _build_nonmonotone_game(config, method):
    problem = build_regularized_game(config.n)
    return problem, BlockVector.full(problem.geometry.block_dims, 1.0), {
        "residual_scaled": lambda ctx: metrics_mod.scaled_norm_residual(ctx.point, config.n),
        "natural_residual": _natural_residual(problem),
    }


def _build_linear_rate(config, method):
    problem, _ = build_linear_rate_fixture(_variant(method))
    return problem, None, {
        "dist_to_solution": lambda ctx: metrics_mod.distance_to_solution(problem, ctx.point),
        "natural_residual": _natural_residual(problem),
    }


class _Experiment(NamedTuple):
    """Defaults for n/iters/batch, headline metric, builder (config, method)
    -> (problem, start, metric_fns) or None, and each accepted method's
    default ``_Preset`` (None: it needs a preset or manual stepping)."""

    n: int
    iters: int
    batch: int
    headline: str
    build: Callable | None
    defaults: dict


_EXPERIMENTS = {
    "matrix-game": _Experiment(
        100, 15000, 2, "duality_gap_ergodic", _build_matrix_game,
        {"alg1": _PRESETS["example41"], "alg1-p1": None, "vr-forb": _VR_FORB}),
    "nonmonotone-game": _Experiment(
        100, 15000, 15, "residual_scaled", _build_nonmonotone_game,
        {"alg1": _PRESETS["example42-alg11"], "alg1-p1": _PRESETS["example42-alg12"],
         "vr-forb": _VR_FORB}),
    "linear-rate": _Experiment(
        8, 3000, 0, "dist_to_solution", _build_linear_rate,
        {"alg1": _FIXTURE, "alg1-p1": _FIXTURE}),
    "variance-check": _Experiment(4, 0, 16, "variance_ratio", None, {}),
}


def _is_manual(config: ExperimentConfig, method: str) -> bool:
    return (config.tau if method == "vr-forb" else config.alpha) is not None


def _preset(config: ExperimentConfig, method: str) -> _Preset | None:
    """The chosen preset, else the method's default on the experiment."""
    if config.preset:
        return _PRESETS[config.preset]
    return _EXPERIMENTS[config.experiment].defaults[method]


def _params(config: ExperimentConfig, method: str, problem: FiniteSumProblem):
    """Manual stepping, else the chosen preset, else the method's default."""
    if _is_manual(config, method):
        return _manual_params(config, method)
    return _preset(config, method).derive(config, method, problem)


# ---------------------------------------------------------------------------
# Config parsing and validation.
# ---------------------------------------------------------------------------

_INT_KEYS = {"n", "iters", "batch", "log_stride", "matrix_seed", "mc_batches"}
_BOOL_KEYS = {"timing"}
_LIST_KEYS = {"seeds", "methods"}
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def _parse_scalar(key: str, text: str):
    text = text.strip()
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _STEP_KEYS:
            return float(text)
        if key in _BOOL_KEYS:
            return {"true": True, "1": True, "yes": True,
                    "false": False, "0": False, "no": False}[text.lower()]
        if key == "seeds":
            return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
        if key == "methods":
            return tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")
        return text
    except (ValueError, KeyError) as exc:
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
    ap.add_argument("--experiment", choices=tuple(_EXPERIMENTS), default=None)
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
                    choices=sorted(_PRESETS), metavar="PRESET")
    ap.add_argument("--gamma", type=float, default=None, help="alg1 manual stepping")
    ap.add_argument("--p", type=float, default=None,
                    help="anchor probability: alg1 manual stepping, or vr-forb with --tau")
    ap.add_argument("--alpha", type=float, default=None, help="alg1 manual stepping")
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
    return _validate(replace(ExperimentConfig(experiment=merged.pop("experiment")),
                             **merged))


def _validate(config: ExperimentConfig) -> ExperimentConfig:
    """Fill the experiment's defaults; refuse bad combinations and broken
    preset premises without building."""
    exp = _EXPERIMENTS.get(config.experiment)
    if exp is None:
        raise UsageError(f"unknown experiment {config.experiment!r}")
    config = replace(config, n=exp.n if config.n is None else config.n,
                     iters=exp.iters if config.iters is None else config.iters,
                     batch=exp.batch if config.batch is None else config.batch)
    methods = config.methods or (config.method,)
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    if not config.seeds:
        raise UsageError("need at least one seed")
    if config.log_stride < 1:
        raise UsageError(f"log_stride must be >= 1, got {config.log_stride}")
    if config.iters < 0:
        raise UsageError(f"iters must be >= 0, got {config.iters}")
    least_batch = min(exp.batch, 1)  # linear-rate's default 0 names the fixture's b
    if config.batch < least_batch:
        raise UsageError(f"batch must be >= {least_batch}, got {config.batch}")
    if config.mc_batches < 1:
        raise UsageError(f"mc_batches must be >= 1, got {config.mc_batches}")
    if config.experiment == "linear-rate" and config.n != 8:
        raise UsageError("linear-rate uses the fixed 8-dimensional fixture")
    if config.experiment != "linear-rate" and config.n < 2:  # the game builders' rule
        raise UsageError(f"{config.experiment} needs n >= 2, got {config.n}")
    step_flags = [k for k in _STEP_KEYS if getattr(config, k) is not None]

    if config.preset:
        if step_flags:
            raise UsageError(
                f"conflicting options: --{' --'.join(step_flags)} with --preset "
                f"{config.preset}; presets derive the step parameters"
            )
        rule = _PRESETS.get(config.preset)
        if rule is None:
            raise UsageError(f"unknown preset {config.preset!r}")
        for m in methods:
            if m != rule.method:
                raise UsageError(
                    f"conflicting pair: method {m!r} with preset {config.preset!r} "
                    f"(preset belongs to method {rule.method!r})"
                )
        if config.experiment not in rule.experiments:
            raise UsageError(
                f"conflicting pair: experiment {config.experiment!r} with preset "
                f"{config.preset!r}"
            )
    if exp.build is None:
        if config.methods or config.method != "alg1" or step_flags:
            raise UsageError(f"{config.experiment} runs no method; it takes no "
                             "method or step flags")
        return config

    alg1_family = any(m != "vr-forb" for m in methods)
    manual = [k for k in _ALG1_STEP_KEYS if k in step_flags]
    if alg1_family and manual and len(manual) < 3:
        missing = [k for k in _ALG1_STEP_KEYS if k not in manual]
        raise UsageError(
            f"manual stepping needs gamma, p and alpha together; missing {missing}"
        )
    if not alg1_family and (config.gamma is not None or config.alpha is not None):
        raise UsageError("vr-forb takes --tau and an optional --p, not --gamma or --alpha")
    if "vr-forb" in methods and config.p is not None and config.tau is None:
        raise UsageError("vr-forb's --p needs --tau; with vr-forb among the methods "
                         "--p sets the p of every method")
    if config.tau is not None and "vr-forb" not in methods:
        raise UsageError("--tau applies to the vr-forb method only")

    for m in methods:
        if m not in exp.defaults:
            raise UsageError(
                f"conflicting pair: method {m!r} with experiment {config.experiment!r}"
            )
        if not (_is_manual(config, m) or _preset(config, m)):
            raise UsageError(
                f"method {m!r} on experiment {config.experiment!r} needs either a "
                "preset or manual gamma/p/alpha"
            )
        # Checks what needs no problem; a PremiseViolationError passes through.
        try:
            if _is_manual(config, m):
                _manual_params(config, m)
            else:
                _preset(config, m).premise(config)
        except ParameterError as exc:
            raise UsageError(f"method {m!r}: {exc}") from exc
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
# CSV plumbing.
# ---------------------------------------------------------------------------

def _write_csv(path: Path, rows, columns=CSV_COLUMNS) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def trace_rows(trace: RunTrace, seed: int) -> list[tuple]:
    return [(rec.iteration, rec.component_calls, rec.full_evals, name, float(value),
             float(rec.wall_ms), seed)
            for rec in trace.records for name, value in rec.metrics.items()]


def _median(values: tuple) -> float:
    if any(map(math.isnan, values)):
        return math.nan
    return float(statistics.median(values))


def aggregate_rows(per_seed_rows: dict[int, list[tuple]]) -> list[tuple]:
    """Median across seeds for every (iteration, metric) pair, seed = -1;
    every seed logs the same pairs in the same order."""
    seed_rows = [per_seed_rows[seed] for seed in sorted(per_seed_rows)]
    if len({len(rows) for rows in seed_rows}) > 1:
        raise ParameterError("seeds disagree on the number of logged points")
    out = []
    for rows in zip(*seed_rows):
        its, calls, fulls, names, values, walls, _ = zip(*rows)
        if its.count(its[0]) != len(its) or names.count(names[0]) != len(names):
            raise ParameterError(f"seeds disagree on logged point {(its[0], names[0])}")
        out.append((its[0], int(_median(calls)), int(_median(fulls)), names[0],
                    _median(values), _median(walls), -1))
    return out


def _write_runs(out_dir: Path, stem: str,
                rows_by_seed: dict[int, list[tuple]]) -> list[tuple]:
    """One CSV per seed plus the aggregate CSV; returns the aggregate rows."""
    for seed, rows in rows_by_seed.items():
        _write_csv(out_dir / f"{stem}_seed{seed}.csv", rows)
    agg = aggregate_rows(rows_by_seed)
    _write_csv(out_dir / f"{stem}_aggregate.csv", agg)
    return agg


def _final_row(rows: list[tuple], name: str) -> tuple:
    """The last row of metric ``name``: its value at the final logged iteration."""
    return next(row for row in reversed(rows) if row[3] == name)


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

def _header_lines(problem, params, traces: dict[int, RunTrace]) -> list[str]:
    lines = [f"params.gamma = {params.gamma!r}", f"params.p = {params.p!r}",
             f"params.alpha = {params.alpha!r}", f"params.b = {params.b}",
             f"params.preset = {params.preset}"]
    try:
        bounds = metrics_mod.theory_bounds(params, problem)
    except (ParameterError, DomainError) as exc:  # no rho/beta, entropy map, vr-forb
        lines.append(f"theory.unavailable = {exc}")
    else:
        for field_name in ("ergodic_coeff", "sigma1", "sigma2", "residual_coeff",
                           "sigma1_p1", "sigma2_p1", "residual_coeff_p1",
                           "theta", "varsigma", "envelope_coeff"):
            value = getattr(bounds, field_name)
            if value is not None:
                lines.append(f"theory.{field_name} = {value!r}")
        lines += [f"theory.premise_violated = {failure}" for failure in bounds.failures]

    expected = params.p if params.anchor == "sticky" else params.p + (1.0 - params.p) ** 2
    rates = [(st.counters.full_evals - 1) / st.iteration
             for st in (trace.final_state for trace in traces.values()) if st.iteration]
    if rates:
        lines.append(f"accounting.fresh_full_rate_measured = {sum(rates) / len(rates)}")
        lines.append(f"accounting.fresh_full_rate_memoized = {expected}")
    nominal = expected * problem.num_components + 2 * params.b
    lines.append(f"accounting.component_calls_per_iter_nominal = {nominal}")
    return lines


def _run_method(config: ExperimentConfig, method: str, out_dir: Path,
                problem: FiniteSumProblem, start, metric_fns):
    params = _params(config, method, problem)

    def one_seed(seed: int) -> RunTrace:
        return run(problem, replace(params, seed=seed), start=start,
                   metric_fns=metric_fns, log_stride=config.log_stride,
                   timing=config.timing)

    traces = _run_seeds(one_seed, config.seeds)
    per_seed_rows = {seed: trace_rows(traces[seed], seed) for seed in config.seeds}
    stem = f"{config.experiment}_{method}"
    agg = _write_runs(out_dir, stem, per_seed_rows)

    header = [f"# {stem} run header", "# --- config ---"]
    header += canonical_text(config).rstrip("\n").splitlines()
    header.append("# --- derived ---")
    header += _header_lines(problem, params, traces)
    (out_dir / f"{stem}_header.txt").write_text("\n".join(header) + "\n",
                                                encoding="utf-8")
    return per_seed_rows, agg


def _variance_check(config: ExperimentConfig, out_dir: Path) -> int:
    problem = build_matrix_game(config.n, config.matrix_seed)
    b = config.batch

    def one_seed(seed: int):
        rng = np.random.default_rng(seed)
        x, w = (BlockVector(tuple(rng.dirichlet(np.ones(d))
                                  for d in problem.geometry.block_dims))
                for _ in range(2))
        dist = make_distribution(problem, x, w)
        bound = (problem.lip_bar ** 2 / b) * primal_norm(problem.geometry, x - w) ** 2
        total = total_sq = 0.0
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
              f"{'PASS' if ok else 'FAIL'} ratio={ratio} "
              f"(empirical={mean}, bound={bound}, se={se})")
        rows_by_seed[seed] = [(0, 0, 0, f"variance_{name}", float(value), 0.0, seed)
                              for name, value in (("ratio", ratio), ("empirical", mean),
                                                  ("bound", bound))]
    _write_runs(out_dir, "variance-check", rows_by_seed)
    print(f"variance-check overall: {'PASS' if all_pass else 'FAIL'}")
    return 0


def run_experiment(config: ExperimentConfig) -> int:
    """Execute the configured experiment; returns the process exit code.

    Each method writes its CSVs and header.  A ``--methods`` run also writes
    per method the final headline row of each seed and of the aggregate.
    """
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print("# effective config")
    print(canonical_text(config), end="")

    exp = _EXPERIMENTS[config.experiment]
    if exp.build is None:
        return _variance_check(config, out_dir)

    compare_rows = []
    finals = {}
    built = {}
    for method in config.methods or (config.method,):
        # The games do not depend on the method; linear-rate has a fixture per variant.
        key = _variant(method) if config.experiment == "linear-rate" else None
        if key not in built:
            built[key] = exp.build(config, method)
        per_seed_rows, agg = _run_method(config, method, out_dir, *built[key])
        rows = [_final_row(per_seed_rows[seed], exp.headline) for seed in config.seeds]
        rows.append(_final_row(agg, exp.headline))
        compare_rows += [(method, row[6], *row[:6]) for row in rows]
        finals[method] = rows[-1]
    if not config.methods:
        final = finals[config.method]
        print(f"final median {exp.headline} at iter {final[0]}: {final[4]}")
        return 0

    _write_csv(out_dir / f"{config.experiment}_compare.csv", compare_rows,
               ("method", "seed", *CSV_COLUMNS[:-1]))
    for method, final in finals.items():
        print(f"median final {exp.headline} [{method}]: {final[4]}")
    return 0
