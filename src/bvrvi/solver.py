"""Single-loop variance-reduced Bregman solvers for finite-sum VIs.

The main iteration keeps two primal iterates (current and previous), a
randomized anchor w with its cached full operator value, and produces

    x_next = argmin_{z in K} { <alpha * delta, z>
                               + gamma * D(z, x_cur) + (1 - gamma) * D(z, x_prev) }

where delta is the variance-reduced direction built from the anchor and a
minibatch of component differences.  After the step the anchor moves to
x_next with probability p and otherwise falls back to the current iterate
x_cur.  Only F(x_cur) is memoized, and only when x_cur is the start or
the anchor of a refresh step, so a fallback right after a refresh reuses
it and any other fallback evaluates F(x_cur) afresh.  With anchor
probability p the long-run fresh-evaluation rate is p + (1 - p)^2.

Per-iteration randomness is consumed in a fixed order: sampling
distribution (no draws), then the component batch (2*b uniforms), then
the anchor coin (one uniform).  A step whose iterate equals the previous
anchor entry by entry (always the first step) has an identically zero
sampled difference: delta is the anchor value, no distribution or batch
is built, and only the anchor coin is drawn.  Runs with equal
parameters and seed are bit-for-bit reproducible.

A reflected single-index baseline (``run_vr_forb``) is included for
comparisons.  Both solvers share one loop (``_drive``) that owns the
start state, the ergodic average, metric logging and the divergence
check; each supplies only its one-step update.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ParameterError, PremiseViolationError
from .geometry import (
    BlockVector,
    DualVector,
    check_layout,
    fused_inertial_prox,
    uniform_start,
)
from .operators import (
    FiniteSumProblem,
    OracleCounters,
    OracleSampleDistribution,
    estimator_delta,
    full_eval,
    make_distribution,
    sample_batch,
)

PRESET_TAGS = ("manual", "corollary31", "example41", "example42-alg11", "example42-alg12")


@dataclass(frozen=True)
class SolverParams:
    """Step-size and sampling parameters of the main iteration."""

    gamma: float
    p: float
    alpha: float
    b: int
    iters: int
    seed: int = 0
    preset: str = "manual"

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ParameterError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (0.0 < self.p <= 1.0):
            raise ParameterError(f"p must lie in (0, 1], got {self.p}")
        if not self.alpha > 0.0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if self.b < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.b}")
        if self.iters < 0:
            raise ParameterError(f"iters must be >= 0, got {self.iters}")
        if self.preset not in PRESET_TAGS:
            raise ParameterError(f"unknown preset tag {self.preset!r}; expected {PRESET_TAGS}")


def monotone_step_bound(gamma: float, p: float, b: int, lip: float, lip_bar: float) -> float:
    """Largest step size covered by the ergodic guarantee for 0 < p < gamma < 1."""
    if not (0.0 < p < 1.0 and p < gamma < 1.0):
        raise ParameterError(
            f"step bound needs 0 < p < gamma < 1, got p={p}, gamma={gamma}"
        )
    return min(
        (gamma - p) / (2.0 * (1.0 - p)),
        (1.0 - gamma) * b / ((1.0 - p) * (2.0 * lip_bar**2 + b * lip**2)),
    )


def preset_corollary31(m: int, b: int, lip: float, lip_bar: float,
                       iters: int, seed: int = 0) -> SolverParams:
    """Parameter-free preset: p = 1/M, gamma = p + 1/sqrt(M), alpha at the bound."""
    if m < 4:
        raise PremiseViolationError(
            f"corollary31 preset needs M >= 4 so that gamma = 1/M + 1/sqrt(M) < 1; got M={m}"
        )
    p = 1.0 / m
    gamma = p + 1.0 / math.sqrt(m)
    alpha = monotone_step_bound(gamma, p, b, lip, lip_bar)
    return SolverParams(gamma=gamma, p=p, alpha=alpha, b=b, iters=iters,
                        seed=seed, preset="corollary31")


def preset_example41(n: int, b: int, lip: float, lip_bar: float,
                     iters: int, seed: int = 0) -> SolverParams:
    """Matrix-game preset keyed to the block dimension n (not to M = n^2)."""
    if n < 3:
        raise PremiseViolationError(
            f"example41 preset needs n >= 3 so that gamma = 1/n + 1/sqrt(n) < 1; got n={n}"
        )
    p = 1.0 / n
    gamma = p + 1.0 / math.sqrt(n)
    alpha = monotone_step_bound(gamma, p, b, lip, lip_bar)
    return SolverParams(gamma=gamma, p=p, alpha=alpha, b=b, iters=iters,
                        seed=seed, preset="example41")


def preset_example42(variant: str, rho: float | None = None, iters: int = 15000,
                     seed: int = 0) -> SolverParams:
    """Presets for the regularized-game experiment.

    alg11 (0 < p < 1) derives alpha from the weak Minty modulus rho:
    alpha = 8*rho / (1 - (1 - p) / (1.63 * (gamma - p))).  alg12 uses the
    anchor-every-step variant gamma = p = 1 with a fixed alpha.
    """
    if variant == "alg11":
        gamma, p, b = 0.94, 0.82, 15
        if rho is None or rho <= 0.0:
            raise ParameterError("alg11 preset needs the problem's rho > 0")
        denom = 1.0 - (1.0 - p) / (1.63 * (gamma - p))
        if denom <= 0.0:
            raise PremiseViolationError(
                "alg11 preset needs 1 - (1 - p) / (1.63 * (gamma - p)) > 0"
            )
        return SolverParams(gamma=gamma, p=p, alpha=8.0 * rho / denom, b=b,
                            iters=iters, seed=seed, preset="example42-alg11")
    if variant == "alg12":
        return SolverParams(gamma=1.0, p=1.0, alpha=0.015, b=15, iters=iters,
                            seed=seed, preset="example42-alg12")
    raise ParameterError(f"unknown variant {variant!r}; expected 'alg11' or 'alg12'")


def check_alpha_bound(params: SolverParams, lip: float, lip_bar: float) -> None:
    """Warn (not fail) when alpha exceeds the ergodic-guarantee step bound."""
    if not (0.0 < params.p < 1.0 and params.p < params.gamma < 1.0):
        return
    bound = monotone_step_bound(params.gamma, params.p, params.b, lip, lip_bar)
    if params.alpha > bound * (1.0 + 1e-12):
        warnings.warn(
            f"alpha={params.alpha!r} exceeds the guaranteed step bound {bound!r} "
            f"for gamma={params.gamma!r}, p={params.p!r}, b={params.b}; "
            "running anyway",
            RuntimeWarning,
            stacklevel=2,
        )


@dataclass(frozen=True)
class VrForbParams:
    """Parameters of the reflected single-index baseline."""

    tau: float
    p: float
    iters: int
    seed: int = 0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if not (0.0 < self.p <= 1.0):
            raise ParameterError(f"p must lie in (0, 1], got {self.p}")
        if self.iters < 0:
            raise ParameterError(f"iters must be >= 0, got {self.iters}")


def preset_vr_forb(n: int, lip: float, iters: int, seed: int = 0) -> VrForbParams:
    """Baseline preset p = 8.15/sqrt(n), tau = (1 - sqrt(1 - p)) / (3 L^2)."""
    p = 8.15 / math.sqrt(n)
    if not p < 1.0:
        raise ParameterError(
            f"vr-forb preset needs 8.15/sqrt(n) < 1, got {p} for n={n}; pass tau and p explicitly"
        )
    tau = (1.0 - math.sqrt(1.0 - p)) / (3.0 * lip * lip)
    return VrForbParams(tau=tau, p=p, iters=iters, seed=seed)


# ---------------------------------------------------------------------------
# Main iteration.
# ---------------------------------------------------------------------------

@dataclass
class SolverState:
    """Mutable run state.

    ``memo_cur`` caches the full operator value at ``x_cur`` when known
    (None otherwise).  ``x_prev2`` holds the pre-step previous iterate
    and ``delta_last`` the last direction, both needed by residual
    diagnostics.
    """

    x_cur: BlockVector
    x_prev: BlockVector
    w_cur: BlockVector
    w_prev: BlockVector
    f_w: DualVector
    rng: np.random.Generator
    counters: OracleCounters = field(default_factory=OracleCounters)
    memo_cur: DualVector | None = None
    x_prev2: BlockVector | None = None
    delta_last: DualVector | None = None
    iteration: int = 0
    sampled_iterations: int = 0
    anchor_refreshes: int = 0


def init_state(problem: FiniteSumProblem, params: SolverParams | VrForbParams,
               start: BlockVector | None = None) -> SolverState:
    """All iterates and anchors start at the same point; one full evaluation."""
    x0 = uniform_start(problem.geometry) if start is None else start.copy()
    check_layout(problem.geometry, x0, "start")
    counters = OracleCounters()
    f0 = full_eval(problem, x0, counters)
    return SolverState(
        x_cur=x0, x_prev=x0.copy(), w_cur=x0.copy(), w_prev=x0.copy(),
        f_w=f0, rng=np.random.default_rng(params.seed), counters=counters,
        memo_cur=f0,
    )


def _advance(state: SolverState, x_next: BlockVector, w_next: BlockVector,
             f_w_next: DualVector, memo_next: DualVector | None,
             delta: DualVector) -> SolverState:
    """Shift iterates and anchors by one step and store the new memo."""
    state.x_prev2, state.x_prev, state.x_cur = state.x_prev, state.x_cur, x_next
    state.w_prev, state.w_cur = state.w_cur, w_next
    state.f_w = f_w_next
    state.memo_cur = memo_next
    state.delta_last = delta
    state.iteration += 1
    return state


def step(state: SolverState, problem: FiniteSumProblem,
         params: SolverParams) -> SolverState:
    """One iteration; mutates and returns the state.

    Randomness order: distribution, batch, coin.  When x_cur equals the
    previous anchor w_prev entry by entry, the sampled difference is zero:
    delta is a copy of the anchor value f_w and the coin is the only draw.
    """
    if (state.x_cur.data == state.w_prev.data).all():
        delta = state.f_w.copy()
    else:
        dist = make_distribution(problem, state.x_cur, state.w_prev)
        batch = sample_batch(dist, params.b, state.rng)
        state.sampled_iterations += 1
        delta = estimator_delta(state.f_w, problem, state.x_cur, state.w_prev,
                                batch, dist, state.counters)

    x_next = fused_inertial_prox(problem.geometry, state.x_cur, state.x_prev,
                                 params.gamma, delta, params.alpha)

    if float(state.rng.random()) < params.p:
        state.anchor_refreshes += 1
        f_w_next = full_eval(problem, x_next, state.counters)
        return _advance(state, x_next, x_next, f_w_next, f_w_next, delta)
    if state.memo_cur is None:
        state.memo_cur = full_eval(problem, state.x_cur, state.counters)
    return _advance(state, x_next, state.x_cur, state.memo_cur, None, delta)


def _vr_forb_step(state: SolverState, problem: FiniteSumProblem,
                  params: VrForbParams,
                  uniform: OracleSampleDistribution) -> SolverState:
    """One reflected step with a single uniform index and a sticky anchor."""
    batch = sample_batch(uniform, 1, state.rng)
    state.sampled_iterations += 1
    delta = estimator_delta(state.f_w, problem, state.x_cur, state.w_prev,
                            batch, uniform, state.counters)
    x_next = fused_inertial_prox(problem.geometry, state.x_cur, state.x_cur, 1.0,
                                 delta, params.tau)
    if float(state.rng.random()) < params.p:
        state.anchor_refreshes += 1
        f_w_next = full_eval(problem, x_next, state.counters)
        return _advance(state, x_next, x_next, f_w_next, f_w_next, delta)
    return _advance(state, x_next, state.w_cur, state.f_w, None, delta)


@dataclass
class TraceRecord:
    iteration: int
    component_calls: int
    full_evals: int
    metrics: dict[str, float]
    wall_ms: float = 0.0


@dataclass
class RunTrace:
    records: list[TraceRecord]
    final_state: SolverState
    ergodic: BlockVector

    def metric_series(self, name: str) -> list[tuple[int, float]]:
        return [(r.iteration, r.metrics[name]) for r in self.records if name in r.metrics]


@dataclass
class MetricContext:
    """Everything a metric callable may need at a logging point."""

    problem: FiniteSumProblem
    params: object
    state: SolverState
    point: BlockVector
    ergodic: BlockVector
    iteration: int


def _drive(problem: FiniteSumProblem, params: SolverParams | VrForbParams,
           start: BlockVector | None, advance, metric_fns: dict | None,
           log_stride: int, timing: bool) -> RunTrace:
    """Shared loop: ``advance(state)`` once per iteration, logging every
    ``log_stride`` steps.

    Iteration 0 (the common start) is always logged, as is the final
    iteration.  The ergodic point is the running average of the iterates
    produced so far (the start itself at iteration 0).  Wall times are
    reported as 0.0 unless ``timing`` is set, keeping traces byte-stable.
    A non-finite iterate at a logging point raises DivergenceError; both
    prox maps keep a non-finite iterate non-finite, so checking at the
    logging points misses no divergence.  Each step runs with numpy's
    overflow and invalid-value warnings silenced: the DivergenceError is
    the report.  Metrics and the ergodic sum still warn.
    """
    if log_stride < 1:
        raise ParameterError(f"log_stride must be >= 1, got {log_stride}")
    metric_fns = {} if metric_fns is None else metric_fns
    state = init_state(problem, params, start)
    ergodic_sum = BlockVector.zeros(problem.geometry.block_dims)
    records: list[TraceRecord] = []
    t0 = time.perf_counter()

    def log(it: int, ergodic: BlockVector) -> None:
        if not all(np.isfinite(block).all() for block in state.x_cur.blocks):
            raise DivergenceError(
                f"iterate has non-finite entries at iteration {it}; "
                "the step size is too large for this problem"
            )
        wall_ms = (time.perf_counter() - t0) * 1000.0 if timing else 0.0
        ctx = MetricContext(problem, params, state, state.x_cur, ergodic, it)
        records.append(TraceRecord(
            iteration=it,
            component_calls=state.counters.component_calls,
            full_evals=state.counters.full_evals,
            metrics={name: float(fn(ctx)) for name, fn in metric_fns.items()},
            wall_ms=wall_ms,
        ))

    log(0, state.x_cur.copy())
    for s in range(params.iters):
        with np.errstate(over="ignore", invalid="ignore"):
            advance(state)
        ergodic_sum.add_scaled_(state.x_cur, 1.0)
        it = s + 1
        if it % log_stride == 0 or it == params.iters:
            log(it, ergodic_sum.scaled(1.0 / it))

    final_ergodic = (ergodic_sum.scaled(1.0 / params.iters)
                     if params.iters > 0 else state.x_cur.copy())
    return RunTrace(records=records, final_state=state, ergodic=final_ergodic)


def run(problem: FiniteSumProblem, params: SolverParams, *,
        start: BlockVector | None = None,
        metric_fns: dict | None = None,
        log_stride: int = 100,
        timing: bool = False) -> RunTrace:
    """Run the main iteration through the shared loop (see ``_drive``)."""
    # The step bound belongs to the monotone ergodic guarantee; other
    # regimes use deliberately larger steps, so no warning there.
    if problem.tag == "monotone":
        check_alpha_bound(params, problem.lip, problem.lip_bar)
    return _drive(problem, params, start, lambda st: step(st, problem, params),
                  metric_fns, log_stride, timing)


# ---------------------------------------------------------------------------
# Reflected single-index baseline.
# ---------------------------------------------------------------------------

def run_vr_forb(problem: FiniteSumProblem, params: VrForbParams, *,
                start: BlockVector | None = None,
                metric_fns: dict | None = None,
                log_stride: int = 100,
                timing: bool = False) -> RunTrace:
    """Forward-reflected-backward iteration with a sticky random anchor.

    Direction F(w_s) + F_i(x_s) - F_i(w_prev) with a single uniformly
    drawn component index; the anchor moves to x_next with probability p
    and otherwise stays at w_s (it does not fall back to x_s).  Prox
    steps are plain (no inertial mixing), with step size tau.  Every
    step draws its index, the first one included.
    """
    uniform = OracleSampleDistribution(
        r=np.full(problem.n_rows, 1.0 / problem.n_rows),
        c=np.full(problem.n_cols, 1.0 / problem.n_cols),
    )
    return _drive(problem, params, start,
                  lambda st: _vr_forb_step(st, problem, params, uniform),
                  metric_fns, log_stride, timing)

