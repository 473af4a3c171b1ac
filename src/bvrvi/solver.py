"""Single-loop variance-reduced Bregman solver for finite-sum VIs.

The main iteration keeps two primal iterates (current and previous), a
randomized anchor w with its cached full operator value, and produces

    x_next = argmin_{z in K} { <alpha * delta, z>
                               + gamma * D(z, x_cur) + (1 - gamma) * D(z, x_prev) }

where delta is the variance-reduced direction built from the anchor and a
minibatch of component differences.  After the step the anchor moves to
x_next with probability p.  Otherwise the ``fallback`` rule moves it to
the current iterate x_cur; only F(x_cur) is memoized, and only when x_cur
is the start or the anchor of a refresh step, so a fallback right after
a refresh reuses it and any other fallback evaluates F(x_cur) afresh,
for a long-run fresh-evaluation rate of p + (1 - p)^2.  The ``sticky``
rule keeps the anchor where it is, so only heads evaluate (rate p).

Per-iteration randomness is consumed in a fixed order: sampling
distribution (no draws), then the component batch (2*b uniforms), then
the anchor coin (one uniform).  A step whose iterate equals the previous
anchor entry by entry (always the first step) has an identically zero
sampled difference: delta is the anchor value, no distribution or batch
is built, and only the anchor coin is drawn.  Runs with equal
parameters and seed are bit-for-bit reproducible.

The variance-reduced forward-reflected-backward baseline (vr-forb) is
this same step with the settings ``VR_FORB``: gamma = 1 (no inertial
mixing), b = 1, alpha = tau, the sticky anchor and uniform single-index
sampling.  ``run`` is the one loop for every method.
"""

from __future__ import annotations

import functools
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

PRESET_TAGS = ("manual", "corollary31", "example41", "example42-alg11", "example42-alg12",
               "vr-forb")
ANCHOR_RULES = ("fallback", "sticky")


@dataclass(frozen=True)
class SolverParams:
    """Step-size and sampling parameters of the main iteration; ``anchor``
    and ``uniform`` leave their defaults only in ``VR_FORB``."""

    gamma: float
    p: float
    alpha: float
    b: int
    iters: int
    seed: int = 0
    preset: str = "manual"
    anchor: str = "fallback"
    uniform: bool = False

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
        if self.anchor not in ANCHOR_RULES:
            raise ParameterError(f"unknown anchor rule {self.anchor!r}; expected {ANCHOR_RULES}")


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


#: What each sqrt preset is keyed to: tag -> (name of k, least admissible k).
_SQRT_PRESET_K = {"corollary31": ("M", 4), "example41": ("n", 3)}


def check_sqrt_premise(tag: str, k: int) -> None:
    """Refuse a sqrt preset whose k is too small for gamma = 1/k + 1/sqrt(k) < 1.

    The premise depends on k alone, so a caller can check it before the
    problem is built.
    """
    k_name, k_min = _SQRT_PRESET_K[tag]
    if k < k_min:
        raise PremiseViolationError(
            f"{tag} preset needs {k_name} >= {k_min} so that "
            f"gamma = 1/{k_name} + 1/sqrt({k_name}) < 1; got {k_name}={k}"
        )


def _sqrt_preset(k: int, tag: str, b: int, lip: float, lip_bar: float,
                 iters: int, seed: int) -> SolverParams:
    """p = 1/k, gamma = p + 1/sqrt(k), alpha at the step bound (see check_sqrt_premise)."""
    check_sqrt_premise(tag, k)
    p = 1.0 / k
    gamma = p + 1.0 / math.sqrt(k)
    alpha = monotone_step_bound(gamma, p, b, lip, lip_bar)
    return SolverParams(gamma=gamma, p=p, alpha=alpha, b=b, iters=iters,
                        seed=seed, preset=tag)


def preset_corollary31(m: int, b: int, lip: float, lip_bar: float,
                       iters: int, seed: int = 0) -> SolverParams:
    """Parameter-free preset: p = 1/M, gamma = p + 1/sqrt(M), alpha at the bound."""
    return _sqrt_preset(m, "corollary31", b, lip, lip_bar, iters, seed)


def preset_example41(n: int, b: int, lip: float, lip_bar: float,
                     iters: int, seed: int = 0) -> SolverParams:
    """Matrix-game preset keyed to the block dimension n (not to M = n^2)."""
    return _sqrt_preset(n, "example41", b, lip, lip_bar, iters, seed)


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


#: The vr-forb baseline's fixed settings; its step size tau is alpha.
VR_FORB = {"gamma": 1.0, "b": 1, "anchor": "sticky", "uniform": True}


def vr_forb_p(n: int) -> float:
    """The baseline's default anchor probability scale/sqrt(n); it must stay below 1."""
    scale = 8.15
    p = scale / math.sqrt(n)
    if not p < 1.0:
        raise ParameterError(
            f"vr-forb's default p = {scale}/sqrt(n) must be < 1, which needs n >= 67; "
            f"got p={p!r} for n={n}; pass tau and p explicitly"
        )
    return p


def preset_vr_forb(n: int, lip: float, iters: int, seed: int = 0) -> SolverParams:
    """Baseline preset: p = vr_forb_p(n), tau = (1 - sqrt(1 - p)) / (3 L^2)."""
    p = vr_forb_p(n)
    tau = (1.0 - math.sqrt(1.0 - p)) / (3.0 * lip * lip)
    return SolverParams(**VR_FORB, p=p, alpha=tau, iters=iters, seed=seed, preset="vr-forb")


# ---------------------------------------------------------------------------
# Main iteration.
# ---------------------------------------------------------------------------

@dataclass
class SolverState:
    """Mutable run state.

    ``memo_cur`` caches the full operator value at ``x_cur`` when known
    (None otherwise).  ``x_prev2`` holds the pre-step previous iterate
    and ``delta_last`` the last direction, both needed by residual
    diagnostics.  ``uniform_dist`` is the fixed sampling distribution of a
    uniform run (None otherwise).
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
    uniform_dist: OracleSampleDistribution | None = None
    iteration: int = 0
    sampled_iterations: int = 0
    anchor_refreshes: int = 0


def init_state(problem: FiniteSumProblem, params: SolverParams,
               start: BlockVector | None = None) -> SolverState:
    """All iterates and anchors start at the same point; one full evaluation."""
    x0 = uniform_start(problem.geometry) if start is None else start.copy()
    check_layout(problem.geometry, x0, "start")
    counters = OracleCounters()
    f0 = full_eval(problem, x0, counters)
    uniform = (OracleSampleDistribution(r=np.full(problem.n_rows, 1.0 / problem.n_rows),
                                        c=np.full(problem.n_cols, 1.0 / problem.n_cols))
               if params.uniform else None)
    return SolverState(
        x_cur=x0, x_prev=x0.copy(), w_cur=x0.copy(), w_prev=x0.copy(),
        f_w=f0, rng=np.random.default_rng(params.seed), counters=counters,
        memo_cur=f0, uniform_dist=uniform,
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
    if not np.count_nonzero(state.x_cur.data != state.w_prev.data):
        delta = state.f_w.copy()
    else:
        dist = state.uniform_dist or make_distribution(problem, state.x_cur, state.w_prev)
        batch = sample_batch(dist, params.b, state.rng)
        state.sampled_iterations += 1
        delta = estimator_delta(state.f_w, problem, state.x_cur, state.w_prev,
                                batch, dist, state.counters)

    x_next = fused_inertial_prox(problem.geometry, state.x_cur, state.x_prev,
                                 params.gamma, delta, params.alpha)

    if state.rng.random() < params.p:
        state.anchor_refreshes += 1
        f_w_next = full_eval(problem, x_next, state.counters)
        return _advance(state, x_next, x_next, f_w_next, f_w_next, delta)
    if params.anchor == "sticky":
        return _advance(state, x_next, state.w_cur, state.f_w, None, delta)
    if state.memo_cur is None:
        state.memo_cur = full_eval(problem, state.x_cur, state.counters)
    return _advance(state, x_next, state.x_cur, state.memo_cur, None, delta)


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


@dataclass
class MetricContext:
    """Everything a metric callable may need at a logging point.

    ``ergodic`` is ``ergodic_sum / ergodic_count``, built on its first
    read, so a metric set that never reads it never pays for it.  The sum
    is the solver's running one: read ``ergodic`` during the metric call.
    """

    problem: FiniteSumProblem
    params: SolverParams
    state: SolverState
    point: BlockVector
    iteration: int
    ergodic_sum: np.ndarray
    ergodic_count: int

    @functools.cached_property
    def ergodic(self) -> BlockVector:
        return BlockVector.wrap(self.ergodic_sum * (1.0 / self.ergodic_count),
                                self.point.block_dims)


def run(problem: FiniteSumProblem, params: SolverParams, *,
        start: BlockVector | None = None,
        metric_fns: dict | None = None,
        log_stride: int = 100,
        timing: bool = False) -> RunTrace:
    """Run ``params.iters`` steps, logging every ``log_stride`` steps.

    Iteration 0 (the common start) is always logged, as is the final
    iteration.  The ergodic point is the running average of the iterates
    produced so far (the start itself at iteration 0).  Wall times are
    reported as 0.0 unless ``timing`` is set, keeping traces byte-stable.
    A non-finite iterate at a logging point raises DivergenceError naming
    the iterations since the last (finite) logging point; both prox maps
    keep a non-finite iterate non-finite, so checking at the logging
    points misses no divergence and keeps the check off the per-step
    path.  One window per logging interval silences numpy's overflow and
    invalid-value warnings over the steps and the ergodic sum (the
    DivergenceError is the report); metrics still warn.  While simplex or
    ball iterates stay finite each entry is at most 1 or the radius, so
    the sum of S iterates cannot overflow.
    """
    if log_stride < 1:
        raise ParameterError(f"log_stride must be >= 1, got {log_stride}")
    # The step bound belongs to the monotone ergodic guarantee; other
    # regimes use deliberately larger steps, so no warning there.
    if problem.tag == "monotone":
        check_alpha_bound(params, problem.lip, problem.lip_bar)
    metric_fns = {} if metric_fns is None else metric_fns
    state = init_state(problem, params, start)
    acc = np.zeros(state.x_cur.data.size)
    records: list[TraceRecord] = []
    t0 = time.perf_counter()

    def log(it: int, total: np.ndarray, count: int) -> MetricContext:
        if not np.isfinite(state.x_cur.data).all():
            first = records[-1].iteration + 1 if records else it
            where = (f"at iteration {it}" if first == it
                     else f"between iterations {first} and {it}")
            raise DivergenceError(
                f"iterate became non-finite {where}; "
                "the step size is too large for this problem"
            )
        wall_ms = (time.perf_counter() - t0) * 1000.0 if timing else 0.0
        ctx = MetricContext(problem, params, state, state.x_cur, it, total, count)
        records.append(TraceRecord(
            iteration=it,
            component_calls=state.counters.component_calls,
            full_evals=state.counters.full_evals,
            metrics={name: float(fn(ctx)) for name, fn in metric_fns.items()},
            wall_ms=wall_ms,
        ))
        return ctx

    # At iteration 0 the ergodic point is the start: x0 * (1/1) copies it.
    ctx = log(0, state.x_cur.data, 1)
    done = 0
    for it in range(log_stride, params.iters + log_stride, log_stride):
        it = min(it, params.iters)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(it - done):
                step(state, problem, params)
                acc += state.x_cur.data
        done = it
        ctx = log(it, acc, it)
    # Nothing has been added to the sum since the last log point.
    return RunTrace(records=records, final_state=state, ergodic=ctx.ergodic)

