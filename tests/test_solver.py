"""Main iteration: determinism, randomness order, accounting, presets."""

import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from bvrvi.errors import ParameterError, PremiseViolationError
from bvrvi.geometry import (
    EUCLIDEAN_BALL,
    BlockVector,
    GeometrySpec,
    fused_inertial_prox,
    uniform_start,
)
from bvrvi.operators import (
    AffineStrongOperator,
    build_linear_rate_fixture,
    build_matrix_game,
    build_regularized_game,
    make_distribution,
    sample_batch,
)
from bvrvi.solver import (
    VR_FORB,
    SolverParams,
    check_alpha_bound,
    init_state,
    monotone_step_bound,
    preset_corollary31,
    preset_example41,
    preset_example42,
    preset_vr_forb,
    run,
)


def _tiny_affine(m=2, d=2, mu=1.0):
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((d, d))
    skew = 0.05 * (mat - mat.T)
    perts = [skew, -skew] * (m // 2)
    geo = GeometrySpec(EUCLIDEAN_BALL, (d,), radius=1.0)
    return AffineStrongOperator(mu * np.eye(d), rng.standard_normal(d) * 0.1,
                                mu, perts, geo)


def _capture_metric(store):
    def fn(ctx):
        store.append((ctx.iteration, ctx.point.copy(), ctx.state.w_cur.copy(),
                      ctx.ergodic.copy()))
        return 0.0
    return fn


# ---------------------------------------------------------------------------
# Determinism and reproducibility.
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_trace_exactly():
    problem = build_matrix_game(6, 3)
    params = SolverParams(gamma=0.5, p=0.2, alpha=0.02, b=2, iters=200, seed=4)
    fns = {"gap_probe": lambda ctx: float(ctx.point.blocks[0][0])}
    t1 = run(problem, params, metric_fns=fns, log_stride=50)
    t2 = run(problem, params, metric_fns=fns, log_stride=50)
    assert [r.metrics for r in t1.records] == [r.metrics for r in t2.records]
    assert np.array_equal(t1.final_state.x_cur.data, t2.final_state.x_cur.data)
    t3 = run(problem, SolverParams(gamma=0.5, p=0.2, alpha=0.02, b=2, iters=200,
                                   seed=5),
             metric_fns=fns, log_stride=50)
    assert not np.allclose(t1.final_state.x_cur.data, t3.final_state.x_cur.data,
                           rtol=1e-12, atol=0.0)


def test_wall_ms_zero_without_timing():
    problem = build_matrix_game(4, 0)
    params = SolverParams(gamma=0.5, p=0.2, alpha=0.01, b=1, iters=30)
    trace = run(problem, params, log_stride=10)
    assert all(r.wall_ms == 0.0 for r in trace.records)
    timed = run(problem, params, log_stride=10, timing=True)
    assert timed.records[-1].wall_ms > 0.0


# ---------------------------------------------------------------------------
# One-step replication: randomness order and update rule.
# ---------------------------------------------------------------------------

def test_step_replicates_documented_randomness_order():
    """Manual re-execution: distribution, batch (2b draws), coin."""
    problem = build_matrix_game(3, 7)
    geo = problem.geometry
    params = SolverParams(gamma=0.6, p=0.5, alpha=0.05, b=2, iters=3, seed=9)
    store = []
    run(problem, params, metric_fns={"c": _capture_metric(store)}, log_stride=1)
    points = {it: pt for it, pt, _, _ in store}
    anchors = {it: w for it, _, w, _ in store}

    rng = np.random.default_rng(9)
    x_prev = x_cur = uniform_start(geo)
    w_cur = w_prev = x_cur
    f_w = problem.full(x_cur)
    memo = {0: f_w}  # full values at the start and at refresh steps, keyed by step
    produced = {}
    for s in range(3):
        if np.array_equal(x_cur.data, w_prev.data):
            delta = f_w
        else:
            dist = make_distribution(problem, x_cur, w_prev)
            batch = sample_batch(dist, params.b, rng)
            acc = BlockVector.zeros(geo.block_dims)
            for xi in batch:
                acc.data += problem.component(xi, x_cur, dist).data
                acc.data -= problem.component(xi, w_prev, dist).data
            delta = f_w + acc.scaled(1.0 / params.b)
        x_next = fused_inertial_prox(geo, x_cur, x_prev, params.gamma, delta,
                                     params.alpha)
        heads = float(rng.random()) < params.p
        if heads:
            w_next, f_w = x_next, problem.full(x_next)
        else:
            w_next = x_cur
            f_w = memo[s] if s in memo else problem.full(x_cur)
        if heads:
            memo[s + 1] = f_w
        x_prev, x_cur = x_cur, x_next
        w_prev, w_cur = w_cur, w_next
        produced[s + 1] = (x_next, w_next)

    for it in (1, 2, 3):
        x_ref, w_ref = produced[it]
        assert np.array_equal(points[it].data, x_ref.data)
        assert np.array_equal(anchors[it].data, w_ref.data)


def test_first_step_skips_sampling_entirely():
    """x_0 = w_{-1}, so the sampled difference is zero: the first random
    draw is the anchor coin, not a batch index, and delta is a copy of
    the anchor value F(x_0)."""
    problem = _tiny_affine()
    params = SolverParams(gamma=0.9, p=0.55, alpha=0.1, b=3, iters=1, seed=31)
    state = init_state(problem, params)
    anchor = state.f_w
    from bvrvi.solver import step
    step(state, problem, params)
    expected_heads = float(np.random.default_rng(31).random()) < params.p
    assert (state.anchor_refreshes == 1) == expected_heads
    assert state.sampled_iterations == 0
    assert state.delta_last.data.tobytes() == anchor.data.tobytes()
    assert state.delta_last is not anchor
    assert not np.shares_memory(state.delta_last.data, anchor.data)


# ---------------------------------------------------------------------------
# Anchor law and memoization economics.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def long_anchor_run():
    problem = _tiny_affine()
    params = SolverParams(gamma=0.9, p=0.3, alpha=0.3, b=1, iters=100_000, seed=12)
    trace = run(problem, params, log_stride=100_000)
    return params, trace.final_state


def test_anchor_refresh_frequency_matches_p(long_anchor_run):
    params, state = long_anchor_run
    n = state.iteration
    rate = state.anchor_refreshes / n
    se = math.sqrt(params.p * (1.0 - params.p) / n)
    assert rate == pytest.approx(params.p, abs=4.0 * se)


def test_fresh_full_eval_rate_matches_memoized_law(long_anchor_run):
    """Fresh full evaluations happen on heads, or on tails following
    tails; memoization removes the rest.  Long-run rate p + (1-p)^2."""
    params, state = long_anchor_run
    n = state.iteration
    fresh = (state.counters.full_evals - 1) / n  # discount the init eval
    q = params.p + (1.0 - params.p) ** 2
    se = math.sqrt(q * (1.0 - q) / n)
    assert fresh == pytest.approx(q, abs=4.0 * se + 2.0 / n)


def test_component_call_accounting_identity():
    problem = build_matrix_game(5, 2)
    m = problem.num_components
    params = SolverParams(gamma=0.5, p=0.25, alpha=0.02, b=3, iters=500, seed=6)
    state = run(problem, params, log_stride=500).final_state
    assert state.counters.component_calls == (
        state.counters.full_evals * m + 2 * params.b * state.sampled_iterations)


def test_all_tails_anchor_falls_back_to_current_iterate():
    problem = build_matrix_game(4, 11)
    params = SolverParams(gamma=0.5, p=1e-12, alpha=0.02, b=2, iters=6, seed=0)
    store = []
    run(problem, params, metric_fns={"c": _capture_metric(store)}, log_stride=1)
    # After each step the anchor is the pre-step iterate, i.e. x_prev.
    pts = [pt for _, pt, _, _ in store]
    anchors = [w for _, _, w, _ in store]
    for it in range(1, 7):
        assert np.array_equal(anchors[it].data, pts[it - 1].data)
    # Memo economics: the s = 0 fallback hits the cached start value, every
    # later fallback needs one fresh full evaluation.
    trace = run(problem, params, log_stride=6)
    assert trace.final_state.counters.full_evals == 1 + (params.iters - 1)


def test_vr_forb_anchor_sticks_instead_of_falling_back():
    problem = build_matrix_game(4, 11)
    params = SolverParams(**VR_FORB, p=1e-12, alpha=0.02, iters=8, seed=3)
    trace = run(problem, params, log_stride=8)
    state = trace.final_state
    assert np.array_equal(state.w_cur.data, uniform_start(problem.geometry).data)
    assert state.counters.full_evals == 1
    # The first step draws nothing (x_0 = w_{-1}); each later one draws one index.
    assert state.sampled_iterations == 7
    assert state.counters.component_calls == 1 * problem.num_components + 2 * 7


@pytest.mark.parametrize("build, n, start_value", [(build_matrix_game, 5, None),
                                                   (build_regularized_game, 6, 1.0)])
def test_vr_forb_params_reproduce_reference_loop(build, n, start_value):
    """The main step with the vr-forb settings is the reflected
    single-index loop, bit for bit, on both games."""
    problem = build(n)
    start = (None if start_value is None
             else BlockVector.full(problem.geometry.block_dims, start_value))
    iters = 50
    for seed, p in ((0, 0.3), (7, 0.8)):
        params = SolverParams(**VR_FORB, p=p, alpha=0.05, iters=iters, seed=seed)
        store = []
        trace = run(problem, params, start=start, metric_fns={"c": _capture_metric(store)},
                    log_stride=1)
        iterates, anchors, full_evals, sampled = helpers.vr_forb_reference(
            problem, 0.05, p, iters, seed, start)
        for (it, pt, w, _), x_ref, w_ref in zip(store[1:], iterates, anchors, strict=True):
            assert pt.data.tobytes() == x_ref.data.tobytes(), it
            assert w.data.tobytes() == w_ref.data.tobytes(), it
        state = trace.final_state
        assert 0 < state.anchor_refreshes < iters
        assert (state.counters.full_evals, state.sampled_iterations) == (full_evals, sampled)
        assert sampled == iters - 1


# ---------------------------------------------------------------------------
# Reductions and reference solvers.
# ---------------------------------------------------------------------------

def test_iterates_become_feasible_after_one_step():
    problem = build_regularized_game(8)
    start = BlockVector.full(problem.geometry.block_dims, 1.0)
    assert not helpers.is_feasible(problem.geometry, start)
    params = SolverParams(gamma=1.0, p=1.0, alpha=0.01, b=4, iters=3, seed=0)
    store = []
    run(problem, params, start=start, metric_fns={"c": _capture_metric(store)},
        log_stride=1)
    for it, pt, _, _ in store:
        if it >= 1:
            assert helpers.is_feasible(problem.geometry, pt)


def test_ergodic_average_is_mean_of_produced_iterates():
    """alg1 and vr-forb settings run through one loop: logging points,
    ergodic mean and log_stride validation behave the same."""
    problem = build_matrix_game(4, 5)
    for params in (SolverParams(gamma=0.5, p=0.3, alpha=0.02, b=1, iters=7, seed=1),
                   SolverParams(**VR_FORB, p=0.3, alpha=0.02, iters=7, seed=1)):
        with pytest.raises(ParameterError, match="log_stride"):
            run(problem, params, log_stride=0)
        store = []
        trace = run(problem, params, metric_fns={"c": _capture_metric(store)},
                    log_stride=3)
        pts = {it: pt for it, pt, _, _ in store}
        assert sorted(pts) == [0, 3, 6, 7]
        again = []
        run(problem, params, metric_fns={"c": _capture_metric(again)}, log_stride=1)
        all_pts = [pt for _, pt, _, _ in again]
        mean7 = BlockVector.zeros(problem.geometry.block_dims)
        for pt in all_pts[1:]:
            mean7.data += (1.0 / 7.0) * pt.data
        assert np.allclose(trace.ergodic.data, mean7.data, rtol=1e-12, atol=1e-15)
        erg3 = {it: e for it, _, _, e in store}[3]
        mean3 = BlockVector.zeros(problem.geometry.block_dims)
        for pt in all_pts[1:4]:
            mean3.data += (1.0 / 3.0) * pt.data
        assert np.allclose(erg3.data, mean3.data, rtol=1e-12, atol=1e-15)
        # Strides that do not divide iters: the multiples of the stride,
        # then the last iteration; each ergodic point is the running sum of
        # every produced iterate, scaled once.
        for iters, stride in ((30, 7), (7, 30)):
            longer = replace(params, iters=iters)
            logged, every = [], []
            trace = run(problem, longer, metric_fns={"c": _capture_metric(logged)},
                        log_stride=stride)
            run(problem, longer, metric_fns={"c": _capture_metric(every)}, log_stride=1)
            assert [it for it, _, _, _ in logged] == \
                sorted({*range(0, iters + 1, stride), iters})
            acc = np.zeros(every[0][1].data.size)
            sums = {}
            for it, pt, _, _ in every[1:]:
                acc += pt.data
                sums[it] = acc * (1.0 / it)
            for it, _, _, erg in logged[1:]:
                assert erg.data.tobytes() == sums[it].tobytes()
            assert trace.ergodic.data.tobytes() == sums[iters].tobytes()


def test_zero_iteration_run_logs_start_only():
    problem = build_matrix_game(3, 1)
    params = SolverParams(gamma=0.5, p=0.5, alpha=0.01, b=1, iters=0)
    trace = run(problem, params)
    assert len(trace.records) == 1
    assert trace.records[0].iteration == 0
    assert np.allclose(trace.ergodic.data, uniform_start(problem.geometry).data,
                       rtol=1e-12, atol=0.0)


def test_metric_series_selects_by_name():
    problem = build_matrix_game(3, 1)
    params = SolverParams(gamma=0.5, p=0.5, alpha=0.01, b=1, iters=10)
    trace = run(problem, params, metric_fns={"one": lambda ctx: 1.0},
                log_stride=5)
    assert trace.metric_series("one") == [(0, 1.0), (5, 1.0), (10, 1.0)]
    assert trace.metric_series("absent") == []


def test_extragradient_finds_fixture_solutions():
    for variant in ("p-lt-1", "p-eq-1"):
        problem, _ = build_linear_rate_fixture(variant)
        z = helpers.extragradient_solve(problem, tol=1e-12)
        assert np.linalg.norm((z - problem.solution).data) <= 1e-9


# ---------------------------------------------------------------------------
# Parameters and presets.
# ---------------------------------------------------------------------------

def test_solver_params_validation():
    good = dict(gamma=0.5, p=0.5, alpha=0.1, b=1, iters=1)
    SolverParams(**good)
    for bad in (dict(gamma=0.0), dict(gamma=1.5), dict(p=0.0), dict(p=1.1),
                dict(alpha=0.0), dict(b=0), dict(iters=-1),
                dict(preset="nonsense"), dict(anchor="nonsense")):
        with pytest.raises(ParameterError):
            SolverParams(**{**good, **bad})
    # vr-forb's step size tau is alpha, checked by the same rules.
    SolverParams(**VR_FORB, p=0.5, alpha=0.1, iters=1)
    for bad in (dict(alpha=0.0), dict(p=0.0), dict(iters=-1)):
        with pytest.raises(ParameterError):
            SolverParams(**{**VR_FORB, **dict(p=0.5, alpha=0.1, iters=1), **bad})


def test_monotone_step_bound_frozen():
    # min(0.1/1.98, 0.89*2/(0.99*4)) with L = Lbar = 1.
    bound = monotone_step_bound(0.11, 0.01, 2, 1.0, 1.0)
    assert bound == pytest.approx(0.1 / 1.98, rel=1e-15)
    assert bound == pytest.approx(helpers.alt_step_bound(0.11, 0.01, 2, 1.0, 1.0),
                                  rel=1e-14)
    with pytest.raises(ParameterError):
        monotone_step_bound(0.5, 0.6, 1, 1.0, 1.0)


def test_preset_corollary31_frozen_value():
    params = preset_corollary31(100, 2, 1.0, 1.0, iters=10)
    assert params.p == pytest.approx(0.01, rel=1e-15)
    assert params.gamma == pytest.approx(0.11, rel=1e-15)
    assert params.alpha == pytest.approx(0.05050505050505051, rel=1e-13)
    assert params.preset == "corollary31"
    with pytest.raises(PremiseViolationError, match="M >= 4"):
        preset_corollary31(3, 2, 1.0, 1.0, iters=10)


def test_preset_example41_frozen_value():
    problem = build_matrix_game(100, 0)
    params = preset_example41(100, 2, problem.lip, problem.lip_bar, iters=10)
    assert params.p == pytest.approx(0.01, rel=1e-15)
    assert params.gamma == pytest.approx(0.11, rel=1e-15)
    assert params.alpha == pytest.approx(0.029561359387646417, rel=1e-12)
    with pytest.raises(PremiseViolationError, match="n >= 3"):
        preset_example41(2, 2, 1.0, 1.0, iters=10)


def test_preset_example42_variants():
    problem = build_regularized_game(100)
    alg11 = preset_example42("alg11", rho=problem.rho)
    assert (alg11.gamma, alg11.p, alg11.b) == (0.94, 0.82, 15)
    assert alg11.alpha == pytest.approx(0.010030759200010075, rel=1e-12)
    alg12 = preset_example42("alg12")
    assert (alg12.gamma, alg12.p, alg12.alpha, alg12.b) == (1.0, 1.0, 0.015, 15)
    with pytest.raises(ParameterError):
        preset_example42("alg11", rho=None)
    with pytest.raises(ParameterError):
        preset_example42("alg13")


def test_preset_vr_forb_frozen_value():
    lip = 3.899421730054339  # largest |A_ij| of the seed-0 game at n = 100
    params = preset_vr_forb(100, lip, iters=10)
    assert params.p == pytest.approx(0.815, rel=1e-15)
    assert params.alpha == pytest.approx(
        (1.0 - math.sqrt(0.185)) / (3.0 * lip * lip), rel=1e-14)
    assert (params.gamma, params.b, params.anchor, params.uniform, params.preset) == \
        (1.0, 1, "sticky", True, "vr-forb")
    with pytest.raises(ParameterError):
        preset_vr_forb(16, 1.0, iters=10)


def test_alpha_bound_warning_fires_for_monotone_only():
    problem = build_matrix_game(5, 1)
    loose = SolverParams(gamma=0.5, p=0.25, alpha=0.5, b=1, iters=1)
    with pytest.warns(RuntimeWarning, match="step bound"):
        run(problem, loose, log_stride=1)
    with pytest.warns(RuntimeWarning):
        check_alpha_bound(loose, problem.lip, problem.lip_bar)
    fixture, fp = build_linear_rate_fixture("p-lt-1")
    params = SolverParams(gamma=fp["gamma"], p=fp["p"], alpha=fp["alpha"],
                          b=fp["b"], iters=1)
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        run(fixture, params, log_stride=1)
