"""Gap, residual and distance metrics; guarantee constants and premises."""

import math

import numpy as np
import pytest

import helpers
from bvrvi.errors import DomainError, ParameterError
from bvrvi.geometry import (
    EUCLIDEAN_BALL,
    EUCLIDEAN_FREE,
    BlockVector,
    GeometrySpec,
    dual_norm,
)
from bvrvi.metrics import (
    TheoryBounds,
    distance_to_solution,
    duality_gap,
    natural_residual,
    scaled_norm_residual,
    theory_bounds,
)
from bvrvi.operators import (
    AffineStrongOperator,
    MatrixGameOperator,
    build_linear_rate_fixture,
    build_matrix_game,
    build_regularized_game,
)
from bvrvi.solver import (
    SolverParams,
    preset_example41,
    preset_example42,
    run,
)


# ---------------------------------------------------------------------------
# Duality gap.
# ---------------------------------------------------------------------------

def test_duality_gap_matches_vertex_enumeration():
    """sup_u <F(u), z - u> over the product of simplices is attained at
    vertex pairs; enumerate them as an independent oracle."""
    problem = build_matrix_game(4, 19)
    rng = np.random.default_rng(2)
    n = problem.n
    for _ in range(10):
        z = helpers.random_feasible(problem.geometry, rng)
        best = -math.inf
        for i in range(n):
            for k in range(n):
                u = BlockVector.zeros((n, n))
                u.blocks[0][k] = 1.0
                u.blocks[1][i] = 1.0
                best = max(best, float(problem.full(u).data @ (z - u).data))
        assert duality_gap(problem, z) == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_duality_gap_zero_at_enumerated_equilibrium():
    matching = np.array([[1.0, 0.0], [0.0, 1.0]])
    x, y, value = helpers.solve_small_matrix_game(matching)
    assert value == pytest.approx(0.5, abs=1e-10)
    game = MatrixGameOperator(matching)
    assert duality_gap(game, BlockVector((x, y))) <= 1e-9

    cyclic = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    x, y, value = helpers.solve_small_matrix_game(cyclic)
    assert value == pytest.approx(0.0, abs=1e-10)
    assert x == pytest.approx([1.0 / 3.0] * 3, abs=1e-10)
    game = MatrixGameOperator(cyclic)
    assert duality_gap(game, BlockVector((x, y))) <= 1e-9

    rng = np.random.default_rng(44)
    payoff = rng.standard_normal((3, 3))
    x, y, _ = helpers.solve_small_matrix_game(payoff)
    game = MatrixGameOperator(payoff)
    assert duality_gap(game, BlockVector((x, y))) <= 1e-7
    # Any non-equilibrium point has a positive gap.
    corner = BlockVector(([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
    assert duality_gap(game, corner) > 1e-3


def test_duality_gap_rejects_other_operators():
    problem = build_regularized_game(4)
    with pytest.raises(ParameterError):
        duality_gap(problem, BlockVector.zeros(problem.geometry.block_dims))


# ---------------------------------------------------------------------------
# Residuals and distances.
# ---------------------------------------------------------------------------

def test_scaled_norm_residual_frozen():
    z = BlockVector.full((2, 2), 1.0)
    assert scaled_norm_residual(z, 2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ParameterError):
        scaled_norm_residual(z, 0)


def test_distance_to_solution():
    problem, _ = build_linear_rate_fixture("p-lt-1")
    z = problem.solution + BlockVector.full(problem.geometry.block_dims, 0.1)
    d = 0.1 * math.sqrt(sum(problem.geometry.block_dims))
    assert distance_to_solution(problem, z) == pytest.approx(d, rel=1e-12)
    game = build_matrix_game(3, 0)
    with pytest.raises(ParameterError):
        distance_to_solution(game, helpers.random_feasible(game.geometry,
                                                           np.random.default_rng(0)))


def test_natural_residual_free_geometry_identity():
    """With gamma = 1 on the free space, x+ = x - alpha*delta exactly, so
    the certificate collapses to F(x+)."""
    geo = GeometrySpec(EUCLIDEAN_FREE, (3,))
    rng = np.random.default_rng(14)
    q = rng.standard_normal(3)
    problem = AffineStrongOperator(0.5 * np.eye(3), q, 0.5, [np.zeros((3, 3))], geo)
    params = SolverParams(gamma=1.0, p=1.0, alpha=0.2, b=1, iters=1, seed=0)
    trace = run(problem, params, log_stride=1)
    state = trace.final_state
    res = natural_residual(problem, state, params.gamma, params.alpha)
    assert res == pytest.approx(dual_norm(geo, problem.full(state.x_cur)), rel=1e-12)


def test_natural_residual_vanishes_at_convergence():
    problem, fp = build_linear_rate_fixture("p-eq-1")
    params = SolverParams(gamma=fp["gamma"], p=fp["p"], alpha=fp["alpha"],
                          b=fp["b"], iters=1500, seed=0)
    trace = run(problem, params, log_stride=1500)
    state = trace.final_state
    res = natural_residual(problem, state, params.gamma, params.alpha)
    assert res <= 1e-8


def test_natural_residual_refusals():
    game = build_matrix_game(3, 0)
    params = SolverParams(gamma=0.5, p=0.2, alpha=0.01, b=1, iters=2, seed=0)
    trace = run(game, params, log_stride=1)
    with pytest.raises(DomainError):
        natural_residual(game, trace.final_state, 0.5, 0.01)
    problem, fp = build_linear_rate_fixture("p-lt-1")
    from bvrvi.solver import init_state
    fresh = init_state(problem, SolverParams(gamma=0.5, p=0.5, alpha=0.1, b=1,
                                             iters=0))
    with pytest.raises(ParameterError):
        natural_residual(problem, fresh, 0.5, 0.1)


# ---------------------------------------------------------------------------
# Guarantee constants: frozen values and second-path formulas.
# ---------------------------------------------------------------------------

def _unit_affine_ball():
    geo = GeometrySpec(EUCLIDEAN_BALL, (3,), radius=1.0)
    return AffineStrongOperator(np.eye(3), np.zeros(3), 1.0, [np.zeros((3, 3))], geo)


def test_sigma1_frozen_worked_value():
    # (1-gamma)/(2(1-p)) - (2 a^2 + 5 a^2/2) with rho = 0, L = Lbar = b = 1:
    # 1/3 - 0.045.
    problem = _unit_affine_ball()
    problem.tag = "non-monotone-weak-minty"
    params = SolverParams(gamma=0.5, p=0.25, alpha=0.1, b=1, iters=1)
    bounds = theory_bounds(params, problem)
    assert bounds.checked == ("weak-minty",)
    assert bounds.sigma1 == pytest.approx(0.28833333333333333, abs=1e-15)
    assert bounds.sigma2 == pytest.approx(
        8.0 + 4.0 * 0.5 / (0.75 * 0.01) + 4.0, rel=1e-14)
    assert bounds.sigma1 == pytest.approx(
        helpers.alt_sigma1(0.5, 0.25, 0.1, 1, 1.0, 1.0, 0.0, 1.0), rel=1e-14)
    # The combined premise fails for these values and is reported, not hidden.
    assert any("<= 0" in f for f in bounds.failures)


def test_ergodic_bounds_on_matrix_game():
    problem = build_matrix_game(100, 0)
    params = preset_example41(100, 2, problem.lip, problem.lip_bar, iters=1)
    bounds = theory_bounds(params, problem)
    assert bounds.checked == ("ergodic",)
    assert bounds.failures == ()
    expected = (2.0 + params.alpha - params.gamma) / params.alpha
    assert bounds.ergodic_coeff == pytest.approx(expected, rel=1e-15)
    assert bounds.ergodic_coeff == pytest.approx(
        helpers.alt_ergodic_coeff(params.gamma, params.alpha), rel=1e-14)

    too_big = SolverParams(gamma=0.11, p=0.01, alpha=0.05, b=2, iters=1)
    loose = theory_bounds(too_big, problem)
    assert any("alpha <=" in f for f in loose.failures)


def test_regime_selection_follows_tag_and_p():
    game = build_matrix_game(10, 0)
    p1 = SolverParams(gamma=1.0, p=1.0, alpha=0.01, b=1, iters=1)
    assert theory_bounds(p1, game).checked == ()
    problem = build_regularized_game(10)
    alg11 = preset_example42("alg11", rho=problem.rho, iters=1)
    assert theory_bounds(alg11, problem).checked == ("weak-minty",)
    alg12 = preset_example42("alg12", iters=1)
    assert theory_bounds(alg12, problem).checked == ("weak-minty-p1",)


def test_weak_minty_constants_frozen_for_structured_game():
    problem = build_regularized_game(100)
    alg11 = preset_example42("alg11", rho=problem.rho, iters=1)
    bounds = theory_bounds(alg11, problem)
    assert bounds.sigma1 == pytest.approx(0.13074484037361167, rel=1e-10)
    assert bounds.sigma2 == pytest.approx(14078.35319849157, rel=1e-10)
    assert bounds.residual_coeff == pytest.approx(
        (3.0 - alg11.gamma) * bounds.sigma2 / bounds.sigma1, rel=1e-14)
    assert bounds.sigma1 == pytest.approx(
        helpers.alt_sigma1(alg11.gamma, alg11.p, alg11.alpha, alg11.b,
                           problem.lip, problem.lip_bar, problem.rho, 1.0),
        rel=1e-13)
    assert bounds.sigma2 == pytest.approx(
        helpers.alt_sigma2(alg11.gamma, alg11.p, alg11.alpha, alg11.b,
                           problem.lip, problem.lip_bar, 1.0), rel=1e-13)
    # The combined premise is violated at these constants; the report says so.
    assert len(bounds.failures) == 1
    assert "sigma2/sigma1" in bounds.failures[0]


def test_weak_minty_p1_constants_frozen_for_structured_game():
    problem = build_regularized_game(100)
    alg12 = preset_example42("alg12", iters=1)
    bounds = theory_bounds(alg12, problem)
    assert bounds.failures == ()
    assert bounds.sigma1_p1 == pytest.approx(0.34668662249994664, rel=1e-10)
    assert bounds.sigma2_p1 == pytest.approx(37208.89054222222, rel=1e-10)
    assert bounds.residual_coeff_p1 == pytest.approx(
        2.0 * bounds.sigma2_p1 / bounds.sigma1_p1, rel=1e-14)
    assert bounds.sigma1_p1 == pytest.approx(
        helpers.alt_sigma1_p1(1.0, 0.015, 15, problem.lip, problem.lip_bar,
                              problem.rho, 1.0), rel=1e-13)
    assert bounds.sigma2_p1 == pytest.approx(
        helpers.alt_sigma2_p1(1.0, 0.015, 15, problem.lip, problem.lip_bar, 1.0),
        rel=1e-13)


def test_linear_rate_constants_frozen():
    problem, fp = build_linear_rate_fixture("p-lt-1")
    params = SolverParams(gamma=fp["gamma"], p=fp["p"], alpha=fp["alpha"],
                          b=fp["b"], iters=1)
    bounds = theory_bounds(params, problem)
    assert bounds.checked == ("linear",)
    assert bounds.failures == ()
    assert problem.lip == pytest.approx(np.linalg.norm(problem.h, 2), rel=1e-14)
    assert bounds.theta == pytest.approx(1.0019258711510461, rel=1e-12)
    assert bounds.envelope_coeff == pytest.approx(4.0 / 1.04, rel=1e-14)
    assert bounds.theta == pytest.approx(
        helpers.alt_theta(fp["gamma"], fp["p"], fp["alpha"], fp["b"],
                          problem.lip, problem.lip_bar, problem.beta), rel=1e-13)
    assert bounds.envelope_coeff == pytest.approx(
        helpers.alt_envelope_coeff(fp["gamma"], fp["alpha"]), rel=1e-14)

    # Shrinking alpha below (1/2 + gamma)/beta breaks the first premise.
    small = SolverParams(gamma=fp["gamma"], p=fp["p"], alpha=0.01, b=fp["b"], iters=1)
    weak = theory_bounds(small, problem)
    assert any("alpha >" in f for f in weak.failures)


def test_linear_rate_p1_constants_frozen():
    problem, fp = build_linear_rate_fixture("p-eq-1")
    params = SolverParams(gamma=fp["gamma"], p=fp["p"], alpha=fp["alpha"],
                          b=fp["b"], iters=1)
    bounds = theory_bounds(params, problem)
    assert bounds.checked == ("linear-p1",)
    assert bounds.failures == ()
    assert bounds.varsigma == pytest.approx(1.0078048780487807, rel=1e-12)
    assert bounds.envelope_coeff == pytest.approx(2.5, rel=1e-14)
    assert bounds.varsigma == pytest.approx(
        helpers.alt_varsigma(fp["gamma"], fp["alpha"], fp["b"],
                             problem.lip, problem.lip_bar, problem.beta), rel=1e-13)
    # gamma = 1 drops the 1/(1 - gamma) cap without dividing by zero.
    at_one = SolverParams(gamma=1.0, p=1.0, alpha=fp["alpha"], b=fp["b"], iters=1)
    b1 = theory_bounds(at_one, problem)
    assert b1.varsigma == pytest.approx(
        helpers.alt_varsigma(1.0, fp["alpha"], fp["b"], problem.lip,
                             problem.lip_bar, problem.beta), rel=1e-13)


def test_theory_bounds_requirement_guards():
    game = build_matrix_game(4, 0)
    params = SolverParams(gamma=0.5, p=0.25, alpha=0.01, b=1, iters=1)
    # Entropy geometry has no Lipschitz mirror map.
    game.tag = "non-monotone-weak-minty"
    with pytest.raises(DomainError):
        theory_bounds(params, game)
    # A monotone game records no growth modulus beta.
    game.tag = "strongly-pseudomonotone"
    with pytest.raises(ParameterError):
        theory_bounds(params, game)
    problem = _unit_affine_ball()
    problem.tag = "non-monotone-weak-minty"
    problem.rho = None
    with pytest.raises(ParameterError):
        theory_bounds(params, problem)


def test_linear_rate_envelope_shape():
    problem, fp = build_linear_rate_fixture("p-lt-1")
    params = SolverParams(gamma=fp["gamma"], p=fp["p"], alpha=fp["alpha"],
                          b=fp["b"], iters=1)
    bounds = theory_bounds(params, problem)
    env = helpers.linear_rate_envelope(bounds, 0.18, [0, 500])
    assert env[0] == pytest.approx(math.sqrt(bounds.envelope_coeff * 0.18), rel=1e-14)
    assert env[1] == pytest.approx(
        math.sqrt(bounds.envelope_coeff * 0.18 / bounds.theta ** 500), rel=1e-12)
    with pytest.raises(ParameterError):
        helpers.linear_rate_envelope(TheoryBounds(), 1.0, [0])
