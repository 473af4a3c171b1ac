"""Each output check accepts a correct result and rejects a corrupted one."""

import math

import numpy as np
import pytest

import checks
from bvrvi import harness
from bvrvi.operators import LINEAR_RATE_VARIANTS, build_linear_rate_fixture


@pytest.fixture
def game():
    payoff = checks.matrix_game_payoff(40, 3)
    rng = np.random.default_rng(0)
    x, y = rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(40))
    upper, lower = float(np.max(payoff @ x)), float(np.min(payoff.T @ y))
    return payoff, x, y, upper - lower, 0.5 * (upper + lower)


def test_matrix_game_accepts_correct_result(game):
    payoff, x, y, gap, value = game
    checks.check_matrix_game(x, y, gap, payoff, value)


@pytest.mark.parametrize("corrupt", ["negative", "mass"])
def test_matrix_game_rejects_infeasible_point(game, corrupt):
    payoff, x, y, gap, value = game
    bad = x.copy()
    if corrupt == "negative":
        bad[0], bad[1] = -1e-3, bad[1] + bad[0] + 1e-3
    else:
        bad = bad * 1.001
    with pytest.raises(checks.CheckFailure, match="ergodic x"):
        checks.check_matrix_game(bad, y, gap, payoff, value)


def test_matrix_game_rejects_shifted_gap(game):
    payoff, x, y, gap, value = game
    with pytest.raises(checks.CheckFailure, match="reported gap"):
        checks.check_matrix_game(x, y, gap + 1e-3, payoff, value)


def test_matrix_game_rejects_value_outside_responses(game):
    payoff, x, y, gap, value = game
    with pytest.raises(checks.CheckFailure, match="game value"):
        checks.check_matrix_game(x, y, gap, payoff, value + gap)


@pytest.fixture
def ball_game():
    payoff = checks.regularized_game_payoff(30, 10.0)
    rho, v_min = checks.star_modulus(payoff, 0.01)
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal(30), rng.standard_normal(30)
    x, y = 0.9 * x / np.linalg.norm(x), 0.5 * y / np.linalg.norm(y)
    residual = float(np.linalg.norm(np.concatenate([x, y]))) / math.sqrt(30)
    return payoff, rho, v_min, x, y, residual


def test_nonmonotone_accepts_correct_result(ball_game):
    payoff, rho, _, x, y, residual = ball_game
    checks.check_nonmonotone(x, y, residual, payoff, 0.01, rho)


def test_nonmonotone_rejects_infeasible_point(ball_game):
    payoff, rho, _, x, y, _ = ball_game
    bad = 1.01 * x / np.linalg.norm(x)
    residual = float(np.linalg.norm(np.concatenate([bad, y]))) / math.sqrt(30)
    with pytest.raises(checks.CheckFailure, match="norm"):
        checks.check_nonmonotone(bad, y, residual, payoff, 0.01, rho)


def test_nonmonotone_rejects_shifted_residual(ball_game):
    payoff, rho, _, x, y, residual = ball_game
    with pytest.raises(checks.CheckFailure, match="residual"):
        checks.check_nonmonotone(x, y, residual + 1e-3, payoff, 0.01, rho)


def test_star_modulus_is_tight(ball_game):
    payoff, rho, v_min, *_ = ball_game
    zero = np.zeros_like(v_min)
    checks.check_star_condition(v_min, zero, payoff, 0.01, rho)
    with pytest.raises(checks.CheckFailure, match="star condition"):
        checks.check_star_condition(v_min, zero, payoff, 0.01, 0.5 * rho)


@pytest.mark.parametrize("variant", sorted(LINEAR_RATE_VARIANTS))
def test_linear_rate_solution_and_distance(variant):
    h, q, x_star = checks.linear_rate_operator(LINEAR_RATE_VARIANTS[variant])
    problem, _ = build_linear_rate_fixture(variant)
    checks.check_linear_solution(h, q, x_star, problem.solution.blocks[0])
    with pytest.raises(checks.CheckFailure, match="program solution"):
        checks.check_linear_solution(h, q, x_star, 0.99 * x_star)
    point = 0.999 * x_star
    dist = float(np.linalg.norm(point - x_star))
    checks.check_linear_distance(point, x_star, dist)
    with pytest.raises(checks.CheckFailure, match="reported distance"):
        checks.check_linear_distance(point, x_star, dist + 1e-3)
    with pytest.raises(checks.CheckFailure, match="norm"):
        checks.check_linear_distance(2.0 * x_star / np.linalg.norm(x_star), x_star, 1.0)


def _per_seed_rows():
    rng = np.random.default_rng(2)
    rows = {}
    for seed in (4, 5, 6, 7):
        rows[seed] = [(it, 10 * it + seed, it + 1, name,
                       math.nan if (it == 0 and name == "b") else float(rng.random()),
                       float(rng.random()), seed)
                      for it in (0, 5, 10) for name in ("a", "b")]
    return rows


def test_aggregate_accepts_program_medians():
    per_seed = _per_seed_rows()
    checks.check_aggregate(per_seed, harness.aggregate_rows(per_seed))


@pytest.mark.parametrize("column", [1, 4, 5])
def test_aggregate_rejects_wrong_median(column):
    per_seed = _per_seed_rows()
    aggregate = harness.aggregate_rows(per_seed)
    row = list(aggregate[2])
    row[column] = row[column] + 1 if column == 1 else row[column] * 1.001
    aggregate[2] = tuple(row)
    with pytest.raises(checks.CheckFailure, match="aggregate row"):
        checks.check_aggregate(per_seed, aggregate)


def test_aggregate_rejects_missing_row():
    per_seed = _per_seed_rows()
    with pytest.raises(checks.CheckFailure, match="rows"):
        checks.check_aggregate(per_seed, harness.aggregate_rows(per_seed)[:-1])


def test_first_hit_and_final_value_read_program_csv(tmp_path):
    rows = [(0, 1, 1, "m", 0.5, 0.0, 3), (5, 9, 2, "m", 0.2, 1.5, 3),
            (10, 20, 3, "m", 0.1, 2.5, 3)]
    path = tmp_path / "seed3.csv"
    harness._write_csv(path, rows)
    read = checks.read_rows(path)
    assert read == rows
    assert checks.first_hit(read, "m", 0.2) == rows[1]
    assert checks.first_hit(read, "m", 0.05) is None
    assert checks.final_value(read, "m") == 0.1
