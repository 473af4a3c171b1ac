"""Finite-sum operators: oracles, sampling, constants."""

import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

import helpers
from bvrvi import operators
from bvrvi.errors import ParameterError
from bvrvi.geometry import BlockVector, GeometrySpec, EUCLIDEAN_BALL, dual_norm, primal_norm
from bvrvi.operators import (
    LINEAR_RATE_VARIANTS,
    AffineStrongOperator,
    MatrixGameOperator,
    OracleCounters,
    RegularizedGameOperator,
    build_linear_rate_fixture,
    build_matrix_game,
    build_regularized_game,
    component_eval,
    estimator_delta,
    full_eval,
    make_distribution,
    power_iteration_norm,
    sample_batch,
)


def _weighted_component_sum(problem, z, dist):
    """Exhaustive expectation of the component oracle under dist."""
    acc = BlockVector.zeros(z.block_dims)
    for i in range(problem.n_rows):
        for k in range(problem.n_cols):
            ri, ck = float(dist.r[i]), float(dist.c[k])
            if ri == 0.0 or ck == 0.0:
                continue
            acc.data += (ri * ck) * problem.component((i, k), z, dist).data
    return acc


def _problems_for_unbiasedness(n):
    rng = np.random.default_rng(1000 + n)
    yield MatrixGameOperator(rng.standard_normal((n, n)))
    yield build_regularized_game(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_component_oracle_unbiased_exhaustive(n):
    rng = np.random.default_rng(n)
    for problem in _problems_for_unbiasedness(n):
        for _ in range(5):
            z = helpers.random_feasible(problem.geometry, rng)
            u = helpers.random_feasible(problem.geometry, rng)
            w = helpers.random_feasible(problem.geometry, rng)
            dist = make_distribution(problem, u, w)
            expect = _weighted_component_sum(problem, z, dist)
            exact = problem.full(z)
            assert np.max(np.abs((expect - exact).data)) <= 1e-12


def test_affine_component_oracle_unbiased():
    problem, _ = build_linear_rate_fixture("p-lt-1")
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = helpers.random_feasible(problem.geometry, rng)
        dist = problem.distribution(z, helpers.random_feasible(problem.geometry, rng))
        expect = _weighted_component_sum(problem, z, dist)
        assert np.max(np.abs((expect - problem.full(z)).data)) <= 1e-12


# ---------------------------------------------------------------------------
# Sampling distributions.
# ---------------------------------------------------------------------------

def test_matrix_game_distribution_adapts_to_coordinate_gaps():
    game = MatrixGameOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
    u = BlockVector(([0.3, 0.7], [0.6, 0.4]))
    w = BlockVector(([0.5, 0.5], [0.5, 0.5]))
    dist = make_distribution(game, u, w)
    assert dist.r == pytest.approx([0.5, 0.5])
    assert dist.c == pytest.approx([0.5, 0.5])
    assert dist.cum_r[-1] == pytest.approx(1.0)

    game3 = MatrixGameOperator(np.eye(3))
    u3 = BlockVector(([0.6, 0.3, 0.1], [0.2, 0.3, 0.5]))
    w3 = BlockVector(([0.3, 0.2, 0.5], [0.2, 0.3, 0.5]))
    dist2 = make_distribution(game3, u3, w3)
    # Equal second blocks: row weights fall back to uniform.
    assert dist2.r == pytest.approx([1.0 / 3.0] * 3)
    assert dist2.c == pytest.approx([0.375, 0.125, 0.5])


def test_matrix_game_component_frozen_value():
    game = MatrixGameOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
    z = BlockVector(([0.3, 0.7], [0.6, 0.4]))
    w = BlockVector(([0.5, 0.5], [0.5, 0.5]))
    dist = make_distribution(game, z, w)  # r = c = (0.5, 0.5)
    comp = game.component((0, 1), z, dist)
    assert comp.blocks[0] == pytest.approx([1.2, 2.4], rel=1e-15)
    assert comp.blocks[1] == pytest.approx([-2.8, -5.6], rel=1e-15)


def test_zero_probability_indices_never_sampled():
    game = MatrixGameOperator(np.eye(3))
    u = BlockVector(([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]))
    # Differs from u only in coordinates {0, 2} of each block.
    w = BlockVector(([0.4, 0.3, 0.3], [0.3, 0.3, 0.4]))
    dist = make_distribution(game, u, w)
    assert dist.r[1] == 0.0 and dist.c[1] == 0.0
    rng = np.random.default_rng(0)
    draws = sample_batch(dist, 2000, rng)
    assert all(i != 1 and k != 1 for i, k in draws)
    with pytest.raises(RuntimeError, match="zero-probability"):
        game.component((1, 0), u, dist)


class _TopUniform:
    """Stub generator whose uniforms are all the largest double below one."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_top_uniform_never_draws_trailing_zero_weight():
    game = MatrixGameOperator(np.eye(4))
    u = BlockVector(([0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.5, 0.2]))
    w = BlockVector(([0.1, 0.2, 0.3, 0.4], [0.2, 0.4, 0.2, 0.2]))
    dist = make_distribution(game, u, w)
    # The row weights round to a sum below one and end in a zero weight,
    # so the top uniform lies past the last cumulative weight.
    assert dist.r[-1] == 0.0 and dist.cum_r[-1] <= np.nextafter(1.0, 0.0)
    batch = sample_batch(dist, 2, _TopUniform())
    assert batch == [(2, 3), (2, 3)]
    delta = estimator_delta(game.full(w), game, u, w, batch, dist)
    assert np.isfinite(delta.data).all()


def test_regularized_game_distribution_is_fixed():
    problem = build_regularized_game(6)
    a = problem.payoff
    fro2 = float(np.sum(a * a))
    rng = np.random.default_rng(4)
    u = helpers.random_feasible(problem.geometry, rng)
    w = helpers.random_feasible(problem.geometry, rng)
    dist = make_distribution(problem, u, w)
    assert dist.r == pytest.approx(np.sum(a * a, axis=1) / fro2, rel=1e-14)
    assert dist.c == pytest.approx(np.sum(a * a, axis=0) / fro2, rel=1e-14)
    assert make_distribution(problem, u, u) is dist
    assert make_distribution(problem, w, u) is dist


def test_sample_batch_consumes_two_uniform_blocks():
    problem = build_regularized_game(5)
    rng = np.random.default_rng(77)
    u = helpers.random_feasible(problem.geometry, rng)
    w = helpers.random_feasible(problem.geometry, rng)
    dist = make_distribution(problem, u, w)
    batch = sample_batch(dist, 4, np.random.default_rng(123))
    probe = np.random.default_rng(123)
    rows = np.minimum(np.searchsorted(dist.cum_r, probe.random(4), side="right"), 4)
    cols = np.minimum(np.searchsorted(dist.cum_c, probe.random(4), side="right"), 4)
    assert batch == [(int(i), int(k)) for i, k in zip(rows, cols)]


def test_sample_batch_validation():
    problem = build_regularized_game(4)
    rng = np.random.default_rng(1)
    u = helpers.random_feasible(problem.geometry, rng)
    dist = make_distribution(problem, u, helpers.random_feasible(problem.geometry, rng))
    with pytest.raises(ParameterError):
        sample_batch(dist, 0, rng)


def test_sample_batch_frequencies_match_weights():
    game = MatrixGameOperator(np.eye(3))
    u = BlockVector(([0.6, 0.3, 0.1], [0.5, 0.25, 0.25]))
    w = BlockVector(([0.3, 0.2, 0.5], [0.25, 0.25, 0.5]))
    dist = make_distribution(game, u, w)
    # r from the second blocks: (0.25, 0, 0.25) -> (0.5, 0, 0.5);
    # c from the first blocks: (0.3, 0.1, 0.4) -> (0.375, 0.125, 0.5).
    assert dist.r == pytest.approx([0.5, 0.0, 0.5])
    assert dist.c == pytest.approx([0.375, 0.125, 0.5])
    rng = np.random.default_rng(8)
    n = 40000
    draws = sample_batch(dist, n, rng)
    freq_r0 = sum(1 for i, _ in draws if i == 0) / n
    freq_c0 = sum(1 for _, k in draws if k == 0) / n
    assert freq_r0 == pytest.approx(0.5, abs=4.0 * math.sqrt(0.25 / n))
    assert freq_c0 == pytest.approx(0.375, abs=4.0 * math.sqrt(0.375 * 0.625 / n))


# ---------------------------------------------------------------------------
# Estimator.
# ---------------------------------------------------------------------------

def test_estimator_empty_batch_raises():
    problem = build_regularized_game(4)
    rng = np.random.default_rng(2)
    x = helpers.random_feasible(problem.geometry, rng)
    w = helpers.random_feasible(problem.geometry, rng)
    dist = make_distribution(problem, x, w)
    with pytest.raises(ParameterError):
        estimator_delta(problem.full(w), problem, x, w, [], dist)


def _per_block_estimator(f_anchor, problem, x_s, w_prev, batch, dist):
    """The estimator accumulated block by block over problem.component."""
    acc = [np.zeros(d) for d in f_anchor.block_dims]
    for xi in batch:
        for a, c in zip(acc, problem.component(xi, x_s, dist).blocks):
            a += c
        for a, c in zip(acc, problem.component(xi, w_prev, dist).blocks):
            a -= c
    return [f + (1.0 / len(batch)) * a for f, a in zip(f_anchor.blocks, acc)]


@pytest.mark.parametrize("kind", ["matrix-game", "regularized-game", "affine"])
def test_estimator_matches_per_block_reference_bit_for_bit(kind):
    if kind == "matrix-game":
        problem = build_matrix_game(7, 3)
    elif kind == "regularized-game":
        problem = build_regularized_game(6)
    else:
        problem, _ = build_linear_rate_fixture("p-lt-1")
    rng = np.random.default_rng(21)
    for _ in range(3):
        x = helpers.random_feasible(problem.geometry, rng)
        w = helpers.random_feasible(problem.geometry, rng)
        dist = make_distribution(problem, x, w)
        batch = sample_batch(dist, 5, rng)
        anchor = problem.full(w)
        got = estimator_delta(anchor, problem, x, w, batch, dist)
        ref = _per_block_estimator(anchor, problem, x, w, batch, dist)
        assert [b.tobytes() for b in got.blocks] == [b.tobytes() for b in ref]


@pytest.mark.parametrize("n", [5, 300])
def test_matrix_game_full_matches_plain_matvecs(n):
    """n = 300 leaves a partial last chunk of the single-pass evaluation."""
    rng = np.random.default_rng(n)
    problem = MatrixGameOperator(rng.standard_normal((n, n)))
    z = helpers.random_feasible(problem.geometry, rng)
    x, y = z.blocks
    got = problem.full(z)
    for block, ref in zip(got.blocks, (problem.payoff.T @ y, -(problem.payoff @ x))):
        assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(ref))


def _game(kind: str, n: int, seed: int = 0):
    """A game on a standard normal payoff; the regularized one is given its
    spectral norm, so building it runs no SVD."""
    payoff = np.random.default_rng(seed + n).standard_normal((n, n))
    if kind == "matrix":
        return MatrixGameOperator(payoff)
    return RegularizedGameOperator(payoff, lam=0.01, spectral_norm=1.0)


def _reference_full(problem, z) -> np.ndarray:
    out = helpers.reference_bilinear_full(problem.payoff, z)
    if problem.lam:
        out -= problem.lam * z.data
    return out


@pytest.mark.parametrize("kind", ["matrix", "regularized"])
@pytest.mark.parametrize("n", [5, 128, 129, 511, 512, 1000, 1001])
def test_bilinear_full_bits_match_serial_reference(kind, n):
    """n = 511 runs serially and n >= 512 (2 MiB of payoff) on two threads;
    both must give the serial chunk loop's bits."""
    problem = _game(kind, n)
    assert (problem.payoff.nbytes >= operators._SPLIT_BYTES) == (n >= 512)
    rng = np.random.default_rng(n)
    for _ in range(3):
        z = helpers.random_feasible(problem.geometry, rng)
        assert problem.full(z).data.tobytes() == _reference_full(problem, z).tobytes()


def test_concurrent_full_calls_get_reference_bits():
    """More callers than cores share the pair worker; one that finds it
    busy computes serially, and every result keeps the reference bits."""
    problem = _game("matrix", 600)
    rng = np.random.default_rng(5)
    points = [helpers.random_feasible(problem.geometry, rng) for _ in range(4)]
    expected = [_reference_full(problem, z).tobytes() for z in points]
    start = threading.Barrier(len(points))
    mismatches = [0] * len(points)
    done = [0] * len(points)

    def caller(k):
        start.wait(timeout=30)
        for _ in range(40):
            mismatches[k] += problem.full(points[k]).data.tobytes() != expected[k]
            done[k] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(points))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert done == [40] * len(points)
    assert mismatches == [0] * len(points)


def test_pair_worker_started_once_as_daemon_and_reused():
    problem = _game("matrix", 512)
    z = helpers.random_feasible(problem.geometry, np.random.default_rng(1))
    problem.full(z)
    worker = operators._pair_worker
    assert worker is not None and worker.thread.daemon and worker.thread.is_alive()
    for _ in range(5):
        problem.full(z)
    assert operators._pair_worker is worker
    names = [t.name for t in threading.enumerate()]
    assert names.count(worker.thread.name) == 1


def test_pair_worker_busy_runs_both_calls_on_the_caller():
    worker = operators._get_pair_worker()
    entered, release = threading.Event(), threading.Event()
    results = []

    def blocked():
        entered.set()
        release.wait(timeout=30)
        return threading.get_ident()

    holder = threading.Thread(target=lambda: results.append(
        worker.run(threading.get_ident, blocked)))
    holder.start()
    try:
        assert entered.wait(timeout=30)
        me = threading.get_ident()
        assert worker.run(threading.get_ident, threading.get_ident) == (me, me)
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    (first, second), = results
    assert first == holder.ident and second == worker.thread.ident


def test_pair_worker_reraises_in_the_caller_and_stays_usable():
    worker = operators._get_pair_worker()

    def fail():
        raise ValueError("worker half failed")

    with pytest.raises(ValueError, match="worker half failed"):
        worker.run(lambda: 1, fail)
    assert worker.run(lambda: 1, lambda: 2) == (1, 2)
    assert operators._pair_worker is worker


def _forked_full_matches_reference() -> None:
    """Runs in a forked child: the parent's worker is forgotten, and a new
    one computes a split full evaluation with the reference bits."""
    assert operators._pair_worker is None
    problem = _game("matrix", 1000, seed=7)
    z = helpers.random_feasible(problem.geometry, np.random.default_rng(7))
    ok = problem.full(z).data.tobytes() == _reference_full(problem, z).tobytes()
    sys.exit(0 if ok and operators._pair_worker.thread.is_alive() else 3)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_computes_split_full_after_parent_started_worker():
    problem = _game("matrix", 512)
    problem.full(helpers.random_feasible(problem.geometry, np.random.default_rng(2)))
    assert operators._pair_worker.thread.is_alive()
    child = multiprocessing.get_context("fork").Process(target=_forked_full_matches_reference)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
        pytest.fail("forked child did not finish a split full evaluation in 60 s")
    assert child.exitcode == 0


def test_estimator_mean_and_variance_bound_monte_carlo():
    """Sampled direction is unbiased and meets the variance bound."""
    problem = build_matrix_game(4, 55)
    geo = problem.geometry
    rng = np.random.default_rng(10)
    x = helpers.random_feasible(geo, rng)
    w = helpers.random_feasible(geo, rng)
    dist = make_distribution(problem, x, w)
    exact_diff = problem.full(x) - problem.full(w)
    anchor = BlockVector.zeros(geo.block_dims)

    b, trials = 4, 20000
    total = BlockVector.zeros(geo.block_dims)
    sq_sum = 0.0
    sq_sq = 0.0
    mc = np.random.default_rng(99)
    for _ in range(trials):
        batch = sample_batch(dist, b, mc)
        delta = estimator_delta(anchor, problem, x, w, batch, dist)
        total.data += delta.data
        noise = dual_norm(geo, delta - exact_diff) ** 2
        sq_sum += noise
        sq_sq += noise * noise

    mean_vec = total.scaled(1.0 / trials)
    assert np.max(np.abs((mean_vec - exact_diff).data)) <= 0.05

    mean_sq = sq_sum / trials
    se = math.sqrt(max(sq_sq / trials - mean_sq ** 2, 0.0) / trials)
    bound = problem.lip_bar ** 2 / b * primal_norm(geo, x - w) ** 2
    assert mean_sq <= bound + 5.0 * se


def test_oracle_counters_accounting():
    problem = build_regularized_game(3)
    counters = OracleCounters()
    rng = np.random.default_rng(0)
    z = helpers.random_feasible(problem.geometry, rng)
    w = helpers.random_feasible(problem.geometry, rng)
    full_eval(problem, z, counters)
    assert (counters.full_evals, counters.component_calls) == (1, 9)
    dist = make_distribution(problem, z, w)
    component_eval(problem, (0, 0), z, dist, counters)
    assert (counters.full_evals, counters.component_calls) == (1, 10)
    estimator_delta(problem.full(w), problem, z, w, [(0, 0), (1, 2)], dist, counters)
    assert (counters.full_evals, counters.component_calls) == (1, 14)
    counters.record_component()
    assert (counters.full_evals, counters.component_calls) == (1, 15)


# ---------------------------------------------------------------------------
# Problem constructors and constants.
# ---------------------------------------------------------------------------

def test_matrix_game_requires_square_payoff():
    with pytest.raises(ParameterError):
        MatrixGameOperator(np.ones((2, 3)))


def test_matrix_game_constants():
    game = MatrixGameOperator(np.array([[1.0, -5.0], [2.0, 0.5]]))
    assert game.lip == 5.0
    assert game.lip_bar == 5.0
    assert game.tag == "monotone"
    assert game.num_components == 4


def test_regularized_game_structure():
    problem = build_regularized_game(12)
    a = problem.payoff
    # Rescaling preserves the ((|i-j|+1)^2) profile.
    assert a[0, 5] / a[0, 0] == pytest.approx(36.0, rel=1e-12)
    assert a[3, 1] / a[0, 0] == pytest.approx(9.0, rel=1e-12)
    assert problem.spectral == pytest.approx(10.0, rel=1e-8)
    assert problem.lip == pytest.approx(math.sqrt(0.01 ** 2 + problem.spectral ** 2), rel=1e-12)
    assert problem.rho == pytest.approx(9.99999000001e-05, rel=1e-9)
    assert problem.tag == "non-monotone-weak-minty"
    # The origin is the recorded solution and a zero of the operator.
    zero = BlockVector.zeros(problem.geometry.block_dims)
    assert np.allclose(problem.solution.data, zero.data, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(problem.full(zero).data)) == 0.0


def test_regularized_game_rejects_bad_lam():
    with pytest.raises(ParameterError):
        RegularizedGameOperator(np.eye(3), lam=0.0)


def test_affine_strong_monotonicity_and_constants():
    problem, _ = build_linear_rate_fixture("p-lt-1")
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = helpers.random_feasible(problem.geometry, rng)
        b = helpers.random_feasible(problem.geometry, rng)
        gap = float((problem.full(a) - problem.full(b)).data @ (a - b).data)
        dist2 = float(np.sum((a - b).data ** 2))
        assert gap >= problem.mu * dist2 - 1e-10
    assert problem.lip == pytest.approx(
        np.linalg.norm(problem.h, 2), rel=1e-8)
    assert problem.tag == "strongly-pseudomonotone"


def test_affine_strong_rejects_unbalanced_perturbations():
    geo = GeometrySpec(EUCLIDEAN_BALL, (3,), radius=1.0)
    z = np.zeros((3, 3))
    bad = z.copy()
    bad[0, 1] = 1e-3
    with pytest.raises(ParameterError, match="sum to zero"):
        AffineStrongOperator(np.eye(3), np.zeros(3), 1.0, [bad], geo)
    with pytest.raises(ParameterError, match="at least one"):
        AffineStrongOperator(np.eye(3), np.zeros(3), 1.0, [], geo)


@pytest.mark.parametrize("variant", sorted(LINEAR_RATE_VARIANTS))
def test_linear_rate_fixture_solution_and_growth(variant):
    problem, run_params = build_linear_rate_fixture(variant)
    x_star = problem.solution
    f_star = problem.full(x_star)
    t = LINEAR_RATE_VARIANTS[variant]["multiplier"]
    if t == 0.0:
        assert np.max(np.abs(f_star.data)) <= 1e-12
    else:
        # Boundary solution: F(x*) = -t x* points inward along the normal.
        assert np.allclose(f_star.data, x_star.scaled(-t).data, rtol=1e-12, atol=0.0)
        assert np.linalg.norm(x_star.data) == pytest.approx(1.0, rel=1e-14)
    # Anchored growth <F(y), y - x*> >= beta * D(x*, y) with the recorded beta.
    rng = np.random.default_rng(23)
    for _ in range(50):
        y = helpers.random_feasible(problem.geometry, rng)
        lhs = float(problem.full(y).data @ (y - x_star).data)
        rhs = problem.beta * 0.5 * float(np.sum((x_star - y).data ** 2))
        assert lhs >= rhs - 1e-9
    assert set(run_params) == {"gamma", "p", "alpha", "b", "iters"}


def test_linear_rate_fixture_unknown_variant():
    with pytest.raises(ParameterError):
        build_linear_rate_fixture("p-gt-1")


def test_build_matrix_game_seeded():
    a = build_matrix_game(5, 42).payoff
    b = build_matrix_game(5, 42).payoff
    c = build_matrix_game(5, 43).payoff
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ParameterError):
        build_matrix_game(1)


# ---------------------------------------------------------------------------
# Spectral norm and serialization.
# ---------------------------------------------------------------------------

def test_power_iteration_matches_numpy():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((10, 10)) for _ in range(5)]
    # The p-lt-1 fixture's skew parts and its component matrices
    # H + Z_i; the latter have top singular values within 1.5e-4 of each
    # other, where power iteration stalls short of the norm.
    problem, _ = build_linear_rate_fixture("p-lt-1")
    mats.append(0.5 * (problem.h - problem.h.T))
    mats += [z / LINEAR_RATE_VARIANTS["p-lt-1"]["perturb_scale"]
             for z in problem.components_h]
    mats += [problem.h + z for z in problem.components_h]
    for mat in mats:
        assert power_iteration_norm(mat) == pytest.approx(
            np.linalg.norm(mat, 2), rel=1e-12)
    assert power_iteration_norm(np.zeros((4, 4))) == 0.0


@pytest.mark.parametrize("variant", sorted(LINEAR_RATE_VARIANTS))
def test_affine_oracle_bits_match_plain_expression(variant):
    problem, _ = build_linear_rate_fixture(variant)
    rng = np.random.default_rng(41)
    for _ in range(20):
        z = helpers.random_feasible(problem.geometry, rng)
        assert problem.full(z).data.tobytes() == \
            helpers.reference_affine_full(problem, z).tobytes()
        i = int(rng.integers(problem.n_rows))
        got = problem.component((i, 0), z, problem.distribution(z, z))
        assert got.data.tobytes() == helpers.reference_affine_component(problem, i, z).tobytes()
