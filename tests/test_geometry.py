"""Geometry layer: containers, mirror maps, divergences, fused prox."""

import math

import numpy as np
import pytest

import helpers
from bvrvi.errors import DomainError, LayoutError, ParameterError
from bvrvi.geometry import (
    ENTROPY_SIMPLEX,
    EUCLIDEAN_BALL,
    EUCLIDEAN_FREE,
    BlockVector,
    GeometrySpec,
    bregman_divergence,
    check_layout,
    dual_norm,
    fused_inertial_prox,
    primal_norm,
    uniform_start,
)

ENTROPY2 = GeometrySpec(ENTROPY_SIMPLEX, (2,))
BALL2 = GeometrySpec(EUCLIDEAN_BALL, (2,), radius=1.0)
FREE2 = GeometrySpec(EUCLIDEAN_FREE, (2,))

ALL_SPECS = [
    GeometrySpec(ENTROPY_SIMPLEX, (4, 3)),
    GeometrySpec(EUCLIDEAN_BALL, (4, 3), radius=1.0),
    GeometrySpec(EUCLIDEAN_FREE, (4, 3)),
]


# ---------------------------------------------------------------------------
# BlockVector container.
# ---------------------------------------------------------------------------

def test_blockvector_roundtrip_flat():
    v = BlockVector(([1.0, 2.0], [3.0, 4.0, 5.0]))
    assert v.block_dims == (2, 3)
    flat = v.data.copy()
    w = BlockVector.wrap(flat, (2, 3))
    assert w.data is flat
    assert [b.tolist() for b in w.blocks] == [[1.0, 2.0], [3.0, 4.0, 5.0]]


def test_blockvector_arithmetic():
    a = BlockVector(([1.0, 2.0],))
    b = BlockVector(([10.0, -1.0],))
    assert np.allclose((a + b).data, [11.0, 1.0], rtol=1e-12, atol=0.0)
    assert np.allclose((a - b).data, [-9.0, 3.0], rtol=1e-12, atol=0.0)
    assert np.allclose(a.scaled(2.0).data, [2.0, 4.0], rtol=1e-12, atol=0.0)
    assert np.allclose(BlockVector.full((2,), 0.5).data, [0.5, 0.5], rtol=1e-12, atol=0.0)


def test_blockvector_blocks_are_views_of_data():
    v = BlockVector(([1.0, 2.0], [3.0, 4.0, 5.0]))
    v.blocks[1][0] = -7.0
    assert v.data.tolist() == [1.0, 2.0, -7.0, 4.0, 5.0]
    v.data[1] = 9.0
    assert v.blocks[0].tolist() == [1.0, 9.0]


def test_blockvector_constructor_gives_contiguous_float64_data():
    v = BlockVector((np.array([1, 2]), np.array([3, 4, 5])))
    assert v.block_dims == (2, 3)
    assert v.data.dtype == np.float64 and v.data.flags.c_contiguous
    assert v.data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(b.dtype == np.float64 and b.ndim == 1 for b in v.blocks)


def test_blockvector_flat_arithmetic_matches_per_block_numpy():
    rng = np.random.default_rng(3)
    a_blocks = [rng.standard_normal(d) for d in (4, 1, 6)]
    b_blocks = [rng.standard_normal(d) for d in (4, 1, 6)]
    a, b = BlockVector(a_blocks), BlockVector(b_blocks)

    def same_bytes(vec, blocks):
        return [x.tobytes() for x in vec.blocks] == [y.tobytes() for y in blocks]

    assert same_bytes(a + b, [x + y for x, y in zip(a_blocks, b_blocks)])
    assert same_bytes(a - b, [x - y for x, y in zip(a_blocks, b_blocks)])
    assert same_bytes(a.scaled(0.37), [0.37 * x for x in a_blocks])
    assert same_bytes(a, a_blocks) and same_bytes(b, b_blocks)


def test_blockvector_layout_mismatch_raises():
    a = BlockVector.zeros((2,))
    b = BlockVector.zeros((3,))
    with pytest.raises(LayoutError):
        _ = a + b
    with pytest.raises(LayoutError):
        _ = a - b


def test_check_layout_names_offender():
    with pytest.raises(LayoutError, match="start"):
        check_layout(ENTROPY2, BlockVector.zeros((3,)), "start")


# ---------------------------------------------------------------------------
# Mirror map and divergence: frozen values.
# ---------------------------------------------------------------------------

def test_entropy_mirror_map_frozen():
    # 1 + log(0.5) per coordinate.
    d = helpers.mirror_map(ENTROPY2, BlockVector(([0.5, 0.5],)))
    assert d.blocks[0] == pytest.approx([0.3068528194400547] * 2, rel=1e-15)


def test_euclidean_mirror_map_is_identity():
    x = BlockVector(([0.25, -0.5],))
    assert np.allclose(helpers.mirror_map(BALL2, x).data, x.data, rtol=1e-12, atol=0.0)


def test_entropy_mirror_floors_exact_zero():
    x = BlockVector(([0.0, 1.0],))
    d = helpers.mirror_map(ENTROPY2, x)
    # The zero coordinate is read at the floor, so its image is finite.
    assert d.blocks[0][0] == pytest.approx(1.0 + math.log(1e-300), rel=1e-15)
    assert d.blocks[0][1] == 1.0


def test_entropy_mirror_negative_raises():
    with pytest.raises(DomainError):
        helpers.mirror_map(ENTROPY2, BlockVector(([-0.1, 1.1],)))


def test_kl_divergence_frozen():
    # KL((1,0) | (0.5,0.5)) = log 2 under the 0 log 0 = 0 convention.
    x = BlockVector(([1.0, 0.0],))
    y = BlockVector(([0.5, 0.5],))
    assert bregman_divergence(ENTROPY2, x, y) == pytest.approx(math.log(2.0), rel=1e-15)


def test_kl_divergence_domain_errors():
    ok = BlockVector(([0.5, 0.5],))
    with pytest.raises(DomainError):
        bregman_divergence(ENTROPY2, BlockVector(([-0.1, 1.1],)), ok)
    with pytest.raises(DomainError):
        bregman_divergence(ENTROPY2, ok, BlockVector(([0.0, 1.0],)))


def test_euclidean_divergence_is_half_squared_distance():
    x = BlockVector(([1.0, 2.0],))
    y = BlockVector(([0.0, 0.0],))
    assert bregman_divergence(BALL2, x, y) == pytest.approx(2.5, rel=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_divergence_lower_bounds_half_squared_primal_norm(spec):
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = helpers.random_feasible(spec, rng)
        y = helpers.random_feasible(spec, rng)
        if spec.kind == ENTROPY_SIMPLEX:
            y = BlockVector(tuple(np.maximum(b, 1e-12) for b in y.blocks))
        d = bregman_divergence(spec, x, y)
        assert d >= 0.5 * primal_norm(spec, x - y) ** 2 - 1e-10


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_three_point_identity(spec):
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = helpers.random_feasible(spec, rng)
        y = helpers.random_feasible(spec, rng)
        z = helpers.random_feasible(spec, rng)
        lhs = bregman_divergence(spec, x, y)
        rhs = (bregman_divergence(spec, x, z) + bregman_divergence(spec, z, y)
               + float((helpers.mirror_map(spec, y) - helpers.mirror_map(spec, z)).data
                       @ (z - x).data))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# Norms.
# ---------------------------------------------------------------------------

def test_entropy_norms_frozen():
    spec = GeometrySpec(ENTROPY_SIMPLEX, (2, 2))
    v = BlockVector(([1.0, -1.0], [2.0, 0.0]))
    assert primal_norm(spec, v) == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert dual_norm(spec, v) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_euclidean_norms_match_flat_l2():
    spec = GeometrySpec(EUCLIDEAN_FREE, (2, 2))
    v = BlockVector(([3.0, 0.0], [0.0, 4.0]))
    assert primal_norm(spec, v) == pytest.approx(5.0, rel=1e-15)
    assert dual_norm(spec, v) == pytest.approx(5.0, rel=1e-15)


def test_entropy_norms_are_dual_on_samples():
    # |<d, x>| <= |d|_* |x| for the blockwise l1 / max pairing.
    spec = GeometrySpec(ENTROPY_SIMPLEX, (4, 3))
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = BlockVector(tuple(rng.standard_normal(d) for d in spec.block_dims))
        d = BlockVector(tuple(rng.standard_normal(k) for k in spec.block_dims))
        assert abs(float(d.data @ x.data)) <= dual_norm(spec, d) * primal_norm(spec, x) + 1e-12


# ---------------------------------------------------------------------------
# Fused prox: frozen values, oracle agreement, optimality inequality.
# ---------------------------------------------------------------------------

def test_entropy_prox_frozen():
    # Multiplicative weights: (0.5, 0.5) with payload (log 2, 0) -> (1/3, 2/3).
    half = BlockVector(([0.5, 0.5],))
    v = BlockVector(([math.log(2.0), 0.0],))
    z = fused_inertial_prox(ENTROPY2, half, half, 1.0, v, 1.0)
    assert z.blocks[0] == pytest.approx([1.0 / 3.0, 2.0 / 3.0], rel=1e-14)


def test_ball_prox_frozen():
    x_cur = BlockVector(([0.8, 0.0],))
    x_prev = BlockVector(([0.0, 0.6],))
    v = BlockVector(([-1.0, 0.0],))
    z = fused_inertial_prox(BALL2, x_cur, x_prev, 0.5, v, 1.0)
    combo = np.array([1.4, 0.3])
    assert z.blocks[0] == pytest.approx(combo / math.sqrt(2.05), rel=1e-14)


def test_free_prox_is_affine_combination():
    x_cur = BlockVector(([2.0, 1.0],))
    x_prev = BlockVector(([0.0, -1.0],))
    v = BlockVector(([1.0, 1.0],))
    z = fused_inertial_prox(FREE2, x_cur, x_prev, 0.25, v, 0.5)
    assert z.blocks[0] == pytest.approx([0.0, -1.0], rel=1e-14)


def test_prox_param_validation():
    half = BlockVector(([0.5, 0.5],))
    v = BlockVector.zeros((2,))
    for gamma, alpha in ((0.0, 0.1), (1.2, 0.1), (0.5, 0.0), (0.5, -1.0)):
        with pytest.raises(ParameterError):
            fused_inertial_prox(ENTROPY2, half, half, gamma, v, alpha)


def test_entropy_prox_rejects_negative_input():
    bad = BlockVector(([-0.2, 1.2],))
    half = BlockVector(([0.5, 0.5],))
    with pytest.raises(DomainError):
        fused_inertial_prox(ENTROPY2, bad, half, 0.5, BlockVector.zeros((2,)), 0.1)


def test_entropy_prox_survives_tiny_weights():
    tiny = BlockVector(([1e-280, 1.0],))
    half = BlockVector(([0.5, 0.5],))
    z = fused_inertial_prox(ENTROPY2, tiny, half, 0.9, BlockVector.zeros((2,)), 0.1)
    assert np.all(np.isfinite(z.blocks[0]))
    assert float(np.sum(z.blocks[0])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", [ENTROPY_SIMPLEX, EUCLIDEAN_BALL, EUCLIDEAN_FREE])
@pytest.mark.parametrize("dims", [(7,), (4, 3, 5)], ids=["one-block", "three-blocks"])
def test_prox_bits_match_plain_expression(kind, dims):
    """The in-place prox gives the bits of the plain expression, with the
    floor, gamma = 1 and both sides of the ball's radius exercised."""
    spec = GeometrySpec(kind, dims, radius=0.5)
    rng = np.random.default_rng(23)
    on_sphere = []
    for trial in range(40):
        x_cur = helpers.random_feasible(spec, rng)
        x_prev = helpers.random_feasible(spec, rng)
        if kind == ENTROPY_SIMPLEX and trial % 4 == 0:
            x_prev.data[0] = 0.0
        v = BlockVector.wrap(rng.standard_normal(sum(dims)) * 10.0 ** (trial % 5 - 2), dims)
        gamma = 1.0 if trial % 3 == 0 else float(rng.uniform(0.01, 1.0))
        alpha = float(rng.uniform(0.01, 2.0))
        got = fused_inertial_prox(spec, x_cur, x_prev, gamma, v, alpha)
        want = helpers.reference_prox(spec, x_cur, x_prev, gamma, v, alpha)
        assert got.data.tobytes() == want.tobytes()
        on_sphere += [math.isclose(math.sqrt(b @ b), 0.5) for b in got.blocks]
    if kind == EUCLIDEAN_BALL:
        assert any(on_sphere) and not all(on_sphere)


@pytest.mark.parametrize("kind", [ENTROPY_SIMPLEX, EUCLIDEAN_BALL, EUCLIDEAN_FREE])
def test_prox_matches_bruteforce_minimizer(kind):
    rng = np.random.default_rng(21)
    n, d = 10, 5
    spec = GeometrySpec(kind, (d,))
    if kind == ENTROPY_SIMPLEX:
        xc = rng.dirichlet(np.full(d, 6.0), size=n)
        xp = rng.dirichlet(np.full(d, 6.0), size=n)
    else:
        xc = rng.uniform(-0.3, 0.3, size=(n, d))
        xp = rng.uniform(-0.3, 0.3, size=(n, d))
    v = rng.uniform(-0.5, 0.5, size=(n, d))
    alpha = rng.uniform(0.05, 0.2, size=n)
    gamma = rng.uniform(0.1, 1.0, size=n)
    oracle = helpers.brute_prox_oracle(kind, xc, xp, gamma, v, alpha)
    for i in range(n):
        z = fused_inertial_prox(spec, BlockVector((xc[i],)), BlockVector((xp[i],)),
                                float(gamma[i]), BlockVector((v[i],)), float(alpha[i]))
        assert np.linalg.norm(z.blocks[0] - oracle[i]) <= 1e-6
        assert helpers.is_feasible(spec, z)
        # The closed form should never beat the oracle by more than noise,
        # nor lose to it: both certify the same minimum.
        f_cf = helpers.prox_objective(kind, z.blocks[0], xc[i], xp[i],
                                      float(gamma[i]), v[i], float(alpha[i]))
        f_ref = helpers.prox_objective(kind, oracle[i], xc[i], xp[i],
                                       float(gamma[i]), v[i], float(alpha[i]))
        assert f_cf <= f_ref + 1e-10


@pytest.mark.parametrize("kind", [ENTROPY_SIMPLEX, EUCLIDEAN_BALL, EUCLIDEAN_FREE])
def test_prox_inequality_holds_and_detects_fakes(kind):
    rng = np.random.default_rng(33)
    spec = GeometrySpec(kind, (4,))
    for _ in range(10):
        xc = helpers.random_feasible(spec, rng)
        xp = helpers.random_feasible(spec, rng)
        if kind == ENTROPY_SIMPLEX:
            xc = BlockVector(tuple(np.maximum(b, 1e-9) for b in xc.blocks))
            xp = BlockVector(tuple(np.maximum(b, 1e-9) for b in xp.blocks))
        v = BlockVector(tuple(rng.uniform(-0.5, 0.5, d) for d in spec.block_dims))
        gamma = float(rng.uniform(0.2, 1.0))
        alpha = float(rng.uniform(0.05, 0.3))
        z_plus = fused_inertial_prox(spec, xc, xp, gamma, v, alpha)
        points = [helpers.random_feasible(spec, rng) for _ in range(50)]
        assert all(helpers.prox_inequality_check(spec, z_plus, z, xc, xp, gamma, alpha, v)
                   for z in points)
        # A point pulled away from the true prox must fail against it.
        fake = z_plus.scaled(0.5)
        fake = fake + uniform_start(spec).scaled(0.5) if kind == ENTROPY_SIMPLEX \
            else fake + BlockVector.full(spec.block_dims, 0.05)
        fake = helpers.euclidean_project(spec, fake)
        if kind == ENTROPY_SIMPLEX:
            fake = BlockVector(tuple(np.maximum(b, 1e-12) for b in fake.blocks))
        assert not helpers.prox_inequality_check(spec, fake, z_plus, xc, xp, gamma, alpha, v)


# ---------------------------------------------------------------------------
# Projections, feasibility, starts.
# ---------------------------------------------------------------------------

def test_simplex_projection_frozen():
    z = helpers.euclidean_project(ENTROPY2, BlockVector(([2.0, 2.0],)))
    assert z.blocks[0] == pytest.approx([0.5, 0.5], rel=1e-15)
    z = helpers.euclidean_project(ENTROPY2, BlockVector(([1.0, 0.0],)))
    assert z.blocks[0] == pytest.approx([1.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_projection_variational_characterization(spec):
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = BlockVector(tuple(2.0 * rng.standard_normal(d) for d in spec.block_dims))
        proj = helpers.euclidean_project(spec, y)
        assert helpers.is_feasible(spec, proj)
        for _ in range(10):
            z = helpers.random_feasible(spec, rng)
            assert float((y - proj).data @ (z - proj).data) <= 1e-9


def test_ball_projection_scales_to_radius():
    spec = GeometrySpec(EUCLIDEAN_BALL, (2,), radius=0.5)
    z = helpers.euclidean_project(spec, BlockVector(([3.0, 4.0],)))
    assert np.linalg.norm(z.blocks[0]) == pytest.approx(0.5, rel=1e-12)
    assert z.blocks[0] == pytest.approx([0.3, 0.4], rel=1e-12)


def test_is_feasible_cases():
    assert helpers.is_feasible(ENTROPY2, BlockVector(([0.5, 0.5],)))
    assert not helpers.is_feasible(ENTROPY2, BlockVector(([0.7, 0.5],)))
    assert helpers.is_feasible(BALL2, BlockVector(([0.6, 0.8],)))
    assert not helpers.is_feasible(BALL2, BlockVector(([1.0, 0.5],)))
    assert helpers.is_feasible(FREE2, BlockVector(([1e6, -1e6],)))


def test_uniform_start():
    assert np.allclose(uniform_start(GeometrySpec(ENTROPY_SIMPLEX, (4, 2))).data,
                       [0.25] * 4 + [0.5] * 2, rtol=1e-12, atol=0.0)
    assert np.allclose(uniform_start(BALL2).data, [0.0, 0.0], rtol=1e-12, atol=0.0)


def test_geometry_spec_validation():
    with pytest.raises(ParameterError):
        GeometrySpec("Sphere", (2,))
    with pytest.raises(ParameterError):
        GeometrySpec(ENTROPY_SIMPLEX, ())
    with pytest.raises(ParameterError):
        GeometrySpec(EUCLIDEAN_BALL, (2,), radius=0.0)
    assert math.isinf(GeometrySpec(ENTROPY_SIMPLEX, (3,)).mirror_lipschitz)
    assert GeometrySpec(EUCLIDEAN_FREE, (3,)).mirror_lipschitz == 1.0
