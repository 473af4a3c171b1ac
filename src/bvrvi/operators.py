"""Finite-sum operators with importance-sampled component oracles.

Each problem exposes the averaged operator F(z) = (1/M) * sum_i F_i(z)
through two oracles: a full evaluation and a component evaluation that is
unbiased under the problem's sampling distribution.  Three kinds are
provided:

* :class:`MatrixGameOperator`: bilinear saddle operator on a product of
  simplices, with the adaptive coordinate distribution built from the
  current and anchor iterates.
* :class:`RegularizedGameOperator`: bilinear saddle operator with a
  repulsive linear term on a product of unit balls; a weak Minty
  condition holds with an explicit rho.  Sampling weights are fixed
  (squared row / column norms).
* :class:`AffineStrongOperator`: strongly monotone affine operator split
  into M affine components whose perturbations sum to zero; sampled
  uniformly.

The two games share one bilinear full and component oracle
(``_BilinearGame``) and differ only in geometry, constants and weights.
The component index space is a grid (n_rows x n_cols); M = n_rows * n_cols.
A distribution holds sampling weights only: whether to sample at all is
the solver's decision, which skips the batch when the two points of the
difference coincide.  Oracle usage is tracked by :class:`OracleCounters`:
a full evaluation counts as M component calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .geometry import (
    ENTROPY_SIMPLEX,
    EUCLIDEAN_BALL,
    BlockVector,
    DualVector,
    GeometrySpec,
    check_layout,
)

#: Payoff rows per pass of a bilinear full evaluation.  A chunk of 128
#: rows of a 1000-column payoff is 1 MB, small enough to stay in cache
#: between its two products, so the payoff is read from memory once.
_FULL_CHUNK_ROWS = 128


@dataclass
class OracleCounters:
    """Running totals of oracle work.

    ``component_calls`` includes M units for every full evaluation, so it
    is the single number to compare against theoretical complexity.
    """

    full_evals: int = 0
    component_calls: int = 0

    def record_full(self, m: int) -> None:
        self.full_evals += 1
        self.component_calls += m

    def record_component(self, units: int = 1) -> None:
        self.component_calls += units


@dataclass(frozen=True)
class OracleSampleDistribution:
    """Product distribution over the component grid.

    ``r`` weights rows, ``c`` weights columns; both sum to one up to
    rounding.  ``last_r`` and ``last_c`` are the indices at which the
    cumulative weight first reaches its total; each has positive weight.
    A total that rounds below one leaves uniforms at or above it, and the
    sampler sends those draws to these indices rather than to the last
    one, whose weight may be zero.
    """

    r: np.ndarray
    c: np.ndarray
    cum_r: np.ndarray = field(repr=False, default=None)
    cum_c: np.ndarray = field(repr=False, default=None)
    last_r: int = field(repr=False, init=False)
    last_c: int = field(repr=False, init=False)

    def __post_init__(self):
        cum_r, cum_c = np.cumsum(self.r), np.cumsum(self.c)
        object.__setattr__(self, "cum_r", cum_r)
        object.__setattr__(self, "cum_c", cum_c)
        object.__setattr__(self, "last_r", int(np.searchsorted(cum_r, cum_r[-1])))
        object.__setattr__(self, "last_c", int(np.searchsorted(cum_c, cum_c[-1])))


def _normalized(w: np.ndarray) -> np.ndarray:
    """w >= 0 scaled to sum 1; uniform fallback when w is zero."""
    s = float(np.sum(w))
    if s == 0.0:
        return np.full(w.size, 1.0 / w.size)
    return w / s


def _bilinear_full(payoff: np.ndarray, z: BlockVector) -> np.ndarray:
    """Flat (A^T y, -(A x)) for z = (x, y), in one pass over the payoff.

    Each chunk of rows feeds both products while it is in cache.  With
    a single chunk (n <= _FULL_CHUNK_ROWS) the result is bit-identical
    to the two plain mat-vecs; with more, A^T y is summed chunk by chunk
    and may differ from them in its last bits.
    """
    n = payoff.shape[0]
    x, y = z.blocks
    out = np.empty(2 * n)
    aty, ax = out[:n], out[n:]
    for lo in range(0, n, _FULL_CHUNK_ROWS):
        hi = min(lo + _FULL_CHUNK_ROWS, n)
        rows = payoff[lo:hi]
        np.matmul(rows, x, out=ax[lo:hi])
        if lo == 0:
            np.matmul(y[lo:hi], rows, out=aty)
        else:
            aty += y[lo:hi] @ rows
    np.negative(ax, out=ax)
    return out


class FiniteSumProblem:
    """Base class: geometry, constants, the two oracles and fixed weights ``_dist``."""

    geometry: GeometrySpec
    n_rows: int
    n_cols: int
    lip: float        # Lipschitz constant of the averaged operator
    lip_bar: float    # mean-square Lipschitz constant of the components
    tag: str          # monotone | non-monotone-weak-minty | strongly-pseudomonotone
    rho: float | None = None
    beta: float | None = None
    solution: BlockVector | None = None
    _dist: OracleSampleDistribution

    @property
    def num_components(self) -> int:
        return self.n_rows * self.n_cols

    def full(self, z: BlockVector) -> DualVector:
        raise NotImplementedError

    def component(self, xi: tuple[int, int], z: BlockVector,
                  dist: OracleSampleDistribution) -> DualVector:
        raise NotImplementedError

    def distribution(self, u: BlockVector, v: BlockVector) -> OracleSampleDistribution:
        check_layout(self.geometry, u, "u")
        check_layout(self.geometry, v, "v")
        return self._dist

    def _check_index(self, xi: tuple[int, int], z: BlockVector,
                     dist: OracleSampleDistribution) -> tuple[int, int, float, float]:
        """(i, k, r_i, c_k) for a draw xi at z; refuses an index off the
        grid, a z of the wrong layout and an index of zero probability."""
        i, k = int(xi[0]), int(xi[1])
        if not (0 <= i < self.n_rows and 0 <= k < self.n_cols):
            raise ParameterError(
                f"component index {xi} outside grid {self.n_rows}x{self.n_cols}"
            )
        check_layout(self.geometry, z, "z")
        ri, ck = float(dist.r[i]), float(dist.c[k])
        if ri <= 0.0 or ck <= 0.0:
            raise RuntimeError(
                f"internal invariant violation: drew zero-probability index {xi}"
            )
        return i, k, ri, ck


class _BilinearGame(FiniteSumProblem):
    """F(x, y) = (A^T y - lam*x, -A x - lam*y) for a square payoff A, kept uncopied.

    The component at (i, k) is (A[i, :] y_i / r_i, -A[:, k] x_k / c_k) -
    lam*z: importance weighted, so a single draw is unbiased for F.  The
    lam term is skipped when lam is zero, so the matrix game makes no
    extra pass over z.  A full evaluation reads the payoff once (see
    ``_bilinear_full``).
    """

    lam = 0.0

    def __init__(self, payoff: np.ndarray):
        payoff = np.asarray(payoff, dtype=np.float64)
        if payoff.ndim != 2 or payoff.shape[0] != payoff.shape[1]:
            raise ParameterError(f"payoff must be square, got shape {payoff.shape}")
        self.payoff = payoff
        self.n = self.n_rows = self.n_cols = payoff.shape[0]

    def full(self, z: BlockVector) -> DualVector:
        check_layout(self.geometry, z, "z")
        out = _bilinear_full(self.payoff, z)
        if self.lam:
            out -= self.lam * z.data
        return BlockVector.wrap(out, self.geometry.block_dims)

    def component(self, xi, z, dist) -> DualVector:
        i, k, ri, ck = self._check_index(xi, z, dist)
        n = self.n
        x, y = z.blocks
        out = np.empty(2 * n)
        np.multiply(self.payoff[i, :], y[i] / ri, out=out[:n])
        np.multiply(self.payoff[:, k], -(x[k] / ck), out=out[n:])
        if self.lam:
            out -= self.lam * z.data
        return BlockVector.wrap(out, self.geometry.block_dims)


class MatrixGameOperator(_BilinearGame):
    """Saddle operator F(x, y) = (A^T y, -A x) on simplex blocks.

    The sampling distribution adapts to the pair of points that the
    variance-reduced difference will be evaluated at: row weights are the
    normalized coordinate gaps of the second block, column weights those
    of the first block.
    """

    def __init__(self, payoff: np.ndarray):
        super().__init__(payoff)
        n = self.n
        self.geometry = GeometrySpec(ENTROPY_SIMPLEX, (n, n))
        self.lip = float(np.max(np.abs(self.payoff)))
        self.lip_bar = self.lip
        self.tag = "monotone"
        self.rho = 0.0

    def distribution(self, u, v) -> OracleSampleDistribution:
        check_layout(self.geometry, u, "u")
        check_layout(self.geometry, v, "v")
        gap_x, gap_y = BlockVector.wrap(np.abs(u.data - v.data), u.block_dims).blocks
        return OracleSampleDistribution(r=_normalized(gap_y), c=_normalized(gap_x))


class RegularizedGameOperator(_BilinearGame):
    """Saddle operator with a repulsive regularizer on unit-ball blocks.

    F(x, y) = (A^T y - lam*x, -A x - lam*y).  The origin solves the
    problem.  Monotonicity fails for lam > 0, but the star condition
    <F(z), z - 0> >= -rho * |F(z)|^2 holds with rho = lam / (lam^2 + s^2),
    s the spectral norm of A.  Sampling weights are fixed squared row and
    column norms, so the distribution does not depend on the query points.
    """

    def __init__(self, payoff: np.ndarray, lam: float, spectral_norm: float | None = None):
        super().__init__(payoff)
        if lam <= 0:
            raise ParameterError(f"lam must be positive, got {lam}")
        payoff, n = self.payoff, self.n
        self.lam = float(lam)
        self.geometry = GeometrySpec(EUCLIDEAN_BALL, (n, n), radius=1.0)
        s = power_iteration_norm(payoff) if spectral_norm is None else float(spectral_norm)
        self.spectral = s
        self.lip = float(np.sqrt(lam * lam + s * s))
        self.lip_bar = self.lip
        self.tag = "non-monotone-weak-minty"
        self.rho = float(lam / (lam * lam + s * s))
        self.solution = BlockVector.zeros((n, n))
        fro2 = float(np.sum(payoff * payoff))
        if fro2 == 0.0:
            raise ParameterError("payoff matrix is zero; sampling weights undefined")
        r = np.sum(payoff * payoff, axis=1) / fro2
        c = np.sum(payoff * payoff, axis=0) / fro2
        self._dist = OracleSampleDistribution(r=r, c=c)


class AffineStrongOperator(FiniteSumProblem):
    """Strongly monotone affine operator split into M affine components.

    F(z) = H z + q with H = mu*I + skew, so <F(a)-F(b), a-b> =
    mu*|a-b|^2.  The components are H_i = H + Z_i with skew
    perturbations Z_i summing to zero; each component keeps the same
    strong monotonicity modulus.  A single block, uniform sampling over
    an (M x 1) grid.

    The growth condition <F(y), y - x*> >= beta * D(x*, y) holds globally
    with beta = 2*mu for any strongly monotone operator.  When the
    solution sits on the ball boundary with an active multiplier t =
    |F(x*)|, the anchored version of the condition improves to beta =
    2*mu + t; constructors may pass that sharper value.
    """

    def __init__(self, mean_matrix, offset, mu, perturbations,
                 geometry: GeometrySpec, beta: float | None = None,
                 solution: BlockVector | None = None):
        h = np.asarray(mean_matrix, dtype=np.float64)
        d = h.shape[0]
        if h.shape != (d, d):
            raise ParameterError(f"mean matrix must be square, got {h.shape}")
        if len(geometry.block_dims) != 1 or geometry.block_dims[0] != d:
            raise ParameterError("AffineStrongOperator expects a single block of matching size")
        self.h = h
        self.q = np.asarray(offset, dtype=np.float64)
        self.mu = float(mu)
        self.components_h = [np.asarray(p, dtype=np.float64) for p in perturbations]
        if not self.components_h:
            raise ParameterError("need at least one component")
        total = sum(self.components_h)
        if float(np.max(np.abs(total))) > 1e-10 * max(1.0, float(np.max(np.abs(h)))):
            raise ParameterError("component perturbations must sum to zero")
        self.geometry = geometry
        self.n_rows = len(self.components_h)
        self.n_cols = 1
        # Component matrices H_i = H + Z_i, formed once for the oracle.
        self._component_mats = [h + z for z in self.components_h]
        self.lip = power_iteration_norm(h)
        self.lip_bar = float(np.sqrt(np.mean(
            [power_iteration_norm(hi) ** 2 for hi in self._component_mats])))
        self.tag = "strongly-pseudomonotone"
        self.rho = 0.0
        self.beta = 2.0 * self.mu if beta is None else float(beta)
        self.solution = solution
        m = self.n_rows
        self._dist = OracleSampleDistribution(r=np.full(m, 1.0 / m), c=np.ones(1))

    def full(self, z: BlockVector) -> DualVector:
        check_layout(self.geometry, z, "z")
        return BlockVector.wrap(self.h @ z.data + self.q, self.geometry.block_dims)

    def component(self, xi, z, dist) -> DualVector:
        i, _, ri, _ = self._check_index(xi, z, dist)
        scale = 1.0 / (self.n_rows * ri)
        return BlockVector.wrap(scale * (self._component_mats[i] @ z.data + self.q),
                     self.geometry.block_dims)


# ---------------------------------------------------------------------------
# Free-function oracle layer with usage accounting.
# ---------------------------------------------------------------------------

def full_eval(problem: FiniteSumProblem, z: BlockVector,
              counters: OracleCounters | None = None) -> DualVector:
    if counters is not None:
        counters.record_full(problem.num_components)
    return problem.full(z)


def make_distribution(problem: FiniteSumProblem, u: BlockVector,
                      v: BlockVector) -> OracleSampleDistribution:
    return problem.distribution(u, v)


def component_eval(problem: FiniteSumProblem, xi: tuple[int, int], z: BlockVector,
                   dist: OracleSampleDistribution,
                   counters: OracleCounters | None = None) -> DualVector:
    if counters is not None:
        counters.record_component()
    return problem.component(xi, z, dist)


def sample_batch(dist: OracleSampleDistribution, b: int,
                 rng: np.random.Generator) -> list[tuple[int, int]]:
    """Draw b i.i.d. index pairs by inverse CDF on the row and column axes.

    Consumes exactly 2*b uniforms: first the rows, then the columns.  A
    uniform at or above the total weight goes to ``last_r`` or ``last_c``.
    """
    if b < 1:
        raise ParameterError(f"batch size must be >= 1, got {b}")
    rows = np.searchsorted(dist.cum_r, rng.random(b), side="right")
    cols = np.searchsorted(dist.cum_c, rng.random(b), side="right")
    rows = np.minimum(rows, dist.last_r)
    cols = np.minimum(cols, dist.last_c)
    return list(zip(rows.tolist(), cols.tolist()))


def estimator_delta(f_anchor: DualVector, problem: FiniteSumProblem,
                    x_s: BlockVector, w_prev: BlockVector,
                    batch, dist: OracleSampleDistribution,
                    counters: OracleCounters | None = None) -> DualVector:
    """Variance-reduced direction F(w) + mean_{xi in batch} (F_xi(x_s) - F_xi(w_prev))."""
    batch = list(batch)
    if not batch:
        raise ParameterError("batch is empty; draw at least one component index")
    acc = np.zeros(f_anchor.data.size)
    for xi in batch:
        acc += component_eval(problem, xi, x_s, dist, counters).data
        acc -= component_eval(problem, xi, w_prev, dist, counters).data
    acc *= 1.0 / len(batch)
    acc += f_anchor.data
    return BlockVector.wrap(acc, f_anchor.block_dims)


# ---------------------------------------------------------------------------
# Spectral norms.
# ---------------------------------------------------------------------------

def power_iteration_norm(mat: np.ndarray) -> float:
    """Spectral norm (largest singular value), computed exactly by SVD.

    Power iteration stalls on matrices whose top singular values nearly
    tie, as in the linear-rate fixtures, and can only err low.
    """
    return float(np.linalg.norm(np.asarray(mat, dtype=np.float64), 2))


# ---------------------------------------------------------------------------
# Experiment builders.
# ---------------------------------------------------------------------------

def build_matrix_game(n: int, matrix_seed: int = 0) -> MatrixGameOperator:
    """Random payoff game: standard normal entries, simplex blocks."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(matrix_seed)
    return MatrixGameOperator(rng.standard_normal((n, n)))


def build_regularized_game(n: int, lam: float = 0.01,
                           target_spectral: float = 10.0) -> RegularizedGameOperator:
    """Structured payoff game on unit balls.

    Entries ((|i - j| + 1) / (2n - 1))^2, rescaled so the spectral norm
    equals target_spectral; the operator declares target_spectral as its
    norm, which the rescaled matrix matches up to floating-point rounding.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    idx = np.arange(n)
    base = ((np.abs(idx[:, None] - idx[None, :]) + 1.0) / (2.0 * n - 1.0)) ** 2
    scaled = base * (target_spectral / power_iteration_norm(base))
    return RegularizedGameOperator(scaled, lam=lam, spectral_norm=target_spectral)


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / float(np.linalg.norm(vec))


def _skew_normalized(mat: np.ndarray) -> np.ndarray:
    s = 0.5 * (mat - mat.T)
    return s / power_iteration_norm(s)


#: Frozen constants of the two linear-rate fixture variants.  The window
#: of admissible step sizes for the geometric decay guarantee is narrow;
#: these values sit strictly inside it (asserted by theory_bounds).
#:
#: * ``p-lt-1`` places the solution in the interior (no active
#:   constraint), so the plain growth modulus beta = 2*mu applies.  The
#:   premise alpha*beta > 1/2 + gamma then forces alpha*mu^2 close to
#:   (1-gamma)/(1-p); the window stays open only for gamma near 0.45,
#:   small p, and a large enough batch.
#: * ``p-eq-1`` needs alpha*beta > 1/2 + gamma together with
#:   gamma > alpha*(1 + L^2) + 2*alpha^2*Lbar^2/b, which no interior
#:   instance can satisfy with beta = 2*mu.  The solution is therefore
#:   placed on the ball boundary with an active multiplier t = |F(x*)|;
#:   the growth inequality anchored at that solution gains the term
#:   t*(1 - <x*, y>) >= (t/2)*|y - x*|^2, sharpening the modulus to
#:   beta = 2*mu + t, which is all the geometric-decay argument uses.
LINEAR_RATE_VARIANTS = {
    # 0 < p < 1: anchor falls back to the current iterate on tails.
    "p-lt-1": dict(dim=8, m=32, mu=1.17, skew_scale=0.01, perturb_scale=0.02,
                   interior_radius=0.6, multiplier=0.0,
                   gamma=0.45, p=0.05, alpha=0.41, b=32, iters=3000),
    # p = 1: the anchor is refreshed every iteration.
    "p-eq-1": dict(dim=8, m=8, mu=1.0, skew_scale=0.1, perturb_scale=0.05,
                   interior_radius=1.0, multiplier=2.72,
                   gamma=0.9, p=1.0, alpha=0.3, b=4, iters=3000),
}


def build_linear_rate_fixture(variant: str):
    """Strongly monotone fixture with a known solution.

    Returns (problem, run_params) where run_params carries gamma, p,
    alpha, b and iters.  The solution is a fixed multiple of the
    normalized all-ones vector: interior with F(x*) = 0 for the p < 1
    variant (beta = 2*mu), on the boundary with multiplier t for the
    p = 1 variant (anchored beta = 2*mu + t, see LINEAR_RATE_VARIANTS).
    """
    if variant not in LINEAR_RATE_VARIANTS:
        raise ParameterError(
            f"unknown linear-rate variant {variant!r}; expected one of "
            f"{sorted(LINEAR_RATE_VARIANTS)}"
        )
    cfg = LINEAR_RATE_VARIANTS[variant]
    d, m = cfg["dim"], cfg["m"]
    idx = np.arange(d, dtype=np.float64)
    skew = _skew_normalized(idx[:, None] - idx[None, :])
    h = cfg["mu"] * np.eye(d) + cfg["skew_scale"] * skew

    # Deterministic zero-sum skew perturbations, in +/- pairs.
    gen = np.random.default_rng(20240 + (0 if variant == "p-lt-1" else 1))
    perts = []
    for _ in range(m // 2):
        u, v = _unit(gen.standard_normal(d)), _unit(gen.standard_normal(d))
        z = cfg["perturb_scale"] * _skew_normalized(np.outer(u, v) - np.outer(v, u))
        perts.extend([z, -z])
    if m % 2 == 1:
        perts.append(np.zeros((d, d)))

    x_star = cfg["interior_radius"] * _unit(np.ones(d))
    t = cfg["multiplier"]
    q = -(h @ x_star) - t * x_star
    geometry = GeometrySpec(EUCLIDEAN_BALL, (d,), radius=1.0)
    problem = AffineStrongOperator(
        h, q, cfg["mu"], perts, geometry,
        beta=2.0 * cfg["mu"] + t,
        solution=BlockVector((x_star,)),
    )
    run_params = dict(gamma=cfg["gamma"], p=cfg["p"], alpha=cfg["alpha"],
                      b=cfg["b"], iters=cfg["iters"])
    return problem, run_params
