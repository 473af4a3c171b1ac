"""Independent oracles and second-path formulas used by the test suite.

Everything here is implemented from the mathematical definitions without
calling into the code paths under test (except trivially shared
containers, the full operator and the Bregman divergence, which their
own frozen-value tests pin), so agreement between the two routes is
evidence, not tautology.  None of it is on a user path, which is why it
lives here and not in the package.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from bvrvi.errors import ParameterError
from bvrvi.geometry import (
    ENTROPY_SIMPLEX,
    EUCLIDEAN_BALL,
    EUCLIDEAN_FREE,
    BlockVector,
    GeometrySpec,
    bregman_divergence,
    fused_inertial_prox,
    uniform_start,
)
from bvrvi.operators import FiniteSumProblem, OracleSampleDistribution


# ---------------------------------------------------------------------------
# Brute-force fused-prox minimizer (one block per row, many instances).
# ---------------------------------------------------------------------------

def _slsqp_entropy_prox(x_cur, x_prev, gamma, v, alpha) -> np.ndarray:
    from scipy.optimize import minimize

    lc, lp = np.log(x_cur), np.log(x_prev)

    def objective(z):
        lz = np.log(np.maximum(z, 1e-300))
        kl_c = float(np.sum(z * (lz - lc) - z + x_cur))
        kl_p = float(np.sum(z * (lz - lp) - z + x_prev))
        return alpha * float(v @ z) + gamma * kl_c + (1.0 - gamma) * kl_p

    def grad(z):
        lz = np.log(np.maximum(z, 1e-300))
        return alpha * v + gamma * (lz - lc) + (1.0 - gamma) * (lz - lp)

    d = x_cur.shape[0]
    with warnings.catch_warnings():
        # SLSQP probes marginally out-of-bounds points and clips; harmless.
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(objective, np.full(d, 1.0 / d), jac=grad, method="SLSQP",
                       bounds=[(1e-18, 1.0)] * d,
                       constraints=[{"type": "eq",
                                     "fun": lambda z: z.sum() - 1.0,
                                     "jac": lambda z: np.ones_like(z)}],
                       options={"maxiter": 1000, "ftol": 1e-16})
    if res.status != 0:
        raise RuntimeError(f"reference prox solve failed: {res.message}")
    return res.x


def brute_prox_oracle(kind: str, x_cur: np.ndarray, x_prev: np.ndarray,
                      gamma: np.ndarray, v: np.ndarray, alpha: np.ndarray,
                      radius: float = 1.0) -> np.ndarray:
    """Brute-force minimizer of the fused prox objective, rowwise.

    Inputs are (instances, dim) arrays; gamma and alpha are per-row.  The
    Euclidean kinds are solved in one exact step (unit curvature); the
    entropy kind is handed to a constrained SQP solver, an algorithm with
    nothing in common with the closed form it certifies.
    """
    g = np.asarray(gamma, dtype=np.float64)[:, None]
    a = np.asarray(alpha, dtype=np.float64)[:, None]
    if kind == ENTROPY_SIMPLEX:
        return np.stack([
            _slsqp_entropy_prox(x_cur[i], x_prev[i], float(gamma[i]), v[i],
                                float(alpha[i]))
            for i in range(x_cur.shape[0])
        ])
    combo = g * x_cur + (1.0 - g) * x_prev - a * v
    if kind == EUCLIDEAN_BALL:
        nrm = np.linalg.norm(combo, axis=1, keepdims=True)
        scale = np.minimum(1.0, radius / np.maximum(nrm, 1e-300))
        return combo * scale
    if kind == EUCLIDEAN_FREE:
        return combo
    raise ValueError(f"unknown kind {kind!r}")


def prox_objective(kind: str, z: np.ndarray, x_cur: np.ndarray,
                   x_prev: np.ndarray, gamma: float, v: np.ndarray,
                   alpha: float) -> float:
    """Value of <alpha*v, z> + gamma*D(z, x_cur) + (1-gamma)*D(z, x_prev)."""
    if kind == ENTROPY_SIMPLEX:
        def kl(pa, pb):
            pos = pa > 0
            return float(np.sum(pa[pos] * np.log(pa[pos] / pb[pos]))
                         + np.sum(pb) - np.sum(pa))
        return float(alpha * (v @ z) + gamma * kl(z, x_cur)
                     + (1.0 - gamma) * kl(z, x_prev))
    return float(alpha * (v @ z)
                 + 0.5 * gamma * np.sum((z - x_cur) ** 2)
                 + 0.5 * (1.0 - gamma) * np.sum((z - x_prev) ** 2))


def prox_inequality_check(spec: GeometrySpec, z_plus: BlockVector, z: BlockVector,
                          z1: BlockVector, z2: BlockVector, gamma: float,
                          alpha: float, v: BlockVector, tol: float = 1e-8) -> bool:
    """Three-point optimality test for the fused prox output.

    With z_plus the prox of direction v anchored at (z1, z2), every
    feasible z must satisfy

        alpha*<v, z - z_plus> >= D(z, z_plus)
            + gamma*(D(z_plus, z1) - D(z, z1))
            + (1 - gamma)*(D(z_plus, z2) - D(z, z2))

    up to the tolerance.  Returns True when the inequality holds.
    """
    def div(a, b):
        return bregman_divergence(spec, a, b)

    lhs = alpha * float(v.data @ (z - z_plus).data)
    rhs = div(z, z_plus)
    rhs += gamma * (div(z_plus, z1) - div(z, z1))
    rhs += (1.0 - gamma) * (div(z_plus, z2) - div(z, z2))
    return lhs >= rhs - tol


# ---------------------------------------------------------------------------
# Feasibility and Euclidean projection onto the constraint sets.
# ---------------------------------------------------------------------------

def is_feasible(spec: GeometrySpec, x: BlockVector, tol: float = 1e-9) -> bool:
    if spec.kind == ENTROPY_SIMPLEX:
        return all(
            np.all(b >= -tol) and abs(float(np.sum(b)) - 1.0) <= tol for b in x.blocks
        )
    if spec.kind == EUCLIDEAN_BALL:
        return all(float(np.linalg.norm(b)) <= spec.radius + tol for b in x.blocks)
    return True


def _project_simplex_block(y: np.ndarray) -> np.ndarray:
    """Euclidean projection of y onto the probability simplex (sort based)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, y.size + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    lam = css[rho] / (rho + 1)
    return np.maximum(y - lam, 0.0)


def euclidean_project(spec: GeometrySpec, x: BlockVector) -> BlockVector:
    """Euclidean projection onto the constraint set, blockwise."""
    if spec.kind == ENTROPY_SIMPLEX:
        return BlockVector(tuple(_project_simplex_block(b) for b in x.blocks))
    if spec.kind == EUCLIDEAN_BALL:
        out = []
        for b in x.blocks:
            nrm = float(np.linalg.norm(b))
            out.append(b * (spec.radius / nrm) if nrm > spec.radius else b.copy())
        return BlockVector(tuple(out))
    return x.copy()


# ---------------------------------------------------------------------------
# Small matrix-game equilibria by support enumeration.
# ---------------------------------------------------------------------------

def solve_small_matrix_game(payoff: np.ndarray, tol: float = 1e-9):
    """Equilibrium (x, y, value) of min_x max_y y^T A x on simplices.

    Exhaustive support enumeration; intended for n <= 4.  Returns the
    first support pair whose indifference solution is feasible and
    unimprovable.
    """
    a = np.asarray(payoff, dtype=np.float64)
    n = a.shape[0]
    supports = [tuple(s) for s in _nonempty_subsets(n)]
    for sy in supports:
        for sx in supports:
            if len(sx) != len(sy):
                continue
            sol = _indifference_solve(a, sy, sx)
            if sol is None:
                continue
            x, y, v = sol
            if np.min(x) < -tol or np.min(y) < -tol:
                continue
            if np.max(a @ x) > v + 1e-7 or np.min(a.T @ y) < v - 1e-7:
                continue
            return np.maximum(x, 0.0), np.maximum(y, 0.0), v
    raise RuntimeError("no equilibrium found; increase tolerance")


def _nonempty_subsets(n: int):
    for mask in range(1, 1 << n):
        yield [i for i in range(n) if mask >> i & 1]


def _indifference_solve(a, sy, sx):
    k = len(sx)
    sub = a[np.ix_(sy, sx)]
    # x makes the rows in sy indifferent; y makes the columns in sx.
    mx = np.zeros((k + 1, k + 1))
    mx[:k, :k] = sub
    mx[:k, k] = -1.0
    mx[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        solx = np.linalg.solve(mx, rhs)
        my = mx.copy()
        my[:k, :k] = sub.T
        soly = np.linalg.solve(my, rhs)
    except np.linalg.LinAlgError:
        return None
    if abs(solx[k] - soly[k]) > 1e-7:
        return None
    n = a.shape[0]
    x = np.zeros(n)
    y = np.zeros(n)
    x[list(sx)] = solx[:k]
    y[list(sy)] = soly[:k]
    return x, y, float(solx[k])


# ---------------------------------------------------------------------------
# Second-path guarantee formulas (different algebraic groupings).
# ---------------------------------------------------------------------------

def alt_step_bound(gamma, p, b, lip, lip_bar):
    return min((gamma - p) / (2.0 - 2.0 * p),
               b * (1.0 - gamma) / ((1.0 - p) * (2.0 * lip_bar ** 2 + b * lip ** 2)))


def alt_ergodic_coeff(gamma, alpha):
    return (2.0 - gamma) / alpha + 1.0


def alt_sigma1(gamma, p, alpha, b, lip, lip_bar, rho, lf):
    lead = 0.5 * (1.0 - gamma) / (1.0 - p) * (1.0 - 8.0 * rho * lf * lf / alpha)
    tail = alpha * (2.0 * alpha * lip ** 2 + 8.0 * rho * lip ** 2
                    + (4.0 * rho + 2.5 * alpha) * lip_bar ** 2 / b)
    return lead - tail


def alt_sigma2(gamma, p, alpha, b, lip, lip_bar, lf):
    return (8.0 * lip ** 2 + (4.0 / alpha ** 2) * ((1.0 - gamma) * lf * lf / (1.0 - p))
            + 4.0 * lip_bar ** 2 / b)


def alt_sigma1_p1(gamma, alpha, b, lip, lip_bar, rho, lf):
    tail = alpha * (4.0 * alpha * lip ** 2 + 16.0 * rho * lip ** 2
                    + (8.0 * rho + 5.0 * alpha) * lip_bar ** 2 / b)
    return (gamma - 0.5) - tail - 8.0 * gamma * rho * lf * lf / alpha


def alt_sigma2_p1(gamma, alpha, b, lip, lip_bar, lf):
    return 16.0 * lip ** 2 + 8.0 * (gamma / alpha ** 2) * lf * lf + 8.0 * lip_bar ** 2 / b


def alt_theta(gamma, p, alpha, b, lip, lip_bar, beta):
    t1 = (1.0 + 2.0 * alpha * beta + alpha) / (2.0 + 2.0 * gamma + alpha)
    t2 = (((1.0 - gamma) / (1.0 - p) + 2.0 * alpha * lip ** 2)
          / (alpha * (2.0 * alpha * lip_bar ** 2 / b + 3.0 * lip ** 2)))
    t3 = 1.0 / (1.0 - gamma)
    return min(t1, t2, t3)


def alt_varsigma(gamma, alpha, b, lip, lip_bar, beta):
    v1 = (1.0 + 2.0 * alpha * beta + alpha) / (2.0 + 2.0 * gamma + alpha)
    v2 = ((gamma + alpha * (2.0 * lip ** 2 - 1.0))
          / (alpha * (2.0 * alpha * lip_bar ** 2 / b + 3.0 * lip ** 2)))
    v3 = 1.0 / (1.0 - gamma) if gamma < 1.0 else math.inf
    return min(v1, v2, v3)


def alt_envelope_coeff(gamma, alpha):
    return 8.0 / (2.0 * (1.0 + gamma - alpha))


def linear_rate_envelope(bounds, d0: float, iterations) -> np.ndarray:
    """sqrt(envelope_coeff * D(x*, x0) / rate^s) at the given iterations."""
    rate = bounds.theta if bounds.theta is not None else bounds.varsigma
    if rate is None or bounds.envelope_coeff is None:
        raise ParameterError("bounds carry no geometric rate")
    its = np.asarray(list(iterations), dtype=np.float64)
    return np.sqrt(bounds.envelope_coeff * d0 / np.power(rate, its))


# ---------------------------------------------------------------------------
# Reference iterations and ad-hoc problems.
# ---------------------------------------------------------------------------

def reflected_reference(full_fn, spec: GeometrySpec, x0: BlockVector,
                        alpha: float, iters: int) -> list[BlockVector]:
    """Deterministic reflected update x+ = prox(x, alpha*(2F(x) - F(x-))).

    Returns [x0, x1, ..., x_iters]; the lagged point starts at x0.
    """
    x_prev, x = x0.copy(), x0.copy()
    traj = [x0.copy()]
    for _ in range(iters):
        direction = full_fn(x).scaled(2.0) - full_fn(x_prev)
        x_next = fused_inertial_prox(spec, x, x, 1.0, direction, alpha)
        x_prev, x = x, x_next
        traj.append(x_next)
    return traj


def extragradient_solve(problem: FiniteSumProblem, tol: float = 1e-12) -> BlockVector:
    """Projected extragradient for Euclidean monotone problems.

    Starts at the canonical start with step 1/(2L), two projections per
    iteration; stops when the scaled fixed-point residual
    |z - P(z - eta F(z))| / eta falls below tol, or after 200 000
    iterations.
    """
    geometry = problem.geometry
    eta = 0.5 / problem.lip
    z = uniform_start(geometry)
    for _ in range(200_000):
        half = euclidean_project(geometry, z - problem.full(z).scaled(eta))
        residual = math.sqrt(float(np.sum((z - half).data ** 2))) / eta
        z = euclidean_project(geometry, z - problem.full(half).scaled(eta))
        if residual <= tol:
            break
    return z


class SingleLinearSimplexProblem(FiniteSumProblem):
    """One-component linear operator on a single probability simplex."""

    def __init__(self, mat: np.ndarray, offset: np.ndarray):
        self.mat = np.asarray(mat, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)
        d = self.mat.shape[0]
        self.geometry = GeometrySpec(ENTROPY_SIMPLEX, (d,))
        self.n_rows = 1
        self.n_cols = 1
        self.lip = float(np.linalg.norm(self.mat, 2))
        self.lip_bar = self.lip
        self.tag = "monotone"
        self.rho = 0.0
        self.beta = None
        self.solution = None
        self._dist = OracleSampleDistribution(r=np.ones(1), c=np.ones(1))

    def full(self, z):
        return BlockVector((self.mat @ z.blocks[0] + self.offset,))

    def component(self, xi, z, dist):
        self._check_index(xi, z, dist)
        return self.full(z)


def random_feasible(spec: GeometrySpec, rng: np.random.Generator) -> BlockVector:
    """A random point in the constraint set (interior for simplices)."""
    if spec.kind == ENTROPY_SIMPLEX:
        return BlockVector(tuple(rng.dirichlet(np.ones(d)) for d in spec.block_dims))
    if spec.kind == EUCLIDEAN_BALL:
        out = []
        for d in spec.block_dims:
            raw = rng.standard_normal(d)
            raw *= spec.radius * rng.random() ** (1.0 / d) / np.linalg.norm(raw)
            out.append(raw)
        return BlockVector(tuple(out))
    return BlockVector(tuple(rng.standard_normal(d) for d in spec.block_dims))
