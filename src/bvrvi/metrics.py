"""Progress metrics and theoretical guarantee evaluation.

The gap, residual and distance metrics quantify solution quality for the
three operator families.  ``theory_bounds`` evaluates the constants that
appear in the convergence guarantees of the main iteration in four
regimes and checks every premise, naming the violated inequality when a
check fails:

* ``ergodic``: monotone problems, 0 < p < gamma < 1; the expected
  restricted gap of the averaged iterate decays like
  ``(2 + alpha - gamma) / (alpha * S)`` times the worst-case divergence.
* ``weak-minty`` / ``weak-minty-p1``: star conditions with modulus rho;
  the summed anchored-residual bound is ``(3 - gamma) * sigma2 / sigma1``
  times the starting divergence.
* ``linear`` / ``linear-p1``: growth modulus beta; geometric decay of the
  expected distance at rate theta (varsigma for p = 1), with envelope
  sqrt(4 / ((1 + gamma - alpha) * rate^s) * D(x*, x0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .geometry import (
    ENTROPY_SIMPLEX,
    BlockVector,
    GeometrySpec,
    check_layout,
    dual_norm,
)
from .operators import FiniteSumProblem, MatrixGameOperator
from .solver import monotone_step_bound


def duality_gap(problem: MatrixGameOperator, z: BlockVector) -> float:
    """max_i (A x)_i - min_j (A^T y)_j for a simplex matrix game.

    This equals the restricted gap over the full feasible set because the
    operator is bilinear and the blocks are compact.  Both products come
    from one full evaluation F(z) = (A^T y, -(A x)), which reads the
    payoff once.
    """
    if not isinstance(problem, MatrixGameOperator):
        raise ParameterError("duality_gap is defined for matrix games only")
    f_x, f_y = problem.full(z).blocks
    return float(-np.min(f_y) - np.min(f_x))


def scaled_norm_residual(z: BlockVector, scale_dim: int) -> float:
    """Flat Euclidean norm of z divided by sqrt(scale_dim)."""
    if scale_dim < 1:
        raise ParameterError(f"scale_dim must be >= 1, got {scale_dim}")
    return float(np.linalg.norm(z.data)) / math.sqrt(scale_dim)


def distance_to_solution(problem: FiniteSumProblem, z: BlockVector) -> float:
    if problem.solution is None:
        raise ParameterError("problem has no recorded solution")
    check_layout(problem.geometry, z, "z")
    d = z.data - problem.solution.data
    return math.sqrt(d.dot(d))


def natural_residual(problem: FiniteSumProblem, state, gamma: float,
                     alpha: float) -> float:
    """Dual norm of the implicit subgradient certificate of the last step.

    u = F(x_cur) - delta - (grad f(x_cur) - gamma*grad f(x_prev)
        - (1 - gamma)*grad f(x_prev2)) / alpha

    lies in F(x_cur) + normal cone at x_cur, so |u|_* -> 0 certifies
    approach to a solution.  Entropy geometries are refused: their mirror
    map gradient is unbounded and the certificate norm is meaningless
    there; Euclidean iterates are their own mirror images.  F(x_cur) is
    read from ``state.memo_cur`` when the solver holds it (every step at
    p = 1), so only the other log points evaluate F again.
    """
    geometry = problem.geometry
    if geometry.kind == ENTROPY_SIMPLEX:
        raise DomainError("natural residual is not defined for the entropy geometry")
    if state.delta_last is None or state.x_prev2 is None:
        raise ParameterError("natural residual needs at least one completed step")
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    for name in ("delta_last", "x_cur", "x_prev", "x_prev2"):
        check_layout(geometry, getattr(state, name), name)
    drift = state.x_cur.data - (gamma * state.x_prev.data + (1.0 - gamma) * state.x_prev2.data)
    f_cur = problem.full(state.x_cur) if state.memo_cur is None else state.memo_cur
    u = f_cur.data - state.delta_last.data - (1.0 / alpha) * drift
    return dual_norm(geometry, BlockVector.wrap(u, geometry.block_dims))


# ---------------------------------------------------------------------------
# Guarantee constants.
# ---------------------------------------------------------------------------

_TAG_REGIMES = {
    "monotone": ("ergodic",),
    "non-monotone-weak-minty": ("weak-minty", "weak-minty-p1"),
    "strongly-pseudomonotone": ("linear", "linear-p1"),
}


@dataclass(frozen=True)
class TheoryBounds:
    """Constants of the applicable guarantees plus premise diagnostics.

    Fields are None for regimes that were not evaluated.  ``failures``
    lists every violated premise (inequality spelled out with numbers).
    """

    checked: tuple[str, ...] = ()
    failures: tuple[str, ...] = ()
    ergodic_coeff: float | None = None        # (2 + alpha - gamma)/alpha, per 1/S
    sigma1: float | None = None
    sigma2: float | None = None
    residual_coeff: float | None = None       # (3 - gamma)*sigma2/sigma1
    sigma1_p1: float | None = None
    sigma2_p1: float | None = None
    residual_coeff_p1: float | None = None
    theta: float | None = None                # geometric rate, 0 < p < 1
    varsigma: float | None = None             # geometric rate, p = 1
    envelope_coeff: float | None = None       # 4/(1 + gamma - alpha)


def _require_rho(problem) -> float:
    if problem.rho is None or problem.rho < 0.0:
        raise ParameterError("this regime needs the problem's star modulus rho >= 0")
    return float(problem.rho)


def _require_beta(problem) -> float:
    if problem.beta is None or problem.beta <= 0.0:
        raise ParameterError("this regime needs the problem's growth modulus beta > 0")
    return float(problem.beta)


def _require_lf(geometry: GeometrySpec) -> float:
    lf = geometry.mirror_lipschitz
    if not math.isfinite(lf):
        raise DomainError(
            "this regime needs a Lipschitz mirror map; the entropy geometry has none"
        )
    return lf


def theory_bounds(params, problem: FiniteSumProblem) -> TheoryBounds:
    """Evaluate guarantee constants for the regimes of the problem.

    The regimes are the ones matching the problem tag and the anchor
    probability (the ``-p1`` regimes exactly when p = 1).  Premise
    violations are returned in ``failures`` alongside any constants that
    could still be computed.  The sticky anchor and uniform sampling
    (vr-forb's settings) are refused: no guarantee here covers them.
    """
    if params.anchor != "fallback" or params.uniform:
        raise ParameterError("the guarantees cover the fallback anchor rule with the "
                             "problem's sampling distribution only")
    geometry = problem.geometry
    gamma, p, alpha, b = params.gamma, params.p, params.alpha, params.b
    lip, lip_bar = problem.lip, problem.lip_bar

    regimes = tuple(r for r in _TAG_REGIMES.get(problem.tag, ())
                    if r.endswith("-p1") == (p == 1.0))

    failures: list[str] = []
    out: dict[str, float] = {}

    def need(cond: bool, text: str) -> None:
        if not cond:
            failures.append(text)

    for regime in regimes:
        if regime == "ergodic":
            need(0.0 < p < 1.0, f"ergodic regime needs 0 < p < 1, got p={p}")
            need(p < gamma < 1.0,
                 f"ergodic regime needs p < gamma < 1, got p={p}, gamma={gamma}")
            if 0.0 < p < 1.0 and p < gamma < 1.0:
                bound = monotone_step_bound(gamma, p, b, lip, lip_bar)
                need(alpha <= bound * (1.0 + 1e-12),
                     f"ergodic regime needs alpha <= min((gamma-p)/(2(1-p)), "
                     f"(1-gamma)b/((1-p)(2*Lbar^2+b*L^2))) = {bound!r}, got alpha={alpha!r}")
            out["ergodic_coeff"] = (2.0 + alpha - gamma) / alpha

        elif regime == "weak-minty":
            lf = _require_lf(geometry)
            rho = _require_rho(problem)
            need(0.0 < p < 1.0, f"weak-minty regime needs 0 < p < 1, got p={p}")
            need(p < gamma < 1.0,
                 f"weak-minty regime needs p < gamma < 1, got p={p}, gamma={gamma}")
            s1 = ((1.0 - gamma) / (2.0 * (1.0 - p)) * (1.0 - 8.0 * rho * lf**2 / alpha)
                  - (2.0 * alpha**2 * lip**2 + 8.0 * alpha * rho * lip**2
                     + 4.0 * alpha * rho * lip_bar**2 / b
                     + 5.0 * alpha**2 * lip_bar**2 / (2.0 * b)))
            s2 = (8.0 * lip**2 + 4.0 * (1.0 - gamma) * lf**2 / ((1.0 - p) * alpha**2)
                  + 4.0 * lip_bar**2 / b)
            out["sigma1"] = s1
            out["sigma2"] = s2
            need(s1 > 0.0, f"weak-minty regime needs sigma1 > 0, got sigma1={s1!r}")
            if s1 > 0.0:
                lhs = (8.0 * (gamma - p) * lf**2 / ((1.0 - p) * alpha**2)
                       - (s2 / s1) * ((gamma - p) / (1.0 - p)
                                      * (1.0 - 8.0 * rho * lf**2 / alpha) - 0.5))
                need(lhs <= 0.0,
                     f"weak-minty regime needs 8(gamma-p)Lf^2/((1-p)alpha^2) - "
                     f"(sigma2/sigma1)((gamma-p)/(1-p)(1-8 rho Lf^2/alpha) - 1/2) <= 0, "
                     f"got {lhs!r}")
                out["residual_coeff"] = (3.0 - gamma) * s2 / s1

        elif regime == "weak-minty-p1":
            lf = _require_lf(geometry)
            rho = _require_rho(problem)
            need(p == 1.0, f"weak-minty-p1 regime needs p = 1, got p={p}")
            s1 = ((gamma - 0.5)
                  - (4.0 * alpha**2 * lip**2 + 16.0 * alpha * rho * lip**2
                     + 8.0 * alpha * rho * lip_bar**2 / b
                     + 5.0 * alpha**2 * lip_bar**2 / b
                     + 8.0 * gamma * rho * lf**2 / alpha))
            s2 = (16.0 * lip**2 + 8.0 * gamma * lf**2 / alpha**2
                  + 8.0 * lip_bar**2 / b)
            out["sigma1_p1"] = s1
            out["sigma2_p1"] = s2
            need(s1 > 0.0, f"weak-minty-p1 regime needs sigma1' > 0, got sigma1'={s1!r}")
            if s1 > 0.0:
                lhs = (1.0 - gamma) * ((s1 / s2) * (8.0 * rho * lf**2 / alpha - 1.0)
                                       + 8.0 * lf**2 / alpha**2)
                need(lhs <= 0.0,
                     f"weak-minty-p1 regime needs (1-gamma)((sigma1'/sigma2')"
                     f"(8 rho Lf^2/alpha - 1) + 8Lf^2/alpha^2) <= 0, got {lhs!r}")
                out["residual_coeff_p1"] = (3.0 - gamma) * s2 / s1

        elif regime == "linear":
            beta = _require_beta(problem)
            need(0.0 < p < 1.0, f"linear regime needs 0 < p < 1, got p={p}")
            need(p < gamma < 1.0,
                 f"linear regime needs p < gamma < 1, got p={p}, gamma={gamma}")
            lo = (0.5 + gamma) / beta
            need(alpha > lo,
                 f"linear regime needs alpha > (1/2 + gamma)/beta = {lo!r}, got alpha={alpha!r}")
            if 0.0 < p < 1.0 and gamma < 1.0:
                hi = ((math.sqrt(b**2 * lip**4
                                 + 8.0 * b * lip_bar**2 * (1.0 - gamma) / (1.0 - p))
                       - b * lip**2) / (4.0 * lip_bar**2))
                need(alpha < hi,
                     f"linear regime needs alpha < (sqrt(b^2 L^4 + 8 b Lbar^2 (1-gamma)/(1-p))"
                     f" - b L^2)/(4 Lbar^2) = {hi!r}, got alpha={alpha!r}")
                cap = (gamma - p) / (1.0 - p)
                need(alpha <= cap,
                     f"linear regime needs alpha <= (gamma-p)/(1-p) = {cap!r}, got alpha={alpha!r}")
                t1 = (0.5 + alpha * beta + alpha / 2.0) / (1.0 + gamma + alpha / 2.0)
                t2 = (((1.0 - gamma) / (1.0 - p) + 2.0 * alpha * lip**2)
                      / (2.0 * alpha**2 * lip_bar**2 / b + 3.0 * alpha * lip**2))
                t3 = 1.0 / (1.0 - gamma)
                theta = min(t1, t2, t3)
                out["theta"] = theta
                out["envelope_coeff"] = 4.0 / (1.0 + gamma - alpha)
                need(theta > 1.0, f"linear regime needs theta > 1, got theta={theta!r}")

        elif regime == "linear-p1":
            beta = _require_beta(problem)
            need(p == 1.0, f"linear-p1 regime needs p = 1, got p={p}")
            lo = (0.5 + gamma) / beta
            need(alpha > lo,
                 f"linear-p1 regime needs alpha > (1/2 + gamma)/beta = {lo!r}, got alpha={alpha!r}")
            hi = ((math.sqrt(b**2 * (lip**2 + 1.0) ** 2 + 8.0 * b * gamma * lip_bar**2)
                   - b * (lip**2 + 1.0)) / (4.0 * lip_bar**2))
            need(alpha < hi,
                 f"linear-p1 regime needs alpha < (sqrt(b^2 (L^2+1)^2 + 8 b gamma Lbar^2)"
                 f" - b (L^2+1))/(4 Lbar^2) = {hi!r}, got alpha={alpha!r}")
            v1 = (0.5 + alpha * beta + alpha / 2.0) / (1.0 + gamma + alpha / 2.0)
            v2 = ((gamma - alpha + 2.0 * alpha * lip**2)
                  / (2.0 * alpha**2 * lip_bar**2 / b + 3.0 * alpha * lip**2))
            # The cap 1/(1 - gamma) enforces 1 - (1 - gamma)*varsigma >= 0;
            # it disappears at gamma = 1.
            v3 = 1.0 / (1.0 - gamma) if gamma < 1.0 else math.inf
            varsigma = min(v1, v2, v3)
            out["varsigma"] = varsigma
            out["envelope_coeff"] = 4.0 / (1.0 + gamma - alpha)
            need(varsigma > 1.0,
                 f"linear-p1 regime needs varsigma > 1, got varsigma={varsigma!r}")

    return TheoryBounds(checked=regimes, failures=tuple(failures), **out)

