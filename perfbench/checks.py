"""Output checks computed outside the solver package.

Every reference here is rebuilt from the mathematical definition of the
workload's inputs with plain numpy: the payoff matrices, the linear-rate
operator and its solution, and the across-seed medians.  Nothing is
compared against a stored copy of the program's own output.  A failed
check raises :class:`CheckFailure` naming the violated condition.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: Absolute slack for feasibility tests and for recomputed metric values.
FEAS_TOL = 1e-9
VALUE_TOL = 1e-9


class CheckFailure(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _require(cond: bool, text: str) -> None:
    if not cond:
        raise CheckFailure(text)


def _close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Program output files.
# ---------------------------------------------------------------------------

def read_rows(path) -> list[tuple]:
    """Rows of a per-seed or aggregate CSV as typed tuples:
    (iter, component_calls, full_evals, metric_name, metric_value, wall_ms, seed)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        _require(header == ["iter", "component_calls", "full_evals", "metric_name",
                            "metric_value", "wall_ms", "seed"],
                 f"{path}: unexpected header {header}")
        return [(int(r[0]), int(r[1]), int(r[2]), r[3], float(r[4]), float(r[5]),
                 int(r[6])) for r in reader]


def first_hit(rows, metric: str, target: float):
    """First logged row whose ``metric`` is at or below ``target``, or None."""
    for row in rows:
        if row[3] == metric and row[4] <= target:
            return row
    return None


def final_value(rows, metric: str) -> float:
    last = max(r[0] for r in rows if r[3] == metric)
    return next(r[4] for r in rows if r[3] == metric and r[0] == last)


# ---------------------------------------------------------------------------
# Independent reconstructions of the workload inputs.
# ---------------------------------------------------------------------------

def matrix_game_payoff(n: int, matrix_seed: int) -> np.ndarray:
    """Standard normal n x n payoff drawn from ``default_rng(matrix_seed)``."""
    return np.random.default_rng(matrix_seed).standard_normal((n, n))


def regularized_game_payoff(n: int, spectral: float) -> np.ndarray:
    """((|i - j| + 1) / (2n - 1))^2, scaled to the given exact spectral norm."""
    idx = np.arange(n)
    base = ((np.abs(idx[:, None] - idx[None, :]) + 1.0) / (2.0 * n - 1.0)) ** 2
    return base * (spectral / np.linalg.norm(base, 2))


def linear_rate_operator(cfg: dict):
    """(H, q, x_star) of a linear-rate fixture from its frozen constants.

    H = mu*I + skew_scale * S / |S|_2 with S_ij = i - j, x_star a multiple
    of the normalized all-ones vector and q = -H x_star - t x_star, so that
    F(x) = H x + q has F(x_star) = -t x_star.
    """
    d = cfg["dim"]
    idx = np.arange(d, dtype=np.float64)
    skew = idx[:, None] - idx[None, :]
    h = cfg["mu"] * np.eye(d) + cfg["skew_scale"] * skew / np.linalg.norm(skew, 2)
    x_star = cfg["interior_radius"] * np.ones(d) / math.sqrt(d)
    q = -(h @ x_star) - cfg["multiplier"] * x_star
    return h, q, x_star


def ball_project(v: np.ndarray, radius: float = 1.0) -> np.ndarray:
    nrm = float(np.linalg.norm(v))
    return v * (radius / nrm) if nrm > radius else v


# ---------------------------------------------------------------------------
# Per-workload checks.
# ---------------------------------------------------------------------------

def check_matrix_game(x: np.ndarray, y: np.ndarray, reported_gap: float,
                      payoff: np.ndarray, game_value: float) -> None:
    """Final ergodic point of a simplex game against its recomputed gap.

    Both blocks lie on the simplex, max(Ax) - min(A^T y) matches the
    reported gap, the gap is nonnegative (weak duality), and the game
    value from linear programming lies between the two best responses.
    """
    for name, block in (("x", x), ("y", y)):
        _require(bool(np.all(block >= -FEAS_TOL)),
                 f"ergodic {name} has a negative coordinate {float(np.min(block))!r}")
        _require(abs(float(np.sum(block)) - 1.0) <= FEAS_TOL,
                 f"ergodic {name} sums to {float(np.sum(block))!r}, not 1")
    upper = float(np.max(payoff @ x))
    lower = float(np.min(payoff.T @ y))
    gap = upper - lower
    _require(_close(gap, reported_gap),
             f"reported gap {reported_gap!r} != recomputed max(Ax) - min(A^T y) = {gap!r}")
    _require(gap >= -FEAS_TOL, f"gap {gap!r} is negative (weak duality)")
    _require(lower - FEAS_TOL <= game_value <= upper + FEAS_TOL,
             f"game value {game_value!r} outside [min(A^T y), max(Ax)] = "
             f"[{lower!r}, {upper!r}]")


def star_modulus(payoff: np.ndarray, lam: float):
    """Weak Minty modulus of F(x, y) = (A^T y - lam x, -A x - lam y) at 0.

    <F(z), z> = -lam |z|^2 and |F(z)|^2 >= (lam^2 + s_min^2) |z|^2, with
    equality on the smallest singular direction of A, so the smallest rho
    with <F(z), z> >= -rho |F(z)|^2 for every z is lam / (lam^2 + s_min^2).
    Returns (rho, unit vector v with |A v| = s_min).
    """
    _, sv, vt = np.linalg.svd(payoff)
    return lam / (lam * lam + sv[-1] ** 2), vt[-1]


def check_star_condition(x: np.ndarray, y: np.ndarray, payoff: np.ndarray,
                         lam: float, rho: float) -> None:
    """<F(z), z> >= -rho |F(z)|^2 for F computed from the payoff and lam."""
    z = np.concatenate([x, y])
    fz = np.concatenate([payoff.T @ y - lam * x, -(payoff @ x) - lam * y])
    lhs, rhs = float(fz @ z), -rho * float(fz @ fz)
    _require(lhs >= rhs - FEAS_TOL,
             f"star condition fails for rho={rho!r}: <F(z), z> = {lhs!r} < "
             f"-rho |F(z)|^2 = {rhs!r}")


def check_nonmonotone(x: np.ndarray, y: np.ndarray, reported_residual: float,
                      payoff: np.ndarray, lam: float, rho: float) -> None:
    """Final point of the regularized ball game.

    Both blocks lie in the unit ball, |z| / sqrt(n) matches the reported
    residual, and the star condition holds at z with modulus rho.
    """
    n = payoff.shape[0]
    for name, block in (("x", x), ("y", y)):
        nrm = float(np.linalg.norm(block))
        _require(nrm <= 1.0 + FEAS_TOL, f"block {name} has norm {nrm!r} > 1")
    residual = float(np.linalg.norm(np.concatenate([x, y]))) / math.sqrt(n)
    _require(_close(residual, reported_residual),
             f"reported residual {reported_residual!r} != recomputed |z|/sqrt(n) = "
             f"{residual!r}")
    check_star_condition(x, y, payoff, lam, rho)


def check_linear_solution(h: np.ndarray, q: np.ndarray, x_star: np.ndarray,
                          program_solution: np.ndarray) -> None:
    """x_star is a fixed point of z -> P_ball(z - eta F(z)) under F = Hx + q,
    and the program records the same solution."""
    eta = 0.5 / float(np.linalg.norm(h, 2))
    fixed = ball_project(x_star - eta * (h @ x_star + q))
    err = float(np.linalg.norm(fixed - x_star))
    _require(err <= FEAS_TOL, f"x_star is not a projected fixed point (error {err!r})")
    diff = float(np.linalg.norm(program_solution - x_star))
    _require(diff <= FEAS_TOL, f"program solution differs from x_star by {diff!r}")


def check_linear_distance(point: np.ndarray, x_star: np.ndarray,
                          reported_dist: float) -> None:
    nrm = float(np.linalg.norm(point))
    _require(nrm <= 1.0 + FEAS_TOL, f"final point has norm {nrm!r} > 1")
    dist = float(np.linalg.norm(point - x_star))
    _require(_close(dist, reported_dist),
             f"reported distance {reported_dist!r} != recomputed |x - x*| = {dist!r}")


def _median(values: list[float]) -> float:
    if any(math.isnan(v) for v in values):
        return math.nan
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def check_aggregate(per_seed: dict[int, list[tuple]], aggregate: list[tuple]) -> None:
    """Every aggregate row is the across-seed median of the per-seed rows
    logged at the same (iteration, metric), with seed -1."""
    groups: dict[tuple, list[tuple]] = {}
    for seed in sorted(per_seed):
        for row in per_seed[seed]:
            groups.setdefault((row[0], row[3]), []).append(row)
    _require(len(aggregate) == len(groups),
             f"aggregate has {len(aggregate)} rows, per-seed files log {len(groups)} points")
    for row in aggregate:
        key = (row[0], row[3])
        _require(key in groups, f"aggregate row {key} has no per-seed rows")
        rows = groups[key]
        _require(len(rows) == len(per_seed), f"seeds disagree on logged point {key}")
        expected = (int(_median([r[1] for r in rows])), int(_median([r[2] for r in rows])),
                    _median([r[4] for r in rows]), _median([r[5] for r in rows]))
        got = (row[1], row[2], row[4], row[5])
        ok = (got[0] == expected[0] and got[1] == expected[1]
              and _close(got[2], expected[2], 1e-12) and _close(got[3], expected[3], 1e-12)
              and row[6] == -1)
        _require(ok, f"aggregate row {key}: got {got}, recomputed medians {expected}")

