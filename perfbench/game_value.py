"""Game value of the matrix-game-large payoff, by linear programming.

    v* = min over the simplex of max_i (A x)_i

solved with scipy's HiGHS for the payoff A = default_rng(0).standard_normal
((1000, 1000)).  The solve takes tens of seconds, so its result is stored
in data/game_value.json and read by run.py.  Recompute it from the root of
the repository with

    python3 perfbench/game_value.py
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import matrix_game_payoff  # noqa: E402

N = 1000
MATRIX_SEED = 0
OUT = Path(__file__).resolve().parent / "data" / "game_value.json"


def game_value(payoff: np.ndarray) -> float:
    """Variables (x, v): minimize v subject to A x <= v, sum(x) = 1, x >= 0."""
    n = payoff.shape[1]
    cost = np.zeros(n + 1)
    cost[-1] = 1.0
    a_ub = np.hstack([payoff, -np.ones((payoff.shape[0], 1))])
    a_eq = np.hstack([np.ones((1, n)), np.zeros((1, 1))])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(payoff.shape[0]), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


def main() -> int:
    t0 = time.perf_counter()
    value = game_value(matrix_game_payoff(N, MATRIX_SEED))
    record = {"n": N, "matrix_seed": MATRIX_SEED, "value": value,
              "solver": "scipy.optimize.linprog(method='highs')",
              "command": "python3 perfbench/game_value.py"}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"v* = {value!r} ({time.perf_counter() - t0:.1f} s), written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
