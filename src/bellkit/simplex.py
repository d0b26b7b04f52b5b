"""Dense phase-1 simplex for equality-form feasibility problems.

Solves: does there exist x >= 0 with A x = b?  Artificial variables give the
starting basis; Bland's rule (smallest index enters, smallest-index basic
variable leaves) guarantees termination without cycling.  On infeasibility
the final cost row yields a Farkas certificate y with

    y . A_j <= 0 for every column j   and   y . b > 0,

which callers turn into separating hyperplanes.  Running past the iteration
cap (default 200 + 50 (m + n)) raises ResourceLimitError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .tolerance import BOUND_TOL, TIE_TOL


@dataclass
class FeasibilityResult:
    feasible: bool
    # feasible: nonnegative solution of A x = b
    x: np.ndarray | None
    # infeasible: Farkas vector for the original row space
    farkas: np.ndarray | None
    iterations: int


def solve_feasibility(a: np.ndarray, b: np.ndarray,
                      max_iter: int | None = None) -> FeasibilityResult:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("b must have one entry per row of A")
    if max_iter is None:
        max_iter = 200 + 50 * (m + n)

    # Flip rows so the right-hand side is nonnegative; remember the signs to
    # map the dual certificate back to the original rows.
    flip = np.where(b < 0, -1.0, 1.0)
    tab = np.empty((m, n + m + 1))
    tab[:, :n] = a * flip[:, None]
    tab[:, n:-1] = np.eye(m)
    tab[:, -1] = b * flip

    basis = np.arange(n, n + m)
    # Phase-1 cost row: minimize the sum of artificials.  Reduced costs start
    # as c_j - sum of rows for each column.
    cost = np.zeros(n + m + 1)
    cost[n:-1] = 1.0
    cost -= tab.sum(axis=0)

    iterations = 0
    while True:
        negative = cost[:-1] < -BOUND_TOL
        if not negative.any():
            break
        if iterations >= max_iter:
            raise ResourceLimitError(f"simplex exceeded {max_iter} iterations")
        enter = int(np.argmax(negative))  # first True: Bland's entering rule
        col = tab[:, enter]
        positive = col > BOUND_TOL
        if not positive.any():
            raise RuntimeError("phase-1 column with no positive entries")
        ratios = np.full(m, np.inf)
        ratios[positive] = tab[positive, -1] / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + TIE_TOL)
        leave = int(ties[np.argmin(basis[ties])])  # Bland's leaving rule

        pivot = tab[leave, enter]
        tab[leave] /= pivot
        factors = tab[:, enter].copy()
        factors[leave] = 0.0
        tab -= np.outer(factors, tab[leave])
        cost -= cost[enter] * tab[leave]
        basis[leave] = enter
        iterations += 1

    objective = float(sum(tab[i, -1] for i in range(m) if basis[i] >= n))
    if objective > BOUND_TOL:
        # Reduced cost of artificial i is 1 - y_i in the flipped row space.
        y = (1.0 - cost[n:-1]) * flip
        return FeasibilityResult(False, None, y, iterations)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i, -1]
    np.clip(x, 0.0, None, out=x)
    return FeasibilityResult(True, x, None, iterations)
