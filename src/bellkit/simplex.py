"""Dense phase-1 simplex for equality-form feasibility problems.

Solves: does there exist x >= 0 with A x = b?  Artificial variables give the
starting basis, and the phase-1 objective is their sum.

Pricing: the entering column is the one with the most negative reduced cost
(Dantzig's rule).  A pivot whose step, the entering variable's new value, is
at most BOUND_TOL is degenerate.  After more than n + m degenerate pivots in a
row, one per variable column of the tableau, the entering column is instead
the smallest index with a negative reduced cost (Bland's rule), until the next
non-degenerate pivot.  The leaving row is always the smallest basic index
among the ratio ties (within TIE_TOL).  This terminates: each non-degenerate
pivot strictly lowers the phase-1 objective, so no basis repeats across one,
and within a degenerate run Bland's rule cannot cycle (Bland, Math. Oper.
Res. 2, 103, 1977).

On infeasibility the final cost row yields a Farkas certificate y with

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
    # pivots in all, those with a step of at most BOUND_TOL, those priced by Bland's rule
    iterations: int
    degenerate: int
    bland: int


def _bland_after(columns: int) -> int:
    """Degenerate pivots in a row after which Bland's rule picks the entering column."""
    return columns + 1


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

    bland_after = _bland_after(n + m)
    iterations = degenerate = bland = run = 0
    while True:
        if run >= bland_after:
            negative = cost[:-1] < -BOUND_TOL
            if not negative.any():
                break
            enter = int(np.argmax(negative))  # first True: Bland's entering rule
            bland += 1
        else:
            enter = int(np.argmin(cost[:-1]))  # Dantzig's entering rule
            if cost[enter] >= -BOUND_TOL:
                break
        if iterations >= max_iter:
            raise ResourceLimitError(f"simplex exceeded {max_iter} iterations")
        col = tab[:, enter]
        positive = col > BOUND_TOL
        if not positive.any():
            raise RuntimeError("phase-1 column with no positive entries")
        ratios = np.full(m, np.inf)
        ratios[positive] = tab[positive, -1] / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + TIE_TOL)
        leave = int(ties[np.argmin(basis[ties])])  # Bland's leaving rule
        if best <= BOUND_TOL:
            degenerate += 1
            run += 1
        else:
            run = 0

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
        return FeasibilityResult(False, None, y, iterations, degenerate, bland)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i, -1]
    np.clip(x, 0.0, None, out=x)
    return FeasibilityResult(True, x, None, iterations, degenerate, bland)
