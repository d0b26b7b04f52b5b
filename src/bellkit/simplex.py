"""Dense phase-1 simplex for equality-form feasibility problems.

Solves: does there exist x >= 0 with A x = b?  Artificial variables give the
starting basis, and the phase-1 objective is their sum.

Pricing: the entering column is the one with the most negative reduced cost
(Dantzig's rule).  The leaving row is chosen among the ratio ties, the rows
whose ratio is within EXACT_TOL of the minimum, by the lexicographic rule of
Dantzig, Orden & Wolfe (Pacific J. Math. 5, 183, 1955): the row whose
artificial block of the tableau, which is B^-1, divided by its pivot-column
entry is lexicographically smallest.  The rows of (b, B^-1) start
lexicographically positive (b >= 0 after the row flips, B^-1 = I), and this
rule keeps them so.  Each pivot adds a positive multiple of the new pivot row
to the cost row, so the cost row's (right-hand side, artificial block) rises
strictly in lexicographic order: in exact arithmetic no basis repeats, and
the simplex cannot cycle.  In floating point the argument is not exact, and
the iteration cap is the backstop.  A pivot whose step, the entering variable's
new value, is at most BOUND_TOL is counted as degenerate.

The cost row is the tableau's last row, so each pivot is one in-place rank-1
update of the whole tableau: every entry t becomes t - f r, with r the scaled
pivot row and f the entering column's entry (0 on the pivot row).  The
product goes into a scratch array allocated once per solve, as do the ratio
test's work vectors, so no pivot allocates anything of the tableau's size.

On infeasibility the final cost row yields a Farkas certificate y with

    y . A_j <= 0 for every column j   and   y . b > 0,

which callers turn into separating hyperplanes.  Running past the iteration
cap, limits.max_pivots(m, n) = 200 + 50 (m + n), raises ResourceLimitError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ResourceLimitError
from .tolerance import BOUND_TOL, EXACT_TOL


@dataclass
class FeasibilityResult:
    feasible: bool
    # feasible: nonnegative solution of A x = b
    x: np.ndarray | None
    # infeasible: Farkas vector for the original row space
    farkas: np.ndarray | None
    # pivots in all, and those with a step of at most BOUND_TOL
    iterations: int
    degenerate: int


def solve_feasibility(a: np.ndarray, b: np.ndarray) -> FeasibilityResult:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("b must have one entry per row of A")
    budget = limits.max_pivots(m, n)

    # Flip rows so the right-hand side is nonnegative; remember the signs to
    # map the dual certificate back to the original rows.
    flip = np.where(b < 0, -1.0, 1.0)
    # rows 0..m-1 are the constraints, row m is the phase-1 cost row
    tab = np.empty((m + 1, n + m + 1))
    body, cost = tab[:m], tab[m]
    body[:, :n] = a * flip[:, None]
    body[:, n:-1] = np.eye(m)
    body[:, -1] = b * flip

    basis = np.arange(n, n + m)
    # Phase-1 cost row: minimize the sum of artificials.  Reduced costs start
    # as c_j - sum of rows for each column.
    cost[:] = 0.0
    cost[n:-1] = 1.0
    cost -= body.sum(axis=0)

    # work arrays, allocated once per solve: no pivot allocates a tableau
    scratch = np.empty_like(tab)
    factors = np.empty(m + 1)
    ratios = np.empty(m)
    positive = np.empty(m, dtype=bool)
    rhs = body[:, -1]
    iterations = degenerate = 0
    while True:
        enter = int(cost[:-1].argmin())  # Dantzig's entering rule
        if cost[enter] >= -BOUND_TOL:
            break
        if iterations >= budget:
            raise ResourceLimitError(f"simplex exceeded {budget} iterations")
        col = body[:, enter]
        np.greater(col, BOUND_TOL, out=positive)
        if not positive.any():
            raise RuntimeError("phase-1 column with no positive entries")
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=positive)
        best = ratios.min()
        ties = (ratios <= best + EXACT_TOL).nonzero()[0]
        # lexicographic leaving rule: smallest row of B^-1 over the pivot entry
        for j in range(n, n + m):
            if len(ties) == 1:
                break
            scaled = body[ties, j] / col[ties]
            ties = ties[scaled == scaled.min()]
        leave = int(ties[0])
        if best <= BOUND_TOL:
            degenerate += 1

        row = tab[leave]
        row /= row[enter]
        factors[:] = tab[:, enter]
        factors[leave] = 0.0
        np.multiply(factors[:, None], row, out=scratch)
        tab -= scratch
        basis[leave] = enter
        iterations += 1

    objective = float(sum(tab[i, -1] for i in range(m) if basis[i] >= n))
    if objective > BOUND_TOL:
        # Reduced cost of artificial i is 1 - y_i in the flipped row space.
        y = (1.0 - cost[n:-1]) * flip
        return FeasibilityResult(False, None, y, iterations, degenerate)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i, -1]
    np.clip(x, 0.0, None, out=x)
    return FeasibilityResult(True, x, None, iterations, degenerate)
