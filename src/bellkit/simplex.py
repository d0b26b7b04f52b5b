"""Revised phase-1 simplex for equality-form feasibility problems.

Solves: does there exist x >= 0 with A x = b?  Artificial variables give the
starting basis, and the phase-1 objective is their sum.  Row i's artificial
column is D_ii e_i, with D the diagonal of the signs of b (+1 where b_i = 0),
so the starting basis is D and the artificials start at |b| >= 0.

Pricing: the entering column is the one with the most negative reduced cost
(Dantzig's rule) over all n + m columns, the n columns of A before the m
artificials.  The leaving row is chosen among the ratio ties, the rows whose
ratio is within EXACT_TOL of the minimum, by the lexicographic rule of
Dantzig, Orden & Wolfe (Pacific J. Math. 5, 183, 1955): the row whose entries
in the artificial columns, the row of B^-1 D, divided by its pivot-column
entry is lexicographically smallest.  The rows of (B^-1 b, B^-1 D) start
lexicographically positive (|b|, I), and this rule keeps them so.  Each pivot
adds a positive multiple of the new pivot row to the cost row, so (minus the
objective, the artificials' reduced costs) rises strictly in lexicographic
order: in exact arithmetic no basis repeats, and the simplex cannot cycle.
In floating point the argument is not exact, and the iteration cap is the
backstop.  A pivot whose step, the entering variable's new value, is at most
BOUND_TOL is counted as degenerate.

The revised form (Dantzig & Orchard-Hays, Math. Tables Aids Comput. 8, 64,
1954) keeps one (m+1) x (m+1) block, [B^-1 | B^-1 b] over a last row that
holds D_ii - y_i for each artificial column and minus the objective, where
y = c_B B^-1 are the duals, plus the n reduced costs of A's columns.  A pivot
forms the entering column B^-1 a_e, prices all n columns with one product of
the scaled pivot row of B^-1 with A, and applies the rank-1 update to the
block alone: every entry t becomes t - f r, with r the scaled pivot row and f
the entering column's entry (0 on the pivot row).  A float64 A is used as
given and only read, so a pivot reads A once and writes O(m^2 + n) entries,
where a full tableau would rewrite all (m + 1) (n + m + 1) of its entries.

On infeasibility the final duals give a Farkas certificate y with

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

    sign = np.where(b < 0, -1.0, 1.0)  # D, the artificial columns' entries
    # rows 0..m-1 are [B^-1 | B^-1 b], row m is [D - y | -objective]
    block = np.zeros((m + 1, m + 1))
    binv, rhs = block[:m, :m], block[:m, m]
    np.fill_diagonal(binv, sign)
    np.abs(b, out=rhs)
    block[m, m] = -rhs.sum()
    # reduced costs: A's columns', -y . a_j with y = c_B B^-1 = 1 D at the
    # start, then the artificials', 1 - D_ii y_i = (D_ii - y_i) D_ii
    reduced = np.empty(n + m)
    cost = reduced[:n]
    np.dot(-sign, a, out=cost)

    # work arrays, allocated once per solve
    col = np.empty(m + 1)  # the entering column, B^-1 a_e over its reduced cost
    entering, column = col[:m], col[:, None]
    prices = np.empty(n)
    scratch = np.empty_like(block)
    ratios = np.empty(m)
    positive = np.empty(m, dtype=bool)
    basis = np.arange(n, n + m)
    iterations = degenerate = 0
    while True:
        np.multiply(block[m, :m], sign, out=reduced[n:])
        enter = int(reduced.argmin())  # Dantzig's entering rule
        col[m] = reduced[enter]
        if col[m] >= -BOUND_TOL:
            break
        if iterations >= budget:
            raise ResourceLimitError(f"simplex exceeded {budget} iterations")
        if enter < n:
            np.matmul(binv, a[:, enter], out=entering)
        else:
            np.multiply(binv[:, enter - n], sign[enter - n], out=entering)
        np.greater(entering, BOUND_TOL, out=positive)
        ratios.fill(np.inf)
        np.divide(rhs, entering, out=ratios, where=positive)
        best = ratios[ratios.argmin()]
        if best == np.inf:
            raise RuntimeError("phase-1 column with no positive entries")
        ties = (ratios <= best + EXACT_TOL).nonzero()[0]
        # lexicographic leaving rule: smallest row of B^-1 D over the pivot entry
        for j in range(m):
            if len(ties) == 1:
                break
            scaled = binv[ties, j] * sign[j] / entering[ties]
            ties = ties[scaled == scaled.min()]
        leave = int(ties[0])
        if best <= BOUND_TOL:
            degenerate += 1

        row = block[leave]
        row /= col[leave]
        col[leave] = 0.0
        np.multiply(column, row, out=scratch)
        block -= scratch
        # A's reduced costs fall by col[m] times the pivot row over A's
        # columns, row . A: scratch's last row already holds col[m] row
        np.dot(scratch[m, :m], a, out=prices)
        cost -= prices
        if enter < n:
            cost[enter] = 0.0
        basis[leave] = enter
        iterations += 1

    structural = basis < n
    if rhs[~structural].sum() > BOUND_TOL:  # the phase-1 objective
        return FeasibilityResult(False, None, sign - block[m, :m], iterations, degenerate)

    x = np.zeros(n)
    x[basis[structural]] = rhs[structural]
    np.clip(x, 0.0, None, out=x)
    return FeasibilityResult(True, x, None, iterations, degenerate)
