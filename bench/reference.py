"""Computations made apart from bellkit, against which the benchmark checks outputs.

Nothing here imports bellkit.  Strategy codes follow bellkit's JSON format:
bit k of a party's code is its outcome for setting k+1 (0 -> +1, 1 -> -1).
"""
from __future__ import annotations

import functools
import math

import numpy as np


def outcome_vectors(m: int) -> np.ndarray:
    """All 2^m outcome vectors of one party; row c is the vector of code c."""
    codes = np.arange(1 << m)
    return (1 - 2 * ((codes[:, None] >> np.arange(m)) & 1)).astype(np.int8)


def _product_rows(factors: list[np.ndarray]) -> np.ndarray:
    """Flattened outer products of one row from each factor, first factor slowest."""
    rows = factors[0]
    for vec in factors[1:]:
        rows = (rows[:, None, :, None] * vec[None, :, None, :]).reshape(
            rows.shape[0] * vec.shape[0], -1
        )
    return rows


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.cache
def strategy_rows(layout: tuple[int, ...]) -> np.ndarray:
    """One flattened product tensor per deterministic strategy (2^sum(m) rows)."""
    return _frozen(_product_rows([outcome_vectors(m) for m in layout]))


@functools.cache
def vertex_rows(layout: tuple[int, ...]) -> np.ndarray:
    """The distinct vertices of the correlation polytope, as float rows."""
    return _frozen(np.unique(strategy_rows(layout), axis=0).astype(np.float64))


def strategy_values(layout: tuple[int, ...], coefficients: np.ndarray,
                    rng: np.random.Generator, samples: int = 100_000,
                    exhaustive_bits: int = 14) -> np.ndarray:
    """sum_k c[k] prod_j a_j(k_j) over every strategy, or over `samples` random ones.

    Layouts with at most `exhaustive_bits` outcome bits are swept completely.
    Larger ones fold parties 3..N into an exhaustive table of 2^(m1 x m2) blocks
    and sample (party 1, party 2, rest) triples from it.
    """
    c = np.asarray(coefficients, dtype=np.float64)
    if sum(layout) <= exhaustive_bits:
        return strategy_rows(layout).astype(np.float64) @ c.ravel()
    m1, m2 = layout[0], layout[1]
    rest = strategy_rows(layout[2:]).astype(np.float64)
    blocks = c.reshape(m1 * m2, -1) @ rest.T  # column r: the m1 x m2 block of rest strategy r
    a1, a2 = outcome_vectors(m1).astype(np.float64), outcome_vectors(m2).astype(np.float64)
    i1 = rng.integers(0, a1.shape[0], samples)
    i2 = rng.integers(0, a2.shape[0], samples)
    ir = rng.integers(0, rest.shape[0], samples)
    block = blocks[:, ir].T.reshape(samples, m1, m2)
    return np.einsum("bi,bij,bj->b", a1[i1], block, a2[i2])


def vertex_rank(rows: np.ndarray) -> int:
    """Rank of a matrix of +-1 vertex rows (singular values, numpy's default tolerance)."""
    if rows.shape[0] == 0:
        return 0
    return int(np.linalg.matrix_rank(np.asarray(rows, dtype=np.float64)))


def two_setting_lhs(values: np.ndarray) -> float:
    """sum over s in {-1,+1}^N of |sum_k E(k) prod_j s_j^(k_j - 1)| for a 2x...x2 table."""
    n = values.ndim
    total = 0.0
    for bits in range(1 << n):
        f = values
        for j in range(n):
            s = -1.0 if (bits >> j) & 1 else 1.0
            f = np.tensordot(np.array([1.0, s]), f, axes=([0], [0]))
        total += abs(float(f))
    return total


def polytope_gauge(layout: tuple[int, ...], values: np.ndarray) -> float:
    """gamma(x) = min{g : x in g P} for the correlation polytope P, by HiGHS.

    Solves max t s.t. t x = V^T lam, sum lam = 1, lam >= 0 and returns 1/t.
    The table is inside P exactly when gamma <= 1.
    """
    from scipy.optimize import linprog

    verts = vertex_rows(layout)
    x = np.asarray(values, dtype=np.float64).ravel()
    n, d = verts.shape
    a_eq = np.zeros((d + 1, n + 1))
    a_eq[:d, :n] = verts.T
    a_eq[:d, n] = -x
    a_eq[d, :n] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"gauge LP did not solve: {res.message}")
    return 1.0 / -res.fun


def model_table(layout: tuple[int, ...], records: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Weights and predicted table of a local model in bellkit's JSON list format."""
    codes = np.array([r["strategy"] for r in records], dtype=np.int64).reshape(-1, len(layout))
    weights = np.array([r["weight"] for r in records], dtype=np.float64)
    for j, m in enumerate(layout):
        if np.any((codes[:, j] < 0) | (codes[:, j] >= 1 << m)):
            raise ValueError(f"strategy code out of range for party {j + 1}")
    factors = [1 - 2 * ((codes[:, j, None] >> np.arange(m)) & 1) for j, m in enumerate(layout)]
    rows = factors[0].astype(np.float64)
    for vec in factors[1:]:
        rows = (rows[:, :, None] * vec[:, None, :]).reshape(rows.shape[0], -1)
    return weights, (weights @ rows).reshape(layout)


def ghz_tensor(n: int, alpha: float, visibility: float = 1.0) -> np.ndarray:
    """Full 4^N Pauli tensor of v |GHZ_alpha><GHZ_alpha| + (1 - v) I / 2^N.

    For cos(a)|0..0> + sin(a)|1..1>: indices in {I, z} give 1 for an even number
    of z and cos(2a) for an odd one; indices in {x, y} with 2k y's give
    (-1)^k sin(2a); all others vanish.  White noise scales every entry but the
    identity by v.
    """
    label = np.arange(4)
    shape = [(1,) * j + (4,) + (1,) * (n - j - 1) for j in range(n)]
    n_z = sum((label == 3).astype(np.int64).reshape(s) for s in shape)
    n_y = sum((label == 2).astype(np.int64).reshape(s) for s in shape)
    in_iz = functools.reduce(np.logical_and, [np.isin(label, (0, 3)).reshape(s) for s in shape])
    in_xy = functools.reduce(np.logical_and, [np.isin(label, (1, 2)).reshape(s) for s in shape])
    in_iz, in_xy, n_z, n_y = np.broadcast_arrays(in_iz, in_xy, n_z, n_y)
    cos2a, sin2a = math.cos(2 * alpha), math.sin(2 * alpha)
    out = np.zeros((4,) * n)
    out[in_iz] = np.where(n_z[in_iz] % 2 == 0, 1.0, cos2a)
    xy_even = in_xy & (n_y % 2 == 0)
    out[xy_even] = np.where(n_y[xy_even] % 4 == 0, sin2a, -sin2a)
    out *= visibility
    out[(0,) * n] = 1.0
    return out


def correlation_block(n: int, alpha: float) -> np.ndarray:
    """The {x, y, z}^N block T of the GHZ tensor."""
    return ghz_tensor(n, alpha)[(slice(1, 4),) * n]


def two_setting_upper(block: np.ndarray) -> float:
    """min over parties of the top-two eigenvalue sum of that party's unfolding Gram matrix."""
    best = math.inf
    for j in range(block.ndim):
        unfold = np.moveaxis(block, j, 0).reshape(3, -1)
        eig = np.linalg.eigvalsh(unfold @ unfold.T)
        best = min(best, float(eig[-1] + eig[-2]))
    return best


def contract(block: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
    """Contract the leading len(axes) tensor axes with one (rows x 3) matrix each."""
    out = block
    for rows in axes:
        out = np.tensordot(out, rows, axes=([0], [rows.ndim - 1]))
    return out
