"""Recursive construction of multisetting correlation Bell inequalities.

The building block is an expression in one party's observables that, for
every deterministic outcome assignment, evaluates to exactly +-c:

  Observable(j, n)        a bare A_j(n), value +-1;
  Leaf(parties, pairs, S) sum_t S(t) prod_i [A(p_i) + t_i A(q_i)], value
                          +-2^arity, since exactly one t leaves no factor 0;
  Node(S, (X1,X2), (Y1,Y2))
                          sum_{s1,s2} S(s1,s2) (X1 + s1 X2)(Y1 + s2 Y2),
                          value +-4|X||Y| by the same collapse.

Node pairs must cover the same parties with disjoint settings, and the two
pairs of a Node must involve disjoint party sets.  Averaging the identity
over hidden variables turns each tree into a Bell inequality.  Its int64
coefficients come from one recursion in which every block is a dense tensor
over the whole layout, size 1 on the axes of parties outside the block: an
Observable is one-hot, a Leaf scatters the Walsh coefficients w of its sign
function onto its setting pairs, and a Node is, by broadcasting,
X1 (w00 Y1 + w01 Y2) + X2 (w10 Y1 + w11 Y2).  Tightness is decided from
each party's +-1 outcome matrix, never from the vertex matrix: the vertex
values are the coefficient tensor contracted party by party with those
matrices, in int64, and the Gram matrix of the saturating vertices is the
0/1 saturation mask contracted with the per-party outer products of outcome
rows, in float64.  Both are exact, since every partial sum is bounded by
sum |c| below 2^63 and by the vertex count below 2^53 respectively.  Full
rank is certified from that Gram matrix by exact strict diagonal dominance,
which settled every facet measured so far.  Any other inequality goes to
fraction-free elimination over the integers, of its saturating vertex rows
alone, built from the per-party outcome rows at the saturation mask's
indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence, Union

import numpy as np

from . import limits
from .errors import ResourceLimitError
from .lhv import (
    BellInequality,
    ExperimentLayout,
    SignFunction,
    _vertex_factors,
)
# enumerate_vertices is unused here, but bench/tracing.py wraps it in this namespace
from .lhv import enumerate_vertices  # noqa: F401


@dataclass(frozen=True)
class Observable:
    """A_party(setting); parties and settings are 1-based."""

    party: int
    setting: int

    def __post_init__(self):
        if self.party < 1 or self.setting < 1:
            raise ValueError("party and setting indices are 1-based")


@dataclass(frozen=True)
class Leaf:
    """sum over t of S(t) * prod_i [A_i(first_i) + t_i A_i(second_i)]."""

    parties: tuple[int, ...]
    setting_pairs: tuple[tuple[int, int], ...]
    sign: SignFunction

    def __post_init__(self):
        if len(self.parties) != len(self.setting_pairs):
            raise ValueError("one setting pair per party required")
        if self.sign.arity != len(self.parties):
            raise ValueError("sign function arity must match the party count")
        for first, second in self.setting_pairs:
            if first == second:
                raise ValueError("the two settings of a pair must differ")
            if min(first, second) < 1:
                raise ValueError("settings are 1-based")


@dataclass(frozen=True)
class Node:
    """sum_{s1,s2} S(s1,s2) (first[0] + s1 first[1]) (second[0] + s2 second[1])."""

    sign: SignFunction
    first: tuple["ConstructionTree", "ConstructionTree"]
    second: tuple["ConstructionTree", "ConstructionTree"]

    def __post_init__(self):
        if self.sign.arity != 2:
            raise ValueError("node sign functions have arity 2")


ConstructionTree = Union[Observable, Leaf, Node]


#: What _expand returns for a block: its coefficient tensor, parties and magnitude.
_Expansion = tuple[np.ndarray, frozenset[int], int]


def _spread(block: np.ndarray, parties: Sequence[int], shape: tuple[int, ...]) -> np.ndarray:
    """A block whose axes belong to ``parties``, in that order, laid onto the
    layout ``shape``: axes in party order, size 1 for every other party."""
    dims = [1] * len(shape)
    for party in parties:
        dims[party - 1] = shape[party - 1]
    party_order = sorted(range(len(parties)), key=parties.__getitem__)
    return block.transpose(party_order).reshape(dims)


def _expand(tree: ConstructionTree, shape: tuple[int, ...]) -> _Expansion:
    """The coefficient tensor of a block over the layout ``shape`` (size 1 on
    the axes of parties outside the block), its party set and its magnitude."""
    if isinstance(tree, Observable):
        one_hot = np.zeros(shape[tree.party - 1], dtype=np.int64)
        one_hot[tree.setting - 1] = 1
        return _spread(one_hot, (tree.party,), shape), frozenset([tree.party]), 1

    if isinstance(tree, Leaf):
        if len(set(tree.parties)) != len(tree.parties):
            raise ValueError("leaf parties must be distinct")
        block = np.zeros([shape[p - 1] for p in tree.parties], dtype=np.int64)
        block[np.ix_(*([a - 1, b - 1] for a, b in tree.setting_pairs))] = \
            tree.sign.walsh_coefficients()
        return (_spread(block, tree.parties, shape), frozenset(tree.parties),
                2 ** len(tree.parties))

    xs = [_expand(branch, shape) for branch in tree.first]
    ys = [_expand(branch, shape) for branch in tree.second]
    _check_pair(*xs)
    _check_pair(*ys)
    (x1, x_parties, x_magnitude), (x2, _, _) = xs
    (y1, y_parties, y_magnitude), (y2, _, _) = ys
    if x_parties & y_parties:
        raise ValueError("node pairs must involve disjoint party sets")
    magnitude = 4 * x_magnitude * y_magnitude
    # |coefficient| <= magnitude, and each sum formed below stays within twice it
    if magnitude >= 1 << 62:
        raise ResourceLimitError(f"tree magnitude {magnitude} is past exact int64 coefficients")
    (w00, w01), (w10, w11) = tree.sign.walsh_coefficients()
    coeff = x1 * (w00 * y1 + w01 * y2) + x2 * (w10 * y1 + w11 * y2)
    return coeff, x_parties | y_parties, magnitude


def _check_pair(first: _Expansion, second: _Expansion) -> None:
    (c1, parties, m1), (c2, parties2, m2) = first, second
    if parties != parties2:
        raise ValueError("paired blocks must cover the same parties")
    if m1 != m2:
        raise ValueError("paired blocks must have equal magnitudes")
    used1, used2 = np.nonzero(c1), np.nonzero(c2)  # per axis, the settings of nonzero entries
    for party in sorted(parties):
        shared = set(used1[party - 1].tolist()) & set(used2[party - 1].tolist())
        if shared:
            settings = {s + 1 for s in shared}
            raise ValueError(f"paired blocks reuse settings {settings} of party {party}")


def _declared_settings(tree: ConstructionTree, out: dict[int, int]) -> None:
    if isinstance(tree, Observable):
        out[tree.party] = max(out.get(tree.party, 0), tree.setting)
    elif isinstance(tree, Leaf):
        for party, pair in zip(tree.parties, tree.setting_pairs):
            out[party] = max(out.get(party, 0), *pair)
    elif isinstance(tree, Node):
        for branch in (*tree.first, *tree.second):
            _declared_settings(branch, out)
    else:
        raise TypeError(f"not a construction tree: {tree!r}")


def build_recursive(tree: ConstructionTree) -> BellInequality:
    """Expand a construction tree into its Bell inequality.

    The layout follows the tree's declared settings (degenerate sign choices
    may zero out whole slices but do not shrink the layout); the bound is the
    guaranteed deterministic value of the tree.
    """
    declared: dict[int, int] = {}
    _declared_settings(tree, declared)
    parties = sorted(declared)
    if parties != list(range(1, len(parties) + 1)):
        raise ValueError(f"tree parties {parties} must be exactly 1..N")
    layout = ExperimentLayout(tuple(declared[p] for p in parties))
    coeff, _, magnitude = _expand(tree, layout.shape)
    return BellInequality(layout, coeff, magnitude)


def tree_chain(n_parties: int, top: SignFunction,
               left: SignFunction, right: SignFunction) -> Node:
    """N-party tree on 4 x ... x 4 x 2: two arity-(N-1) leaves and a final pair.

    Generalizes the three-party tree; the bound is 2^(N+1).
    """
    if n_parties < 3:
        raise ValueError("chain trees need at least 3 parties")
    if left.arity != n_parties - 1 or right.arity != n_parties - 1:
        raise ValueError("leaf sign functions must have arity N-1")
    return _chain_block(n_parties, (top, left, right), 0)


def _chain_block(n_parties: int, signs: Sequence[SignFunction], half: int) -> Node:
    """The chain tree on settings 4*half+1..4*half+4 of parties 1..N-1 and
    2*half+1, 2*half+2 of party N; ``signs`` is its (top, left, right)."""
    top, left, right = signs
    inner = tuple(range(1, n_parties))
    a, b = 4 * half, 2 * half
    return Node(
        top,
        (
            Leaf(inner, ((a + 1, a + 2),) * (n_parties - 1), left),
            Leaf(inner, ((a + 3, a + 4),) * (n_parties - 1), right),
        ),
        (Observable(n_parties, b + 1), Observable(n_parties, b + 2)),
    )


def tree_8842(signs: list[SignFunction]) -> Node:
    """Four-party tree on 8 x 8 x 4 x 2, bound 64.

    ``signs`` holds seven arity-2 functions: the top node, then the triple of
    the first three-party block (settings 1-4 / 1-2), then the triple of the
    second (settings 5-8 / 3-4).
    """
    if len(signs) != 7:
        raise ValueError("need 7 sign functions")
    halves = (_chain_block(3, signs[1:4], 0), _chain_block(3, signs[4:7], 1))
    return Node(signs[0], halves, (Observable(4, 1), Observable(4, 2)))


def tree_88444(signs: list[SignFunction]) -> Node:
    """Five-party tree on 8 x 8 x 4 x 4 x 4, bound 256.

    ``signs`` holds nine arity-2 functions: the top node, the two triples of
    the four-party halves as in tree_8842, then the two functions of the
    trailing two-party leaves on parties 4 and 5.
    """
    if len(signs) != 9:
        raise ValueError("need 9 sign functions")
    return Node(
        signs[0],
        tree_8842(signs[:7]).first,
        (
            Leaf((4, 5), ((1, 2), (1, 2)), signs[7]),
            Leaf((4, 5), ((3, 4), (3, 4)), signs[8]),
        ),
    )


def _two_setting_tree(signs: list[SignFunction]) -> Leaf:
    """The two-setting family member of one arity-N sign function: one leaf."""
    (sign,) = signs
    return Leaf(tuple(range(1, sign.arity + 1)), ((1, 2),) * sign.arity, sign)


def layout_tree(layout: tuple[int, ...]) -> tuple[tuple[int, ...], Callable]:
    """The registry of generated layouts: sign-function arities and tree builder.

    The builder takes one sign function per arity, in order, and returns the
    construction tree.  Supported, for N parties:

      2x...x2    (N >= 1)  arities (N,)             one leaf, pairs (1, 2)
      4x...x4x2  (N >= 3)  arities (2, N-1, N-1)    tree_chain
      8x8x4x2              arities (2,) * 7         tree_8842
      8x8x4x4x4            arities (2,) * 9         tree_88444

    Layouts with more than limits.MAX_COUNT coefficients (2x...x2 past
    N = 20, 4x...x4x2 past N = 10) raise ResourceLimitError.
    """
    entries = math.prod(layout)
    if entries > limits.MAX_COUNT:
        raise ResourceLimitError(
            f"layouts are capped at {limits.MAX_COUNT} coefficient entries, got {entries}")
    n = len(layout)
    if n >= 1 and layout == (2,) * n:
        return (n,), _two_setting_tree
    if n >= 3 and layout == (4,) * (n - 1) + (2,):
        return (2, n - 1, n - 1), lambda signs: tree_chain(n, *signs)
    if layout == (8, 8, 4, 2):
        return (2,) * 7, tree_8842
    if layout == (8, 8, 4, 4, 4):
        return (2,) * 9, tree_88444
    raise ValueError(
        f"unsupported layout {layout}; supported: 2x...x2, 4x...x4x2, 8x8x4x2, 8x8x4x4x4"
    )


@dataclass(frozen=True)
class TightnessReport:
    is_tight: bool
    vertex_count: int
    saturating_count: int
    affine_rank: int
    dimension: int
    #: True when the rank came from the exact integer elimination, False when
    #: the diagonal dominance of the Gram matrix proved full rank.
    exact_fallback: bool


def check_tightness(ineq: BellInequality) -> TightnessReport:
    """Decide whether an integer inequality supports a facet.

    Evaluates the inequality on every distinct polytope vertex, counts exact
    saturations of the upper bound, and finds the exact linear rank of the
    saturating vertex tensors; the inequality is tight precisely when that
    rank equals the dimension of the correlation space.  The vertex matrix is
    never formed.  A vertex is the Kronecker product of one
    +-1 outcome row O_j[i_j] per party (lhv._vertex_factors), so:

      values  c . v = c contracted over each party's settings with O_j, in
              int64: every partial sum is a signed sum of coefficients,
              at most sum |c| in magnitude;
      Gram    G = sum over saturating v of v v^T = the 0/1 saturation mask
              contracted over each party's codes with
              Q_j[i, (k, l)] = O_j[i, k] O_j[i, l], then regrouped from
              (k_1, l_1, ..., k_N, l_N) to (k..., l...), in float64: every
              partial sum is a signed count of at most limits.MAX_COUNT
              vertices, an integer well below 2^53.

    Full rank is certified from G by _certified_nonsingular, exact strict
    diagonal dominance, which settled every facet measured so far.  When it
    does not (every non-tight inequality, and any facet whose G is not
    dominant) only the saturating vertex rows are built, each the row-wise
    Kronecker product of the outcome rows at its mask index, and their rank
    comes from fraction-free elimination over the integers, so it is exact
    either way.  Coefficients whose magnitudes sum to 2^63 or more raise
    ResourceLimitError, since a vertex value could then wrap in int64.
    """
    if not ineq.is_integral() or not isinstance(ineq.bound, int):
        raise ValueError("tightness checks need exact integer coefficients")
    _, factors = _vertex_factors(ineq.layout)
    coeff = ineq.coefficients
    if sum(map(abs, coeff.ravel().tolist())) >= 1 << 63:
        raise ResourceLimitError("coefficient magnitudes sum past exact int64 vertex values")
    values = _contract(coeff, [o.T for o in factors])
    if np.max(np.abs(values)) > ineq.bound:
        raise ValueError("bound is not valid on the vertex set")
    mask = values == ineq.bound
    saturating = int(np.count_nonzero(mask))
    dim = coeff.size
    if saturating >= dim and _certified_nonsingular(_saturating_gram(mask, factors)):
        rank, exact_fallback = dim, False
    else:
        rows = _saturating_rows(mask.reshape([len(o) for o in factors]), factors)
        rank, exact_fallback = _integer_rank(rows), True
    return TightnessReport(
        is_tight=rank == dim,
        vertex_count=values.size,
        saturating_count=saturating,
        affine_rank=rank,
        dimension=dim,
        exact_fallback=exact_fallback,
    )


def _contract(tensor: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """``tensor`` with its axis j mapped through ``matrices[j]``, whose rows
    index that axis, for every j: one 2-D matmul per axis.

    Each step contracts the leading axis and appends the new one last, so
    after the last step the axes are back in order; the result comes as a
    matrix whose C-order entries are those of the mapped tensor.
    """
    for matrix in matrices:
        tensor = tensor.reshape(matrix.shape[0], -1).T @ matrix
    return tensor


def _saturating_gram(mask: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """G = sum over the vertices flagged in ``mask`` of v v^T, in float64, by
    contracting the mask with each party's outer products of outcome rows."""
    outers = [(o[:, :, None] * o[:, None, :]).reshape(len(o), -1).astype(np.float64)
              for o in factors]
    settings = [o.shape[1] for o in factors]
    n = len(settings)
    gram = _contract(mask.astype(np.float64), outers)
    gram = gram.reshape([m for m in settings for _ in "kl"])
    dim = math.prod(settings)
    return gram.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(dim, dim)


def _saturating_rows(mask: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """The vertex rows flagged in ``mask``, in C order of the mask: each is
    the row-wise Kronecker product of one outcome row per party, picked by
    the mask's indices, so no other vertex row is formed."""
    rows, *rest = [o[index] for o, index in zip(factors, np.nonzero(mask))]
    for picked in rest:
        width = rows.shape[1] * picked.shape[1]  # explicit: there may be no rows
        rows = (rows[:, :, None] * picked[:, None, :]).reshape(len(rows), width)
    return rows


def _certified_nonsingular(gram: np.ndarray) -> bool:
    """True when the Gram matrix ``gram`` is strictly diagonally dominant,
    which proves it nonsingular; False proves nothing.

    ``gram`` must hold, exactly in float64, an integer positive semidefinite
    matrix whose diagonal is below 2^53.  G is nonsingular when
    2 G_kk > sum_j |G_kj| for every row k (Levy-Desplanques; Horn & Johnson,
    Matrix Analysis, Thm 6.1.10).  As G is positive semidefinite,
    |G_kj| <= max_k G_kk, so every partial sum of a row of |G| is an integer
    of at most dim max_k G_kk; the test runs only while that is below 2^53,
    where float64 sums it exactly.  The Gram matrix of every facet measured
    so far, generated or rounded from an LP certificate, was exactly
    diagonal; that is measured, not proven.
    """
    dim = gram.shape[0]
    diagonal = np.diagonal(gram)
    return dim * int(diagonal.max()) < 1 << 53 and \
        bool(np.all(2 * diagonal > np.abs(gram).sum(axis=1)))


def _integer_rank(matrix: np.ndarray) -> int:
    """Exact rank over the rationals via fraction-free row reduction.

    Rows are folded into an echelon basis one at a time using Python integer
    multiply-subtract steps (never division, except by a row's gcd), so there
    is no overflow and no floating-point rank ambiguity.  Stops early once
    the rank reaches the column count, which it cannot exceed; the cost
    otherwise grows with the full row count.  check_tightness runs it only
    when _certified_nonsingular does not settle the rank.
    """
    pivots: dict[int, list[int]] = {}
    for raw in matrix:
        row = [int(v) for v in raw]
        for col in sorted(pivots):
            if row[col] != 0:
                base = pivots[col]
                a, b = base[col], row[col]
                row = [a * r - b * p for r, p in zip(row, base)]
                g = reduce(math.gcd, row)
                if g > 1:
                    row = [v // g for v in row]
        lead = next((i for i, v in enumerate(row) if v != 0), None)
        if lead is None:
            continue
        pivots[lead] = row
        if len(pivots) == matrix.shape[1]:
            break
    return len(pivots)
