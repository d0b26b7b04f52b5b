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
over hidden variables turns each tree into a Bell inequality.  Expanded, a
Leaf puts Walsh coefficient w[k] of its sign function (k in {0,1}^arity) at
the settings p_i where k_i = 0 and q_i where k_i = 1, and a Node is
X1 (w00 Y1 + w01 Y2) + X2 (w10 Y1 + w11 Y2).  So each int64 coefficient is a
product of one Walsh coefficient per sign slot on its path (a slot is one
sign function, taken in preorder), or a sum of such products where a node's
paired blocks declare a setting in common.  build_recursive splits that in
two:

  the plan    from the tree's structure (its parties, settings and arities,
              without the signs): the layout, the bound, the flat positions
              that can hold a coefficient and, per position, the Walsh
              coefficients that multiply into it (_Plan).  Every check of the
              structure runs while it is made;
  the values  from the signs: each arity's Walsh coefficients from one
              in-place fast Walsh-Hadamard transform of all its slots, then
              one gather and one product over the slots and a scatter into
              a zeroed tensor.

The plan is kept per process in the layout cache (_cache._kept), under that
cache's shared limits.MAX_COUNT budget, keyed by the structure; the cache
drops its oldest entries to make room, and a plan past the whole budget is
built on every call.  Trees that differ only in their signs, such as one
layout's registry members, share one plan.  In
process on a 2-vCPU VM, a call on 8x8x4x4x4 takes about 225 us when it makes
the plan and 43 us when the plan is kept, against 307 us for the dense
per-node expansion that the plan replaced.  A tree of one leaf has little to
expand, so making its plan costs more than that expansion did: 56 against
41 us on 2x2, so a process's first call on such a layout is slower than
before.  README's `generate` section lists each registry layout.  Whether
paired blocks that declare a setting in common use it in both depends on
the signs, so that check runs with the values.  Tightness is decided from
each party's +-1 outcome matrix, never from the vertex matrix: the vertex
values are the coefficient tensor contracted party by party with those
matrices, in int64, and the Gram matrix of the saturating vertices is the
0/1 saturation mask contracted with each party's products of outcome
columns over its setting pairs k <= l, in float64, then gathered into
place by one index per layout (_gram_plan), kept in the layout cache like
the plans.  Both contractions go through lhv._contract, the per-axis product
with which lhv.evaluate_model turns every model into its table.  Both are
exact, since every partial sum is bounded by sum |c| below 2^63 and by the
vertex count below 2^53 respectively.  Full rank is certified from that
Gram matrix by exact strict diagonal dominance, which settled every facet
measured so far.  Any other inequality goes to fraction-free elimination
over the integers, of its saturating vertex rows alone, built from the
per-party outcome rows at the saturation mask's indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from . import limits
from ._cache import _cached, _kept
from .errors import ResourceLimitError
from .lhv import (
    BellInequality,
    ExperimentLayout,
    SignFunction,
    _contract,
    _vertex_factors,
    _vertex_rows,
)
# enumerate_vertices is unused here, but bench/tracing.py wraps it in this namespace
from .lhv import enumerate_vertices  # noqa: F401
from .qstate import _butterflies, json_int


@dataclass(frozen=True)
class Observable:
    """A_party(setting); parties and settings are 1-based.  Unless both are
    Python ints, they are read through json_int."""

    party: int
    setting: int

    def __post_init__(self):
        if type(self.party) is not int or type(self.setting) is not int:
            object.__setattr__(self, "party", json_int(self.party, "a party"))
            object.__setattr__(self, "setting", json_int(self.setting, "a setting"))
        if self.party < 1 or self.setting < 1:
            raise ValueError("party and setting indices are 1-based")


@dataclass(frozen=True)
class Leaf:
    """sum over t of S(t) * prod_i [A_i(first_i) + t_i A_i(second_i)].

    Parties, unless all are Python ints, and each setting pair, unless both
    settings are, are read through json_int."""

    parties: tuple[int, ...]
    setting_pairs: tuple[tuple[int, int], ...]
    sign: SignFunction

    def __post_init__(self):
        parties = tuple(self.parties)
        if set(map(type, parties)) - {int}:
            parties = tuple(json_int(p, "a party") for p in parties)
        pairs = tuple((a, b) if type(a) is int and type(b) is int else
                      (json_int(a, "a setting"), json_int(b, "a setting"))
                      for a, b in self.setting_pairs)
        if len(parties) != len(pairs):
            raise ValueError("one setting pair per party required")
        if len(set(parties)) != len(parties):
            raise ValueError("leaf parties must be distinct")
        if self.sign.arity != len(parties):
            raise ValueError("sign function arity must match the party count")
        for first, second in pairs:
            if first == second:
                raise ValueError("the two settings of a pair must differ")
            if min(first, second) < 1:
                raise ValueError("settings are 1-based")
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "setting_pairs", pairs)


@dataclass(frozen=True)
class Node:
    """sum_{s1,s2} S(s1,s2) (first[0] + s1 first[1]) (second[0] + s2 second[1])."""

    sign: SignFunction
    first: tuple["ConstructionTree", "ConstructionTree"]
    second: tuple["ConstructionTree", "ConstructionTree"]

    def __post_init__(self):
        if self.sign.arity != 2:
            raise ValueError("node sign functions have arity 2")
        for name in ("first", "second"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"a node's {name} pair must hold two blocks")
            object.__setattr__(self, name, tuple(pair))


ConstructionTree = Union[Observable, Leaf, Node]


class _Terms(NamedTuple):
    """A block of a tree being planned: one term per row, its flat position
    in the layout and the pool indices of its factors; the settings it
    declares, per party; and its magnitude."""

    positions: np.ndarray
    factors: np.ndarray
    settings: dict[int, frozenset[int]]
    magnitude: int


class _Plan(NamedTuple):
    """What a tree's structure fixes: its layout and bound, and how to make
    its coefficients from the Walsh coefficients of its sign slots.

    The values live in one int64 pool (_pool): the slots' Walsh
    coefficients, by arity, each arity's as a 2^arity x slots matrix with
    its slots in preorder; then a 1 that pads short factor rows; then the
    entries of the blocks whose terms share positions (_add_terms).
    ``steps`` run in order on the pool; the coefficient at ``positions[i]``
    is the product of the pool entries in row i of ``factors``.
    """

    layout: ExperimentLayout
    bound: int
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    size: int
    steps: tuple[tuple[Callable, tuple], ...]
    positions: np.ndarray
    factors: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.positions, self.factors,
                *(a for _, args in self.steps for a in args if isinstance(a, np.ndarray))]

    def coefficients(self, signs: Sequence[SignFunction]) -> np.ndarray:
        """The read-only coefficient tensor for the slots' sign functions."""
        pool = _pool(self.groups, self.size, self.steps, signs)
        coeff = np.zeros(self.layout.shape, np.int64)
        np.put(coeff, self.positions, pool[self.factors].prod(axis=1))
        coeff.flags.writeable = False
        return coeff


def _pool(groups: Sequence[tuple[int, tuple[int, ...]]], size: int,
          steps: Sequence[tuple[Callable, tuple]], signs: Sequence[SignFunction]) -> np.ndarray:
    """A plan's pool for the slots' sign functions, after its steps have run."""
    pool = np.zeros(size, np.int64)
    start = 0
    for arity, slots in groups:
        # coefficient t of the group's slot j at start + t * len(slots) + j, so
        # the butterflies transform every slot of the group at once, in place
        walsh = pool[start:start + (len(slots) << arity)].reshape(1 << arity, len(slots))
        walsh[...] = 1 - 2 * np.array([signs[k].bits for k in slots]).T
        _butterflies(walsh, arity)
        start += walsh.size
    pool[start] = 1
    for step, args in steps:
        step(pool, *args)
    return pool


def _add_terms(pool: np.ndarray, factors: np.ndarray, targets: np.ndarray) -> None:
    """Add each term's product of factors into its pool entry in ``targets``."""
    np.add.at(pool, targets, pool[factors].prod(axis=1))


def _check_reuse(pool: np.ndarray, parties: list[tuple[int, int, int]],
                 positions1: np.ndarray, factors1: np.ndarray,
                 positions2: np.ndarray, factors2: np.ndarray) -> None:
    """Refuse a pair whose two blocks both have nonzero entries at one
    setting of a party; ``parties`` holds the party, its stride and its
    setting count for each party the blocks share a declared setting of."""
    live = [positions[(pool[factors] != 0).all(axis=1)]
            for positions, factors in ((positions1, factors1), (positions2, factors2))]
    for party, stride, count in parties:
        first, second = (set((positions // stride % count).tolist()) for positions in live)
        if first & second:
            settings = {s + 1 for s in first & second}
            raise ValueError(f"paired blocks reuse settings {settings} of party {party}")


class _Planner:
    """Builds a _Plan's terms block by block, the checks of each node after
    those of its blocks.  A block with no repeated position has one term per
    position; a node whose paired blocks share a declared setting of some
    party may repeat positions, so its terms are summed into the pool and
    it continues as one term per position."""

    def __init__(self, shape: tuple[int, ...], signs: Sequence[SignFunction]):
        self.shape = shape
        self.strides = [1] * len(shape)
        for j in range(len(shape) - 1, 0, -1):
            self.strides[j - 1] = self.strides[j] * shape[j]
        slots: dict[int, list[int]] = {}
        for k, sign in enumerate(signs):
            slots.setdefault(sign.arity, []).append(k)
        self.groups = tuple((arity, tuple(slots[arity])) for arity in sorted(slots))
        # per slot in preorder: the pool index of its coefficient 0 and the
        # step to each next coefficient (_pool)
        walsh = [(0, 0)] * len(signs)
        start = 0
        for arity, group in self.groups:
            for j, k in enumerate(group):
                walsh[k] = start + j, len(group)
            start += len(group) << arity
        self.slots = iter(walsh)
        self.one = start
        self.size = start + 1
        self.steps: list[tuple[Callable, tuple]] = []

    def block(self, tree: ConstructionTree) -> _Terms:
        if isinstance(tree, Observable):
            position = (tree.setting - 1) * self.strides[tree.party - 1]
            return _Terms(np.array([position]), np.empty((1, 0), np.intp),
                          {tree.party: frozenset([tree.setting])}, 1)
        walsh, step = next(self.slots)
        if isinstance(tree, Leaf):
            # term t puts argument j's setting t_j (bit j of t, the first most
            # significant) at party j and takes Walsh coefficient t
            positions = 0
            for party, pair in zip(tree.parties, tree.setting_pairs):
                stride = self.strides[party - 1]
                positions = np.add.outer(positions, [(s - 1) * stride for s in pair])
            positions = positions.ravel()
            factors = (walsh + step * np.arange(len(positions)))[:, None]
            settings = {p: frozenset(pair) for p, pair in zip(tree.parties, tree.setting_pairs)}
            return _Terms(positions, factors, settings, len(positions))
        xs = [self.block(branch) for branch in tree.first]
        ys = [self.block(branch) for branch in tree.second]
        shared = self.pair(*xs)
        shared = self.pair(*ys) or shared
        if xs[0].settings.keys() & ys[0].settings.keys():
            raise ValueError("node pairs must involve disjoint party sets")
        magnitude = 4 * xs[0].magnitude * ys[0].magnitude
        # |coefficient| <= magnitude, and so is every product of a term's factors
        if magnitude >= 1 << 62:
            raise ResourceLimitError(f"tree magnitude {magnitude} is past exact int64 coefficients")
        # every term of X_a with every term of Y_b, times Walsh coefficient
        # (a, b) of the node's sign function: x rows, y columns
        (x1, x2), (y1, y2) = xs, ys
        fx = max(x1.factors.shape[1], x2.factors.shape[1])
        fy = max(y1.factors.shape[1], y2.factors.shape[1])
        nx, ny = len(x1.positions), len(y1.positions)
        x_positions = np.concatenate([x1.positions, x2.positions])
        y_positions = np.concatenate([y1.positions, y2.positions])
        rows = np.full((len(x_positions), len(y_positions), fx + fy + 1), self.one)
        rows[:nx, :, :x1.factors.shape[1]] = x1.factors[:, None]
        rows[nx:, :, :x2.factors.shape[1]] = x2.factors[:, None]
        rows[:, :ny, fx:fx + y1.factors.shape[1]] = y1.factors
        rows[:, ny:, fx:fx + y2.factors.shape[1]] = y2.factors
        rows[:nx, :ny, -1], rows[:nx, ny:, -1] = walsh, walsh + step
        rows[nx:, :ny, -1], rows[nx:, ny:, -1] = walsh + 2 * step, walsh + 3 * step
        settings = {p: s | pair[1].settings[p] for pair in (xs, ys)
                    for p, s in pair[0].settings.items()}
        terms = _Terms(np.add.outer(x_positions, y_positions).ravel(),
                       rows.reshape(-1, rows.shape[2]), settings, magnitude)
        return self.summed(terms) if shared else terms

    def pair(self, first: _Terms, second: _Terms) -> bool:
        """Check a node pair's structure; whether its blocks share a declared
        setting of some party, in which case the values decide (_check_reuse)."""
        if first.settings.keys() != second.settings.keys():
            raise ValueError("paired blocks must cover the same parties")
        if first.magnitude != second.magnitude:
            raise ValueError("paired blocks must have equal magnitudes")
        parties = [(p, self.strides[p - 1], self.shape[p - 1]) for p in sorted(first.settings)
                   if first.settings[p] & second.settings[p]]
        if parties:
            self.steps.append((_check_reuse, (parties, first.positions, first.factors,
                                              second.positions, second.factors)))
        return bool(parties)

    def summed(self, terms: _Terms) -> _Terms:
        """The block as one term per position, each a pool entry its terms add to."""
        positions, inverse = np.unique(terms.positions, return_inverse=True)
        start, self.size = self.size, self.size + len(positions)
        self.steps.append((_add_terms, (terms.factors, start + inverse.ravel())))
        return _Terms(positions, (start + np.arange(len(positions)))[:, None], terms.settings,
                      terms.magnitude)


def _structure(tree: ConstructionTree, signs: list[SignFunction]) -> tuple:
    """The tree without its sign functions, as nested tuples of its parties
    and settings; the sign functions go to ``signs`` in preorder."""
    if isinstance(tree, Node):
        signs.append(tree.sign)
        (x1, x2), (y1, y2) = tree.first, tree.second
        return (_structure(x1, signs), _structure(x2, signs),
                _structure(y1, signs), _structure(y2, signs))
    if isinstance(tree, Leaf):
        signs.append(tree.sign)
        return tree.parties, tree.setting_pairs
    if isinstance(tree, Observable):
        return tree.party, tree.setting
    raise TypeError(f"not a construction tree: {tree!r}")


def _declared_settings(tree: ConstructionTree, out: dict[int, int]) -> None:
    if isinstance(tree, Observable):
        out[tree.party] = max(out.get(tree.party, 0), tree.setting)
    elif isinstance(tree, Leaf):
        for party, pair in zip(tree.parties, tree.setting_pairs):
            out[party] = max(out.get(party, 0), *pair)
    else:
        for branch in (*tree.first, *tree.second):
            _declared_settings(branch, out)


def _plan(tree: ConstructionTree, signs: Sequence[SignFunction]) -> _Plan:
    declared: dict[int, int] = {}
    _declared_settings(tree, declared)
    parties = sorted(declared)
    if parties != list(range(1, len(parties) + 1)):
        raise ValueError(f"tree parties {parties} must be exactly 1..N")
    layout = ExperimentLayout(tuple(declared[p] for p in parties))
    planner = _Planner(layout.shape, signs)
    try:
        root = planner.block(tree)
    except (ValueError, ResourceLimitError):
        # a fault of the values in a block planned before this one comes first
        _pool(planner.groups, planner.size, planner.steps, signs)
        raise
    return _Plan(layout, root.magnitude, planner.groups, planner.size, tuple(planner.steps),
                 root.positions, root.factors)


def build_recursive(tree: ConstructionTree) -> BellInequality:
    """Expand a construction tree into its Bell inequality.

    The layout follows the tree's declared settings (degenerate sign choices
    may zero out whole slices but do not shrink the layout); the bound is the
    guaranteed deterministic value of the tree.  The plan (_Plan) depends on
    the tree's structure alone and is kept per process in the layout cache
    (_kept), so trees that differ only in their sign functions share it.
    """
    signs: list[SignFunction] = []
    key = ("plan", _structure(tree, signs))
    plan = _cached(key)
    if plan is None:
        plan = _plan(tree, signs)
        plan = _kept(key, plan, plan.arrays())
    return BellInequality(plan.layout, plan.coefficients(signs), plan.bound)


def tree_chain(n_parties: int, top: SignFunction,
               left: SignFunction, right: SignFunction) -> Node:
    """N-party tree on 4 x ... x 4 x 2: two arity-(N-1) leaves and a final pair.

    Generalizes the three-party tree; the bound is 2^(N+1).
    """
    if n_parties < 3:
        raise ValueError("chain trees need at least 3 parties")
    if left.arity != n_parties - 1 or right.arity != n_parties - 1:
        raise ValueError("leaf sign functions must have arity N-1")
    return _tree(n_parties, n_parties - 1, (top, left, right))


def tree_8842(signs: list[SignFunction]) -> Node:
    """Four-party tree on 8 x 8 x 4 x 2, bound 64.

    ``signs`` holds seven arity-2 functions: the top node, then the triple of
    the first three-party block (settings 1-4 / 1-2), then the triple of the
    second (settings 5-8 / 3-4).
    """
    return _tree(4, 2, signs)


def tree_88444(signs: list[SignFunction]) -> Node:
    """Five-party tree on 8 x 8 x 4 x 4 x 4, bound 256.

    ``signs`` holds nine arity-2 functions: the top node, the two triples of
    the four-party halves as in tree_8842, then the two functions of the
    trailing two-party leaves on parties 4 and 5.
    """
    if len(signs) != 9:
        raise ValueError("need 9 sign functions")
    rest = iter(signs)
    return Node(next(rest), (_block((1, 2), 3, 0, rest), _block((1, 2), 3, 1, rest)),
                (_block((4, 5), 5, 0, rest), _block((4, 5), 5, 1, rest)))


def _tree(n_parties: int, base: int, signs: Sequence[SignFunction]) -> ConstructionTree:
    """The block on parties 1..N over leaves of parties 1..base, built from
    2^(N-base+1) - 1 sign functions taken in preorder."""
    count = 2 ** (n_parties - base + 1) - 1
    if len(signs) != count:
        raise ValueError(f"need {count} sign functions")
    return _block(tuple(range(1, base + 1)), n_parties, 0, iter(signs))


def _block(base: tuple[int, ...], last: int, q: int,
           signs: Iterator[SignFunction]) -> ConstructionTree:
    """Block q of parties 1..last: the leaf of the ``base`` parties on their
    settings 2q+1, 2q+2 when ``last`` is the last of them; otherwise a node
    pairing blocks 2q and 2q+1 of parties 1..last-1 with party last's
    settings 2q+1, 2q+2.  Each sign function comes from ``signs``, the
    node's before its two blocks'."""
    pair = (2 * q + 1, 2 * q + 2)
    if last == base[-1]:
        return Leaf(base, (pair,) * len(base), next(signs))
    return Node(next(signs),
                (_block(base, last - 1, 2 * q, signs), _block(base, last - 1, 2 * q + 1, signs)),
                (Observable(last, pair[0]), Observable(last, pair[1])))


def layout_tree(layout: tuple[int, ...]) -> tuple[tuple[int, ...], Callable]:
    """The registry of generated layouts: sign-function arities and tree builder.

    The builder takes one sign function per arity, in order, and returns the
    construction tree.  Supported, for N parties:

      2x...x2                  (1 <= N <= 20)  arities (N,)                one leaf, pairs (1, 2)
      4x...x4x2                (3 <= N <= 10)  arities (2, N-1, N-1)       tree_chain
      2^(N-1)x2^(N-1)x...x4x2  (4 <= N <= 6)   arities (2,) * (2^(N-1)-1)  tree_8842 at N = 4
      8x8x4x4x4                (N = 5)         arities (2,) * 9            tree_88444

    The upper ends are the cap: layouts with more than limits.MAX_COUNT
    (2^20) coefficients raise ResourceLimitError.
    """
    entries = math.prod(layout)
    if entries > limits.MAX_COUNT:
        raise ResourceLimitError(
            f"layouts are capped at {limits.MAX_COUNT} coefficient entries, got {entries}")
    n = len(layout)
    if n >= 1 and layout == (2,) * n:
        return (n,), lambda signs: _tree(n, n, signs)
    if n >= 3 and layout == (4,) * (n - 1) + (2,):
        return (2, n - 1, n - 1), lambda signs: tree_chain(n, *signs)
    if n >= 4 and layout == (2 ** (n - 1),) + tuple(2 ** k for k in range(n - 1, 0, -1)):
        return (2,) * (2 ** (n - 1) - 1), lambda signs: _tree(n, 2, signs)
    if layout == (8, 8, 4, 4, 4):
        return (2,) * 9, tree_88444
    raise ValueError(
        f"unsupported layout {layout}; supported: 2x...x2, 4x...x4x2, "
        "2^(N-1)x2^(N-1)x...x4x2, 8x8x4x4x4"
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
              Q_j[i, (k, l)] = O_j[i, k] O_j[i, l] for its setting pairs
              k <= l only, since Q_j is symmetric in k and l, then gathered
              from (pair_1, ..., pair_N) into (k..., l...) order by one
              index per layout (_gram_plan), in float64: every partial sum
              is a signed count of at most limits.MAX_COUNT vertices, an
              integer well below 2^53, so G is exact in any order.

    Full rank is certified from G by _certified_nonsingular, exact strict
    diagonal dominance, which settled every facet measured so far.  When it
    does not (every non-tight inequality, and any facet whose G is not
    dominant) only the saturating vertex rows are built, by lhv._vertex_rows
    from the outcome rows at their mask indices, and their rank comes from
    fraction-free elimination over the integers, so it is exact either way.
    Coefficients whose magnitudes sum to 2^63 or more raise
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
        picked = np.nonzero(mask.reshape([len(o) for o in factors]))
        rows = _vertex_rows([o[index] for o, index in zip(factors, picked)])
        rank, exact_fallback = _integer_rank(rows), True
    return TightnessReport(
        is_tight=rank == dim,
        vertex_count=values.size,
        saturating_count=saturating,
        affine_rank=rank,
        dimension=dim,
        exact_fallback=exact_fallback,
    )


def _saturating_gram(mask: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """G = sum over the vertices flagged in ``mask`` of v v^T, in float64: the
    mask contracted with each party's products of outcome columns k <= l, then
    gathered into (k..., l...) order by the layout's index (_gram_plan)."""
    products, index = _gram_plan(factors)
    return _contract(mask.astype(np.float64), products).ravel()[index]


def _gram_plan(factors: Sequence[np.ndarray]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Each party's O[:, k] O[:, l] over its setting pairs k <= l, in float64,
    and the flat position of G's entry (k..., l...) in the tensor of pair
    cells that the mask contracts to; built once per layout (_kept).

    A party's pair cells are numbered in np.triu_indices order, and its
    (m x m) cell index holds that of (min(k, l), max(k, l)).  The layout's
    index joins two half-layout indices with one broadcast add (_join), so
    a layout whose index passes the cache's budget rebuilds it cheaply.
    """
    settings = tuple(o.shape[1] for o in factors)
    key = ("gram", settings)
    cached = _cached(key)
    if cached is not None:
        return cached
    products, cells = [], []
    for o, m in zip(factors, settings):
        k, l = np.triu_indices(m)
        products.append((o[:, k] * o[:, l]).astype(np.float64))
        cell = np.empty((m, m), np.intp)
        cell[k, l] = cell[l, k] = np.arange(len(k))
        cells.append((cell, len(k)))
    none = (np.zeros((1, 1), np.intp), 1)  # the cell index of no party
    half = len(cells) // 2
    index, _ = _join(reduce(_join, cells[:half], none), reduce(_join, cells[half:], none))
    return _kept(key, (tuple(products), index), (*products, index))


def _join(first: tuple[np.ndarray, int], second: tuple[np.ndarray, int]) -> tuple[np.ndarray, int]:
    """The cell index of two party groups taken together, and its cell count:
    entry ((k1, k2), (l1, l2)) is first's (k1, l1) times second's count plus
    second's (k2, l2)."""
    (a, a_cells), (b, b_cells) = first, second
    dim = len(a) * len(b)
    index = a[:, None, :, None] * b_cells + b[None, :, None, :]
    return index.reshape(dim, dim), a_cells * b_cells


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
