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
over hidden variables turns each tree into a Bell inequality whose integer
coefficient tensor is computed here by direct expansion.  Tightness is
decided by enumerating the distinct polytope vertices, counting those that
saturate the bound, and measuring their exact linear rank: full rank is
certified by elimination modulo a prime on a random integer sketch of the
saturating rows, and only a matrix that certificate does not settle goes to
fraction-free elimination over the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence, Union

import numpy as np

from .lhv import (
    BellInequality,
    ExperimentLayout,
    SignFunction,
    enumerate_vertices,
)


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


@dataclass(frozen=True)
class _Block:
    """Expansion state: per-party coefficient maps and the guaranteed value."""

    # {party: {setting: ...}} nested coefficient dict keyed by full assignments
    coeffs: dict[tuple[tuple[int, int], ...], int]
    parties: frozenset[int]
    magnitude: int


def _expand(tree: ConstructionTree) -> _Block:
    if isinstance(tree, Observable):
        key = ((tree.party, tree.setting),)
        return _Block({key: 1}, frozenset([tree.party]), 1)

    if isinstance(tree, Leaf):
        if len(set(tree.parties)) != len(tree.parties):
            raise ValueError("leaf parties must be distinct")
        walsh = tree.sign.walsh_coefficients()
        coeffs: dict[tuple[tuple[int, int], ...], int] = {}
        for idx in np.ndindex(*walsh.shape):
            w = int(walsh[idx])
            if w == 0:
                continue
            key = tuple(
                sorted(
                    (party, pair[bit])
                    for party, pair, bit in zip(tree.parties, tree.setting_pairs, idx)
                )
            )
            coeffs[key] = coeffs.get(key, 0) + w
        return _Block(coeffs, frozenset(tree.parties), 2 ** len(tree.parties))

    if isinstance(tree, Node):
        x1, x2 = (_expand(b) for b in tree.first)
        y1, y2 = (_expand(b) for b in tree.second)
        _check_pair(x1, x2)
        _check_pair(y1, y2)
        if x1.parties & y1.parties:
            raise ValueError("node pairs must involve disjoint party sets")
        walsh = tree.sign.walsh_coefficients()
        w00, w01 = int(walsh[0, 0]), int(walsh[0, 1])
        w10, w11 = int(walsh[1, 0]), int(walsh[1, 1])
        coeffs: dict[tuple[tuple[int, int], ...], int] = {}
        for w, xb, yb in ((w00, x1, y1), (w01, x1, y2), (w10, x2, y1), (w11, x2, y2)):
            if w == 0:
                continue
            for kx, cx in xb.coeffs.items():
                for ky, cy in yb.coeffs.items():
                    key = tuple(sorted(kx + ky))
                    coeffs[key] = coeffs.get(key, 0) + w * cx * cy
        coeffs = {k: c for k, c in coeffs.items() if c != 0}
        return _Block(coeffs, x1.parties | y1.parties, 4 * x1.magnitude * y1.magnitude)

    raise TypeError(f"not a construction tree: {tree!r}")


def _check_pair(b1: _Block, b2: _Block) -> None:
    if b1.parties != b2.parties:
        raise ValueError("paired blocks must cover the same parties")
    if b1.magnitude != b2.magnitude:
        raise ValueError("paired blocks must have equal magnitudes")
    for party in b1.parties:
        used1 = {s for key in b1.coeffs for p, s in key if p == party}
        used2 = {s for key in b2.coeffs for p, s in key if p == party}
        if used1 & used2:
            raise ValueError(f"paired blocks reuse settings {used1 & used2} of party {party}")


def _declared_settings(tree: ConstructionTree, out: dict[int, int]) -> None:
    if isinstance(tree, Observable):
        out[tree.party] = max(out.get(tree.party, 0), tree.setting)
    elif isinstance(tree, Leaf):
        for party, pair in zip(tree.parties, tree.setting_pairs):
            out[party] = max(out.get(party, 0), *pair)
    elif isinstance(tree, Node):
        for branch in (*tree.first, *tree.second):
            _declared_settings(branch, out)


def build_recursive(tree: ConstructionTree) -> BellInequality:
    """Expand a construction tree into its Bell inequality.

    The layout follows the tree's declared settings (degenerate sign choices
    may zero out whole slices but do not shrink the layout); the bound is the
    guaranteed deterministic value of the tree.
    """
    block = _expand(tree)
    parties = sorted(block.parties)
    if parties != list(range(1, len(parties) + 1)):
        raise ValueError(f"tree parties {parties} must be exactly 1..N")
    n = len(parties)
    declared: dict[int, int] = {}
    _declared_settings(tree, declared)
    layout = ExperimentLayout(tuple(declared[p] for p in parties))
    coeff = np.zeros(layout.shape, dtype=np.int64)
    for key, c in block.coeffs.items():
        idx = [0] * n
        for party, setting in key:
            idx[party - 1] = setting - 1
        coeff[tuple(idx)] = c
    return BellInequality(layout, coeff, block.magnitude)


def tree_442(top: SignFunction, left: SignFunction, right: SignFunction) -> Node:
    """Three-party tree on a 4 x 4 x 2 layout, bound 16: tree_chain(3, ...)."""
    return tree_chain(3, top, left, right)


def build_442(top: SignFunction, left: SignFunction, right: SignFunction) -> BellInequality:
    """The 4 x 4 x 2 family member for one sign-function triple."""
    return build_recursive(tree_442(top, left, right))


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
    """
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
    #: the modular certificate proved full rank.
    exact_fallback: bool


def check_tightness(ineq: BellInequality) -> TightnessReport:
    """Decide whether an integer inequality supports a facet.

    Sweeps the distinct polytope vertices, counts exact saturations of the
    upper bound, and computes the exact linear rank of the saturating vertex
    tensors; the inequality is tight precisely when that rank equals the
    dimension of the correlation space.  Full rank is certified modulo a
    prime on a random sketch of the saturating rows; when the certificate
    fails (every non-tight inequality, or an unlucky prime) the rank comes
    from fraction-free elimination over the integers, so it is exact either
    way.
    """
    if not ineq.is_integral() or not isinstance(ineq.bound, int):
        raise ValueError("tightness checks need exact integer coefficients")
    _, vertices = enumerate_vertices(ineq.layout)
    flat = ineq.coefficients.ravel()
    values = vertices @ flat
    if np.max(np.abs(values)) > ineq.bound:
        raise ValueError("bound is not valid on the vertex set")
    saturating = vertices[values == ineq.bound]
    dim = vertices.shape[1]
    rank, exact_fallback = _column_rank(saturating)
    return TightnessReport(
        is_tight=rank == dim,
        vertex_count=vertices.shape[0],
        saturating_count=saturating.shape[0],
        affine_rank=rank,
        dimension=dim,
        exact_fallback=exact_fallback,
    )


def _column_rank(matrix: np.ndarray) -> tuple[int, bool]:
    """Exact rank of an integer matrix, capped at its column count, and
    whether the exact integer elimination had to run."""
    dim = matrix.shape[1]
    if _full_rank_mod_p(matrix):
        return dim, False
    return _integer_rank(matrix), True


#: Largest prime below 2^25: a product of two residues stays below 2^50, so
#: elimination in float64 is exact.
_PRIME = 33_554_393
#: Sketch entries are drawn from [0, 2^_SKETCH_BITS) by a fixed-seed generator.
_SKETCH_BITS = 20
_SKETCH_SEED = 0


def _full_rank_mod_p(matrix: np.ndarray) -> bool:
    """True when ``matrix`` provably has full column rank over the rationals.

    Compresses the rows into a square sketch X = R @ matrix, with R a
    fixed-seed integer matrix, accumulated one block of ``dim`` rows at a time
    so the extra memory is O(dim^2); then eliminates X modulo _PRIME.  Full
    rank of X mod p proves full rank of ``matrix``, because
    rank_p(R M) <= rank_p(M) <= rank_Q(M).  False proves nothing.  Every
    float64 sum formed is an integer below rows * max|entry| * 2^20; when that
    is not below 2^53 the sums could round, and the answer is False.
    """
    rows, dim = matrix.shape
    if rows < dim:
        return False
    largest = max(int(matrix.max()), -int(matrix.min()))  # no |matrix| copy
    if (rows * largest) << _SKETCH_BITS >= 1 << 53:
        return False
    rng = np.random.default_rng(_SKETCH_SEED)
    x = np.zeros((dim, dim))
    for start in range(0, rows, dim):
        block = matrix[start:start + dim].astype(np.float64)
        sketch = rng.integers(0, 1 << _SKETCH_BITS, size=(dim, block.shape[0]))
        x += sketch.astype(np.float64) @ block
    return _nonsingular_mod_p(np.mod(x, _PRIME))


def _nonsingular_mod_p(x: np.ndarray) -> bool:
    """Whether a square float64 matrix of residues mod _PRIME is invertible.

    Gaussian elimination in place.  Each product of two residues is below
    2^50 and each difference formed below 2^51, so float64 holds every
    intermediate exactly.
    """
    dim = x.shape[0]
    scratch = np.empty(dim * dim)
    for col in range(dim):
        nonzero = np.flatnonzero(x[col:, col])
        if nonzero.size == 0:
            return False
        pivot = col + nonzero[0]
        if pivot != col:
            x[[col, pivot], col:] = x[[pivot, col], col:]
        row = x[col, col + 1:]
        row *= pow(int(x[col, col]), -1, _PRIME)
        _reduce_mod_p(row, scratch[:row.size])
        below = x[col + 1:, col + 1:]
        product = scratch[:below.size].reshape(below.shape)
        np.multiply.outer(x[col + 1:, col], row, out=product)
        below -= product
        _reduce_mod_p(below, product)
    return True


def _reduce_mod_p(y: np.ndarray, scratch: np.ndarray) -> None:
    """Reduce integer-valued float64 entries below 2^51 in magnitude to
    residues in [0, _PRIME), in place; ``scratch`` has y's shape.

    y - p * floor(y / p) is exact: the quotient is below 2^27 in magnitude,
    so rounding moves it by at most 2^-27, less than its distance (at least
    1/p > 2^-25) from any integer it is not equal to.  np.mod gives the same values but goes through
    the slower fmod.
    """
    np.divide(y, _PRIME, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= _PRIME
    y -= scratch


def _integer_rank(matrix: np.ndarray) -> int:
    """Exact rank over the rationals via fraction-free row reduction.

    Rows are folded into an echelon basis one at a time using Python integer
    multiply-subtract steps (never division, except by a row's gcd), so there
    is no overflow and no floating-point rank ambiguity.  Stops early once
    the rank reaches the column count, which it cannot exceed; the cost
    otherwise grows with the full row count.  check_tightness runs it only
    when the modular certificate of _full_rank_mod_p does not settle the rank.
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


def reduce_settings(ineq: BellInequality, mapping: list[dict[int, int]]) -> BellInequality:
    """Identify settings of an inequality, summing merged coefficients.

    ``mapping`` has one dict per party sending old 1-based setting indices to
    new ones; each party's map must cover all its old settings and hit every
    new index up to its maximum.  The bound is unchanged: identified settings
    only restrict the strategies the original identity already covers.
    """
    layout = ineq.layout
    if len(mapping) != layout.n_parties:
        raise ValueError("one setting map per party required")
    new_m = []
    for j, (m_old, perm) in enumerate(zip(layout.settings_per_party, mapping)):
        if sorted(perm.keys()) != list(range(1, m_old + 1)):
            raise ValueError(f"party {j + 1} map must cover settings 1..{m_old}")
        top = max(perm.values())
        if min(perm.values()) < 1 or set(perm.values()) != set(range(1, top + 1)):
            raise ValueError(f"party {j + 1} map is not onto 1..{top}")
        new_m.append(top)
    new_layout = ExperimentLayout(tuple(new_m))
    coeff = np.zeros(new_layout.shape, dtype=ineq.coefficients.dtype)
    for idx in np.ndindex(*layout.shape):
        target = tuple(mapping[j][k + 1] - 1 for j, k in enumerate(idx))
        coeff[target] += ineq.coefficients[idx]
    return BellInequality(new_layout, coeff, ineq.bound)
