"""Recursive inequality generation: expansion oracle, identities, tightness."""
import hashlib
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import bellkit as bk
from bellkit import _cache, cli, lhv, limits
from bellkit import multiset as ms

CHSH = bk.SignFunction.chsh()


def expanded_442(top, left, right) -> np.ndarray:
    """Independent coefficient expansion of the three-party construction.

    Block c of parties 1,2 (settings 1,2 for c=0; 3,4 for c=1) carries the
    Walsh pattern of its leaf sign function; the top function distributes the
    blocks over party 3's settings.
    """
    wt = top.walsh_coefficients()
    leaves = [left.walsh_coefficients(), right.walsh_coefficients()]
    coeff = np.zeros((4, 4, 2), dtype=np.int64)
    for c in range(2):
        for d in range(2):
            for a in range(2):
                for b in range(2):
                    coeff[2 * c + a, 2 * c + b, d] = wt[c, d] * leaves[c][a, b]
    return coeff


def all_strategy_values(ineq: bk.BellInequality) -> np.ndarray:
    """Expression value on every deterministic strategy, exactly in integers.

    Contracts each party's setting axis with its (codes x settings) matrix of
    +-1 outcomes in turn; the result has one axis per party's code.
    """
    total = np.asarray(ineq.coefficients, dtype=np.int64)
    for m in ineq.layout.settings_per_party:
        codes = np.arange(1 << m)[:, None]
        outs = (1 - 2 * ((codes >> np.arange(m)[None, :]) & 1)).astype(np.int64)
        total = np.tensordot(total, outs, axes=([0], [1]))
    return total.ravel()


def test_442_matches_independent_expansion_all_chsh():
    ineq = bk.build_recursive(bk.tree_chain(3, CHSH, CHSH, CHSH))
    assert ineq.layout.settings_per_party == (4, 4, 2)
    assert ineq.bound == 16
    assert np.array_equal(ineq.coefficients, expanded_442(CHSH, CHSH, CHSH))
    # spot checks of the displayed product structure
    assert ineq.coefficients[0, 0, 0] == 4
    assert ineq.coefficients[1, 1, 0] == -4
    assert ineq.coefficients[3, 3, 1] == 4
    assert np.count_nonzero(ineq.coefficients) == 16


def test_442_matches_independent_expansion_random_triples():
    rng = np.random.default_rng(17)
    signs = list(bk.enumerate_sign_functions(2))
    for _ in range(20):
        top, left, right = (signs[rng.integers(16)] for _ in range(3))
        ineq = bk.build_recursive(bk.tree_chain(3, top, left, right))
        assert np.array_equal(ineq.coefficients, expanded_442(top, left, right))
        assert ineq.bound == 16


def test_442_identity_every_strategy():
    values = all_strategy_values(bk.build_recursive(bk.tree_chain(3, CHSH, CHSH, CHSH)))
    assert set(values.tolist()) == {-16, 16}


def test_442_identity_random_triples():
    rng = np.random.default_rng(23)
    signs = list(bk.enumerate_sign_functions(2))
    for _ in range(5):
        ineq = bk.build_recursive(
            bk.tree_chain(3, *(signs[rng.integers(16)] for _ in range(3))))
        assert set(all_strategy_values(ineq).tolist()) <= {-16, 16}


def test_tree_consistency_with_builder():
    """The registry's 4x4x2 builder is tree_chain(3, ...), slot for slot."""
    arities, build = ms.layout_tree((4, 4, 2))
    assert arities == (2, 2, 2)
    signs = list(bk.enumerate_sign_functions(2))
    top, left, right = signs[6], signs[1], signs[7]
    assert build([top, left, right]) == bk.tree_chain(3, top, left, right)
    assert np.array_equal(bk.build_recursive(build([top, left, right])).coefficients,
                          expanded_442(top, left, right))


def test_8842_bound_and_identity():
    ineq = bk.build_recursive(bk.tree_8842([CHSH] * 7))
    assert ineq.layout.settings_per_party == (8, 8, 4, 2)
    assert ineq.bound == 64
    assert np.count_nonzero(ineq.coefficients) == 64
    assert set(all_strategy_values(ineq).tolist()) == {-64, 64}


def test_88444_bound_and_identity_sampled():
    ineq = bk.build_recursive(bk.tree_88444([CHSH] * 9))
    assert ineq.layout.settings_per_party == (8, 8, 4, 4, 4)
    assert ineq.bound == 256
    rng = np.random.default_rng(3)
    layout = ineq.layout.settings_per_party
    samples = 20000
    idxs = [rng.integers(0, 1 << m, size=samples) for m in layout]
    total = np.zeros(samples, dtype=np.int64)
    for pos in np.argwhere(ineq.coefficients != 0):
        prod = np.full(samples, np.int64(ineq.coefficients[tuple(pos)]))
        for j, k in enumerate(pos):
            prod *= 1 - 2 * ((idxs[j] >> int(k)) & 1)
        total += prod
    assert set(total.tolist()) == {-256, 256}


def sampled_strategy_values(ineq: bk.BellInequality, rng, samples: int = 4096) -> np.ndarray:
    """Expression value on random deterministic strategies, exactly in integers.

    Contracts the coefficient tensor party by party with each sample's +-1
    outcome vector; the result has one entry per sample.
    """
    coeff = np.asarray(ineq.coefficients, dtype=np.int64)
    total = np.broadcast_to(coeff, (samples, *coeff.shape))
    for m in ineq.layout.settings_per_party:
        codes = rng.integers(0, 1 << m, size=samples)[:, None]
        outs = (1 - 2 * ((codes >> np.arange(m)[None, :]) & 1)).astype(np.int64)
        total = np.einsum("sk,sk...->s...", outs, total)
    return total


REGISTRY_LAYOUTS = [(2, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4, 2), (4, 4, 4, 2), (4, 4, 4, 4, 2),
                    (8, 8, 4, 2), (8, 8, 4, 4, 4), (16, 16, 8, 4, 2)]


@pytest.mark.parametrize("layout", REGISTRY_LAYOUTS,
                         ids=[",".join(map(str, layout)) for layout in REGISTRY_LAYOUTS])
def test_registry_trees_take_plus_minus_bound_for_random_signs(layout):
    """Every strategy gives +-bound: all of them up to 2^16 strategies, else a sample."""
    rng = np.random.default_rng(sum(layout))
    arities, build = ms.layout_tree(layout)
    for _ in range(4):
        ineq = bk.build_recursive(build([random_sign(rng, a) for a in arities]))
        assert ineq.layout.settings_per_party == layout
        if ineq.layout.strategy_count() <= 1 << 16:
            values = all_strategy_values(ineq)
        else:
            values = sampled_strategy_values(ineq, rng)
        assert set(values.tolist()) <= {-ineq.bound, ineq.bound}


def half_8842(top, left, right, half):
    """Three-party block on settings 4h+1..4h+4 of parties 1, 2 and 2h+1,
    2h+2 of party 3, written out."""
    a, b = 4 * half, 2 * half
    return bk.Node(top, (bk.Leaf((1, 2), ((a + 1, a + 2), (a + 1, a + 2)), left),
                         bk.Leaf((1, 2), ((a + 3, a + 4), (a + 3, a + 4)), right)),
                   (bk.Observable(3, b + 1), bk.Observable(3, b + 2)))


def written_out_8842(signs):
    return bk.Node(signs[0], (half_8842(*signs[1:4], 0), half_8842(*signs[4:7], 1)),
                   (bk.Observable(4, 1), bk.Observable(4, 2)))


def written_out_88444(signs):
    return bk.Node(signs[0], (half_8842(*signs[1:4], 0), half_8842(*signs[4:7], 1)),
                   (bk.Leaf((4, 5), ((1, 2), (1, 2)), signs[7]),
                    bk.Leaf((4, 5), ((3, 4), (3, 4)), signs[8])))


@pytest.mark.parametrize("layout, written_out", [((8, 8, 4, 2), written_out_8842),
                                                 ((8, 8, 4, 4, 4), written_out_88444)],
                         ids=["8,8,4,2", "8,8,4,4,4"])
def test_registry_builds_the_written_out_trees(layout, written_out):
    """The recursive builder gives, slot for slot, the trees written out by hand."""
    rng = np.random.default_rng(len(layout))
    arities, build = ms.layout_tree(layout)
    for _ in range(50):
        signs = [random_sign(rng, a) for a in arities]
        assert build(signs) == written_out(signs)


def test_six_party_c_n_shape_fills_the_coefficient_cap():
    arities, build = ms.layout_tree((32, 32, 16, 8, 4, 2))
    assert arities == (2,) * 31
    ineq = bk.build_recursive(build([CHSH] * 31))
    assert ineq.coefficients.size == limits.MAX_COUNT
    assert ineq.bound == 1024
    assert np.count_nonzero(ineq.coefficients) == 1024


def test_leaf_party_order_permutes_the_sign_arguments():
    """Leaf(parties, pairs, S) in any party order is the sorted leaf of S with
    its arguments permuted to match."""
    rng = np.random.default_rng(29)
    for _ in range(10):
        order = rng.permutation(3)
        pairs = [(1, 2), (3, 2), (2, 4)]
        sign = random_sign(rng, 3)
        shuffled = bk.Leaf(tuple(int(j) + 1 for j in order),
                           tuple(pairs[j] for j in order), sign)
        grid = sign.values_grid().transpose(np.argsort(order))
        sorted_sign = bk.SignFunction(3, tuple((grid.ravel() < 0).astype(int)))
        want = bk.build_recursive(bk.Leaf((1, 2, 3), tuple(pairs), sorted_sign))
        assert np.array_equal(bk.build_recursive(shuffled).coefficients, want.coefficients)


def degenerate_block(parties: tuple[int, ...], setting: int) -> bk.ConstructionTree:
    """A block that uses only ``setting`` (1 or 2) of each party.

    Constant sign functions keep one term of every leaf and node, so the
    block is 2^|P| 4^(|P|-1) times one product of observables.
    """
    if len(parties) == 1:
        return bk.Leaf(parties, ((setting, 3 - setting),), bk.SignFunction(1, (0, 0)))
    half = len(parties) // 2
    first, second = parties[:half], parties[half:]
    return bk.Node(bk.SignFunction(2, (0, 0, 0, 0)),
                   (degenerate_block(first, setting), degenerate_block(first, 3 - setting)),
                   (degenerate_block(second, setting), degenerate_block(second, 3 - setting)))


def test_build_refuses_magnitudes_past_int64():
    ineq = bk.build_recursive(degenerate_block((1, 2, 3, 4, 5), 1))
    assert ineq.bound == 2**5 * 4**4
    assert np.count_nonzero(ineq.coefficients) == 1
    assert ineq.coefficients[(0,) * 5] == ineq.bound
    # at 22 parties the magnitude is 2^22 4^21 = 2^64: int64 coefficients would wrap
    with pytest.raises(bk.ResourceLimitError, match="magnitude"):
        bk.build_recursive(degenerate_block(tuple(range(1, 23)), 1))


def test_chain_four_party_identity():
    arity3 = bk.SignFunction.from_bitstring("00010111")
    ineq = bk.build_recursive(bk.tree_chain(4, CHSH, arity3, arity3))
    assert ineq.layout.settings_per_party == (4, 4, 4, 2)
    assert ineq.bound == 32
    assert set(all_strategy_values(ineq).tolist()) <= {-32, 32}


# ---------------------------------------------------------------------------
# tightness


def test_tightness_442_numbers():
    report = bk.check_tightness(bk.build_recursive(bk.tree_chain(3, CHSH, CHSH, CHSH)))
    assert report.vertex_count == 256
    assert report.saturating_count == 128
    assert report.affine_rank == 32
    assert report.dimension == 32
    assert report.is_tight
    assert not report.exact_fallback


def test_tightness_chsh():
    report = bk.check_tightness(bk.sign_inequality(CHSH))
    assert report.is_tight
    assert report.affine_rank == 4
    assert report.saturating_count == 4


def test_tightness_trivial_inequality():
    # the constant sign function gives 4|E(1,1)| <= 4; enumeration shows its
    # saturating vertices still span the full 4-dim correlation space, so the
    # inequality is a facet like every other family member
    const = bk.SignFunction(2, (0, 0, 0, 0))
    report = bk.check_tightness(bk.sign_inequality(const))
    assert report.saturating_count == 4
    assert report.affine_rank == 4
    assert report.is_tight


def test_tightness_chain_four_party():
    ineq = bk.build_recursive(bk.tree_chain(4, CHSH,
                                            bk.SignFunction.from_bitstring("00010111"),
                                            bk.SignFunction.from_bitstring("00010111")))
    report = bk.check_tightness(ineq)
    assert report.dimension == 128
    assert report.is_tight


def test_tightness_resource_cap():
    ineq = bk.build_recursive(bk.tree_8842([CHSH] * 7))
    with pytest.raises(bk.ResourceLimitError):
        bk.check_tightness(ineq)


def test_tightness_non_facet_takes_exact_fallback():
    # E(1,1) + E(1,2) <= 2 is valid but saturated only by the two vertices
    # with b1 = b2 = a1, which span 2 of the 4 dimensions
    layout = bk.ExperimentLayout((2, 2))
    ineq = bk.BellInequality(layout, np.array([[1, 1], [0, 0]]), 2)
    report = bk.check_tightness(ineq)
    assert report.saturating_count == 2
    assert report.affine_rank == 2
    assert report.dimension == 4
    assert not report.is_tight
    assert report.exact_fallback


CHECK_TIGHT_LAYOUTS = [(2,) * n for n in range(1, 11)] + [(4,) * (n - 1) + (2,) for n in (3, 4, 5)]


@pytest.mark.parametrize("layout", CHECK_TIGHT_LAYOUTS, ids=lambda t: ",".join(map(str, t)))
def test_default_members_are_certified_without_the_exact_fallback(layout):
    # stdout leaves exact_fallback out, so a slide back to the integer path
    # would show only here
    assert bk.ExperimentLayout(layout).strategy_count() <= limits.MAX_COUNT
    report = bk.check_tightness(cli._generate_inequality(layout, None))
    assert report.is_tight
    assert report.exact_fallback is False


def test_check_tightness_refuses_vertex_values_past_int64():
    layout = bk.ExperimentLayout((2, 2))
    chsh = np.array([[1, 1], [1, -1]], dtype=np.int64)
    report = bk.check_tightness(bk.BellInequality(layout, chsh << 60, 1 << 61))
    assert (report.is_tight, report.saturating_count) == (True, 4)
    # a facet whose vertex values reach 2^63, and an invalid bound whose
    # violating values would wrap to small ones
    for coeff, bound in [(chsh << 62, 1 << 63), (np.ones((2, 2), dtype=np.int64) * (3 << 61), 1)]:
        with pytest.raises(bk.ResourceLimitError, match="past exact int64"):
            bk.check_tightness(bk.BellInequality(layout, coeff, bound))


def gram_of(matrix: np.ndarray) -> np.ndarray:
    """M^T M in float64, exact while its diagonal is below 2^53, past which
    _certified_nonsingular refuses it: summed in float64 when every partial
    sum is an integer below 2^53, else in Python integers."""
    largest = int(np.max(np.abs(matrix), initial=0))
    if len(matrix) * largest**2 < 1 << 53:
        block = matrix.astype(np.float64)
        return block.T @ block
    exact = matrix.astype(object)
    return (exact.T @ exact).astype(np.float64)


def column_rank(matrix: np.ndarray) -> tuple[int, bool]:
    """check_tightness's rank decision on explicit rows: full rank when there
    are at least as many rows as columns and the Gram matrix is dominant,
    else the integer elimination; and whether that elimination ran."""
    rows, dim = matrix.shape
    if rows >= dim and ms._certified_nonsingular(gram_of(matrix)):
        return dim, False
    return ms._integer_rank(matrix), True


def test_certificate_needs_as_many_rows_as_columns():
    wide = np.eye(3, 4, dtype=np.int64)
    assert column_rank(wide) == (3, True)


@pytest.mark.parametrize("matrix", [
    np.diag([1] * 7 + [2**25]).astype(np.int64),
    np.eye(2, dtype=np.int64) << 40,
], ids=["diag-2^25", "eye-2^40"])
def test_large_entries_take_the_exact_path(matrix):
    # dim * max G_kk reaches 2^53, so the row sums of |G| could round
    assert not ms._certified_nonsingular(gram_of(matrix))
    assert column_rank(matrix) == (matrix.shape[1], True)


def pascal(n: int) -> np.ndarray:
    """The symmetric Pascal matrix: determinant 1, condition growing like 16^n."""
    return np.array([[math.comb(i + j, i) for j in range(n)] for i in range(n)], dtype=np.int64)


@pytest.mark.parametrize("matrix", [
    np.diag([1] * 7 + [2**23]).astype(np.int64),
], ids=["diag-2^23"])
def test_full_rank_with_unequal_column_norms_is_certified(matrix):
    # a diagonal Gram matrix is dominant however widely its entries differ,
    # here by a factor of 2^46, while dim * max G_kk stays below 2^53
    assert column_rank(matrix) == (matrix.shape[1], False)


@pytest.mark.parametrize("matrix", [
    pascal(7),
    np.array([[2**14, 2**14 + 1], [2**14 - 1, 2**14]], dtype=np.int64),
], ids=["pascal-7", "unimodular-2^14"])
def test_ill_conditioned_full_rank_falls_back_to_its_exact_rank(matrix):
    assert round(np.linalg.det(matrix.astype(np.float64))) == 1
    assert not ms._certified_nonsingular(gram_of(matrix))
    assert column_rank(matrix) == (matrix.shape[1], True)


def test_certificate_never_holds_for_a_rank_deficient_matrix():
    rng = np.random.default_rng(29)
    for _ in range(400):
        dim = int(rng.integers(2, 40))
        rank = int(rng.choice([dim - 1, int(rng.integers(1, dim))]))
        rows = int(rng.integers(dim, 4 * dim + 5))
        spread = int(rng.choice([1, 3, 100, 10_000]))
        # a product through rank < dim columns: rank-deficient by construction
        matrix = (rng.integers(-spread, spread + 1, size=(rows, rank))
                  @ rng.integers(-3, 4, size=(rank, dim)))
        assert not ms._certified_nonsingular(gram_of(matrix))


def random_sign(rng, arity):
    return bk.SignFunction(arity, tuple(rng.integers(0, 2, size=2**arity)))


def vertex_matrix_report(ineq: bk.BellInequality) -> ms.TightnessReport:
    """check_tightness from the vertex matrix: its saturating rows and their
    column_rank, with the same bound check."""
    _, vertices = bk.enumerate_vertices(ineq.layout)
    values = vertices @ ineq.coefficients.ravel()
    if np.max(np.abs(values)) > ineq.bound:
        raise ValueError("bound is not valid on the vertex set")
    saturating = vertices[values == ineq.bound]
    rank, exact_fallback = column_rank(saturating)
    return ms.TightnessReport(rank == vertices.shape[1], vertices.shape[0], saturating.shape[0],
                              rank, vertices.shape[1], exact_fallback)


def assert_same_report(ineq: bk.BellInequality) -> ms.TightnessReport | None:
    try:
        want = vertex_matrix_report(ineq)
    except ValueError as error:
        with pytest.raises(ValueError, match=str(error)):
            bk.check_tightness(ineq)
        return None
    assert bk.check_tightness(ineq) == want
    return want


@pytest.mark.parametrize("layout, draws", [((4, 4, 2), 12), ((4, 4, 4, 2), 3)])
def test_rank_paths_agree_on_random_chain_members(layout, draws):
    rng = np.random.default_rng(17)
    arities, build = ms.layout_tree(layout)
    _, vertices = bk.enumerate_vertices(bk.ExperimentLayout(layout))
    for _ in range(draws):
        ineq = bk.build_recursive(build([random_sign(rng, a) for a in arities]))
        saturating = vertices[vertices @ ineq.coefficients.ravel() == ineq.bound]
        dim = vertices.shape[1]
        rank, fallback = column_rank(saturating)
        assert rank == ms._integer_rank(saturating)
        assert fallback == (rank < dim)
        assert bk.check_tightness(ineq) == vertex_matrix_report(ineq)


def test_rank_paths_agree_on_planted_deficiency():
    rng = np.random.default_rng(23)
    for _ in range(40):
        dim = int(rng.integers(1, 24))
        rows = int(rng.integers(1, 3 * dim + 5))
        rank = int(rng.integers(1, dim + 1))
        matrix = rng.integers(-3, 4, size=(rows, rank)) @ rng.integers(-3, 4, size=(rank, dim))
        expected = ms._integer_rank(matrix)
        rank, fallback = column_rank(matrix)
        # dominance may leave a full-rank matrix to the elimination, but it
        # never certifies a deficient one
        assert rank == expected
        assert fallback or expected == dim


def test_tightness_rejects_float_coefficients():
    layout = bk.ExperimentLayout((2, 2))
    ineq = bk.BellInequality(layout, np.array([[0.5, 0.5], [0.5, -0.5]]), 1.0)
    with pytest.raises(ValueError):
        bk.check_tightness(ineq)


RANDOM_INEQUALITY_LAYOUTS = [(2, 2), (2, 2, 2), (3, 3), (3, 3, 3), (2, 3, 4)]


@pytest.mark.parametrize("layout", RANDOM_INEQUALITY_LAYOUTS,
                         ids=lambda t: ",".join(map(str, t)))
def test_contracted_tightness_matches_the_vertex_matrix_on_random_inequalities(layout):
    # bounds at the vertex maximum (facets and non-facets), above it (nothing
    # saturates) and below it (invalid)
    rng = np.random.default_rng(sum(layout) + len(layout))
    layout = bk.ExperimentLayout(layout)
    _, vertices = bk.enumerate_vertices(layout)
    seen = {"facet": 0, "fallback": 0, "invalid": 0}
    for draw in range(60):
        spread = int(rng.choice([1, 2, 10]))
        coeff = rng.integers(-spread, spread + 1, size=layout.shape)
        coeff.flat[rng.integers(coeff.size)] = spread  # not all zero
        top = int(np.max(np.abs(vertices @ coeff.ravel())))
        bound = max(1, top + int(rng.choice([0, 0, 1, -1])))
        report = assert_same_report(bk.BellInequality(layout, coeff, bound))
        if report is None:
            seen["invalid"] += 1
        else:
            seen["fallback" if report.exact_fallback else "facet"] += 1
    assert seen["fallback"] and seen["invalid"]


@pytest.mark.parametrize("layout", [(2, 2), (3, 3, 3), (2, 3, 4), (4, 4, 2), (4, 4, 4, 2),
                                    (2,) * 6], ids=lambda t: ",".join(map(str, t)))
def test_contracted_gram_equals_that_of_the_saturating_rows(layout):
    rng = np.random.default_rng(len(layout))
    layout = bk.ExperimentLayout(layout)
    _, factors = ms._vertex_factors(layout)
    _, vertices = bk.enumerate_vertices(layout)
    for density in (0.0, 0.1, 0.5, 1.0):
        mask = rng.random(vertices.shape[0]) < density
        gram = ms._saturating_gram(mask.reshape([len(o) for o in factors]), factors)
        rows = vertices[mask]
        assert gram.dtype == np.float64
        assert np.array_equal(gram, rows.T @ rows)


#: the registry layouts whose vertices _vertex_factors enumerates, and 2^10,
#: whose Gram index alone fills limits.MAX_COUNT and so is never kept
GRAM_LAYOUTS = [(2, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4, 2), (4, 4, 4, 2), (4, 4, 4, 4, 2),
                (2,) * 10]


def test_tightness_reports_are_alike_with_a_cold_and_a_warm_cache():
    """check_tightness with the layout cache cleared before each call, then
    again in the same order with the cache kept: equal reports.  Each layout
    gets its default member, a facet that the Gram matrix settles, and up to
    4,4,4,2 members of random signs."""
    rng = np.random.default_rng(61)
    ineqs, defaults = [], []
    for layout in GRAM_LAYOUTS:
        defaults.append(len(ineqs))
        ineqs.append(cli._generate_inequality(layout, None))
        if math.prod(layout) <= 128:
            arities, build = ms.layout_tree(layout)
            ineqs += [bk.build_recursive(build([random_sign(rng, a) for a in arities]))
                      for _ in range(3)]
    cold = []
    for ineq in ineqs:
        _cache._LAYOUT_CACHE.clear()
        cold.append(bk.check_tightness(ineq))
    assert [bk.check_tightness(ineq) for ineq in ineqs] == cold
    assert all(cold[i].is_tight and not cold[i].exact_fallback for i in defaults)
    kept = {settings for kind, settings in _cache._LAYOUT_CACHE if kind == "gram"}
    assert kept == set(GRAM_LAYOUTS[:-1])


def test_default_4_4_4_4_2_check_needs_no_vertex_matrix():
    # the 16384 x 512 int64 vertex matrix alone is 64 MiB
    ineq = cli._generate_inequality((4, 4, 4, 4, 2), None)
    tracemalloc.start()
    try:
        report = bk.check_tightness(ineq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.is_tight, report.exact_fallback) == (True, False)
    assert peak < 16 * 2**20


def test_default_4_4_4_4_2_fallback_needs_no_vertex_matrix():
    # bound + 1: nothing saturates, so the exact path runs on no rows at all
    facet = cli._generate_inequality((4, 4, 4, 4, 2), None)
    ineq = bk.BellInequality(facet.layout, facet.coefficients, facet.bound + 1)
    tracemalloc.start()
    try:
        report = bk.check_tightness(ineq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fields = (report.is_tight, report.saturating_count, report.affine_rank, report.exact_fallback)
    assert fields == (False, 0, 0, True)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("layout", [(2, 2, 2), (3, 3, 3), (2, 3, 4)],
                         ids=lambda t: ",".join(map(str, t)))
def test_saturating_rows_from_the_factors_equal_the_vertex_rows(layout):
    rng = np.random.default_rng(sum(layout))
    layout = bk.ExperimentLayout(layout)
    _, factors = ms._vertex_factors(layout)
    _, vertices = bk.enumerate_vertices(layout)
    for density in (0.0, 0.1, 0.5, 1.0):
        mask = rng.random(vertices.shape[0]) < density
        picked = np.nonzero(mask.reshape([len(o) for o in factors]))
        rows = lhv._vertex_rows([o[index] for o, index in zip(factors, picked)])
        assert rows.dtype == vertices.dtype
        assert np.array_equal(rows, vertices[mask])


@pytest.mark.parametrize("layout", [(2,) * n for n in range(2, 7)] + [(4, 4, 2), (4, 4, 4, 2)],
                         ids=lambda t: ",".join(map(str, t)))
def test_generated_facets_are_certified_without_an_inverse(layout):
    rng = np.random.default_rng(len(layout) + sum(layout))
    arities, build = ms.layout_tree(layout)
    for _ in range(6):
        tree = build([random_sign(rng, a) for a in arities])
        report = bk.check_tightness(bk.build_recursive(tree))
        assert (report.is_tight, report.exact_fallback) == (True, False)


def integer_certificate(certificate: bk.BellInequality) -> bk.BellInequality:
    """An LP certificate rounded to small integers: each coefficient to the
    nearest fraction with denominator at most 12, all scaled by their common
    denominator, with the bound recomputed exactly over the vertices."""
    fractions = [Fraction(c).limit_denominator(12)
                 for c in certificate.coefficients.ravel().tolist()]
    scale = math.lcm(*(f.denominator for f in fractions))
    coeff = np.array([int(f * scale) for f in fractions]).reshape(certificate.layout.shape)
    _, vertices = bk.enumerate_vertices(certificate.layout)
    return bk.BellInequality(certificate.layout, coeff, int(np.max(vertices @ coeff.ravel())))


@pytest.mark.parametrize("layout", [(3, 3), (3, 4), (2, 2, 3)], ids=lambda t: ",".join(map(str, t)))
def test_facets_from_lp_certificates_are_certified_by_dominance(layout):
    # facets that build_recursive does not make: separating hyperplanes of
    # random tables outside the polytope, rounded to integer inequalities
    rng = np.random.default_rng(sum(layout))
    layout = bk.ExperimentLayout(layout)
    facets = 0
    for _ in range(40):
        table = bk.CorrelationTable(layout, rng.uniform(-1, 1, layout.shape))
        result = bk.polytope_membership(table)
        if result.inside:
            continue
        report = bk.check_tightness(integer_certificate(result.certificate))
        if report.is_tight:
            facets += 1
            assert report.exact_fallback is False
    assert facets >= 5


def test_weakly_dominant_singular_gram_is_refused():
    # rows [[1, 1]]: G = [[1, 1], [1, 1]] has 2 G_kk equal to its row sums
    gram = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert not ms._certified_nonsingular(gram)
    assert column_rank(np.array([[1, 1], [2, 2], [-1, -1]])) == (1, True)


def test_dominance_stage_needs_exact_row_sums():
    # dim * max G_kk must stay below 2^53 for the row sums of |G| to be exact
    assert ms._certified_nonsingular(np.diag([1.0, 2.0**52 - 1]))
    assert ms._certified_nonsingular(np.diag([1.0] * 3 + [2.0**51 - 1]))
    assert not ms._certified_nonsingular(np.diag([1.0, 2.0**52]))
    assert not ms._certified_nonsingular(np.diag([1.0] * 3 + [2.0**51]))


# ---------------------------------------------------------------------------
# family closure


def flip_slice(ineq: bk.BellInequality, party: int, setting: int) -> np.ndarray:
    coeff = ineq.coefficients.copy()
    index = [slice(None)] * coeff.ndim
    index[party - 1] = setting - 1
    coeff[tuple(index)] = -coeff[tuple(index)]
    return coeff


def test_sign_flip_closure():
    """Negating one observable's outcomes lands on another family member."""
    signs = list(bk.enumerate_sign_functions(2))
    family = {}
    for triple in itertools.product(range(16), repeat=3):
        member = bk.build_recursive(bk.tree_chain(3, *(signs[t] for t in triple)))
        family[member.coefficients.tobytes()] = triple

    base = bk.build_recursive(bk.tree_chain(3, CHSH, CHSH, CHSH))
    for party, setting in ((1, 1), (2, 3), (3, 1), (3, 2)):
        flipped = flip_slice(base, party, setting)
        assert flipped.tobytes() in family

    rng = np.random.default_rng(8)
    for _ in range(5):
        member = bk.build_recursive(
            bk.tree_chain(3, *(signs[rng.integers(16)] for _ in range(3))))
        party = int(rng.integers(1, 4))
        setting = int(rng.integers(1, 5 if party < 3 else 3))
        flipped = flip_slice(member, party, setting)
        assert flipped.tobytes() in family


# ---------------------------------------------------------------------------
# construction validation


def test_tree_validation_errors():
    with pytest.raises(ValueError):
        bk.Leaf((1, 2), ((1, 2), (1, 2)), bk.SignFunction.from_bitstring("00010111"))
    with pytest.raises(ValueError):
        # overlapping settings within one party's pair
        bk.Leaf((1,), ((1, 1),), bk.SignFunction.from_bitstring("01"))
    with pytest.raises(ValueError):
        bk.tree_8842([CHSH] * 6)
    with pytest.raises(ValueError):
        bk.tree_88444([CHSH] * 7)
    with pytest.raises(ValueError):
        bk.tree_chain(2, CHSH, CHSH, CHSH)
    # pairing blocks on different party sets must fail
    left = bk.Leaf((1, 2), ((1, 2), (1, 2)), CHSH)
    wrong = bk.Leaf((1, 3), ((3, 4), (1, 2)), CHSH)
    with pytest.raises(ValueError):
        bk.build_recursive(bk.Node(CHSH, (left, wrong), (bk.Observable(4, 1), bk.Observable(4, 2))))
    # a node pair of one or three blocks, or a bare block, is refused when made
    for pair in [(OBS(1, 1),), (OBS(1, 1), OBS(1, 2), OBS(1, 3)), OBS(1, 1)]:
        with pytest.raises(ValueError, match="first pair must hold two blocks"):
            bk.build_recursive(bk.Node(CHSH, pair, (OBS(2, 1), OBS(2, 2))))
        with pytest.raises(ValueError, match="second pair must hold two blocks"):
            bk.Node(CHSH, (OBS(2, 1), OBS(2, 2)), pair)


def test_build_requires_contiguous_parties():
    # parties must be exactly 1..N
    leaf = bk.Leaf((2, 3), ((1, 2), (1, 2)), CHSH)
    node = bk.Node(CHSH, (leaf, bk.Leaf((2, 3), ((3, 4), (3, 4)), CHSH)),
                   (bk.Observable(4, 1), bk.Observable(4, 2)))
    with pytest.raises(ValueError):
        bk.build_recursive(node)


OBS = bk.Observable
HALF = bk.SignFunction.from_bitstring("01")


@pytest.mark.parametrize("build, error, match", [
    (lambda: bk.Leaf((1, 1), ((1, 2), (3, 4)), CHSH), ValueError, "leaf parties must be distinct"),
    (lambda: bk.Node(CHSH, (bk.Leaf((1,), ((1, 2),), HALF), OBS(1, 3)), (OBS(2, 1), OBS(2, 2))),
     ValueError, "equal magnitudes"),
    (lambda: bk.Node(CHSH, (OBS(1, 1), OBS(1, 1)), (OBS(2, 1), OBS(2, 2))),
     ValueError, "reuse settings"),
    (lambda: bk.Node(CHSH, (OBS(1, 1), OBS(1, 2)), (OBS(1, 3), OBS(1, 4))),
     ValueError, "disjoint party sets"),
    (lambda: bk.Node(CHSH, ("A1", OBS(1, 2)), (OBS(2, 1), OBS(2, 2))),
     TypeError, "not a construction tree"),
], ids=["leaf-repeats-party", "unequal-magnitudes", "reused-setting", "pairs-share-party",
        "not-a-tree"])
def test_build_rejects_malformed_trees(build, error, match):
    """build makes the tree: a Leaf refuses a repeated party when it is made,
    the other faults show only when the tree is expanded."""
    with pytest.raises(error, match=match):
        bk.build_recursive(build())


# ---------------------------------------------------------------------------
# expansion plans


def declared_layout(tree) -> tuple[int, ...]:
    """The highest setting each party's observables use, for parties 1..N."""
    top: dict[int, int] = {}
    stack = [tree]
    while stack:
        block = stack.pop()
        if isinstance(block, bk.Observable):
            top[block.party] = max(top.get(block.party, 0), block.setting)
        elif isinstance(block, bk.Leaf):
            for party, pair in zip(block.parties, block.setting_pairs):
                top[party] = max(top.get(party, 0), *pair)
        else:
            stack += [*block.first, *block.second]
    return tuple(top[p] for p in range(1, len(top) + 1))


def oracle_table(tree, layout) -> tuple[tuple[int, ...], dict]:
    """A block's parties in order and its entries, {their 0-based settings: the
    coefficient}, over every setting of those parties, in Python integers from
    the module docstring's definitions: an Observable is one-hot, a Leaf is
    sum_t S(t) prod_i [A(p_i) + t_i A(q_i)], a Node is
    sum_{s1,s2} S(s1,s2) (X1 + s1 X2)(Y1 + s2 Y2).  S is read from its values,
    never from its Walsh coefficients."""
    if isinstance(tree, bk.Observable):
        return (tree.party,), {(k,): int(k == tree.setting - 1)
                               for k in range(layout[tree.party - 1])}
    signs = itertools.product((1, -1), repeat=tree.sign.arity)
    value = {s: tree.sign(s) for s in signs}
    if isinstance(tree, bk.Leaf):
        parties = tuple(sorted(tree.parties))
        pairs = dict(zip(tree.parties, tree.setting_pairs))
        table = {}
        for k in itertools.product(*(range(layout[p - 1]) for p in parties)):
            setting = dict(zip(parties, k))
            table[k] = sum(value[t] * math.prod((setting[p] == pairs[p][0] - 1)
                                                + t_p * (setting[p] == pairs[p][1] - 1)
                                                for p, t_p in zip(tree.parties, t))
                           for t in value)
        return parties, table
    (px, x1), (_, x2) = (oracle_table(block, layout) for block in tree.first)
    (py, y1), (_, y2) = (oracle_table(block, layout) for block in tree.second)
    parties = tuple(sorted(px + py))
    order = [(px + py).index(p) for p in parties]
    table = {}
    for kx, ky in itertools.product(x1, y1):
        k = kx + ky
        table[tuple(k[i] for i in order)] = sum(
            value[s1, s2] * (x1[kx] + s1 * x2[kx]) * (y1[ky] + s2 * y2[ky])
            for s1, s2 in value)
    return parties, table


def oracle(tree) -> np.ndarray:
    layout = declared_layout(tree)
    coeff = np.zeros(layout, dtype=np.int64)
    for k, v in oracle_table(tree, layout)[1].items():
        coeff[k] = v
    return coeff


def assert_cold_and_warm_match_the_oracle(tree) -> None:
    """build_recursive on an empty layout cache, then again on the plan it kept."""
    want = oracle(tree)
    _cache._LAYOUT_CACHE.clear()
    for _ in range(2):
        ineq = bk.build_recursive(tree)
        assert ineq.coefficients.dtype == np.int64
        assert np.array_equal(ineq.coefficients, want)
    assert ("plan", ms._structure(tree, [])) in _cache._LAYOUT_CACHE


ORACLE_LAYOUTS = [layout for layout in REGISTRY_LAYOUTS if math.prod(layout) <= 4096]


@pytest.mark.parametrize("layout", ORACLE_LAYOUTS, ids=lambda t: ",".join(map(str, t)))
def test_plans_match_the_oracle_on_random_signs(layout):
    rng = np.random.default_rng(41 + sum(layout))
    arities, build = ms.layout_tree(layout)
    for _ in range(50):
        assert_cold_and_warm_match_the_oracle(build([random_sign(rng, a) for a in arities]))


def test_plans_sum_the_overlapping_pairs_of_degenerate_blocks():
    """Pairs that declare the same settings, (1, 2) and (2, 1), may share
    positions; those entries are sums.  With random signs, whether their
    blocks reuse a setting is decided by the values."""
    for n in range(1, 6):
        for setting in (1, 2):
            assert_cold_and_warm_match_the_oracle(degenerate_block(tuple(range(1, n + 1)), setting))
    rng = np.random.default_rng(43)

    def randomized(parties, setting):
        if len(parties) == 1:
            return bk.Leaf(parties, ((setting, 3 - setting),), random_sign(rng, 1))
        half = len(parties) // 2
        first, second = parties[:half], parties[half:]
        return bk.Node(random_sign(rng, 2),
                       (randomized(first, setting), randomized(first, 3 - setting)),
                       (randomized(second, setting), randomized(second, 3 - setting)))

    outcomes = {"built": 0, "refused": 0}
    for _ in range(60):
        tree = randomized(tuple(range(1, int(rng.integers(2, 4)) + 1)), int(rng.integers(1, 3)))
        try:
            assert_cold_and_warm_match_the_oracle(tree)
            outcomes["built"] += 1
        except ValueError as error:
            assert "reuse settings" in str(error)
            outcomes["refused"] += 1
    assert outcomes["built"] and outcomes["refused"]


def test_plans_match_the_oracle_in_every_leaf_party_order():
    rng = np.random.default_rng(47)
    pairs = [(1, 2), (3, 2), (2, 4)]
    for order in itertools.permutations(range(3)):
        leaf = bk.Leaf(tuple(j + 1 for j in order), tuple(pairs[j] for j in order),
                       random_sign(rng, 3))
        assert_cold_and_warm_match_the_oracle(leaf)
        assert_cold_and_warm_match_the_oracle(
            bk.Node(random_sign(rng, 2), (leaf, bk.Leaf((2, 3, 1), ((5, 6), (5, 6), (5, 6)),
                                                        random_sign(rng, 3))),
                    (OBS(4, 1), OBS(4, 2))))


def test_trees_that_differ_in_one_setting_pair_keep_their_own_plans():
    def tree(second_pairs):
        return bk.Node(CHSH, (bk.Leaf((1, 2), ((1, 2), (1, 2)), HALF2),
                              bk.Leaf((1, 2), second_pairs, CHSH)), (OBS(3, 1), OBS(3, 2)))

    a, b = tree(((3, 4), (3, 4))), tree(((3, 4), (4, 3)))
    want = {id(a): oracle(a), id(b): oracle(b)}
    assert not np.array_equal(*want.values())
    _cache._LAYOUT_CACHE.clear()
    for t in (a, b, a, b):
        assert np.array_equal(bk.build_recursive(t).coefficients, want[id(t)])
    keys = [("plan", ms._structure(t, [])) for t in (a, b)]
    assert keys[0] != keys[1] and hash(keys[0]) != hash(keys[1])
    plans = [_cache._cached(key) for key in keys]
    assert None not in plans and not np.array_equal(plans[0].positions, plans[1].positions)


HALF2 = bk.SignFunction.from_bitstring("0110")


def test_an_inner_fault_of_the_values_comes_before_an_outer_fault_of_the_structure():
    """The faults are reported in the order the tree reads, block before node."""
    const = bk.SignFunction(1, (0, 0))  # its leaf on the pair (p, q) uses setting p alone
    reused = bk.Node(CHSH, (OBS(1, 1), OBS(1, 1)), (OBS(2, 1), OBS(2, 2)))
    fine = bk.Node(CHSH, (bk.Leaf((1,), ((1, 2),), const), bk.Leaf((1,), ((2, 1),), const)),
                   (OBS(2, 1), OBS(2, 2)))
    cases = [(reused, bk.Leaf((1, 2), ((3, 4), (3, 4)), CHSH), "reuse settings"),
             (fine, bk.Node(CHSH, (bk.Leaf((1,), ((3, 4),), const),
                                   bk.Leaf((1,), ((5, 6),), const)), (OBS(2, 3), OBS(2, 4))),
              "disjoint party sets")]
    for first, second, match in cases:
        with pytest.raises(ValueError, match=match):
            bk.build_recursive(bk.Node(CHSH, (first, second), (OBS(1, 7), OBS(1, 8))))


def test_a_plan_past_the_cache_budget_is_built_per_call(monkeypatch):
    """A plan whose arrays alone pass the cache's budget is made on every
    call and never kept, with the coefficients of a kept plan."""
    tree = bk.tree_88444([random_sign(np.random.default_rng(53), 2) for _ in range(9)])
    _cache._LAYOUT_CACHE.clear()
    want = bk.build_recursive(tree).coefficients.tobytes()
    plan = _cache._cached(("plan", ms._structure(tree, [])))
    monkeypatch.setattr(limits, "MAX_COUNT", sum(a.size for a in plan.arrays()) - 1)
    _cache._LAYOUT_CACHE.clear()
    plans, make = [], ms._plan
    monkeypatch.setattr(ms, "_plan", lambda *args: plans.append(1) or make(*args))
    for _ in range(2):
        assert bk.build_recursive(tree).coefficients.tobytes() == want
    assert len(plans) == 2
    assert _cache._LAYOUT_CACHE == {}


def test_cached_plan_arrays_are_read_only():
    _cache._LAYOUT_CACHE.clear()
    bk.build_recursive(bk.tree_88444([CHSH] * 9))
    bk.build_recursive(degenerate_block((1, 2, 3), 1))  # its plan sums and checks pairs
    entries = [entry for (kind, _), entry in _cache._LAYOUT_CACHE.items() if kind == "plan"]
    assert len(entries) == 2 and any(plan.steps for plan, _ in entries)
    for plan, arrays in entries:
        assert plan.positions in [a for a in arrays if a is plan.positions]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


FRESH_PROCESS_DIGESTS = """
import contextlib, hashlib, io, json, sys
from bellkit import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_generate_prints_the_same_bytes_warm_as_in_a_fresh_process(capsys):
    rng = np.random.default_rng(59)
    calls = []
    for layout in REGISTRY_LAYOUTS:
        arities, _ = ms.layout_tree(layout)
        bitstrings = ["".join(map(str, rng.integers(0, 2, 2**a))) for a in arities]
        calls.append(["generate", "--layout", ",".join(map(str, layout))]
                     + [arg for text in bitstrings for arg in ("--sign-fn", text)])
    fresh = subprocess.run([sys.executable, "-c", FRESH_PROCESS_DIGESTS, json.dumps(calls)],
                           capture_output=True, text=True, check=True).stdout.split()
    _cache._LAYOUT_CACHE.clear()
    for argv, digest in zip(calls, fresh, strict=True):
        for _ in range(2):  # on an empty cache, then on the kept plan
            assert cli.main(argv) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_exact_ints_skip_json_int(monkeypatch):
    """The rule LhvModel follows: the layout, sign functions and tree blocks of
    a generated member hold exact ints only, so none goes through json_int;
    any other entry does, and with it every entry of its field."""
    seen = []
    for module in (lhv, ms):
        monkeypatch.setattr(module, "json_int",
                            lambda value, what, read=module.json_int: seen.append(value) or
                            read(value, what))
    cli._generate_inequality((8, 8, 4, 4, 4), None)
    assert seen == []
    bk.Leaf((1, 2.0), ((1, 2), (np.int64(1), 2)), bk.SignFunction(2, (0, 0, 0, np.int64(1))))
    assert seen == [0, 0, 0, 1, 1, 2.0, 1, 2]
