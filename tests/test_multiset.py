"""Recursive inequality generation: expansion oracle, identities, tightness."""
import itertools

import numpy as np
import pytest

import bellkit as bk
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
                    (8, 8, 4, 2), (8, 8, 4, 4, 4)]


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


def test_rank_singular_mod_p_falls_back_to_full_rank():
    matrix = np.diag([1] * 7 + [ms._PRIME]).astype(np.int64)
    assert not ms._full_rank_mod_p(matrix)
    assert ms._column_rank(matrix) == (8, True)


def test_modular_elimination_pivots_and_detects_singularity():
    assert ms._nonsingular_mod_p(np.eye(4)[[2, 0, 3, 1]])
    assert not ms._nonsingular_mod_p(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [2.0, 4.0, 5.0]]))


def test_rank_sketch_refuses_sums_past_float64():
    # rows * max|entry| * 2^20 reaches 2^53 at 2 rows of 2^32: exact path only
    assert ms._full_rank_mod_p(np.eye(2, dtype=np.int64) << 31)
    assert not ms._full_rank_mod_p(np.eye(2, dtype=np.int64) << 32)
    assert ms._column_rank(np.eye(2, dtype=np.int64) << 40) == (2, True)


def random_sign(rng, arity):
    return bk.SignFunction(arity, tuple(rng.integers(0, 2, size=2**arity)))


@pytest.mark.parametrize("layout, draws", [((4, 4, 2), 12), ((4, 4, 4, 2), 3)])
def test_rank_paths_agree_on_random_chain_members(layout, draws):
    rng = np.random.default_rng(17)
    arities, build = ms.layout_tree(layout)
    _, vertices = bk.enumerate_vertices(bk.ExperimentLayout(layout))
    for _ in range(draws):
        ineq = bk.build_recursive(build([random_sign(rng, a) for a in arities]))
        saturating = vertices[vertices @ ineq.coefficients.ravel() == ineq.bound]
        dim = vertices.shape[1]
        rank, fallback = ms._column_rank(saturating)
        assert rank == ms._integer_rank(saturating)
        assert fallback == (rank < dim)


def test_rank_paths_agree_on_planted_deficiency():
    rng = np.random.default_rng(23)
    for _ in range(40):
        dim = int(rng.integers(1, 24))
        rows = int(rng.integers(1, 3 * dim + 5))
        rank = int(rng.integers(1, dim + 1))
        matrix = rng.integers(-3, 4, size=(rows, rank)) @ rng.integers(-3, 4, size=(rank, dim))
        expected = ms._integer_rank(matrix)
        assert ms._column_rank(matrix) == (expected, expected < dim)


def test_reduce_mod_p_is_exact_near_its_range():
    p = ms._PRIME
    top = (1 << 51) // p
    ints = [0, 1, -1, p, -p, p - 1, 1 - p, p * p - 1, -(p * p - 1), (1 << 50) - 1,
            1 - (1 << 50), top * p, top * p - 1, -top * p, 1 - top * p]
    got = np.array(ints, dtype=np.float64)
    ms._reduce_mod_p(got, np.empty_like(got))
    assert got.tolist() == [float(v % p) for v in ints]


def test_tightness_rejects_float_coefficients():
    layout = bk.ExperimentLayout((2, 2))
    ineq = bk.BellInequality(layout, np.array([[0.5, 0.5], [0.5, -0.5]]), 1.0)
    with pytest.raises(ValueError):
        bk.check_tightness(ineq)


# ---------------------------------------------------------------------------
# setting reduction and family closure


def test_reduce_settings_identity_map():
    ineq = bk.build_recursive(bk.tree_chain(3, CHSH, CHSH, CHSH))
    mapping = [{1: 1, 2: 2, 3: 3, 4: 4}, {1: 1, 2: 2, 3: 3, 4: 4}, {1: 1, 2: 2}]
    reduced = bk.reduce_settings(ineq, mapping)
    assert np.array_equal(reduced.coefficients, ineq.coefficients)
    assert reduced.bound == ineq.bound


def test_reduce_settings_merge_all():
    ineq = bk.build_recursive(bk.tree_chain(3, CHSH, CHSH, CHSH))
    mapping = [{k: 1 for k in range(1, 5)}, {k: 1 for k in range(1, 5)}, {1: 1, 2: 1}]
    reduced = bk.reduce_settings(ineq, mapping)
    assert reduced.layout.settings_per_party == (1, 1, 1)
    assert reduced.coefficients.reshape(()) == ineq.coefficients.sum()
    assert reduced.bound == ineq.bound


def test_reduce_settings_float_sums_match_a_loop_bit_for_bit():
    """Merged float coefficients are summed in the C order of the old entries."""
    rng = np.random.default_rng(5)
    layout = bk.ExperimentLayout((4, 3, 5))
    for _ in range(10):
        coeff = rng.normal(size=layout.shape) * 10.0 ** rng.integers(-12, 12, size=layout.shape)
        coeff[rng.random(layout.shape) < 0.2] = -0.0
        ineq = bk.BellInequality(layout, coeff, 1.0)
        mapping = []
        for m in layout.shape:
            top = int(rng.integers(1, m + 1))
            targets = np.concatenate([np.arange(1, top + 1), rng.integers(1, top + 1, m - top)])
            mapping.append({k + 1: int(t) for k, t in enumerate(rng.permutation(targets))})
        reduced = bk.reduce_settings(ineq, mapping)
        want = np.zeros(reduced.layout.shape)
        for idx in np.ndindex(*layout.shape):
            want[tuple(mapping[j][k + 1] - 1 for j, k in enumerate(idx))] += coeff[idx]
        assert reduced.coefficients.tobytes() == want.tobytes()


def test_factorable_top_reduces_to_two_setting_member():
    """A factorable top function makes the settings redundant.

    With S(s1, s2) = s1 only the second block survives; merging settings 3,4
    onto 1,2 must reproduce (twice) the two-setting family member whose sign
    function ignores the third party.
    """
    s_factor = bk.SignFunction(2, (0, 0, 1, 1))  # S(s1, s2) = s1
    ineq = bk.build_recursive(bk.tree_chain(3, s_factor, CHSH, CHSH))
    mapping = [{1: 1, 2: 2, 3: 1, 4: 2}, {1: 1, 2: 2, 3: 1, 4: 2}, {1: 1, 2: 2}]
    reduced = bk.reduce_settings(ineq, mapping)
    assert reduced.layout.settings_per_party == (2, 2, 2)

    ignores_third = bk.SignFunction(3, (0, 0, 0, 0, 0, 0, 1, 1))  # CHSH(s1, s2)
    member = bk.sign_inequality(ignores_third)
    assert np.array_equal(reduced.coefficients, 2 * member.coefficients)
    assert reduced.bound == 2 * member.bound


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


def test_build_requires_contiguous_parties():
    # parties must be exactly 1..N
    leaf = bk.Leaf((2, 3), ((1, 2), (1, 2)), CHSH)
    node = bk.Node(CHSH, (leaf, bk.Leaf((2, 3), ((3, 4), (3, 4)), CHSH)),
                   (bk.Observable(4, 1), bk.Observable(4, 2)))
    with pytest.raises(ValueError):
        bk.build_recursive(node)


OBS = bk.Observable
HALF = bk.SignFunction.from_bitstring("01")


@pytest.mark.parametrize("tree, error, match", [
    (bk.Leaf((1, 1), ((1, 2), (3, 4)), CHSH), ValueError, "leaf parties must be distinct"),
    (bk.Node(CHSH, (bk.Leaf((1,), ((1, 2),), HALF), OBS(1, 3)), (OBS(2, 1), OBS(2, 2))),
     ValueError, "equal magnitudes"),
    (bk.Node(CHSH, (OBS(1, 1), OBS(1, 1)), (OBS(2, 1), OBS(2, 2))), ValueError, "reuse settings"),
    (bk.Node(CHSH, (OBS(1, 1), OBS(1, 2)), (OBS(1, 3), OBS(1, 4))),
     ValueError, "disjoint party sets"),
    (bk.Node(CHSH, ("A1", OBS(1, 2)), (OBS(2, 1), OBS(2, 2))), TypeError, "not a construction tree"),
], ids=["leaf-repeats-party", "unequal-magnitudes", "reused-setting", "pairs-share-party",
        "not-a-tree"])
def test_build_rejects_malformed_trees(tree, error, match):
    with pytest.raises(error, match=match):
        bk.build_recursive(tree)
