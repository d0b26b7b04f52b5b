"""Strategies, the 2-setting inequality family, model reconstruction, LP oracle."""
import collections
import functools
import io
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bellkit as bk
from bellkit import lhv
from bellkit.tolerance import BOUND_TOL, EXACT_TOL

SQ2 = np.sqrt(2)


def table_2x2(e11, e12, e21, e22) -> bk.CorrelationTable:
    layout = bk.ExperimentLayout((2, 2))
    return bk.CorrelationTable(layout, np.array([[e11, e12], [e21, e22]]))


def chsh_optimal_table() -> bk.CorrelationTable:
    v = 1 / SQ2
    return table_2x2(v, v, v, -v)


def ghz_mermin_table() -> bk.CorrelationTable:
    """GHZ correlations with setting 1 = y, setting 2 = x for every party.

    E(k) = -1 on yxx-type index patterns (one y), +1 on xxx... here with this
    setting order: E(2,2,2)=T_xxx=1 and E(1,1,2)=E(1,2,1)=E(2,1,1)=-1 from
    T_xyy=T_yxy=T_yyx=-1; single-y and all-y components vanish.
    """
    tensor = bk.ghz_tensor_analytic(bk.GhzFamily(3, np.pi / 4))
    values = tensor.components[np.ix_(*[[2, 1]] * 3)]  # the y and x components
    return bk.CorrelationTable(bk.ExperimentLayout((2, 2, 2)), values)


def sign_value(table: bk.CorrelationTable, sign: bk.SignFunction) -> float:
    """|sum_s S(s) f(s)|: the family member of S evaluated on the table."""
    return abs(bk.evaluate_inequality(bk.sign_inequality(sign), table))


# ---------------------------------------------------------------------------
# sign functions


def test_sign_function_enumeration_counts():
    assert sum(1 for _ in bk.enumerate_sign_functions(1)) == 4
    signs2 = list(bk.enumerate_sign_functions(2))
    assert len(signs2) == 16
    assert len({s.bits for s in signs2}) == 16
    assert sum(1 for _ in bk.enumerate_sign_functions(3)) == 256
    with pytest.raises(bk.ResourceLimitError):
        next(bk.enumerate_sign_functions(5))


def test_chsh_sign_function_walsh():
    walsh = bk.SignFunction.chsh().walsh_coefficients()
    assert walsh.tolist() == [[2, 2], [2, -2]]


def test_sign_function_bit_convention():
    s = bk.SignFunction.from_bitstring("0001")
    assert s((1, 1)) == 1
    assert s((1, -1)) == 1
    assert s((-1, 1)) == 1
    assert s((-1, -1)) == -1


# ---------------------------------------------------------------------------
# the single general condition and family members


def test_general_lhs_examples():
    assert bk.general_bell_lhs(chsh_optimal_table()) == pytest.approx(4 * SQ2, abs=1e-12)
    assert bk.general_bell_lhs(table_2x2(0, 0, 0, 0)) == 0.0
    assert bk.general_bell_lhs(table_2x2(1, 1, 1, 1)) == pytest.approx(4.0, abs=1e-12)


def test_sign_inequality_examples():
    chsh = bk.SignFunction.chsh()
    assert sign_value(chsh_optimal_table(), chsh) == pytest.approx(
        4 * SQ2, abs=1e-12
    )
    # constant S: the value collapses to 2^N |E(1,...,1)|
    const = bk.SignFunction(2, (0, 0, 0, 0))
    assert sign_value(table_2x2(0.25, 0.9, -0.3, 0.1), const) == pytest.approx(
        4 * 0.25, abs=1e-12
    )


def test_mermin_sign_function_on_ghz():
    table = ghz_mermin_table()
    mermin = bk.SignFunction.from_bitstring("00010111")
    assert sign_value(table, mermin) == pytest.approx(16.0, abs=1e-9)
    # the family bound is 2^3 = 8: violation by a factor of 2
    assert bk.general_bell_lhs(table) == pytest.approx(16.0, abs=1e-9)


def test_mermin_inequality_evaluation():
    coeffs = np.zeros((2, 2, 2))
    coeffs[1, 0, 0] = coeffs[0, 1, 0] = coeffs[0, 0, 1] = 1.0
    coeffs[1, 1, 1] = -1.0
    ineq = bk.BellInequality(bk.ExperimentLayout((2, 2, 2)), coeffs, 2.0)
    value = bk.evaluate_inequality(ineq, ghz_mermin_table())
    assert value == pytest.approx(-4.0, abs=1e-9)

    assert bk.evaluate_inequality(ineq, bk.CorrelationTable(ineq.layout, np.zeros((2, 2, 2)))) == 0.0


def test_strategy_identity_every_sign_function():
    """On a deterministic strategy's own table every family member saturates."""
    for n in (1, 2, 3):
        layout = bk.ExperimentLayout((2,) * n)
        tables = [
            bk.evaluate_model(bk.LhvModel(layout, {codes: 1.0}))
            for codes in itertools.product(range(4), repeat=n)
        ]
        for sign in bk.enumerate_sign_functions(n):
            for table in tables:
                value = sign_value(table, sign)
                assert value == pytest.approx(2.0**n, abs=1e-12)


def test_general_lhs_equals_family_maximum():
    rng = np.random.default_rng(42)
    for n in (2, 3):
        layout = bk.ExperimentLayout((2,) * n)
        for _ in range(10):
            table = bk.CorrelationTable(layout, rng.uniform(-1, 1, size=layout.shape))
            best = max(
                sign_value(table, s) for s in bk.enumerate_sign_functions(n)
            )
            assert best == pytest.approx(bk.general_bell_lhs(table), abs=1e-12)
            sign, value = bk.most_violated_sign_inequality(table)
            assert value == pytest.approx(best, abs=1e-12)
            assert sign_value(table, sign) == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# hidden probabilities and model reconstruction


def hidden_probabilities(table: bk.CorrelationTable) -> np.ndarray:
    """P(s) = 2^-N |f(s)|, axis j indexing s_j (0 is +1): the model's weights."""
    return lhv._hidden_weights(lhv.transformed_table(table))


def test_hidden_probabilities_examples():
    probs = hidden_probabilities(table_2x2(1, 1, 1, 1))
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    assert np.all(hidden_probabilities(table_2x2(0, 0, 0, 0)) == 0.0)

    probs = hidden_probabilities(chsh_optimal_table())
    assert np.allclose(probs, SQ2 / 4, rtol=0, atol=1e-12)
    assert probs.sum() == pytest.approx(SQ2, abs=1e-12)


def test_construct_model_zero_table_is_two_strategies():
    model = bk.construct_lhv_model(table_2x2(0, 0, 0, 0))
    assert model.weights == {(0, 0): 0.5, (3, 0): 0.5}
    assert model.to_json_list() == [
        {"strategy": [0, 0], "weight": 0.5},
        {"strategy": [3, 0], "weight": 0.5},
    ]


def test_construct_model_anticorrelated():
    model = bk.construct_lhv_model(table_2x2(-1, -1, -1, -1))
    assert len(model.weights) == 1
    predicted = bk.evaluate_model(model)
    assert np.allclose(predicted.values, -1.0, atol=1e-12)


def test_construct_model_rejects_violation():
    with pytest.raises(bk.InequalityViolated):
        bk.construct_lhv_model(chsh_optimal_table())


def test_a_violation_carries_the_most_violated_sign_function():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        layout = bk.ExperimentLayout((2,) * n)
        for _ in range(5):
            table = bk.CorrelationTable(layout, rng.uniform(-1, 1, size=layout.shape))
            sign, value = bk.most_violated_sign_inequality(table)
            if value <= 2**n + BOUND_TOL:
                continue
            with pytest.raises(bk.InequalityViolated) as raised:
                bk.construct_lhv_model(table)
            assert (raised.value.sign, raised.value.value) == (sign, value)


def test_two_setting_functions_refuse_a_table_past_the_count_cap(monkeypatch):
    from bellkit import limits

    table = ghz_mermin_table()
    monkeypatch.setattr(limits, "MAX_COUNT", 7)
    for function in (bk.construct_lhv_model, bk.most_violated_sign_inequality,
                     bk.general_bell_lhs):
        with pytest.raises(bk.ResourceLimitError, match="^table has 8 entries, cap is 7$"):
            function(table)
    monkeypatch.setattr(limits, "MAX_COUNT", 8)
    assert bk.general_bell_lhs(table) == 16.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        bk.CorrelationTable(bk.ExperimentLayout((2, 2)), np.array([[bad, 0.0], [0.0, 0.0]]))


def test_evaluate_model_examples():
    layout = bk.ExperimentLayout((2, 2))
    all_plus = bk.LhvModel(layout, {(0, 0): 1.0})
    assert np.allclose(bk.evaluate_model(all_plus).values, 1.0)

    opposite = bk.LhvModel(layout, {(0, 0): 0.5, (3, 0): 0.5})
    assert np.allclose(bk.evaluate_model(opposite).values, 0.0, atol=1e-15)


def outer_product_prediction(model: bk.LhvModel) -> np.ndarray:
    """The predicted table summed strategy by strategy: each weight times the
    outer product of its parties' outcome vectors, read from the code bits."""
    values = np.zeros(model.layout.shape)
    for codes, w in model.weights.items():
        vectors = [np.array([1.0 - 2 * ((code >> k) & 1) for k in range(m)])
                   for code, m in zip(codes, model.layout.shape)]
        values += w * functools.reduce(np.multiply.outer, vectors)
    return values


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 2), (3, 1, 2), (2, 2, 2), (4, 2, 3),
                                   (1, 3, 2, 2), (2, 2, 2, 2), (3, 3, 3, 3)],
                         ids=lambda t: ",".join(map(str, t)))
def test_evaluate_model_matches_a_per_strategy_outer_product(shape):
    """Random mixtures, each with an odd code on every party after the first
    (outside the representatives of enumerate_vertices), and single strategies."""
    rng = np.random.default_rng(sum(shape) + 10 * len(shape))
    layout = bk.ExperimentLayout(shape)
    for count in (1, 2, 7, 60):
        codes = [tuple(int(c) for c in rng.integers(0, [1 << m for m in shape]))
                 for _ in range(count)]
        codes[0] = (codes[0][0], *(c | 1 for c in codes[0][1:]))
        weights = rng.random(count)
        mixture = collections.Counter()
        for code, w in zip(codes, (weights / weights.sum()).tolist()):
            mixture[code] += w  # a code drawn twice
        model = bk.LhvModel(layout, mixture)
        predicted = bk.evaluate_model(model).values
        assert predicted.shape == shape
        assert np.allclose(predicted, outer_product_prediction(model), rtol=0, atol=1e-15)
    single = bk.LhvModel(layout, {tuple((1 << m) - 1 for m in shape): 1.0})
    assert np.array_equal(bk.evaluate_model(single).values, outer_product_prediction(single))


@pytest.mark.parametrize("shape, cap", [((3, 1, 2), 30), ((4, 2, 3), 30), ((3, 3, 3, 3), 200)],
                         ids=["3,1,2", "4,2,3", "3,3,3,3"])
def test_evaluate_model_sums_blocks_of_strategies(monkeypatch, shape, cap):
    """With the count cap lowered, the strategies of a 60-draw model are
    summed in blocks of 5, 1 and 2, and still match the reference."""
    from bellkit import limits

    monkeypatch.setattr(limits, "MAX_COUNT", cap)
    rng = np.random.default_rng(len(shape))
    weights = collections.Counter()
    for w in rng.random(60):
        weights[tuple(int(c) for c in rng.integers(0, [1 << m for m in shape]))] += w
    total = sum(weights.values())
    model = bk.LhvModel(bk.ExperimentLayout(shape), {c: w / total for c, w in weights.items()})
    assert len(model.weights) > 2 * cap // np.prod(shape)
    assert np.allclose(bk.evaluate_model(model).values, outer_product_prediction(model),
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(3,) * 8, (2,) * 13], ids=["3^8", "2^13"])
def test_evaluate_model_memory_stays_near_the_table_size(shape):
    """A model of 1000 strategies on a table of 6561 or 8192 entries: the
    vertex rows of all of them at once would take 52 or 66 MB of int64."""
    rng = np.random.default_rng(8)
    layout = bk.ExperimentLayout(shape)
    codes = {tuple(int(c) for c in rng.integers(0, [1 << m for m in shape])) for _ in range(1000)}
    model = bk.LhvModel(layout, dict.fromkeys(codes, 1 / len(codes)))
    tracemalloc.start()
    try:
        bk.evaluate_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 20


@pytest.mark.parametrize("weights, match", [
    ({(0,): 1.0}, "one code per party"),
    ({(4, 0): 1.0}, "code 4 out of range for 2 settings"),
    ({(0, -1): 1.0}, "code -1 out of range"),
    ({(0, 0): 1.5, (3, 0): -0.5}, "negative weight"),
    ({(0, 0): 0.5}, "total weight"),
    # numpy scalars are named by their Python value, and a weight is no bool
    ({(np.int64(0), 0): np.float64(1.5), (3, np.int64(0)): np.float64(-0.5)},
     r"^negative weight -0.5 for strategy \(3, 0\)$"),
    ({(0, 0): True}, "^weight must be a number, not true or false$"),
])
def test_model_rejects_bad_strategies_and_weights(weights, match):
    with pytest.raises(ValueError, match=match):
        bk.LhvModel(bk.ExperimentLayout((2, 2)), weights)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "+inf", "-inf"])
def test_model_rejects_non_finite_weights(bad):
    # NaN passes both the sign and the total check, and to_json_list drops it
    layout = bk.ExperimentLayout((2, 2))
    with pytest.raises(ValueError, match="non-finite weight"):
        bk.LhvModel(layout, {(0, 0): bad})
    with pytest.raises(ValueError, match="non-finite weight"):
        bk.LhvModel(layout, {(0, 0): 1.0, (3, 0): bad})
    # a record's weight is read as every number from outside is
    records = [{"strategy": [0, 0], "weight": 1.0}, {"strategy": [3, 0], "weight": bad}]
    with pytest.raises(ValueError, match="^weight must be finite$"):
        bk.LhvModel.from_json_list(layout, records)


def test_model_weights_are_a_read_only_copy():
    weights = {(0, 0): 1.0}
    model = bk.LhvModel(bk.ExperimentLayout((2, 2)), weights)
    with pytest.raises(TypeError):
        model.weights[(9, 9)] = 5.0
    weights[(9, 9)] = 5.0
    assert model.weights == {(0, 0): 1.0}
    assert model.to_json_list() == [{"strategy": [0, 0], "weight": 1.0}]
    # codes and weights are kept as Python ints and floats
    model = bk.LhvModel(bk.ExperimentLayout((2, 2)), {(np.int64(3), 0.0): np.float64(1.0)})
    assert [(type(c), type(w)) for codes, w in model.weights.items() for c in codes] == [
        (int, float), (int, float)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 3),
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=8, max_size=8),
)
def test_model_round_trip_property(n, raw):
    layout = bk.ExperimentLayout((2,) * n)
    size = int(np.prod(layout.shape))
    values = np.array(raw[:size]).reshape(layout.shape)
    table = bk.CorrelationTable(layout, values)
    lhs = bk.general_bell_lhs(table)
    if lhs > 2.0**n:
        # shrink into the polytope, then round-trip must hold
        values = values * (2.0**n / lhs) * 0.999
        table = bk.CorrelationTable(layout, values)
    model = bk.construct_lhv_model(table)
    assert sum(model.weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(model.to_json_list()) <= 2**n + 2
    predicted = bk.evaluate_model(model)
    assert np.allclose(predicted.values, table.values, atol=1e-10)


def test_model_json_round_trip():
    table = table_2x2(0.3, -0.2, 0.5, 0.1)
    model = bk.construct_lhv_model(table)
    data = json.loads(json.dumps(model.to_json_list()))
    assert all(set(entry) == {"strategy", "weight"} for entry in data)
    back = bk.LhvModel.from_json_list(model.layout, data)
    assert np.allclose(bk.evaluate_model(back).values, table.values, atol=1e-10)


# ---------------------------------------------------------------------------
# polytope membership


def vertex_matrix(layout: bk.ExperimentLayout) -> np.ndarray:
    return bk.enumerate_vertices(layout)[1]


def test_membership_zero_table_inside():
    result = bk.polytope_membership(table_2x2(0, 0, 0, 0))
    assert result.inside
    assert np.allclose(bk.evaluate_model(result.model).values, 0.0, atol=1e-9)


def test_membership_chsh_certificate():
    table = chsh_optimal_table()
    result = bk.polytope_membership(table)
    assert not result.inside
    cert = result.certificate
    # a valid separating hyperplane: every vertex obeys it, the table does not
    rows = vertex_matrix(table.layout)
    vertex_values = rows @ cert.coefficients.ravel()
    assert np.max(vertex_values) <= cert.bound + 1e-9
    table_value = float(np.sum(cert.coefficients * table.values))
    assert table_value > cert.bound + 1e-6
    # and it is the CHSH facet itself
    assert np.allclose(cert.coefficients, [[1, 1], [1, -1]], atol=1e-9)
    assert cert.bound == pytest.approx(2.0, abs=1e-9)


def test_membership_mermin_certificate():
    table = ghz_mermin_table()
    result = bk.polytope_membership(table)
    assert not result.inside
    cert = result.certificate
    rows = vertex_matrix(table.layout)
    assert np.max(rows @ cert.coefficients.ravel()) <= cert.bound + 1e-9
    value = float(np.sum(cert.coefficients * table.values))
    assert value > cert.bound + 1e-6
    # the certificate is proportional to the saturating family member: all
    # weight on the four odd-parity positions, the all-(2,2,2) one negated
    expected = np.zeros((2, 2, 2))
    expected[1, 0, 0] = expected[0, 1, 0] = expected[0, 0, 1] = -1.0
    expected[1, 1, 1] = 1.0
    assert np.allclose(np.abs(cert.coefficients), np.abs(expected), atol=1e-9)


def test_membership_matches_general_condition():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        layout = bk.ExperimentLayout((2,) * n)
        for _ in range(60):
            table = bk.CorrelationTable(layout, rng.uniform(-1, 1, size=layout.shape))
            lhs = bk.general_bell_lhs(table)
            if abs(lhs - 2.0**n) <= 1e-9:
                continue
            result = bk.polytope_membership(table)
            assert result.inside == (lhs <= 2.0**n)


def test_membership_three_setting_layout():
    layout = bk.ExperimentLayout((3, 2))
    inside = bk.polytope_membership(bk.CorrelationTable(layout, np.zeros((3, 2))))
    assert inside.inside

    # CHSH embedded in settings (1,2)x(1,2), third setting deterministic
    v = 1 / SQ2
    values = np.array([[v, v], [v, -v], [1.0, 1.0]])
    result = bk.polytope_membership(bk.CorrelationTable(layout, values))
    assert not result.inside
    rows = vertex_matrix(layout)
    cert = result.certificate
    assert np.max(rows @ cert.coefficients.ravel()) <= cert.bound + 1e-9
    assert float(np.sum(cert.coefficients * values)) > cert.bound + 1e-6


def test_vertex_enumeration_distinct_and_capped():
    layout = bk.ExperimentLayout((2, 2))
    codes, rows = bk.enumerate_vertices(layout)
    assert len(codes) == 8  # 2^(2+2-1) distinct outcome-product tensors
    assert len({tuple(r) for r in rows}) == 8
    big = bk.ExperimentLayout((8, 8, 4, 2))
    with pytest.raises(bk.ResourceLimitError):
        bk.enumerate_vertices(big)


def test_inequality_json_round_trip():
    ineq = bk.sign_inequality(bk.SignFunction.chsh())
    data = json.loads(json.dumps(ineq.to_json_dict()))
    assert set(data) == {"layout", "coefficients", "bound"}
    assert data["bound"] == 4
    back = bk.BellInequality.from_json_dict(data)
    assert np.array_equal(back.coefficients, ineq.coefficients)
    assert back.bound == ineq.bound


@pytest.mark.parametrize("coefficients, bound", [
    ([[float("nan"), 1], [1, -1]], 2),
    ([[float("inf"), 1], [1, -1]], 2),
    ([[1, 1], [1, -1]], float("inf")),
    ([[1, 1], [1, -1]], 10**400),
], ids=["nan-coefficient", "infinite-coefficient", "infinite-bound", "bound-past-float"])
def test_inequality_rejects_non_finite_values(coefficients, bound):
    # whole-valued floats become int64 only when finite: inf is never cast to -2^63
    data = {"layout": [2, 2], "coefficients": coefficients, "bound": bound}
    with pytest.raises(ValueError, match="finite"):
        bk.BellInequality.from_json_dict(data)


@pytest.mark.parametrize("big, integral", [
    (1e19, False), (-1e19, False), (9.3e18, False), (2.0**63, False), (-2.0**63, False),
    (2.0**63 - 1024, True),
])
def test_whole_valued_coefficients_become_integers_only_inside_int64(big, integral):
    """A cast of 2^63 or more would wrap to -2^63, so such coefficients stay floats."""
    data = {"layout": [2, 2], "coefficients": [[big, 1.0], [1.0, -1.0]], "bound": 2}
    ineq = bk.BellInequality.from_json_dict(data)
    assert ineq.is_integral() == integral
    assert ineq.coefficients[0, 0] == big


def test_vertex_values_bounded_by_family_bound():
    layout = bk.ExperimentLayout((2, 2))
    rows = vertex_matrix(layout)
    for sign in bk.enumerate_sign_functions(2):
        ineq = bk.sign_inequality(sign)
        values = rows @ ineq.coefficients.ravel()
        assert np.max(np.abs(values)) <= ineq.bound


@pytest.mark.parametrize("shape", [(1, 3), (2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 2)])
def test_vertex_enumeration_matches_product_oracle(shape):
    """Codes and rows equal a direct itertools.product / multiply.outer build.

    The row order is part of the contract: simplex pivots and the exact rank
    of saturating rows both follow it.
    """
    ranges = [range(1 << shape[0])] + [range(0, 1 << m, 2) for m in shape[1:]]
    want_codes = list(itertools.product(*ranges))
    want_rows = []
    for codes in want_codes:
        grid = np.ones((), dtype=np.int64)
        for code, m in zip(codes, shape):
            grid = np.multiply.outer(grid, [1 - 2 * ((code >> k) & 1) for k in range(m)])
        want_rows.append(grid.ravel())
    codes, rows = bk.enumerate_vertices(bk.ExperimentLayout(shape))
    assert codes == want_codes
    assert all(type(c) is int for code in codes for c in code)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, np.array(want_rows, dtype=np.int64))


@pytest.mark.parametrize("shape", [(2,), (3,), (2, 2), (3, 3), (2, 3, 4), (4, 4, 2), (3, 3, 3),
                                   (3, 3, 3, 3)], ids=lambda shape: "x".join(map(str, shape)))
def test_vertex_product_equals_the_left_to_right_kronecker_product(shape):
    """The product is formed right to left; the matrix is np.kron's left to right.

    Party 1's factor comes first, so a product with the parties' order
    reversed fails at 2,3,4, where no two factors have the same shape.
    """
    layout = bk.ExperimentLayout(shape)
    ranges, factors = lhv._vertex_factors(layout)
    codes, rows = bk.enumerate_vertices(layout)
    want = functools.reduce(np.kron, factors)
    assert rows.dtype == want.dtype == np.int64
    assert rows.shape == want.shape
    assert np.array_equal(rows, want)
    assert codes == list(itertools.product(*ranges))


@pytest.mark.parametrize("eps, inside", [
    (4e-13, True), (2e-10, True), (1e-9, False), (1e-8, False), (1e-6, False),
])
def test_oracles_agree_at_the_bound(eps, inside):
    """The closed form and the LP share one tolerance past 2^N."""
    table = table_2x2(0.5, 0.5, 0.5, -0.5)
    table = bk.CorrelationTable(table.layout, table.values * (1 + eps))
    assert bk.polytope_membership(table).inside == inside
    if not inside:
        with pytest.raises(bk.InequalityViolated):
            bk.construct_lhv_model(table)
        return
    model = bk.construct_lhv_model(table)
    assert sum(model.weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(bk.evaluate_model(model).values, table.values, rtol=0, atol=1e-9)


# the band in units of 2^N: either side of it, offsets hypothesis should try
BAND_PROBES = [sign * k * BOUND_TOL for sign in (-1, 1) for k in (1.01, 1.5, 10.0, 1e3)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=16, max_size=16),
    st.one_of(st.floats(-0.5, 0.5), st.sampled_from(BAND_PROBES)),
)
# ratio ties as wide as BOUND_TOL read a 5e-10 basic variable as degenerate here,
# and the model then missed the table by 1.01e-9
@example(2, [0.0, 0.0, 0.0, 1.0] + [0.0] * 12, -1.01 * BOUND_TOL)
def test_oracles_agree_off_the_tolerance_band(n, raw, excess):
    """Closed form and LP agree unless |sum_s |f(s)| - 2^N| <= 2^N BOUND_TOL.

    The LP allows BOUND_TOL of residual on a table entry, and a Walsh
    coefficient of up to 2^N turns that into 2^N BOUND_TOL on the left-hand
    side: E(1,...,1) = 1 + 0.9 BOUND_TOL at N=4 is outside by the closed form
    and inside by the LP.
    """
    layout = bk.ExperimentLayout((2,) * n)
    values = np.array(raw[:2**n]).reshape(layout.shape)
    lhs = bk.general_bell_lhs(bk.CorrelationTable(layout, values))
    assume(lhs > 0)
    # reject before scaling: a tiny lhs makes the scale inf, and inf * 0 is NaN;
    # rounding is monotone, so max|values| * scale is the max of the scaled table
    scale = 2**n * (1 + excess) / lhs
    assume(np.isfinite(scale) and np.max(np.abs(values)) * scale <= 1)
    values = values * scale
    table = bk.CorrelationTable(layout, values)
    assume(abs(bk.general_bell_lhs(table) - 2**n) > 2**n * BOUND_TOL)
    try:
        bk.construct_lhv_model(table)
        local = True
    except bk.InequalityViolated:
        local = False
    assert bk.polytope_membership(table).inside == local


def test_simplex_iteration_cap_is_a_resource_limit(monkeypatch):
    from bellkit import limits
    from bellkit.simplex import solve_feasibility

    a, b = np.eye(2), np.ones(2)
    assert solve_feasibility(a, b).iterations == 2
    monkeypatch.setattr(limits, "max_pivots", lambda rows, columns: 2)
    assert solve_feasibility(a, b).feasible
    monkeypatch.setattr(limits, "max_pivots", lambda rows, columns: 1)
    with pytest.raises(bk.ResourceLimitError, match="exceeded 1 iterations"):
        solve_feasibility(a, b)


def found_recipe_table(seed: int) -> bk.CorrelationTable:
    """0.8 times a Dirichlet mixture of 8 distinct (3,3,3,3) vertices."""
    layout = bk.ExperimentLayout((3, 3, 3, 3))
    rng = np.random.default_rng(seed)
    rows = vertex_matrix(layout)
    x = 0.8 * rng.dirichlet(np.ones(8)) @ rows[rng.choice(len(rows), 8, replace=False)]
    return bk.CorrelationTable(layout, x.reshape(layout.shape))


def test_dantzig_pricing_finds_inside_models_quickly():
    """Bland's entering rule hit the 29900-pivot cap on 5 of these 12 tables."""
    for seed in range(12):
        result = bk.polytope_membership(found_recipe_table(seed))
        assert result.inside
        assert result.lp_iterations <= 600
        assert result.residual <= BOUND_TOL


def test_band_table_model_passes_the_residual_check():
    """The LP's slack is BOUND_TOL, so a model may miss by BOUND_TOL plus rounding.

    This (2,2) table's left-hand side exceeds 4 by 2.0e-9, inside the
    tolerance band, and its LP model misses one entry by 1e-9 + 3e-17.
    """
    values = [[0.6815192920979465, 0.29672472756821927],
              [-0.4570897413682428, 0.5646662399655915]]
    result = bk.polytope_membership(bk.CorrelationTable(bk.ExperimentLayout((2, 2)), values))
    assert result.inside
    assert BOUND_TOL < result.residual <= BOUND_TOL + EXACT_TOL


def test_model_checks_reject_a_faulty_solution(monkeypatch):
    from bellkit.simplex import solve_feasibility

    table = found_recipe_table(0)
    assert bk.polytope_membership(table).inside

    def solving_to(perturb):
        def fake(a, b, **kwargs):
            result = solve_feasibility(a, b, **kwargs)
            result.x = perturb(result.x.copy())
            return result
        return fake

    def shift_mass(x):
        i, j = np.flatnonzero(x)[:2]
        x[i], x[j] = x[i] + x[j], 0.0
        return x

    def negate_unused(x):
        x[np.flatnonzero(x == 0)[0]] = -0.01
        return x

    cases = [(shift_mass, "residual"), (negate_unused, "negative"),
             (np.zeros_like, "sum to 1")]
    for perturb, check in cases:
        monkeypatch.setattr(lhv, "solve_feasibility", solving_to(perturb))
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match=check):
            bk.polytope_membership(table)


def test_closed_form_model_check_rejects_a_wrong_weight(monkeypatch):
    """The closed-form model is checked against its table, as LP models are."""
    table = bk.CorrelationTable(bk.ExperimentLayout((2, 2, 2)),
                                0.3 * ghz_mermin_table().values)
    model = bk.construct_lhv_model(table)
    assert np.allclose(bk.evaluate_model(model).values, table.values, rtol=0, atol=1e-15)
    hidden_weights = lhv._hidden_weights

    def halve_the_largest(f):
        p = hidden_weights(f)
        p.flat[np.argmax(p)] /= 2
        return p

    monkeypatch.setattr(lhv, "_hidden_weights", halve_the_largest)
    with pytest.raises(RuntimeError, match="closed-form model check failed: residual"):
        bk.construct_lhv_model(table)


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_closed_form_model_check_rejects_a_halved_weight_at_every_party_count(monkeypatch, n):
    """A random table scaled inside the 2^N bound, at the party counts the
    three-party test above leaves out."""
    rng = np.random.default_rng(n)
    layout = bk.ExperimentLayout((2,) * n)
    values = rng.uniform(-1, 1, layout.shape)
    values *= 0.9 * min(1.0, 2**n / bk.general_bell_lhs(bk.CorrelationTable(layout, values)))
    table = bk.CorrelationTable(layout, values)
    model = bk.construct_lhv_model(table)
    assert np.allclose(bk.evaluate_model(model).values, table.values, rtol=0, atol=1e-15)
    hidden_weights = lhv._hidden_weights

    def halve_the_largest(f):
        p = hidden_weights(f)
        p.flat[np.argmax(p)] /= 2
        return p

    monkeypatch.setattr(lhv, "_hidden_weights", halve_the_largest)
    with pytest.raises(RuntimeError, match="closed-form model check failed: residual"):
        bk.construct_lhv_model(table)


def test_certificate_check_rejects_a_faulty_separation(monkeypatch):
    """An infeasible verdict is re-checked: its hyperplane must put the table
    above every vertex.  The certificate of an outside table, handed back for
    the zero table, gives that table 0 against a positive bound."""
    from bellkit.simplex import solve_feasibility

    _, outside, _, _ = small_lp_tables()
    zero = bk.CorrelationTable(outside.layout, np.zeros(outside.layout.shape))
    assert bk.polytope_membership(zero).inside

    def solving_outside(a, b, **kwargs):
        return solve_feasibility(a, np.append(outside.values.ravel(), 1.0), **kwargs)

    monkeypatch.setattr(lhv, "solve_feasibility", solving_outside)
    with pytest.raises(RuntimeError, match="^LP certificate check failed: value 0.0 does not "
                                           "exceed bound "):
        bk.polytope_membership(zero)


def test_lexicographic_rule_solves_restricted_masters():
    """Vertex subsets of (3,3,3,3) tables, as a column-generation master sees them.

    0.8 times a Dirichlet mixture of 8 vertices, the support drawn before the
    weights; the columns are the support and 56 other vertices.  Dantzig
    pricing with a fallback to Bland's rule ran out its 7500-pivot cap on both.
    """
    from bellkit.simplex import solve_feasibility

    rows = vertex_matrix(bk.ExperimentLayout((3, 3, 3, 3)))
    for seed in (2, 7):
        rng = np.random.default_rng(seed)
        support = rng.choice(len(rows), 8, replace=False)
        x = 0.8 * rng.dirichlet(np.ones(8)) @ rows[support]
        rest = np.random.default_rng(100 + seed).permutation(
            np.setdiff1d(np.arange(len(rows)), support))
        columns = np.concatenate([support, rest[:56]])
        a = np.vstack([rows[columns].T, np.ones(len(columns))])
        b = np.append(x, 1.0)
        result = solve_feasibility(a, b)
        assert result.feasible
        assert result.iterations <= 1000
        assert np.max(np.abs(a @ result.x - b)) <= BOUND_TOL


def seeded_table(layout: tuple[int, ...], seed: int, scale: float | None) -> bk.CorrelationTable:
    """scale times a Dirichlet mixture of 2*dim distinct vertices, or, with no
    scale, a point uniform in the cube; drawn from default_rng(seed)."""
    layout = bk.ExperimentLayout(layout)
    rng = np.random.default_rng(seed)
    rows = vertex_matrix(layout)
    if scale is None:
        x = rng.uniform(-1.0, 1.0, rows.shape[1])
    else:
        k = min(2 * rows.shape[1], rows.shape[0])
        x = scale * rng.dirichlet(np.ones(k)) @ rows[rng.choice(len(rows), k, replace=False)]
    return bk.CorrelationTable(layout, x.reshape(layout.shape))


def membership_lp(table: bk.CorrelationTable) -> tuple[np.ndarray, np.ndarray]:
    """The A and b that polytope_membership hands the simplex."""
    rows = vertex_matrix(table.layout)
    return (np.vstack([rows.T, np.ones(len(rows))]),
            np.append(table.values.ravel(), 1.0))


#: (A, b), feasible, pivots and degenerate pivots of the revised simplex.  Its
#: pricing rounds differently from the dense tableau it replaced, and settled
#: near-ties of the entering rule otherwise on four rows (FOUND seeds 2 and 6,
#: both 4,4,2 rows); CHANGES.md lists their tableau counts
SIMPLEX_WORK = {
    "3,3,3,3 FOUND seed 0": (lambda: membership_lp(found_recipe_table(0)), True, 171, 24),
    "3,3,3,3 FOUND seed 2": (lambda: membership_lp(found_recipe_table(2)), True, 202, 148),
    "3,3,3,3 FOUND seed 6": (lambda: membership_lp(found_recipe_table(6)), True, 141, 14),
    "4,4,2 inside": (lambda: membership_lp(seeded_table((4, 4, 2), 2, 0.9)), True, 45, 0),
    # its own sign inequality separates it, so phase 1 stops at the first basis
    "4,4,2 outside": (lambda: membership_lp(seeded_table((4, 4, 2), 3, None)), False, 0, 0),
    "4,4,4,2 inside": (lambda: membership_lp(seeded_table((4, 4, 4, 2), 0, 0.9)), True, 269, 0),
    # the first pivot's two rows tie at ratio 1, and the lexicographic rule
    # picks between them; the second pivot is degenerate
    "tied ratios": (lambda: (np.array([[1.0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1]]),
                             np.ones(3)), True, 3, 1),
}


@pytest.mark.parametrize("lp, feasible, iterations, degenerate", SIMPLEX_WORK.values(),
                         ids=SIMPLEX_WORK.keys())
def test_simplex_work_counts_are_pinned(lp, feasible, iterations, degenerate):
    from bellkit.simplex import solve_feasibility

    a, b = lp()
    result = solve_feasibility(a, b)
    assert (result.feasible, result.iterations, result.degenerate) == (
        feasible, iterations, degenerate)
    if feasible:
        assert np.all(result.x >= 0)
        assert np.max(np.abs(a @ result.x - b)) <= BOUND_TOL
    else:
        assert np.max(result.farkas @ a) <= BOUND_TOL
        assert result.farkas @ b > 0


def membership_outcome(table: bk.CorrelationTable) -> tuple:
    """Everything polytope_membership reports, with the model's weights and
    the certificate's coefficients as their exact bytes."""
    result = bk.polytope_membership(table)
    model = result.model and sorted(result.model.weights.items())
    certificate = result.certificate and (result.certificate.coefficients.tobytes(),
                                          result.certificate.bound)
    return (result.inside, model, certificate, result.lp_iterations, result.lp_degenerate,
            result.residual)


def cold_and_warm(tables: list[bk.CorrelationTable]) -> tuple[list, list]:
    """Each table's membership outcome with the layout cache cleared before its
    call, then again in the same order with the cache kept across calls."""
    cold = []
    for table in tables:
        lhv._LAYOUT_CACHE.clear()
        cold.append(membership_outcome(table))
    return cold, [membership_outcome(table) for table in tables]


#: the tables behind SIMPLEX_WORK's membership LPs
SIMPLEX_WORK_TABLES = {
    "3,3,3,3 FOUND seed 0": lambda: found_recipe_table(0),
    "3,3,3,3 FOUND seed 2": lambda: found_recipe_table(2),
    "3,3,3,3 FOUND seed 6": lambda: found_recipe_table(6),
    "4,4,2 inside": lambda: seeded_table((4, 4, 2), 2, 0.9),
    "4,4,2 outside": lambda: seeded_table((4, 4, 2), 3, None),
    "4,4,4,2 inside": lambda: seeded_table((4, 4, 4, 2), 0, 0.9),
}


def test_simplex_work_tables_pivot_alike_with_a_cold_and_a_warm_cache():
    names = list(SIMPLEX_WORK_TABLES)
    cold, warm = cold_and_warm([SIMPLEX_WORK_TABLES[name]() for name in names])
    assert warm == cold
    for name, outcome in zip(names, cold):
        assert (outcome[0], *outcome[3:5]) == SIMPLEX_WORK[name][1:]


def test_benchmark_tables_get_equal_answers_with_a_cold_and_a_warm_cache(monkeypatch):
    """The LP tables of bench/workloads.py's local_tables, seeds 4001-4004:
    928 tables over four layouts, in the workload's shuffled order, so a warm
    call follows calls on other layouts."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    tables = [bk.CorrelationTable(bk.ExperimentLayout(job.facts["layout"]), job.facts["values"])
              for seed in (4001, 4002, 4003, 4004)
              for job in workloads.make_jobs("local_tables", seed)
              if not bk.ExperimentLayout(job.facts["layout"]).is_two_setting()]
    assert len(tables) == 928
    cold, warm = cold_and_warm(tables)
    assert warm == cold
    assert {shape for kind, shape in lhv._LAYOUT_CACHE if kind == "columns"} == {
        (3, 3), (3, 3, 3), (4, 4, 2), (3, 3, 3, 3)}


@pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 3, 4)], ids=lambda s: ",".join(map(str, s)))
def test_cached_layout_arrays_are_read_only_and_enumerated_ones_writable(shape):
    layout = bk.ExperimentLayout(shape)
    bk.polytope_membership(bk.CorrelationTable(layout, np.zeros(shape)))
    _, factors = lhv._vertex_factors(layout)
    for cached in (*factors, lhv._lp_columns(layout)):
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 0
    codes, vertices = bk.enumerate_vertices(layout)
    want = vertices.copy()
    vertices[0, 0] = 7
    codes.clear()
    again = bk.enumerate_vertices(layout)
    assert again[0] == list(itertools.product(*lhv._vertex_factors(layout)[0]))
    assert np.array_equal(again[1], want)


def test_a_layout_past_the_cache_bound_is_built_per_call_and_not_retained(monkeypatch):
    """With the count cap at 4096, 4,4,2's 1024 strategies pass it and its
    100 factor entries are cached, but A's 256 x 33 entries are not."""
    from bellkit import limits

    table = seeded_table((4, 4, 2), 2, 0.9)
    lhv._LAYOUT_CACHE.clear()
    want = membership_outcome(table)
    lhv._LAYOUT_CACHE.clear()
    monkeypatch.setattr(limits, "MAX_COUNT", 4096)
    for _ in range(2):
        assert membership_outcome(table) == want
        assert list(lhv._LAYOUT_CACHE) == [("factors", (4, 4, 2))]
    assert lhv._lp_columns(table.layout).flags.writeable


def test_the_strategy_cap_holds_for_a_cached_layout(monkeypatch, capsys):
    """The cap is read on every call, before the cache: a 3,3 layout cached
    under the default cap is refused once the cap falls below its 64 strategies."""
    from bellkit import cli, limits

    table = json.dumps({"layout": [3, 3], "values": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(table))
    assert cli.main(["lhv", "--table", "-"]) == 0
    assert ("columns", (3, 3)) in lhv._LAYOUT_CACHE
    capsys.readouterr()
    monkeypatch.setattr(limits, "MAX_COUNT", 63)
    monkeypatch.setattr("sys.stdin", io.StringIO(table))
    assert cli.main(["lhv", "--table", "-"]) == 4
    assert capsys.readouterr() == ("", "resource cap: layout has 64 strategies, cap is 63\n")
    with pytest.raises(bk.ResourceLimitError):
        lhv._vertex_factors(bk.ExperimentLayout((3, 3)))


@pytest.mark.parametrize("shape", [(3, 3), (3, 3, 3), (4, 4, 2)])
def test_verdicts_hold_a_hair_from_a_vertex(shape):
    """(1 - 1e-7) v is a mixture of the vertices v and -v, and (1 + 1e-7) v lies
    outside the cube.  The outside one is separated by v's own sign inequality
    at the first basis, by a margin of 1e-7 dim; the inside one never stops early."""
    from bellkit.simplex import solve_feasibility

    rows = vertex_matrix(bk.ExperimentLayout(shape))
    v = rows[len(rows) // 2]
    a = np.vstack([rows.T, np.ones(len(rows))])
    b = np.append((1 - 1e-7) * v, 1.0)
    inside = solve_feasibility(a, b)
    assert inside.feasible and np.all(inside.x >= 0)
    assert np.max(np.abs(a @ inside.x - b)) <= BOUND_TOL
    b = np.append((1 + 1e-7) * v, 1.0)
    outside = solve_feasibility(a, b)
    assert (outside.feasible, outside.iterations) == (False, 0)
    assert np.max(outside.farkas @ a) <= 0 < outside.farkas @ b


def test_table_above_its_own_sign_inequality_is_refused_at_the_first_basis():
    """The first basis's duals are the signs of the table (+1 at 0), so its
    certificate is the sign inequality: +-1 coefficients, an integral bound."""
    tables = [bk.CorrelationTable(bk.ExperimentLayout((3, 3)),
                                  [[1, 1, 1], [1, -1, 0.5], [1, 0.5, -1]]),
              seeded_table((4, 4, 2), 3, None), seeded_table((3, 3, 3, 3), 5, None),
              *small_lp_tables()[1::2]]
    for table in tables:
        signs = np.where(table.values < 0, -1.0, 1.0)
        bound = np.max(vertex_matrix(table.layout) @ signs.ravel())
        assert np.sum(np.abs(table.values)) > bound
        result = bk.polytope_membership(table)
        assert (result.inside, result.lp_iterations) == (False, 0)
        assert np.array_equal(result.certificate.coefficients, signs)
        assert result.certificate.bound == bound == round(bound)


@st.composite
def small_systems(draw) -> tuple[np.ndarray, np.ndarray, bool]:
    """A in {-1, 0, 1}^(m x n) with some columns repeated and some rows zeroed, and b:
    A x0 for a sparse x0 >= 0 (the flag is then True) or drawn at random.  About
    half carry a convexity row: A's last row set to ones, x0 scaled to sum to 1
    and b's last entry set to 1."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    a = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m * n,
                               max_size=m * n))).reshape(m, n)
    a = np.hstack([a, a[:, draw(st.lists(st.integers(0, n - 1), max_size=3))]])
    a[draw(st.lists(st.integers(0, m - 1), max_size=2))] = 0.0
    convex = draw(st.booleans())
    if convex:
        a[-1] = 1.0
    built_feasible = draw(st.booleans())
    if built_feasible:
        x0 = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 2)),
                                    min_size=a.shape[1], max_size=a.shape[1])))
        if convex:
            x0 = x0 / x0.sum() if x0.sum() > 0 else np.eye(a.shape[1])[0]
        b = a @ x0
    else:
        b = np.array(draw(st.lists(st.floats(-3, 3), min_size=m, max_size=m)))
    if convex:
        b[-1] = 1.0
    return a, b, built_feasible


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_simplex_answers_carry_their_proof(system):
    """A model solves A x = b within BOUND_TOL; a Farkas vector separates b from the cone.

    The suite runs under filterwarnings = error, so a warning fails it too.
    """
    from bellkit.simplex import solve_feasibility

    a, b, built_feasible = system
    result = solve_feasibility(a, b)
    assert result.feasible or not built_feasible
    if result.feasible:
        assert np.all(result.x >= 0)
        assert np.max(np.abs(a @ result.x - b)) <= BOUND_TOL
    else:
        assert np.max(result.farkas @ a) <= BOUND_TOL
        assert result.farkas @ b > 0
    if np.all(a[-1] == 1.0) and b[-1] == 1.0:  # a convexity row, as in membership LPs
        # the first basis's duals sign(b), shifted along the convexity row so
        # that no column prices above 0: where they separate b with room to
        # spare, phase 1 must stop before its first pivot (a system built
        # feasible never gets here, and never stops early: it is feasible)
        y = np.where(b < 0, -1.0, 1.0)
        y[-1] -= np.max(y @ a)
        if y @ b > 2 * BOUND_TOL * max(1.0, np.max(np.abs(y))):
            assert (result.feasible, result.iterations) == (False, 0)


def small_lp_tables() -> list[bk.CorrelationTable]:
    """An inside and an outside table for (3,3) and (3,3,3).

    Outside: all +1 but one -1, a cube corner that no product of outcomes gives.
    """
    rng = np.random.default_rng(3)
    tables = []
    for shape in ((3, 3), (3, 3, 3)):
        layout = bk.ExperimentLayout(shape)
        rows = vertex_matrix(layout)
        x = 0.9 * rng.dirichlet(np.ones(6)) @ rows[rng.choice(len(rows), 6, replace=False)]
        corner = np.ones(shape)
        corner[(0,) * len(shape)] = -1.0
        tables += [bk.CorrelationTable(layout, x.reshape(shape)),
                   bk.CorrelationTable(layout, corner)]
    return tables


def test_small_lp_tables_get_checked_models_and_certificates():
    results = [bk.polytope_membership(t) for t in small_lp_tables()]
    assert [r.inside for r in results] == [True, False, True, False]
    for table, result in zip(small_lp_tables(), results):
        if result.inside:
            assert result.residual <= BOUND_TOL
            assert np.allclose(bk.evaluate_model(result.model).values, table.values,
                               rtol=0, atol=BOUND_TOL)
        else:
            cert = result.certificate
            rows = vertex_matrix(table.layout)
            assert np.max(rows @ cert.coefficients.ravel()) <= cert.bound
            assert bk.evaluate_inequality(cert, table) > cert.bound + 1e-6
