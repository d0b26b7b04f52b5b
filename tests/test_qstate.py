"""States, tensors, and quantum correlations against a direct kron/trace oracle."""
import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellkit as bk
from bellkit import qstate
from bellkit.tolerance import EXACT_TOL

SIGMA = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def kron_chain(mats):
    return reduce(np.kron, mats)


def oracle_tensor(rho: bk.DensityMatrix) -> np.ndarray:
    """Every component from the trace formula, no shared code with the library."""
    n = rho.n_qubits
    out = np.empty((4,) * n)
    for idx in np.ndindex(*(4,) * n):
        op = kron_chain([SIGMA[i] for i in idx])
        out[idx] = np.trace(rho.matrix @ op).real
    return out


def random_pure(rng, n) -> bk.PureState:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return bk.PureState(n, amps / np.linalg.norm(amps))


def random_sparse(rng, n, size) -> bk.PureState:
    """Random complex amplitudes on `size` distinct basis vectors, zeros elsewhere."""
    amps = np.zeros(2**n, complex)
    support = rng.choice(2**n, size, replace=False)
    amps[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return bk.PureState(n, amps / np.linalg.norm(amps))


def dicke(n, weight) -> bk.PureState:
    """Equal-weight superposition of the n-bit strings of a given weight, with
    phases e^(i z) so that no amplitude is real."""
    z = np.arange(2**n)
    amps = np.where(np.bitwise_count(z) == weight, np.exp(1j * z), 0)
    return bk.PureState(n, amps / np.linalg.norm(amps))


def random_mixed(rng, n, rank) -> bk.DensityMatrix:
    """Complex mixture of `rank` random pure states."""
    vecs = rng.normal(size=(rank, 2**n)) + 1j * rng.normal(size=(rank, 2**n))
    mat = vecs.T @ vecs.conj()
    mat = (mat + mat.conj().T) / 2
    return bk.DensityMatrix(n, mat / np.trace(mat).real)


def test_singlet_tensor_is_minus_identity():
    tensor = bk.correlation_tensor(bk.density_from_pure(bk.singlet()))
    corr = tensor.correlation_part()
    assert np.allclose(corr, -np.eye(3), atol=1e-12)
    assert tensor.components[0, 0] == pytest.approx(1.0, abs=1e-12)
    # marginals of the singlet vanish
    assert np.allclose(tensor.components[0, 1:], 0.0, atol=1e-12)
    assert np.allclose(tensor.components[1:, 0], 0.0, atol=1e-12)


def test_maximally_mixed_tensor():
    rho = bk.DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    tensor = bk.correlation_tensor(rho)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(tensor.components, expected, atol=1e-12)


def test_schmidt_state_tensor_components():
    for alpha in (0.0, 0.2, np.pi / 8, np.pi / 4):
        state = bk.ghz_state(bk.GhzFamily(2, alpha))
        tensor = bk.correlation_tensor(bk.density_from_pure(state))
        s = np.sin(2 * alpha)
        assert tensor.components[1, 1] == pytest.approx(s, abs=1e-12)
        assert tensor.components[2, 2] == pytest.approx(-s, abs=1e-12)
        assert tensor.components[3, 3] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_matches_trace_oracle(n):
    rng = np.random.default_rng(7 + n)
    for _ in range(3):
        rho = bk.density_from_pure(random_pure(rng, n))
        tensor = bk.correlation_tensor(rho)
        assert np.allclose(tensor.components, oracle_tensor(rho), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("rank", [2, 3, 4])
def test_mixed_tensor_matches_trace_oracle(n, rank):
    rho = random_mixed(np.random.default_rng(10 * n + rank), n, rank)
    assert np.allclose(bk.correlation_tensor(rho).components, oracle_tensor(rho),
                       rtol=0, atol=1e-12)


def test_product_state_tensor_is_outer_product_at_n8():
    """Every qubit axis at a size the trace oracle cannot reach."""
    rng = np.random.default_rng(8)
    singles = [random_mixed(rng, 1, 2) for _ in range(8)]
    rho = bk.DensityMatrix(8, kron_chain([s.matrix for s in singles]))
    expected = reduce(np.multiply.outer, [bk.correlation_tensor(s).components for s in singles])
    assert np.allclose(bk.correlation_tensor(rho).components, expected, rtol=0, atol=1e-12)


def test_density_from_pure_examples():
    ket0 = bk.PureState(1, np.array([1.0, 0.0], dtype=complex))
    assert np.allclose(bk.density_from_pure(ket0).matrix, np.diag([1.0, 0.0]))

    rho = bk.density_from_pure(bk.singlet()).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.5
    assert np.allclose(rho, expected, atol=1e-12)

    bell = bk.PureState(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    rho = bk.density_from_pure(bell).matrix
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)


def quantum_correlation(tensor: bk.CorrelationTensor, directions) -> float:
    """E(a_1, ..., a_N): the correlation part contracted with one direction per qubit."""
    value = tensor.correlation_part()
    for direction in directions:
        value = np.tensordot(direction, value, axes=([0], [0]))
    return float(value)


def test_quantum_correlation_singlet_axes():
    tensor = bk.correlation_tensor(bk.density_from_pure(bk.singlet()))
    z, x = np.eye(3)[[2, 0]]
    assert quantum_correlation(tensor, [z, z]) == pytest.approx(-1.0, abs=1e-12)
    assert quantum_correlation(tensor, [z, x]) == pytest.approx(0.0, abs=1e-12)
    # negating one party's vector negates the value
    assert quantum_correlation(tensor, [z, -z]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quantum_correlation_matches_expectation_oracle(n):
    rng = np.random.default_rng(100 + n)
    state = random_pure(rng, n)
    tensor = bk.correlation_tensor(bk.density_from_pure(state))
    for _ in range(5):
        vecs = rng.normal(size=(n, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        got = quantum_correlation(tensor, vecs)
        op = kron_chain([sum(v[i] * SIGMA[i + 1] for i in range(3)) for v in vecs])
        want = (state.amplitudes.conj() @ op @ state.amplitudes).real
        assert got == pytest.approx(want, abs=1e-10)


def test_product_state_tensor_factorizes():
    rng = np.random.default_rng(5)
    a = random_pure(rng, 1)
    b = random_pure(rng, 2)
    joint = bk.PureState(3, np.kron(a.amplitudes, b.amplitudes))
    ta = bk.correlation_tensor(bk.density_from_pure(a)).components
    tb = bk.correlation_tensor(bk.density_from_pure(b)).components
    tj = bk.correlation_tensor(bk.density_from_pure(joint)).components
    assert np.allclose(tj, np.einsum("a,bc->abc", ta, tb), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=4, max_size=4))
def test_random_two_qubit_states_match_oracle(pairs):
    raw = np.array([complex(re, im) for re, im in pairs])
    norm = np.linalg.norm(raw)
    if norm < 1e-3:
        return
    state = bk.PureState(2, raw / norm)
    rho = bk.density_from_pure(state)
    tensor = bk.correlation_tensor(rho)
    assert np.allclose(tensor.components, oracle_tensor(rho), atol=1e-10)


def test_state_validation():
    with pytest.raises(ValueError):
        bk.PureState(1, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        bk.PureState(2, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        bk.DensityMatrix(1, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match=r"^trace 2\.0 is not 1 within 1e-12$"):  # no np.float64
        bk.DensityMatrix(1, np.eye(2))


HALF = np.full(2, 0.5 ** 0.5)


@pytest.mark.parametrize("build, message", [
    (lambda: bk.ExperimentLayout((2.5, 2)), "a layout entry must be an integer, got 2.5"),
    (lambda: bk.ExperimentLayout((2, True)), "a layout entry must be an integer, got True"),
    (lambda: bk.PureState(1.5, HALF), "n_qubits must be an integer, got 1.5"),
    (lambda: bk.PureState("1", HALF), "n_qubits must be an integer, got '1'"),
    (lambda: bk.DensityMatrix(1.5, np.eye(2) / 2), "n_qubits must be an integer, got 1.5"),
    (lambda: bk.CorrelationTensor(True, np.eye(4)[0]), "n_qubits must be an integer, got True"),
    (lambda: bk.GhzFamily(3.5, 0.3), "n_qubits must be an integer, got 3.5"),
    (lambda: bk.LhvModel.from_json_list(bk.ExperimentLayout((2, 2)),
                                        [{"strategy": [1.7, 0], "weight": 1.0}]),
     "a strategy code must be an integer, got 1.7"),
    (lambda: bk.LhvModel.from_json_list(bk.ExperimentLayout((2, 2)),
                                        [{"strategy": [True, 0], "weight": 1.0}]),
     "a strategy code must be an integer, got True"),
    (lambda: bk.LhvModel(bk.ExperimentLayout((2, 2)), {(1.5, 0): 1.0}),
     "a strategy code must be an integer, got 1.5"),
    (lambda: bk.LhvModel(bk.ExperimentLayout((2, 2)), {(True, 0): 1.0}),
     "a strategy code must be an integer, got True"),
    (lambda: bk.LhvModel.from_json_list(bk.ExperimentLayout((2, 2)),
                                        [{"strategy": [0, 0], "weight": "1.0"}]),
     "weight must be a number, not a string"),
    (lambda: bk.LhvModel.from_json_list(bk.ExperimentLayout((2, 2)),
                                        [{"strategy": [0, 0], "weight": True}]),
     "weight must be a number, not true or false"),
    # numpy scalars are named by their Python value
    (lambda: bk.ExperimentLayout((np.float64(2.5), 2)),
     "a layout entry must be an integer, got 2.5"),
    (lambda: bk.ExperimentLayout((np.True_, 2)), "a layout entry must be an integer, got True"),
    # the sign functions and construction trees
    (lambda: bk.SignFunction(2, (0.5, "1", True, 0)), "a sign bit must be an integer, got 0.5"),
    (lambda: bk.SignFunction(2, (0, "1", True, 0)), "a sign bit must be an integer, got '1'"),
    (lambda: bk.SignFunction(2, (0, 1, True, 0)), "a sign bit must be an integer, got True"),
    (lambda: bk.SignFunction(2.5, (0, 1, 1, 0)), "arity must be an integer, got 2.5"),
    (lambda: bk.Observable(1.5, 1), "a party must be an integer, got 1.5"),
    (lambda: bk.Observable(True, 2), "a party must be an integer, got True"),
    (lambda: bk.Observable(1, "2"), "a setting must be an integer, got '2'"),
    (lambda: bk.Leaf((1, 2.5), ((1, 2), (1, 2)), bk.SignFunction.chsh()),
     "a party must be an integer, got 2.5"),
    (lambda: bk.Leaf((1, 2), ((1, 2), (1, 2.5)), bk.SignFunction.chsh()),
     "a setting must be an integer, got 2.5"),
], ids=["layout-2.5", "layout-bool", "pure-1.5", "pure-str", "density-1.5", "tensor-bool",
        "ghz-3.5", "code-1.7", "code-bool", "model-code-1.5", "model-code-bool", "weight-str", "weight-bool", "layout-np-2.5",
        "layout-np-bool", "sign-bit-0.5", "sign-bit-str", "sign-bit-bool", "sign-arity-2.5",
        "observable-party-1.5", "observable-party-bool", "observable-setting-str",
        "leaf-party-2.5", "leaf-setting-2.5"])
def test_constructors_refuse_non_integers(build, message):
    """Every integer field takes an int or a whole-valued float, the rule JSON input
    follows, and a number field takes no string or bool."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_constructors_take_whole_valued_floats_as_ints():
    assert bk.ExperimentLayout((2.0, np.int64(3))).settings_per_party == (2, 3)
    assert type(bk.PureState(1.0, HALF).n_qubits) is int
    assert type(bk.GhzFamily(np.int64(3), 0.3).n_qubits) is int
    sign = bk.SignFunction(2.0, (0, 0, np.int64(0), 1.0))
    assert sign == bk.SignFunction.chsh() and type(sign.arity) is int
    assert bk.Observable(np.int64(1), 2.0) == bk.Observable(1, 2)
    # a whole-valued setting builds the inequality its integer builds
    leaf = bk.Leaf((1.0, 2), ((1, 2.0), (1, 2)), sign)
    assert {type(v) for v in (*leaf.parties, *leaf.setting_pairs[0])} == {int}
    assert bk.build_recursive(leaf).to_json_dict() == bk.build_recursive(
        bk.Leaf((1, 2), ((1, 2), (1, 2)), sign)).to_json_dict()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        bk.PureState(1, np.array([bad, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        bk.DensityMatrix(1, np.array([[1.0, bad], [bad, 0.0]], dtype=complex))
    comp = np.zeros((4, 4))
    comp[0, 0] = 1.0
    comp[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        bk.CorrelationTensor(2, comp)


def test_tensor_qubit_cap(monkeypatch):
    rng = np.random.default_rng(2)
    state = random_pure(rng, 3)
    rho = bk.density_from_pure(state)
    # 4^3 - 1 entries admit 2 qubits: the cap is log4 of the count, floored
    monkeypatch.setattr("bellkit.limits.MAX_COUNT", 4**3 - 1)
    with pytest.raises(bk.ResourceLimitError, match="capped at 2 qubits"):
        bk.correlation_tensor(rho)
    with pytest.raises(bk.ResourceLimitError, match="capped at 2 qubits"):
        bk.correlation_tensor(state)
    # the cap comes before the 2**N amplitude count is worked out
    with pytest.raises(bk.ResourceLimitError, match="capped at 2 qubits"):
        bk.PureState(3, state.amplitudes)


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0, 1), max_size=2), st.floats(0, 1))
def test_pure_state_path_gives_the_density_path_bytes(n, seed, visibilities, sparsity):
    """Amplitudes straight to the tensor, against |psi><psi| mixed level by level.

    The support grows log-uniformly from 1 amplitude to all 2**n, so small
    supports take the live-column branch and the rest every column."""
    support = max(1, round(2 ** (n * sparsity)))
    state = random_sparse(np.random.default_rng(seed), n, support)
    rho = bk.density_from_pure(state)
    for visibility in visibilities:
        rho = bk.mix_with_white_noise(rho, visibility)
    got = bk.correlation_tensor(state, visibilities=visibilities).components
    assert got.tobytes() == bk.correlation_tensor(rho).components.tobytes()


@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
def test_tensor_rejects_visibility_out_of_range(bad):
    for state in (bk.singlet(), bk.density_from_pure(bk.singlet())):
        with pytest.raises(ValueError, match=r"visibility must lie in \[0, 1\]"):
            bk.correlation_tensor(state, visibilities=(0.5, bad))


def test_state_json_round_trip():
    rng = np.random.default_rng(3)
    state = random_pure(rng, 2)
    data = json.loads(json.dumps(state.to_json_dict()))
    assert set(data) == {"n_qubits", "amplitudes"}
    back = bk.PureState.from_json_dict(data)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-15)


def test_tensor_json_round_trip():
    tensor = bk.correlation_tensor(bk.density_from_pure(bk.singlet()))
    data = json.loads(json.dumps(tensor.to_json_dict()))
    assert set(data) == {"n_qubits", "full_components"}
    back = bk.CorrelationTensor.from_json_dict(data)
    assert np.allclose(back.components, tensor.components, atol=1e-15)


def stacked_walsh_hadamard(values: np.ndarray, n: int) -> np.ndarray:
    """The earlier butterfly: one stacked new array per pass, on the trailing bits."""
    out = values
    for q in range(n):
        out = out.reshape((-1, 2, 2 ** (n - q - 1)))
        out = np.stack((out[:, 0] + out[:, 1], out[:, 0] - out[:, 1]), axis=1)
    return out.reshape(values.shape)


def transpose_gather_tensor(state, visibilities=()) -> np.ndarray:
    """The earlier kernel: f-major g, a complex phase grid, a 2N-axis transpose, np.ix_."""
    n = state.n_qubits
    masks = np.arange(2**n)
    flipped = masks[:, None] ^ masks
    if isinstance(state, bk.PureState):
        g = state.amplitudes * state.amplitudes.conj()[flipped]
    else:
        g = state.matrix[masks, flipped]
    for visibility in visibilities:
        g = visibility * g
        g[0] += (1 - visibility) / 2**n
    g = stacked_walsh_hadamard(g, n)
    phase = np.array([1, 1j, -1, -1j])[np.bitwise_count(masks[:, None] & masks) % 4]
    values = (g * phase).real
    interleave = [axis for q in range(n) for axis in (q, n + q)]
    values = values.reshape((2,) * (2 * n)).transpose(interleave).reshape((4,) * n)
    return values[np.ix_(*(np.array([0, 2, 3, 1]),) * n)] + 0.0


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
@pytest.mark.parametrize("n", range(1, 9))
def test_walsh_hadamard_matches_the_stacked_butterfly(n, dtype):
    rng = np.random.default_rng(n)
    grid = rng.integers(-9, 10, size=(2,) * n).astype(dtype)
    if dtype is not np.int64:
        grid = grid + rng.normal(size=grid.shape)
    if dtype is np.complex128:
        grid = grid + 1j * rng.normal(size=grid.shape)
    wide = np.repeat(grid.reshape(-1), 3)
    for values in (grid, grid.T, wide[::3].reshape((2,) * n)):
        before = values.copy()
        got, want = qstate.walsh_hadamard(values), stacked_walsh_hadamard(values, n)
        assert (got.shape, got.dtype) == (want.shape, want.dtype) == (values.shape, dtype)
        assert got.tobytes() == want.tobytes()
        assert values.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [9, 10])
def test_kernel_bytes_past_the_hypothesis_range(n):
    """Pure GHZ, nested noise, W and Dicke states and a random dense state at 9
    and 10 qubits: GHZ and W use a few live columns; the n(n-1)/2-amplitude
    Dicke state, whose support squared passes 2**n, and the dense state use
    every column."""
    ghz = bk.ghz_state(bk.GhzFamily(n, 0.3))
    dense = random_pure(np.random.default_rng(n), n)
    cases = ((ghz, ()), (ghz, (0.7, 0.3, 0.9)), (dicke(n, 1), ()), (dicke(n, 1), (0.4,)),
             (dicke(n, 2), (0.8,)), (dense, (0.55,)))
    assert [len(qstate._live_flips(state)) == 2**n for state, _ in cases] == [
        False, False, False, False, True, True]
    for state, visibilities in cases:
        got = bk.correlation_tensor(state, visibilities=visibilities).components
        assert got.tobytes() == transpose_gather_tensor(state, visibilities).tobytes()


def traced_peak(state, visibilities) -> int:
    tracemalloc.start()
    try:
        bk.correlation_tensor(state, visibilities=visibilities)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [8, 10])
def test_kernel_peak_memory(n):
    """A dense state, on every column, at most 2.25 complex 4**N tables at once;
    a GHZ state, on live columns, at most 1.25 float 4**N tables: the zeroed
    output, which CorrelationTensor keeps without a copy."""
    state = random_pure(np.random.default_rng(n), n)
    assert traced_peak(state, (0.7,)) <= 2.25 * 16 * 4**n
    assert traced_peak(bk.ghz_state(bk.GhzFamily(n, 0.3)), (0.7,)) <= 1.25 * 8 * 4**n


def test_kernel_keeps_nothing_between_calls():
    """Once the tensor of a dense 8-qubit state is dropped, the memory traced
    since before the call is back within 64 KiB: no table outlives the call."""
    state = random_pure(np.random.default_rng(8), 8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tensor = bk.correlation_tensor(state, visibilities=(0.7,))
        del tensor
        assert tracemalloc.get_traced_memory()[0] - before <= 64 * 1024
    finally:
        tracemalloc.stop()


def test_tensor_keeps_only_arrays_no_one_can_write():
    """A read-only array that owns its data is kept as it is; a writable one, or a
    read-only view of a writable base, is copied, so the tensor never changes."""
    comp = np.zeros((4, 4))
    comp[0, 0] = 1.0
    kept = bk.CorrelationTensor(2, comp).components
    assert kept is not comp and not kept.flags.writeable
    comp[1, 1] = 0.5
    assert kept[1, 1] == 0.0
    view = comp.view()
    view.flags.writeable = False
    assert bk.CorrelationTensor(2, view).components.base is None
    comp.flags.writeable = False
    assert bk.CorrelationTensor(2, comp).components is comp
    tensor = bk.correlation_tensor(bk.ghz_state(bk.GhzFamily(3, 0.3)))
    assert tensor.components.base is None and not tensor.components.flags.writeable


def haar_unitary(rng) -> np.ndarray:
    """A Haar-random 2x2 unitary: QR of a complex Gaussian, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def local_frame(u: np.ndarray) -> np.ndarray:
    """Q = 1 + R on one party's (I, x, y, z) axis: U^dag sigma_a U = sum_b Q[a, b] sigma_b."""
    return np.array([[np.trace(a @ u @ b @ u.conj().T).real / 2 for b in SIGMA] for a in SIGMA])


@pytest.mark.parametrize("n", [9, 10])
def test_local_unitaries_rotate_the_ghz_tensor(n):
    """(U_1 x ... x U_N)|GHZ> has the GHZ tensor with axis j mapped by Q_j, and
    noise:v scales every component but the identity's by v.  GHZ uses two
    live columns and the rotated state every column, so the two column sets
    check each other at sizes no trace oracle reaches."""
    rng = np.random.default_rng(900 + n)
    ghz = bk.ghz_state(bk.GhzFamily(n, 0.3))
    unitaries = [haar_unitary(rng) for _ in range(n)]
    rotated = bk.PureState(n, kron_chain(unitaries) @ ghz.amplitudes)
    assert len(qstate._live_flips(ghz)) == 2 and len(qstate._live_flips(rotated)) == 2**n
    ghz_tensor = want = bk.correlation_tensor(ghz).components
    for j, u in enumerate(unitaries):
        want = np.moveaxis(np.tensordot(local_frame(u), want, axes=([1], [j])), 0, j)
    got = bk.correlation_tensor(rotated).components
    assert np.max(np.abs(got - want)) <= EXACT_TOL
    identity = (0,) * n
    for state, pure in ((ghz, ghz_tensor), (rotated, got)):
        noisy = bk.correlation_tensor(state, visibilities=(0.6,)).components
        scaled = 0.6 * pure
        scaled[identity] = 1.0
        assert np.max(np.abs(noisy - scaled)) <= EXACT_TOL
