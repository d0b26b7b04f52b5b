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


def test_quantum_correlation_singlet_axes():
    tensor = bk.correlation_tensor(bk.density_from_pure(bk.singlet()))
    z = bk.SettingVector.unit(0, 0, 1)
    x = bk.SettingVector.unit(1, 0, 0)
    assert bk.quantum_correlation(tensor, [z, z]) == pytest.approx(-1.0, abs=1e-12)
    assert bk.quantum_correlation(tensor, [z, x]) == pytest.approx(0.0, abs=1e-12)
    # negating one party's vector negates the value
    mz = bk.SettingVector.unit(0, 0, -1)
    assert bk.quantum_correlation(tensor, [z, mz]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quantum_correlation_matches_expectation_oracle(n):
    rng = np.random.default_rng(100 + n)
    state = random_pure(rng, n)
    tensor = bk.correlation_tensor(bk.density_from_pure(state))
    for _ in range(5):
        vecs = rng.normal(size=(n, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        settings_list = [bk.SettingVector(v) for v in vecs]
        got = bk.quantum_correlation(tensor, settings_list)
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


def test_quantum_correlation_is_multilinear():
    rng = np.random.default_rng(11)
    tensor = bk.correlation_tensor(bk.density_from_pure(random_pure(rng, 2)))
    b = rng.normal(size=3)
    b /= np.linalg.norm(b)
    u = rng.normal(size=3)
    v = rng.normal(size=3)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    c, d = 0.7, -1.3
    w = c * u + d * v
    norm = np.linalg.norm(w)
    lhs = norm * bk.quantum_correlation(tensor, [bk.SettingVector(w / norm), bk.SettingVector(b)])
    rhs = c * bk.quantum_correlation(tensor, [bk.SettingVector(u), bk.SettingVector(b)]) + \
        d * bk.quantum_correlation(tensor, [bk.SettingVector(v), bk.SettingVector(b)])
    assert lhs == pytest.approx(rhs, abs=1e-10)


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
    with pytest.raises(ValueError):
        bk.SettingVector(np.array([1.0, 1.0, 0.0]))


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
    monkeypatch.setattr("bellkit.qstate.MAX_QUBITS", 2)
    with pytest.raises(bk.ResourceLimitError, match="capped at 2 qubits"):
        bk.correlation_tensor(rho)
    with pytest.raises(bk.ResourceLimitError, match="capped at 2 qubits"):
        bk.correlation_tensor(state)
    # the cap comes before the 2**N amplitude count is worked out
    with pytest.raises(bk.ResourceLimitError, match="capped at 2 qubits"):
        bk.PureState(3, state.amplitudes)


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.floats(0, 1), max_size=2))
def test_pure_state_path_gives_the_density_path_bytes(n, seed, visibilities):
    """Amplitudes straight to the tensor, against |psi><psi| mixed level by level."""
    from bellkit.cli import _dump_tensor_json

    state = random_pure(np.random.default_rng(seed), n)
    rho = bk.density_from_pure(state)
    for visibility in visibilities:
        rho = bk.mix_with_white_noise(rho, visibility)
    # compared line by line: pytest renders a diff of two long strings slowly
    got = _dump_tensor_json(bk.correlation_tensor(state, visibilities=visibilities))
    assert got.split("\n") == _dump_tensor_json(bk.correlation_tensor(rho)).split("\n")


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
        got, want = qstate.walsh_hadamard(values, n), stacked_walsh_hadamard(values, n)
        assert (got.shape, got.dtype) == (want.shape, want.dtype) == (values.shape, dtype)
        assert got.tobytes() == want.tobytes()
        assert values.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [9, 10])
def test_kernel_bytes_past_the_hypothesis_range(n):
    """Pure GHZ, nested noise and a random dense state at 9 and 10 qubits."""
    ghz = bk.ghz_state(bk.GhzFamily(n, 0.3))
    dense = random_pure(np.random.default_rng(n), n)
    for state, visibilities in ((ghz, ()), (ghz, (0.7, 0.3, 0.9)), (dense, (0.55,))):
        got = bk.correlation_tensor(state, visibilities=visibilities).components
        assert got.tobytes() == transpose_gather_tensor(state, visibilities).tobytes()


@pytest.mark.parametrize("n", [8, 10])
def test_kernel_peak_memory(n):
    """At most three complex 4**N tables at once, the per-N relabel cache included."""
    state = random_pure(np.random.default_rng(n), n)
    qstate._relabel.cache_clear()
    tracemalloc.start()
    try:
        bk.correlation_tensor(state, visibilities=(0.7,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * 4**n
