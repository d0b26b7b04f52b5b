"""Multiqubit states, correlation tensors, and measurement geometry.

Correlation data for N qubits is held as the dense tensor

    T[k1, ..., kN] = Tr(rho * sigma_k1 x ... x sigma_kN),   k in {0, 1, 2, 3}

with sigma_0 the identity and sigma_1, sigma_2, sigma_3 the Pauli x, y, z
matrices.  The k=0 slots carry marginal information; the correlation part
proper is the restriction to k in {1, 2, 3}.  Spin measurement directions
are unit 3-vectors; E(a_1, ..., a_N) is the contraction of the correlation
part with one direction per qubit.

`correlation_tensor` gets all 4**N components in O(N 4**N) steps without
forming any Pauli string: per qubit, sigma_k flips the bit (x, y) and/or
signs it (y, z), so one table g[f, z] = rho[z, z XOR f] over flip masks f and
one fast Walsh-Hadamard transform over phase masks give every T at once.  A
`PureState` goes straight to that table, g[f, z] = psi(z) psi*(z XOR f), and
white noise is applied to g, so no 2**N x 2**N matrix is built and nothing
is diagonalized: `PureState` checks its norm, the kernel checks each
visibility, and `CorrelationTensor` checks the identity component and the
[-1, 1] range.  Only a `DensityMatrix` runs `eigvalsh`, for callers who hand
in a matrix.

All value types are immutable after construction (arrays are copied in and
marked read-only), so instances are safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .tolerance import BOUND_TOL, EXACT_TOL, PSD_TOL, ZERO_TOL

#: Dense 4**N tensors get expensive fast; refuse larger systems by default.
MAX_QUBITS = 10


def check_qubit_cap(n_qubits: int) -> None:
    """Refuse more than MAX_QUBITS qubits, before anything of size 2**N is built."""
    if n_qubits > MAX_QUBITS:
        raise ResourceLimitError(f"dense tensors are capped at {MAX_QUBITS} qubits")


def check_visibility(visibility: float) -> None:
    """The weight v of a state in v * state + (1 - v) * white noise lies in [0, 1]."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PureState:
    """State vector of n qubits in the computational basis, norm 1."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        check_qubit_cap(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > EXACT_TOL:
            raise ValueError(f"state vector norm {norm!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PureState":
        n = int(data["n_qubits"])
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return cls(n, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on n qubits."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        dim = 2**self.n_qubits
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > EXACT_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > EXACT_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within 1e-12")
        if np.min(np.linalg.eigvalsh(mat)) < -PSD_TOL:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", _frozen(mat))


@dataclass(frozen=True)
class SettingVector:
    """Unit vector in R^3: a spin measurement direction."""

    components: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.components, dtype=np.float64)
        if vec.shape != (3,):
            raise ValueError("a setting vector has exactly 3 components")
        if abs(np.linalg.norm(vec) - 1.0) > EXACT_TOL:
            raise ValueError("setting vector is not unit length within 1e-12")
        object.__setattr__(self, "components", _frozen(vec))

    @classmethod
    def unit(cls, x: float, y: float, z: float) -> "SettingVector":
        """Build from an unnormalized direction (must be nonzero)."""
        vec = np.array([x, y, z], dtype=np.float64)
        norm = np.linalg.norm(vec)
        if norm < ZERO_TOL:
            raise ValueError("cannot normalize the zero vector")
        return cls(vec / norm)


@dataclass(frozen=True)
class CorrelationTensor:
    """Dense tensor of Pauli expectation values for an n-qubit state."""

    n_qubits: int
    components: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        check_qubit_cap(self.n_qubits)
        comp = np.asarray(self.components, dtype=np.float64)
        if comp.shape != (4,) * self.n_qubits:
            raise ValueError(f"expected shape {(4,) * self.n_qubits}, got {comp.shape}")
        if not np.all(np.isfinite(comp)):
            raise ValueError("components must be finite")
        if abs(comp[(0,) * self.n_qubits] - 1.0) > EXACT_TOL:
            raise ValueError("identity component must be 1 within 1e-12")
        if np.max(np.abs(comp)) > 1.0 + BOUND_TOL:
            raise ValueError("components must lie in [-1, 1] within 1e-9")
        object.__setattr__(self, "components", _frozen(comp))

    def correlation_part(self) -> np.ndarray:
        """The {x,y,z}-only block, shape (3,)*n_qubits."""
        return self.components[(slice(1, 4),) * self.n_qubits]

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "full_components": self.components.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelationTensor":
        return cls(int(data["n_qubits"]), np.array(data["full_components"], dtype=float))


def density_from_pure(state: PureState) -> DensityMatrix:
    """Outer product |psi><psi| as a DensityMatrix."""
    psi = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(psi, psi.conj()))


#: i**m for m = 0..3: the phase a Pauli string carries per y factor.
_I_POWERS = np.array([1, 1j, -1, -1j])
#: Per qubit, the Pauli label k read from index 2f + p of the flip bit f and
#: phase bit p: I = (0, 0), x = (1, 0), y = (1, 1), z = (0, 1).
_FP_INDEX_OF_K = np.array([0, 2, 3, 1])


def correlation_tensor(state: PureState | DensityMatrix, *,
                       visibilities: Sequence[float] = ()) -> CorrelationTensor:
    """Compute all 4**N Pauli expectation values of a state, optionally noisy.

    Each visibility v in `visibilities`, innermost first, mixes the state
    with white noise as mix_with_white_noise does: v * rho + (1 - v) I / 2**N.
    The levels are applied one at a time, not multiplied together, so the
    result has the same bytes as mixing the density matrix level by level.

    Per qubit, the label k is a flip bit f and a phase bit p: (0, 0) -> 0
    (identity), (1, 0) -> 1 (x), (1, 1) -> 2 (y), (0, 1) -> 3 (z).  The Pauli
    string with flip mask f and phase mask p (qubit 1 the most significant
    bit) sends |z> to i^#y (-1)^(p.z) |z XOR f>, with #y = popcount(f AND p), so

        T = Re( i^#y  sum_z (-1)^(p.z) rho[z, z XOR f] ).

    The table g[f, z] = rho[z, z XOR f] is one gather from a DensityMatrix,
    or the product psi(z) psi*(z XOR f) of a PureState's amplitudes.  Noise
    scales g by v and adds (1 - v) / 2**N to its f = 0 row, the diagonal.  A
    fast Walsh-Hadamard transform over the N bit axes of z then sums g for
    every phase mask at once: N butterfly passes over 4**N entries, so the
    cost is O(N 4**N).  States above MAX_QUBITS and visibilities outside
    [0, 1] are refused before that work starts.
    """
    n = state.n_qubits
    check_qubit_cap(n)
    for visibility in visibilities:
        check_visibility(visibility)
    masks = np.arange(2**n)
    # g[f, z] = rho[z, z XOR f]; qubit 1 is the most significant bit of f and z
    flipped = masks[:, None] ^ masks
    if isinstance(state, PureState):
        psi = state.amplitudes
        g = psi * psi.conj()[flipped]
    else:
        g = state.matrix[masks, flipped]
    for visibility in visibilities:
        g = visibility * g
        g[0] += (1 - visibility) / 2**n
    return _pauli_transform(n, g)


def walsh_hadamard(values: np.ndarray, n: int) -> np.ndarray:
    """Apply [[1, 1], [1, -1]] along each of n bits, keeping shape and dtype.

    In C order, values falls into blocks of 2**n entries, each indexed by n
    bits with the most significant first: the axes of a (2,)*n grid, or the
    qubits of z in g[f, z].  Each pass is one butterfly on one bit.
    """
    out = values
    for q in range(n):
        out = out.reshape((-1, 2, 2 ** (n - q - 1)))
        out = np.stack((out[:, 0] + out[:, 1], out[:, 0] - out[:, 1]), axis=1)
    return out.reshape(values.shape)


def _pauli_transform(n: int, g: np.ndarray) -> CorrelationTensor:
    """The tensor T from g[f, z] = rho[z, z XOR f] (correlation_tensor's kernel)."""
    g = walsh_hadamard(g, n)  # one butterfly per bit of z, qubit 1 first
    # now g[f, p]; multiply by i**#y, with #y = popcount(f AND p)
    masks = np.arange(2**n)
    phase = _I_POWERS[np.bitwise_count(masks[:, None] & masks) % 4]
    values = (g.reshape((2**n, 2**n)) * phase).real
    # interleave the bits to (f1, p1, ..., fN, pN), then relabel (f, p) as k
    interleave = [axis for q in range(n) for axis in (q, n + q)]
    values = values.reshape((2,) * (2 * n)).transpose(interleave).reshape((4,) * n)
    # + 0.0 turns the -0.0 that the phase factors leave on zero entries into 0.0
    return CorrelationTensor(n, values[np.ix_(*(_FP_INDEX_OF_K,) * n)] + 0.0)


def quantum_correlation(tensor: CorrelationTensor, settings: list[SettingVector]) -> float:
    """E(a_1, ..., a_N): correlation part contracted with one direction per qubit.

    Directions must be unit vectors; the result of a physical tensor lies in
    [-1, 1] and is checked to that range within 1e-9.
    """
    n = tensor.n_qubits
    if len(settings) != n:
        raise ValueError(f"expected {n} setting vectors, got {len(settings)}")
    # Contracting the full tensor with (0, a) per qubit kills every k=0 slot,
    # which is exactly the correlation-part contraction.
    value = tensor.components
    for vec in settings:
        ext = np.concatenate(([0.0], vec.components))
        value = np.tensordot(ext, value, axes=([0], [0]))
    value = float(value)
    if abs(value) > 1.0 + BOUND_TOL:
        raise ValueError(f"correlation value {value!r} outside [-1, 1]")
    return value
