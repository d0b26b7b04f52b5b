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
signs it (y, z), so one gather of rho along flip masks and one fast
Walsh-Hadamard transform over phase masks give every T at once.

All value types are immutable after construction (arrays are copied in and
marked read-only), so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .tolerance import BOUND_TOL, EXACT_TOL, PSD_TOL, ZERO_TOL

#: Dense 4**N tensors get expensive fast; refuse larger systems by default.
MAX_QUBITS = 10


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
        if self.n_qubits > MAX_QUBITS:
            raise ResourceLimitError(
                f"dense tensors are capped at {MAX_QUBITS} qubits"
            )
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


def correlation_tensor(rho: DensityMatrix) -> CorrelationTensor:
    """Compute all 4**N Pauli expectation values of a density matrix.

    Per qubit, the label k is a flip bit f and a phase bit p: (0, 0) -> 0
    (identity), (1, 0) -> 1 (x), (1, 1) -> 2 (y), (0, 1) -> 3 (z).  The Pauli
    string with flip mask f and phase mask p (qubit 1 the most significant
    bit) sends |z> to i^#y (-1)^(p.z) |z XOR f>, with #y = popcount(f AND p), so

        T = Re( i^#y  sum_z (-1)^(p.z) rho[z, z XOR f] ).

    One gather builds g[f, z] = rho[z, z XOR f], and a fast Walsh-Hadamard
    transform over the N bit axes of z sums it for every phase mask at once:
    N butterfly passes over 4**N entries, so the cost is O(N 4**N).  States
    above MAX_QUBITS are refused before that work starts.
    """
    n = rho.n_qubits
    if n > MAX_QUBITS:
        raise ResourceLimitError(f"dense tensors are capped at {MAX_QUBITS} qubits")
    masks = np.arange(2**n)
    # h[f, z] = rho[z, z XOR f]; qubit 1 is the most significant bit of f and z
    h = rho.matrix[masks, masks[:, None] ^ masks]
    for q in range(n):
        # butterfly on the bit of z that belongs to qubit q + 1
        h = h.reshape((-1, 2, 2 ** (n - q - 1)))
        h = np.stack((h[:, 0] + h[:, 1], h[:, 0] - h[:, 1]), axis=1)
    # now h[f, p]; multiply by i**#y, with #y = popcount(f AND p)
    phase = _I_POWERS[np.bitwise_count(masks[:, None] & masks) % 4]
    values = (h.reshape((2**n, 2**n)) * phase).real
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
