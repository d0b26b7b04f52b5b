"""Multiqubit states and their correlation tensors.

Correlation data for N qubits is held as the dense tensor

    T[k1, ..., kN] = Tr(rho * sigma_k1 x ... x sigma_kN),   k in {0, 1, 2, 3}

with sigma_0 the identity and sigma_1, sigma_2, sigma_3 the Pauli x, y, z
matrices.  The k=0 slots carry marginal information; the correlation part
proper is the restriction to k in {1, 2, 3}: contracted with one unit
3-vector per qubit, a spin measurement direction, it gives the correlation
function E(a_1, ..., a_N).

`correlation_tensor` gets all 4**N components in O(N 4**N) steps without
forming any Pauli string: per qubit, sigma_k flips the bit (x, y) and/or
signs it (y, z), so one table g[z, f] = rho[z, z XOR f] over flip masks f,
one in-place fast Walsh-Hadamard transform over z and one cached gather give
every T at once.  A `PureState` goes straight to that table,
g[z, f] = psi(z) psi*(z XOR f), and white noise is applied to g, so no
2**N x 2**N matrix is built and nothing is diagonalized.  Of a pure state
with a small support S (|S|**2 < 2**N, as for GHZ or W states) only the live
flip columns f = z XOR z' (z, z' in S) are tabulated and transformed, and
their labels are written into a zeroed tensor: every other column is a sum
of products with an exact-zero factor, so its labels are exactly 0.
`PureState` checks its norm, the kernel checks each visibility, and
`CorrelationTensor` checks the identity component and the [-1, 1] range.
Only a `DensityMatrix` runs `eigvalsh`, for callers who hand in a matrix.

All value types are immutable after construction: `json_array` reads arrays in
read-only, copied unless no one can write to them, so instances are thread-safe.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import limits
from .errors import ResourceLimitError
from .tolerance import BOUND_TOL, EXACT_TOL, PSD_TOL


def check_qubit_cap(n_qubits: int) -> None:
    """Refuse N qubits if 4**N > limits.MAX_COUNT, before anything of size 2**N is built."""
    cap = (limits.MAX_COUNT.bit_length() - 1) // 2
    if n_qubits > cap:
        raise ResourceLimitError(f"dense tensors are capped at {cap} qubits")


def qubit_count(value) -> int:
    """An n_qubits field: read by json_int, at least 1 and within check_qubit_cap."""
    n_qubits = json_int(value, "n_qubits")
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    check_qubit_cap(n_qubits)
    return n_qubits


def json_int(value, what: str) -> int:
    """An integer field: an int or a whole-valued float such as JSON's 2.0, not a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_visibility(visibility: float) -> None:
    """The weight v of a state in v * state + (1 - v) * white noise lies in [0, 1]."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")


def json_fields(data, *keys: str) -> list:
    """The values of keys in a JSON object, in order."""
    try:
        return [data[key] for key in keys]
    except (KeyError, TypeError):  # a missing key, or data is no object
        raise ValueError(f"expected an object with fields {', '.join(map(repr, keys))}") from None


def json_array(value, what: str, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """A field of numbers as a read-only array of the given shape, () for one number.

    Nested lists, as JSON gives them, hold only Python ints and floats, nested
    evenly; an ndarray holds numbers, not bools.  dtype is float for float64;
    complex for complex128, whose lists hold [re, im] pairs; or int: lists are
    int64 if every entry is whole and below 2**63 in magnitude, an ndarray if
    its dtype is a signed integer, and float64 otherwise.  Every entry is
    finite, and an int too large for float64 is not.  An ndarray that is
    read-only and owns its data, so that no view can write to it, is kept uncopied.
    """
    numbers = "numbers" if shape else "a number"
    if isinstance(value, (np.ndarray, np.generic)):
        arr = np.asarray(value)
        if arr.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
            raise ValueError(f"{what} must be {numbers}, not {arr.dtype}")
        if dtype is int:
            dtype = np.int64 if arr.dtype.kind == "i" else np.float64
        arr = arr.astype(dtype, copy=False)
        if arr.base is not None or arr.flags.writeable:
            arr = arr.copy()
        got, want = arr.shape, shape
    else:
        level, kinds = [value], {type(value)}
        while list in kinds:  # one level of nesting per pass; np.array checks the lengths
            if len(kinds) > 1:
                raise ValueError(f"{what} must be evenly nested lists, not ragged ones")
            level = [leaf for sub in level for leaf in sub]
            kinds = set(map(type, level))
        for leaf in () if kinds <= {int, float} else level:  # the first other entry is named
            if type(leaf) not in (int, float):
                name = {bool: "true or false", str: "a string", type(None): "null",
                        dict: "an object"}.get(type(leaf), f"a {type(leaf).__name__}")
                raise ValueError(f"{what} must be {numbers}, not {name}")
        whole = dtype is int and all(-2**63 < x < 2**63 and x % 1 == 0 for x in level)
        try:
            arr = np.array(value, np.int64 if whole else np.float64)
        except OverflowError:  # an int past float64, refused as an infinite float is
            raise ValueError(f"{what} must be finite") from None
        except ValueError:  # lists of unequal lengths at one depth
            raise ValueError(f"{what} must be evenly nested lists, not ragged ones") from None
        got, want = arr.shape, shape + (2,) if dtype is complex else shape
        if got == want and dtype is complex:
            arr = arr.view(np.complex128)  # C order: each pair's re and im are adjacent
    if got != want:
        raise ValueError(f"{what} must have shape {want}, got {got}")
    arr.shape = shape  # in place, not a reshaped view
    arr.flags.writeable = False
    # NaN propagates through min and max, so both are finite only if all entries are
    kind = arr.dtype.kind
    for part in (arr.real, arr.imag) if kind == "c" else (arr,) if kind == "f" else ():
        if not (math.isfinite(part.min()) and math.isfinite(part.max())):
            raise ValueError(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class PureState:
    """State vector of n qubits in the computational basis, norm 1."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", qubit_count(self.n_qubits))
        amps = json_array(self.amplitudes, "amplitudes", complex, (2**self.n_qubits,))
        with np.errstate(over="ignore"):  # a huge amplitude gives an infinite norm, refused
            norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > EXACT_TOL:
            raise ValueError(f"state vector norm {norm!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PureState":
        return cls(*json_fields(data, "n_qubits", "amplitudes"))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on n qubits."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", qubit_count(self.n_qubits))
        dim = 2**self.n_qubits
        mat = json_array(self.matrix, "matrix entries", complex, (dim, dim))
        if np.max(np.abs(mat - mat.conj().T)) > EXACT_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > EXACT_TOL:
            raise ValueError(f"trace {tr!r} is not 1 within 1e-12")
        if np.min(np.linalg.eigvalsh(mat)) < -PSD_TOL:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class CorrelationTensor:
    """Dense tensor of Pauli expectation values for an n-qubit state."""

    n_qubits: int
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", qubit_count(self.n_qubits))
        comp = json_array(self.components, "components", float, (4,) * self.n_qubits)
        if abs(comp[(0,) * self.n_qubits] - 1.0) > EXACT_TOL:
            raise ValueError("identity component must be 1 within 1e-12")
        if max(comp.max(), -comp.min()) > 1.0 + BOUND_TOL:
            raise ValueError("components must lie in [-1, 1] within 1e-9")
        object.__setattr__(self, "components", comp)

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
        return cls(*json_fields(data, "n_qubits", "full_components"))


def density_from_pure(state: PureState) -> DensityMatrix:
    """Outer product |psi><psi| as a DensityMatrix."""
    psi = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(psi, psi.conj()))


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

    The z-major table g[z, f] = rho[z, z XOR f] is one gather from a
    DensityMatrix, or the product psi(z) psi*(z XOR f) of a PureState's
    amplitudes.  Noise scales g by v in place and adds (1 - v) / 2**N to its
    f = 0 column, the diagonal.  A fast Walsh-Hadamard transform over z then
    sums g for every phase mask at once, in place: N butterfly passes over
    4**N entries, each on contiguous rows of at least 2**N, so the cost is
    O(N 4**N).  T is +Re, -Im, -Re or +Im of the result h[p, f] as #y mod 4
    is 0, 1, 2 or 3, so one gather and one masked negation, cached per N,
    relabel h to k with no complex multiply.  States past the qubit cap and
    visibilities outside [0, 1] are refused before that work starts.

    A column f of a PureState's g can be nonzero only if f = z XOR z' for two
    nonzero amplitudes; in any other column every product has an exact-zero
    factor, so its h and its labels are zeros, +0.0 once the final += 0.0 has
    run.  When the support S of psi has |S|**2 < 2**N, only those live
    columns are tabulated, noised and transformed: a GHZ state has 2 of 2**N,
    so the work falls to O(N 2**N) plus one zeroed 4**N output.  Each pass of
    the transform works column by column, so the live columns come out with
    the bits the full table gives them, and the relabel writes their
    labels, picked from the bits of p and f, straight into the zeroed output
    without the cached 4**N gather.  A DensityMatrix, or a pure state with a
    wider support, keeps every column and the cached gather.
    """
    n = state.n_qubits
    check_qubit_cap(n)
    for visibility in visibilities:
        check_visibility(visibility)
    masks = np.arange(2**n)
    live = _live_flips(state)
    # g[z, f] = rho[z, z XOR f]; qubit 1 is the most significant bit of z and f
    flipped = masks[:, None] ^ (masks if live is None else live)
    if isinstance(state, PureState):
        psi = state.amplitudes
        g = psi.conj()[flipped]
        np.multiply(psi[:, None], g, out=g)  # psi first: the swapped product rounds otherwise
    else:
        g = state.matrix[masks[:, None], flipped]
    del flipped  # int64, half of g's bytes: freed before the transform and relabel
    for visibility in visibilities:
        g *= visibility
        g[:, 0] += (1 - visibility) / 2**n  # f = 0 is also the first live column
    _butterflies(g, n)  # now g[p, f]
    if live is None:
        offsets, negate = _relabel(n)
    else:
        offsets, negate, labels = _live_relabel(n, live)
    values = g.view(np.float64).take(offsets)
    np.negative(values, out=values, where=negate)
    values += 0.0  # turns the -0.0 that negation leaves on zero entries into 0.0
    if live is not None:  # every other label comes from an all-zero column: +0.0
        values, live_values = np.zeros((4,) * n), values
        np.put(values, labels, live_values)
    values.flags.writeable = False  # no one else holds values: the tensor keeps it uncopied
    return CorrelationTensor(n, values)


def _live_flips(state: PureState | DensityMatrix) -> np.ndarray | None:
    """The flip masks f that can give a nonzero column of g, sorted; None for all of them.

    psi(z) psi*(z XOR f) is nonzero only if z and z XOR f are both in the
    support S of psi, so f is one of {z XOR z' : z, z' in S}, a set that
    holds f = 0 and at most |S|**2 masks.  That set is returned for a
    PureState with |S|**2 < 2**n; a DensityMatrix, or a wider support,
    keeps every column.
    """
    if not isinstance(state, PureState):
        return None
    support = np.flatnonzero(state.amplitudes)
    if support.size**2 >= 2**state.n_qubits:
        return None
    live = np.zeros(2**state.n_qubits, bool)  # a mask, not np.unique, which imports numpy.ma
    live[support[:, None] ^ support] = True
    return np.flatnonzero(live)


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Apply [[1, 1], [1, -1]] along each axis of a (2,)*n grid, keeping
    shape and dtype.

    Axis j is bit j of the C-order index, the most significant first.  The
    input is not changed; the butterflies run in place on a C-order copy.
    """
    out = np.array(values, order="C")
    _butterflies(out, out.ndim)
    return out


def _butterflies(a: np.ndarray, n: int) -> None:
    """Walsh-Hadamard transform, in place, over the leading n bits of C-contiguous a.

    One pass per bit, most significant first, (top, bottom) -> (top + bottom,
    top - bottom) through one half-size scratch buffer.
    """
    scratch = np.empty(a.size // 2, a.dtype)
    for q in range(n):
        pairs = a.reshape((2**q, 2, -1))
        top, bottom = pairs[:, 0], pairs[:, 1]
        diff = scratch.reshape(top.shape)
        np.subtract(top, bottom, out=diff)
        top += bottom
        bottom[...] = diff


@functools.cache
def _relabel(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per label k, the float64 offset of T[k] in h[p, f] and whether to negate it.

    Qubit by qubit, k's flip and phase bits place it at complex index
    p * 2**n + f, float64 offset twice that, and each y adds 1 to #y; #y mod 4
    then picks +Re, -Im, -Re or +Im.  Offset and #y share one int32, #y in
    the low 4 bits (#y <= N, at most 10 at the default qubit cap), so one
    outer sum per qubit builds both and no 4**N int64 array is made.
    """
    f_bit, p_bit = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])  # k = I, x, y, z
    packed = np.zeros((), np.int32)
    for q in range(n):
        index = (f_bit + (p_bit << n)) << (n - 1 - q)
        packed = np.add.outer(packed, ((2 * index) << 4 | f_bit & p_bit).astype(np.int32))
    y_count = packed & 15
    negate = ((y_count + 1) & 2).astype(bool)
    offsets = packed >> 4
    offsets += y_count & 1
    offsets.flags.writeable = negate.flags.writeable = False
    return offsets, negate


def _live_relabel(n: int, live: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_relabel's offsets and negations for the live columns h[p, j] = h[p, live[j]],
    and the flat label k of each, all of shape (2**n, len(live)).

    Qubit by qubit the phase and flip bits (p, f) give k = 2 p + (f XOR p),
    so k is 2 spread(p) + spread(p XOR f), where spread moves bit q to bit 2q.
    """
    masks = np.arange(2**n)
    spread = np.zeros(2**n, np.int64)
    for q in range(n):
        spread |= (masks >> q & 1) << 2 * q
    p, f = masks[:, None], live
    y_count = np.bitwise_count(p & f)
    offsets = 2 * (p * live.size + np.arange(live.size)) + (y_count & 1)
    negate = ((y_count + 1) & 2).astype(bool)
    return offsets, negate, 2 * spread[p] + spread[p ^ f]
