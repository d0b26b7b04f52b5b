"""Reference state families used to probe the violation conditions.

The generalized GHZ family is cos(alpha)|0...0> + sin(alpha)|1...1>.  Its
correlation tensor has a closed form: components whose indices are all z or
identity equal 1 for an even number of z's and cos(2 alpha) for an odd
number; components with every index in {x, y} and 2k y's equal
(-1)^k sin(2 alpha); everything else vanishes.  In particular there are
2^(N-1) nonvanishing components on the {x,y} block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    CorrelationTensor,
    DensityMatrix,
    PureState,
    check_visibility,
    qubit_count,
)
from .tolerance import ALPHA_SLACK


@dataclass(frozen=True)
class GhzFamily:
    """Parameters of the generalized GHZ state on n_qubits qubits."""

    n_qubits: int
    alpha: float

    def __post_init__(self):
        # refused past the qubit cap: ghz_state and ghz_tensor_analytic allocate 2**N and 4**N
        object.__setattr__(self, "n_qubits", qubit_count(self.n_qubits))
        if self.n_qubits < 2:
            raise ValueError("the family needs at least 2 qubits")
        if not -ALPHA_SLACK <= self.alpha <= math.pi / 4 + ALPHA_SLACK:
            raise ValueError("alpha must lie in [0, pi/4]")


def singlet() -> PureState:
    """(|01> - |10>) / sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1 / math.sqrt(2)
    amps[2] = -1 / math.sqrt(2)
    return PureState(2, amps)


def ghz_state(family: GhzFamily) -> PureState:
    """cos(alpha)|0...0> + sin(alpha)|1...1>."""
    amps = np.zeros(2**family.n_qubits, dtype=complex)
    amps[0] = math.cos(family.alpha)
    amps[-1] = math.sin(family.alpha)
    return PureState(family.n_qubits, amps)


def ghz_tensor_analytic(family: GhzFamily) -> CorrelationTensor:
    """Closed-form correlation tensor of the generalized GHZ state.

    Only 2 * 2^N of the 4^N components can be nonzero: the {identity, z}
    block and the even-y {x, y} block; both are filled directly.
    """
    n = family.n_qubits
    cos2a = math.cos(2 * family.alpha)
    sin2a = math.sin(2 * family.alpha)
    comp = np.zeros((4,) * n)
    # indices drawn from {0, 3}: 1 if the number of z's is even, cos2a if odd
    for pattern in np.ndindex(*(2,) * n):
        idx = tuple(3 * b for b in pattern)
        n_z = sum(pattern)
        comp[idx] = 1.0 if n_z % 2 == 0 else cos2a
    # indices drawn from {1, 2}: (-1)^k sin2a for 2k y's, zero for odd y count
    for pattern in np.ndindex(*(2,) * n):
        n_y = sum(pattern)
        if n_y % 2 != 0:
            continue
        idx = tuple(1 + b for b in pattern)
        comp[idx] = (-1.0) ** (n_y // 2) * sin2a
    return CorrelationTensor(n, comp)


def scarani_gisin_threshold(n_qubits: int) -> float:
    """sin(2 alpha) below which no two-setting member is violated: 2^-(N-1)/2."""
    if n_qubits < 2:
        raise ValueError("threshold is defined for N >= 2")
    return 2.0 ** (-(n_qubits - 1) / 2)


def mix_with_white_noise(rho: DensityMatrix, visibility: float) -> DensityMatrix:
    """v * rho + (1 - v) * identity / 2^N; scales every correlation by v."""
    check_visibility(visibility)
    dim = 2**rho.n_qubits
    mixed = visibility * rho.matrix + (1 - visibility) * np.eye(dim) / dim
    return DensityMatrix(rho.n_qubits, mixed)
