"""Local hidden-variable analysis of correlation-function data.

An experiment layout fixes the number of measurement settings per party; a
correlation table holds one expectation value E(k_1, ..., k_N) per setting
combination.  For two settings per party the complete family of
correlation-function inequalities is indexed by sign functions
S: {-1,+1}^N -> {-1,+1}:

    | sum_s S(s) sum_k s_1^(k_1-1) ... s_N^(k_N-1) E(k) | <= 2^N

and summing the modulus over all s instead gives the single equivalent
condition general_bell_lhs(table) <= 2^N.  When that bound holds, an explicit
LHV model can be written down whose hidden probabilities are the rescaled
moduli of the transformed table, plus two strategies with opposite
predictions that take up the remaining probability.  For arbitrary layouts,
membership in the polytope spanned by deterministic strategies is decided by
a phase-1 simplex over the vertex list, returning either the convex weights
or a separating hyperplane as a violated Bell inequality.

A model is a mixture {codes: weight} of deterministic strategies, each
encoded as one unsigned integer per party with bit k holding the outcome
sign for setting k+1 (bit 0 means +1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import limits
from .errors import InequalityViolated, ResourceLimitError
from .qstate import json_array, json_fields, json_int, walsh_hadamard
from .simplex import solve_feasibility
from .tolerance import BOUND_TOL, EXACT_TOL


@dataclass(frozen=True)
class ExperimentLayout:
    """Number of measurement settings for each of N >= 1 parties."""

    settings_per_party: tuple[int, ...]

    def __post_init__(self):
        m = self.settings_per_party
        if not isinstance(m, (list, tuple)):
            raise ValueError(f"a layout must be a list of integers, got {m!r}")
        m = tuple(json_int(v, "a layout entry") for v in m)
        if len(m) < 1 or any(v < 1 for v in m):
            raise ValueError("layout needs at least one party, each with >= 1 settings")
        object.__setattr__(self, "settings_per_party", m)

    @property
    def n_parties(self) -> int:
        return len(self.settings_per_party)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.settings_per_party

    def is_two_setting(self) -> bool:
        return all(m == 2 for m in self.settings_per_party)

    def strategy_count(self) -> int:
        return 1 << sum(self.settings_per_party)


@dataclass(frozen=True)
class CorrelationTable:
    """E(k_1, ..., k_N) for every setting combination of a layout."""

    layout: ExperimentLayout
    values: np.ndarray

    def __post_init__(self):
        vals = json_array(self.values, "correlation values", float, self.layout.shape, unit=True)
        object.__setattr__(self, "values", vals)

    def to_json_dict(self) -> dict:
        return {
            "layout": list(self.layout.settings_per_party),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelationTable":
        layout, values = json_fields(data, "layout", "values")
        return cls(ExperimentLayout(layout), values)


@dataclass(frozen=True)
class SignFunction:
    """A function {-1,+1}^arity -> {-1,+1} stored as bits.

    Bit p encodes the value on the argument tuple whose j-th entry is +1 when
    the j-th most significant bit of p is 0 (so p=0 is the all-plus tuple and
    a set bit means the value -1).
    """

    arity: int
    bits: tuple[int, ...]

    def __post_init__(self):
        arity = json_int(self.arity, "arity")
        if arity < 1:
            raise ValueError("arity must be >= 1")
        bits = tuple(json_int(b, "a sign bit") for b in self.bits)
        if len(bits) != 2**arity or any(b not in (0, 1) for b in bits):
            raise ValueError(f"need {2**arity} bits, each 0 or 1")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_bitstring(cls, text: str) -> "SignFunction":
        n = len(text).bit_length() - 1
        if len(text) != 2**n or n < 1:
            raise ValueError("bitstring length must be a power of two, >= 2")
        if set(text) - {"0", "1"}:
            raise ValueError("bitstring may contain only 0 and 1")
        return cls(n, tuple(int(c) for c in text))

    @classmethod
    def chsh(cls) -> "SignFunction":
        """The arity-2 pattern (+1, +1, +1, -1): sqrt2 * sin(3pi/4 + (s1+s2-2)pi/4)."""
        return cls(2, (0, 0, 0, 1))

    def values_grid(self) -> np.ndarray:
        """Values as a (2,)*arity array of +-1; axis j indexes s_j (0 is +1)."""
        vals = 1 - 2 * np.array(self.bits, dtype=np.int64)
        return vals.reshape((2,) * self.arity)

    def __call__(self, s: tuple[int, ...]) -> int:
        idx = tuple((1 - v) // 2 for v in s)
        return int(self.values_grid()[idx])

    def walsh_coefficients(self) -> np.ndarray:
        """c[k] = sum_s S(s) s_1^k_1 ... s_n^k_n over k in {0,1}^arity (integers)."""
        return walsh_hadamard(self.values_grid())


def enumerate_sign_functions(n_parties: int) -> Iterator[SignFunction]:
    """All 2^(2^N) sign functions of arity N in numeric bit order, refused past limits.MAX_COUNT."""
    cap = (limits.MAX_COUNT.bit_length() - 1).bit_length() - 1
    if n_parties > cap:
        raise ResourceLimitError(f"sign-function enumeration is capped at arity {cap}")
    width = 2**n_parties
    for code in range(2**width):
        bits = tuple((code >> (width - 1 - p)) & 1 for p in range(width))
        yield SignFunction(n_parties, bits)


def _outcomes(codes, m: int) -> np.ndarray:
    """+-1 outcomes of m settings for each code, on a new last axis (int64)."""
    return 1 - 2 * ((np.asarray(codes, dtype=np.int64)[..., None] >> np.arange(m)) & 1)


@dataclass(frozen=True)
class LhvModel:
    """Mixture of deterministic strategies.

    ``weights`` maps per-party code tuples to probabilities, which are
    finite, nonnegative and sum to 1.  Unless every code is a Python int and
    every weight a Python int or float, codes are read through json_int and
    weights as JSON numbers (json_array), so a bool is refused and numpy
    scalars become Python numbers.  The model keeps a read-only copy of the
    mapping it is given, so the checks below hold for its whole life.
    """

    layout: ExperimentLayout
    weights: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        weights = dict(self.weights)
        if set(map(type, itertools.chain.from_iterable(weights))) - {int} or set(
                map(type, weights.values())) - {int, float}:
            weights = {tuple(json_int(c, "a strategy code") for c in codes):
                       float(json_array(w, "weight", float, ())) for codes, w in weights.items()}
        object.__setattr__(self, "weights", MappingProxyType(weights))
        total = 0.0
        for codes, w in self.weights.items():
            if len(codes) != self.layout.n_parties:
                raise ValueError("one code per party required")
            for code, m in zip(codes, self.layout.settings_per_party):
                if not 0 <= code < (1 << m):
                    raise ValueError(f"code {code} out of range for {m} settings")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w!r} for strategy {codes}")
            if w < -EXACT_TOL:
                raise ValueError(f"negative weight {w!r} for strategy {codes}")
            total += w
        if abs(total - 1.0) > EXACT_TOL:
            raise ValueError(f"total weight {total!r} is not 1 within 1e-12")

    def to_json_list(self) -> list[dict]:
        """Serialize as strategy/weight records in code order."""
        return [
            {"strategy": list(codes), "weight": w}
            for codes, w in sorted(self.weights.items())
            if w > 0.0
        ]

    @classmethod
    def from_json_list(cls, layout: ExperimentLayout, data: list[dict]) -> "LhvModel":
        weights: dict[tuple[int, ...], float] = {}
        for record in data:
            strategy, weight = json_fields(record, "strategy", "weight")
            codes = tuple(json_int(c, "a strategy code") for c in strategy)
            weight = float(json_array(weight, "weight", float, ()))
            weights[codes] = weights.get(codes, 0.0) + weight
        return cls(layout, weights)


@dataclass(frozen=True)
class BellInequality:
    """Linear bound sum_k c[k] E(k) <= bound on correlation tables.

    Generated inequalities carry exact integer coefficients; separating
    hyperplanes from the polytope oracle carry floats.
    """

    layout: ExperimentLayout
    coefficients: np.ndarray
    bound: float

    def __post_init__(self):
        coeff = json_array(self.coefficients, "coefficients", int, self.layout.shape)
        if not coeff.any():
            raise ValueError("coefficients must not all vanish")
        bound = json_array(self.bound, "bound", int, ()).item()
        if not bound > 0:
            raise ValueError("bound must be positive")
        object.__setattr__(self, "coefficients", coeff)
        exact = coeff.dtype.kind == "i" and float(bound).is_integer()
        object.__setattr__(self, "bound", int(bound) if exact else float(bound))

    def is_integral(self) -> bool:
        return self.coefficients.dtype.kind == "i"

    def to_json_dict(self) -> dict:
        return {
            "layout": list(self.layout.settings_per_party),
            "coefficients": self.coefficients.tolist(),
            "bound": self.bound,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BellInequality":
        layout, coefficients, bound = json_fields(data, "layout", "coefficients", "bound")
        return cls(ExperimentLayout(layout), coefficients, bound)


def evaluate_inequality(ineq: BellInequality, table: CorrelationTable) -> float:
    """The signed expression sum_k c[k] E(k) (not the modulus)."""
    if table.layout != ineq.layout:
        raise ValueError("table layout does not match inequality layout")
    return float(np.sum(ineq.coefficients * table.values))


def sign_inequality(sign: SignFunction) -> BellInequality:
    """The two-setting family member for one sign function.

    Coefficients are the Walsh coefficients of S, the bound is 2^N; the
    expression then equals sum_s S(s) sum_k s_1^(k_1-1)...E(k).
    """
    layout = ExperimentLayout((2,) * sign.arity)
    return BellInequality(layout, sign.walsh_coefficients(), 2**sign.arity)


def transformed_table(table: CorrelationTable) -> np.ndarray:
    """f(s) = sum_k s_1^(k_1-1)...s_N^(k_N-1) E(k) over s in {-1,+1}^N.

    Axis j indexes s_j with 0 meaning +1.  This is the per-axis Hadamard
    transform of the table values; every two-setting function relies on its
    layout check.
    """
    if not table.layout.is_two_setting():
        raise ValueError("operation requires exactly two settings per party")
    return walsh_hadamard(table.values)


def _hidden_weights(f: np.ndarray) -> np.ndarray:
    """2^-N |f(s)|, the weight of s in the explicit LHV model, as an array like f."""
    return np.abs(f) / 2**f.ndim


def general_bell_lhs(table: CorrelationTable) -> float:
    """sum_s |f(s)|, to be compared with the local-realistic bound 2^N."""
    return float(np.sum(np.abs(transformed_table(table))))


def construct_lhv_model(table: CorrelationTable) -> LhvModel:
    """Build an explicit LHV model for a table satisfying the 2^N bound.

    Each s with hidden weight 2^-N |f(s)| > 0 gets one strategy: with
    neg = [f(s) < 0] and b_j = [s_j = -1], party 1 plays code
    neg | (neg ^ b_1) << 1 and party j plays b_j << 1 (bit k set means
    outcome -1 at setting k+1).  It predicts sign(f(s)) s_1^(k_1-1)...s_N^(k_N-1),
    so the weighted sum inverts the transform exactly.  A positive deficit
    1 - sum_s |f(s)|/2^N goes half to the all-plus strategy (0, ..., 0) and
    half to its party-1 flip (3, 0, ..., 0), which predict +1 and -1 on every
    correlation function and so cancel; a model has at most 2^N + 2
    strategies.  Tables up to BOUND_TOL past the bound count as local, as in
    polytope_membership; their weights are renormalized.  As there, the
    model is checked to reproduce the table within BOUND_TOL + EXACT_TOL,
    and a failed check raises RuntimeError; the predicted table is the one
    evaluate_model gives, from one Walsh-Hadamard transform.
    """
    f = transformed_table(table)
    n = table.layout.n_parties
    lhs = float(np.sum(np.abs(f)))
    if lhs > 2**n + BOUND_TOL:
        raise InequalityViolated(
            f"general two-setting expression {lhs!r} exceeds {2**n}", lhs
        )
    p = _hidden_weights(f)
    used = np.nonzero(p)
    neg = (f[used] < 0).astype(np.intp)
    parties = [neg | ((neg ^ used[0]) << 1)] + [b << 1 for b in used[1:]]
    weights = dict(zip(zip(*(c.tolist() for c in parties)), p[used].tolist()))
    total = sum(weights.values())
    if total > 1.0:
        weights = {codes: w / total for codes, w in weights.items()}
    elif total < 1.0:
        rest = (0,) * (n - 1)
        for codes in ((0,) + rest, (3,) + rest):
            weights[codes] = weights.get(codes, 0.0) + (1.0 - total) / 2
    model = LhvModel(table.layout, weights)
    _check_residual("closed-form", _predicted(model), table.values)
    return model


def _check_residual(oracle: str, predicted: np.ndarray, values: np.ndarray) -> float:
    """max |predicted - values|, a model's residual against its table; past
    BOUND_TOL + EXACT_TOL it raises RuntimeError, naming the oracle."""
    residual = float(np.max(np.abs(predicted - values)))
    if not residual <= BOUND_TOL + EXACT_TOL:
        raise RuntimeError(
            f"{oracle} model check failed: residual {residual!r} exceeds 1e-9 + 1e-12")
    return residual


def _vertex_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """The flattened vertex tensors of R strategies, one per row: the row-wise
    Kronecker product of each party's (R x m_j) +-1 outcome rows."""
    product, *rest = rows
    for factor in rest:
        width = product.shape[1] * factor.shape[1]  # explicit: R may be 0
        product = (product[:, :, None] * factor[:, None, :]).reshape(len(product), width)
    return product


def _two_setting_prediction(model: LhvModel) -> np.ndarray:
    """The table a two-setting model predicts, from one Walsh-Hadamard transform.

    Party j of a strategy plays a_j at setting 1 and a_j t_j at setting 2, so
    the strategy predicts prod_j a_j t_j^(k_j-1).  Summed over strategies with
    their weights, that is the transform of the grid holding the weighted
    prod_j a_j at each hidden sign pattern t (axis j indexes t_j, 0 meaning +1).
    """
    n = model.layout.n_parties
    codes = np.array(list(model.weights), dtype=np.int64).reshape(-1, n)
    weights = np.fromiter(model.weights.values(), float, len(model.weights))
    signs = 1 - 2 * (np.bitwise_xor.reduce(codes, axis=1) & 1)  # prod_j a_j
    cells = ((codes ^ codes >> 1) & 1) @ (1 << np.arange(n)[::-1])
    grid = np.bincount(cells, weights=signs * weights, minlength=2**n)
    return walsh_hadamard(grid.reshape((2,) * n))


def _predicted(model: LhvModel) -> np.ndarray:
    """The table values a model predicts: its weights times its strategies' vertex rows.

    A two-setting model, such as a closed-form one of up to 2^N + 2
    strategies, takes _two_setting_prediction instead, whose cost grows with
    the table and not with table times strategies.  Otherwise the rows are
    formed for blocks of strategies of at most limits.MAX_COUNT entries.
    """
    if model.layout.is_two_setting():
        return _two_setting_prediction(model)
    shape = model.layout.shape
    outcomes = _outcomes(list(model.weights), max(shape)).astype(float)
    weights = np.fromiter(model.weights.values(), float, len(model.weights))
    step = max(1, limits.MAX_COUNT // math.prod(shape))
    values = sum(weights[i:i + step] @ _vertex_rows([outcomes[i:i + step, j, :m]
                                                     for j, m in enumerate(shape)])
                 for i in range(0, len(weights), step))
    return values.reshape(shape)


def evaluate_model(model: LhvModel) -> CorrelationTable:
    """Correlation table predicted by a mixture of deterministic strategies:
    sum over strategies of weight times the product of the parties' outcomes."""
    return CorrelationTable(model.layout, _predicted(model))


def _vertex_factors(layout: ExperimentLayout) -> tuple[list[range], list[np.ndarray]]:
    """Each party's representative codes and their (codes x settings) +-1 outcomes.

    Flipping all outcomes of an even number of parties leaves every product
    unchanged, so representatives fix the first-setting outcome of parties
    2..N to +1 (even codes) while party 1 ranges over everything.  Each
    distinct vertex is the Kronecker product of one outcome row per party.
    Layouts with more than limits.MAX_COUNT strategies raise ResourceLimitError.
    """
    if layout.strategy_count() > limits.MAX_COUNT:
        raise ResourceLimitError(
            f"layout has {layout.strategy_count()} strategies, cap is {limits.MAX_COUNT}")
    first, *rest = layout.shape
    ranges = [range(1 << first)] + [range(0, 1 << m, 2) for m in rest]
    return ranges, [_outcomes(codes, m) for codes, m in zip(ranges, layout.shape)]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices as one broadcast product, without np.kron's
    per-call overhead, which the small layouts of the LP path would feel."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def enumerate_vertices(layout: ExperimentLayout) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Distinct vertex tensors of the correlation polytope.

    Returns representative strategy codes and an integer matrix with one
    flattened product tensor per row, in lexicographic code order: the
    Kronecker product of the per-party outcome matrices of _vertex_factors,
    whose representative rule and strategy cap it shares.  The product is
    formed right to left, so each step's rows stay long; it is associative,
    so the matrix is the one the left-to-right order gives.
    """
    ranges, factors = _vertex_factors(layout)
    vertices = factors[-1]
    for factor in factors[-2::-1]:
        vertices = _kron(factor, vertices)
    return list(itertools.product(*ranges)), vertices


@dataclass(frozen=True)
class PolytopeResult:
    """The LP verdict: a model or a certificate, and the work behind it.

    ``residual`` is max |V lambda - values| of an inside model; the pivot
    counts are the simplex's total and its degenerate pivots (a step of at
    most BOUND_TOL).
    """

    inside: bool
    model: LhvModel | None
    certificate: BellInequality | None
    lp_iterations: int = field(default=0, compare=False)
    lp_degenerate: int = field(default=0, compare=False)
    residual: float | None = field(default=None, compare=False)


def polytope_membership(table: CorrelationTable) -> PolytopeResult:
    """Decide whether a table is a mixture of deterministic strategies.

    Feasibility of V lambda = values, lambda >= 0, sum lambda = 1 over the
    distinct vertex tensors.  Inside: weights above EXACT_TOL are rescaled to
    sum to 1 and become an LhvModel, after a check that they are nonnegative,
    sum to 1 within EXACT_TOL and reproduce the table within BOUND_TOL (plus
    EXACT_TOL of rounding, since the LP's own slack is BOUND_TOL); a failed
    check raises RuntimeError.  Outside: the phase-1 simplex's Farkas vector,
    the duals at its exit, gives a hyperplane separating the table from every
    vertex.  The last row of A is the convexity row, so phase 1 stops as soon
    as those duals, shifted along that row, separate the table; at the first
    basis they are the signs of the table (+1 at 0), and the certificate is
    the table's own sign inequality with +-1 coefficients and an integral
    bound.  Otherwise they are the duals at the phase-1 optimum, with float
    coefficients.  The vector's table part, scaled to a largest coefficient of
    1, is returned as a violated BellInequality whose bound is its maximum
    over the vertices, after a check that the table's value exceeds that
    bound; a failed check raises RuntimeError.  Both checks read the vertices
    from A's float copy, not from the integer matrix.
    """
    layout = table.layout
    codes, vertices = enumerate_vertices(layout)
    dim = vertices.shape[1]
    # A's columns, one float row per vertex and its normalization entry; the
    # simplex reads A through the transposed view and never copies it
    columns = np.empty((len(codes), dim + 1))
    columns[:, :dim] = vertices
    columns[:, dim] = 1.0
    vertices = columns[:, :dim]
    b = np.concatenate([table.values.ravel(), [1.0]])

    result = solve_feasibility(columns.T, b)
    work = {"lp_iterations": result.iterations, "lp_degenerate": result.degenerate}
    if result.feasible:
        lam = np.where(result.x > EXACT_TOL, result.x, 0.0)
        lam /= lam.sum()
        if np.any(result.x < 0):
            raise RuntimeError("LP model check failed: a weight is negative")
        if not abs(lam.sum() - 1.0) <= EXACT_TOL:
            raise RuntimeError("LP model check failed: weights do not sum to 1 within 1e-12")
        residual = _check_residual("LP", lam @ vertices, table.values.ravel())
        used = np.flatnonzero(lam)
        model = LhvModel(layout, {codes[i]: float(lam[i]) for i in used})
        return PolytopeResult(True, model, None, residual=residual, **work)

    y = result.farkas
    coeff = y[:dim]
    scale = np.max(np.abs(coeff))
    if scale <= 0:
        raise RuntimeError("degenerate separating hyperplane")
    coeff = coeff / scale
    bound = float(np.max(vertices @ coeff))
    certificate = BellInequality(layout, coeff.reshape(layout.shape), bound)
    value = evaluate_inequality(certificate, table)
    if not value > bound:
        raise RuntimeError(
            f"LP certificate check failed: value {value!r} does not exceed bound {bound!r}")
    return PolytopeResult(False, None, certificate, **work)


def most_violated_sign_inequality(table: CorrelationTable) -> tuple[SignFunction, float]:
    """The family member maximizing |sum_s S(s) f(s)|: S matching the signs of f.

    Returns the maximizer and its expression value sum_s |f(s)|.
    """
    f = transformed_table(table)
    bits = tuple(0 if v >= 0 else 1 for v in f.ravel())
    sign = SignFunction(table.layout.n_parties, bits)
    return sign, float(np.sum(np.abs(f)))
