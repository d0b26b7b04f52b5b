"""Quantum violation conditions on correlation tensors.

Three condition values are computed, each compared against 1:

* two_setting_NS_2qubit: for two qubits, the sum of the two largest
  eigenvalues of M^T M with M the 3x3 correlation matrix.  Exceeding 1 is
  necessary and sufficient for violating some two-setting member; exact.

* two_setting_sufficient_N: max over one measurement plane per party of the
  sum of squared correlation components with every index in the plane.
  Computed by alternating per-party plane updates (top-2 eigenvectors of the
  party's contracted positive matrix) from random restarts, so the reported
  value is a certified lower bound on the true maximum.  two_setting_upper
  bounds it from above, and the restarts stop once they reach that bound
  less SWEEP_TOL, where the value is exact to within that tolerance.

* multisetting_CN: the recursive condition behind the family on
  2^(N-1) x 2^(N-1) x 2^(N-2) x ... x 4 x 2 settings, which
  multiset.layout_tree builds for generate (8 x 8 x 4 x 2 at N=4; it is the
  4 x ... x 4 x 2 chain only at N=3).  Parties 1 and 2 get independent
  planes per trailing index tuple (closed form: two largest eigenvalues of
  M_t M_t^T); each trailing party gets one plane per branch of the indices
  behind it, which gives that family's setting counts.  Exact for N=2,
  otherwise an optimizer lower bound.  cn_upper bounds it from above by the
  top two eigenvalues of the last party's Gram matrix, and the restarts stop
  once one reaches that bound less SWEEP_TOL.  A sweep updates the trailing
  parties in turn, one orthonormal pair step per plane: three closed-form
  rotations about the pair's three axes, the best unit vector orthogonal
  to b for a, then the best one orthogonal to a for b (each the top
  eigenvector of a 2x2 matrix), then the best turn of the pair in its own
  plane.  A restart stops once a sweep gains at most SWEEP_TOL, so the
  sweep test alone decides when the pairs are stationary.  A term's value
  s1^2 + s2^2 is |M|_F^2 - |M v|^2, with v its weakest right singular
  vector, found in closed form (_cn_weakest) rather than by an SVD; the
  vectors that end a sweep give its value and the first party's bound in
  the next sweep.  One SVD of the winner's terms gives the report's frames.

maximize_bell_value runs see-saw ascent on an arbitrary inequality: each
per-party, per-setting vector update is the normalized contraction of the
coefficient tensor with all other current vectors, which is the exact
optimum for that vector and never decreases the objective.

All three optimizers check their arguments with check_restarts and share one
multi-start driver, _multistart, that carries a block of restarts on a leading
batch axis, so every update is one batched numpy call, and re-evaluates the
winner if it swept.  Given a proven upper bound, as both N-party conditions
are, a restart that reaches it sweeps no more, and every restart after the
first one that does is dropped.  two_setting_upper takes the bound of
every party's unfolding in one batched eigvalsh; cn_upper needs only the
last party's.  The two-setting and see-saw sweeps share one contraction,
_environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from . import limits
from .errors import ResourceLimitError
from .lhv import BellInequality
from .qstate import CorrelationTensor
from .tolerance import BOUND_TOL, SWEEP_TOL, ZERO_TOL

#: The condition kinds, in the order the module docstring describes them.
CONDITION_KINDS = ("two_setting_NS_2qubit", "two_setting_sufficient_N", "multisetting_CN")

#: A block of restarts holds about this many tensor entries (3^N per restart
#: for the conditions), which bounds memory for any restart count and N.
_BLOCK_ENTRIES = 1 << 15

#: The xy, xz and yz planes, the first restarts' starting frames.
_CANONICAL_PLANES = np.eye(3)[[[0, 1], [0, 2], [1, 2]]]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition evaluation.

    Each restart that ran gives its final value and whether it converged
    within limits.MAX_SWEEPS sweeps; a closed form counts as one converged
    restart.  On generic (non-GHZ) states some multisetting_CN restarts may
    still be rising after that many sweeps, so their converged flags are
    False.  upper is a proven upper bound on the condition: the value itself
    for the two-qubit closed form and the N=2 multisetting_CN, else
    two_setting_upper or cn_upper, and the restarts stop once one reaches it
    (_multistart).  A value above upper by more than BOUND_TOL is refused.
    violated means the value exceeds 1 by more than BOUND_TOL: for two
    qubits that decides a violation, for N >= 3 it shows only that the
    condition, which every violation needs, holds.  restarts_at_best counts
    the restarts within BOUND_TOL of the reported value.
    """

    kind: str
    value: float
    upper: float | None
    violated: bool = field(init=False)
    frames: Any
    certified: str
    seed: int | None
    restart_values: tuple[float, ...] = field(repr=False)
    converged: tuple[bool, ...] = field(repr=False)
    restarts_at_best: int = field(init=False)

    def __post_init__(self):
        if self.kind not in CONDITION_KINDS:
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if self.certified not in ("exact", "lower_bound"):
            raise ValueError("certified must be 'exact' or 'lower_bound'")
        if self.value < 0:
            raise ValueError("condition values are nonnegative")
        if self.upper is not None and self.value > self.upper + BOUND_TOL:
            raise ValueError(f"condition value {self.value} is above its bound {self.upper}")
        if len(self.converged) != len(self.restart_values):
            raise ValueError("one converged flag per restart value")
        object.__setattr__(self, "violated", self.value > 1 + BOUND_TOL)
        at_best = np.abs(np.asarray(self.restart_values) - self.value) <= BOUND_TOL
        object.__setattr__(self, "restarts_at_best", int(np.sum(at_best)))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "violated": self.violated,
            "frames": self.frames,
            "certified": self.certified,
            "seed": self.seed,
        }


def _frames_json(frames: list[np.ndarray]) -> list:
    return [f.tolist() for f in frames]


def check_two_qubit(n_qubits: int) -> None:
    """Refuse two_setting_NS_2qubit on any but 2 qubits."""
    if n_qubits != 2:
        raise ValueError("two_setting_NS_2qubit applies to 2-qubit tensors only")


def condition_two_qubit(tensor: CorrelationTensor) -> ConditionReport:
    """Sum of the two largest eigenvalues of M^T M for a two-qubit tensor."""
    check_two_qubit(tensor.n_qubits)
    m = tensor.correlation_part()
    u, s, vt = np.linalg.svd(m)
    value = float(s[0] ** 2 + s[1] ** 2)
    frames = [u[:, :2].T.copy(), vt[:2].copy()]
    return ConditionReport(
        kind="two_setting_NS_2qubit",
        value=value,
        upper=value,
        frames=_frames_json(frames),
        certified="exact",
        seed=None,
        restart_values=(value,),
        converged=(True,),
    )


def check_restarts(restarts: int, seed: int) -> None:
    """Refuse a negative seed, fewer than one restart or more than limits.MAX_COUNT."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if restarts > limits.MAX_COUNT:
        raise ResourceLimitError(f"restarts are capped at {limits.MAX_COUNT}, got {restarts}")


def _lower_bound_report(kind: str, value: float, upper: float | None, frames: list, seed: int,
                        values: np.ndarray, converged: np.ndarray) -> ConditionReport:
    return ConditionReport(
        kind=kind,
        value=value,
        upper=upper,
        frames=frames,
        certified="lower_bound",
        seed=seed,
        restart_values=tuple(values.tolist()),
        converged=tuple(converged.tolist()),
    )


def _multistart(name: str, draw: Callable, evaluate: Callable, sweep: Callable, restarts: int,
                seed: int, entries: int, ceiling: float | None = None):
    """Run up to `restarts` ascents of the optimizer `name`, a block of them at a time on a
    leading batch axis.

    The caller has passed restarts and seed through check_restarts.
    draw(rng, first, k) gives the start states of restarts first..first+k-1
    (a tuple of arrays, batch axis first) from the generator seeded with
    `seed`, evaluate(state) their objective values and sweep(state) the
    states and values after one full sweep.  Each restart stops on its own,
    once its value rises by at most SWEEP_TOL or after limits.MAX_SWEEPS
    sweeps, so its path never depends on the other restarts.  Blocks hold about
    _BLOCK_ENTRIES / entries restarts.

    A ceiling is a proven upper bound on the objective; a restart at
    ceiling - SWEEP_TOL or above is at the ceiling, since no sweep of any
    restart can then raise the best value by more than a sweep's own slack.
    A restart at the ceiling, at its start or after a sweep, is finished: it
    is marked converged and sweeps no more.  Restart 0's start is evaluated
    first, and if it is at the ceiling, it is the answer, with no sweep, and
    nothing else is drawn.  Otherwise its block runs whole.  Once a restart of
    a block is at the ceiling, every later restart of the block is dropped as
    if it never ran; the earlier ones run to their own stop.  No further block
    starts once the best value is at the ceiling.  Which restarts run thus
    follows from the paths of earlier restarts alone, and the first r
    restarts of a longer run are still the run with r restarts.

    Returns each restart's final value and converged flag, for the restarts
    that ran, and the winner (the first restart with the strict maximum): its
    index, state, value and value history.  The value is evaluate() of that
    state, the value its frames actually attain: a winner that swept is
    evaluated again, and one that never swept keeps the value evaluate() gave
    at its start.  A non-finite restart value is a fault of the optimizer,
    and raises RuntimeError.
    """
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_ENTRIES // entries)
    floor = np.inf if ceiling is None else ceiling - SWEEP_TOL
    values, converged, best_value, first = [], [], -np.inf, 0
    while first < restarts and best_value < floor:
        end = min(restarts, first - first % block + block)
        state = draw(rng, first, 1 if first == 0 and ceiling is not None else end - first)
        value = evaluate(state)
        if first + len(value) < end and value[0] < floor:
            rest = draw(rng, first + 1, end - first - 1)
            value = np.concatenate([value, evaluate(rest)])  # evaluate may write into rest
            state = tuple(np.concatenate(pair) for pair in zip(state, rest))
        end = first + len(value)
        done = np.zeros(len(value), dtype=bool)
        sweeps = np.zeros(len(value), dtype=np.int64)
        history = [value.copy()]
        keep = len(value)
        active = np.arange(keep)
        while True:
            hit = np.flatnonzero(value[:keep] >= floor)
            if hit.size:  # a restart at the ceiling is done; the later ones are dropped
                keep = hit[0] + 1
                done[hit[0]] = True
                active = active[active < hit[0]]
            if not active.size or len(history) > limits.MAX_SWEEPS:
                break
            sub, new = sweep(tuple(x[active] for x in state))
            for x, y in zip(state, sub):
                x[active] = y
            stop = new - value[active] <= SWEEP_TOL
            value[active] = new
            sweeps[active] += 1
            done[active[stop]] = True
            history.append(value.copy())
            active = active[~stop]
        value = value[:keep]
        if not np.isfinite(value).all():  # NaN loses every comparison, so no winner is kept
            raise RuntimeError(f"{name} reached the restart value {value[~np.isfinite(value)][0]}")
        values.append(value)
        converged.append(done[:keep])
        k = int(np.argmax(value))
        if value[k] > best_value:
            best, best_value = first + k, value[k]
            best_state = tuple(x[k] for x in state)
            best_history = [float(h[k]) for h in history[:sweeps[k] + 1]]
        first = end
    if len(best_history) > 1:  # it swept, and a sweep's value may differ in the last bits
        best_value = evaluate(tuple(x[None] for x in best_state))[0]
    return (np.concatenate(values), np.concatenate(converged), best, best_state,
            float(best_value), best_history)


def _random_planes(rng: np.random.Generator, count: int, per_start: int) -> np.ndarray:
    """count x per_start orthonormal 2x3 planes, drawn one plane at a time.

    The draws call it only for count >= 1: an empty draw leaves rng as it is,
    but still costs a QR."""
    q, _ = np.linalg.qr(rng.normal(size=(count, per_start, 3, 2)))
    return np.swapaxes(q, -1, -2)


def _contract_last(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Contract the last party axis of x, (k, T, F, 3^l), with rows (k, T or 1, m, 3).

    Rows may differ per term.  The row index becomes the new leading digit of
    the term index, so the result has shape (k, mT, F, 3^(l-1)).
    """
    _, t, f, d = x.shape
    y = x.reshape(x.shape[0], t, -1, 3) @ np.swapaxes(rows, 2, 3)
    return y.transpose(0, 3, 1, 2).reshape(len(y), -1, f, d // 3)


def _free_axis(x: np.ndarray) -> np.ndarray:
    """Move the last party axis of x, (k, T, 1, 3^l), into the free slot F=3."""
    return x.reshape(x.shape[0], x.shape[1], -1, 3).swapaxes(2, 3)


def _suffixes(corr: np.ndarray, rows) -> list[np.ndarray]:
    """Entry i is corr contracted with rows[i:], each (k, T or 1, m, 3), the last first.

    Entry i keeps the leading parties' axes, 3^(N - len(rows) + i) entries
    per term; entry len(rows) is corr itself.
    """
    out = [corr.reshape(1, 1, 1, -1)]
    for r in reversed(rows):
        out.append(_contract_last(out[-1], r))
    return out[::-1]


def _environments(corr: np.ndarray, rows):
    """Yield corr contracted with all rows, (k, m_i, 3), but party j's, for j = 1..N in turn.

    Each has shape (k, T, 3), party 1 most significant in T.  Parties behind
    j take the rows of the first step (one suffix pass), parties before j
    their rows as they are when j is reached, so a caller that updates
    rows[j] in place before the next step runs a party-by-party sweep.
    """
    suffix = _suffixes(corr, [r[:, None] for r in rows[1:]])
    for j in range(len(rows)):
        x = _free_axis(suffix[j])
        for r in reversed(rows[:j]):
            x = _contract_last(x, r[:, None])
        yield x.reshape(len(x), x.shape[1], -1)


def two_setting_upper(corr: np.ndarray) -> float:
    """min over parties j of l1 + l2, the two largest eigenvalues of G_j = C_j C_j^T, with C_j
    the 3 x 3^(N-1) unfolding of corr along party j's axis; one eigvalsh call.

    It bounds the two-setting condition from above: with planes P_i (2 x 3,
    orthonormal rows), the value is |P_j C_j Q|_F^2, Q the Kronecker product
    of the other parties' P_i^T, whose columns are orthonormal.  So
    Q Q^T <= I, C_j Q Q^T C_j^T <= G_j in the PSD order, and the value is at
    most tr(P_j G_j P_j^T) <= l1 + l2 (Ky Fan).  At N = 2 it is s1^2 + s2^2,
    the exact two-qubit value.
    """
    unfolded = np.stack([corr.reshape(3**j, 3, -1).swapaxes(0, 1).reshape(3, -1)
                         for j in range(corr.ndim)])
    eigvals = np.linalg.eigvalsh(unfolded @ unfolded.swapaxes(1, 2))
    return float(np.min(eigvals[:, 1] + eigvals[:, 2]))


def cn_upper(corr: np.ndarray) -> float:
    """l1 + l2 of G_N = C_N^T C_N, with C_N = corr.reshape(-1, 3), the unfolding along the
    last party.

    It bounds C_N from above.  Party N holds one plane, rows u_0 and u_1.
    The terms with t_N = i contract T x_N u_i, the tensor of parties
    1..N-1, with the lower parties' branch planes: at party j = N-1..3 each
    tensor in hand is contracted along party j's axis with its branch's
    plane, two orthonormal rows, which splits it into two whose squared
    norms sum to at most its own.  So the terms' sum of |M_t|_F^2 is at most
    |T x_N u_i|^2.  Each term's s1^2 + s2^2 is at most |M_t|_F^2, so
    C_N <= sum_i |T x_N u_i|^2 = sum_i u_i^T G_N u_i <= l1 + l2 (Ky Fan,
    PNAS 35, 652 (1949)).  At N = 2 it is s1^2 + s2^2, the exact value.
    """
    unfolded = corr.reshape(-1, 3)
    eigvals = np.linalg.eigvalsh(unfolded.T @ unfolded)
    return float(eigvals[1] + eigvals[2])


def condition_two_setting_N(tensor: CorrelationTensor, restarts: int = 50,
                            seed: int = 0) -> ConditionReport:
    """Maximize the in-plane squared correlation sum over per-party planes.

    At most `restarts` restarts run: they stop once a restart reaches
    two_setting_upper less SWEEP_TOL (see _multistart).
    """
    n = tensor.n_qubits
    if n < 2:
        raise ValueError("need at least 2 parties")
    check_restarts(restarts, seed)
    corr = tensor.correlation_part()

    def draw(rng, first, k):
        # canonical planes for every party first, then random planes
        starts = np.arange(first, first + k)
        planes = np.repeat(_CANONICAL_PLANES[np.minimum(starts, 2), None], n, axis=1)
        random = starts >= len(_CANONICAL_PLANES)
        if random.any():
            planes[random] = _random_planes(rng, int(np.sum(random)), n)
        return tuple(planes[:, j] for j in range(n))

    def objective(planes):
        x = _suffixes(corr, [p[:, None] for p in planes])[0]
        return np.sum(x[..., 0, 0] ** 2, axis=1)

    def sweep(planes):
        for plane, u in zip(planes, _environments(corr, planes)):
            eigvals, eigvecs = np.linalg.eigh(np.swapaxes(u, 1, 2) @ u)
            plane[...] = np.swapaxes(eigvecs[..., [2, 1]], 1, 2)
        return planes, eigvals[:, -1] + eigvals[:, -2]

    upper = two_setting_upper(corr)
    values, converged, _, best, value, _ = _multistart(
        "two_setting_sufficient_N", draw, objective, sweep, restarts, seed, corr.size, upper)
    return _lower_bound_report("two_setting_sufficient_N", value, upper,
                               _frames_json(list(best)), seed, values, converged)


#: The unit axes e_i, and _CROSS[i] @ f = f x e_i.
_EYE3 = np.eye(3)
_CROSS = np.array([[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                   [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                   [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], dtype=np.float64)


def _quad(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v.g.v for each row of g, (R, 3, 3), and v, (R, 3)."""
    return (v[:, None] @ g @ v[:, :, None])[:, 0, 0]


def _best_perp(g: np.ndarray, fixed: np.ndarray, current: np.ndarray,
               value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit vector orthogonal to `fixed` with the largest v.g.v, and that value.

    Rows, (R, 3, 3) and (R, 3), are independent.  The plane orthogonal to the
    unit vector f is spanned by q1 = f x e_i / s and q2 = (e_i - f_i f) / s,
    s = sqrt(1 - f_i^2), with i the axis of the smallest |f_i|, so that
    f_i^2 <= 1/3.  The top eigenvector of the 2x2 compression h of g to that
    plane lies at the angle theta = atan2(2 h12, h11 - h22) / 2 from q1, and
    its eigenvalue is (h11 + h22 + hypot(h11 - h22, 2 h12)) / 2; h is formed
    from the unscaled pair and divided by s^2.  On an exact tie (h12 = 0,
    h11 = h22), which the canonical starting planes give, theta = 0 picks
    q1: the top eigenvector eigh returns for h written in the basis (q2, q1),
    so those restarts follow the path of an eigh step.  A row keeps
    `current`, whose value is `value`, unless the candidate is at least as
    good.
    """
    axis = np.abs(fixed).argmin(axis=1)
    f_i = fixed[np.arange(len(axis)), axis]
    basis = np.empty(fixed.shape[:1] + (2, 3))
    np.matmul(_CROSS[axis], fixed[:, :, None], out=basis[:, 0, :, None])
    np.subtract(_EYE3[axis], f_i[:, None] * fixed, out=basis[:, 1])
    gb = basis @ g
    h11, h22 = (gb * basis).sum(axis=2).T
    x, y = h11 - h22, 2 * (gb[:, 0] * basis[:, 1]).sum(axis=1)
    s2 = 1 - f_i * f_i
    theta = 0.5 * np.arctan2(y, x)
    scale = 1 / np.sqrt(s2)
    candidate = ((np.cos(theta) * scale)[:, None] * basis[:, 0]
                 + (np.sin(theta) * scale)[:, None] * basis[:, 1])
    top = 0.5 * (h11 + h22 + np.hypot(x, y)) / s2
    return np.where((top >= value)[:, None], candidate, current), np.maximum(top, value)


def _turn(g1: np.ndarray, g2: np.ndarray, a: np.ndarray, b: np.ndarray, value_a: np.ndarray,
          value_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn each orthonormal pair in its own plane by the angle that maximizes a.g1.a + b.g2.b.

    Rows are independent; value_a and value_b are a.g1.a and b.g2.b.  The turn
    a' = cos(phi) a + sin(phi) b, b' = cos(phi) b - sin(phi) a gives
    F(phi) = A + X cos(2 phi) + Y sin(2 phi) with
    X = (a.g1.a - b.g1.b + b.g2.b - a.g2.a) / 2 and Y = a.g1.b - a.g2.b, so the
    best angle is 2 phi = atan2(Y, X) and the rise is hypot(X, Y) - X >= 0.  A
    row turns only where that rise is positive.  Returns the new pairs.
    """
    g1b, g2a = (g1 @ b[:, :, None])[..., 0], (g2 @ a[:, :, None])[..., 0]
    b1b, a1b = (g1b * b).sum(axis=1), (g1b * a).sum(axis=1)
    a2a, a2b = (g2a * a).sum(axis=1), (g2a * b).sum(axis=1)
    x, y = 0.5 * (value_a - b1b + value_b - a2a), a1b - a2b
    turn = np.hypot(x, y) > x
    phi = np.where(turn, 0.5 * np.arctan2(y, x), 0.0)
    c, s = np.cos(phi)[:, None], np.sin(phi)[:, None]
    return c * a + s * b, c * b - s * a


def _pair_step(g1: np.ndarray, g2: np.ndarray, a: np.ndarray,
               b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One closed-form ascent step of a.g1.a + b.g2.b over orthonormal pairs.

    All arguments share leading batch axes, flattened here to rows; no row's
    arithmetic depends on the others, and no row's value decreases.  The step
    replaces a by the best unit vector orthogonal to b, then b by the best one
    orthogonal to the new a (_best_perp), then turns the pair in its own plane
    (_turn): the rotations about b, about a and about a x b.  A C_N sweep takes
    one step per plane, so a restart that stops rising holds pairs that no
    step raises by more than its sweep test allows.
    """
    shape = a.shape
    g1, g2 = g1.reshape(-1, 3, 3), g2.reshape(-1, 3, 3)
    a, b = a.reshape(-1, 3), b.reshape(-1, 3)
    a, value_a = _best_perp(g1, b, a, _quad(g1, a))
    b, value_b = _best_perp(g2, a, b, _quad(g2, b))
    a, b = _turn(g1, g2, a, b, value_a, value_b)
    return a.reshape(shape), b.reshape(shape)


# C_N: party j in 3..N holds one plane per branch (the indices of parties
# j+1..N), a batch (k, 2^(N-j), 2, 3) in lexicographic branch order.  Terms,
# the index tuples of parties 3..N, use that order too: branch = t % 2^(N-j).


#: The flat indices, among a 3x3 matrix's entries, of its rows and columns taken in the
#: order 0, 1, 2, 0, 1: rows (and columns) i + 1 and i + 2, mod 3, are slices 1:4 and 2:5.
_WRAP = np.ravel(3 * np.array([0, 1, 2, 0, 1])[:, None] + [0, 1, 2, 0, 1])

#: The smallest positive normal double, the floor of a divisor that may be 0.
_TINY = np.finfo(float).tiny


def _cn_weakest(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each restart's C_N value, (k,), and each term's weakest right singular vector v,
    (3, k, T), from the term matrices m, (3, 3, k, T), entries first.

    A term's value s1^2 + s2^2 is |M|_F^2 - |M v|^2.  With A = M^T M and
    q = tr A / 3, B = (A / q - I) / p is traceless with |B|_F^2 = 6 (B = 0 for
    M = 0), and its eigenvalues are mu = 2 cos((arccos(det B / 2) + 2 pi l) / 3),
    l = 0, 1, 2 (Smith, Commun. ACM 4, 168 (1961); Kopp, arXiv:physics/0610206).
    The one apart from the other two, the largest if det B >= 0 and else the
    smallest, is accurate, and adj(B - mu I) = c w w^T with c >= 6, so its column
    of largest diagonal gives that eigenvalue's vector w.  If w is the smallest's,
    v = w; otherwise v is the lower eigenvector of B compressed to the plane
    orthogonal to w, a 2x2 closed form that stays accurate where the two smallest
    eigenvalues nearly meet.  |M v|^2 is then recomputed from v (a Rayleigh
    step), so each value is one that the frames orthogonal to v attain.
    """
    a = (m[:, :, None] * m[:, None]).sum(0)
    norm2 = a[0, 0] + a[1, 1] + a[2, 2]
    b = a * (3 / np.maximum(norm2, _TINY)) - (norm2 > 0) * _EYE3[..., None, None]
    b /= np.sqrt(np.maximum((b * b).sum((0, 1)), _TINY) / 6)
    wrap = b.reshape(9, -1)[_WRAP].reshape(5, 5, *m.shape[2:])
    adj = wrap[1:4, 1:4] * wrap[2:5, 2:5] - wrap[1:4, 2:5] * wrap[2:5, 1:4]
    det = (b[0] * adj[0]).sum(0)
    mu = 2 * np.copysign(np.cos(np.arccos(np.minimum(np.abs(det) / 2, 1)) / 3), det)
    x = (adj + mu * (b + mu * _EYE3[..., None, None])).reshape(9, -1)
    # x = adj(B - mu I): the column of its largest diagonal entry, flat
    column = x[[0, 4, 8]].argmax(0) * norm2.size + np.arange(norm2.size)
    w = x.reshape(3, -1)[:, column].reshape(m.shape[1:])
    w /= np.sqrt((w * w).sum(0))
    # a Householder reflection's first two columns span the plane orthogonal to w
    n = w + np.copysign(_EYE3[2, :, None, None], w[2])
    basis = _EYE3[:2, :, None, None] - (w[:2] / np.abs(n[2]))[:, None] * n
    h = (basis[:, None] * (b[None] * basis[:, None]).sum(2)[None]).sum(2)
    theta = 0.5 * np.arctan2(-2 * h[0, 1], h[1, 1] - h[0, 0])
    v = np.where(mu > 0, np.cos(theta) * basis[0] + np.sin(theta) * basis[1], w)
    return (norm2 - ((m * v).sum(1) ** 2).sum(0)).sum(-1), v


def _cn_terms(own: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The term matrices, (3, 3, k, T), of party j's planes on its grid, (3, 3, 3, k, T)."""
    x = grid.reshape(3, 3, 3, len(own), -1, *own.shape[2:0:-1])  # (..., k, F, t_j, branch)
    return (own.transpose(3, 0, 2, 1)[:, None, None, :, None] * x).sum(0).reshape(grid.shape[1:])


def _cn_evaluate(corr: np.ndarray, state) -> np.ndarray:
    """C_N values of a state (planes..., v); writes the terms' weakest vectors into v."""
    *planes, v = state
    m = _suffixes(corr, planes)[0].reshape(len(v), -1, 3, 3)
    value, w = _cn_weakest(m.transpose(2, 3, 0, 1))
    v[...] = w.transpose(1, 2, 0)
    return value


def _cn_sweep(corr: np.ndarray, state):
    """Update each party's planes in turn, j = 3..N, all branches at once.

    The state is (planes..., v), v, (k, T, 3), the terms' weakest right
    singular vectors at the current planes.  With v fixed, a term's value is at
    least |M P|_F^2, P = I - v v^T, with equality at the current planes, so
    party j's pair step ascends the Gram matrices
    G_qq' = <M_q, M_q'>_F - (M_q v).(M_q' v) over its axes q, summed over the
    terms of each plane row.  Different branches of party j touch disjoint
    terms, so this equals updating its planes one branch after another.
    Every party's term matrices list the terms in one order (t_3 ... t_N, t_3
    most significant), so the vectors that end one sweep, from the last
    party's grid and its updated planes, are the first party's in the next;
    they also give the sweep's value.
    """
    *planes, v = state
    k, v = len(v), v.transpose(2, 0, 1)
    suffix = _suffixes(corr, planes[1:])
    for i, own in enumerate(planes):
        branches = own.shape[1]
        # party j = i + 3 keeps its axis free; each term picks its lower-party planes
        x = _free_axis(suffix[i])
        x = np.broadcast_to(x[:, None], (k, 2) + x.shape[1:]).reshape(k, 2 * branches, 3, -1)
        for p in reversed(planes[:i]):
            x = _contract_last(x, p)
        # (q, row, column, k, T): party j's axis and the term matrices' entries lead
        grid = np.ascontiguousarray(x.reshape(k, -1, 3, 3, 3).transpose(2, 3, 4, 0, 1))
        if i:
            _, v = _cn_weakest(_cn_terms(own, grid))
        z = grid - (grid * v).sum(2)[:, :, None] * v  # M_q P, then (k, t_j, branch, q, F ab)
        z = z.reshape(3, 9, k, -1, 2, branches).transpose(2, 4, 5, 0, 3, 1).reshape(
            k, 2, branches, 3, -1)
        g = z @ z.swapaxes(3, 4)
        a, b = _pair_step(g[:, 0], g[:, 1], own[:, :, 0], own[:, :, 1])
        own[:, :, 0], own[:, :, 1] = a, b
    value, v = _cn_weakest(_cn_terms(own, grid))
    return (*planes, v.transpose(1, 2, 0)), value


def condition_multisetting_CN(tensor: CorrelationTensor, restarts: int = 50,
                              seed: int = 0) -> ConditionReport:
    """Recursive multisetting condition with branch-dependent trailing planes.

    At most `restarts` restarts run: they stop once a restart reaches cn_upper
    less SWEEP_TOL (see _multistart).
    """
    n = tensor.n_qubits
    if n < 2:
        raise ValueError("need at least 2 parties")
    check_restarts(restarts, seed)  # the N=2 closed form's arguments too
    if n == 2:
        report = condition_two_qubit(tensor)
        return replace(report, kind="multisetting_CN", seed=seed,
                       frames=[{"term": [], "frames": report.frames}])

    corr = tensor.correlation_part()
    branches = [2 ** (n - j) for j in range(3, n + 1)]
    shift = np.array([j + sum(branch) for j in range(3, n + 1)
                      for branch in np.ndindex(*(2,) * (n - j))])
    cycle = len(_CANONICAL_PLANES)
    terms = 2 ** (n - 2)

    def draw(rng, first, k):
        # one canonical plane everywhere, then canonical planes alternating
        # along the branch depth, then random planes, node by node; the
        # weakest vectors are filled by the first evaluation
        starts = np.arange(first, first + k)[:, None]
        planes = _CANONICAL_PLANES[np.where(starts < cycle, starts, (starts + shift) % cycle)]
        random = starts[:, 0] >= 2 * cycle
        if random.any():
            planes[random] = _random_planes(rng, int(np.sum(random)), len(shift))
        return (*np.split(planes, np.cumsum(branches)[:-1], axis=1), np.empty((k, terms, 3)))

    upper = cn_upper(corr)
    values, converged, _, best, value, _ = _multistart(
        "multisetting_CN", draw, lambda state: _cn_evaluate(corr, state),
        lambda state: _cn_sweep(corr, state), restarts, seed, corr.size, upper)
    u, _, vt = np.linalg.svd(_suffixes(corr, [p[None] for p in best[:-1]])[0].reshape(-1, 3, 3))
    # (T, N, 2, 3): each term's two planes, then each trailing party's plane on its branch
    t = np.arange(terms)
    frames = np.stack([u[:, :, :2].swapaxes(1, 2), vt[:, :2]]
                      + [best[j - 3][t % 2 ** (n - j)] for j in range(3, n + 1)], axis=1)
    report_terms = [{"term": [i + 1 for i in term], "frames": term_frames}
                    for term, term_frames in zip(np.ndindex(*(2,) * (n - 2)), frames.tolist())]
    return _lower_bound_report("multisetting_CN", value, upper, report_terms, seed, values,
                               converged)


@dataclass(frozen=True)
class MaximizationResult:
    """Best see-saw objective with the realizing measurement directions."""

    value: float
    settings: tuple[np.ndarray, ...]
    converged: bool
    degenerate_updates: int
    seed: int
    history: tuple[float, ...] = field(repr=False, default=())

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "settings": [s.tolist() for s in self.settings],
            "converged": self.converged,
            "degenerate_updates": self.degenerate_updates,
            "seed": self.seed,
        }


def maximize_bell_value(ineq: BellInequality, tensor: CorrelationTensor,
                        restarts: int = 50, seed: int = 0) -> MaximizationResult:
    """See-saw ascent of sum_k c[k] E(k) over unit measurement directions.

    Returns the best run: a certified lower bound on the quantum maximum of
    the inequality expression for this tensor.  A best value past the range
    of float64 raises ValueError.
    """
    if ineq.layout.n_parties != tensor.n_qubits:
        raise ValueError("inequality and tensor party counts differ")
    check_restarts(restarts, seed)
    # divided by a power of two, which is exact, so that no squared norm of a sweep overflows
    shift = max(0, int(np.frexp(np.abs(ineq.coefficients).max())[1]) - 500)
    scale = 2.0**shift
    coeff = ineq.coefficients.astype(np.float64) / scale
    corr = tensor.correlation_part()
    counts = ineq.layout.settings_per_party
    # party j's coefficients as a (m_j, product of the other m) matrix
    unfolded = [np.moveaxis(coeff, j, -1).reshape(-1, m).T for j, m in enumerate(counts)]

    def draw(rng, first, k):
        # one random unit vector per setting, restart by restart
        settings = rng.normal(size=(k, sum(counts), 3))
        settings /= np.linalg.norm(settings, axis=2, keepdims=True)
        return (*np.split(settings, np.cumsum(counts)[:-1], axis=1), np.zeros(k, dtype=np.int64))

    def evaluate(state):
        x = _suffixes(corr, [r[:, None] for r in state[:-1]])[0]
        return x[..., 0, 0] @ coeff.reshape(-1)

    def sweep(state):
        *settings, degenerate = state
        for rows, c, x in zip(settings, unfolded, _environments(corr, settings)):
            env = c @ x
            norms = np.linalg.norm(env, axis=2)
            update = norms > ZERO_TOL  # otherwise keep the previous vector
            rows[...] = np.where(update[..., None],
                                 env / np.where(update, norms, 1.0)[..., None], rows)
            degenerate += np.sum(~update, axis=1)
        return state, evaluate(state)

    size = int(np.prod(np.maximum(counts, 3)))
    _, converged, best, state, value, history = _multistart(
        "maximize_bell_value", draw, evaluate, sweep, restarts, seed, size)
    if not np.isfinite(value * scale):  # Python floats: the product overflows without a warning
        raise ValueError(f"the best value {value!r} x 2^{shift} overflows float64")
    return MaximizationResult(
        value=value * scale,
        settings=tuple(s.copy() for s in state[:-1]),
        converged=bool(converged[best]),
        degenerate_updates=int(state[-1]),
        seed=seed,
        history=tuple(h * scale for h in history),
    )
