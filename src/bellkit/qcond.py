"""Quantum violation conditions on correlation tensors.

Three condition values are computed, each compared against 1:

* two_setting_NS_2qubit: for two qubits, the sum of the two largest
  eigenvalues of M^T M with M the 3x3 correlation matrix.  Exceeding 1 is
  necessary and sufficient for violating some two-setting member; exact.

* two_setting_sufficient_N: max over one measurement plane per party of the
  sum of squared correlation components with every index in the plane.
  Computed by alternating per-party plane updates (top-2 eigenvectors of the
  party's contracted positive matrix) from random restarts, so the reported
  value is a certified lower bound on the true maximum.

* multisetting_CN: the recursive condition behind the 4 x ... x 4 x 2
  family.  Parties 1 and 2 get independent planes per trailing index tuple
  (closed form: two largest eigenvalues of M_t M_t^T); each trailing party
  gets one plane per branch of the indices behind it.  Exact for N=2,
  otherwise an optimizer lower bound.  A sweep updates the trailing
  parties in turn, one orthonormal pair step per plane: three closed-form
  rotations about the pair's three axes, the best unit vector orthogonal
  to b for a, then the best one orthogonal to a for b (each the top
  eigenvector of a 2x2 matrix), then the best turn of the pair in its own
  plane.  A restart stops once a sweep gains at most SWEEP_TOL, so the
  sweep test alone decides when the pairs are stationary.  The SVD that
  ends a sweep gives its value and the first party's frames in the next
  sweep.

maximize_bell_value runs see-saw ascent on an arbitrary inequality: each
per-party, per-setting vector update is the normalized contraction of the
coefficient tensor with all other current vectors, which is the exact
optimum for that vector and never decreases the objective.

All three optimizers check their arguments with check_restarts and share one
multi-start driver, _multistart, that carries a block of restarts on a leading
batch axis, so every update is one batched numpy call, and re-evaluates the
winner.  The two-setting and see-saw sweeps share one contraction, _environments.
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

    Each restart's final value and whether it converged within
    limits.MAX_SWEEPS sweeps; a closed form counts as one converged restart.
    On generic (non-GHZ) states some multisetting_CN restarts may still be
    rising after that many sweeps, so their converged flags are False.
    violated means the value exceeds 1 by more than BOUND_TOL: for two
    qubits that decides a violation, for N >= 3 it shows only that the
    condition, which every violation needs, holds.  restarts_at_best counts
    the restarts within BOUND_TOL of the reported value.
    """

    kind: str
    value: float
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


def condition_two_qubit(tensor: CorrelationTensor) -> ConditionReport:
    """Sum of the two largest eigenvalues of M^T M for a two-qubit tensor."""
    if tensor.n_qubits != 2:
        raise ValueError("two_setting_NS_2qubit applies to 2-qubit tensors only")
    m = tensor.correlation_part()
    u, s, vt = np.linalg.svd(m)
    value = float(s[0] ** 2 + s[1] ** 2)
    frames = [u[:, :2].T.copy(), vt[:2].copy()]
    return ConditionReport(
        kind="two_setting_NS_2qubit",
        value=value,
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


def _lower_bound_report(kind: str, value: float, frames: list, seed: int,
                        values: np.ndarray, converged: np.ndarray) -> ConditionReport:
    return ConditionReport(
        kind=kind,
        value=value,
        frames=frames,
        certified="lower_bound",
        seed=seed,
        restart_values=tuple(values.tolist()),
        converged=tuple(converged.tolist()),
    )


def _multistart(draw: Callable, evaluate: Callable, sweep: Callable, restarts: int,
                seed: int, entries: int):
    """Run `restarts` ascents, a block of them at a time on a leading batch axis.

    The caller has passed restarts and seed through check_restarts.
    draw(rng, first, k) gives the start states of restarts first..first+k-1
    (a tuple of arrays, batch axis first) from the generator seeded with
    `seed`, evaluate(state) their objective values and sweep(state) the
    states and values after one full sweep.  Each restart stops on its own,
    once its value rises by at most SWEEP_TOL or after limits.MAX_SWEEPS
    sweeps, so its path never depends on the other restarts.  Blocks hold about
    _BLOCK_ENTRIES / entries restarts.  Returns each restart's final value
    and converged flag, and the winner (the first restart with the strict
    maximum): its index, state, value and value history.  The value is
    evaluate() of that state, the value its frames actually attain.
    """
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_ENTRIES // entries)
    values, converged, best_value = [], [], -np.inf
    for first in range(0, restarts, block):
        state = draw(rng, first, min(block, restarts - first))
        value = evaluate(state)
        done = np.zeros(len(value), dtype=bool)
        sweeps = np.zeros(len(value), dtype=np.int64)
        history = [value.copy()]
        active = np.arange(len(value))
        for _ in range(limits.MAX_SWEEPS):
            sub, new = sweep(tuple(x[active] for x in state))
            for x, y in zip(state, sub):
                x[active] = y
            stop = new - value[active] <= SWEEP_TOL
            value[active] = new
            sweeps[active] += 1
            done[active[stop]] = True
            history.append(value.copy())
            active = active[~stop]
            if not active.size:
                break
        values.append(value)
        converged.append(done)
        k = int(np.argmax(value))
        if value[k] > best_value:
            best, best_value = first + k, value[k]
            best_state = tuple(x[k] for x in state)
            best_history = [float(h[k]) for h in history[:sweeps[k] + 1]]
    # evaluate writes the C_N frames into these views, so they reach best_state
    value = float(evaluate(tuple(x[None] for x in best_state))[0])
    return (np.concatenate(values), np.concatenate(converged), best, best_state, value,
            best_history)


def _random_planes(rng: np.random.Generator, count: int, per_start: int) -> np.ndarray:
    """count x per_start orthonormal 2x3 planes, drawn one plane at a time."""
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


def condition_two_setting_N(tensor: CorrelationTensor, restarts: int = 50,
                            seed: int = 0) -> ConditionReport:
    """Maximize the in-plane squared correlation sum over per-party planes."""
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

    values, converged, _, best, value, _ = _multistart(draw, objective, sweep, restarts, seed,
                                                       corr.size)
    return _lower_bound_report("two_setting_sufficient_N", value, _frames_json(list(best)),
                               seed, values, converged)


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


def _cn_frames(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each restart's C_N value from its term matrices m, (k, 2^(N-2), 3, 3), and each
    term's top-2 singular frames u, (k, 2^(N-2), 3, 2), and vt, (k, 2^(N-2), 2, 3)."""
    u, s, vt = np.linalg.svd(m)
    return np.sum(s[..., 0] ** 2 + s[..., 1] ** 2, axis=1), u[..., :2], vt[..., :2, :]


def _cn_terms(own: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The term matrices, (k, 2^(N-2), 3, 3), of party j's planes on its grid."""
    m = np.swapaxes(own, 1, 2)[:, None, :, :, None] @ grid
    return m.reshape(len(m), -1, 3, 3)


def _cn_evaluate(corr: np.ndarray, state) -> np.ndarray:
    """C_N values of a state (planes..., u, vt); writes the terms' frames into u and vt."""
    *planes, u, vt = state
    m = _suffixes(corr, planes)[0].reshape(len(u), -1, 3, 3)
    value, u[...], vt[...] = _cn_frames(m)
    return value


def _cn_sweep(corr: np.ndarray, state):
    """Update each party's planes in turn, j = 3..N, all branches at once.

    The state is (planes..., u, vt), with the terms' top-2 singular frames
    at the current planes.  Different branches of party j touch disjoint
    terms, so this equals updating its planes one branch after another.
    Every party's term matrices list the terms in one order (t_3 ... t_N,
    t_3 most significant), so the frames that end one sweep, from the last
    party's grid and its updated planes, are the first party's frames in
    the next; that one SVD also gives the sweep's value.
    """
    *planes, u, vt = state
    k = len(u)
    suffix = _suffixes(corr, planes[1:])
    for i, own in enumerate(planes):
        branches = own.shape[1]
        # party j = i + 3 keeps its axis free; each term picks its lower-party planes
        x = _free_axis(suffix[i])
        x = np.broadcast_to(x[:, None], (k, 2) + x.shape[1:]).reshape(k, 2 * branches, 3, -1)
        for p in reversed(planes[:i]):
            x = _contract_last(x, p)
        grid = x.reshape(k, -1, 2, branches, 3, 9)  # (free terms, t_j, branch, q, ab)
        if i:
            _, u, vt = _cn_frames(_cn_terms(own, grid))
        # gradient vectors for party j with the top singular frames fixed:
        # U^T M_q V per term t and axis q, then their Gram matrix over q
        vec = (np.swapaxes(u, 2, 3)[:, :, None] @ grid.reshape(k, -1, 3, 3, 3)
               @ np.swapaxes(vt[:, :, None], 3, 4))
        vec = vec.reshape(k, -1, 3, 4)
        g = vec @ np.swapaxes(vec, 2, 3)
        g = g.reshape(k, -1, 2, branches, 3, 3).sum(axis=1)
        a, b = _pair_step(g[:, 0], g[:, 1], own[:, :, 0], own[:, :, 1])
        own[:, :, 0], own[:, :, 1] = a, b
    value, u, vt = _cn_frames(_cn_terms(own, grid))
    return (*planes, u, vt), value


def condition_multisetting_CN(tensor: CorrelationTensor, restarts: int = 50,
                              seed: int = 0) -> ConditionReport:
    """Recursive multisetting condition with branch-dependent trailing planes."""
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
        # frames are filled by the first evaluation
        starts = np.arange(first, first + k)[:, None]
        planes = _CANONICAL_PLANES[np.where(starts < cycle, starts, (starts + shift) % cycle)]
        random = starts[:, 0] >= 2 * cycle
        planes[random] = _random_planes(rng, int(np.sum(random)), len(shift))
        return (*np.split(planes, np.cumsum(branches)[:-1], axis=1),
                np.empty((k, terms, 3, 2)), np.empty((k, terms, 2, 3)))

    values, converged, _, best, value, _ = _multistart(
        draw, lambda state: _cn_evaluate(corr, state), lambda state: _cn_sweep(corr, state),
        restarts, seed, corr.size)
    *best, u, vt = best
    report_terms = [{
        "term": [i + 1 for i in term],
        "frames": _frames_json([u[t].T, vt[t]]
                               + [best[j - 3][t % 2 ** (n - j)] for j in range(3, n + 1)]),
    } for t, term in enumerate(np.ndindex(*(2,) * (n - 2)))]
    return _lower_bound_report("multisetting_CN", value, report_terms, seed, values, converged)


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
    the inequality expression for this tensor.
    """
    if ineq.layout.n_parties != tensor.n_qubits:
        raise ValueError("inequality and tensor party counts differ")
    check_restarts(restarts, seed)
    # divided by a power of two, which is exact, so that no squared norm of a sweep overflows
    scale = 2.0 ** max(0, int(np.frexp(np.abs(ineq.coefficients).max())[1]) - 500)
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
        draw, evaluate, sweep, restarts, seed, size)
    return MaximizationResult(
        value=value * scale,
        settings=tuple(s.copy() for s in state[:-1]),
        converged=bool(converged[best]),
        degenerate_updates=int(state[-1]),
        seed=seed,
        history=tuple(h * scale for h in history),
    )
