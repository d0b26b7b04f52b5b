"""Violation conditions and the see-saw maximizer."""
import importlib.util
import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bellkit as bk
from bellkit.qcond import cn_upper
from bellkit.tolerance import BOUND_TOL, SWEEP_TOL

SQ2 = np.sqrt(2)


def random_pure(rng, n) -> bk.PureState:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return bk.PureState(n, amps / np.linalg.norm(amps))


def tensor_of(state: bk.PureState) -> bk.CorrelationTensor:
    return bk.correlation_tensor(bk.density_from_pure(state))


def ghz_tensor(n, alpha) -> bk.CorrelationTensor:
    return tensor_of(bk.ghz_state(bk.GhzFamily(n, alpha)))


def rotate_tensor(tensor: bk.CorrelationTensor, rotations) -> bk.CorrelationTensor:
    """Independent local frame change: rotate the Pauli axes of each qubit."""
    full = np.asarray(tensor.components)
    for j, r in enumerate(rotations):
        ext = np.zeros((4, 4))
        ext[0, 0] = 1.0
        ext[1:, 1:] = r
        full = np.moveaxis(np.tensordot(ext, full, axes=([1], [j])), 0, j)
    return bk.CorrelationTensor(tensor.n_qubits, full)


def random_rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def display_chsh() -> bk.BellInequality:
    layout = bk.ExperimentLayout((2, 2))
    return bk.BellInequality(layout, np.array([[1, 1], [1, -1]], dtype=np.int64), 2)


def display_mermin() -> bk.BellInequality:
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[1, 0, 0] = coeffs[0, 1, 0] = coeffs[0, 0, 1] = 1
    coeffs[1, 1, 1] = -1
    return bk.BellInequality(bk.ExperimentLayout((2, 2, 2)), coeffs, 2)


# ---------------------------------------------------------------------------
# two-qubit closed form


def test_two_qubit_singlet():
    report = bk.condition_two_qubit(tensor_of(bk.singlet()))
    assert report.value == pytest.approx(2.0, abs=1e-9)
    assert report.violated
    assert report.certified == "exact"
    assert report.seed is None


def test_two_qubit_product_state():
    state = bk.PureState(2, np.array([1, 0, 0, 0], dtype=complex))
    report = bk.condition_two_qubit(tensor_of(state))
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert not report.violated


def test_two_qubit_schmidt_family():
    for alpha in np.linspace(0.0, np.pi / 4, 7):
        report = bk.condition_two_qubit(ghz_tensor(2, alpha))
        assert report.value == pytest.approx(1 + np.sin(2 * alpha) ** 2, abs=1e-12)


def test_two_qubit_rejects_other_sizes():
    with pytest.raises(ValueError):
        bk.condition_two_qubit(ghz_tensor(3, 0.1))


# ---------------------------------------------------------------------------
# N-party two-setting condition


def test_two_setting_ghz3_maximal():
    report = bk.condition_two_setting_N(ghz_tensor(3, np.pi / 4), restarts=20, seed=0)
    assert report.value == pytest.approx(4.0, abs=1e-7)
    assert report.violated
    assert report.certified == "lower_bound"


def test_two_setting_threshold_value():
    # at sin(2a) = 1/2 the x-y planes and the z-containing planes tie at 1
    alpha = np.arcsin(0.5) / 2
    report = bk.condition_two_setting_N(ghz_tensor(3, alpha), restarts=20, seed=0)
    assert report.value == pytest.approx(1.0, abs=1e-9)
    assert not report.violated


def test_two_setting_even_n_violates_below_threshold():
    report = bk.condition_two_setting_N(ghz_tensor(4, 0.1), restarts=20, seed=0)
    assert report.value == pytest.approx(1 + np.sin(0.2) ** 2, abs=1e-7)
    assert report.violated


def test_two_setting_matches_two_qubit_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(4):
        tensor = tensor_of(random_pure(rng, 2))
        exact = bk.condition_two_qubit(tensor).value
        sweep = bk.condition_two_setting_N(tensor, restarts=15, seed=1).value
        assert sweep == pytest.approx(exact, abs=1e-9)


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def bench_reference():
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_setting_upper_matches_the_benchmark_reference():
    reference = bench_reference()
    rng = np.random.default_rng(41)
    tensors = [ghz_tensor(n, alpha) for n in (2, 3, 4, 5) for alpha in (0.1, 0.5, np.pi / 4)]
    tensors += [tensor_of(random_pure(rng, n)) for n in (2, 3, 4, 5, 6)]
    for tensor in tensors:
        expected = reference.two_setting_upper(tensor.correlation_part())
        assert abs(bk.condition_two_setting_N(tensor, restarts=3).upper - expected) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_two_setting_upper_bounds_the_best_of_200_restarts(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        report = bk.condition_two_setting_N(tensor_of(random_pure(rng, n)), restarts=200, seed=2)
        assert max(report.restart_values) <= report.upper + 1e-12


def test_two_setting_upper_is_the_two_qubit_value_at_n2():
    rng = np.random.default_rng(43)
    for tensor in [tensor_of(random_pure(rng, 2)) for _ in range(4)] + [ghz_tensor(2, 0.3)]:
        exact = bk.condition_two_qubit(tensor)
        assert exact.upper == exact.value
        assert bk.condition_two_setting_N(tensor, restarts=5).upper == pytest.approx(
            exact.value, rel=0, abs=1e-12)


def test_two_setting_restarts_stop_once_they_reach_the_bound():
    """GHZ N=5 at k=1 of SCAN_GRID: restart 0 reaches the bound, so no other restart runs."""
    report = bk.condition_two_setting_N(ghz_tensor(5, (1 + 7 / 8) * np.pi / 12), seed=51)
    assert len(report.restart_values) <= 3
    assert report.value >= report.upper - 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_two_setting_runs_every_restart_below_the_bound(n):
    """GHZ N=3 and 4 at k=0 of SCAN_GRID: no restart closes the gap, so all 50 run."""
    report = bk.condition_two_setting_N(ghz_tensor(n, 7 / 8 * np.pi / 12), seed=10 * n)
    assert len(report.restart_values) == len(report.converged) == 50
    assert report.upper - report.value > 0.19


def test_report_upper_per_kind_and_a_value_above_it_refused():
    report = bk.condition_two_qubit(ghz_tensor(2, 0.3))
    with pytest.raises(ValueError, match="above its bound"):
        replace(report, upper=report.value - 1e-6)
    closed = bk.condition_multisetting_CN(ghz_tensor(2, 0.3))
    assert closed.upper == closed.value == report.value
    cn3 = bk.condition_multisetting_CN(ghz_tensor(3, 0.3), restarts=3)
    assert cn3.upper == cn_upper(ghz_tensor(3, 0.3).correlation_part())


def test_two_setting_report_frames_shape():
    report = bk.condition_two_setting_N(ghz_tensor(3, 0.3), restarts=5, seed=0)
    frames = np.array(report.frames)
    assert frames.shape == (3, 2, 3)
    for party_frame in frames:
        gram = party_frame @ party_frame.T
        assert np.allclose(gram, np.eye(2), atol=1e-9)


# ---------------------------------------------------------------------------
# multisetting C_N


def test_cn_reduces_to_two_qubit():
    rng = np.random.default_rng(5)
    for _ in range(4):
        tensor = tensor_of(random_pure(rng, 2))
        assert bk.condition_multisetting_CN(tensor).value == pytest.approx(
            bk.condition_two_qubit(tensor).value, abs=1e-12
        )


def test_cn_ghz_value_formula():
    """C_N(GHZ) = 2^(N-2) s^2 + max(2^(N-2) s^2, z^2), s = sin 2a, z^2 = 1 at even N and
    cos^2 2a at odd N, and cn_upper closes on it."""
    for n in (3, 4, 5):
        for alpha in (0.05, 0.2, np.pi / 8, np.pi / 4):
            report = bk.condition_multisetting_CN(ghz_tensor(n, alpha), restarts=10, seed=0)
            s2 = np.sin(2 * alpha) ** 2
            z2 = 1.0 if n % 2 == 0 else np.cos(2 * alpha) ** 2
            want = 2 ** (n - 2) * s2 + max(2 ** (n - 2) * s2, z2)
            assert abs(report.value - want) <= SWEEP_TOL
            assert report.upper - report.value <= SWEEP_TOL
            assert report.violated  # > 1 for every alpha > 0


def test_cn_dominates_two_setting():
    rng = np.random.default_rng(77)
    for _ in range(3):
        tensor = tensor_of(random_pure(rng, 3))
        two = bk.condition_two_setting_N(tensor, restarts=10, seed=0).value
        cn = bk.condition_multisetting_CN(tensor, restarts=10, seed=0).value
        assert cn >= two - 1e-8


def test_cn_shared_plane_identity():
    """With one shared frame set, the two-setting objective splits by trailing
    index into per-slice plane-restricted Frobenius norms."""
    rng = np.random.default_rng(13)
    corr = tensor_of(random_pure(rng, 3)).correlation_part()
    for _ in range(3):
        planes = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
            planes.append(q.T)
        # two-setting objective at these frames
        t = corr
        for j, p in enumerate(planes):
            t = np.moveaxis(np.tensordot(p, t, axes=([1], [j])), 0, j)
        direct = float(np.sum(t**2))
        # split over the third party's two plane axes
        split = 0.0
        for axis in planes[2]:
            m = np.tensordot(corr, axis, axes=([2], [0]))
            restricted = planes[0] @ m @ planes[1].T
            split += float(np.sum(restricted**2))
        assert split == pytest.approx(direct, abs=1e-10)


def test_cn_report_frames_json_shape():
    report = bk.condition_multisetting_CN(ghz_tensor(3, 0.2), restarts=5, seed=0)
    data = report.to_json_dict()
    assert set(data) == {"kind", "value", "violated", "frames", "certified", "seed"}
    json.dumps(data)  # serializable
    assert len(data["frames"]) == 2  # one entry per trailing index tuple
    for entry in data["frames"]:
        assert set(entry) == {"term", "frames"}
        assert len(entry["term"]) == 1  # N - 2 trailing indices
        assert entry["term"][0] in (1, 2)


def cn_value_from_frames(tensor: bk.CorrelationTensor, terms) -> float:
    """Recompute C_N from a report's per-term frames, one term at a time."""
    corr = tensor.correlation_part()
    n = corr.ndim
    total = 0.0
    for entry in terms:
        planes = [np.array(f) for f in entry["frames"]]
        m = corr
        for j in range(n, 2, -1):  # party j uses row term[j-3] of its plane
            m = np.tensordot(m, planes[j - 1][entry["term"][j - 3] - 1], axes=([j - 1], [0]))
        total += float(np.sum((planes[0] @ m @ planes[1].T) ** 2))
    return total


def test_cn_memory_stays_bounded_at_n8():
    tensor = ghz_tensor(8, 0.3)
    report = bk.condition_multisetting_CN(tensor, restarts=2, seed=0)
    assert len(report.frames) == 2 ** 6
    assert cn_value_from_frames(tensor, report.frames) == pytest.approx(report.value, abs=1e-9)
    assert report.value >= 2 ** 6 * np.sin(0.6) ** 2 + np.cos(0.6) ** 2 - 1e-9


def generic_tensor(n: int, s: int) -> bk.CorrelationTensor:
    """The generic pure state of GENERIC_CN_FLOOR's recipe: default_rng(1000 + 10 N + s)."""
    return tensor_of(random_pure(np.random.default_rng(1000 + 10 * n + s), n))


def random_real_tensor(rng, n) -> bk.CorrelationTensor:
    """Components uniform in [-1, 1], the identity component 1: no state need have them."""
    full = rng.uniform(-1, 1, size=(4,) * n)
    full[(0,) * n] = 1.0
    return bk.CorrelationTensor(n, full)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cn_upper_bounds_the_best_of_200_restarts(n):
    tensors = [generic_tensor(n, s) for s in (0, 1)]
    if n < 5:  # 2.1 s at N=5
        tensors.append(random_real_tensor(np.random.default_rng(300 + n), n))
    for tensor in tensors:
        report = bk.condition_multisetting_CN(tensor, restarts=200, seed=2)
        assert len(report.restart_values) == 200
        assert report.upper == cn_upper(tensor.correlation_part())
        assert max(report.restart_values) <= report.upper + 1e-12


def test_cn_upper_is_the_top_two_singular_values_of_the_last_unfolding():
    rng = np.random.default_rng(47)
    tensors = [ghz_tensor(n, alpha) for n in (2, 3, 4, 5) for alpha in (0.1, 0.5, np.pi / 4)]
    tensors += [tensor_of(random_pure(rng, n)) for n in (2, 3, 4, 5, 6)]
    tensors += [random_real_tensor(rng, n) for n in (3, 4)]
    for tensor in tensors:
        corr = tensor.correlation_part()
        s = np.linalg.svd(corr.reshape(-1, 3), compute_uv=False)
        assert abs(cn_upper(corr) - (s[0] ** 2 + s[1] ** 2)) <= 1e-12 * max(1.0, s[0] ** 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cn_upper_scales_by_v_squared_under_noise(n):
    state = random_pure(np.random.default_rng(5), n)
    pure = tensor_of(state).correlation_part()
    noisy = bk.correlation_tensor(state, visibilities=(0.7,)).correlation_part()
    assert abs(cn_upper(noisy) - 0.49 * cn_upper(pure)) <= 1e-12 * cn_upper(pure)


def test_cn_restarts_stop_once_they_reach_the_bound():
    """SCAN_GRID (5, 1): restart 0 starts at the bound and runs alone.  (3, 0) and (4, 0):
    restart 0 stays below it, restart 1, the xz planes, reaches it, and the later
    restarts of the block are dropped."""
    for (n, k), most in (((5, 1), 1), ((3, 0), 2), ((4, 0), 2)):
        report = bk.condition_multisetting_CN(ghz_tensor(n, (k + 7 / 8) * np.pi / 12),
                                              seed=10 * n + k)
        assert 1 <= len(report.restart_values) == len(report.converged) <= most
        assert report.value >= report.upper - SWEEP_TOL


@pytest.mark.parametrize("n, k", [(5, 1), (3, 1)])
def test_cn_restart_0_at_the_bound_is_the_answer_with_no_sweep(n, k, monkeypatch):
    """SCAN_GRID (5, 1) and (3, 1): restart 0's start is at cn_upper, so the head's one
    evaluation is all that runs, with no sweep and no second evaluation of the winner."""
    from bellkit import qcond

    sweeps, evaluations = [], []

    def sweep(corr, state):
        sweeps.append(len(state[-1]))
        return cn_sweep(corr, state)

    def evaluate(corr, state):
        evaluations.append(len(state[-1]))
        return cn_evaluate(corr, state)

    cn_sweep, cn_evaluate = qcond._cn_sweep, qcond._cn_evaluate
    monkeypatch.setattr(qcond, "_cn_sweep", sweep)
    monkeypatch.setattr(qcond, "_cn_evaluate", evaluate)
    report = bk.condition_multisetting_CN(ghz_tensor(n, (k + 7 / 8) * np.pi / 12),
                                          seed=10 * n + k)
    assert (sweeps, evaluations) == ([], [1])
    assert report.converged == (True,)
    assert report.value >= report.upper - SWEEP_TOL


@pytest.mark.parametrize("condition, canonical", [
    (bk.condition_two_setting_N, 3), (bk.condition_multisetting_CN, 6)],
    ids=["two_setting_sufficient_N", "multisetting_CN"])
def test_a_draw_of_canonical_starts_leaves_the_generator_untouched(condition, canonical,
                                                                    monkeypatch):
    """The first 3 two-setting and 6 C_N starts are canonical planes: their draws,
    restart 0's alone included, call no _random_planes and leave the generator as
    it was.  The next start's draw moves it."""
    from bellkit import qcond

    draws, drawn = [], []

    def multistart(name, draw, *args):
        draws.append(draw)
        return run(name, draw, *args)

    run, random_planes = qcond._multistart, qcond._random_planes
    monkeypatch.setattr(qcond, "_multistart", multistart)
    monkeypatch.setattr(qcond, "_random_planes",
                        lambda *args: drawn.append(args) or random_planes(*args))
    condition(ghz_tensor(4, 0.3), restarts=1)
    [draw] = draws
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    for first, k in ((0, 1), (0, canonical), (canonical - 1, 1)):
        draw(rng, first, k)
        assert rng.bit_generator.state == before
    assert drawn == []
    draw(rng, canonical, 1)
    assert rng.bit_generator.state != before
    assert len(drawn) == 1


def test_cn_runs_every_restart_where_the_bound_is_loose():
    report = bk.condition_multisetting_CN(generic_tensor(4, 0), restarts=50, seed=0)
    assert len(report.restart_values) == len(report.converged) == 50
    assert 0.65 <= report.value / report.upper <= 0.997


#: C_N on seeded generic pure states, (N, s, value): amplitudes complex normal from
#: default_rng(1000 + 10 N + s), normalised, then 50 restarts with seed s.  The
#: values are those of the pair ascent of up to 30 iterations per plane and sweep;
#: a later ascent may rise above them but not fall below.
GENERIC_CN_FLOOR = [
    (3, 0, 2.3422380549847968),
    (3, 1, 3.385982466398986),
    (3, 2, 3.3535135385737056),
    (4, 0, 3.652974259006797),
    (4, 1, 2.785562063229405),
    (4, 2, 3.190336286034667),
    (4, 3, 2.3494614478444342),
]


@pytest.mark.parametrize("n, s, floor", GENERIC_CN_FLOOR,
                         ids=[f"N={row[0]} s={row[1]}" for row in GENERIC_CN_FLOOR])
def test_cn_on_generic_states_holds_its_floor(n, s, floor):
    tensor = generic_tensor(n, s)
    report = bk.condition_multisetting_CN(tensor, restarts=50, seed=s)
    assert report.value >= floor - BOUND_TOL
    assert abs(cn_value_from_frames(tensor, report.frames) - report.value) <= BOUND_TOL


# ---------------------------------------------------------------------------
# the orthonormal pair step inside the C_N sweeps


def random_psd(rng, rows) -> np.ndarray:
    m = rng.normal(size=(rows, 3, 3))
    return m @ np.swapaxes(m, 1, 2)


def random_pairs(rng, rows) -> tuple[np.ndarray, np.ndarray]:
    q, _ = np.linalg.qr(rng.normal(size=(rows, 3, 2)))
    return q[..., 0].copy(), q[..., 1].copy()


def quad(g, v) -> np.ndarray:
    return np.einsum("ri,rij,rj->r", v, g, v)


def top_perp_eigenvalue(g, fixed) -> np.ndarray:
    """eigh's top eigenvalue of g compressed to the plane orthogonal to each row of fixed."""
    q, _ = np.linalg.qr(fixed[:, :, None], mode="complete")
    plane = q[:, :, 1:]
    return np.linalg.eigvalsh(np.swapaxes(plane, 1, 2) @ g @ plane)[:, -1]


def pair_cases():
    """(g1, g2, a, b): random positive semidefinite rows and two degenerate sets.

    In the degenerate sets every compression has h12 = 0 and h11 = h22: g = I,
    and diag(1, 2, 2) with b along x, where a's plane is the yz plane.
    """
    rng = np.random.default_rng(2024)
    cases = [(random_psd(rng, 200), random_psd(rng, 200), *random_pairs(rng, 200))]
    eye = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    cases.append((eye, eye, *random_pairs(rng, 4)))
    diag = np.broadcast_to(np.diag([1.0, 2.0, 2.0]), (2, 3, 3)).copy()
    cases.append((diag, diag, np.array([[0.0, 1, 0], [0, 0.6, 0.8]]),
                  np.array([[1.0, 0, 0], [1, 0, 0]])))
    return cases


def pair_steps(g1, g2, a, b, count):
    """The pair (a, b) after `count` pair steps, as `count` C_N sweeps take them."""
    from bellkit.qcond import _pair_step

    for _ in range(count):
        a, b = _pair_step(g1, g2, a, b)
    return a, b


@pytest.mark.parametrize("case", range(3), ids=["random", "identity", "equal-diagonal"])
def test_pair_ascent_keeps_orthonormal_pairs_and_never_descends(case):
    g1, g2, a0, b0 = pair_cases()[case]
    start = quad(g1, a0) + quad(g2, b0)
    previous = start
    for steps in (1, 2, 5, 30):
        a, b = pair_steps(g1, g2, a0, b0, steps)
        assert np.allclose(np.linalg.norm(a, axis=1), 1, rtol=0, atol=1e-12)
        assert np.allclose(np.linalg.norm(b, axis=1), 1, rtol=0, atol=1e-12)
        assert np.all(np.abs(np.sum(a * b, axis=1)) <= 1e-12)
        value = quad(g1, a) + quad(g2, b)
        assert np.all(value >= start - 1e-12 * np.maximum(1, start))
        # a longer run continues the shorter one's path
        assert np.all(value >= previous - 1e-12 * np.maximum(1, previous))
        previous = value


def bilinear(g, u, v) -> np.ndarray:
    return np.einsum("ri,rij,rj->r", u, g, v)


def turn_coefficients(g1, g2, a, b):
    """A, X and Y of F(phi) = A + X cos 2 phi + Y sin 2 phi, the pair turned by phi in its plane."""
    big_a = 0.5 * (quad(g1, a) + quad(g1, b) + quad(g2, a) + quad(g2, b))
    x = 0.5 * (quad(g1, a) - quad(g1, b) + quad(g2, b) - quad(g2, a))
    return big_a, x, bilinear(g1, a, b) - bilinear(g2, a, b)


@pytest.mark.parametrize("case", range(3), ids=["random", "identity", "equal-diagonal"])
def test_pair_ascent_perp_steps_reach_the_top_eigenvalue(case):
    """The a-step sets a to the best vector orthogonal to b, then the b-step b to the best
    vector orthogonal to the new a."""
    from bellkit.qcond import _best_perp

    g1, g2, a0, b0 = pair_cases()[case]
    a, value_a = _best_perp(g1, b0, a0, quad(g1, a0))
    b, value_b = _best_perp(g2, a, b0, quad(g2, b0))
    for g, v, value, fixed in ((g1, a, value_a, b0), (g2, b, value_b, a)):
        top = top_perp_eigenvalue(g, fixed)
        tol = 1e-12 * max(1.0, np.max(top))
        assert np.allclose(quad(g, v), top, rtol=0, atol=tol)
        assert np.allclose(value, top, rtol=0, atol=tol)
        assert np.all(np.abs(np.sum(v * fixed, axis=1)) <= 1e-12)


@pytest.mark.parametrize("case", range(3), ids=["random", "identity", "equal-diagonal"])
def test_turn_reaches_the_best_in_plane_angle(case):
    """The turn reaches max over phi of F(phi), which is A + hypot(X, Y)."""
    from bellkit.qcond import _turn

    g1, g2, a0, b0 = pair_cases()[case]
    a, b = _turn(g1, g2, a0, b0, quad(g1, a0), quad(g2, b0))
    value_a, value_b = quad(g1, a), quad(g2, b)
    big_a, x, y = turn_coefficients(g1, g2, a0, b0)
    best = big_a + np.hypot(x, y)
    tol = 1e-12 * max(1.0, np.max(best))
    phi = np.linspace(0, np.pi, 721)[:, None, None]
    sampled = [quad(g1, np.cos(p) * a0 + np.sin(p) * b0) + quad(g2, np.cos(p) * b0 - np.sin(p) * a0)
               for p in phi]
    assert np.all(np.max(sampled, axis=0) <= best + tol)
    assert np.allclose(quad(g1, a) + quad(g2, b), best, rtol=0, atol=tol)
    assert np.allclose(value_a + value_b, best, rtol=0, atol=tol)
    assert np.allclose(value_a, quad(g1, a), rtol=0, atol=tol)
    # a turn stays in the pair's plane and keeps it orthonormal
    assert np.allclose(np.linalg.norm(a, axis=1), 1, rtol=0, atol=1e-12)
    assert np.all(np.abs(np.sum(a * b, axis=1)) <= 1e-12)
    normal = np.cross(a0, b0)
    assert np.all(np.abs(np.sum(a * normal, axis=1)) <= 1e-12)
    assert np.all(np.abs(np.sum(b * normal, axis=1)) <= 1e-12)


def stationarity_cases():
    """(g1, g2, a, b): pair_cases()'s random rows, rows of equal spectra, g2 = R g1 R^T, and
    rows with g1 = g2."""
    rng = np.random.default_rng(2025)
    g = random_psd(rng, 200)
    rotations = np.stack([random_rotation(rng) for _ in range(200)])
    return [pair_cases()[0],
            (g, rotations @ g @ np.swapaxes(rotations, 1, 2), *random_pairs(rng, 200)),
            (g, g.copy(), *random_pairs(rng, 200))]


@pytest.mark.parametrize("case", range(3), ids=["random", "equal-spectrum", "equal"])
def test_pair_ascent_returns_stationary_pairs(case):
    """After 100 pair steps no a-step, b-step or turn raises a pair, and every row is
    a fixed point of the step."""
    g1, g2, a0, b0 = stationarity_cases()[case]
    a, b = pair_steps(g1, g2, a0, b0, 100)
    longer = pair_steps(g1, g2, a, b, 100)
    assert np.array_equal(longer[0], a) and np.array_equal(longer[1], b)
    value = quad(g1, a) + quad(g2, b)
    tol = 1e-12 * np.maximum(1.0, value)
    assert np.all(top_perp_eigenvalue(g1, b) - quad(g1, a) <= tol)
    assert np.all(top_perp_eigenvalue(g2, a) - quad(g2, b) <= tol)
    _, x, y = turn_coefficients(g1, g2, a, b)
    assert np.all(np.hypot(x, y) - x <= tol)
    if case == 2:
        # g1 = g2 = G: the best plane holds G's top two eigenvectors (Ky Fan)
        assert np.all(np.sum(np.linalg.eigvalsh(g1)[:, 1:], axis=1) - value <= tol)


def test_best_perp_keeps_the_current_vector_unless_the_candidate_is_as_good():
    from bellkit.qcond import _best_perp

    g, _, current, fixed = pair_cases()[0]
    top = top_perp_eigenvalue(g, fixed)
    # a row whose current value is above the plane's top keeps its vector and value
    claimed = np.where(np.arange(len(top)) % 2 == 0, top + 1, quad(g, current))
    vector, value = _best_perp(g, fixed, current, claimed)
    keep = slice(0, None, 2)
    assert np.array_equal(vector[keep], current[keep]) and np.array_equal(value[keep], top[keep] + 1)
    move = slice(1, None, 2)
    assert np.allclose(value[move], top[move], rtol=0, atol=1e-12 * np.max(top))
    assert np.allclose(quad(g, vector)[move], top[move], rtol=0, atol=1e-12 * np.max(top))


def test_pair_ascent_rows_do_not_depend_on_the_batch():
    """A row alone gives the bits it gets among 200, as the restarts' promise needs."""
    from bellkit.qcond import _pair_step

    g1, g2, a0, b0 = pair_cases()[0]
    a, b = _pair_step(g1, g2, a0, b0)
    # the caller's layout: leading (restart, branch) axes
    a2, b2 = _pair_step(g1.reshape(50, 4, 3, 3), g2.reshape(50, 4, 3, 3),
                        a0.reshape(50, 4, 3), b0.reshape(50, 4, 3))
    assert np.array_equal(a2.reshape(200, 3), a) and np.array_equal(b2.reshape(200, 3), b)
    for r in (0, 1, 37, 123, 199):
        ar, br = _pair_step(g1[r:r + 1], g2[r:r + 1], a0[r:r + 1], b0[r:r + 1])
        assert np.array_equal(ar[0], a[r]) and np.array_equal(br[0], b[r])
    # the inputs are not written to
    assert np.array_equal(pair_cases()[0][2], a0)


# ---------------------------------------------------------------------------
# the closed-form weakest right singular vector behind the C_N sweeps


def kernel_cases():
    """Stacks of 3x3 matrices: degenerate spectra, an orthogonal multiple, random ones at
    three scales, and two nearly equal smallest singular values, where arccos loses half
    its digits."""
    rng = np.random.default_rng(35)
    random = rng.normal(size=(200, 3, 3))
    near = np.stack([random_rotation(rng) @ np.diag([2.0, 1.0, 1.0 - gap]) @ random_rotation(rng)
                     for gap in (1e-6, 1e-8, 1e-9, 1e-10, 1e-12)])
    return {
        "zero": np.zeros((1, 3, 3)),
        "rank-1": np.outer(rng.normal(size=3), rng.normal(size=3))[None],
        "diag(1,1,0)": np.diag([1.0, 1.0, 0.0])[None],
        "diag(2,1,1)": np.diag([2.0, 1.0, 1.0])[None],
        "c*orthogonal": 0.7 * random_rotation(rng)[None],
        "random": random,
        "random*1e150": random * 1e150,
        "random*1e-150": random * 1e-150,
        "near-double": near,
    }


def weakest(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel on a stack of matrices, (R, 3, 3), one restart each: (values, (R, 3) vectors)."""
    from bellkit.qcond import _cn_weakest

    value, v = _cn_weakest(np.moveaxis(m, 0, -1)[:, :, :, None])
    return value, v[:, :, 0].T


@pytest.mark.parametrize("name", list(kernel_cases()))
def test_weakest_vector_kernel_matches_the_svd(name):
    """s1^2 + s2^2 within 1e-12 relative, v a unit vector with |M v|^2 the smallest
    eigenvalue of M^T M, and the value scaling by c^2 when M scales by c."""
    m = kernel_cases()[name]
    s = np.linalg.svd(m, compute_uv=False)
    value, v = weakest(m)
    top2 = s[:, 0] ** 2 + s[:, 1] ** 2
    assert np.all(np.abs(value - top2) <= 1e-12 * top2)
    assert np.allclose(np.linalg.norm(v, axis=1), 1, rtol=0, atol=1e-15)
    weak = np.linalg.norm(m @ v[:, :, None], axis=(1, 2)) ** 2
    assert np.all(np.abs(weak - s[:, 2] ** 2) <= 1e-12 * np.sum(s ** 2, axis=1))
    for c in (0.7, 3.0):  # 0.7 is the visibility of the noise relation test
        assert np.all(np.abs(weakest(c * m)[0] - c * c * value) <= 1e-12 * c * c * value)


def test_svd_only_in_the_two_qubit_closed_form_and_the_cn_report():
    """np.linalg.svd appears in qcond.py once in condition_two_qubit and once in
    condition_multisetting_CN itself, for the report's frames; the sweeps take none."""
    import ast
    import inspect

    from bellkit import qcond

    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if isinstance(node, (ast.Attribute, ast.Name)) and "svd" in (
                getattr(node, "attr", None), getattr(node, "id", None)):
            found.append((owner, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(inspect.getsource(qcond)), None)
    assert found == [("condition_two_qubit", "np.linalg.svd"),
                     ("condition_multisetting_CN", "np.linalg.svd")]


def test_multistart_refuses_a_non_finite_value(monkeypatch):
    """A kernel that returns NaN stops the optimizer with a RuntimeError that names it,
    not with an unbound winner."""
    from bellkit import qcond

    def nan_kernel(m):
        value, v = kernel(m)
        return np.full_like(value, np.nan), v

    kernel = qcond._cn_weakest
    monkeypatch.setattr(qcond, "_cn_weakest", nan_kernel)
    with pytest.raises(RuntimeError, match="^multisetting_CN reached the restart value nan$"):
        bk.condition_multisetting_CN(ghz_tensor(3, 0.3), restarts=3, seed=0)


def toy_multistart(starts, targets, restarts, ceiling=1.0, swept=None):
    """_multistart with blocks of 4 on a toy ascent: restart i starts at starts[i] and
    each sweep moves it 0.25 towards targets[i].  Returns the restart values, the
    converged flags, the winner and the (first, count) of every draw; each sweep call
    appends the restarts it swept to `swept`, when given."""
    from bellkit import qcond

    draws = []

    def draw(rng, first, k):
        draws.append((first, k))
        return (np.array(starts[first:first + k], float), np.array(targets[first:first + k], float),
                np.arange(first, first + k))

    def sweep(state):
        value, target, index = state
        if swept is not None:
            swept.append(index.tolist())
        value = value + np.clip(target - value, -0.25, 0.25)
        return (value, target, index), value.copy()

    values, converged, best, _, value, _ = qcond._multistart(
        "toy", draw, lambda state: state[0].copy(), sweep, restarts, 0,
        qcond._BLOCK_ENTRIES // 4, ceiling)
    return values.tolist(), converged.tolist(), (best, value), draws


def test_multistart_stop_rule_at_a_ceiling():
    # restart 3 reaches the ceiling at sweep 2 and restart 1 at sweep 4, which drops
    # restarts 2 and 3; restart 0 runs on to its own stop at sweep 5, and block 4..7
    # never starts
    starts, targets = [-0.5, 0, 0, 0.5] + [0] * 4, [0.5, 1.0, 0.9, 1.0] + [1.0] * 4
    assert toy_multistart(starts, targets, 8) == (
        [0.5, 1.0], [True, True], (1, 1.0), [(0, 1), (1, 3)])
    # the first r restarts of the longer run are the run with r restarts
    assert toy_multistart(starts, targets, 1)[:3] == ([0.5], [True], (0, 0.5))
    assert toy_multistart(starts, targets, 3)[:3] == ([0.5, 1.0], [True, True], (1, 1.0))
    # without a ceiling every restart runs, four to a block
    values, _, _, draws = toy_multistart(starts, targets, 8, ceiling=None)
    assert values == [0.5, 1.0, 0.9, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert draws == [(0, 4), (4, 4)]
    # restart 0 starts at the ceiling: it is the answer, with no sweep, and nothing else
    # is drawn; so is a start at the ceiling whose target lies below it
    for targets_0 in ([1.0] * 3, [0.5, 0.6, 0.9]):
        swept = []
        assert toy_multistart([1.0, 0, 0.5], targets_0, 3, swept=swept) == (
            [1.0], [True], (0, 1.0), [(0, 1)])
        assert swept == []
    # a later restart that starts at the ceiling is converged with no sweep
    swept = []
    assert toy_multistart([0, 1.0, 0], [0.5, 1.0, 1.0], 3, swept=swept) == (
        [0.5, 1.0], [True, True], (1, 1.0), [(0, 1), (1, 2)])
    assert swept == [[0], [0], [0]]


def test_multistart_restart_at_the_ceiling_sweeps_no_more():
    # restart 3 reaches the ceiling at sweep 2 and is not swept again; restart 1 at
    # sweep 4, which drops restart 2; restart 0 alone runs sweep 5 to its own stop
    starts, targets = [-0.5, 0, 0, 0.5] + [0] * 4, [0.5, 1.0, 0.9, 1.0] + [1.0] * 4
    swept = []
    toy_multistart(starts, targets, 8, swept=swept)
    assert swept == [[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2], [0, 1, 2], [0]]


def test_multistart_evaluates_the_winner_again_only_if_it_swept():
    """This sweep reports 1e-13 more than its state attains: a winner that swept gets
    evaluate()'s value of its state, and one that never swept keeps the value of its
    start's evaluation, with no second one."""
    from bellkit import qcond

    evaluated = []

    def evaluate(state):
        evaluated.append(len(state[0]))
        return state[0].copy()

    def sweep(state):
        value = np.minimum(state[0] + 0.25, 0.5)
        return (value,), value + 1e-13

    def run(starts, ceiling):
        evaluated.clear()
        draw = lambda rng, first, k: (np.array(starts[first:first + k], float),)  # noqa: E731
        _, _, best, _, value, _ = qcond._multistart(
            "toy", draw, evaluate, sweep, len(starts), 0, qcond._BLOCK_ENTRIES // 4, ceiling)
        return best, value, list(evaluated)

    # both sweep to 0.5, reported as 0.5 + 1e-13; restart 0 wins and is evaluated again
    assert run([0.0, -1.0], None) == (0, 0.5, [2, 1])
    # restart 1 starts at the ceiling and wins unswept; restart 0 sweeps to its stop
    assert run([0.0, 1.0], 1.0) == (1, 1.0, [1, 1])


@pytest.mark.parametrize("starts, targets", [
    ([-0.5, 0, 0, 0.5] + [0] * 4, [0.5, 1.0, 0.9, 1.0] + [1.0] * 4),
    ([0.2, 0.9999, 0.5, 1.0, 0, 0, 0.8, 0.1], [0.6, 0.9, 0.75, 1.0, 0.5, 1.0, 1.0, 0.2]),
    ([0.0] * 4 + [0.5, 0.9, 1.0, 0.0], [0.5] * 4 + [0.6, 1.0, 1.0, 1.0]),
    ([1.0] + [0.0] * 7, [0.5] * 8),
])
def test_multistart_prefix_rule_holds_with_a_ceiling(starts, targets):
    """The first r restarts of a run with 8 are the run with r restarts, and a run that
    stopped at the ceiling before r is the whole longer run."""
    full, _, _, _ = toy_multistart(starts, targets, 8)
    for r in range(1, 8):
        values, converged, _, _ = toy_multistart(starts, targets, r)
        assert values == full[:len(values)] and len(converged) == len(values)
        if len(values) < r:
            assert full == values


#: the scan grid, GHZ N=3..5 at alpha = (k + 7/8) pi / 12 with 50 restarts and
#: seed 10 N + k, as one pair step (a-step, b-step, in-plane turn) per plane
#: and sweep computes it: per point, (N, k), then C_N's and the two-setting
#: condition's (value, violated, restarts_at_best).  The C_N values are those
#: of the ascent of up to 30 iterations per plane and sweep to within 4e-15.
#: Both conditions' restarts stop once one reaches its upper bound.  C_N
#: reaches cn_upper at every point, so its count is 1: restart 0 runs alone,
#: or at N=3 and 4, k=0, restarts 0 and 1 run, with 1 (the xz planes) at the
#: bound.  The two-setting count is 1 where restart 0 reaches
#: two_setting_upper; at N=3 and 4, k=0, its restarts stay 0.19 and 0.22
#: below it and all 50 run, those within BOUND_TOL of the best sitting within
#: 1e-13 of it.
SCAN_GRID = [
    (3, 0, (1.1956192854956398, True, 1), (1.0, False, 35)),
    (3, 1, (2.765366864730181, True, 1), (2.7653668647301806, True, 1)),
    (3, 2, (3.9828897227476228, True, 1), (3.9828897227476205, True, 1)),
    (4, 0, (1.782477141982561, True, 1), (1.5649542839651172, True, 24)),
    (4, 1, (5.530733729460364, True, 1), (5.530733729460358, True, 1)),
    (4, 2, (7.965779445495246, True, 1), (7.965779445495241, True, 1)),
    (5, 0, (3.1299085679302356, True, 1), (3.1299085679302343, True, 1)),
    (5, 1, (11.061467458920724, True, 1), (11.061467458920715, True, 1)),
    (5, 2, (15.931558890990493, True, 1), (15.931558890990482, True, 1)),
]


@pytest.mark.parametrize("n, k, cn, two", SCAN_GRID,
                         ids=[f"N={row[0]} k={row[1]}" for row in SCAN_GRID])
def test_scan_grid_results_hold(n, k, cn, two):
    tensor = ghz_tensor(n, (k + 7 / 8) * np.pi / 12)
    for optimize, (value, violated, at_best) in ((bk.condition_multisetting_CN, cn),
                                                 (bk.condition_two_setting_N, two)):
        report = optimize(tensor, restarts=50, seed=10 * n + k)
        assert abs(report.value - value) <= BOUND_TOL
        assert (report.violated, report.restarts_at_best) == (violated, at_best)


# ---------------------------------------------------------------------------
# restarts: one batched multi-start loop, each restart on its own path


OPTIMIZERS = [bk.condition_two_setting_N, bk.condition_multisetting_CN]


@pytest.mark.parametrize("optimize", OPTIMIZERS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_more_restarts_never_lower_the_value(optimize, n):
    # at alpha = 0.7 the two-setting restarts stop at their bound, at 0.25 below N=5 they do not
    for alpha in (0.25, 0.7):
        tensor = ghz_tensor(n, alpha)
        reports = [optimize(tensor, restarts=r, seed=3) for r in (1, 7, 50)]
        values = [r.value for r in reports]
        assert values[0] <= values[1] <= values[2]
        # the first r restarts of a longer run are the run with r restarts
        for short, r in zip(reports[:2], (1, 7)):
            ran = len(short.restart_values)
            head = reports[2].restart_values[:ran]
            assert np.allclose(head, short.restart_values, rtol=0, atol=1e-12)
            if ran < r:  # stopped at the bound, and so did the longer run
                assert len(reports[2].restart_values) == ran


@pytest.mark.parametrize("optimize", OPTIMIZERS)
def test_restart_values_never_decrease_per_sweep(optimize, monkeypatch):
    from bellkit import limits

    tensor = tensor_of(random_pure(np.random.default_rng(23), 4))
    runs = []
    for sweeps in range(8):
        monkeypatch.setattr(limits, "MAX_SWEEPS", sweeps)
        runs.append(np.array(optimize(tensor, restarts=12, seed=1).restart_values))
    assert np.all(np.diff(np.stack(runs), axis=0) >= -1e-12)
    monkeypatch.setattr(limits, "MAX_SWEEPS", 0)
    assert not any(optimize(tensor, restarts=12, seed=1).converged)
    monkeypatch.undo()
    assert all(optimize(tensor, restarts=12, seed=1).converged)


def test_restarts_at_best_on_every_report():
    tensor = ghz_tensor(3, 0.3)
    reports = [bk.condition_two_qubit(ghz_tensor(2, 0.3)),
               bk.condition_multisetting_CN(ghz_tensor(2, 0.3))]
    for restarts in (1, 2, 50):
        reports += [optimize(tensor, restarts=restarts, seed=0) for optimize in OPTIMIZERS]
    for report in reports:
        assert report.restarts_at_best >= 1
        values = np.array(report.restart_values)
        assert report.restarts_at_best == np.sum(np.abs(values - report.value) <= 1e-9)
        assert len(report.converged) == len(report.restart_values)
    # GHZ N=3 at alpha=0.3: the two-setting sweeps split between 1.275 and 1.0
    two = bk.condition_two_setting_N(tensor, restarts=50, seed=0)
    assert 1 <= two.restarts_at_best < 50


def test_conditions_reject_zero_restarts():
    for optimize in OPTIMIZERS:
        for restarts in (0, -3):
            with pytest.raises(ValueError):
                optimize(ghz_tensor(3, 0.3), restarts=restarts)


# ---------------------------------------------------------------------------
# frame invariance


def test_conditions_invariant_under_local_rotations():
    rng = np.random.default_rng(4)
    base2 = ghz_tensor(2, 0.3)
    base3 = ghz_tensor(3, 0.3)
    for _ in range(2):
        rot2 = rotate_tensor(base2, [random_rotation(rng) for _ in range(2)])
        assert bk.condition_two_qubit(rot2).value == pytest.approx(
            bk.condition_two_qubit(base2).value, abs=1e-8
        )
        rot3 = rotate_tensor(base3, [random_rotation(rng) for _ in range(3)])
        assert bk.condition_two_setting_N(rot3, restarts=15, seed=0).value == pytest.approx(
            bk.condition_two_setting_N(base3, restarts=15, seed=0).value, abs=1e-8
        )
        assert bk.condition_multisetting_CN(rot3, restarts=15, seed=0).value == pytest.approx(
            bk.condition_multisetting_CN(base3, restarts=15, seed=0).value, abs=1e-8
        )


def haar_unitary(rng) -> np.ndarray:
    """A Haar-random 2x2 unitary: QR of a complex Gaussian, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def transformed(state: bk.PureState, unitaries=(), order=None) -> bk.PureState:
    """U_1 x ... x U_N applied to a pure state, then its parties put in `order`."""
    psi = state.amplitudes.reshape((2,) * state.n_qubits)
    for j, u in enumerate(unitaries):
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [j])), 0, j)
    if order is not None:
        psi = np.transpose(psi, order)
    return bk.PureState(state.n_qubits, psi.reshape(-1))


def two_setting(tensor) -> float:
    return bk.condition_two_setting_N(tensor, restarts=50, seed=1).value


def cn(tensor) -> float:
    return bk.condition_multisetting_CN(tensor, restarts=50, seed=1).value


# Exact relations on seeded random pure states, checked to BOUND_TOL: the
# conditions are maxima over local planes, so no oracle is needed.  C_N costs
# about 0.01 s per call at N = 3, 0.1 s at N = 4 and 0.8 s at N = 5.


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conditions_invariant_under_local_unitaries(n):
    rng = np.random.default_rng(5)
    state = random_pure(rng, n)
    states = [state] + [transformed(state, [haar_unitary(rng) for _ in range(n)])
                        for _ in range(2)]
    for condition in (two_setting, cn):
        values = [condition(tensor_of(s)) for s in states]
        assert max(values) - min(values) <= BOUND_TOL


@pytest.mark.parametrize("n", [3, 4])
def test_two_setting_invariant_under_party_permutations(n):
    state = random_pure(np.random.default_rng(5), n)
    values = [two_setting(tensor_of(transformed(state, order=order)))
              for order in itertools.permutations(range(n))]
    assert max(values) - min(values) <= BOUND_TOL


@pytest.mark.parametrize("n", [3, 4])
def test_cn_invariant_under_swapping_parties_1_and_2(n):
    """M_t^T has the singular values of M_t."""
    state = random_pure(np.random.default_rng(5), n)
    swapped = transformed(state, order=(1, 0, *range(2, n)))
    assert abs(cn(tensor_of(swapped)) - cn(tensor_of(state))) <= BOUND_TOL


@pytest.mark.parametrize("n", [3, 4, 5])
def test_noise_scales_conditions_by_v_squared_and_seesaw_by_v(n):
    """noise:v=0.7 scales every correlation by v: the restarts take the same
    paths, so the conditions scale by v^2 and the see-saw value by v."""
    rng = np.random.default_rng(5)
    state = random_pure(rng, n)
    ineq = bk.sign_inequality(bk.SignFunction(n, tuple(rng.integers(0, 2, 2**n))))
    pure, noisy = tensor_of(state), bk.correlation_tensor(state, visibilities=(0.7,))
    assert abs(two_setting(noisy) - 0.49 * two_setting(pure)) <= BOUND_TOL
    assert abs(cn(noisy) - 0.49 * cn(pure)) <= BOUND_TOL
    seesaw = [bk.maximize_bell_value(ineq, t, restarts=50, seed=1).value for t in (pure, noisy)]
    assert abs(seesaw[1] - 0.7 * seesaw[0]) <= BOUND_TOL


# ---------------------------------------------------------------------------
# see-saw maximizer


def test_seesaw_chsh_singlet():
    result = bk.maximize_bell_value(display_chsh(), tensor_of(bk.singlet()),
                                    restarts=10, seed=0)
    assert result.value == pytest.approx(2 * SQ2, abs=1e-6)
    assert result.converged


def test_seesaw_mermin_ghz():
    result = bk.maximize_bell_value(display_mermin(), ghz_tensor(3, np.pi / 4),
                                    restarts=10, seed=0)
    assert abs(result.value) == pytest.approx(4.0, abs=1e-6)


def test_seesaw_product_state_reaches_classical_bound():
    state = bk.PureState(2, np.array([1, 0, 0, 0], dtype=complex))
    result = bk.maximize_bell_value(display_chsh(), tensor_of(state), restarts=10, seed=0)
    assert result.value == pytest.approx(2.0, abs=1e-6)


def test_seesaw_value_formula_two_qubit():
    # the family optimum over settings is 2 sqrt(condition value)
    rng = np.random.default_rng(19)
    for _ in range(3):
        tensor = tensor_of(random_pure(rng, 2))
        cond = bk.condition_two_qubit(tensor).value
        result = bk.maximize_bell_value(display_chsh(), tensor, restarts=15, seed=0)
        assert result.value == pytest.approx(2 * np.sqrt(cond), abs=1e-6)


def test_seesaw_monotone_history():
    tensor = ghz_tensor(3, 0.25)
    ineq = bk.sign_inequality(bk.SignFunction.from_bitstring("00010111"))
    result = bk.maximize_bell_value(ineq, tensor, restarts=3, seed=2)
    diffs = np.diff(np.array(result.history))
    assert np.all(diffs >= -1e-12)


def test_seesaw_degenerate_tensor():
    mixed = bk.DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    result = bk.maximize_bell_value(display_chsh(), bk.correlation_tensor(mixed),
                                    restarts=2, seed=0)
    assert result.value == pytest.approx(0.0, abs=1e-12)
    assert result.degenerate_updates > 0


def test_seesaw_validation():
    with pytest.raises(ValueError):
        bk.maximize_bell_value(display_chsh(), ghz_tensor(3, 0.1))
    with pytest.raises(ValueError):
        bk.maximize_bell_value(display_chsh(), tensor_of(bk.singlet()), restarts=0)


def test_maximization_result_json():
    result = bk.maximize_bell_value(display_chsh(), tensor_of(bk.singlet()),
                                    restarts=2, seed=0)
    data = result.to_json_dict()
    assert set(data) == {"value", "settings", "converged", "degenerate_updates", "seed"}
    json.dumps(data)
    assert len(data["settings"]) == 2
    assert len(data["settings"][0]) == 2


# ---------------------------------------------------------------------------
# condition > 1 pairs with an explicit family violation and an LP certificate


def quantum_table(tensor: bk.CorrelationTensor, settings) -> bk.CorrelationTable:
    """E(k): the correlation part contracted with setting k_j's direction of each party j."""
    values = tensor.correlation_part()
    for directions in settings:  # contracts the leading axis, appends the settings axis
        values = np.tensordot(values, np.asarray(directions), axes=([0], [1]))
    return bk.CorrelationTable(bk.ExperimentLayout(tuple(len(s) for s in settings)), values)


@pytest.mark.parametrize("make_tensor,n", [
    (lambda: tensor_of(bk.singlet()), 2),
    (lambda: ghz_tensor(3, np.pi / 4), 3),
])
def test_condition_violation_yields_family_violation(make_tensor, n):
    tensor = make_tensor()
    cond = (bk.condition_two_qubit(tensor) if n == 2
            else bk.condition_two_setting_N(tensor, restarts=10, seed=0))
    assert cond.violated

    best = None
    for sign in bk.enumerate_sign_functions(n):
        ineq = bk.sign_inequality(sign)
        result = bk.maximize_bell_value(ineq, tensor, restarts=3, seed=0)
        if best is None or result.value - float(ineq.bound) > best[0]:
            best = (result.value - float(ineq.bound), result)
    excess, result = best
    assert excess > 1e-6

    table = quantum_table(tensor, result.settings)
    membership = bk.polytope_membership(table)
    assert not membership.inside
    cert = membership.certificate
    value = float(np.sum(cert.coefficients * table.values))
    assert value > cert.bound + 1e-9
