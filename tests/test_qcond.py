"""Violation conditions and the see-saw maximizer."""
import itertools
import json

import numpy as np
import pytest

import bellkit as bk
from bellkit.tolerance import BOUND_TOL

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


def test_cn_ghz_lower_bound_formula():
    for n in (3, 4, 5):
        for alpha in (0.05, 0.2, np.pi / 8, np.pi / 4):
            report = bk.condition_multisetting_CN(ghz_tensor(n, alpha), restarts=10, seed=0)
            s2 = np.sin(2 * alpha) ** 2
            want = 2 ** (n - 2) * s2 + (1 - s2)
            assert report.value >= want - 1e-9
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
    tensor = tensor_of(random_pure(np.random.default_rng(1000 + 10 * n + s), n))
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


#: the scan grid, GHZ N=3..5 at alpha = (k + 7/8) pi / 12 with 50 restarts and
#: seed 10 N + k, as one pair step (a-step, b-step, in-plane turn) per plane
#: and sweep computes it: per point, (N, k), then C_N's and the two-setting
#: condition's (value, violated, restarts_at_best).  The C_N values are those
#: of the ascent of up to 30 iterations per plane and sweep to within 4e-15,
#: and no restarts_at_best is lower.
#: The restarts within BOUND_TOL of the best sit within 1e-13 of it, the
#: others at least 0.2 below.
SCAN_GRID = [
    (3, 0, (1.1956192854956398, True, 41), (1.0, False, 35)),
    (3, 1, (2.765366864730181, True, 50), (2.7653668647301806, True, 39)),
    (3, 2, (3.9828897227476228, True, 50), (3.9828897227476205, True, 48)),
    (4, 0, (1.782477141982561, True, 44), (1.5649542839651172, True, 24)),
    (4, 1, (5.530733729460364, True, 50), (5.530733729460358, True, 37)),
    (4, 2, (7.965779445495246, True, 50), (7.965779445495241, True, 43)),
    (5, 0, (3.1299085679302356, True, 25), (3.1299085679302343, True, 39)),
    (5, 1, (11.061467458920724, True, 50), (11.061467458920715, True, 46)),
    (5, 2, (15.931558890990493, True, 50), (15.931558890990482, True, 48)),
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
    tensor = ghz_tensor(n, 0.25)
    reports = [optimize(tensor, restarts=r, seed=3) for r in (1, 7, 50)]
    values = [r.value for r in reports]
    assert values[0] <= values[1] <= values[2]
    # the first r restarts of a longer run are the run with r restarts
    for short in reports[:2]:
        head = reports[2].restart_values[:len(short.restart_values)]
        assert np.allclose(head, short.restart_values, rtol=0, atol=1e-12)


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
# about 0.05 s per call at N = 3 and 0.2 s at N = 4.


@pytest.mark.parametrize("n", [3, 4])
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


@pytest.mark.parametrize("n", [3, 4])
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
