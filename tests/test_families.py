"""State families: analytic tensors vs the trace path, thresholds, noise."""
import numpy as np
import pytest

import bellkit as bk


def trace_tensor(n, alpha) -> bk.CorrelationTensor:
    state = bk.ghz_state(bk.GhzFamily(n, alpha))
    return bk.correlation_tensor(bk.density_from_pure(state))


def test_ghz_state_amplitudes():
    state = bk.ghz_state(bk.GhzFamily(3, 0.3))
    assert state.amplitudes[0] == pytest.approx(np.cos(0.3))
    assert state.amplitudes[-1] == pytest.approx(np.sin(0.3))
    assert np.allclose(state.amplitudes[1:-1], 0.0)

    product = bk.ghz_state(bk.GhzFamily(2, 0.0))
    assert product.amplitudes[0] == pytest.approx(1.0)


def test_ghz_family_validation():
    with pytest.raises(ValueError):
        bk.GhzFamily(1, 0.1)
    with pytest.raises(ValueError):
        bk.GhzFamily(3, 1.0)
    with pytest.raises(ValueError):
        bk.GhzFamily(3, -0.5)
    # a decimal approximation of pi/4 from the command line must be accepted
    bk.GhzFamily(2, 0.7854)
    # refused before ghz_state or ghz_tensor_analytic allocates 2**N or 4**N entries
    bk.GhzFamily(10, 0.3)
    with pytest.raises(bk.ResourceLimitError, match="capped at 10 qubits"):
        bk.GhzFamily(16, 0.3)


def test_singlet_perfect_anticorrelation_any_axis():
    tensor = bk.correlation_tensor(bk.density_from_pure(bk.singlet()))
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert v @ tensor.correlation_part() @ v == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_analytic_tensor_matches_trace(n):
    for alpha in (0.0, np.pi / 12, np.pi / 8, np.pi / 4):
        analytic = bk.ghz_tensor_analytic(bk.GhzFamily(n, alpha))
        numeric = trace_tensor(n, alpha)
        assert np.max(np.abs(analytic.components - numeric.components)) < 1e-10


def test_analytic_tensor_component_census():
    for n in (3, 4, 5):
        alpha = 0.31
        comp = bk.ghz_tensor_analytic(bk.GhzFamily(n, alpha)).components
        s = np.sin(2 * alpha)
        # all-z component: 1 for even N, cos(2 alpha) for odd
        allz = comp[(3,) * n]
        assert allz == pytest.approx(1.0 if n % 2 == 0 else np.cos(2 * alpha), abs=1e-12)
        # {x,y} components with an even y count: (-1)^(y/2) sin(2 alpha)
        xy_block = comp[(slice(1, 3),) * n]
        nonzero = np.abs(xy_block) > 1e-12
        assert np.count_nonzero(nonzero) == 2 ** (n - 1)
        assert np.sum(xy_block**2) == pytest.approx(2 ** (n - 1) * s**2, abs=1e-10)
        for idx in np.argwhere(nonzero):
            y_count = int(np.sum(idx == 1))
            assert y_count % 2 == 0
            want = (-1) ** (y_count // 2) * s
            assert xy_block[tuple(idx)] == pytest.approx(want, abs=1e-12)


def test_ghz3_maximal_components():
    comp = bk.ghz_tensor_analytic(bk.GhzFamily(3, np.pi / 4)).components
    assert comp[1, 1, 1] == pytest.approx(1.0)
    assert comp[1, 2, 2] == comp[2, 1, 2] == comp[2, 2, 1] == pytest.approx(-1.0)
    assert comp[3, 3, 3] == pytest.approx(0.0, abs=1e-12)


def test_scarani_gisin_threshold_values():
    assert bk.scarani_gisin_threshold(3) == pytest.approx(0.5)
    assert bk.scarani_gisin_threshold(5) == pytest.approx(0.25)
    assert bk.scarani_gisin_threshold(2) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        bk.scarani_gisin_threshold(1)


def test_mix_with_white_noise_limits():
    rho = bk.density_from_pure(bk.singlet())
    assert np.allclose(bk.mix_with_white_noise(rho, 1.0).matrix, rho.matrix)
    mixed = bk.mix_with_white_noise(rho, 0.0)
    assert np.allclose(mixed.matrix, np.eye(4) / 4)
    with pytest.raises(ValueError):
        bk.mix_with_white_noise(rho, 1.5)
    with pytest.raises(ValueError):
        bk.mix_with_white_noise(rho, -0.1)


def test_noise_scales_correlation_part():
    rho = bk.density_from_pure(bk.ghz_state(bk.GhzFamily(3, 0.2)))
    pure = bk.correlation_tensor(rho)
    for v in (0.3, 0.8):
        noisy = bk.correlation_tensor(bk.mix_with_white_noise(rho, v))
        assert np.allclose(noisy.correlation_part(), v * pure.correlation_part(), atol=1e-12)
        assert noisy.components[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


def test_noisy_singlet_condition_closed_form():
    rho = bk.density_from_pure(bk.singlet())
    for v in (0.2, 0.6, 1 / np.sqrt(2), 0.9):
        noisy = bk.correlation_tensor(bk.mix_with_white_noise(rho, v))
        report = bk.condition_two_qubit(noisy)
        assert report.value == pytest.approx(2 * v**2, abs=1e-12)
        assert report.violated == (2 * v**2 > 1 + 1e-9)
