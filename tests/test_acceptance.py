"""Acceptance checks: one test per shipped guarantee, tolerances pinned.

Each test is independently runnable; `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.
"""
import math
import time

import numpy as np
import pytest

import bellkit as bk

RNG_SEED = 20260816

_CACHE: dict = {}


def random_two_setting_tables():
    # shared between criteria 1 and 2 so both see the same sample
    if "tables" not in _CACHE:
        rng = np.random.default_rng(RNG_SEED)
        tables = []
        for settings, count in (((2, 2), 1000), ((2, 2, 2), 500)):
            layout = bk.ExperimentLayout(settings)
            for _ in range(count):
                values = rng.uniform(-1.0, 1.0, size=layout.shape)
                tables.append(bk.CorrelationTable(layout, values))
        _CACHE["tables"] = tables
    return _CACHE["tables"]


def test_criterion_01_lp_membership_matches_transform_bound():
    start = time.perf_counter()
    checked = 0
    for table in random_two_setting_tables():
        n = table.layout.n_parties
        lhs = bk.general_bell_lhs(table)
        if abs(lhs - 2.0 ** n) <= 1e-9:
            continue
        result = bk.polytope_membership(table)
        assert result.inside == (lhs <= 2.0 ** n), (n, lhs)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 1400
    assert elapsed < 60.0, f"membership sweep took {elapsed:.1f}s"


def test_criterion_02_admissible_tables_round_trip():
    checked = 0
    for table in random_two_setting_tables():
        n = table.layout.n_parties
        if bk.general_bell_lhs(table) > 2.0 ** n:
            continue
        model = bk.construct_lhv_model(table)
        rebuilt = bk.evaluate_model(model)
        assert np.max(np.abs(rebuilt.values - table.values)) <= 1e-10
        checked += 1
    assert checked >= 50


def sampled_strategy_values(ineq, n_samples, rng):
    settings = ineq.layout.settings_per_party
    outcomes = []
    for m in settings:
        codes = rng.integers(0, 2 ** m, size=n_samples)
        bits = (codes[:, None] >> np.arange(m)) & 1
        outcomes.append((1 - 2 * bits).astype(np.int64))
    total = np.zeros(n_samples, dtype=np.int64)
    coeffs = ineq.coefficients
    for idx in np.argwhere(coeffs):
        prod = np.full(n_samples, int(coeffs[tuple(idx)]), dtype=np.int64)
        for j, s in enumerate(idx):
            prod *= outcomes[j][:, s]
        total += prod
    return total


def random_sign(rng, n):
    bits = tuple(int(b) for b in rng.integers(0, 2, size=2 ** n))
    return bk.SignFunction(n, bits)


def test_criterion_03_strategy_values_saturate_exactly():
    rng = np.random.default_rng(RNG_SEED)
    chsh = bk.SignFunction.chsh()
    inequalities = [bk.sign_inequality(s) for s in bk.enumerate_sign_functions(2)]
    for _ in range(25):
        inequalities.append(bk.sign_inequality(random_sign(rng, 3)))
    for _ in range(10):
        inequalities.append(bk.sign_inequality(random_sign(rng, 4)))
    inequalities.append(bk.build_442(chsh, chsh, chsh))
    for _ in range(10):
        inequalities.append(bk.build_442(*(random_sign(rng, 2) for _ in range(3))))
    inequalities.append(bk.build_recursive(
        bk.tree_chain(4, chsh, random_sign(rng, 3), random_sign(rng, 3))))
    for _ in range(5):
        inequalities.append(bk.build_recursive(bk.tree_chain(
            4, random_sign(rng, 2), random_sign(rng, 3), random_sign(rng, 3))))
    inequalities.append(bk.build_recursive(bk.tree_8842([chsh] * 7)))
    for _ in range(3):
        inequalities.append(bk.build_recursive(
            bk.tree_8842([random_sign(rng, 2) for _ in range(7)])))

    for ineq in inequalities:
        values = sampled_strategy_values(ineq, 100_000, rng)
        bound = int(ineq.bound)
        assert np.all(np.abs(values) == bound), (ineq.layout.settings_per_party, bound)


def test_criterion_04_default_442_vertex_census_and_tightness():
    chsh = bk.SignFunction.chsh()
    start = time.perf_counter()
    report = bk.check_tightness(bk.build_442(chsh, chsh, chsh))
    elapsed = time.perf_counter() - start
    assert report.vertex_count == 256
    assert report.saturating_count == 128
    assert report.affine_rank == 32
    assert report.is_tight
    assert elapsed < 10.0, f"tightness check took {elapsed:.1f}s"


def test_criterion_05_seesaw_reaches_known_optima():
    chsh_display = bk.BellInequality(
        bk.ExperimentLayout((2, 2)), np.array([[1, 1], [1, -1]]), 2)
    singlet = bk.correlation_tensor(bk.density_from_pure(bk.singlet()))
    result = bk.maximize_bell_value(chsh_display, singlet, restarts=50, seed=0)
    assert result.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)

    mermin = np.zeros((2, 2, 2), dtype=np.int64)
    mermin[1, 0, 0] = mermin[0, 1, 0] = mermin[0, 0, 1] = 1
    mermin[1, 1, 1] = -1
    mermin_display = bk.BellInequality(bk.ExperimentLayout((2, 2, 2)), mermin, 2)
    ghz = bk.ghz_tensor_analytic(bk.GhzFamily(3, math.pi / 4))
    result = bk.maximize_bell_value(mermin_display, ghz, restarts=50, seed=0)
    assert result.value == pytest.approx(4.0, abs=1e-6)


def test_criterion_06_two_qubit_condition_on_schmidt_family():
    for alpha in np.linspace(0.0, math.pi / 4, 100):
        state = bk.ghz_state(bk.GhzFamily(2, float(alpha)))
        tensor = bk.correlation_tensor(bk.density_from_pure(state))
        report = bk.condition_two_qubit(tensor)
        expected = 1.0 + math.sin(2 * alpha) ** 2
        assert report.value == pytest.approx(expected, abs=1e-9)
        if alpha > 1e-3:
            assert report.violated


def two_setting_violated(n, alpha):
    tensor = bk.ghz_tensor_analytic(bk.GhzFamily(n, alpha))
    return bk.condition_two_setting_N(tensor, restarts=50, seed=0).violated


def test_criterion_07_threshold_angle_for_odd_n():
    start = time.perf_counter()
    for n in (3, 5):
        lo, hi = 0.0, math.pi / 4
        assert not two_setting_violated(n, lo + 1e-6)
        assert two_setting_violated(n, hi)
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if two_setting_violated(n, mid):
                hi = mid
            else:
                lo = mid
        crossing = math.sin(2 * (0.5 * (lo + hi)))
        assert crossing == pytest.approx(bk.scarani_gisin_threshold(n), abs=1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"threshold bisection took {elapsed:.1f}s"


def test_criterion_08_multisetting_envelope_beats_two_setting():
    alphas = np.linspace(math.pi / 80, math.pi / 4, 20)
    for n in (3, 4, 5):
        for alpha in alphas:
            s2 = math.sin(2 * alpha) ** 2
            envelope = 2.0 ** (n - 2) * s2 + (1.0 - s2)
            tensor = bk.ghz_tensor_analytic(bk.GhzFamily(n, float(alpha)))
            report = bk.condition_multisetting_CN(tensor, restarts=50, seed=0)
            assert report.value >= envelope - 1e-9, (n, alpha, report.value)
            assert report.value > 1.0

    for alpha in alphas:
        if math.sin(2 * alpha) >= 0.5:
            continue
        tensor = bk.ghz_tensor_analytic(bk.GhzFamily(3, float(alpha)))
        report = bk.condition_two_setting_N(tensor, restarts=50, seed=0)
        assert report.value <= 1.0 + 1e-6, (alpha, report.value)


def test_criterion_09_analytic_tensor_matches_trace_tensor():
    for n in range(2, 9):
        for alpha in (0.0, math.pi / 12, math.pi / 8, math.pi / 4):
            family = bk.GhzFamily(n, alpha)
            analytic = bk.ghz_tensor_analytic(family)
            traced = bk.correlation_tensor(
                bk.density_from_pure(bk.ghz_state(family)))
            assert np.max(np.abs(analytic.components - traced.components)) <= 1e-10


def noisy_singlet_report(v):
    rho = bk.mix_with_white_noise(bk.density_from_pure(bk.singlet()), v)
    return bk.condition_two_qubit(bk.correlation_tensor(rho))


def test_criterion_10_singlet_visibility_threshold():
    for v in np.linspace(0.0, 1.0, 21):
        assert noisy_singlet_report(float(v)).value == pytest.approx(
            2.0 * v * v, abs=1e-12)

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if noisy_singlet_report(mid).violated:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
