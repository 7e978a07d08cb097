"""Discrete energy quantity and the two stability inequalities."""

import numpy as np
import pytest

from fracheat import AlphaParam, TimeSeries, bar_weights, c_weights, energy_E, l2_caputo
from fracheat.lemmas import CheckResult, check_energy_inequality, check_history_energy_inequality


def test_energy_zero_state():
    assert energy_E(0.0, 0.0, 1.0, 0.2) == 0.0


def test_energy_hand_value():
    # c0=1, c1=0: ((r+s)/2)^2 + r^2 with r = s = sqrt(1/2)  ->  1/2 + 1/2
    assert energy_E(1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_energy_rejects_inadmissible_constants():
    with pytest.raises(ValueError):
        energy_E(1.0, 1.0, 0.0, 1.0)  # c0 < c1
    with pytest.raises(ValueError):
        energy_E(1.0, 1.0, 1.0, -1.0)  # c0 < -3 c1
    for c0, c1 in ((np.nan, 0.5), (1.0, np.nan), (np.nan, np.nan)):
        # a NaN fails every comparison, so it used to pass a c0 < ... test
        with pytest.raises(ValueError):
            energy_E(1.0, 1.0, c0, c1)


def test_energy_is_nonnegative():
    rng = np.random.default_rng(42)
    for _ in range(200):
        c1 = float(rng.uniform(-2.0, 2.0))
        c0 = max(c1, -3.0 * c1) + float(rng.uniform(0.0, 2.0))
        assert energy_E(float(rng.normal()), float(rng.normal()), c0, c1) >= 0.0


def test_pair_energy_inequality_randomized():
    result = check_energy_inequality(trials=300, seed=99)
    assert result.passed, result.detail


def _pair_energy_check_by_levels(trials: int, seed: int) -> CheckResult:
    # the pair-energy check level by level, with the same draws in the same order
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        c1 = float(rng.uniform(-2.0, 2.0))
        c0 = max(c1, -3.0 * c1) + float(rng.uniform(0.0, 3.0))
        v = rng.uniform(-5.0, 5.0, size=int(rng.integers(3, 51)))
        for j in range(1, v.size - 1):
            lhs = v[j + 1] * (c0 * v[j + 1] - (c0 - c1) * v[j] - c1 * v[j - 1])
            gap = lhs - (energy_E(v[j + 1], v[j], c0, c1) - energy_E(v[j], v[j - 1], c0, c1))
            scale = max(1.0, abs(lhs))
            worst = min(worst, gap / scale)
    return CheckResult("pair energy inequality", worst >= -1e-12, f"worst scaled gap {worst:.3e}")


@pytest.mark.parametrize("trials, seed", [(1000, 20240), (300, 99), (200, 0), (200, 1), (50, 7)])
def test_pair_energy_check_matches_the_level_loop(trials, seed):
    assert check_energy_inequality(trials=trials, seed=seed) == _pair_energy_check_by_levels(trials, seed)


def test_history_energy_inequality_randomized():
    result = check_history_energy_inequality(trials=300, seed=98)
    assert result.passed, result.detail


def _history_energy_check_by_public_weights(trials: int, seed: int) -> CheckResult:
    # the history-energy check through the public c_weights, l2_caputo and
    # bar_weights, each building its own weights, with the same draws in the
    # same order
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        a = float(rng.uniform(0.02, 0.98))
        alpha = AlphaParam(a)
        n = int(rng.integers(4, 51))
        v = rng.uniform(-3.0, 3.0, size=n)
        tau = float(rng.uniform(0.01, 1.0))
        j = n - 2
        c = c_weights(j, alpha)
        rho = tau ** (-a) / alpha.gamma_2ma
        lhs = v[j + 1] * l2_caputo(TimeSeries(v, tau), j, alpha)
        bc = bar_weights(j, alpha)
        bar_d = rho * float(bc[::-1] @ np.diff(v * v))
        e_new = energy_E(v[j + 1], v[j], c[0] - c[2], c[1] - c[2])
        e_old = energy_E(v[j], v[j - 1], c[0] - c[2], c[1] - c[2])
        gap = lhs - (rho * (e_new - e_old) + 0.5 * bar_d)
        scale = max(1.0, abs(lhs), rho * abs(e_new), rho * abs(e_old))
        worst = min(worst, gap / scale)
    return CheckResult("history energy inequality", worst >= -1e-12, f"worst scaled gap {worst:.3e}")


@pytest.mark.parametrize("trials, seed", [(1000, 20241), (300, 98), (200, 0), (50, 7)])
def test_history_energy_check_matches_the_public_weights(trials, seed):
    assert check_history_energy_inequality(trials=trials, seed=seed) == _history_energy_check_by_public_weights(
        trials, seed
    )


def test_history_energy_inequality_explicit_case():
    # one fully written-out instance of the level inequality
    alpha = AlphaParam(0.6)
    tau = 0.25
    v = np.array([0.3, -1.1, 0.7, 0.9, -0.4])
    j = 3
    c = c_weights(j, alpha)
    rho = tau ** (-alpha.alpha) / alpha.gamma_2ma
    lhs = v[j + 1] * l2_caputo(TimeSeries(v, tau), j, alpha)
    bc = bar_weights(j, alpha)
    bar_d = rho * float(bc[::-1] @ np.diff(v * v))
    e_new = energy_E(v[j + 1], v[j], c[0] - c[2], c[1] - c[2])
    e_old = energy_E(v[j], v[j - 1], c[0] - c[2], c[1] - c[2])
    assert lhs >= rho * (e_new - e_old) + 0.5 * bar_d - 1e-12
