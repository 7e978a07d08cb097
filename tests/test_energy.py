"""Discrete energy quantity and the two stability inequalities."""

import numpy as np
import pytest

from fracheat import AlphaParam, TimeSeries, bar_weights, c_weights, energy_E, l2_caputo
from fracheat.lemmas import check_energy_inequality, check_history_energy_inequality


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


def test_energy_is_nonnegative():
    rng = np.random.default_rng(42)
    for _ in range(200):
        c1 = float(rng.uniform(-2.0, 2.0))
        c0 = max(c1, -3.0 * c1) + float(rng.uniform(0.0, 2.0))
        assert energy_E(float(rng.normal()), float(rng.normal()), c0, c1) >= 0.0


def test_pair_energy_inequality_randomized():
    result = check_energy_inequality(trials=300, seed=99)
    assert result.passed, result.detail


def test_history_energy_inequality_randomized():
    result = check_history_energy_inequality(trials=300, seed=98)
    assert result.passed, result.detail


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
