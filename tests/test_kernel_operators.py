"""Discrete Caputo operators against analytic and quadrature references."""

import math
import re

import numpy as np
import pytest

from fracheat import (
    AlphaParam,
    TimeSeries,
    bar_weights,
    c_weights,
    caputo_by_quadrature,
    exact_caputo_power,
    l1_caputo,
    l2_caputo,
)
from fracheat import kernel
from fracheat.lemmas import ALPHA_GRID


def uniform_series(fn, m_steps, tau=None):
    tau = 1.0 / m_steps if tau is None else tau
    return TimeSeries(fn(np.arange(m_steps + 1) * tau), tau)


def test_l2_annihilates_constants():
    alpha = AlphaParam(0.5)
    u = TimeSeries(np.full(12, 3.7), 0.1)
    for j in range(1, 11):
        assert l2_caputo(u, j, alpha) == 0.0


def test_l2_exact_on_linear():
    for a in (0.1, 0.5, 0.9):
        alpha = AlphaParam(a)
        u = uniform_series(lambda t: t, 20, tau=0.05)
        for j in range(1, 20):
            t = (j + 1) * 0.05
            assert l2_caputo(u, j, alpha) == pytest.approx(
                exact_caputo_power(1.0, alpha, t), rel=1e-13
            )


def test_l2_exact_on_quadratic():
    # the piecewise-quadratic interpolant reproduces t^2, so the formula is
    # exact up to rounding
    alpha = AlphaParam(0.5)
    u = uniform_series(lambda t: t * t, 10, tau=0.1)
    got = l2_caputo(u, 5, alpha)
    want = 2.0 * (0.6) ** 1.5 / math.gamma(2.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_l2_linear_in_u():
    alpha = AlphaParam(0.35)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(15)
    w = rng.standard_normal(15)
    tau = 0.07
    j = 12
    lhs = l2_caputo(TimeSeries(2.5 * v - 1.25 * w, tau), j, alpha)
    rhs = 2.5 * l2_caputo(TimeSeries(v, tau), j, alpha) - 1.25 * l2_caputo(
        TimeSeries(w, tau), j, alpha
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def test_l2_input_validation():
    alpha = AlphaParam(0.5)
    u = TimeSeries(np.arange(4.0), 0.1)
    with pytest.raises(ValueError):
        l2_caputo(u, 0, alpha)
    with pytest.raises(ValueError):
        l2_caputo(u, 3, alpha)  # needs 5 samples
    for tau in (-0.1, 0.0, math.inf, -math.inf, math.nan):
        # tau = inf used to be accepted, and then both formulas read 0 for any data
        with pytest.raises(ValueError, match="tau must be finite and positive"):
            TimeSeries(np.arange(4.0), tau)
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0]), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_time_series_rejects_non_finite_samples(bad, at):
    # a NaN sample used to pass through to a NaN derivative
    values = np.arange(5.0)
    values[at] = bad
    with pytest.raises(ValueError, match=re.escape(f"values[{at}] = {bad}")):
        TimeSeries(values, 0.1)


@pytest.mark.parametrize("tau", [True, np.True_, "0.1"])
def test_time_series_rejects_a_bool_or_text_tau(tau):
    with pytest.raises(ValueError, match=f"tau must be finite and positive, got {tau}"):
        TimeSeries(np.arange(4.0), tau)


def test_time_series_keeps_finite_samples_bit_for_bit():
    values = np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.0 / 3.0])
    assert TimeSeries(values, 0.1).values.tobytes() == values.tobytes()


def test_l2_truncation_order_against_references():
    # error at t=1 under tau-halving approaches order 3-alpha; the approach
    # is O(tau^alpha) from below, so the smallest orders need ladders deeper
    # than double precision allows and are checked in the acceptance suite
    # at their stated scale instead
    cases = [
        ("t^3", lambda t: t**3, lambda al: exact_caputo_power(3.0, al, 1.0)),
        ("sin", np.sin, lambda al: caputo_by_quadrature(np.cos, al, 1.0)),
        ("exp", np.exp, lambda al: caputo_by_quadrature(np.exp, al, 1.0)),
    ]
    for a in (0.3, 0.5, 0.7, 0.9):
        alpha = AlphaParam(a)
        for name, fn, ref in cases:
            reference = ref(alpha)
            errs = []
            for m_steps in (80, 160, 320):
                u = uniform_series(fn, m_steps)
                errs.append(abs(l2_caputo(u, m_steps - 1, alpha) - reference))
            order = math.log2(errs[-2] / errs[-1])
            assert order == pytest.approx(3.0 - a, abs=0.05), f"{name} at alpha={a}: {order}"


def test_l1_zero_on_constants():
    alpha = AlphaParam(0.7)
    u = TimeSeries(np.full(12, 2.0), 0.1)
    for j in range(11):
        assert l1_caputo(u, j, alpha) == 0.0


def test_l1_exact_on_linear():
    for a in (0.1, 0.5, 0.9):
        alpha = AlphaParam(a)
        u = uniform_series(lambda t: t, 20, tau=0.05)
        for j in range(20):
            t = (j + 1) * 0.05
            assert l1_caputo(u, j, alpha) == pytest.approx(exact_caputo_power(1.0, alpha, t), rel=1e-13)


def test_l1_order_on_quadratic():
    for a in (0.5, 0.9):
        alpha = AlphaParam(a)
        errs = []
        for m_steps in (80, 160, 320):
            u = uniform_series(lambda t: t * t, m_steps)
            errs.append(abs(l1_caputo(u, m_steps - 1, alpha) - exact_caputo_power(2.0, alpha, 1.0)))
        order = math.log2(errs[-2] / errs[-1])
        assert order == pytest.approx(2.0 - a, abs=0.05)


def test_l1_input_validation():
    alpha = AlphaParam(0.5)
    u = TimeSeries(np.arange(4.0), 0.1)
    with pytest.raises(ValueError):
        l1_caputo(u, -1, alpha)
    with pytest.raises(ValueError):
        l1_caputo(u, 3, alpha)  # needs 5 samples


@pytest.mark.parametrize("formula", (l1_caputo, l2_caputo))
def test_short_series_is_refused_before_any_weight_is_built(formula, monkeypatch):
    # the weights of level 10**7 took about a second to build before the
    # series length was checked
    def unexpected(*args):
        raise AssertionError("a weight was built for a series that is too short")

    monkeypatch.setattr(kernel, "c_weights", unexpected)
    monkeypatch.setattr(kernel, "a_coeff", unexpected)
    with pytest.raises(ValueError, match=r"^series too short: need 10000002 samples, have 4$"):
        formula(TimeSeries(np.arange(4.0), 0.1), 10**7, AlphaParam(0.5))


_SERIES = TimeSeries(np.arange(6.0) ** 2, 0.2)
_LEVEL_FUNCTIONS = {
    "l1_caputo": lambda j, alpha: l1_caputo(_SERIES, j, alpha),
    "l2_caputo": lambda j, alpha: l2_caputo(_SERIES, j, alpha),
    "c_weights": c_weights,
    "bar_weights": bar_weights,
}


@pytest.mark.parametrize("j", (1.5, 2.0, True, math.nan), ids=repr)
@pytest.mark.parametrize("name", _LEVEL_FUNCTIONS)
def test_level_index_must_be_an_integer(name, j):
    # l1_caputo used to read j = 1.5 as level 2 and True as level 1; the
    # others failed on a slice with a TypeError
    with pytest.raises(ValueError, match=r"j must be an integer >= \d, got j=" + re.escape(repr(j))):
        _LEVEL_FUNCTIONS[name](j, AlphaParam(0.5))


@pytest.mark.parametrize("name", _LEVEL_FUNCTIONS)
def test_numpy_integer_level_gives_the_same_bits(name):
    alpha = AlphaParam(0.5)
    for j in (2, 3, 4):
        by_int = np.asarray(_LEVEL_FUNCTIONS[name](j, alpha))
        by_numpy = np.asarray(_LEVEL_FUNCTIONS[name](np.int64(j), alpha))
        assert by_int.tobytes() == by_numpy.tobytes()


def test_exact_caputo_power_values():
    alpha = AlphaParam(0.5)
    assert exact_caputo_power(1.0, alpha, 1.0) == pytest.approx(1.1283791670955126, rel=1e-14)
    assert exact_caputo_power(2.0, alpha, 0.0) == 0.0
    # coefficient of the t^(3+a) term used by the manufactured solution
    assert exact_caputo_power(3.5, alpha, 1.0) == pytest.approx(
        math.gamma(4.5) / math.gamma(4.0), rel=1e-14
    )


@pytest.mark.parametrize("mu", (math.nan, math.inf, -math.inf, 0.0, -1.0))
def test_exact_caputo_power_rejects_mu_that_is_not_finite_and_positive(mu):
    # nan and inf used to come back as nan
    with pytest.raises(ValueError, match=re.escape(f"mu={mu}")):
        exact_caputo_power(mu, AlphaParam(0.5), 1.0)


@pytest.mark.parametrize("t", (-1.0, -1e-300, math.nan, math.inf, -math.inf))
def test_exact_caputo_power_rejects_bad_t(t):
    # t = -1 and nan used to come back as nan, and t = inf as inf
    alpha = AlphaParam(0.5)
    for arg in (t, np.array([0.0, 0.5, t])):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            exact_caputo_power(2.0, alpha, arg)


@pytest.mark.parametrize("t", (0.1, 1.0, 3.0))
@pytest.mark.parametrize("a", (ALPHA_GRID[0], ALPHA_GRID[len(ALPHA_GRID) // 2], ALPHA_GRID[-1]))
def test_quadrature_reference_matches_power_rule(a, t):
    # Smooth integrands, against closed forms.  Worst relative error
    # measured over the whole alpha grid and these t: 2.2e-15 for the powers,
    # 1.4e-15 for the e^t series.
    alpha = AlphaParam(a)
    for mu in (1.0, 2.0, 3.0):
        got = caputo_by_quadrature(lambda s: mu * s ** (mu - 1.0), alpha, t)
        assert got == pytest.approx(exact_caputo_power(mu, alpha, t), rel=1e-13)
    # D^alpha e^t = sum_k t^(k+1-alpha) / Gamma(k+2-alpha)
    series = math.fsum(t ** (k + 1 - a) / math.gamma(k + 2 - a) for k in range(60))
    assert caputo_by_quadrature(np.exp, alpha, t) == pytest.approx(series, rel=1e-13)
    assert caputo_by_quadrature(np.cos, alpha, 0.0) == 0.0


@pytest.mark.parametrize(("mu", "rel"), ((2.5, 5e-9), (3.4, 2e-11)))
@pytest.mark.parametrize("a", ALPHA_GRID)
def test_quadrature_reference_converges_algebraically_on_fractional_powers(a, mu, rel):
    # du/dt ~ s^(mu-1) at s = 0 is not smooth there, so the 40-point rule
    # converges only algebraically.  Worst relative error measured over the
    # alpha grid (t-independent for a pure power): 1.7e-9 at mu = 2.5 and
    # 5.1e-12 at mu = 3.4, the smoothness of the manufactured solution's
    # t^(3+alpha) term.
    alpha = AlphaParam(a)
    got = caputo_by_quadrature(lambda s: mu * s ** (mu - 1.0), alpha, 1.0)
    assert got == pytest.approx(exact_caputo_power(mu, alpha, 1.0), rel=rel)


def test_quadrature_reference_calls_du_dt_once_with_all_points():
    calls = []

    def du_dt(s):
        calls.append(np.array(s))
        return np.cos(s)

    caputo_by_quadrature(du_dt, AlphaParam(0.5), 2.0)
    assert len(calls) == 1
    points = calls[0]
    assert points.shape == (40,) and np.all((points > 0.0) & (points < 2.0))


@pytest.mark.parametrize("t", (-1.0, -1e-300, math.nan, math.inf, -math.inf))
def test_quadrature_reference_rejects_bad_t(t):
    # t = -1 used to come back complex, from (0.5 t)^(1 - alpha), and t = nan as nan
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        caputo_by_quadrature(np.cos, AlphaParam(0.5), t)
