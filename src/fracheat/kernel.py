"""Discrete analogs of the Caputo derivative of order alpha in (0, 1).

The central object is the quadratic-interpolation ("L2") differentiation
formula on a uniform grid,

    D^alpha u(t_{j+1})  ~=  tau^(-alpha)/Gamma(2-alpha) *
                            sum_{s=0..j} c_{j-s} (u_{s+1} - u_s),

whose weights ``c_s`` are assembled from the two elementary coefficient
families ``a_l`` and ``b_l``.  The linear-interpolation ("L1") formula is
kept alongside as the lower-order bootstrap, together with analytic and
quadrature reference derivatives and the energy quantities that enter the
discrete stability inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

__all__ = [
    "AlphaParam",
    "TimeSeries",
    "NonuniformTimeSeries",
    "a_coeff",
    "b_coeff",
    "c_weights",
    "bar_weights",
    "l2_caputo",
    "l1_caputo",
    "exact_caputo_power",
    "caputo_by_quadrature",
    "energy_E",
]


@dataclass(frozen=True)
class AlphaParam:
    """Fractional order with the gamma values every formula needs."""

    alpha: float
    gamma_1ma: float = field(init=False)
    gamma_2ma: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        object.__setattr__(self, "gamma_1ma", math.gamma(1.0 - self.alpha))
        object.__setattr__(self, "gamma_2ma", math.gamma(2.0 - self.alpha))


@dataclass(frozen=True)
class TimeSeries:
    """Samples u(t_0), ..., u(t_m) on a uniform grid of step tau."""

    values: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("a time series needs at least two samples")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class NonuniformTimeSeries:
    """Samples on strictly increasing, not necessarily uniform, time points."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if self.times.size < 2:
            raise ValueError("a time series needs at least two samples")
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("time points must be strictly increasing")


def _pow_increment(l, beta):
    """(l+1)**beta - l**beta for l >= 1 without subtractive cancellation."""
    l = np.asarray(l, dtype=float)
    return l**beta * np.expm1(beta * np.log1p(1.0 / l))


def a_coeff(l, alpha: AlphaParam):
    """a_l = (l+1)^(1-alpha) - l^(1-alpha) for integer l >= 0.

    Accepts a scalar index or an index array.  Large-l evaluation goes
    through expm1/log1p so the value keeps full relative accuracy even
    where the two powers agree to many digits.
    """
    l_arr = np.asarray(l, dtype=float)
    if np.any(l_arr < 0):
        raise ValueError("coefficient index must be >= 0")
    beta = 1.0 - alpha.alpha
    with np.errstate(divide="ignore"):
        out = np.where(l_arr == 0, 1.0, _pow_increment(np.maximum(l_arr, 1.0), beta))
    return float(out) if np.isscalar(l) or np.ndim(l) == 0 else out


def b_coeff(l, alpha: AlphaParam):
    """b_l = [(l+1)^(2-a) - l^(2-a)]/(2-a) - [(l+1)^(1-a) + l^(1-a)]/2.

    Evaluated through the algebraically equivalent form
    ``l^(1-a) * ((l + a/2) u - (1-a)) / (2-a)`` with
    ``u = expm1((1-a) log1p(1/l))``; the rearrangement is what keeps b_l
    accurate to ~1e-15 absolute at l ~ 1e4, where the textbook form has
    already lost the strict-inequality margins of the coefficient lemma.
    """
    l_arr = np.asarray(l, dtype=float)
    if np.any(l_arr < 0):
        raise ValueError("coefficient index must be >= 0")
    a = alpha.alpha
    beta = 1.0 - a
    ls = np.maximum(l_arr, 1.0)
    with np.errstate(divide="ignore"):
        u = np.expm1(beta * np.log1p(1.0 / ls))
        bulk = ls**beta * ((ls + 0.5 * a) * u - beta) / (2.0 - a)
    out = np.where(l_arr == 0, 1.0 / (2.0 - a) - 0.5, bulk)
    return float(out) if np.isscalar(l) or np.ndim(l) == 0 else out


def _l2_weights(j: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c_0..c_j at level j+1 (j >= 1) from a_0..a_j and b_0..b_j.

    Only the first j+1 entries of ``a`` and ``b`` are read, so one pair of
    coefficient arrays serves every level up to its length.  The three case
    splits (j = 1, j = 2, j >= 3) come out of regrouping the
    piecewise-quadratic interpolation integrals.
    """
    c = np.empty(j + 1)
    if j == 1:
        c[0] = a[0] + b[0] + b[1]
        c[1] = a[1] - b[1] - b[0]
    elif j == 2:
        c[0] = a[0] + b[0]
        c[1] = a[1] + b[1] + b[2] - b[0]
        c[2] = a[2] - b[2] - b[1]
    else:
        c[0] = a[0] + b[0]
        c[1 : j - 1] = a[1 : j - 1] + b[1 : j - 1] - b[0 : j - 2]
        c[j - 1] = a[j - 1] + b[j - 1] + b[j] - b[j - 2]
        c[j] = a[j] - b[j] - b[j - 1]
    return c


def c_weights(j: int, alpha: AlphaParam) -> np.ndarray:
    """Weights c_0..c_j of the L2 formula at level j+1 (needs j >= 1).

    Level 0 has no L2 weights and is handled by the L1 bootstrap instead.
    """
    if j < 1:
        raise ValueError(
            "the L2 formula needs at least three time points (j >= 1); "
            "the first layer is handled by the L1 bootstrap"
        )
    idx = np.arange(j + 1)
    return _l2_weights(j, a_coeff(idx, alpha), b_coeff(idx, alpha))


def bar_weights(j: int, alpha: AlphaParam) -> np.ndarray:
    """Truncated weights: bar_c_0 = bar_c_1 = c_2, bar_c_s = c_s for s >= 2."""
    if j < 2:
        raise ValueError(f"bar weights reference c_2 and need j >= 2, got j={j}")
    c = c_weights(j, alpha)
    c[0] = c[2]
    c[1] = c[2]
    return c


def l2_caputo(u: TimeSeries, j: int, alpha: AlphaParam) -> float:
    """L2-formula value of the order-alpha derivative of u at t_{j+1}."""
    if j < 1:
        raise ValueError(f"the L2 formula needs j >= 1, got j={j}")
    if u.values.size < j + 2:
        raise ValueError(f"series too short: need {j + 2} samples, have {u.values.size}")
    c = c_weights(j, alpha)
    du = np.diff(u.values[: j + 2])
    # c_{j-s} pairs with the forward difference at s, hence the reversal
    return u.tau ** (-alpha.alpha) / alpha.gamma_2ma * float(c[::-1] @ du)


def l1_caputo(u: NonuniformTimeSeries, alpha: AlphaParam) -> float:
    """L1-formula value at the last time point of a nonuniform series.

    Each subinterval integral of (t_end - eta)^(-alpha) is taken in closed
    form, so the only approximation is the piecewise-linear interpolant.
    """
    t = u.times
    t_end = t[-1]
    slopes = np.diff(u.values) / np.diff(t)
    beta = 1.0 - alpha.alpha
    pieces = ((t_end - t[:-1]) ** beta - (t_end - t[1:]) ** beta) / beta
    return float(slopes @ pieces) / alpha.gamma_1ma


def exact_caputo_power(mu: float, alpha: AlphaParam, t):
    """Order-alpha Caputo derivative of t^mu:  Gamma(mu+1)/Gamma(mu+1-alpha) t^(mu-alpha)."""
    if mu <= 0.0:
        raise ValueError(f"the power rule needs mu > 0, got mu={mu}")
    coef = math.gamma(mu + 1.0) / math.gamma(mu + 1.0 - alpha.alpha)
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(t_arr == 0.0, 0.0, coef * t_arr ** (mu - alpha.alpha))
    return float(out) if np.ndim(t) == 0 else out


def caputo_by_quadrature(du_dt, alpha: AlphaParam, t: float) -> float:
    """Reference Caputo derivative by adaptive weighted quadrature.

    ``du_dt`` is the classical first derivative of the function.  The
    weakly singular factor (t (1 - s))^(-alpha) is handled by the
    algebraic-weight QUADPACK rule rather than resolved by refinement, so
    smooth integrands come back at near machine accuracy.  Serves as the
    independent oracle for the truncation-order measurements.
    """
    if t == 0.0:
        return 0.0
    val, _ = quad(
        du_dt, 0.0, t, weight="alg", wvar=(0.0, -alpha.alpha), epsabs=1e-14, epsrel=1e-13, limit=500
    )
    return val / alpha.gamma_1ma


def energy_E(v_cur: float, v_prev: float, c0: float, c1: float) -> float:
    """Discrete energy of a pair of consecutive values.

    E = ((r + s)/2)^2 v_cur^2 + (r v_cur - (r + s)/2 v_prev)^2 with
    r = sqrt((c0 - c1)/2), s = sqrt((c0 + 3 c1)/2); the constraint
    c0 >= max(c1, -3 c1) keeps both radicands nonnegative.
    """
    if c0 < max(c1, -3.0 * c1):
        raise ValueError(f"need c0 >= max(c1, -3*c1); got c0={c0}, c1={c1}")
    r = math.sqrt(0.5 * (c0 - c1))
    s = math.sqrt(0.5 * (c0 + 3.0 * c1))
    m = 0.5 * (r + s)
    return m * m * v_cur * v_cur + (r * v_cur - m * v_prev) ** 2
