"""Discrete analogs of the Caputo derivative of order alpha in (0, 1).

The central object is the quadratic-interpolation ("L2") differentiation
formula on a uniform grid,

    D^alpha u(t_{j+1})  ~=  tau^(-alpha)/Gamma(2-alpha) *
                            sum_{s=0..j} c_{j-s} (u_{s+1} - u_s),

whose weights ``c_s`` are assembled from the two elementary coefficient
families ``a_l`` and ``b_l``.  The linear-interpolation ("L1") formula is the
same sum with the weights ``a_0..a_j``, the ones the solver's first-layer
bootstrap marches with.  Analytic and quadrature reference derivatives and
the energy quantities that enter the discrete stability inequalities sit
alongside.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "AlphaParam",
    "TimeSeries",
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
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"time series samples must be finite, got values[{bad[0]}] = {self.values[bad[0]]}")
        tau = self.tau
        if isinstance(tau, bool) or not (isinstance(tau, numbers.Real) and math.isfinite(tau) and tau > 0.0):
            raise ValueError(f"tau must be finite and positive, got {tau}")


def _pow_increment(l, beta):
    """(l+1)**beta - l**beta for l >= 1 without subtractive cancellation."""
    l = np.asarray(l, dtype=float)
    return l**beta * np.expm1(beta * np.log1p(1.0 / l))


def _index_array(l) -> np.ndarray:
    """The coefficient index l (a scalar or an array) as floats, checked to
    be finite integers >= 0; ``ValueError`` names the first that is not."""
    l_arr = np.asarray(l, dtype=float)
    bad = ~(np.isfinite(l_arr) & (l_arr >= 0.0) & (np.floor(l_arr) == l_arr))
    if np.any(bad):
        where = f"l{np.argwhere(bad)[0].tolist()}" if l_arr.ndim else "l"
        raise ValueError(f"coefficient index must be an integer >= 0, got {where} = {l_arr[bad].flat[0]}")
    return l_arr


def a_coeff(l, alpha: AlphaParam):
    """a_l = (l+1)^(1-alpha) - l^(1-alpha) for integer l >= 0.

    Accepts a scalar index or an index array; integer-valued floats count
    as integers.  Large-l evaluation goes through expm1/log1p so the value
    keeps full relative accuracy even where the two powers agree to many
    digits.
    """
    l_arr = _index_array(l)
    beta = 1.0 - alpha.alpha
    out = np.where(l_arr == 0, 1.0, _pow_increment(np.maximum(l_arr, 1.0), beta))
    return float(out) if np.isscalar(l) or np.ndim(l) == 0 else out


def b_coeff(l, alpha: AlphaParam):
    """b_l = [(l+1)^(2-a) - l^(2-a)]/(2-a) - [(l+1)^(1-a) + l^(1-a)]/2.

    Evaluated through the algebraically equivalent form
    ``l^(1-a) * ((l + a/2) u - (1-a)) / (2-a)`` with
    ``u = expm1((1-a) log1p(1/l))``; the rearrangement keeps b_l where the
    textbook form has already lost the strict-inequality margins of the
    coefficient lemma.  Against 40-digit decimal arithmetic on l <= 1e4 the
    absolute error peaks near l = 1e4 and is at most 4.7e-13 at a = 0.05,
    3.0e-13 at a = 0.1, 3.6e-15 at a = 0.5 and 3.8e-17 at a = 0.9, up to
    1.9e-6 relative.  Past l = 1e4 it degrades: against 50-digit mpmath the
    relative error is 6.8e-3 at l = 1e6 and 1.9 at l = 1e7 for a = 0.05,
    and the value is negative at l = 1e11, so a solve with M >= 1e5 builds
    wrong b_l (ROADMAP item 11).
    """
    l_arr = _index_array(l)
    a = alpha.alpha
    beta = 1.0 - a
    ls = np.maximum(l_arr, 1.0)
    u = np.expm1(beta * np.log1p(1.0 / ls))
    bulk = ls**beta * ((ls + 0.5 * a) * u - beta) / (2.0 - a)
    out = np.where(l_arr == 0, 1.0 / (2.0 - a) - 0.5, bulk)
    return float(out) if np.isscalar(l) or np.ndim(l) == 0 else out


def _l2_table(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The L2 weights of every level that a and b reach, as (bulk, ends).

    bulk[s] is the bulk rule c_0 = a_0 + b_0 and c_s = a_s + b_s - b_{s-1}.
    ends[:, j-1] holds c_{j-1} and c_j of level j+1 (1 <= j < len(a)), the
    two weights that differ from the bulk rule:
    c_{j-1} = a_{j-1} + b_{j-1} + b_j - b_{j-2}, with b_{-1} = 0, and
    c_j = a_j - b_j - b_{j-1}.  Each entry is summed left to right from its
    own indices, so its bits are the same at every level it serves and do
    not depend on the length of a and b.
    """
    bulk = a + b
    bulk[1:] -= b[:-1]
    back = np.zeros(b.size - 1)
    back[1:] = b[:-2]
    ends = np.empty((2, a.size - 1))
    ends[0] = a[:-1] + b[:-1] + b[1:] - back
    ends[1] = a[1:] - b[1:] - b[:-1]
    return bulk, ends


def _l2_levels(a: np.ndarray, b: np.ndarray) -> Callable[[int], np.ndarray]:
    """The L2 weights of each level that a and b reach: ``level(j)`` gives
    c_0..c_j at level j+1 (1 <= j < len(a)) as a new array, the bulk rule
    with its last two entries replaced by the end weights (``_l2_table``).
    """
    bulk, ends = _l2_table(a, b)

    def level(j: int) -> np.ndarray:
        c = bulk[: j + 1].copy()
        c[j - 1 :] = ends[:, j - 1]
        return c

    return level


def _check_level(j, least: int, what: str) -> None:
    """Raise ``ValueError`` naming j unless it is an integer >= least.

    Python and numpy integers qualify; a bool, an integer-valued float and
    NaN do not, so no level is rounded or truncated silently.
    """
    if isinstance(j, bool) or not isinstance(j, numbers.Integral) or j < least:
        raise ValueError(f"{what}: j must be an integer >= {least}, got j={j!r}")


def c_weights(j: int, alpha: AlphaParam) -> np.ndarray:
    """Weights c_0..c_j of the L2 formula at level j+1 (needs j >= 1).

    Level 0 has no L2 weights and is handled by the L1 bootstrap instead.
    """
    _check_level(j, 1, "the L2 weights (level 0 is the L1 bootstrap's)")
    idx = np.arange(j + 1)
    return _l2_levels(a_coeff(idx, alpha), b_coeff(idx, alpha))(j)


def bar_weights(j: int, alpha: AlphaParam) -> np.ndarray:
    """Truncated weights: bar_c_0 = bar_c_1 = c_2, bar_c_s = c_s for s >= 2."""
    _check_level(j, 2, "the bar weights reference c_2")
    return _bar_from(c_weights(j, alpha))


def _bar_from(c: np.ndarray) -> np.ndarray:
    """The bar weights of the L2 weights c_0..c_j (j >= 2), as a new array."""
    bar = c.copy()
    bar[:2] = c[2]
    return bar


def _caputo_sum(j: int, weights: Callable[[], np.ndarray], values: np.ndarray, tau: float,
                alpha: AlphaParam) -> float:
    """The L1 or L2 formula at t_{j+1}, from the samples values[0..j+1] and the
    weights w_0..w_j that ``weights()`` builds, once the series is long enough."""
    if values.size < j + 2:
        raise ValueError(f"series too short: need {j + 2} samples, have {values.size}")
    w = weights()
    du = np.diff(values[: j + 2])
    # w_{j-s} pairs with the forward difference at s, hence the reversal
    return tau ** (-alpha.alpha) / alpha.gamma_2ma * float(w[::-1] @ du)


def l2_caputo(u: TimeSeries, j: int, alpha: AlphaParam) -> float:
    """L2-formula value of the order-alpha derivative of u at t_{j+1}."""
    _check_level(j, 1, "the L2 formula")
    return _caputo_sum(j, lambda: c_weights(j, alpha), u.values, u.tau, alpha)


def l1_caputo(u: TimeSeries, j: int, alpha: AlphaParam) -> float:
    """L1-formula value of the order-alpha derivative of u at t_{j+1}.

    The weights are a_0..a_j, those of the solver's first-layer bootstrap.
    """
    _check_level(j, 0, "the L1 formula")
    return _caputo_sum(j, lambda: a_coeff(np.arange(j + 1), alpha), u.values, u.tau, alpha)


def exact_caputo_power(mu: float, alpha: AlphaParam, t):
    """Order-alpha Caputo derivative of t^mu:  Gamma(mu+1)/Gamma(mu+1-alpha) t^(mu-alpha)."""
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"the power rule needs a finite mu > 0, got mu={mu}")
    t_arr = np.asarray(t, dtype=float)
    bad = ~(np.isfinite(t_arr) & (t_arr >= 0.0))
    if np.any(bad):
        raise ValueError(f"t must be finite and >= 0, got {t_arr[bad].flat[0]}")
    coef = math.gamma(mu + 1.0) / math.gamma(mu + 1.0 - alpha.alpha)
    with np.errstate(divide="ignore"):
        out = np.where(t_arr == 0.0, 0.0, coef * t_arr ** (mu - alpha.alpha))
    return float(out) if np.ndim(t) == 0 else out


_GAUSS_JACOBI_POINTS = 40


@functools.lru_cache(maxsize=None)
def _gauss_jacobi(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 40-point Gauss rule for the weight (1-x)^(-alpha) on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the recurrence of the Jacobi polynomials P_n^(a,b) with
    a = -alpha, b = 0, and each weight is mu_0 times the squared first
    component of its eigenvector, mu_0 = 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2)
    being the integral of the weight.  The arrays are read-only, since they
    are shared by every call at this alpha.
    """
    a, b = -alpha, 0.0
    n = np.arange(_GAUSS_JACOBI_POINTS, dtype=float)
    ab = 2.0 * n + a + b
    diag = np.empty_like(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (ab[1:] * (ab[1:] + 2.0))
    k, abk = n[1:], ab[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (abk * abk * (abk + 1.0) * (abk - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    weights = mu0 * vectors[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def caputo_by_quadrature(du_dt, alpha: AlphaParam, t: float) -> float:
    """Reference Caputo derivative by 40-point Gauss-Jacobi quadrature.

    ``du_dt`` is the classical first derivative of the function.  It is
    called once, with the array of the 40 quadrature points in (0, t), and
    must return the derivative at each of them.  With s = t (1 + x)/2 the
    weakly singular factor (t - s)^(-alpha) becomes the rule's weight
    (1 - x)^(-alpha), so it is integrated exactly rather than resolved:
    smooth integrands come back at ~1e-14 relative.  An integrand that
    behaves like s^beta at s = 0 converges only algebraically in the number
    of points.  Serves as the independent oracle for the truncation-order
    measurements.  ``t`` must be finite and nonnegative.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return 0.0
    x, w = _gauss_jacobi(alpha.alpha)
    values = du_dt(0.5 * t * (1.0 + x))
    return (0.5 * t) ** (1.0 - alpha.alpha) * float(w @ values) / alpha.gamma_1ma


def energy_E(v_cur, v_prev, c0: float, c1: float):
    """Discrete energy of a pair of consecutive values.

    E = ((r + s)/2)^2 v_cur^2 + (r v_cur - (r + s)/2 v_prev)^2 with
    r = sqrt((c0 - c1)/2), s = sqrt((c0 + 3 c1)/2); the constraint
    c0 >= max(c1, -3 c1) keeps both radicands nonnegative.  ``v_cur`` and
    ``v_prev`` may be floats or arrays of one shape; arrays give the energy
    of each pair, elementwise.
    """
    if not c0 >= max(c1, -3.0 * c1):
        raise ValueError(f"need c0 >= max(c1, -3*c1); got c0={c0}, c1={c1}")
    r = math.sqrt(0.5 * (c0 - c1))
    s = math.sqrt(0.5 * (c0 + 3.0 * c1))
    m = 0.5 * (r + s)
    return m * m * v_cur * v_cur + (r * v_cur - m * v_prev) ** 2
