"""Implicit time-stepping for the 1-D time-fractional diffusion equation.

Both schemes run through one level loop.  At each level the nonlocal time
operator contributes ``rho * w_0`` on the new layer plus a history sum over
all previous layers, and the spatial operator makes the implicit matrix
tridiagonal.  The schemes differ only in the mass operator the time
derivative acts on: the identity for order2, the fourth-order averaging
``H`` for compact4.  The loop runs twice per solve: first with the L1
weights ``a_s`` on a refined subgrid of [0, tau], which bootstraps the first
layer (the quadratic-interpolation weights need three time points), then
with the L2 weights ``c_s`` on the main grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import AlphaParam, _l2_weights, a_coeff, b_coeff
from .problem import Coefficients, DiffusionProblem, GridSpec

__all__ = [
    "SchemeKind",
    "SolutionHistory",
    "TridiagonalSystem",
    "apply_compact_H",
    "apply_lambda",
    "solve",
    "thomas_solve",
]


class SchemeKind(str, enum.Enum):
    ORDER2 = "order2"  # second order in space, k = k(x,t)
    COMPACT4 = "compact4"  # fourth order in space, needs k = k(t)


@dataclass(frozen=True)
class TridiagonalSystem:
    """A x = rhs with A tridiagonal (lower/upper of length n-1, diag of length n)."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        n = self.diag.size
        if n < 1:
            raise ValueError("empty system")
        if self.lower.size != n - 1 or self.upper.size != n - 1 or self.rhs.size != n:
            raise ValueError(
                f"inconsistent sizes: diag {n}, lower {self.lower.size}, "
                f"upper {self.upper.size}, rhs {self.rhs.size}"
            )

    def residual_inf(self, x: np.ndarray) -> float:
        ax = self.diag * x
        ax[:-1] += self.upper * x[1:]
        ax[1:] += self.lower * x[:-1]
        return float(np.max(np.abs(ax - self.rhs)))


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Forward elimination / back substitution for a tridiagonal system.

    Raises on a (near-)zero pivot, which for the systems assembled here
    signals loss of diagonal dominance rather than an expected state.
    """
    n = sys.diag.size
    lower = sys.lower.tolist()
    diag = sys.diag.tolist()
    upper = sys.upper.tolist()
    rhs = sys.rhs.tolist()
    scale = max(abs(v) for v in diag)
    cp = [0.0] * (n - 1)
    dp = [0.0] * n
    piv = diag[0]
    if abs(piv) <= 1e-300 + 1e-15 * scale:
        raise ZeroDivisionError("zero pivot in tridiagonal elimination (row 0)")
    if n > 1:
        cp[0] = upper[0] / piv
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        if abs(piv) <= 1e-300 + 1e-15 * scale:
            raise ZeroDivisionError(f"zero pivot in tridiagonal elimination (row {i})")
        if i < n - 1:
            cp[i] = upper[i] / piv
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / piv
    x = dp
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return np.asarray(x)


def _evaluate(problem: DiffusionProblem, name: str, nodes: np.ndarray, t: float) -> np.ndarray:
    """Field ``name`` of the problem at ``nodes`` and time t, checked against
    what the analysis assumes: finite values, k >= c1 > 0, q >= 0, k and q
    constant in x if declared time-only, u0 zero at both ends.  Every value
    the solver uses comes through here; an error names the field, t and x.
    """
    v = np.asarray(problem.u0(nodes) if name == "u0" else getattr(problem, name)(nodes, t), dtype=float)
    if v.shape != nodes.shape:
        raise ValueError(f"{name} has shape {v.shape}, not {nodes.shape}, at t={t}, x={nodes[0]}..{nodes[-1]}")
    bad = None  # an array whose argmax is the offending node
    if not np.isfinite(v).all():
        what, bad = f"{name} is not finite", ~np.isfinite(v)
    elif name == "k" and v.min() < problem.c1_lower - 1e-12:
        what, bad = f"k drops below c1={problem.c1_lower}", v < problem.c1_lower - 1e-12
    elif name == "q" and v.min() < -1e-12:
        what, bad = "q is negative", v < -1e-12
    elif name in ("k", "q") and problem.coefficients is Coefficients.TIME_ONLY and np.ptp(v) > 1e-12:
        what, bad = f"coefficients declared time-only but {name} varies in x", np.abs(v - v[0])
    elif name == "u0" and max(abs(v[0]), abs(v[-1])) > 1e-12:
        what, bad = "u0 must vanish at both boundaries", np.r_[abs(v[0]), np.zeros(v.size - 2), abs(v[-1])]
    if bad is not None:
        raise ValueError(f"{what} at t={t}, x={nodes[int(np.argmax(bad))]}")
    return v


def apply_lambda(y: np.ndarray, j: int, problem: DiffusionProblem, grid: GridSpec) -> np.ndarray:
    """Second-order spatial operator at time level j+1.

    Interior entries are (a_{i+1} y_{i+1} - (a_{i+1} + a_i) y_i + a_i y_{i-1}) / h^2
    - d_i y_i with a_i = k(x_{i-1/2}, t_{j+1}) and d_i = q(x_i, t_{j+1});
    boundary entries are zero.
    """
    y = np.asarray(y, dtype=float)
    if y.size != grid.N + 1:
        raise ValueError(f"expected {grid.N + 1} nodal values, got {y.size}")
    t_new = (j + 1) * grid.tau
    a_half = _evaluate(problem, "k", grid.x_half_nodes(), t_new)
    d = _evaluate(problem, "q", grid.x_nodes(), t_new)[1:-1]
    out = np.zeros_like(y)
    h2 = grid.h * grid.h
    out[1:-1] = (a_half[1:] * y[2:] - (a_half[1:] + a_half[:-1]) * y[1:-1] + a_half[:-1] * y[:-2]) / h2
    out[1:-1] -= d * y[1:-1]
    return out


def apply_compact_H(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Fourth-order averaging operator, v_i + (v_{i+1} - 2 v_i + v_{i-1})/12.

    Endpoints pass through unchanged; downstream they only ever multiply
    homogeneous boundary values.
    """
    v = np.asarray(v, dtype=float)
    if v.size != grid.N + 1:
        raise ValueError(f"expected {grid.N + 1} nodal values, got {v.size}")
    out = v.copy()
    out[1:-1] += (v[2:] - 2.0 * v[1:-1] + v[:-2]) / 12.0
    return out


@dataclass(frozen=True)
class SolutionHistory:
    """All computed layers; layers[j, i] = y_i^j.  The nonlocal time operator
    needs every previous layer, so nothing is discarded."""

    layers: np.ndarray
    grid: GridSpec
    alpha: AlphaParam


def _advance(
    problem: DiffusionProblem,
    grid: GridSpec,
    mass: np.ndarray,
    j: int,
    t_new: float,
    rho: float,
    w: np.ndarray,
    compact: bool,
) -> np.ndarray:
    """Layer j+1 from the mass layers 0..j and the level weights w_0..w_j.

    The time derivative at t_new is rho * (w_0 m^{j+1} - hist) with
    hist = w_0 m^j - sum_{s=0}^{j-1} w_{j-s} (m^{s+1} - m^s).  For order2
    the implicit matrix is rho w_0 I - Lambda(t_new); for compact4 it is
    (rho w_0 + q) H - k D2, whose entries are constant since k = k(t),
    q = q(t).  f, k and q come from ``_evaluate``, once per level.  Kept as
    its own call so that each level's temporaries are freed before the next
    one is built.  The node arrays are rebuilt rather than held for the
    whole level: at N = 50000 a held copy fragments the heap around the
    history temporaries and raises peak RSS by ~13 MB.
    """
    hist = w[0] * mass[j]
    if j > 0:
        hist = hist - np.tensordot(w[1 : j + 1][::-1], np.diff(mass[: j + 1], axis=0), axes=(0, 0))
    phi = _evaluate(problem, "f", grid.x_nodes(), t_new)
    a_half = _evaluate(problem, "k", grid.x_half_nodes(), t_new)
    d = _evaluate(problem, "q", grid.x_nodes(), t_new)[1:-1]
    h2 = grid.h * grid.h
    coef = rho * w[0]
    if compact:
        phi = apply_compact_H(phi, grid)
        wd = coef + d[0]
        a = a_half[0]
        diag = np.full(grid.N - 1, wd * 10.0 / 12.0 + 2.0 * a / h2)
        off = np.full(grid.N - 2, wd / 12.0 - a / h2)
    else:
        diag = coef + (a_half[1:] + a_half[:-1]) / h2 + d
        off = -a_half[1:-1] / h2
    rhs = phi[1:-1] + rho * hist[1:-1]
    y = np.zeros(grid.N + 1)
    y[1:-1] = thomas_solve(TridiagonalSystem(lower=off, diag=diag, upper=off, rhs=rhs))
    return y


def _march(
    problem: DiffusionProblem,
    grid: GridSpec,
    layers: np.ndarray,
    first: int,
    tau: float,
    alpha: AlphaParam,
    weights: Callable[[int], np.ndarray],
    compact: bool,
) -> None:
    """Fill layers[first+1:] in place at time step tau from layers[:first+1].

    ``weights(j)`` gives the weight vector of level j.  The mass layers are
    ``layers`` itself for order2 and H applied once to each layer for compact4.
    """
    rho = tau ** (-alpha.alpha) / alpha.gamma_2ma
    mass = layers
    if compact:
        mass = np.zeros_like(layers)
        for s in range(first + 1):
            mass[s] = apply_compact_H(layers[s], grid)
    for j in range(first, layers.shape[0] - 1):
        layers[j + 1] = _advance(problem, grid, mass, j, (j + 1) * tau, rho, weights(j), compact)
        if compact:
            mass[j + 1] = apply_compact_H(layers[j + 1], grid)


def solve(
    problem: DiffusionProblem,
    grid: GridSpec,
    alpha: AlphaParam,
    scheme: SchemeKind = SchemeKind.ORDER2,
) -> SolutionHistory:
    """Run a full solve: layer 0 from u0, layer 1 from the L1 bootstrap, then L2 levels.

    The bootstrap subgrid has M1 = ceil(tau^(-1/(2-alpha))) uniform substeps,
    i.e. a substep tau/M1 = O(tau^((3-alpha)/(2-alpha))), which lifts the L1
    order 2-alpha back to the 3-alpha accuracy the main scheme needs from
    its starting value.
    """
    compact = SchemeKind(scheme) is SchemeKind.COMPACT4
    if compact and problem.coefficients is not Coefficients.TIME_ONLY:
        raise ValueError("the compact scheme requires time-only coefficients k(t), q(t)")
    if not np.allclose((grid.length, grid.horizon), (problem.length, problem.horizon), rtol=1e-12, atol=0.0):
        raise ValueError("grid domain does not match the problem domain")
    layers = np.zeros((grid.M + 1, grid.N + 1))
    layers[0] = _evaluate(problem, "u0", grid.x_nodes(), 0.0)
    layers[0, [0, -1]] = 0.0

    m1 = max(1, math.ceil((1.0 / grid.tau) ** (1.0 / (2.0 - alpha.alpha))))
    sub = np.zeros((m1 + 1, grid.N + 1))
    sub[0] = layers[0]
    a_l1 = a_coeff(np.arange(m1), alpha)
    _march(problem, grid, sub, 0, grid.tau / m1, alpha, lambda j: a_l1, compact)
    layers[1] = sub[m1]
    del sub

    idx = np.arange(grid.M)
    a_s, b_s = a_coeff(idx, alpha), b_coeff(idx, alpha)
    _march(problem, grid, layers, 1, grid.tau, alpha, lambda j: _l2_weights(j, a_s, b_s), compact)
    return SolutionHistory(layers=layers, grid=grid, alpha=alpha)
