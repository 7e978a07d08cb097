"""Continuous problem setup: equation data, grids, manufactured solutions.

The equation solved downstream is

    D^alpha_t u = d/dx(k(x,t) du/dx) - q(x,t) u + f(x,t),   0 < x < l, 0 < t <= T,

with homogeneous Dirichlet boundaries and u(x, 0) = u0(x), where
k >= c1 > 0 and q >= 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import AlphaParam

__all__ = [
    "Coefficients",
    "DiffusionProblem",
    "GridSpec",
    "ManufacturedCase",
    "manufactured_case",
]

Field = Callable[[np.ndarray, float], np.ndarray]


class Coefficients(str, enum.Enum):
    """Which structure the diffusion/reaction coefficients have."""

    VARIABLE_XT = "variable_xt"
    TIME_ONLY = "time_only"


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: N spatial subintervals, M time steps."""

    N: int
    M: int
    length: float = 1.0
    horizon: float = 1.0

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError(f"need at least N=2 spatial subintervals, got {self.N}")
        if self.M < 1:
            raise ValueError(f"need at least M=1 time step, got {self.M}")
        if not (self.length > 0.0 and self.horizon > 0.0):
            raise ValueError("domain length and horizon must be positive")

    @property
    def h(self) -> float:
        return self.length / self.N

    @property
    def tau(self) -> float:
        return self.horizon / self.M

    def x_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.N + 1)

    def x_half_nodes(self) -> np.ndarray:
        """x_{i-1/2} for i = 1..N, where the diffusion coefficient is sampled."""
        return (np.arange(1, self.N + 1) - 0.5) * self.h

    def t_nodes(self) -> np.ndarray:
        return np.arange(self.M + 1) * self.tau


@dataclass(frozen=True)
class DiffusionProblem:
    """Problem data. k, q, f take (x, t) with x an array; u0 takes x.  ``solve`` checks them."""

    k: Field
    q: Field
    f: Field
    u0: Callable[[np.ndarray], np.ndarray]
    length: float = 1.0
    horizon: float = 1.0
    c1_lower: float = 1.0
    coefficients: Coefficients = Coefficients.VARIABLE_XT


@dataclass(frozen=True)
class ManufacturedCase:
    """An exact solution together with its derived source term."""

    u_exact: Field
    caputo_u: Field
    problem: DiffusionProblem
    alpha: AlphaParam


def manufactured_case(
    alpha: AlphaParam, variant: Coefficients = Coefficients.VARIABLE_XT
) -> ManufacturedCase:
    """Built-in verification case  u(x,t) = sin(pi x) (t^(3+alpha) + t^2 + 1).

    The time-fractional derivative follows from the power rule applied
    termwise and the source f is assembled with the spatial operator
    expanded analytically, d/dx(k u_x) = k_x u_x + k u_xx, so no
    discretization error pollutes the reference.

    variant selects the coefficient pair: VARIABLE_XT uses
    k = 2 - cos(xt), q = 1 - sin(xt); TIME_ONLY uses k = 2 - cos(t),
    q = 1 - sin(t) (the pair the fourth-order scheme requires).
    """
    a = alpha.alpha
    caputo_c3 = math.gamma(4.0 + a) / 6.0  # t^(3+alpha) -> * t^3
    caputo_c2 = 2.0 / math.gamma(3.0 - a)  # t^2        -> * t^(2-alpha)

    def g(t: float) -> float:
        return t ** (3.0 + a) + t * t + 1.0

    def u_exact(x, t):
        return np.sin(np.pi * x) * g(t)

    def caputo_u(x, t):
        return np.sin(np.pi * x) * (caputo_c3 * t**3 + caputo_c2 * t ** (2.0 - a))

    variant = Coefficients(variant)
    if variant is Coefficients.VARIABLE_XT:

        def k(x, t):
            return 2.0 - np.cos(np.asarray(x) * t)

        def k_x(x, t):
            return t * np.sin(np.asarray(x) * t)

        def q(x, t):
            return 1.0 - np.sin(np.asarray(x) * t)

    else:

        def k(x, t):
            return (2.0 - np.cos(t)) * np.ones_like(np.asarray(x, dtype=float))

        def k_x(x, t):
            return np.zeros_like(np.asarray(x, dtype=float))

        def q(x, t):
            return (1.0 - np.sin(t)) * np.ones_like(np.asarray(x, dtype=float))

    def f(x, t):
        x = np.asarray(x, dtype=float)
        sin_px = np.sin(np.pi * x)
        u = sin_px * g(t)
        u_x = np.pi * np.cos(np.pi * x) * g(t)
        u_xx = -np.pi * np.pi * u
        spatial = k_x(x, t) * u_x + k(x, t) * u_xx - q(x, t) * u
        return caputo_u(x, t) - spatial

    def u0(x):
        return np.sin(np.pi * np.asarray(x, dtype=float))

    prob = DiffusionProblem(
        k=k, q=q, f=f, u0=u0, length=1.0, horizon=1.0, c1_lower=1.0, coefficients=variant
    )
    return ManufacturedCase(u_exact=u_exact, caputo_u=caputo_u, problem=prob, alpha=alpha)
