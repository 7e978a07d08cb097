"""Continuous problem setup: equation data, grids, manufactured solutions.

The equation solved downstream is

    D^alpha_t u = d/dx(k(x,t) du/dx) - q(x,t) u + f(x,t),   0 < x < l, 0 < t <= T,

with homogeneous Dirichlet boundaries and u(x, 0) = u0(x), where
k > 0 and q >= 0.
"""

from __future__ import annotations

import enum
import math
import numbers
import struct
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
    """Which coefficient pair ``manufactured_case`` builds."""

    VARIABLE_XT = "variable_xt"
    TIME_ONLY = "time_only"


def _check_count(name: str, n, least: int) -> None:
    """Raise ``ValueError`` naming n unless it is an integer >= least; a bool,
    a float and NaN are not, so no count is rounded or truncated silently."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: N spatial subintervals, M time steps.

    The grid is the only owner of the domain [0, length] x [0, horizon];
    the problem data carry none.
    """

    N: int
    M: int
    length: float = 1.0
    horizon: float = 1.0

    def __post_init__(self) -> None:
        _check_count("N", self.N, 2)
        _check_count("M", self.M, 1)
        for name in ("length", "horizon"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) and v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")

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
    """Problem data. k, q, f take (x, t) with x an array; u0 takes x.  ``solve`` checks
    their values."""

    k: Field
    q: Field
    f: Field
    u0: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ManufacturedCase:
    """An exact solution together with its derived source term."""

    u_exact: Field
    caputo_u: Field
    problem: DiffusionProblem
    alpha: AlphaParam


def _last_call(compute: Callable[[np.ndarray, float], object]) -> Callable[[np.ndarray, float], object]:
    """``compute(x, t)`` behind a one-entry memo, for float64 arrays x and float t.

    A hit needs the bits of t and the shape and bytes of x to equal those of
    the last call; the memo keeps the bytes of x, so an array changed in
    place since then misses, and so does -0.0 where 0.0 was.  Any other x or
    t is computed afresh.  The entry is one tuple, replaced whole, so a
    thread sharing the memo reads the old entry or the new one, never a mix.
    Cached arrays are read-only; callers only build new arrays from them.
    """
    entry = None

    def lookup(x, t):
        nonlocal entry
        if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and isinstance(t, float)):
            return compute(x, t)
        t_bits = struct.pack("d", t)
        x_bytes = x.tobytes()
        last = entry
        same_x = last is not None and last[1] == x.shape and last[2] == x_bytes
        if same_x and last[0] == t_bits:
            return last[3]
        value = compute(x, t)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, np.ndarray):
                v.flags.writeable = False
        # a new t at the same x keeps the stored bytes: no new long-lived
        # buffer per level to fragment the heap
        entry = (t_bits, x.shape, last[2] if same_x else x_bytes, value)
        return value

    return lookup


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

    The solver calls f and q at the same nodes at every level, and the error
    measurement calls u_exact there too.  So two factors are memoised, each
    for its last nodes (see ``_last_call``): sin(pi x) and pi cos(pi x),
    which f, caputo_u and u_exact read at every t, and sin(xt), which k_x
    forms inside f and q then reads at the same x and t.  A hit returns the
    very values a fresh evaluation would give.  f reads k and q through
    their own closures and forms k_x u_x + k u_xx - q u term by term in
    place, which keeps fewer node-sized arrays alive at once; every result
    is built by the same operations in the same order as a plain
    evaluation, so all results are bit for bit those of plain evaluation.
    The memos live in these closures, so a copy of the problem with the
    same callables shares them.
    """
    a = alpha.alpha
    caputo_c3 = math.gamma(4.0 + a) / 6.0  # t^(3+alpha) -> * t^3
    caputo_c2 = 2.0 / math.gamma(3.0 - a)  # t^2        -> * t^(2-alpha)

    def g(t: float) -> float:
        return t ** (3.0 + a) + t * t + 1.0

    def caputo_g(t: float) -> float:
        return caputo_c3 * t**3 + caputo_c2 * t ** (2.0 - a)

    pi_factors = _last_call(lambda x, t: (np.sin(np.pi * x), np.pi * np.cos(np.pi * x)))

    def sin_pi(x):
        return pi_factors(x, 0.0)[0]

    def u_exact(x, t):
        return sin_pi(np.asarray(x)) * g(t)

    def caputo_u(x, t):
        return sin_pi(np.asarray(x)) * caputo_g(t)

    variant = Coefficients(variant)
    if variant is Coefficients.VARIABLE_XT:
        sin_xt = _last_call(lambda x, t: np.sin(x * t))

        def k(x, t):
            return 2.0 - np.cos(np.asarray(x) * t)

        def q(x, t):
            return 1.0 - sin_xt(np.asarray(x), t)

        def k_x(x, t):
            return t * sin_xt(x, t)

    else:

        def k(x, t):
            return np.full(np.shape(x), 2.0 - np.cos(t))

        def q(x, t):
            return np.full(np.shape(x), 1.0 - np.sin(t))

        def k_x(x, t):
            return 0.0

    def f(x, t):
        x = np.asarray(x, dtype=float)
        sin_px, pi_cos_px = pi_factors(x, 0.0)
        g_t = g(t)
        spatial = pi_cos_px * g_t
        spatial *= k_x(x, t)
        u = sin_px * g_t
        u_xx = -np.pi * np.pi * u
        u_xx *= k(x, t)
        spatial += u_xx
        del u_xx
        u *= q(x, t)
        spatial -= u
        del u
        out = sin_px * caputo_g(t)
        out -= spatial
        return out

    def u0(x):
        return np.sin(np.pi * np.asarray(x, dtype=float))

    prob = DiffusionProblem(k=k, q=q, f=f, u0=u0)
    return ManufacturedCase(u_exact=u_exact, caputo_u=caputo_u, problem=prob, alpha=alpha)
