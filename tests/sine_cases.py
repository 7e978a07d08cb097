"""Manufactured cases u = sin(pi x) g(t) whose spatial error is zero on every grid.

With time-only k and q, sin(pi x_i) is an eigenvector of both discrete
spatial operators: the second difference has eigenvalue -lambda_h with
lambda_h = 4 sin^2(pi h / 2) / h^2, and compact4's averaging H has
eigenvalue mu_h = 1 - sin^2(pi h / 2) / 3.  Building f from these instead of
from pi^2 and 1 makes the spatial truncation error vanish, so the discrete
solution is sin(pi x_i) times a scalar that carries only the time
discretisation's error and rounding.
"""

import math

import numpy as np

from fracheat import DiffusionProblem, GridSpec, SchemeKind


def sine_case(g, caputo_g, scheme: SchemeKind, grid: GridSpec):
    """(problem, u_exact) for u = sin(pi x) g(t) on ``grid``, with k = 1 + t and q = t.

    ``caputo_g(t)`` is the Caputo derivative of g of the order being
    solved.  The order2 scheme solves D y - k delta^2 y + q y = f and
    compact4 H D y - k delta^2 y + q H y = H f, so
    f = sin(pi x) (D g + (k lambda_h + q) g) for order2, with
    lambda_h / mu_h in place of lambda_h for compact4.
    """
    s2 = math.sin(math.pi * grid.h / 2.0) ** 2
    lam = 4.0 * s2 / (grid.h * grid.h)
    if SchemeKind(scheme) is SchemeKind.COMPACT4:
        lam /= 1.0 - s2 / 3.0

    def k(x, t):
        return np.full_like(x, 1.0 + t)

    def q(x, t):
        return np.full_like(x, t)

    def f(x, t):
        return np.sin(np.pi * x) * (caputo_g(t) + ((1.0 + t) * lam + t) * g(t))

    def u_exact(x, t):
        return np.sin(np.pi * x) * g(t)

    problem = DiffusionProblem(k=k, q=q, f=f, u0=lambda x: u_exact(x, 0.0))
    return problem, u_exact
