"""Stability of both schemes as a tested property, on data the tables never use.

For k >= 1 and q >= 0 the continuous problem obeys, in the L2 and in the
max norm,

    ||u(t)|| <= ||u0|| + t^alpha / Gamma(1 + alpha) * sup_{s <= t} ||f(s)||,

so with f = 0 no layer is larger than layer 0.  These tests assert both
bounds for the discrete layers over random coefficients (k in [1, 7], q in
[0, 2000]), fractional orders in [0.02, 0.98], grids with N <= 64 and
M <= 200, and rough or smooth data.  They are properties the solver is
tested for, not the paper's theorem, which bounds an energy norm.  The
L2 norm need not fall from one level to the next, and is not asserted to.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat import AlphaParam, Coefficients, DiffusionProblem, GridSpec, SchemeKind, solve

# Each side of a bound is a few correctly rounded operations on the layers
# (squares, math.fsum, sqrt, **, math.gamma), each within an ulp or two of
# the exact value, so 8 eps of relative slack covers the evaluation of the
# bound and nothing of the scheme: the probe that chose these ranges found
# every ratio at most 0.60 (f = 0) or 0.56 (with a source).
ROUNDING = 8 * np.finfo(float).eps


def _norms(v: np.ndarray, h: float) -> tuple[float, float]:
    """(L2, max) norm over the interior nodes."""
    inner = v[1:-1]
    return math.sqrt(h * math.fsum(inner * inner)), float(np.max(np.abs(inner), initial=0.0))


@st.composite
def cases(draw, scheme):
    n_sub, m_steps = draw(st.integers(2, 64)), draw(st.integers(1, 200))
    alpha = draw(st.floats(0.02, 0.98))
    freq_x = 0.0 if scheme is SchemeKind.COMPACT4 else draw(st.floats(0.0, 20.0))

    def coefficient(least, most):
        """lo + (hi - lo) (1 + sin(freq_x x + freq_t t + phase)) / 2, in [lo, hi] within [least, most]."""
        lo = draw(st.floats(least, most))
        hi = draw(st.floats(lo, most))
        freq_t, phase = draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 6.3))
        return lambda x, t: lo + (hi - lo) * (0.5 + 0.5 * np.sin(freq_x * np.asarray(x) + freq_t * t + phase))

    k, q = coefficient(1.0, 7.0), coefficient(0.0, 2000.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = GridSpec(N=n_sub, M=m_steps).x_nodes()
    if draw(st.booleans()):  # six modes
        y0 = np.sin(np.pi * np.outer(x, np.arange(1, 7))) @ rng.uniform(-1.0, 1.0, 6)
    else:  # random nodal values
        y0 = rng.uniform(-1.0, 1.0, x.size)
    y0[[0, -1]] = 0.0
    # a source affine in t, so the norm of f is convex in t and its max over
    # [t_0, t_j], the bootstrap's substeps included, falls on a main level
    g0, g1 = rng.uniform(-1.0, 1.0, (2, x.size)) * draw(st.sampled_from([0.0, 1.0, 100.0]))
    g0[[0, -1]] = g1[[0, -1]] = 0.0
    problem = DiffusionProblem(
        k=k, q=q, f=lambda x, t: g0 + t * g1, u0=lambda x: y0.copy(), c1_lower=1.0,
        coefficients=Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT)
    return problem, GridSpec(N=n_sub, M=m_steps), AlphaParam(alpha), (g0, g1)


def _check_bounds(problem, grid, alpha, source, scheme):
    layers = solve(problem, grid, alpha, scheme).layers
    g0, g1 = source
    times = grid.t_nodes()
    y0 = _norms(layers[0], grid.h)
    f_max = np.maximum.accumulate([_norms(g0 + t * g1, grid.h) for t in times])
    for j in range(1, grid.M + 1):
        growth = times[j] ** alpha.alpha / math.gamma(1.0 + alpha.alpha)
        for norm, y_j, y_0, f_j in zip(("L2", "max"), _norms(layers[j], grid.h), y0, f_max[j]):
            bound = y_0 + growth * f_j
            assert y_j <= bound * (1.0 + ROUNDING), (j, norm, y_j, bound)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases(SchemeKind.ORDER2))
def test_order2_layers_obey_the_stability_bounds(case):
    problem, grid, alpha, source = case
    _check_bounds(problem, grid, alpha, source, SchemeKind.ORDER2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases(SchemeKind.COMPACT4))
def test_compact4_layers_obey_the_stability_bounds(case):
    problem, grid, alpha, source = case
    _check_bounds(problem, grid, alpha, source, SchemeKind.COMPACT4)
