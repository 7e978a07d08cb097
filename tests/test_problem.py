"""Grids, problem validation, and the manufactured verification cases."""

import dataclasses
import math

import numpy as np
import pytest

from fracheat import (
    AlphaParam,
    Coefficients,
    DiffusionProblem,
    GridSpec,
    caputo_by_quadrature,
    manufactured_case,
)

CSTEP = 1e-20


def complex_step_dt(u, x, t):
    return (u(x, t + 1j * CSTEP)).imag / CSTEP


def test_gridspec_rejects_bad_sizes():
    for n_sub, m_steps in ((1, 10), (0, 10), (10, 0)):
        with pytest.raises(ValueError):
            GridSpec(N=n_sub, M=m_steps)
    with pytest.raises(ValueError):
        GridSpec(N=4, M=4, length=-1.0)


def test_grid_product_roundtrip():
    g = GridSpec(N=2, M=2)
    assert g.h == 0.5 and g.tau == 0.5
    g = GridSpec(N=29, M=40)
    assert g.h * g.N == pytest.approx(g.length, rel=1e-14)
    assert g.tau * g.M == pytest.approx(g.horizon, rel=1e-14)
    assert g.x_nodes()[0] == 0.0 and g.x_nodes()[-1] == pytest.approx(1.0, rel=1e-15)
    assert g.x_half_nodes().size == g.N


def test_manufactured_point_values():
    alpha = AlphaParam(0.5)
    case = manufactured_case(alpha, Coefficients.VARIABLE_XT)
    # u(0.5, 1) = sin(pi/2) * (1 + 1 + 1)
    assert case.u_exact(np.array([0.5]), 1.0)[0] == pytest.approx(3.0, rel=1e-14)
    # boundary values vanish for all t
    for t in (0.0, 0.3, 1.0):
        vals = case.u_exact(np.array([0.0, 1.0]), t)
        assert np.max(np.abs(vals)) < 1e-14


def test_manufactured_caputo_t3_coefficient():
    # the t^3 part of the exact derivative carries Gamma(4+a)/6
    alpha = AlphaParam(0.3)
    case = manufactured_case(alpha)
    x = np.array([0.37])
    t = 0.9
    got = case.caputo_u(x, t)[0]
    expected = math.sin(math.pi * 0.37) * (
        math.gamma(4.3) / 6.0 * t**3 + 2.0 / math.gamma(2.7) * t**1.7
    )
    assert got == pytest.approx(expected, rel=1e-14)


def test_manufactured_source_at_t0():
    # all fractional time terms vanish at t=0, so f(x,0) = -[L u](x,0) with
    # k(x,0)=1, q(x,0)=1: f = (pi^2 + 1) sin(pi x)
    case = manufactured_case(AlphaParam(0.5), Coefficients.VARIABLE_XT)
    x = np.linspace(0.0, 1.0, 7)
    assert np.allclose(case.problem.f(x, 0.0), (math.pi**2 + 1.0) * np.sin(math.pi * x), rtol=1e-13)


@pytest.mark.parametrize("variant", [Coefficients.VARIABLE_XT, Coefficients.TIME_ONLY])
def test_manufactured_residual_is_zero(variant):
    """Substituting u into the equation with the derived f leaves ~0 residual.

    Both sides are rebuilt independently of the assembly: the time side by
    weighted quadrature of a complex-step du/dt, the space side by
    fourth-order finite differences of k * u_x with u_x from a complex step.
    """
    alpha = AlphaParam(0.4)
    case = manufactured_case(alpha, variant)
    prob = case.problem
    rng = np.random.default_rng(2024)

    def u_scalar(x, t):
        return np.sin(np.pi * x) * (t ** (3.0 + alpha.alpha) + t * t + 1.0)

    def u_x(x, t):
        return (u_scalar(x + 1j * CSTEP, t)).imag / CSTEP

    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.05, 1.0))
        caputo = caputo_by_quadrature(lambda e: complex_step_dt(u_scalar, x, e), alpha, t)
        delta = 1e-3
        flux = lambda xx: float(prob.k(np.array([xx]), t)[0]) * u_x(xx, t)
        flux_x = (flux(x - 2 * delta) - 8 * flux(x - delta) + 8 * flux(x + delta) - flux(x + 2 * delta)) / (12 * delta)
        qu = float(prob.q(np.array([x]), t)[0]) * u_scalar(x, t)
        residual = caputo - (flux_x - qu) - float(prob.f(np.array([x]), t)[0])
        worst = max(worst, abs(residual))
    assert worst < 1e-8, f"largest residual {worst:.3e}"


def test_validate_on_grid_accepts_builtin_case():
    case = manufactured_case(AlphaParam(0.5))
    case.problem.validate_on_grid(GridSpec(N=12, M=6))


def test_validate_on_grid_rejects_bad_coefficients():
    base = manufactured_case(AlphaParam(0.5)).problem
    sick_k = DiffusionProblem(
        k=lambda x, t: 0.5 * np.ones_like(np.asarray(x, dtype=float)),
        q=base.q, f=base.f, u0=base.u0, c1_lower=1.0)
    with pytest.raises(ValueError):
        sick_k.validate_on_grid(GridSpec(N=8, M=4))
    sick_q = DiffusionProblem(
        k=base.k, q=lambda x, t: -np.ones_like(np.asarray(x, dtype=float)),
        f=base.f, u0=base.u0, c1_lower=1.0)
    with pytest.raises(ValueError):
        sick_q.validate_on_grid(GridSpec(N=8, M=4))
    sick_u0 = DiffusionProblem(
        k=base.k, q=base.q, f=base.f, u0=lambda x: np.cos(np.asarray(x)), c1_lower=1.0)
    with pytest.raises(ValueError):
        sick_u0.validate_on_grid(GridSpec(N=8, M=4))


def test_time_only_declaration_is_checked():
    base = manufactured_case(AlphaParam(0.5), Coefficients.VARIABLE_XT).problem
    lying = DiffusionProblem(k=base.k, q=base.q, f=base.f, u0=base.u0,
                             c1_lower=1.0, coefficients=Coefficients.TIME_ONLY)
    with pytest.raises(ValueError):
        lying.validate_on_grid(GridSpec(N=8, M=4))


def _with(base, **fields):
    return dataclasses.replace(base, **fields)


def test_validate_on_grid_rejects_non_finite_k():
    base = manufactured_case(AlphaParam(0.5)).problem
    sick = _with(base, k=lambda x, t: np.full_like(np.asarray(x, dtype=float), np.nan))
    with pytest.raises(ValueError, match=r"k is not finite at t=0\.25"):
        sick.validate_on_grid(GridSpec(N=8, M=4))


def test_validate_on_grid_rejects_non_finite_q():
    base = manufactured_case(AlphaParam(0.5)).problem
    sick = _with(base, q=lambda x, t: np.full_like(np.asarray(x, dtype=float), np.inf))
    with pytest.raises(ValueError, match=r"q is not finite at t=0\.25"):
        sick.validate_on_grid(GridSpec(N=8, M=4))


def test_time_only_declaration_rejects_x_varying_q():
    base = manufactured_case(AlphaParam(0.5), Coefficients.TIME_ONLY).problem
    lying = _with(base, q=lambda x, t: 5.0 * np.asarray(x, dtype=float))
    with pytest.raises(ValueError, match=r"q varies in x at t=0\.25"):
        lying.validate_on_grid(GridSpec(N=8, M=4))
