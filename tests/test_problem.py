"""Grids, problem validation, and the manufactured verification cases."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat import (
    AlphaParam,
    Coefficients,
    DiffusionProblem,
    GridSpec,
    SchemeKind,
    caputo_by_quadrature,
    manufactured_case,
    solve,
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


GRID = GridSpec(N=8, M=4)
ALPHA = AlphaParam(0.5)
# The first evaluation of k, q and f is the first L1 bootstrap substep,
# t = tau/M1 with M1 = ceil(M^(1/(2-alpha))) = 3 substeps.
T1 = GRID.tau / 3


def _rejects(problem, message, scheme=SchemeKind.ORDER2):
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(problem, GRID, ALPHA, scheme)


def test_validate_on_grid_accepts_builtin_case():
    for variant, scheme in ((Coefficients.VARIABLE_XT, SchemeKind.ORDER2),
                            (Coefficients.TIME_ONLY, SchemeKind.COMPACT4)):
        case = manufactured_case(ALPHA, variant)
        assert np.isfinite(solve(case.problem, GridSpec(N=12, M=6), ALPHA, scheme).layers).all()


def test_validate_on_grid_rejects_bad_coefficients():
    base = manufactured_case(ALPHA).problem
    sick_k = DiffusionProblem(
        k=lambda x, t: 0.5 * np.ones_like(np.asarray(x, dtype=float)),
        q=base.q, f=base.f, u0=base.u0, c1_lower=1.0)
    _rejects(sick_k, f"k drops below c1=1.0 at t={T1}, x=0.0625")
    sick_q = DiffusionProblem(
        k=base.k, q=lambda x, t: -np.ones_like(np.asarray(x, dtype=float)),
        f=base.f, u0=base.u0, c1_lower=1.0)
    _rejects(sick_q, f"q is negative at t={T1}, x=0.0")
    sick_u0 = DiffusionProblem(
        k=base.k, q=base.q, f=base.f, u0=lambda x: np.cos(np.asarray(x)), c1_lower=1.0)
    _rejects(sick_u0, "u0 must vanish at both boundaries at t=0.0, x=0.0")


def test_time_only_declaration_is_checked():
    base = manufactured_case(ALPHA, Coefficients.VARIABLE_XT).problem
    lying = DiffusionProblem(k=base.k, q=base.q, f=base.f, u0=base.u0,
                             c1_lower=1.0, coefficients=Coefficients.TIME_ONLY)
    _rejects(lying, f"time-only but k varies in x at t={T1}, x=0.9375")


def _with(base, **fields):
    return dataclasses.replace(base, **fields)


def test_validate_on_grid_rejects_non_finite_k():
    base = manufactured_case(ALPHA).problem
    sick = _with(base, k=lambda x, t: np.full_like(np.asarray(x, dtype=float), np.nan))
    _rejects(sick, f"k is not finite at t={T1}, x=0.0625")


def test_validate_on_grid_rejects_non_finite_q():
    base = manufactured_case(ALPHA).problem
    sick = _with(base, q=lambda x, t: np.full_like(np.asarray(x, dtype=float), np.inf))
    _rejects(sick, f"q is not finite at t={T1}, x=0.0")


def test_time_only_declaration_rejects_x_varying_q():
    base = manufactured_case(ALPHA, Coefficients.TIME_ONLY).problem
    lying = _with(base, q=lambda x, t: 5.0 * np.asarray(x, dtype=float))
    for scheme in SchemeKind:
        _rejects(lying, f"q varies in x at t={T1}, x=1.0", scheme)


def test_non_finite_source_and_initial_value_are_rejected():
    base = manufactured_case(ALPHA).problem
    _rejects(_with(base, f=lambda x, t: np.full_like(x, np.nan)), f"f is not finite at t={T1}, x=0.0")
    u0_nan = lambda x: np.where((x > 0.0) & (x < 1.0), np.nan, 0.0)
    _rejects(_with(base, u0=u0_nan), "u0 is not finite at t=0.0, x=0.125")


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_fields_must_return_one_value_per_node(scheme):
    base = manufactured_case(ALPHA, Coefficients.TIME_ONLY).problem
    scalar_k, scalar_f, short_k = (lambda x, t: 2.0), (lambda x, t: 1.0), (lambda x, t: np.full(3, 2.0))
    _rejects(_with(base, k=scalar_k), f"k has shape (), not (8,), at t={T1}, x=0.0625..0.9375", scheme)
    _rejects(_with(base, f=scalar_f), f"f has shape (), not (9,), at t={T1}, x=0.0..1.0", scheme)
    _rejects(_with(base, k=short_k), f"k has shape (3,), not (8,), at t={T1}, x=0.0625..0.9375", scheme)


def test_bad_values_only_at_bootstrap_substeps_are_rejected():
    """k < c1 or q < 0 for t < tau only: the L1 bootstrap is the only user."""
    base = manufactured_case(ALPHA).problem
    early_k = lambda x, t: (0.5 if t < GRID.tau else 2.0) * np.ones_like(x)
    _rejects(_with(base, k=early_k), f"k drops below c1=1.0 at t={T1}, x=0.0625")
    early_q = lambda x, t: (-1.0 if t < GRID.tau else 1.0) * np.ones_like(x)
    _rejects(_with(base, q=early_q), f"q is negative at t={T1}, x=0.0")
    # one bad node at the second substep only
    late_k = lambda x, t: np.where((x > 0.5) & (t == 2 * T1), np.nan, base.k(x, t))
    _rejects(_with(base, k=late_k), f"k is not finite at t={2 * T1}, x=0.5625")


_BAD_VALUES = {
    "k": (np.nan, np.inf, 0.5),  # c1 = 1
    "q": (np.nan, -np.inf, -1.0),
    "f": (np.nan, np.inf),
    "u0": (np.nan, -np.inf),
}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    scheme=st.sampled_from(list(SchemeKind)),
    alpha=st.floats(0.05, 0.95),
    n_sub=st.integers(2, 7),
    m_steps=st.integers(1, 5),
    name=st.sampled_from(sorted(_BAD_VALUES)),
)
def test_a_poisoned_node_is_named_by_field_t_and_x(data, scheme, alpha, n_sub, m_steps, name):
    """One bad value at any node and any time the solve evaluates a field."""
    alpha = AlphaParam(alpha)
    variant = Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    base = manufactured_case(alpha, variant).problem
    grid = GridSpec(N=n_sub, M=m_steps)
    field = getattr(base, name)
    times = []

    def spy(x, *t):
        times.append(t[0] if t else 0.0)
        return field(x, *t)

    solve(_with(base, **{name: spy}), grid, alpha, scheme)
    t_bad = data.draw(st.sampled_from(times), label="t")
    nodes = grid.x_half_nodes() if name == "k" else grid.x_nodes()
    i_bad = data.draw(st.integers(0, nodes.size - 1), label="node")
    value = data.draw(st.sampled_from(_BAD_VALUES[name]), label="value")

    def poisoned(x, *t):
        v = np.array(field(x, *t), dtype=float)
        if (t[0] if t else 0.0) == t_bad:
            v[i_bad] = value
        return v

    with pytest.raises(ValueError) as err:
        solve(_with(base, **{name: poisoned}), grid, alpha, scheme)
    assert str(err.value).startswith(f"{name} ")
    assert str(err.value).endswith(f" at t={t_bad}, x={nodes[i_bad]}")
