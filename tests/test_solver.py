"""Spatial operators, tridiagonal solve, and full solves level by level."""

import dataclasses
import math

import numpy as np
import pytest

from fracheat import (
    AlphaParam,
    Coefficients,
    DiffusionProblem,
    GridSpec,
    SchemeKind,
    TridiagonalSystem,
    apply_compact_H,
    apply_lambda,
    c_weights,
    manufactured_case,
    norm_L2,
    norm_grad,
    solve,
    thomas_solve,
)


def constant_coefficient_problem(f=None, u0=None, q_const=0.0):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return DiffusionProblem(
        k=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        q=lambda x, t: q_const * np.ones_like(np.asarray(x, dtype=float)),
        f=f if f is not None else (lambda x, t: zero(x)),
        u0=u0 if u0 is not None else zero,
        c1_lower=1.0,
        coefficients=Coefficients.TIME_ONLY,
    )


# ---------------------------------------------------------------- operators


def test_apply_lambda_zero_vector():
    grid = GridSpec(N=8, M=4)
    prob = manufactured_case(AlphaParam(0.5)).problem
    assert np.array_equal(apply_lambda(np.zeros(9), 1, prob, grid), np.zeros(9))


def test_apply_lambda_exact_on_quadratic():
    # central second difference is exact on degree <= 2
    grid = GridSpec(N=16, M=4)
    prob = constant_coefficient_problem()
    x = grid.x_nodes()
    y = x * (1.0 - x)
    out = apply_lambda(y, 0, prob, grid)
    assert np.allclose(out[1:-1], -2.0, atol=1e-12)
    assert out[0] == out[-1] == 0.0


def test_apply_lambda_on_sine():
    grid = GridSpec(N=100, M=4)
    prob = constant_coefficient_problem()
    x = grid.x_nodes()
    out = apply_lambda(np.sin(np.pi * x), 2, prob, grid)
    ref = -math.pi**2 * np.sin(np.pi * x[1:-1])
    assert np.max(np.abs(out[1:-1] - ref)) / np.max(np.abs(ref)) < 1e-2


def test_apply_lambda_size_mismatch():
    grid = GridSpec(N=8, M=4)
    prob = constant_coefficient_problem()
    with pytest.raises(ValueError):
        apply_lambda(np.zeros(5), 0, prob, grid)


def test_compact_H_constant_passthrough():
    grid = GridSpec(N=6, M=2)
    v = np.full(7, 2.5)
    assert np.allclose(apply_compact_H(v, grid), v, rtol=1e-15)


def test_compact_H_hand_value():
    grid = GridSpec(N=2, M=2)
    out = apply_compact_H(np.array([0.0, 1.0, 0.0]), grid)
    assert out[1] == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert out[0] == 0.0 and out[2] == 0.0


def test_compact_H_norm_equivalence():
    grid = GridSpec(N=50, M=2)
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = rng.standard_normal(51)
        v[0] = v[-1] = 0.0
        n2 = norm_L2(v, grid.h) ** 2
        h2 = norm_L2(apply_compact_H(v, grid), grid.h) ** 2
        assert 5.0 / 12.0 * n2 <= h2 <= n2 * (1.0 + 1e-14)


# ------------------------------------------------------------------ thomas


def test_thomas_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    sys = TridiagonalSystem(lower=np.zeros(2), diag=np.ones(3), upper=np.zeros(2), rhs=rhs)
    assert np.array_equal(thomas_solve(sys), rhs)


def test_thomas_small_system():
    sys = TridiagonalSystem(
        lower=np.array([-1.0, -1.0]),
        diag=np.array([2.0, 2.0, 2.0]),
        upper=np.array([-1.0, -1.0]),
        rhs=np.array([1.0, 0.0, 1.0]),
    )
    assert np.allclose(thomas_solve(sys), np.ones(3), atol=1e-14)


def test_thomas_against_dense_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 201))
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        diag = np.zeros(n)
        diag[0] = abs(upper[0]) + rng.uniform(0.1, 2.0)
        diag[-1] = abs(lower[-1]) + rng.uniform(0.1, 2.0)
        for i in range(1, n - 1):
            diag[i] = abs(lower[i - 1]) + abs(upper[i]) + rng.uniform(0.1, 2.0)
        diag *= rng.choice([-1.0, 1.0], n)
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        got = thomas_solve(TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs))
        assert np.max(np.abs(got - np.linalg.solve(dense, rhs))) < 1e-10


def test_thomas_residual_small():
    rng = np.random.default_rng(8)
    n = 50
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = 3.0 + rng.uniform(0.0, 1.0, n)
    rhs = rng.standard_normal(n)
    sys = TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)
    x = thomas_solve(sys)
    assert sys.residual_inf(x) <= 1e-12 * np.max(np.abs(rhs))


def test_thomas_zero_pivot():
    sys = TridiagonalSystem(
        lower=np.array([1.0]), diag=np.array([0.0, 1.0]), upper=np.array([1.0]),
        rhs=np.array([1.0, 1.0]),
    )
    with pytest.raises(ZeroDivisionError):
        thomas_solve(sys)


def test_tridiagonal_shape_validation():
    with pytest.raises(ValueError):
        TridiagonalSystem(lower=np.zeros(3), diag=np.ones(3), upper=np.zeros(2), rhs=np.ones(3))


def test_compact_system_diagonally_dominant():
    # entries of the implicit compact matrix for the coefficient ranges the
    # schemes actually see: the dominance margin is w when the off-diagonal
    # is negative (stiff regime) and 2w/3 + 4a/h^2 otherwise, so it never
    # drops below two thirds of the zeroth-order weight
    rng = np.random.default_rng(44)
    for _ in range(200):
        a = rng.uniform(1.0, 3.0)
        d = rng.uniform(0.0, 2.0)
        alpha = AlphaParam(float(rng.uniform(0.02, 0.98)))
        tau = float(rng.uniform(1e-3, 0.5))
        h = float(rng.uniform(1e-3, 0.5))
        rho = tau ** (-alpha.alpha) / alpha.gamma_2ma
        w = rho * c_weights(1, alpha)[0] + d
        diag = w * 10.0 / 12.0 + 2.0 * a / h**2
        off = w / 12.0 - a / h**2
        assert abs(diag) - 2.0 * abs(off) >= (2.0 / 3.0) * w * (1.0 - 1e-12)


# --------------------------------------------------------------- bootstrap


def test_bootstrap_substep_count_rule():
    # tau=1/10, alpha=0.5 -> ceil(10^(1/1.5)) = 5 substeps
    assert math.ceil(10.0 ** (1.0 / 1.5)) == 5


def test_bootstrap_preserves_zero_solution():
    grid = GridSpec(N=10, M=5)
    prob = constant_coefficient_problem()
    for scheme in (SchemeKind.ORDER2, SchemeKind.COMPACT4):
        y1 = solve(prob, grid, AlphaParam(0.5), scheme).layers[1]
        assert np.array_equal(y1, np.zeros(11))


def test_bootstrap_accuracy_order():
    # first-layer error vs the exact solution decays at >= 2.4 under the
    # coupled tau-h refinement used by the second-order experiment
    alpha = AlphaParam(0.5)
    case = manufactured_case(alpha)
    errs = []
    for m_steps, n_sub in ((10, 18), (20, 43), (40, 101)):
        grid = GridSpec(N=n_sub, M=m_steps)
        y1 = solve(case.problem, grid, alpha, SchemeKind.ORDER2).layers[1]
        exact = case.u_exact(grid.x_nodes(), grid.tau)
        errs.append(norm_L2(y1 - exact, grid.h))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert min(orders) >= 2.4


# ----------------------------------------------------------------- stepping


def _hand_history(c, m, j):
    """c_0 m^j - sum_{s=0}^{j-1} c_{j-s} (m^{s+1} - m^s), written out term by term."""
    return c[0] * m[j] - sum(c[j - s] * (m[s + 1] - m[s]) for s in range(j))


def test_step_order2_scalar_oracle():
    # N=2 has one interior unknown; the implicit equation collapses to a
    # scalar relation solvable by hand.  Levels j = 1, 2, 3 of an M=4 solve
    # cover the j=1, j=2 and j>=3 weight branches.
    alpha = AlphaParam(0.6)
    case = manufactured_case(alpha)
    grid = GridSpec(N=2, M=4)
    layers = solve(case.problem, grid, alpha, SchemeKind.ORDER2).layers
    y = layers[:, 1]
    assert np.all(layers[:, 0] == 0.0) and np.all(layers[:, 2] == 0.0)

    tau, h = grid.tau, grid.h
    rho = tau ** (-alpha.alpha) / alpha.gamma_2ma
    for j in (1, 2, 3):
        c = c_weights(j, alpha)
        hist = _hand_history(c, y, j)
        t_new = (j + 1) * tau
        phi = float(case.problem.f(np.array([0.5]), t_new)[0])
        a1 = float(case.problem.k(np.array([0.25]), t_new)[0])
        a2 = float(case.problem.k(np.array([0.75]), t_new)[0])
        d1 = float(case.problem.q(np.array([0.5]), t_new)[0])
        y_hand = (phi + rho * hist) / (rho * c[0] + (a1 + a2) / h**2 + d1)
        assert y[j + 1] == pytest.approx(y_hand, rel=1e-13), f"level j={j}"


def test_step_compact_scalar_oracle():
    # as above, with the history taken over H y, which is (10/12) y on (0, y, 0)
    alpha = AlphaParam(0.4)
    grid = GridSpec(N=2, M=4)
    prob = constant_coefficient_problem(
        f=lambda x, t: np.cos(np.asarray(x, dtype=float)) * (1.0 + t),
        u0=lambda x: 0.8 * np.sin(np.pi * np.asarray(x, dtype=float)),
        q_const=0.0,
    )
    layers = solve(prob, grid, alpha, SchemeKind.COMPACT4).layers
    y = layers[:, 1]
    assert y[0] == pytest.approx(0.8, rel=1e-15)

    tau, h = grid.tau, grid.h
    rho = tau ** (-alpha.alpha) / alpha.gamma_2ma
    x = grid.x_nodes()
    hy = y * 10.0 / 12.0
    for j in (1, 2, 3):
        c = c_weights(j, alpha)
        hist = _hand_history(c, hy, j)
        phi = np.cos(x) * (1.0 + (j + 1) * tau)
        h_phi = phi[1] + (phi[2] - 2.0 * phi[1] + phi[0]) / 12.0
        y_hand = (h_phi + rho * hist) / (rho * c[0] * 10.0 / 12.0 + 2.0 / h**2)
        assert y[j + 1] == pytest.approx(y_hand, rel=1e-13), f"level j={j}"


def test_step_compact_rejects_variable_coefficients():
    alpha = AlphaParam(0.5)
    case = manufactured_case(alpha, Coefficients.VARIABLE_XT)
    grid = GridSpec(N=8, M=4)
    with pytest.raises(ValueError, match="time-only"):
        solve(case.problem, grid, alpha, SchemeKind.COMPACT4)


# -------------------------------------------------------------------- solve


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_solve_evaluates_each_field_once_per_level(scheme):
    alpha = AlphaParam(0.5)
    variant = Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    base = manufactured_case(alpha, variant).problem
    calls = dict.fromkeys(("k", "q", "f", "u0"), 0)

    def counted(name):
        field = getattr(base, name)

        def wrapper(*args):
            calls[name] += 1
            return field(*args)

        return wrapper

    solve(dataclasses.replace(base, **{n: counted(n) for n in calls}), GridSpec(N=8, M=4), alpha, scheme)
    m1 = 3  # L1 substeps, ceil(4^(1/1.5)); then levels 2..M
    assert calls == {"k": m1 + 3, "q": m1 + 3, "f": m1 + 3, "u0": 1}


def test_solve_zero_data_stays_zero():
    grid = GridSpec(N=10, M=6)
    prob = constant_coefficient_problem()
    for scheme in (SchemeKind.ORDER2, SchemeKind.COMPACT4):
        hist = solve(prob, grid, AlphaParam(0.5), scheme)
        assert np.array_equal(hist.layers, np.zeros((7, 11)))


def test_solve_single_step_grid():
    # M=1: layer 0 from the data, layer 1 from the bootstrap, no L2 steps
    alpha = AlphaParam(0.5)
    case = manufactured_case(alpha)
    # M=1 means tau=T, so the bootstrap takes one L1 substep over the whole
    # horizon: rho (y1 - y0) = Lambda(T) y1 + f(T) with rho = 1/Gamma(2-a)
    grid = GridSpec(N=12, M=1)
    hist = solve(case.problem, grid, alpha)
    assert hist.layers.shape == (2, 13)
    y0, y1 = hist.layers
    rho = 1.0 / alpha.gamma_2ma
    residual = rho * (y1 - y0) - apply_lambda(y1, 0, case.problem, grid) - case.problem.f(grid.x_nodes(), 1.0)
    assert np.max(np.abs(residual[1:-1])) < 1e-13 * np.max(np.abs(y1)) / grid.h**2


def test_solve_layer0_and_boundaries():
    alpha = AlphaParam(0.3)
    case = manufactured_case(alpha)
    grid = GridSpec(N=18, M=10)
    hist = solve(case.problem, grid, alpha)
    assert np.allclose(hist.layers[0], case.problem.u0(grid.x_nodes()), atol=1e-15)
    assert np.all(hist.layers[:, 0] == 0.0)
    assert np.all(hist.layers[:, -1] == 0.0)


def test_solve_superposition():
    # solve is linear in (u0, f)
    alpha = AlphaParam(0.5)
    base = manufactured_case(alpha).problem
    rng = np.random.default_rng(15)
    for trial in range(5):
        m1, m2 = rng.integers(1, 4, 2)
        f2 = lambda x, t: np.cos(m1 * np.asarray(x, dtype=float)) * (t + 0.5)
        u02 = lambda x: np.sin(m2 * np.pi * np.asarray(x, dtype=float))
        p2 = DiffusionProblem(k=base.k, q=base.q, f=f2, u0=u02, c1_lower=1.0)
        psum = DiffusionProblem(
            k=base.k, q=base.q,
            f=lambda x, t: base.f(x, t) + f2(x, t),
            u0=lambda x: base.u0(x) + u02(x),
            c1_lower=1.0,
        )
        grid = GridSpec(N=16, M=8)
        h_sum = solve(psum, grid, alpha)
        h_1 = solve(base, grid, alpha)
        h_2 = solve(p2, grid, alpha)
        assert np.max(np.abs(h_sum.layers - h_1.layers - h_2.layers)) < 1e-10


def test_solve_stability_energy_bounded():
    # zero source, random bounded data: the cumulative energy never exceeds
    # a fixed multiple of the initial-data terms as tau is refined
    rng = np.random.default_rng(7)
    n_sub = 32
    u0_vals = rng.uniform(-1.0, 1.0, n_sub + 1)
    u0_vals[0] = u0_vals[-1] = 0.0
    nodes = np.linspace(0.0, 1.0, n_sub + 1)
    prob = DiffusionProblem(
        k=lambda x, t: 2.0 - np.cos(np.asarray(x) * t),
        q=lambda x, t: 1.0 - np.sin(np.asarray(x) * t),
        f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        u0=lambda x: np.interp(x, nodes, u0_vals),
        c1_lower=1.0,
    )
    for a in (0.1, 0.9):
        alpha = AlphaParam(a)
        for m_steps in (8, 16, 32, 64):
            grid = GridSpec(N=n_sub, M=m_steps)
            hist = solve(prob, grid, alpha)
            h, tau = grid.h, grid.tau
            lhs = sum(
                (norm_L2(hist.layers[j + 1], h) ** 2 + norm_grad(hist.layers[j + 1], h) ** 2) * tau
                for j in range(1, m_steps)
            )
            rhs = norm_L2(hist.layers[1], h) ** 2 + norm_L2(hist.layers[0], h) ** 2
            assert lhs <= 10.0 * rhs


def test_thomas_single_unknown():
    sys1 = TridiagonalSystem(lower=np.zeros(0), diag=np.array([4.0]),
                             upper=np.zeros(0), rhs=np.array([2.0]))
    assert thomas_solve(sys1) == pytest.approx([0.5])


def test_solve_compact_single_step_grid():
    # M=1 means tau=T, so the bootstrap covers the whole horizon in one L1
    # substep of the compact scheme: H(rho (y1 - y0) + q y1 - f) = k D2 y1
    alpha = AlphaParam(0.7)
    case = manufactured_case(alpha, Coefficients.TIME_ONLY)
    grid = GridSpec(N=13, M=1)
    hist = solve(case.problem, grid, alpha, SchemeKind.COMPACT4)
    assert hist.layers.shape == (2, 14)
    y0, y1 = hist.layers
    x = grid.x_nodes()
    rho = 1.0 / alpha.gamma_2ma
    k, q = 2.0 - math.cos(1.0), 1.0 - math.sin(1.0)
    lhs = apply_compact_H(rho * (y1 - y0) + q * y1 - case.problem.f(x, 1.0), grid)[1:-1]
    rhs = k * (y1[2:] - 2.0 * y1[1:-1] + y1[:-2]) / grid.h**2
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(y1)) / grid.h**2
