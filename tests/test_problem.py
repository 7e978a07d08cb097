"""Grids, problem validation, and the manufactured verification cases."""

import dataclasses
import math
import re
import sys
import threading

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
from fracheat.problem import _last_call
from fracheat.solver import _evaluate

CSTEP = 1e-20


def complex_step_dt(u, x, t):
    return (u(x, t + 1j * CSTEP)).imag / CSTEP


def test_gridspec_rejects_bad_sizes():
    for n_sub, m_steps, field in ((1, 10, "N"), (0, 10, "N"), (10, 0, "M"), (10.5, 4, "N"), (10.0, 4, "N"),
                                  (10, 4.0, "M"), (True, 4, "N"), ("10", 4, "N")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            GridSpec(N=n_sub, M=m_steps)
    for field, value in (("length", -1.0), ("length", math.inf), ("horizon", math.inf), ("horizon", math.nan)):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            GridSpec(N=4, M=4, **{field: value})
    grid = GridSpec(N=np.int64(10), M=np.int32(4))  # numpy integers stay accepted
    assert grid.x_nodes().size == 11 and grid.t_nodes().size == 5


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


@pytest.mark.parametrize("c1", [math.nan, math.inf, -math.inf, 0.0, -1.0, True])
def test_problem_rejects_a_c1_lower_that_would_switch_the_k_check_off(c1):
    # c1 = nan used to pass every k (lo < nan is False), and c1 = -1 let
    # k = -0.5 through to a blow-up
    with pytest.raises(ValueError, match="^c1_lower must be finite and positive"):
        _with(manufactured_case(ALPHA).problem, c1_lower=c1)


def test_problem_takes_coefficients_by_value_and_rejects_unknown_ones():
    case = manufactured_case(ALPHA, Coefficients.TIME_ONLY)
    by_name = _with(case.problem, coefficients="time_only")
    assert by_name.coefficients is Coefficients.TIME_ONLY
    assert (solve(by_name, GRID, ALPHA, SchemeKind.COMPACT4).layers.tobytes()
            == solve(case.problem, GRID, ALPHA, SchemeKind.COMPACT4).layers.tobytes())
    with pytest.raises(ValueError, match="'bogus' is not a valid Coefficients"):
        _with(case.problem, coefficients="bogus")


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


def _reference_manufactured_case(alpha, variant):
    """The manufactured case's fields evaluated plainly, with no memo: the oracle."""
    a = alpha.alpha
    caputo_c3 = math.gamma(4.0 + a) / 6.0
    caputo_c2 = 2.0 / math.gamma(3.0 - a)

    def g(t):
        return t ** (3.0 + a) + t * t + 1.0

    def u_exact(x, t):
        return np.sin(np.pi * x) * g(t)

    def caputo_u(x, t):
        return np.sin(np.pi * x) * (caputo_c3 * t**3 + caputo_c2 * t ** (2.0 - a))

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

    return {"f": f, "k": k, "q": q, "u0": u0, "u_exact": u_exact, "caputo_u": caputo_u}


def _case_fields(case):
    p = case.problem
    return {"f": p.f, "k": p.k, "q": p.q, "u0": p.u0, "u_exact": case.u_exact, "caputo_u": case.caputo_u}


def _call(fields, name, x, t):
    return np.asarray(fields[name](x) if name == "u0" else fields[name](x, t)).tobytes()


def _call_sequence(fields):
    """Every field over a sequence of calls that a memo could answer wrongly,
    as bytes: nodes and half-nodes in turn, an array of another size, each t
    twice in a row, 0.0 and -0.0 at equal values, a 0-d array, and one
    array object changed in place between two calls with the same t.  The
    field order alternates, so q comes both before and after f at the same
    x and t."""
    grid = GridSpec(N=40, M=8)
    nodes, half, other = grid.x_nodes(), grid.x_half_nodes(), np.linspace(0.0, 1.0, 17)
    plus_zero, minus_zero = np.array([0.0, 0.25, 1.0]), np.array([-0.0, 0.25, 1.0])
    moving = nodes.copy()
    names = ["f", "q", "k", "u_exact", "caputo_u", "u0"]
    out = []
    for t in (0.0, 0.125, 0.125, 0.5, 0.5, 1.0):
        for x in (nodes, half, nodes, other, plus_zero, minus_zero, np.array(0.3), moving, moving):
            names.reverse()
            out += [_call(fields, name, x, t) for name in names]
            if x is moving:
                moving *= 0.75
    return out


@pytest.mark.parametrize("variant", list(Coefficients))
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_manufactured_fields_are_bit_for_bit_plain_evaluation(alpha, variant):
    alpha = AlphaParam(alpha)
    want = _call_sequence(_reference_manufactured_case(alpha, variant))
    got = _call_sequence(_case_fields(manufactured_case(alpha, variant)))
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"call {i} differs from plain evaluation"


@pytest.mark.parametrize("variant", list(Coefficients))
def test_changing_a_returned_array_leaves_later_results_alone(variant):
    alpha = AlphaParam(0.5)
    fields = _case_fields(manufactured_case(alpha, variant))
    oracle = _reference_manufactured_case(alpha, variant)
    x, t = GridSpec(N=16, M=4).x_nodes(), 0.25
    for name in ("f", "q", "u_exact", "caputo_u"):
        fields[name](x, t)[:] = 7.0
        assert _call(fields, name, x, t) == _call(oracle, name, x, t), name
    for name in ("f", "q", "u_exact", "caputo_u"):
        assert _call(fields, name, x, t) == _call(oracle, name, x, t), name


@pytest.mark.parametrize("variant", list(Coefficients))
def test_threads_sharing_a_case_each_get_plain_results(variant):
    alpha = AlphaParam(0.3)
    fields = _case_fields(manufactured_case(alpha, variant))
    oracle = _reference_manufactured_case(alpha, variant)
    jobs = [(GridSpec(N=500 + 7 * i, M=4).x_nodes(), 0.1 + 0.2 * i) for i in range(4)]
    start = threading.Barrier(len(jobs), timeout=30)
    wrong, done = [], []

    def work(x, t):
        want = {name: _call(oracle, name, x, t) for name in ("f", "q", "u_exact", "caputo_u")}
        start.wait()
        for _ in range(150):
            for name, w in want.items():
                if _call(fields, name, x, t) != w:
                    wrong.append((name, t))
        done.append(t)

    threads = [threading.Thread(target=work, args=job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and len(done) == len(jobs)
    assert not wrong, f"{len(wrong)} results differ, first {wrong[0]}"


def test_a_field_that_writes_to_its_nodes_is_stopped():
    base = manufactured_case(ALPHA).problem

    def k_in_place(x, t):
        x *= 1.0
        return base.k(x, t)

    with pytest.raises(ValueError, match="read-only"):
        solve(_with(base, k=k_in_place), GRID, ALPHA)


def _evaluated(values, name, variant=Coefficients.VARIABLE_XT):
    """``_evaluate`` of field ``name`` returning ``values`` at nodes of its size."""
    base = manufactured_case(ALPHA, variant).problem
    nodes = np.linspace(0.0, 1.0, values.size)
    field = (lambda x: values.copy()) if name == "u0" else (lambda x, t: values.copy())
    return _evaluate(_with(base, **{name: field}), name, nodes, 0.25), nodes


def _evaluate_error(values, name, variant=Coefficients.VARIABLE_XT):
    with pytest.raises(ValueError) as err:
        _evaluated(values, name, variant)
    return str(err.value)


@pytest.mark.parametrize("n", [3, 9, 17, 251])
def test_evaluate_names_the_first_non_finite_node(n):
    # both infinities in one array, where finiteness must be decided before
    # the bounds; each infinity alone; a NaN at the last node, past any
    # blocked part of a reduction
    nodes = np.linspace(0.0, 1.0, n)
    cases = [({n // 2: np.inf, n - 1: -np.inf}, n // 2), ({1: np.inf}, 1), ({n - 1: -np.inf}, n - 1),
             ({n - 1: np.nan}, n - 1)]
    for name in ("k", "q", "f"):
        for bad, first in cases:
            v = np.full(n, 2.0)
            for i, value in bad.items():
                v[i] = value
            assert _evaluate_error(v, name) == f"{name} is not finite at t=0.25, x={nodes[first]}"


def test_evaluate_checks_the_bounds_at_their_thresholds():
    c1 = manufactured_case(ALPHA).problem.c1_lower
    nodes = np.linspace(0.0, 1.0, 9)
    k = np.full(9, 2.0)
    k[4] = c1 - 1e-12
    assert _evaluated(k, "k")[0].tobytes() == k.tobytes()
    k[6] = np.nextafter(c1 - 1e-12, 0.0)
    assert _evaluate_error(k, "k") == f"k drops below c1={c1} at t=0.25, x={nodes[6]}"
    q = np.full(9, 0.5)
    q[2] = -1e-12
    assert _evaluated(q, "q")[0].tobytes() == q.tobytes()
    q[7] = np.nextafter(-1e-12, -1.0)
    assert _evaluate_error(q, "q") == f"q is negative at t=0.25, x={nodes[7]}"


def test_evaluate_checks_time_only_spread_at_its_threshold():
    # q spreads exactly 1e-12 (pass) or 2e-12 (fail) from 0; k, near 1.5,
    # spreads by the last and the first difference of doubles there not
    # above 1e-12
    nodes = np.linspace(0.0, 1.0, 9)
    ulp = 2.0**-52
    for name, base, at, past in (("q", 0.0, 1e-12, 2e-12), ("k", 1.5, 4503 * ulp, 4504 * ulp)):
        v = np.full(9, base)
        v[3] = base + at
        assert np.ptp(v) <= 1e-12 and (name == "k" or np.ptp(v) == 1e-12)
        assert _evaluated(v, name, Coefficients.TIME_ONLY)[0].tobytes() == v.tobytes()
        v[5] = base + past
        assert np.ptp(v) > 1e-12
        assert _evaluate_error(v, name, Coefficients.TIME_ONLY) == (
            f"coefficients declared time-only but {name} varies in x at t=0.25, x={nodes[5]}")


def test_memo_hits_only_on_the_same_shape_bytes_and_t():
    computed = []
    memo = _last_call(lambda x, t: computed.append((x.shape, t)) or x * t)
    flat = np.arange(6.0)
    wide, tall = flat.reshape(2, 3), flat.reshape(3, 2)
    assert memo(wide, 0.5).shape == (2, 3)
    assert memo(wide.copy(), 0.5).shape == (2, 3)  # same shape and bytes: a hit
    assert memo(tall, 0.5).shape == (3, 2)  # same bytes, another shape: a miss
    assert memo(tall, -0.5).shape == (3, 2)
    zero, minus_zero = np.zeros(2), -np.zeros(2)
    memo(zero, 1.0)
    memo(minus_zero, 1.0)  # equal values, other bits
    zero += 1.0
    memo(zero, 1.0)  # changed in place since the last call with it
    assert computed == [((2, 3), 0.5), ((3, 2), 0.5), ((3, 2), -0.5), ((2,), 1.0), ((2,), 1.0), ((2,), 1.0)]
