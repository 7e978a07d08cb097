"""Spatial operators, tridiagonal solve, and full solves level by level."""

import dataclasses
import math
import re
import sys
import threading
import tracemalloc

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
    TridiagonalSystem,
    apply_compact_H,
    c_weights,
    convergence_order,
    exact_caputo_power,
    manufactured_case,
    measure_errors,
    norm_L2,
    norm_grad,
    solve,
    thomas_solve,
)
import fracheat.solver as solver_module
from fracheat.baselines import BASELINE_TABLE4_CO
from fracheat.kernel import _l2_levels, _l2_table, a_coeff, b_coeff
from sine_cases import sine_case


def constant_coefficient_problem(f=None, u0=None, q_const=0.0):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return DiffusionProblem(
        k=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        q=lambda x, t: q_const * np.ones_like(np.asarray(x, dtype=float)),
        f=f if f is not None else (lambda x, t: zero(x)),
        u0=u0 if u0 is not None else zero,
    )


# ---------------------------------------------------------------- operators


def test_compact_H_constant_passthrough():
    v = np.full(7, 2.5)
    assert np.allclose(apply_compact_H(v), v, rtol=1e-15)


def test_compact_H_hand_value():
    out = apply_compact_H(np.array([0.0, 1.0, 0.0]))
    assert out[1] == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert out[0] == 0.0 and out[2] == 0.0


def test_compact_H_is_bit_for_bit_the_plain_formula():
    # built in place, it must round as v_i + (v_{i+1} - 2 v_i + v_{i-1}) / 12,
    # signed zeros and equal neighbours included
    rng = np.random.default_rng(18)
    for n in (2, 3, 4, 251):
        for _ in range(100):
            v = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0)
            v[rng.random(n) < 0.2] = rng.choice([0.0, -0.0, 1.0])
            plain = v.copy()
            plain[1:-1] += (v[2:] - 2.0 * v[1:-1] + v[:-2]) / 12.0
            assert apply_compact_H(v).tobytes() == plain.tobytes()


def test_compact_H_norm_equivalence():
    grid = GridSpec(N=50, M=2)
    rng = np.random.default_rng(17)
    for _ in range(100):
        v = rng.standard_normal(51)
        v[0] = v[-1] = 0.0
        n2 = norm_L2(v, grid.h) ** 2
        h2 = norm_L2(apply_compact_H(v), grid.h) ** 2
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
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    x = thomas_solve(TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs))
    assert np.max(np.abs(dense @ x - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_thomas_zero_pivot():
    # the unpivoted sweep meets a zero pivot in row 0; partial pivoting
    # solves the system; a singular matrix still raises
    rhs = np.array([1.0, 2.0])
    sys = TridiagonalSystem(lower=np.array([1.0]), diag=np.array([0.0, 1.0]), upper=np.array([1.0]), rhs=rhs)
    assert np.allclose(thomas_solve(sys), np.linalg.solve([[0.0, 1.0], [1.0, 1.0]], rhs), rtol=0.0, atol=1e-15)
    rhs3 = np.array([1.0, 2.0, 3.0])  # the sweep's pivot in row 1 is 2 - 1 * (4 / 2) = 0
    sys = TridiagonalSystem(lower=np.array([1.0, 4.0]), diag=np.full(3, 2.0), upper=np.array([4.0, 2.0]), rhs=rhs3)
    dense = [[2.0, 4.0, 0.0], [1.0, 2.0, 2.0], [0.0, 4.0, 2.0]]
    assert np.allclose(thomas_solve(sys), np.linalg.solve(dense, rhs3), rtol=0.0, atol=1e-15)
    sys = TridiagonalSystem(lower=np.array([1.0]), diag=np.array([1.0, 1.0]), upper=np.array([1.0]), rhs=rhs)
    with pytest.raises(ZeroDivisionError, match=re.escape("(row 1)")):
        thomas_solve(sys)


@pytest.mark.parametrize("row", [0, 3, 6])
def test_thomas_row_interchange_matches_dense_solve(row):
    # dgttrf runs on the transpose, whose sub-diagonal is ``upper``: it swaps
    # rows where a pivot is smaller in magnitude than the entry below it
    rng = np.random.default_rng(row)
    n = 8
    lower, upper = rng.uniform(0.5, 1.0, n - 1), rng.uniform(0.5, 1.0, n - 1)
    diag = 20.0 + rng.uniform(0.0, 1.0, n)
    # pivot 0.125 at ``row``: under |upper[row]|, far above the pivot floor
    diag[row] = (lower[row - 1] * _multiplier_into(lower, diag, upper, row) if row else 0.0) + 0.125
    rhs = rng.standard_normal(n)
    sys = TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    assert np.max(np.abs(thomas_solve(sys) - np.linalg.solve(dense, rhs))) < 1e-12


@pytest.mark.parametrize("row", [0, 2, 5, 7])
def test_thomas_near_zero_pivot_raises_on_the_lapack_path(row):
    # a pivot of a few 1e-16 of the largest |diag|, nonzero, under the 1e-15
    # floor; upper[row] = 0 keeps dgttrf from swapping rows there, so LAPACK
    # itself meets it
    n = 8
    lower, upper = np.full(n - 1, 0.5), np.full(n - 1, 0.5)
    diag = np.full(n, 4.0)
    if row < n - 1:
        upper[row] = 0.0
    diag[row] = (lower[row - 1] * _multiplier_into(lower, diag, upper, row) if row else 0.0) + 1.6e-15
    pivot = diag[row] - (lower[row - 1] * _multiplier_into(lower, diag, upper, row) if row else 0.0)
    assert 0.0 < pivot < 1e-15 * 4.0
    sys = TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=np.ones(n))
    with pytest.raises(ZeroDivisionError, match=re.escape(f"zero pivot in tridiagonal elimination (row {row})")):
        thomas_solve(sys)


@pytest.mark.parametrize("first, second", [(0, 7), (2, 5), (3, 4)])
def test_thomas_names_the_first_of_two_small_pivots(first, second):
    # two pivots under the floor, each built as in the test above: the
    # message names the first, the row a sweep would meet first
    n = 8
    lower, upper = np.full(n - 1, 0.5), np.full(n - 1, 0.5)
    diag = np.full(n, 4.0)
    for row in (first, second):
        if row < n - 1:
            upper[row] = 0.0
        diag[row] = (lower[row - 1] * _multiplier_into(lower, diag, upper, row) if row else 0.0) + 1.6e-15
    for row in (first, second):
        pivot = diag[row] - (lower[row - 1] * _multiplier_into(lower, diag, upper, row) if row else 0.0)
        assert 0.0 < pivot < 1e-15 * 4.0
    sys = TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=np.ones(n))
    with pytest.raises(ZeroDivisionError, match=re.escape(f"zero pivot in tridiagonal elimination (row {first})")):
        thomas_solve(sys)


_NON_FINITE_CASES = [
    (n, name, index)
    for n in (1, 2, 3, 8)
    for name, size in (("lower", n - 1), ("diag", n), ("upper", n - 1), ("rhs", n))
    for index in sorted({0, (size - 1) // 2, size - 1} if size else ())
]


@pytest.mark.parametrize("n, name, index", _NON_FINITE_CASES)
def test_thomas_rejects_non_finite_entries(n, name, index):
    # a NaN or an infinity at the first, a middle or the last entry of any
    # array fails loudly and names that entry, whichever check sees it first:
    # the pivot test or the solve; 1 and 2 rows take the padded branch
    for value in (math.nan, math.inf, -math.inf):
        arrays = dict(lower=np.full(n - 1, -1.0), diag=np.full(n, 4.0), upper=np.full(n - 1, -1.0), rhs=np.ones(n))
        arrays[name][index] = value
        with pytest.raises(ValueError, match=re.escape(f"non-finite entry: {name}[{index}] = {value}")):
            thomas_solve(TridiagonalSystem(**arrays))


def _reference_thomas(lower, diag, upper, rhs):
    """The original row-by-row Thomas loop, pivot check inside the sweep."""
    n = len(diag)
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


def _multiplier_into(lower, diag, upper, row):
    """The multiplier c_{row-1} that meets row ``row``; inf past an exact zero pivot."""
    c = 0.0
    for i in range(row):
        pivot = diag[i] - (lower[i - 1] * c if i else 0.0)
        c = upper[i] / pivot if pivot else math.inf
    return c


def _sweep_swaps_rows(lower, diag, upper):
    """Whether dgttrf, run on the transpose, swaps rows: where a pivot of the
    sweep is smaller in magnitude than the ``upper`` entry of its row.  Only
    for systems the reference sweep solves, so no pivot is zero."""
    pivot = diag[0]
    for i in range(len(diag) - 1):
        if abs(pivot) < abs(upper[i]):
            return True
        pivot = diag[i + 1] - lower[i] * (upper[i] / pivot)
    return False


def _solve_or_message(solver, *system):
    try:
        return solver(*system)
    except ZeroDivisionError as err:
        return str(err)


def test_thomas_matches_reference_loop_bit_for_bit():
    # symmetric and not, mixed-sign diagonals, diagonal/off-diagonal ratio
    # from 1e-2 to 1e10, n = 1..500; some rows get an exact zero pivot, a
    # tiny one the tolerance catches, or a tiny one followed by an exact
    # zero; a tenth have a zero right-hand side.  Where no row swaps, the
    # solve is the sweep's bit for bit, up to the sign of a zero; every
    # solve is backward stable; and it raises only where the sweep raises
    rng = np.random.default_rng(2024)
    eps = np.finfo(float).eps
    kinds = dict.fromkeys(("solved", "zero", "tiny", "tiny then zero"), 0)
    outcomes = dict.fromkeys(("bit-equal", "pivoted", "sweep raised", "both raised"), 0)
    for _ in range(400):
        n = int(rng.integers(1, 501))
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = lower.copy() if rng.random() < 0.5 else rng.uniform(-1.0, 1.0, n - 1)
        diag = 10.0 ** rng.uniform(-2.0, 10.0) * rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0) * (rng.random() < 0.9)
        lower, diag, upper, rhs = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
        kind = rng.choice(list(kinds)) if n > 2 else "solved"
        if kind != "solved":
            row = int(rng.integers(0, n - 1))
            pivot_part = lower[row - 1] * _multiplier_into(lower, diag, upper, row) if row else 0.0
            if not math.isfinite(pivot_part):
                continue
            # 4e-16 of the scale survives rounding next to pivot_part and
            # stays under the 1e-15 tolerance
            diag[row] = pivot_part + (0.0 if kind == "zero" else 4e-16 * max(abs(v) for v in diag))
            if kind == "tiny then zero":
                later = int(rng.integers(row + 1, n))
                diag[later] = lower[later - 1] * _multiplier_into(lower, diag, upper, later)
                if not math.isfinite(diag[later]):
                    continue
        args = (lower, diag, upper, rhs)
        want = _solve_or_message(_reference_thomas, *args)
        got = _solve_or_message(lambda *arrays: thomas_solve(TridiagonalSystem(*map(np.array, arrays))), *args)
        kinds["solved" if not isinstance(want, str) else kind] += 1
        if isinstance(got, str):
            assert isinstance(want, str), got
            outcomes["both raised"] += 1
            continue
        a, x, b = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1), got, np.array(rhs)
        bound = 8.0 * eps * (np.abs(a).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
        assert np.abs(a @ x - b).max() <= bound
        if isinstance(want, str):
            outcomes["sweep raised"] += 1
        elif _sweep_swaps_rows(lower, diag, upper):
            outcomes["pivoted"] += 1
        else:
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
            outcomes["bit-equal"] += 1
    assert min(kinds.values()) > 0, kinds
    assert min(outcomes.values()) > 0, outcomes


def _reference_thomas_system(sys):
    return _reference_thomas(sys.lower.tolist(), sys.diag.tolist(), sys.upper.tolist(), sys.rhs.tolist())


@pytest.mark.parametrize("scale", (1e-20, 1.0, 1e20))
def test_thomas_small_systems_match_reference(scale):
    # 1 and 2 rows are padded with unit rows for scipy's dgttrf wrapper; the
    # pivot floor comes from the caller's diagonal, and the unit pivots of
    # the padding are not checked against it
    for lower, diag, upper in (([], [3.0], []), ([-1.0], [3.0, -2.0], [0.5])):
        args = [scale * np.array(v) for v in (lower, diag, upper)] + [np.arange(1.0, len(diag) + 1.0)]
        sys = TridiagonalSystem(*args)
        assert thomas_solve(sys).tobytes() == _reference_thomas_system(sys).tobytes()


@pytest.mark.parametrize("log_ratio", range(-10, 1, 2))
def test_thomas_on_scheme_shaped_systems_matches_reference(log_ratio):
    # the systems both schemes assemble: symmetric, diag = e + (a_i + a_{i+1})/h^2,
    # off = -a_{i+1}/h^2, with row excess e a fraction 10^log_ratio of the
    # diagonal (1 means a = 0); diagonally dominant, so no row swaps
    ratio = 10.0**log_ratio
    rng = np.random.default_rng(-log_ratio)
    for n in (3, 4, 17, 1000, 49999):
        h2 = (1.0 / (n + 1)) ** 2
        a_half = rng.uniform(1.0, 3.0, n + 1) * (ratio < 1.0)
        coupling = (a_half[1:] + a_half[:-1]) / h2
        excess = coupling * ratio / (1.0 - ratio) if ratio < 1.0 else rng.uniform(0.5, 2.0, n)
        off = -a_half[1:-1] / h2
        rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0)
        sys = TridiagonalSystem(lower=off, diag=excess + coupling, upper=off, rhs=rhs)
        assert thomas_solve(sys).tobytes() == _reference_thomas_system(sys).tobytes()


@st.composite
def _dominant_symmetric_systems(draw):
    # strictly diagonally dominant by a margin, so dgttrf swaps no rows;
    # all-positive diagonals are positive definite and take dpttrf, the
    # others are refused by it and take dgttrf
    n = draw(st.integers(1, 40))
    magnitude = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    off = np.array(draw(st.lists(magnitude, min_size=n - 1, max_size=n - 1)))
    margin = np.array(draw(st.lists(st.floats(1e-2, 1e3), min_size=n, max_size=n)))
    signs = draw(st.sampled_from(["+", "-", "mixed"]))
    sign = {"+": 1.0, "-": -1.0}.get(signs) or np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    diag = sign * (np.r_[0.0, np.abs(off)] + np.r_[np.abs(off), 0.0] + margin)
    rhs = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    return off, diag, rhs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_dominant_symmetric_systems())
def test_thomas_symmetric_path_matches_reference_and_dgttrf_path(system):
    # ``lower is upper`` takes dpttrf where it can; passing a copy as
    # ``upper`` forces the dgttrf path, which must give the same bits
    off, diag, rhs = system
    sys_ = TridiagonalSystem(lower=off, diag=diag, upper=off, rhs=rhs)
    got = thomas_solve(sys_)
    general = thomas_solve(TridiagonalSystem(lower=off, diag=diag, upper=off.copy(), rhs=rhs))
    assert got.tobytes() == general.tobytes()
    assert (got + 0.0).tobytes() == (_reference_thomas_system(sys_) + 0.0).tobytes()


def test_thomas_symmetric_indefinite_system_is_solved_as_before():
    # dpttrf meets the pivot 1 - 2 * 2 = -3 and refuses; dgttrf solves it
    off = np.array([2.0, 2.0, -1.0])
    diag = np.array([1.0, 1.0, 1.0, -3.0])
    rhs = np.array([1.0, -2.0, 3.0, 0.5])
    got = thomas_solve(TridiagonalSystem(lower=off, diag=diag, upper=off, rhs=rhs))
    general = thomas_solve(TridiagonalSystem(lower=off, diag=diag, upper=off.copy(), rhs=rhs))
    assert got.tobytes() == general.tobytes()
    dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    assert np.max(np.abs(got - np.linalg.solve(dense, rhs))) < 1e-13


@pytest.mark.parametrize("second", [1.0, 1.0 + 2.0 * np.finfo(float).eps])
def test_thomas_symmetric_zero_or_tiny_pivot_raises_as_before(second):
    # a zero pivot (dpttrf refuses) and a positive one under the floor
    # (dpttrf accepts, the floor does not) both go to dgttrf, which names row 1
    off = np.array([1.0])
    sys_ = TridiagonalSystem(lower=off, diag=np.array([1.0, second]), upper=off, rhs=np.ones(2))
    with pytest.raises(ZeroDivisionError, match=re.escape("zero pivot in tridiagonal elimination (row 1)")):
        thomas_solve(sys_)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("name", ["off", "diag", "rhs"])
def test_thomas_symmetric_path_rejects_non_finite_entries(n, name):
    # the shared off-diagonal is reported as ``lower``, the first array searched
    for value in (math.nan, math.inf, -math.inf):
        arrays = dict(off=np.full(n - 1, -1.0), diag=np.full(n, 4.0), rhs=np.ones(n))
        if arrays[name].size == 0:
            continue
        index = arrays[name].size // 2
        arrays[name][index] = value
        shown = "lower" if name == "off" else name
        sys_ = TridiagonalSystem(lower=arrays["off"], diag=arrays["diag"], upper=arrays["off"], rhs=arrays["rhs"])
        with pytest.raises(ValueError, match=re.escape(f"non-finite entry: {shown}[{index}] = {value}")):
            thomas_solve(sys_)


@pytest.mark.parametrize("n", [4, 7])
def test_thomas_finite_system_with_overflowing_pivots_is_solved(n):
    # diag 1.5e308 with off-diagonals of +-1.5e308: passed as two arrays,
    # off and -off, dgttrf's pivots overflow to inf; passed as one, dpttrf
    # refuses and dgttrf solves it.  No entry is non-finite, so x comes
    # back, finite, and nothing is raised
    big = 1.5e308
    diag, off = np.full(n, big), np.full(n - 1, big)
    assert np.max(np.abs(solver_module.lapack.dgttrf(-off, diag, off)[1])) == math.inf
    for lower, upper in ((off, off), (off, -off), (-off, off)):
        x = thomas_solve(TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=np.ones(n)))
        assert np.isfinite(x).all()


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("alpha", (0.3, 0.7))
@pytest.mark.parametrize(("n_sub", "m_steps"), ((24, 12), (20000, 3)))
def test_solve_layers_match_reference_thomas_bit_for_bit(scheme, alpha, n_sub, m_steps, monkeypatch):
    # guards the LAPACK path against builds that fuse p - l*c into one FMA
    variant = Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    case = manufactured_case(AlphaParam(alpha), variant)
    grid = GridSpec(N=n_sub, M=m_steps)
    got = solve(case.problem, grid, case.alpha, scheme).layers
    monkeypatch.setattr(solver_module, "thomas_solve", _reference_thomas_system)
    want = solve(case.problem, grid, case.alpha, scheme).layers
    assert got.tobytes() == want.tobytes()


def test_tridiagonal_shape_validation():
    with pytest.raises(ValueError):
        TridiagonalSystem(lower=np.zeros(3), diag=np.ones(3), upper=np.zeros(2), rhs=np.ones(3))
    # sizes that match but shapes that are not 1-D: an (n, 1) right-hand
    # side would come back from LAPACK as an (n, 1) solution
    for n in (1, 2, 3, 5):
        column = dict(lower=np.zeros(n - 1), diag=np.ones(n), upper=np.zeros(n - 1), rhs=np.ones(n))
        for field in column:
            bad = dict(column, **{field: column[field].reshape(-1, 1)})
            with pytest.raises(ValueError, match="must be 1-D of sizes"):
                TridiagonalSystem(**bad)


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
    # the bootstrap takes M1 = ceil(M^(1/(2-alpha))) substeps over [0, tau];
    # f is evaluated once per level at its new time, so the calls before
    # 1.5 tau are the substeps (t <= tau) and no main level (t >= 2 tau)
    for m_steps, a, substeps in ((10, 0.5, 5), (40, 0.9, 29), (80, 0.3, 14)):
        assert substeps == math.ceil(m_steps ** (1.0 / (2.0 - a)))
        alpha = AlphaParam(a)
        case = manufactured_case(alpha)
        grid = GridSpec(N=6, M=m_steps)
        times = []

        def f(x, t):
            times.append(t)
            return case.problem.f(x, t)

        solve(dataclasses.replace(case.problem, f=f), grid, alpha)
        assert sum(t < 1.5 * grid.tau for t in times) == substeps, (m_steps, a)
        assert len(times) == substeps + m_steps - 1, (m_steps, a)


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


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("a", (0.3, 0.7, 0.9))
def test_bootstrap_error_falls_at_order_three_minus_alpha(scheme, a):
    # u = sin(pi x)(1 + t^2) has no spatial error on any grid, and L2's
    # quadratic interpolation is exact on 1 + t^2, so what is left is the
    # L1 bootstrap's error.  Both schemes read the orders 2.64, 2.70, 2.76
    # at alpha = 0.3, 2.58, 2.74, 2.91 at 0.7 and 2.58, 2.77, 2.93 at 0.9
    # (errors 2.5e-5 down to 3.3e-10 at 0.3, 2.9e-4 down to 2.9e-9 at 0.9).
    # alpha = 0.9 and M = 640 are where the bootstrap costs most; a first
    # layer from one L1 substep followed by L2 substeps read 1.48, 1.73 and
    # 1.92 there, which this test rejects.
    alpha = AlphaParam(a)
    g = lambda t: 1.0 + t * t
    caputo_g = lambda t: 2.0 * t ** (2.0 - a) / math.gamma(3.0 - a)
    errs = []
    for m_steps in (10, 40, 160, 640):
        grid = GridSpec(N=32, M=m_steps)
        problem, u_exact = sine_case(g, caputo_g, scheme, grid)
        errs.append(measure_errors(solve(problem, grid, alpha, scheme), u_exact).err_L2)
    orders = [convergence_order(e1, e2, 4.0, 1.0) for e1, e2 in zip(errs, errs[1:])]
    assert min(orders) >= 3.0 - a - 0.1, (errs, orders)


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("a", (0.3, 0.5, 0.7))
def test_order_collapses_on_a_solution_like_t_to_the_alpha(scheme, a):
    # The 3 - alpha order assumes a solution smooth in t.  Typical solutions
    # behave like t^alpha near t = 0 (Stynes, O'Riordan and Gracia, SIAM J.
    # Numer. Anal. 55 (2017) 1057); u = sin(pi x) t^alpha is one, with
    # D^alpha t^alpha = Gamma(1 + alpha).  On M = 20..320 both schemes read
    # pairwise err_C orders of at most 0.10, 0.32 and 0.50 at alpha = 0.3,
    # 0.5 and 0.7, with err_C between 7.8e-4 and 3.8e-3 and the sup error at
    # t = 2 tau or 3 tau on every rung.  So on a uniform grid the error falls
    # at an order below alpha, far from 3 - alpha.
    g = lambda t: t**a
    caputo_g = lambda t: math.gamma(1.0 + a)
    errs = []
    for m_steps in (20, 40, 80, 160, 320):
        grid = GridSpec(N=64, M=m_steps)
        problem, u_exact = sine_case(g, caputo_g, scheme, grid)
        errs.append(measure_errors(solve(problem, grid, AlphaParam(a), scheme), u_exact).err_C)
    orders = [convergence_order(e1, e2, 2.0, 1.0) for e1, e2 in zip(errs, errs[1:])]
    assert max(orders) <= a + 0.1, (errs, orders)


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
def test_l2_march_reaches_the_table4_orders_without_spatial_error(a):
    # u = sin(pi x)(t^(3+a) + t^2 + 1), the paper's time dependence, has no
    # spatial error on any grid, so compact4 at N = 16 shows the L2 march's
    # temporal order alone.  Every pairwise order on M = 10..160 read within
    # 0.010 of table 4's (largest at alpha = 0.3, M = 10 -> 20; at most
    # 0.0017 at alpha = 0.5 and 0.7).  The case's k = 1 + t and q = t are not
    # table 4's coefficients, so the orders agree only this far.
    alpha = AlphaParam(a)
    g = lambda t: t ** (3.0 + a) + t * t + 1.0
    caputo_g = lambda t: exact_caputo_power(3.0 + a, alpha, t) + exact_caputo_power(2.0, alpha, t)
    reports = []
    for m_steps in (10, 20, 40, 80, 160):
        grid = GridSpec(N=16, M=m_steps)
        problem, u_exact = sine_case(g, caputo_g, SchemeKind.COMPACT4, grid)
        reports.append(measure_errors(solve(problem, grid, alpha, SchemeKind.COMPACT4), u_exact))
    for rung, (coarse, fine) in enumerate(zip(reports, reports[1:])):
        for field, baseline in zip(("err_L2", "err_C", "err_grad"), BASELINE_TABLE4_CO[a][rung]):
            order = convergence_order(getattr(coarse, field), getattr(fine, field), 2.0, 1.0)
            assert abs(order - baseline) <= 0.05, (a, rung, field, order, baseline)


# ----------------------------------------------------------------- stepping


def _weight_tables(alpha, size):
    """The two weight rules a solve marches with, each with the rule it stands
    for: the L1 weights a_s at every level (as the bootstrap passes them,
    slices of one longer array), and the L2 weights c_s of level j."""
    idx = np.arange(size)
    a, b = a_coeff(idx, alpha), b_coeff(idx, alpha)
    return [
        (lambda j: a[: j + 1], lambda j: a[: j + 1]),
        (_l2_levels(a, b), lambda j: _reference_l2_weights(j, a, b)),
    ]


@pytest.mark.parametrize("j", [0, 1, 2, 3, 50])
def test_history_by_parts_matches_difference_form(j):
    # both weight rules the level loop reads: the L1 weights of the
    # bootstrap, longer than the level needs, and the L2 weights of level j
    rng = np.random.default_rng(100 + j)
    for a in (0.1, 0.5, 0.9):
        for table, rule in _weight_tables(AlphaParam(a), j + 4)[: 2 if j >= 1 else 1]:
            w = rule(j)
            got = table(j)
            kappa = solver_module._by_parts(got, np.empty(j + 1))
            mass = rng.standard_normal((j + 1, 33)) * 10.0 ** rng.uniform(-3.0, 3.0)
            diff_form = w[0] * mass[j] - sum(w[j - s] * (mass[s + 1] - mass[s]) for s in range(j))
            bound = 1e-13 * np.sum(np.abs(w[: j + 1])) * np.max(np.abs(mass))
            assert got[0] == w[0]
            assert np.max(np.abs(kappa @ mass - diff_form)) <= bound


@pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_weight_tables_give_the_rules_kappa_bit_for_bit(a):
    # every level of an M=2000 solve, j = 0 (L1 only), j = 1 and j = 2
    # (kappa_2 reads the bulk c_0, or no bulk entry at all) among them; the
    # kappa is the one _advance forms
    m = 2000
    for first, (table, rule) in enumerate(_weight_tables(AlphaParam(a), m)):
        levels = 0
        for j in range(first, m):
            w = rule(j)
            got = table(j)
            assert got.tobytes() == w.tobytes(), (a, j)
            kappa = solver_module._by_parts(got, np.empty(m))
            assert kappa.tobytes() == np.diff(w[j::-1], prepend=0.0).tobytes(), (a, j)
            levels += j in (0, 1, 2)
        assert levels == 3 - first


def _reference_l2_weights(j, a, b):
    """The original weight rule, split into the cases j = 1, j = 2 and j >= 3."""
    c = np.empty(j + 1)
    if j == 1:
        c[0] = a[0] + b[0] + b[1]
        c[1] = a[1] - b[1] - b[0]
    elif j == 2:
        c[0] = a[0] + b[0]
        c[1] = a[1] + b[1] + b[2] - b[0]
        c[2] = a[2] - b[2] - b[1]
    else:
        c[0] = a[0] + b[0]
        c[1 : j - 1] = a[1 : j - 1] + b[1 : j - 1] - b[0 : j - 2]
        c[j - 1] = a[j - 1] + b[j - 1] + b[j] - b[j - 2]
        c[j] = a[j] - b[j] - b[j - 1]
    return c


def test_l2_weights_match_three_branch_rule_bit_for_bit():
    idx = np.arange(2001)
    for a in (0.1, 0.5, 0.9):
        alpha = AlphaParam(a)
        av, bv = a_coeff(idx, alpha), b_coeff(idx, alpha)
        levels = _l2_levels(av, bv)
        for j in range(1, 2001):
            assert levels(j).tobytes() == _reference_l2_weights(j, av, bv).tobytes(), (a, j)


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_l2_levels_do_not_depend_on_the_coefficient_length(a):
    # c_weights passes exactly j+1 coefficients, the solver all M of them
    idx = np.arange(2000)
    alpha = AlphaParam(a)
    av, bv = a_coeff(idx, alpha), b_coeff(idx, alpha)
    long = _l2_levels(av, bv)
    for j in range(1, 2000):
        assert _l2_levels(av[: j + 1], bv[: j + 1])(j).tobytes() == long(j).tobytes(), (a, j)


def test_l2_table_from_one_coefficient():
    # solve builds the table from a single coefficient when M = 1; the lemma
    # checks' smallest table (j_max = 2) is covered in test_kernel_coeffs
    bulk, ends = _l2_table(np.array([1.0]), np.array([0.25]))
    assert bulk.tolist() == [1.25] and ends.shape == (2, 0)


def _hand_history(c, m, j):
    """c_0 m^j - sum_{s=0}^{j-1} c_{j-s} (m^{s+1} - m^s), written out term by term."""
    return c[0] * m[j] - sum(c[j - s] * (m[s + 1] - m[s]) for s in range(j))


def test_step_order2_scalar_oracle():
    # N=2 has one interior unknown; the implicit equation collapses to a
    # scalar relation solvable by hand.  Levels j = 1, 2, 3 of an M=4 solve
    # cover the j=1, j=2 and j>=3 cases of the weight rule.
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


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_solve_keeps_one_array_of_layers(scheme):
    # the layers are the only array of the history's size, and the L1
    # bootstrap (M1 = 30 substeps here) marches inside them.  Beyond
    # layers.nbytes the traced peak read 18.8 node-sized arrays for order2
    # and 16.7 for compact4; a bootstrap in an array of its own, 31 rows,
    # read 49.7 and 47.6
    alpha = AlphaParam(0.7)
    variant = Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    problem = manufactured_case(alpha, variant).problem
    grid = GridSpec(N=5000, M=80)
    tracemalloc.start()
    try:
        layers = solve(problem, grid, alpha, scheme).layers
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    node_array = (grid.N + 1) * 8
    assert peak - layers.nbytes <= 24 * node_array, f"{(peak - layers.nbytes) / node_array:.1f} node arrays"


def _solve_with_separate_bootstrap(problem, grid, alpha, scheme):
    # the L1 bootstrap in an array of its own, whose last row becomes layer 1
    compact = scheme is SchemeKind.COMPACT4
    layers = np.zeros((grid.M + 1, grid.N + 1))
    layers[0] = solver_module._evaluate(problem, "u0", grid.x_nodes(), 0.0)
    layers[0, [0, -1]] = 0.0
    m1 = max(1, math.ceil((1.0 / grid.tau) ** (1.0 / (2.0 - alpha.alpha))))
    sub = np.zeros((m1 + 1, grid.N + 1))
    sub[0] = layers[0]
    a_l1 = a_coeff(np.arange(m1), alpha)
    solver_module._march(problem, grid, sub, 0, grid.tau / m1, alpha, lambda j: a_l1[: j + 1], compact)
    layers[1] = sub[m1]
    idx = np.arange(grid.M)
    levels = _l2_levels(a_coeff(idx, alpha), b_coeff(idx, alpha))
    solver_module._march(problem, grid, layers, 1, grid.tau, alpha, levels, compact)
    return m1, layers


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("m_steps, horizon, a, m1", [(10, 0.01, 0.5, 100), (3, 1.0, 0.9, 3)])
def test_bootstrap_inside_the_layers_matches_a_separate_bootstrap(scheme, m_steps, horizon, a, m1):
    # a bootstrap longer than the main march (M1 = 100 > M = 10) and one
    # exactly as long (M1 = M = 3) give the same bits as one marched in an
    # array of its own
    alpha = AlphaParam(a)
    variant = Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    problem = manufactured_case(alpha, variant).problem
    grid = GridSpec(N=8, M=m_steps, horizon=horizon)
    substeps, expected = _solve_with_separate_bootstrap(problem, grid, alpha, scheme)
    assert substeps == m1
    layers = solve(problem, grid, alpha, scheme).layers
    assert layers.shape == (m_steps + 1, 9) and layers.flags.c_contiguous
    assert layers.tobytes() == expected.tobytes()


# ------------------------------------------------------- look-ahead, BLAS scope


def _lookahead(monkeypatch, on):
    """Send every march of two levels or more down the look-ahead path, or none."""
    monkeypatch.setattr(solver_module, "_LOOKAHEAD_MIN_N", 1 if on else sys.maxsize)
    monkeypatch.setattr(solver_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(solver_module._one_blas_thread, "found", lambda: True)


def _recorded(problem, log, fail_at=None):
    """A copy of ``problem`` whose k, q and f log (name, t, thread, calls in
    flight) and whose f raises ``fail_at[1]`` from t = ``fail_at[0]`` on."""
    in_flight = [0]

    def wrap(name):
        field = getattr(problem, name)

        def wrapper(x, t):
            in_flight[0] += 1
            try:
                log.append((name, t, threading.current_thread() is threading.main_thread(), in_flight[0]))
                if fail_at is not None and name == "f" and t >= fail_at[0]:
                    raise fail_at[1]
                return field(x, t)
            finally:
                in_flight[0] -= 1

        return wrapper

    return dataclasses.replace(problem, **{n: wrap(n) for n in ("k", "q", "f")})


def _case_problem(scheme, a=0.5):
    variant = Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    case = manufactured_case(AlphaParam(a), variant)
    return case.problem, case.alpha


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("n_sub, m_steps, horizon", [(40, 12, 1.0), (8, 10, 0.01), (30, 2, 1.0)])
def test_lookahead_layers_match_serial_bit_for_bit(scheme, n_sub, m_steps, horizon, monkeypatch):
    # (8, 10, 0.01) bootstraps with M1 = 100 > M; (30, 2) leaves a main
    # march of one level, which stays serial
    problem, alpha = _case_problem(scheme)
    grid = GridSpec(N=n_sub, M=m_steps, horizon=horizon)
    threads = threading.active_count()
    _lookahead(monkeypatch, False)
    serial_log, ahead_log = [], []
    want = solve(_recorded(problem, serial_log), grid, alpha, scheme).layers
    _lookahead(monkeypatch, True)
    got = solve(_recorded(problem, ahead_log), grid, alpha, scheme).layers
    assert threading.active_count() == threads
    assert got.tobytes() == want.tobytes()
    assert [c[:2] for c in ahead_log] == [c[:2] for c in serial_log]
    assert all(on_main for _, _, on_main, _ in serial_log)
    assert not all(on_main for _, _, on_main, _ in ahead_log)


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_lookahead_evaluates_each_field_once_per_level(scheme, monkeypatch):
    # as test_solve_evaluates_each_field_once_per_level, on the helper
    # thread: once per level, in level order, one call at a time
    problem, alpha = _case_problem(scheme)
    _lookahead(monkeypatch, True)
    log = []
    solve(_recorded(problem, log), GridSpec(N=8, M=4), alpha, scheme)
    m1 = 3
    assert {n: sum(c[0] == n for c in log) for n in ("k", "q", "f")} == dict.fromkeys(("k", "q", "f"), m1 + 3)
    assert [c[0] for c in log] == ["f", "k", "q"] * (m1 + 3)
    assert all(not on_main and flight == 1 for _, _, on_main, flight in log)
    boot, main = [c[1] for c in log[: 3 * m1 : 3]], [c[1] for c in log[3 * m1 :: 3]]
    assert boot == sorted(boot) and main == sorted(main) and main[-1] == 1.0


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize("bad", ["raises", "k not positive"])
def test_lookahead_field_error_surfaces_as_in_the_serial_loop(scheme, bad, monkeypatch):
    # the error of level 6's fields comes after the solves of levels 1..5,
    # with the serial loop's message, and no later level is evaluated
    problem, alpha = _case_problem(scheme)
    grid = GridSpec(N=16, M=10)
    t_bad = 0.65  # level j = 6 evaluates at t_7 = 0.7
    if bad == "k not positive":
        k = problem.k
        problem = dataclasses.replace(problem, k=lambda x, t: k(x, t) * (-1.0 if t > t_bad else 1.0))
    outcomes = []
    for on in (False, True):
        _lookahead(monkeypatch, on)
        solved, log = [], []
        monkeypatch.setattr(solver_module, "thomas_solve", lambda sys_: solved.append(1) or thomas_solve(sys_))
        fail_at = (t_bad, RuntimeError("f failed here")) if bad == "raises" else None
        threads = threading.active_count()
        with pytest.raises((RuntimeError, ValueError)) as err:
            solve(_recorded(problem, log, fail_at), grid, alpha, scheme)
        assert threading.active_count() == threads
        outcomes.append((type(err.value), str(err.value), len(solved), max(c[1] for c in log)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] == 5 + 5  # M1 = ceil(10^(1/1.5)) bootstrap solves, then levels 1..5
    assert outcomes[0][3] == pytest.approx(0.7)


@pytest.mark.parametrize("scheme", list(SchemeKind))
@pytest.mark.parametrize(
    "error", [ZeroDivisionError("zero pivot in tridiagonal elimination (row 3)"), KeyboardInterrupt()], ids=repr
)
def test_lookahead_system_failure_raises_that_levels_error(scheme, error, monkeypatch):
    # the solve of the 9th system fails; the pending evaluation of the next
    # level is discarded, none past it is made, and the helper is joined
    problem, alpha = _case_problem(scheme)
    grid = GridSpec(N=16, M=10)
    _lookahead(monkeypatch, True)
    solved, log = [], []

    def failing(sys_):
        if len(solved) == 8:
            raise error
        solved.append(1)
        return thomas_solve(sys_)

    monkeypatch.setattr(solver_module, "thomas_solve", failing)
    threads = threading.active_count()
    with pytest.raises(type(error)) as raised:
        solve(_recorded(problem, log), grid, alpha, scheme)
    assert raised.value is error
    assert threading.active_count() == threads
    assert len(solved) == 8 and len(log) <= 3 * 10


def test_lookahead_helper_interrupt_reaches_the_caller(monkeypatch):
    problem, alpha = _case_problem(SchemeKind.ORDER2)
    _lookahead(monkeypatch, True)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        solve(_recorded(problem, [], (0.5, KeyboardInterrupt())), GridSpec(N=16, M=10), alpha, SchemeKind.ORDER2)
    assert threading.active_count() == threads


def test_lookahead_under_fast_thread_switching_with_a_shared_case(monkeypatch):
    # more solving threads than cores, each with its own helper, one shared
    # manufactured case (and its memo); every result is the serial one
    problem, alpha = _case_problem(SchemeKind.ORDER2, 0.3)
    grids = [GridSpec(N=60 + 7 * i, M=6) for i in range(4)]
    _lookahead(monkeypatch, False)
    want = [solve(problem, g, alpha).layers.tobytes() for g in grids]
    _lookahead(monkeypatch, True)
    threads = threading.active_count()
    start = threading.Barrier(len(grids), timeout=30)
    got = {}

    def work(i):
        start.wait()
        for _ in range(5):
            got.setdefault(i, set()).add(solve(problem, grids[i], alpha).layers.tobytes())

    workers = [threading.Thread(target=work, args=(i,)) for i in range(len(grids))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in workers:
            th.start()
        for th in workers:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in workers)
    assert threading.active_count() == threads
    assert got == {i: {w} for i, w in enumerate(want)}


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_lookahead_keeps_one_array_of_layers(scheme, monkeypatch):
    # the bound of test_solve_keeps_one_array_of_layers, with the next
    # level's fields evaluated on the helper while a level solves
    problem, alpha = _case_problem(scheme, 0.7)
    grid = GridSpec(N=5000, M=80)
    _lookahead(monkeypatch, True)
    tracemalloc.start()
    try:
        layers = solve(problem, grid, alpha, scheme).layers
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    node_array = (grid.N + 1) * 8
    assert peak - layers.nbytes <= 24 * node_array, f"{(peak - layers.nbytes) / node_array:.1f} node arrays"


def test_lookahead_fields_run_on_the_named_helper(monkeypatch):
    # a per-thread tracer tells the helper's spans apart by this name
    problem, alpha = _case_problem(SchemeKind.ORDER2)
    _lookahead(monkeypatch, True)
    names = set()
    f = problem.f
    problem = dataclasses.replace(problem, f=lambda x, t: names.add(threading.current_thread().name) or f(x, t))
    solve(problem, GridSpec(N=8, M=4), alpha)
    assert names == {"fracheat-lookahead"}


def _blas_calls():
    calls = solver_module._one_blas_thread._lookup()
    if not calls:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count setter")
    return calls


@pytest.mark.parametrize("fails", [False, True])
def test_solve_restores_the_blas_thread_count(fails):
    # one thread inside the solve, the count found before it after it
    get, put = _blas_calls()
    problem, alpha = _case_problem(SchemeKind.ORDER2)
    inside = []
    f = problem.f

    def field(x, t):
        inside.append(get())
        if fails and t > 0.5:
            raise RuntimeError("stop")
        return f(x, t)

    before = get()
    put(2)
    try:
        if fails:
            with pytest.raises(RuntimeError, match="stop"):
                solve(dataclasses.replace(problem, f=field), GridSpec(N=16, M=4), alpha)
        else:
            solve(dataclasses.replace(problem, f=field), GridSpec(N=16, M=4), alpha)
        assert get() == 2
    finally:
        put(before)
    assert set(inside) == {1}


def test_measure_errors_restores_the_blas_thread_count():
    get, put = _blas_calls()
    case = manufactured_case(AlphaParam(0.5), Coefficients.VARIABLE_XT)
    history = solve(case.problem, GridSpec(N=16, M=4), case.alpha)
    inside = []

    def u_exact(x, t):
        inside.append(get())
        return case.u_exact(x, t)

    before = get()
    put(2)
    try:
        measure_errors(history, u_exact)
        assert get() == 2
    finally:
        put(before)
    assert set(inside) == {1}


def test_without_a_blas_setter_the_march_stays_serial(monkeypatch):
    problem, alpha = _case_problem(SchemeKind.ORDER2)
    grid = GridSpec(N=40, M=12)
    want = solve(problem, grid, alpha).layers
    monkeypatch.setattr(solver_module, "_LOOKAHEAD_MIN_N", 1)
    monkeypatch.setattr(solver_module, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(solver_module._one_blas_thread, "_calls", ())
    log = []
    got = solve(_recorded(problem, log), grid, alpha).layers
    assert got.tobytes() == want.tobytes()
    assert log and all(on_main for _, _, on_main, _ in log)


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
    # horizon: rho (y1 - y0) = Lambda(T) y1 + f(T) with rho = 1/Gamma(2-a),
    # Lambda in flux form: (k_{i+1/2}(y_{i+1} - y_i) - k_{i-1/2}(y_i - y_{i-1}))/h^2 - q_i y_i
    grid = GridSpec(N=12, M=1)
    hist = solve(case.problem, grid, alpha)
    assert hist.layers.shape == (2, 13)
    y0, y1 = hist.layers
    rho = 1.0 / alpha.gamma_2ma
    x = grid.x_nodes()
    flux = case.problem.k(grid.x_half_nodes(), 1.0) * np.diff(y1) / grid.h  # at x_{i-1/2}, i = 1..N
    lambda_y1 = np.diff(flux) / grid.h - case.problem.q(x, 1.0)[1:-1] * y1[1:-1]
    residual = rho * (y1 - y0)[1:-1] - lambda_y1 - case.problem.f(x, 1.0)[1:-1]
    assert np.max(np.abs(residual)) < 1e-13 * np.max(np.abs(y1)) / grid.h**2


def test_solve_layer0_and_boundaries():
    alpha = AlphaParam(0.3)
    case = manufactured_case(alpha)
    grid = GridSpec(N=18, M=10)
    hist = solve(case.problem, grid, alpha)
    assert np.allclose(hist.layers[0], case.problem.u0(grid.x_nodes()), atol=1e-15)
    assert np.all(hist.layers[:, 0] == 0.0)
    assert np.all(hist.layers[:, -1] == 0.0)


def test_solve_superposition():
    # solve is linear in (u0, f), for both schemes, up to rounding: the
    # measured gap is at most 2.4 eps max|y| on this grid
    eps = np.finfo(float).eps
    grid = GridSpec(N=16, M=8)
    for scheme, variant in ((SchemeKind.ORDER2, Coefficients.VARIABLE_XT),
                            (SchemeKind.COMPACT4, Coefficients.TIME_ONLY)):
        for a in (0.2, 0.5, 0.8):
            alpha = AlphaParam(a)
            base = manufactured_case(alpha, variant).problem
            rng = np.random.default_rng(15)
            for trial in range(5):
                m1, m2 = rng.integers(1, 4, 2)
                f2 = lambda x, t: np.cos(m1 * np.asarray(x, dtype=float)) * (t + 0.5)
                u02 = lambda x: np.sin(m2 * np.pi * np.asarray(x, dtype=float))
                p2 = dataclasses.replace(base, f=f2, u0=u02)
                psum = dataclasses.replace(base, f=lambda x, t: base.f(x, t) + f2(x, t),
                                           u0=lambda x: base.u0(x) + u02(x))
                y_sum, y_1, y_2 = (solve(p, grid, alpha, scheme).layers for p in (psum, base, p2))
                assert np.max(np.abs(y_sum - y_1 - y_2)) <= 8.0 * eps * np.max(np.abs(y_sum)), (scheme, a)


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
    lhs = apply_compact_H(rho * (y1 - y0) + q * y1 - case.problem.f(x, 1.0))[1:-1]
    rhs = k * (y1[2:] - 2.0 * y1[1:-1] + y1[:-2]) / grid.h**2
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(y1)) / grid.h**2
