"""Norms, convergence orders, ladder geometry, table emission."""

import math

import numpy as np
import pytest

from fracheat import (
    AlphaParam,
    Coefficients,
    GridSpec,
    SchemeKind,
    convergence_order,
    manufactured_case,
    measure_errors,
    norm_L2,
    norm_grad,
    run_experiment,
    solve,
)
from fracheat.analysis import (
    ErrorReport,
    _row_sums_of_squares,
    sci6,
    solve_manufactured,
    tables_to_csv,
    tables_to_markdown,
)
from fracheat.solver import SolutionHistory
from fracheat.baselines import (
    BASELINE_TABLE1,
    BASELINE_TABLE3,
    experiment_spec,
)


def test_norm_L2_values():
    assert norm_L2(np.zeros(5), 0.25) == 0.0
    assert norm_L2(np.array([0.0, 3.0, 0.0]), 0.5) == pytest.approx(math.sqrt(4.5), rel=1e-15)
    x = np.linspace(0.0, 1.0, 2001)
    assert norm_L2(np.sin(np.pi * x), 1.0 / 2000) == pytest.approx(math.sqrt(0.5), abs=1e-5)


def test_norm_grad_values():
    assert norm_grad(np.full(6, 1.23), 0.2) == 0.0
    for n_sub in (4, 17, 33):
        x = np.linspace(0.0, 1.0, n_sub + 1)
        assert norm_grad(x, 1.0 / n_sub) == pytest.approx(1.0, rel=1e-13)
    x = np.linspace(0.0, 1.0, 4001)
    assert norm_grad(np.sin(np.pi * x), 1.0 / 4000) == pytest.approx(math.pi / math.sqrt(2.0), abs=1e-4)


def test_convergence_order_values():
    assert convergence_order(4e-3, 1e-3, 2.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert convergence_order(5e-4, 5e-4, 0.2, 0.1) == 0.0


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order(-1e-3, 1e-4, 2.0, 1.0)
    with pytest.raises(ValueError):
        convergence_order(1e-3, 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        convergence_order(1e-3, 1e-4, 1.0, 2.0)
    # a NaN or an infinity used to pass through: (nan, 1e-3) read nan, (inf, 1) read inf
    for args in (
        (math.nan, 1e-3, 2.0, 1.0),
        (1e-3, math.nan, 2.0, 1.0),
        (math.inf, 1.0, 2.0, 1.0),
        (1.0, math.inf, 2.0, 1.0),
        (4e-3, 1e-3, math.inf, 1.0),
        (4e-3, 1e-3, math.nan, 1.0),
        (4e-3, 1e-3, 2.0, math.nan),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            convergence_order(*args)


def test_baseline_co_columns_are_log2_error_ratios():
    # pure arithmetic on the stored cells: each CO cell equals the log2 of
    # the consecutive error ratio (the ladders halve tau) to +-0.001
    for baseline in (BASELINE_TABLE1, BASELINE_TABLE3):
        for alpha, rows in baseline.items():
            for prev, cur in zip(rows, rows[1:]):
                for e_idx, co_idx in ((0, 1), (2, 3), (4, 5)):
                    if (alpha, e_idx) == (0.1, 4) and prev is rows[0] and baseline is BASELINE_TABLE1:
                        continue  # known inconsistent gradient cell, first row
                    got = convergence_order(prev[e_idx], cur[e_idx], 2.0, 1.0)
                    assert got == pytest.approx(cur[co_idx], abs=1e-3), (alpha, cur)


def test_ladder_pairs_match_published_geometry():
    spec = experiment_spec(1, 0.5)
    assert spec.rungs == ((10, 18), (20, 43), (40, 101), (80, 240), (160, 570))
    assert spec.scheme is SchemeKind.ORDER2
    spec = experiment_spec(3, 0.9)
    assert spec.rungs == ((40, 13), (80, 19), (160, 29), (320, 41), (640, 59))
    assert spec.scheme is SchemeKind.COMPACT4
    spec = experiment_spec(2, 0.3)
    assert spec.rungs == ((10, 5000), (20, 5000), (40, 5000), (80, 5000))
    assert spec.scheme is SchemeKind.ORDER2
    spec = experiment_spec(4, 0.7)
    assert spec.rungs == ((10, 1000), (20, 1000), (40, 1000), (80, 1000), (160, 1000))
    assert spec.scheme is SchemeKind.COMPACT4


@pytest.mark.parametrize(
    "scheme, variant",
    [(SchemeKind.ORDER2, Coefficients.VARIABLE_XT), (SchemeKind.COMPACT4, Coefficients.TIME_ONLY)],
)
def test_solve_manufactured_picks_the_coefficient_pair_of_its_scheme(scheme, variant):
    # order2 and the time-only pair give other errors than the x-dependent
    # pair, and compact4 rejects the x-dependent pair, so only the right
    # pair reproduces the direct solve bit for bit
    alpha = AlphaParam(0.5)
    case = manufactured_case(alpha, variant)
    want = measure_errors(solve(case.problem, GridSpec(N=9, M=6), alpha, scheme), case.u_exact)
    assert solve_manufactured(0.5, scheme, 6, 9) == want


def test_ladder_fallback_rule_for_untabled_alpha():
    # floor of the coupling solution, tau^(3-a) = h^2
    spec = experiment_spec(1, 0.4, depth=2)
    assert spec.rungs[0] == (10, math.floor(10 ** (2.6 / 2.0)))
    spec = experiment_spec(3, 0.4, depth=1)
    assert spec.rungs[0] == (40, math.floor(2.0 * 40 ** (2.6 / 4.0)))


def test_run_experiment_first_row_has_empty_orders():
    spec = experiment_spec(1, 0.5, depth=1)
    table = run_experiment(spec)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.co_L2 is None and row.co_C is None and row.co_grad is None
    assert row.err_L2 > 0.0


def test_run_experiment_second_row_order():
    table = run_experiment(experiment_spec(1, 0.5, depth=2))
    assert table.rows[1].co_L2 == pytest.approx(2.5, abs=0.1)


def test_error_report_norm_comparison():
    # err_L2 <= sqrt(l) * err_C on any run
    alpha = AlphaParam(0.5)
    case = manufactured_case(alpha)
    hist = solve(case.problem, GridSpec(N=18, M=10), alpha)
    report = measure_errors(hist, case.u_exact)
    assert report.err_L2 <= math.sqrt(1.0) * report.err_C + 1e-15
    assert report.err_C >= 0.0


def _measure_errors_by_layers(history, u_exact):
    # the error measurement one layer at a time, through norm_L2 and norm_grad
    grid = history.grid
    x = grid.x_nodes()
    h = grid.h
    err_l2 = err_c = err_grad = 0.0
    for jj, t in enumerate(grid.t_nodes()):
        z = history.layers[jj] - np.asarray(u_exact(x, t), dtype=float)
        err_c = max(err_c, float(np.max(np.abs(z))))
        err_l2 = max(err_l2, norm_L2(z, h))
        err_grad = max(err_grad, norm_grad(z, h))
    return ErrorReport(err_L2=err_l2, err_C=err_c, err_grad=err_grad)


class _RecordingExact:
    """u_exact of a case, recording the t of each call."""

    def __init__(self, u_exact):
        self.u_exact = u_exact
        self.times = []

    def __call__(self, x, t):
        self.times.append(t)
        return self.u_exact(x, t)


# (N, M): N = 2; 401 layers in blocks of 8192 // 21 = 390 rows, the last one
# short; blocks of two 4096-node rows, the last one short; one-row blocks
_BLOCK_GRIDS = [(2, 7), (20, 400), (4095, 6), (9000, 4)]


@pytest.mark.parametrize("n_sub, m_steps", _BLOCK_GRIDS)
@pytest.mark.parametrize("scheme", [SchemeKind.ORDER2, SchemeKind.COMPACT4])
def test_measure_errors_matches_the_layer_loop(scheme, n_sub, m_steps):
    alpha = AlphaParam(0.4)
    variant = Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    case = manufactured_case(alpha, variant)
    grid = GridSpec(N=n_sub, M=m_steps)
    history = solve(case.problem, grid, alpha, scheme)
    exact = _RecordingExact(case.u_exact)
    assert measure_errors(history, exact) == _measure_errors_by_layers(history, case.u_exact)
    assert len(exact.times) == m_steps + 1
    assert np.array(exact.times).tobytes() == grid.t_nodes().tobytes()


@pytest.mark.parametrize("n_sub, m_steps", _BLOCK_GRIDS)
def test_measure_errors_matches_the_layer_loop_on_random_layers(n_sub, m_steps):
    # the largest error of each norm falls in a different layer each time
    grid = GridSpec(N=n_sub, M=m_steps)
    rng = np.random.default_rng(n_sub)
    case = manufactured_case(AlphaParam(0.6))
    for _ in range(5):
        layers = rng.standard_normal((m_steps + 1, n_sub + 1)) * rng.uniform(0.0, 2.0, (m_steps + 1, 1))
        history = SolutionHistory(layers=layers, grid=grid)
        assert measure_errors(history, case.u_exact) == _measure_errors_by_layers(history, case.u_exact)


def test_measure_errors_reports_a_nan_layer():
    # a NaN in one layer makes every norm it enters NaN, whichever block it is in
    grid = GridSpec(N=20, M=400)
    case = manufactured_case(AlphaParam(0.5))
    exact = np.array([case.u_exact(grid.x_nodes(), t) for t in grid.t_nodes()])
    for layer in (0, 389, 390, 400):
        layers = exact.copy()
        layers[layer, 7] = np.nan
        report = measure_errors(SolutionHistory(layers=layers, grid=grid), case.u_exact)
        assert math.isnan(report.err_L2) and math.isnan(report.err_C) and math.isnan(report.err_grad)


@pytest.mark.parametrize("n", [1, 2, 11, 13, 1000, 8191, 50001])
def test_stacked_dots_are_the_row_dots(n):
    # measure_errors' sums of squares must be np.dot's, bit for bit, on rows
    # strided as a block's interior and as its differences
    rng = np.random.default_rng(n)
    block = rng.standard_normal((3, n + 2))
    for rows in (block[:, 1:-1], np.diff(block, axis=1) / 0.37):
        want = np.array([np.dot(r, r) for r in rows])
        assert _row_sums_of_squares(rows).ravel().tobytes() == want.tobytes()


def test_sci6_format():
    assert sci6(4.556026e-3) == "4.556026e-3"
    assert sci6(1.178052e-5) == "1.178052e-5"
    assert sci6(4.395804e-10) == "4.395804e-10"
    assert sci6(1.5) == "1.500000e0"


def test_sci6_gives_non_finite_values_as_such():
    assert [sci6(v) for v in (math.nan, math.inf, -math.inf, np.float64(math.nan))] == ["nan", "inf", "-inf", "nan"]
    # measure_errors passes a NaN of u_exact through to the report
    alpha = AlphaParam(0.5)
    case = manufactured_case(alpha)
    report = measure_errors(solve(case.problem, GridSpec(N=8, M=4), alpha), lambda x, t: np.full_like(x, math.nan))
    assert sci6(report.err_L2) == "nan"


def test_csv_emission_and_roundtrip():
    spec = experiment_spec(1, 0.5, depth=2)
    table = run_experiment(spec)
    text = tables_to_csv([table])
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,tau,h,err_L2,co_L2,err_C,co_C,err_grad,co_grad"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[4] == "" and first[6] == "" and first[8] == ""
    # numeric cells re-parse to exactly the printed values
    second = lines[2].split(",")
    assert float(second[0]) == 0.5
    assert float(second[1]) == table.rows[1].tau
    assert float(second[2]) == table.rows[1].h
    assert float(second[3]) == float(sci6(table.rows[1].err_L2))
    assert float(second[4]) == pytest.approx(table.rows[1].co_L2, abs=5e-5)


def test_markdown_emission_is_aligned():
    spec = experiment_spec(1, 0.5, depth=2)
    table = run_experiment(spec)
    text = tables_to_markdown([table])
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header, rule, two rows
    widths = {len(line) for line in lines}
    assert len(widths) == 1, "all rendered rows share one width"


def test_ladder_extends_past_tabulated_depth():
    spec = experiment_spec(1, 0.5, depth=6)
    assert spec.rungs[:5] == ((10, 18), (20, 43), (40, 101), (80, 240), (160, 570))
    m_steps, n_sub = spec.rungs[5]
    assert m_steps == 320
    assert n_sub == math.floor(320 ** 1.25)
    spec = experiment_spec(2, 0.5, depth=5)
    assert spec.rungs[4] == (160, 5000)


@pytest.mark.parametrize("table", (1, 2, 3, 4))
@pytest.mark.parametrize("depth", (0, -1))
def test_ladder_rejects_depth_below_one(table, depth):
    # a ladder needs at least one rung; 0 used to fall back to 5 rungs on
    # tables 1 and 3 and give an empty ladder on tables 2 and 4
    with pytest.raises(ValueError, match="depth must be >= 1"):
        experiment_spec(table, 0.5, depth=depth)
