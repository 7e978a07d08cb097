"""Grid norms, error measurement and convergence-order experiments.

An experiment is a ladder of (time steps, spatial subintervals) rungs; each
rung is solved against a manufactured solution and the pairwise convergence
order between consecutive rungs is reported in three norms.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .kernel import AlphaParam
from .problem import Coefficients, GridSpec, manufactured_case
from .solver import SchemeKind, SolutionHistory, solve

__all__ = [
    "ConvergenceTable",
    "ErrorReport",
    "ExperimentSpec",
    "TableRow",
    "convergence_order",
    "measure_errors",
    "norm_L2",
    "norm_grad",
    "run_experiment",
    "sci6",
    "tables_to_csv",
    "tables_to_markdown",
]


def norm_L2(z: np.ndarray, h: float) -> float:
    """Interior grid L2 norm, sqrt(sum_{i=1}^{N-1} z_i^2 h), for full-grid vectors."""
    z = np.asarray(z, dtype=float)
    return math.sqrt(h * float(np.dot(z[1:-1], z[1:-1])))


def norm_grad(z: np.ndarray, h: float) -> float:
    """Backward-difference gradient norm, sqrt(sum_{i=1}^{N} ((z_i - z_{i-1})/h)^2 h)."""
    z = np.asarray(z, dtype=float)
    d = np.diff(z) / h
    return math.sqrt(h * float(np.dot(d, d)))


@dataclass(frozen=True)
class ErrorReport:
    """Worst-over-time errors of a solved history against an exact solution."""

    err_L2: float
    err_C: float
    err_grad: float
    grid: GridSpec
    alpha: float


def measure_errors(history: SolutionHistory, u_exact) -> ErrorReport:
    """Max over all layers (bootstrap included) of the three error norms."""
    grid = history.grid
    x = grid.x_nodes()
    h = grid.h
    err_l2 = err_c = err_grad = 0.0
    for jj, t in enumerate(grid.t_nodes()):
        z = history.layers[jj] - np.asarray(u_exact(x, t), dtype=float)
        err_c = max(err_c, float(np.max(np.abs(z))))
        err_l2 = max(err_l2, norm_L2(z, h))
        err_grad = max(err_grad, norm_grad(z, h))
    return ErrorReport(err_L2=err_l2, err_C=err_c, err_grad=err_grad, grid=grid,
                       alpha=history.alpha.alpha)


def convergence_order(e1: float, e2: float, s1: float, s2: float) -> float:
    """Pairwise order log(e1/e2) / log(s1/s2) between a coarse and a fine rung."""
    if e1 <= 0.0 or e2 <= 0.0:
        raise ValueError("errors must be positive to define an order")
    if not s1 > s2 > 0.0:
        raise ValueError("scales must satisfy s1 > s2 > 0")
    return math.log(e1 / e2) / math.log(s1 / s2)


@dataclass(frozen=True)
class ExperimentSpec:
    """A refinement ladder for one fractional order and one scheme."""

    alpha: float
    scheme: SchemeKind
    variant: Coefficients
    rungs: tuple[tuple[int, int], ...]  # (M, N) per rung, coarse to fine on [0,1]x[0,1]


@dataclass(frozen=True)
class TableRow:
    tau: float
    h: float
    err_L2: float
    err_C: float
    err_grad: float
    co_L2: float | None = None
    co_C: float | None = None
    co_grad: float | None = None


@dataclass(frozen=True)
class ConvergenceTable:
    alpha: float
    rows: tuple[TableRow, ...] = field(default_factory=tuple)


def _run_rung(args: tuple[float, str, str, int, int]) -> tuple[float, float, float]:
    """One ladder rung; module-level so a process pool can pickle it."""
    alpha_value, scheme, variant, m_steps, n_sub = args
    alpha = AlphaParam(alpha_value)
    case = manufactured_case(alpha, Coefficients(variant))
    grid = GridSpec(N=n_sub, M=m_steps)
    history = solve(case.problem, grid, alpha, SchemeKind(scheme))
    report = measure_errors(history, case.u_exact)
    return report.err_L2, report.err_C, report.err_grad


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ConvergenceTable:
    """Solve every rung and assemble the error/convergence-order table.

    Orders are measured against the time-step ratio of consecutive rungs
    (the spatial grid is slaved to tau on coupled ladders, fixed on the
    temporal-only ones).  Rungs are independent solves, so they can fan out
    to a worker pool; assembly is ordered by rung either way.
    """
    args = [(spec.alpha, spec.scheme.value, spec.variant.value, m_steps, n_sub)
            for m_steps, n_sub in spec.rungs]
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            errors = list(pool.map(_run_rung, args))
    else:
        errors = [_run_rung(a) for a in args]

    rows: list[TableRow] = []
    for r, ((m_steps, n_sub), (e_l2, e_c, e_g)) in enumerate(zip(spec.rungs, errors)):
        tau = 1.0 / m_steps
        h = 1.0 / n_sub
        cos: dict[str, float | None] = {"co_L2": None, "co_C": None, "co_grad": None}
        if r > 0:
            prev = rows[r - 1]
            for name, e_prev, e_cur in (
                ("co_L2", prev.err_L2, e_l2),
                ("co_C", prev.err_C, e_c),
                ("co_grad", prev.err_grad, e_g),
            ):
                if e_prev > 0.0 and e_cur > 0.0:
                    cos[name] = convergence_order(e_prev, e_cur, prev.tau, tau)
        rows.append(TableRow(tau=tau, h=h, err_L2=e_l2, err_C=e_c, err_grad=e_g, **cos))
    return ConvergenceTable(alpha=spec.alpha, rows=tuple(rows))


def sci6(x: float) -> str:
    """Scientific notation with 6 decimal digits and a bare exponent, e.g. 4.556026e-3."""
    mant, exp = f"{x:.6e}".split("e")
    return f"{mant}e{int(exp)}"


_COLUMNS = ("alpha", "tau", "h", "err_L2", "co_L2", "err_C", "co_C", "err_grad", "co_grad")


def _row_cells(alpha: float, row: TableRow) -> list[str]:
    def co(v: float | None) -> str:
        return "" if v is None else f"{v:.4f}"

    return [
        repr(alpha),
        repr(row.tau),
        repr(row.h),
        sci6(row.err_L2),
        co(row.co_L2),
        sci6(row.err_C),
        co(row.co_C),
        sci6(row.err_grad),
        co(row.co_grad),
    ]


def tables_to_csv(tables: list[ConvergenceTable]) -> str:
    lines = [",".join(_COLUMNS)]
    for table in tables:
        for row in table.rows:
            lines.append(",".join(_row_cells(table.alpha, row)))
    return "\n".join(lines) + "\n"


def tables_to_markdown(tables: list[ConvergenceTable]) -> str:
    body = [[str(c) for c in _COLUMNS]]
    for table in tables:
        for row in table.rows:
            body.append(_row_cells(table.alpha, row))
    widths = [max(len(r[i]) for r in body) for i in range(len(_COLUMNS))]
    lines = []
    for n, r in enumerate(body):
        lines.append("| " + " | ".join(c.rjust(w) for c, w in zip(r, widths)) + " |")
        if n == 0:
            lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"
