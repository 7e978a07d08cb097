"""Grid norms, error measurement and convergence-order experiments.

An experiment is a ladder of (time steps, spatial subintervals) rungs; each
rung is solved against a manufactured solution and the pairwise convergence
order between consecutive rungs is reported in three norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import AlphaParam
from .problem import Coefficients, GridSpec, manufactured_case
from .solver import SchemeKind, SolutionHistory, _one_blas_thread, solve

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
    "solve_manufactured",
    "tables_to_csv",
    "tables_to_markdown",
]


def norm_L2(z: np.ndarray, h: float) -> np.ndarray:
    """Interior grid L2 norm, sqrt(sum_{i=1}^{N-1} z_i^2 h), of a full-grid vector,
    or of each one stacked along the last axis."""
    z = np.asarray(z, dtype=float)
    return np.sqrt(h * _row_sums_of_squares(z[..., 1:-1]))


def norm_grad(z: np.ndarray, h: float) -> np.ndarray:
    """Backward-difference gradient norm, sqrt(sum_{i=1}^{N} ((z_i - z_{i-1})/h)^2 h),
    of a full-grid vector, or of each one stacked along the last axis."""
    d = np.diff(np.asarray(z, dtype=float))
    d /= h
    return np.sqrt(h * _row_sums_of_squares(d))


def _row_sums_of_squares(v: np.ndarray) -> np.ndarray:
    """sum_i v[..., i]^2 for each vector along the last axis, as stacked dot products.

    numpy's matmul forms each one by the same BLAS dot that ``np.dot`` calls
    on a single row, so every sum has the bits ``np.dot(v[r], v[r])`` has.
    """
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class ErrorReport:
    """Worst-over-time errors of a solved history against an exact solution."""

    err_L2: float
    err_C: float
    err_grad: float


_BLOCK_DOUBLES = 8192  # the most doubles the error buffer holds, unless one layer is longer


def measure_errors(history: SolutionHistory, u_exact) -> ErrorReport:
    """Max over all layers (bootstrap included) of the three error norms.

    The norms are those of ``norm_L2`` and ``norm_grad`` and the max norm,
    of z = layer - u_exact(x, t) at each layer, bit for bit; a NaN in any z
    makes the norm it enters NaN.  ``u_exact`` is called once per layer, in
    time order.  The z of consecutive layers fill the rows of one buffer of
    at most ``_BLOCK_DOUBLES`` doubles (one row if a layer is longer), and
    each full buffer is reduced at once, by ``norm_L2`` and ``norm_grad`` of
    its rows and the largest |z|.
    """
    grid = history.grid
    x = grid.x_nodes()
    h = grid.h
    times = grid.t_nodes()
    buf = np.empty((max(1, _BLOCK_DOUBLES // x.size), x.size))
    worst = np.zeros(3)  # the largest L2 norm, gradient norm and |z| so far
    with _one_blas_thread:
        for start in range(0, times.size, buf.shape[0]):
            z = buf[: times.size - start]
            for r, t in enumerate(times[start : start + z.shape[0]]):
                np.subtract(history.layers[start + r], np.asarray(u_exact(x, t), dtype=float), out=z[r])
            # |z| is taken in place, so after both norms
            np.maximum(worst, (norm_L2(z, h).max(), norm_grad(z, h).max(), np.abs(z, out=z).max()), out=worst)
    return ErrorReport(err_L2=float(worst[0]), err_C=float(worst[2]), err_grad=float(worst[1]))


def convergence_order(e1: float, e2: float, s1: float, s2: float) -> float:
    """Pairwise order log(e1/e2) / log(s1/s2) between a coarse and a fine rung."""
    if not all(math.isfinite(e) and e > 0.0 for e in (e1, e2)):
        raise ValueError(f"errors must be finite and positive to define an order, got {e1}, {e2}")
    if not (math.isfinite(s1) and s1 > s2 > 0.0):
        raise ValueError(f"scales must be finite with s1 > s2 > 0, got {s1}, {s2}")
    return math.log(e1 / e2) / math.log(s1 / s2)


@dataclass(frozen=True)
class ExperimentSpec:
    """A refinement ladder for one fractional order and one scheme; each rung
    must make a ``GridSpec``, which raises ``ValueError`` naming N or M."""

    alpha: float
    scheme: SchemeKind
    rungs: tuple[tuple[int, int], ...]  # (M, N) per rung, coarse to fine on [0,1]x[0,1]

    def __post_init__(self) -> None:
        for m_steps, n_sub in self.rungs:
            GridSpec(N=n_sub, M=m_steps)


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


def solve_manufactured(alpha: float, scheme: SchemeKind, m_steps: int, n_sub: int) -> ErrorReport:
    """Solve the built-in manufactured case on [0,1]x[0,1] and measure its errors.

    compact4 runs the time-only coefficient pair it requires, order2 the
    x- and t-dependent one.
    """
    scheme = SchemeKind(scheme)
    variant = Coefficients.TIME_ONLY if scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    case = manufactured_case(AlphaParam(alpha), variant)
    history = solve(case.problem, GridSpec(N=n_sub, M=m_steps), case.alpha, scheme)
    return measure_errors(history, case.u_exact)


def run_experiment(spec: ExperimentSpec) -> ConvergenceTable:
    """Solve every rung and assemble the error/convergence-order table.

    Orders are measured against the time-step ratio of consecutive rungs
    (the spatial grid is slaved to tau on coupled ladders, fixed on the
    temporal-only ones).
    """
    rows: list[TableRow] = []
    for r, (m_steps, n_sub) in enumerate(spec.rungs):
        report = solve_manufactured(spec.alpha, spec.scheme, m_steps, n_sub)
        tau = 1.0 / m_steps
        h = 1.0 / n_sub
        cos: dict[str, float | None] = {"co_L2": None, "co_C": None, "co_grad": None}
        if r > 0:
            prev = rows[r - 1]
            for name, e_prev, e_cur in (
                ("co_L2", prev.err_L2, report.err_L2),
                ("co_C", prev.err_C, report.err_C),
                ("co_grad", prev.err_grad, report.err_grad),
            ):
                if e_prev > 0.0 and e_cur > 0.0:
                    cos[name] = convergence_order(e_prev, e_cur, prev.tau, tau)
        rows.append(TableRow(tau=tau, h=h, err_L2=report.err_L2, err_C=report.err_C,
                             err_grad=report.err_grad, **cos))
    return ConvergenceTable(alpha=spec.alpha, rows=tuple(rows))


def sci6(x: float) -> str:
    """Scientific notation with 6 decimal digits and a bare exponent, e.g. 4.556026e-3;
    nan, inf and -inf as such."""
    mant, e, exp = f"{x:.6e}".partition("e")
    return f"{mant}e{int(exp)}" if e else mant


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
