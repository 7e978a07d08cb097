"""Finite-difference solvers for the 1-D time-fractional diffusion equation.

Builds the quadratic-interpolation (L2) discretization of the Caputo
derivative of order alpha in (0, 1), uses it in two implicit schemes
(second order and compact fourth order in space, order 3-alpha in time),
and ships the verification harness that checks the discrete coefficient
and energy inequalities and reruns the convergence experiments.
"""

from .analysis import (
    ConvergenceTable,
    ErrorReport,
    ExperimentSpec,
    convergence_order,
    measure_errors,
    norm_L2,
    norm_grad,
    run_experiment,
)
from .kernel import (
    AlphaParam,
    TimeSeries,
    a_coeff,
    b_coeff,
    bar_weights,
    c_weights,
    caputo_by_quadrature,
    energy_E,
    exact_caputo_power,
    l1_caputo,
    l2_caputo,
)
from .problem import (
    Coefficients,
    DiffusionProblem,
    GridSpec,
    ManufacturedCase,
    manufactured_case,
)
from .solver import (
    SchemeKind,
    SolutionHistory,
    TridiagonalSystem,
    apply_compact_H,
    solve,
    thomas_solve,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaParam",
    "Coefficients",
    "ConvergenceTable",
    "DiffusionProblem",
    "ErrorReport",
    "ExperimentSpec",
    "GridSpec",
    "ManufacturedCase",
    "SchemeKind",
    "SolutionHistory",
    "TimeSeries",
    "TridiagonalSystem",
    "a_coeff",
    "apply_compact_H",
    "b_coeff",
    "bar_weights",
    "c_weights",
    "caputo_by_quadrature",
    "convergence_order",
    "energy_E",
    "exact_caputo_power",
    "l1_caputo",
    "l2_caputo",
    "manufactured_case",
    "measure_errors",
    "norm_L2",
    "norm_grad",
    "run_experiment",
    "solve",
    "thomas_solve",
]
