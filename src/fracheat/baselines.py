"""Baseline convergence tables and grid ladders for the built-in experiments.

The four experiment protocols:

  table1 — second-order scheme, k = 2-cos(xt), coupled ladder tau^(3-a) = h^2
  table2 — second-order scheme, fixed fine h, temporal ladder
  table3 — compact scheme, k = 2-cos(t), coupled ladder tau^(3-a) = (2h)^4
  table4 — compact scheme, fixed fine h, temporal ladder

Coupled ladders carry hand-picked (M, N) pairs for the tabulated fractional
orders so reruns land on exactly the baseline geometry; other orders (or
deeper ladders) fall back to the floor rule solving the coupling for N.
table2 runs at h = 1/5000 rather than the baseline's 1/50000: the h^2
contribution there is far below the temporal errors being measured, and it
keeps the run at desk scale.
"""

from __future__ import annotations

import math

from .analysis import ExperimentSpec
from .problem import Coefficients
from .solver import SchemeKind

__all__ = [
    "BASELINE_TABLE1",
    "BASELINE_TABLE2_CO",
    "BASELINE_TABLE3",
    "BASELINE_TABLE4_CO",
    "TABLE1_EXCLUDED_CELLS",
    "TABLE_ALPHAS",
    "experiment_spec",
]

# alpha -> list of (M, N); tau = 1/M, h = 1/N
_TABLE1_PAIRS = {
    0.1: [(10, 29), (20, 78), (40, 211), (80, 575), (160, 1571)],
    0.5: [(10, 18), (20, 43), (40, 101), (80, 240), (160, 570)],
    0.9: [(10, 12), (20, 24), (40, 49), (80, 100), (160, 207)],
}
_TABLE3_PAIRS = {
    0.1: [(40, 29), (80, 47), (160, 79), (320, 131), (640, 217)],
    0.5: [(40, 21), (80, 31), (160, 47), (320, 73), (640, 113)],
    0.9: [(40, 13), (80, 19), (160, 29), (320, 41), (640, 59)],
}

_TABLE2_MS = [10, 20, 40, 80]
_TABLE2_N = 5000
_TABLE4_MS = [10, 20, 40, 80, 160]
_TABLE4_N = 1000

TABLE_ALPHAS = {1: (0.1, 0.5, 0.9), 2: (0.3, 0.5, 0.7), 3: (0.1, 0.5, 0.9), 4: (0.3, 0.5, 0.7)}

# Baseline cells per rung: (err_L2, co_L2, err_C, co_C, err_grad, co_grad).
BASELINE_TABLE1 = {
    0.1: [
        (1.694597e-3, None, 2.387728e-3, None, 5.341255e-2, None),
        (2.343539e-4, 2.8541, 3.304157e-4, 2.8533, 7.389758e-4, 2.8536),
        (3.204204e-5, 2.8707, 4.517782e-5, 2.8706, 1.010417e-4, 2.8706),
        (4.316975e-6, 2.8918, 6.086836e-6, 2.8919, 1.361321e-5, 2.8919),
        (5.786215e-7, 2.8993, 8.158422e-7, 2.8993, 1.824621e-6, 2.8993),
    ],
    0.5: [
        (4.556026e-3, None, 6.401088e-3, None, 1.434106e-2, None),
        (8.011052e-4, 2.5077, 1.129064e-3, 2.5032, 2.524196e-3, 2.5063),
        (1.452643e-4, 2.4633, 2.047995e-4, 2.4628, 4.577935e-4, 2.4630),
        (2.575571e-5, 2.4957, 3.631166e-5, 2.4957, 8.116952e-5, 2.4956),
        (4.568945e-6, 2.4950, 6.441587e-6, 2.4949, 1.439907e-5, 2.4950),
    ],
    0.9: [
        (1.181474e-2, None, 1.662948e-2, None, 3.707516e-2, None),
        (2.931153e-3, 2.0110, 4.125467e-3, 2.0111, 9.218339e-3, 2.0078),
        (7.018065e-4, 2.0623, 9.891705e-4, 2.0603, 2.208378e-3, 2.0615),
        (1.678681e-4, 2.0637, 2.367034e-4, 2.0631, 5.283157e-4, 2.0635),
        (3.921292e-5, 2.0979, 5.529153e-5, 2.0979, 1.234141e-4, 2.0979),
    ],
}

BASELINE_TABLE3 = {
    0.1: [
        (1.321499e-6, None, 1.866140e-6, None, 4.149581e-6, None),
        (1.912169e-7, 2.7889, 2.702706e-7, 2.7875, 6.006140e-7, 2.7884),
        (2.443382e-8, 2.9683, 3.454781e-8, 2.9677, 7.675607e-8, 2.9680),
        (3.267337e-9, 2.9027, 4.620380e-9, 2.9025, 1.026439e-8, 2.9026),
        (4.395804e-10, 2.8939, 6.216471e-10, 2.8938, 1.380970e-9, 2.8939),
    ],
    0.5: [
        (1.178052e-5, None, 1.661359e-5, None, 3.697512e-5, None),
        (2.241843e-6, 2.3936, 3.166375e-6, 2.3914, 7.039944e-6, 2.3929),
        (4.096169e-7, 2.4523, 5.789623e-7, 2.4512, 1.286610e-6, 2.4519),
        (7.195323e-8, 2.5091, 1.017336e-7, 2.5086, 2.260303e-7, 2.5089),
        (1.268803e-8, 2.5036, 1.794185e-8, 2.5034, 3.985934e-8, 2.5035),
    ],
    0.9: [
        (1.470087e-4, None, 2.063859e-4, None, 4.607185e-4, None),
        (3.419750e-5, 2.1039, 4.819739e-5, 2.0983, 1.073122e-4, 2.1020),
        (7.726281e-6, 2.1460, 1.091058e-5, 2.1432, 2.426096e-5, 2.1451),
        (1.824394e-6, 2.0823, 2.578190e-6, 2.0812, 5.730103e-6, 2.0820),
        (4.260141e-7, 2.0984, 6.022614e-7, 2.0978, 1.338204e-6, 2.0982),
    ],
}

# Temporal-ladder protocols: only the order columns are comparable once h is
# rescaled, so the baselines keep (co_L2, co_C, co_grad) per refinement step.
BASELINE_TABLE2_CO = {
    0.3: [(2.5977, 2.5974, 2.5978), (2.6766, 2.6786, 2.6757), (2.6934, 2.6914, 2.6943)],
    0.5: [(2.4321, 2.4321, 2.4321), (2.4645, 2.4648, 2.4643), (2.4952, 2.4948, 2.4954)],
    0.7: [(2.2408, 2.2408, 2.2408), (2.2674, 2.2673, 2.2675), (2.2904, 2.2905, 2.2903)],
}
BASELINE_TABLE4_CO = {
    0.3: [(2.5986,) * 3, (2.6291,) * 3, (2.6478,) * 3, (2.6596,) * 3],
    0.5: [(2.4321,) * 3, (2.4597,) * 3, (2.4747,) * 3, (2.4836,) * 3],
    0.7: [(2.2410,) * 3, (2.2691,) * 3, (2.2832,) * 3, (2.2907,) * 3],
}

# (alpha, rung index, field): baseline cells known to be inconsistent with
# their own CO column (the table1 cell below is off by exactly 10x) and
# therefore skipped when cells are compared.
TABLE1_EXCLUDED_CELLS = {(0.1, 0, "err_grad")}


def _coupled_n(table: int, alpha: float, m_steps: int) -> int:
    """Fallback N from the coupling rule when no hand-picked pair exists."""
    tau = 1.0 / m_steps
    if table == 1:  # tau^(3-a) = h^2
        n = tau ** (-(3.0 - alpha) / 2.0)
    else:  # table 3: tau^(3-a) = (2h)^4
        n = 2.0 * tau ** (-(3.0 - alpha) / 4.0)
    return max(2, math.floor(n))


def experiment_spec(
    table: int,
    alpha: float,
    depth: int | None = None,
    n_override: int | None = None,
) -> ExperimentSpec:
    """Ladder definition for one of the built-in experiment protocols."""
    if table not in (1, 2, 3, 4):
        raise ValueError(f"unknown table {table}")
    if table in (1, 3):
        pairs = (_TABLE1_PAIRS if table == 1 else _TABLE3_PAIRS).get(alpha, [])
        base_m = 10 if table == 1 else 40
        depth = len(pairs) if depth is None and pairs else (depth or 5)
        rungs = []
        for r in range(depth):
            m_steps = base_m * 2**r
            if r < len(pairs) and n_override is None:
                rungs.append(pairs[r])
            else:
                n_sub = n_override if n_override is not None else _coupled_n(table, alpha, m_steps)
                rungs.append((m_steps, n_sub))
        scheme = SchemeKind.ORDER2 if table == 1 else SchemeKind.COMPACT4
        variant = Coefficients.VARIABLE_XT if table == 1 else Coefficients.TIME_ONLY
    else:
        ms = _TABLE2_MS if table == 2 else _TABLE4_MS
        depth = len(ms) if depth is None else depth
        n_sub = n_override if n_override is not None else (_TABLE2_N if table == 2 else _TABLE4_N)
        rungs = [(ms[r] if r < len(ms) else ms[-1] * 2 ** (r - len(ms) + 1), n_sub) for r in range(depth)]
        scheme = SchemeKind.ORDER2 if table == 2 else SchemeKind.COMPACT4
        variant = Coefficients.VARIABLE_XT if table == 2 else Coefficients.TIME_ONLY
    return ExperimentSpec(alpha=alpha, scheme=scheme, variant=variant, rungs=tuple(rungs))
