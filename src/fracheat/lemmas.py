"""Numerical verification suite for the discrete coefficient and energy lemmas.

Each check returns a `CheckResult`; the CLI prints one pass/fail line per
check and the test suite asserts on them.  Each check's protocol is fixed
here, not tuned per call site; tests alone set ``(alphas, j_max)`` of the
three c_s checks and ``(trials, seed)`` of the two energy checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import norm_L2
from .kernel import (
    AlphaParam,
    TimeSeries,
    _bar_from,
    _caputo_sum,
    _l2_levels,
    _l2_table,
    a_coeff,
    b_coeff,
    c_weights,
    caputo_by_quadrature,
    energy_E,
    exact_caputo_power,
    l2_caputo,
)
from .solver import apply_compact_H

__all__ = [
    "CheckResult",
    "check_a_bounds",
    "check_a_decrement_bounds",
    "check_b_bounds",
    "check_bar_weight_hypotheses",
    "check_c_bounds",
    "check_c_chain",
    "check_c_positivity_combo",
    "check_energy_inequality",
    "check_history_energy_inequality",
    "check_norm_equivalence",
    "check_truncation_order",
    "run_all_checks",
]

ALPHA_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))  # 0.05 .. 0.95
S_MAX = 10_000
J_MAX = 1_000
TRUNCATION_ALPHAS = (0.3, 0.5, 0.7, 0.9)
TRUNCATION_M = 160  # the order is read from the pair M -> 2M
TRUNCATION_TOL = 0.05
NORM_TRIALS, NORM_N_SUB, NORM_SEED = 100, 40, 20242


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_a_bounds() -> CheckResult:
    """(1-a)/(s+1)^a < a_s < (1-a)/s^a for 1 <= s <= S_MAX."""
    s = np.arange(1, S_MAX + 1, dtype=float)
    worst = np.inf
    for a in ALPHA_GRID:
        alpha = AlphaParam(a)
        av = a_coeff(s, alpha)
        lo = (1.0 - a) / (s + 1.0) ** a
        hi = (1.0 - a) / s**a
        worst = min(worst, float(np.min(av - lo)), float(np.min(hi - av)))
    return CheckResult("a_s bounds", worst > 0.0, f"worst margin {worst:.3e}")


def check_a_decrement_bounds() -> CheckResult:
    """a(1-a)/(s+2)^(a+1) < a_s - a_{s+1} < a(1-a)/s^(a+1) for 1 <= s <= S_MAX."""
    s = np.arange(1, S_MAX + 1, dtype=float)
    worst = np.inf
    for a in ALPHA_GRID:
        av = a_coeff(np.arange(1, S_MAX + 2, dtype=float), AlphaParam(a))  # a_1 .. a_{S_MAX+1}
        diff = av[:-1] - av[1:]
        lo = a * (1.0 - a) / (s + 2.0) ** (a + 1.0)
        hi = a * (1.0 - a) / s ** (a + 1.0)
        worst = min(worst, float(np.min(diff - lo)), float(np.min(hi - diff)))
    return CheckResult("a_s decrement bounds", worst > 0.0, f"worst margin {worst:.3e}")


def check_b_bounds() -> CheckResult:
    """a(1-a)/(12 (s+1)^(a+1)) < b_s < a(1-a)/(12 s^(a+1)) for 1 <= s <= S_MAX."""
    s = np.arange(1, S_MAX + 1, dtype=float)
    worst = np.inf
    for a in ALPHA_GRID:
        alpha = AlphaParam(a)
        bv = b_coeff(s, alpha)
        lo = a * (1.0 - a) / (12.0 * (s + 1.0) ** (a + 1.0))
        hi = a * (1.0 - a) / (12.0 * s ** (a + 1.0))
        worst = min(worst, float(np.min(bv - lo)), float(np.min(hi - bv)))
    return CheckResult("b_s bounds", worst > 0.0, f"worst margin {worst:.3e}")


def _coefficients(a: float, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """a_0..a_{j_max} and b_0..b_{j_max}, which every weight up to level j_max + 1 is built from."""
    alpha = AlphaParam(a)
    idx = np.arange(j_max + 1)
    return a_coeff(idx, alpha), b_coeff(idx, alpha)


def check_c_bounds(alphas=ALPHA_GRID, j_max: int = J_MAX) -> CheckResult:
    """(11/16)(1-a)/(j+1)^a < c_j < (1-a)/j^a for all 2 <= j <= j_max.

    c_j is the last end weight of level j+1, so one vector of them serves all j.
    """
    worst = np.inf
    j = np.arange(2, j_max + 1)
    for a in alphas:
        _, (_, c_last) = _l2_table(*_coefficients(a, j_max))
        c_j = c_last[1:]  # levels j = 2..j_max
        lo = (11.0 / 16.0) * (1.0 - a) / (j + 1.0) ** a
        hi = (1.0 - a) / j**a
        worst = min(worst, float(np.min(np.minimum(c_j - lo, hi - c_j), initial=np.inf)))
    return CheckResult("c_j bounds", worst > 0.0, f"worst margin {worst:.3e}")


def check_c_chain(alphas=ALPHA_GRID, j_max: int = J_MAX) -> CheckResult:
    """c_0 > c_2 > c_3 > ... > c_j (c_1 is not part of the chain).

    The chain of level j+1 is c_0 and c_2..c_{j-2} of the bulk rule, then
    its end weights c_{j-1} (from j = 3 on) and c_j.  Its steps are the bulk
    steps, which every level shares (a shallower level's are a prefix of a
    deeper one's), and the steps into its end weights.  So each step is
    formed once, from one weight table.
    """
    worst = np.inf
    for a in alphas:
        bulk, (c_jm1, c_j) = _l2_table(*_coefficients(a, j_max))  # entry j-1 is level j+1's
        chain = np.concatenate(([bulk[0]], bulk[2 : j_max - 1]))  # c_0, c_2..c_{j_max-2}
        steps = (
            -np.diff(chain),
            -(c_jm1[2:] - chain[: j_max - 2]),  # j >= 3: into c_{j-1}, from c_0 at j = 3, from c_{j-2} after
            -(c_j[1:] - np.r_[bulk[0], c_jm1[2:]]),  # into c_j, from c_0 at j = 2, from c_{j-1} after
        )
        worst = min(worst, float(np.min(np.concatenate(steps), initial=np.inf)))
    return CheckResult("c monotone chain", worst > 0.0, f"worst step {worst:.3e}")


def check_c_positivity_combo(alphas=ALPHA_GRID, j_max: int = J_MAX) -> CheckResult:
    """c_0 + 3 c_1 - 4 c_2 > 0 for j >= 2 (and c_0 + 3 c_1 > 0 at j = 1).

    From j = 4 on, c_0, c_1 and c_2 are bulk weights, the same at every
    level, so j = 4 stands for all deeper levels and the table stops there.
    """
    worst = np.inf
    j_top = min(j_max, 4)
    for a in alphas:
        c1 = c_weights(1, AlphaParam(a))
        worst = min(worst, c1[0] + 3.0 * c1[1])
        levels = _l2_levels(*_coefficients(a, j_top))
        for j in range(2, j_top + 1):
            c = levels(j)
            worst = min(worst, c[0] + 3.0 * c[1] - 4.0 * c[2])
    return CheckResult("c_0+3c_1-4c_2 positivity", worst > 0.0, f"worst value {worst:.3e}")


def check_bar_weight_hypotheses() -> CheckResult:
    """bar weights are positive and non-increasing in s, as the history-energy
    argument requires; stated nowhere as a hypothesis check, so verified
    empirically here.  One weight table per a serves all six levels: its
    entries do not depend on its length, so they are `bar_weights`'s bits."""
    worst = np.inf
    for a in ALPHA_GRID:
        levels = _l2_levels(*_coefficients(a, J_MAX))
        for j in (2, 3, 5, 10, 50, J_MAX):
            bc = _bar_from(levels(j))
            worst = min(worst, float(np.min(bc)), float(np.min(-np.diff(bc[1:]))))
    worst += 0.0  # fold -0.0 into 0.0 for display
    return CheckResult("bar weight hypotheses", worst >= 0.0, f"worst margin {worst:.3e}")


def check_energy_inequality(trials: int = 1000, seed: int = 20240) -> CheckResult:
    """v_{j+1}(c0 v_{j+1} - (c0-c1) v_j - c1 v_{j-1}) >= E_{j+1} - E_j
    over random admissible (c0, c1) and random triples."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        c1 = float(rng.uniform(-2.0, 2.0))
        c0 = max(c1, -3.0 * c1) + float(rng.uniform(0.0, 3.0))
        v = rng.uniform(-5.0, 5.0, size=int(rng.integers(3, 51)))
        lhs = v[2:] * (c0 * v[2:] - (c0 - c1) * v[1:-1] - c1 * v[:-2])  # j = 1 .. v.size - 2
        e = energy_E(v[1:], v[:-1], c0, c1)  # E_1 .. E_{v.size - 1}
        worst = min(worst, float(np.min((lhs - (e[1:] - e[:-1])) / np.maximum(1.0, np.abs(lhs)))))
    return CheckResult("pair energy inequality", worst >= -1e-12, f"worst scaled gap {worst:.3e}")


def check_history_energy_inequality(trials: int = 1000, seed: int = 20241) -> CheckResult:
    """v_{j+1} D^alpha v >= rho (E_{j+1} - E_j) + (1/2) bar-D^alpha (v^2),
    with E built from the weight differences c_0-c_2, c_1-c_2."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        a = float(rng.uniform(0.02, 0.98))
        alpha = AlphaParam(a)
        n = int(rng.integers(4, 51))
        v = rng.uniform(-3.0, 3.0, size=n)
        tau = float(rng.uniform(0.01, 1.0))
        j = n - 2
        c = c_weights(j, alpha)  # one table per trial, read by the L2 sum and the bar weights
        rho = tau ** (-a) / alpha.gamma_2ma
        lhs = v[j + 1] * _caputo_sum(c, v, tau, alpha)
        bar_d = _caputo_sum(_bar_from(c), v * v, tau, alpha)
        e_new = energy_E(v[j + 1], v[j], c[0] - c[2], c[1] - c[2])
        e_old = energy_E(v[j], v[j - 1], c[0] - c[2], c[1] - c[2])
        gap = lhs - (rho * (e_new - e_old) + 0.5 * bar_d)
        scale = max(1.0, abs(lhs), rho * abs(e_new), rho * abs(e_old))
        worst = min(worst, gap / scale)
    return CheckResult("history energy inequality", worst >= -1e-12, f"worst scaled gap {worst:.3e}")


def _final_time_order(
    values_of: Callable[[np.ndarray], np.ndarray],
    reference: Callable[[AlphaParam], float],
    alpha: AlphaParam,
) -> float:
    errs = []
    for m_steps in (TRUNCATION_M, 2 * TRUNCATION_M):
        tau = 1.0 / m_steps
        u = TimeSeries(values_of(np.arange(m_steps + 1) * tau), tau)
        errs.append(abs(l2_caputo(u, m_steps - 1, alpha) - reference(alpha)))
    return math.log2(errs[0] / errs[1])


def check_truncation_order() -> CheckResult:
    """Observed order of the discrete-vs-true derivative error at t = 1, from
    M = 160 to 320 steps, is within 0.05 of 3 - alpha for t^3 (power-rule
    reference) and for sin t and e^t (weighted-quadrature reference).

    The approach happens at O(tau^alpha) speed, so small alpha needs an
    impractically deep ladder: at alpha = 0.1 even tau = 1/2560 still sits
    ~0.05 away.  The orders checked are those where double precision can
    show convergence to the stated band.
    """
    cases = [
        ("t^3", lambda t: t**3, lambda al: exact_caputo_power(3.0, al, 1.0)),
        ("sin", np.sin, lambda al: caputo_by_quadrature(np.cos, al, 1.0)),
        ("exp", np.exp, lambda al: caputo_by_quadrature(np.exp, al, 1.0)),
    ]
    worst_dev = 0.0
    detail = []
    for a in TRUNCATION_ALPHAS:
        alpha = AlphaParam(a)
        for name, values_of, reference in cases:
            order = _final_time_order(values_of, reference, alpha)
            dev = abs(order - (3.0 - a))
            worst_dev = max(worst_dev, dev)
            if dev > TRUNCATION_TOL:
                detail.append(f"{name}@a={a}: {order:.4f}")
    msg = f"worst deviation {worst_dev:.4f} (tol {TRUNCATION_TOL})" + ("; " + ", ".join(detail) if detail else "")
    return CheckResult("L2 truncation order", worst_dev <= TRUNCATION_TOL, msg)


def check_norm_equivalence() -> CheckResult:
    """(5/12) ||v||^2 <= ||H v||^2 <= ||v||^2 for boundary-vanishing vectors."""
    rng = np.random.default_rng(NORM_SEED)
    h = 1.0 / NORM_N_SUB
    worst = np.inf
    for _ in range(NORM_TRIALS):
        v = rng.standard_normal(NORM_N_SUB + 1)
        v[0] = v[-1] = 0.0
        nv = norm_L2(v, h) ** 2
        nh = norm_L2(apply_compact_H(v), h) ** 2
        worst = min(worst, nh / nv - 5.0 / 12.0, 1.0 - nh / nv)
    return CheckResult("compact norm equivalence", worst >= 0.0, f"worst margin {worst:.3e}")


def run_all_checks() -> list[CheckResult]:
    return [
        check_a_bounds(),
        check_a_decrement_bounds(),
        check_b_bounds(),
        check_c_bounds(),
        check_c_chain(),
        check_c_positivity_combo(),
        check_bar_weight_hypotheses(),
        check_energy_inequality(),
        check_history_energy_inequality(),
        check_truncation_order(),
        check_norm_equivalence(),
    ]
