"""Numerical verification suite for the discrete coefficient and energy lemmas.

Each check returns a `CheckResult`; the CLI prints one pass/fail line per
check and the test suite asserts on them.  Thresholds are fixed here, not
tuned per call site.
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
    _l2_weights,
    a_coeff,
    b_coeff,
    bar_weights,
    c_weights,
    caputo_by_quadrature,
    energy_E,
    exact_caputo_power,
    l2_caputo,
)
from .problem import GridSpec
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_a_bounds(alphas=ALPHA_GRID, s_max: int = S_MAX) -> CheckResult:
    """(1-a)/(s+1)^a < a_s < (1-a)/s^a for all s >= 1."""
    s = np.arange(1, s_max + 1, dtype=float)
    worst = np.inf
    for a in alphas:
        alpha = AlphaParam(a)
        av = a_coeff(s, alpha)
        lo = (1.0 - a) / (s + 1.0) ** a
        hi = (1.0 - a) / s**a
        worst = min(worst, float(np.min(av - lo)), float(np.min(hi - av)))
    return CheckResult("a_s bounds", worst > 0.0, f"worst margin {worst:.3e}")


def check_a_decrement_bounds(alphas=ALPHA_GRID, s_max: int = S_MAX) -> CheckResult:
    """a(1-a)/(s+2)^(a+1) < a_s - a_{s+1} < a(1-a)/s^(a+1) for all s >= 1."""
    s = np.arange(1, s_max + 1, dtype=float)
    worst = np.inf
    for a in alphas:
        alpha = AlphaParam(a)
        diff = a_coeff(s, alpha) - a_coeff(s + 1.0, alpha)
        lo = a * (1.0 - a) / (s + 2.0) ** (a + 1.0)
        hi = a * (1.0 - a) / s ** (a + 1.0)
        worst = min(worst, float(np.min(diff - lo)), float(np.min(hi - diff)))
    return CheckResult("a_s decrement bounds", worst > 0.0, f"worst margin {worst:.3e}")


def check_b_bounds(alphas=ALPHA_GRID, s_max: int = S_MAX) -> CheckResult:
    """a(1-a)/(12 (s+1)^(a+1)) < b_s < a(1-a)/(12 s^(a+1)) for all s >= 1."""
    s = np.arange(1, s_max + 1, dtype=float)
    worst = np.inf
    for a in alphas:
        alpha = AlphaParam(a)
        bv = b_coeff(s, alpha)
        lo = a * (1.0 - a) / (12.0 * (s + 1.0) ** (a + 1.0))
        hi = a * (1.0 - a) / (12.0 * s ** (a + 1.0))
        worst = min(worst, float(np.min(bv - lo)), float(np.min(hi - bv)))
    return CheckResult("b_s bounds", worst > 0.0, f"worst margin {worst:.3e}")


def _c_tables(a: float, j_max: int):
    """All weight vectors for 2 <= j <= j_max from one pair of coefficient arrays."""
    alpha = AlphaParam(a)
    idx = np.arange(j_max + 1)
    av = a_coeff(idx, alpha)
    bv = b_coeff(idx, alpha)
    for j in range(2, j_max + 1):
        yield j, _l2_weights(j, av, bv)


def check_c_bounds(alphas=ALPHA_GRID, j_max: int = J_MAX) -> CheckResult:
    """(11/16)(1-a)/(j+1)^a < c_j < (1-a)/j^a for all 2 <= j <= j_max."""
    worst = np.inf
    for a in alphas:
        for j, c in _c_tables(a, j_max):
            lo = (11.0 / 16.0) * (1.0 - a) / (j + 1.0) ** a
            hi = (1.0 - a) / j**a
            worst = min(worst, c[j] - lo, hi - c[j])
    return CheckResult("c_j bounds", worst > 0.0, f"worst margin {worst:.3e}")


def check_c_chain(alphas=ALPHA_GRID, j_max: int = J_MAX) -> CheckResult:
    """c_0 > c_2 > c_3 > ... > c_j (c_1 is not part of the chain)."""
    worst = np.inf
    for a in alphas:
        for j, c in _c_tables(a, j_max):
            chain = np.concatenate(([c[0]], c[2:]))
            worst = min(worst, float(np.min(-np.diff(chain))))
    return CheckResult("c monotone chain", worst > 0.0, f"worst step {worst:.3e}")


def check_c_positivity_combo(alphas=ALPHA_GRID, j_max: int = J_MAX) -> CheckResult:
    """c_0 + 3 c_1 - 4 c_2 > 0 for j >= 2 (and c_0 + 3 c_1 > 0 at j = 1)."""
    worst = np.inf
    for a in alphas:
        alpha = AlphaParam(a)
        c1 = c_weights(1, alpha)
        worst = min(worst, c1[0] + 3.0 * c1[1])
        for j, c in _c_tables(a, j_max):
            worst = min(worst, c[0] + 3.0 * c[1] - 4.0 * c[2])
    return CheckResult("c_0+3c_1-4c_2 positivity", worst > 0.0, f"worst value {worst:.3e}")


def check_bar_weight_hypotheses(alphas=ALPHA_GRID, j_max: int = J_MAX) -> CheckResult:
    """bar weights are positive and non-increasing in s, as the history-energy
    argument requires; stated nowhere as a hypothesis check, so verified
    empirically here."""
    worst = np.inf
    for a in alphas:
        alpha = AlphaParam(a)
        for j in (2, 3, 5, 10, 50, j_max):
            bc = bar_weights(j, alpha)
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
        for j in range(1, v.size - 1):
            lhs = v[j + 1] * (c0 * v[j + 1] - (c0 - c1) * v[j] - c1 * v[j - 1])
            gap = lhs - (energy_E(v[j + 1], v[j], c0, c1) - energy_E(v[j], v[j - 1], c0, c1))
            scale = max(1.0, abs(lhs))
            worst = min(worst, gap / scale)
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
        c = c_weights(j, alpha)
        rho = tau ** (-a) / alpha.gamma_2ma
        lhs = v[j + 1] * l2_caputo(TimeSeries(v, tau), j, alpha)
        bc = bar_weights(j, alpha)
        bar_d = rho * float(bc[::-1] @ np.diff(v * v))
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
    m_ladder: tuple[int, ...],
) -> float:
    errs = []
    for m_steps in m_ladder:
        tau = 1.0 / m_steps
        u = TimeSeries(values_of(np.arange(m_steps + 1) * tau), tau)
        errs.append(abs(l2_caputo(u, m_steps - 1, alpha) - reference(alpha)))
    return math.log2(errs[-2] / errs[-1])


def check_truncation_order(
    alphas=(0.3, 0.5, 0.7, 0.9),
    m_ladder: tuple[int, ...] = (20, 40, 80, 160, 320),
    tol: float = 0.05,
) -> CheckResult:
    """Observed order of the discrete-vs-true derivative error at t = 1
    approaches 3 - alpha for t^3 (power-rule reference) and for sin t and
    e^t (weighted-quadrature reference).

    The approach happens at O(tau^alpha) speed, so small alpha needs an
    impractically deep ladder: at alpha = 0.1 even tau = 1/2560 still sits
    ~0.05 away.  The default grid covers the range where double precision
    can show convergence to the stated band.
    """
    cases = [
        ("t^3", lambda t: t**3, lambda al: exact_caputo_power(3.0, al, 1.0)),
        ("sin", np.sin, lambda al: caputo_by_quadrature(np.cos, al, 1.0)),
        ("exp", np.exp, lambda al: caputo_by_quadrature(np.exp, al, 1.0)),
    ]
    worst_dev = 0.0
    detail = []
    for a in alphas:
        alpha = AlphaParam(a)
        for name, values_of, reference in cases:
            order = _final_time_order(values_of, reference, alpha, tuple(m_ladder))
            dev = abs(order - (3.0 - a))
            worst_dev = max(worst_dev, dev)
            if dev > tol:
                detail.append(f"{name}@a={a}: {order:.4f}")
    msg = f"worst deviation {worst_dev:.4f} (tol {tol})" + ("; " + ", ".join(detail) if detail else "")
    return CheckResult("L2 truncation order", worst_dev <= tol, msg)


def check_norm_equivalence(trials: int = 100, n_sub: int = 40, seed: int = 20242) -> CheckResult:
    """(5/12) ||v||^2 <= ||H v||^2 <= ||v||^2 for boundary-vanishing vectors."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(N=n_sub, M=2)
    worst = np.inf
    for _ in range(trials):
        v = rng.standard_normal(n_sub + 1)
        v[0] = v[-1] = 0.0
        nv = norm_L2(v, grid.h) ** 2
        nh = norm_L2(apply_compact_H(v, grid), grid.h) ** 2
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
