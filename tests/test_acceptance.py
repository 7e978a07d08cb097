"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.  Two criteria fail at their pinned scales for quantified reasons kept
next to the respective asserts; every tolerance below is enforced exactly
as stated, not relaxed to force green.
"""

import math
import time

import numpy as np

from fracheat import (
    AlphaParam,
    DiffusionProblem,
    GridSpec,
    TimeSeries,
    TridiagonalSystem,
    exact_caputo_power,
    l1_caputo,
    l2_caputo,
    norm_L2,
    norm_grad,
    run_experiment,
    solve,
    thomas_solve,
)
from fracheat.baselines import (
    BASELINE_TABLE1,
    BASELINE_TABLE2_CO,
    BASELINE_TABLE3,
    BASELINE_TABLE4_CO,
    TABLE1_EXCLUDED_CELLS,
    experiment_spec,
)
from fracheat.lemmas import (
    check_a_bounds,
    check_a_decrement_bounds,
    check_b_bounds,
    check_c_bounds,
    check_c_chain,
    check_c_positivity_combo,
    check_energy_inequality,
    check_history_energy_inequality,
    check_norm_equivalence,
)

FIELDS = ("err_L2", "err_C", "err_grad")


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")


def compare_table(table, baseline, alpha, excluded=frozenset()):
    """Factor-2 check on error cells, +-0.1 on order cells; returns failures."""
    bad = []
    for r, (row, ref) in enumerate(zip(table.rows, baseline[alpha])):
        cells = (
            ("err_L2", row.err_L2, ref[0], "co_L2", row.co_L2, ref[1]),
            ("err_C", row.err_C, ref[2], "co_C", row.co_C, ref[3]),
            ("err_grad", row.err_grad, ref[4], "co_grad", row.co_grad, ref[5]),
        )
        for err_name, err, err_ref, co_name, co, co_ref in cells:
            if (alpha, r, err_name) not in excluded:
                ratio = err / err_ref
                if not 0.5 <= ratio <= 2.0:
                    bad.append(f"a={alpha} rung{r} {err_name} ratio {ratio:.3f}")
            if co_ref is not None and abs(co - co_ref) > 0.1:
                bad.append(f"a={alpha} rung{r} {co_name} {co:.4f} vs {co_ref}")
    return bad


def test_criterion_01_coefficient_lemma_suite():
    start = time.perf_counter()
    results = [
        check_a_bounds(),
        check_a_decrement_bounds(),
        check_b_bounds(),
        check_c_bounds(),
        check_c_chain(),
        check_c_positivity_combo(),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) and elapsed < 10.0
    report(1, "coefficient lemma suite", ok,
           f"{sum(r.passed for r in results)}/6 checks, {elapsed:.2f}s")
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert elapsed < 10.0


def test_criterion_02_operator_exactness():
    worst = 0.0
    for a in (0.1, 0.5, 0.9):
        alpha = AlphaParam(a)
        for m_steps in (10, 100):
            tau = 1.0 / m_steps
            u = TimeSeries((np.arange(m_steps + 1) * tau) ** 2, tau)
            for j in range(1, m_steps):
                t = (j + 1) * tau
                rel = abs(l2_caputo(u, j, alpha) - exact_caputo_power(2.0, alpha, t)) / abs(
                    exact_caputo_power(2.0, alpha, t)
                )
                worst = max(worst, rel)
        # the bootstrap's L1 formula is exact on linear data
        linear = TimeSeries(np.arange(41) / 40.0, 1.0 / 40.0)
        for j in range(40):
            got = l1_caputo(linear, j, alpha)
            worst = max(worst, abs(got - exact_caputo_power(1.0, alpha, (j + 1) / 40.0)))
    ok = worst <= 1e-12
    report(2, "operator exactness on low-degree data", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_03_truncation_order_pinned_ladder():
    start = time.perf_counter()
    deviations = {}
    for a in (0.1, 0.5, 0.9):
        alpha = AlphaParam(a)
        reference = exact_caputo_power(3.0, alpha, 1.0)
        errs = []
        for m_steps in (20, 40, 80, 160, 320):
            tau = 1.0 / m_steps
            u = TimeSeries((np.arange(m_steps + 1) * tau) ** 3, tau)
            errs.append(abs(l2_caputo(u, m_steps - 1, alpha) - reference))
        order = math.log2(errs[-2] / errs[-1])
        deviations[a] = (order, abs(order - (3.0 - a)))
    elapsed = time.perf_counter() - start
    ok = all(dev <= 0.05 for _, dev in deviations.values()) and elapsed < 5.0
    detail = ", ".join(f"a={a}: {o:.4f} (dev {d:.4f})" for a, (o, d) in deviations.items())
    report(3, "truncation order on pinned ladder", ok, detail + f", {elapsed:.1f}s")
    # The error at fixed t behaves like C tau^(3-a) - D tau^3, so the observed
    # order climbs to 3-a only at O(tau^a) speed.  At alpha=0.1 this ladder
    # tops out near 2.83.  The same formula summed in mpmath 1.3.0 at 40
    # digits, on M = 20*2^k, gives the pairwise orders 2.7849, 2.8041,
    # 2.8176, 2.8278 (the last pair here), 2.8361, 2.8430, 2.8488 and
    # 2.8539: the first pair inside 2.9 +- 0.05 is M = 2560 -> 5120, five
    # rungs deeper than this ladder.  Double precision still gives 2.8540
    # there, but one rung further (5120 -> 10240) it reads 2.8520 against
    # the exact 2.8582, so rounding takes over right after the band is hit.
    assert elapsed < 5.0
    assert all(dev <= 0.05 for _, dev in deviations.values()), detail


def test_criterion_04_energy_inequalities():
    r1 = check_energy_inequality()
    r2 = check_history_energy_inequality()
    ok = r1.passed and r2.passed
    report(4, "energy inequalities, 1000 trials each", ok, f"{r1.detail}; {r2.detail}")
    assert r1.passed, r1.detail
    assert r2.passed, r2.detail


def test_criterion_05_table1_reproduction():
    start = time.perf_counter()
    bad = []
    reference_cell = None
    for a in (0.1, 0.5, 0.9):
        table = run_experiment(experiment_spec(1, a))
        bad += compare_table(table, BASELINE_TABLE1, a, TABLE1_EXCLUDED_CELLS)
        if a == 0.5:
            reference_cell = table.rows[0].err_L2
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 180.0 and 0.5 <= reference_cell / 4.556026e-3 <= 2.0
    report(5, "second-order scheme table1", ok,
           f"reference cell {reference_cell:.6e} vs 4.556026e-3, {elapsed:.1f}s"
           + (f"; failures: {bad}" if bad else ""))
    assert not bad, bad
    assert elapsed < 180.0


def test_criterion_06_table2_protocol_desk_scale():
    start = time.perf_counter()
    bad = []
    for a in (0.3, 0.5, 0.7):
        table = run_experiment(experiment_spec(2, a))
        for row, ref in zip(table.rows[1:], BASELINE_TABLE2_CO[a]):
            for co, co_ref, name in zip((row.co_L2, row.co_C, row.co_grad), ref, FIELDS):
                if abs(co - co_ref) > 0.1:
                    bad.append(f"a={a} tau={row.tau:g} {name} CO {co:.4f} vs {co_ref} "
                               f"(dev {abs(co - co_ref):.3f})")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 180.0
    report(6, "temporal ladder at h=1/5000 (table2)", ok,
           f"{elapsed:.1f}s" + (f"; failures: {bad}" if bad else ""))
    # At h=1/5000 the h^2 error (~5e-8) is ~19% of the alpha=0.3 temporal
    # error at tau=1/80 (2.9e-7), which drags the final order to ~2.45; even
    # substituting the baseline's own temporal errors yields 2.498 vs 2.6934
    # at this h, so the 0.1 band is structurally out of reach for alpha=0.3.
    # (The same ladder at h=1/20000 lands every order inside the band.)
    assert elapsed < 180.0
    assert not bad, bad


def test_criterion_07_table3_reproduction():
    start = time.perf_counter()
    bad = []
    reference_cell = None
    for a in (0.1, 0.5, 0.9):
        table = run_experiment(experiment_spec(3, a))
        bad += compare_table(table, BASELINE_TABLE3, a)
        if a == 0.5:
            reference_cell = table.rows[0].err_L2
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120.0 and 0.5 <= reference_cell / 1.178052e-5 <= 2.0
    report(7, "compact scheme table3", ok,
           f"reference cell {reference_cell:.6e} vs 1.178052e-5, {elapsed:.1f}s"
           + (f"; failures: {bad}" if bad else ""))
    assert not bad, bad
    assert elapsed < 120.0


def test_criterion_08_table4_protocol():
    start = time.perf_counter()
    bad = []
    for a in (0.3, 0.5, 0.7):
        table = run_experiment(experiment_spec(4, a))
        for row, ref in zip(table.rows[1:], BASELINE_TABLE4_CO[a]):
            for co, co_ref, name in zip((row.co_L2, row.co_C, row.co_grad), ref, FIELDS):
                if abs(co - co_ref) > 0.1:
                    bad.append(f"a={a} tau={row.tau:g} {name} CO {co:.4f} vs {co_ref}")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120.0
    report(8, "temporal ladder at h=1/1000 (table4)", ok,
           f"{elapsed:.1f}s" + (f"; failures: {bad}" if bad else ""))
    assert not bad, bad
    assert elapsed < 120.0


def test_criterion_09_stability_smoke():
    rng = np.random.default_rng(7)
    n_sub = 64
    u0_vals = rng.uniform(-1.0, 1.0, n_sub + 1)
    u0_vals[0] = u0_vals[-1] = 0.0
    nodes = np.linspace(0.0, 1.0, n_sub + 1)
    prob = DiffusionProblem(
        k=lambda x, t: 2.0 - np.cos(np.asarray(x) * t),
        q=lambda x, t: 1.0 - np.sin(np.asarray(x) * t),
        f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        u0=lambda x: np.interp(x, nodes, u0_vals),
    )
    # a priori stability constant for l=1, c1=1; an unstable scheme blows
    # through this within a few steps while the true ratios sit near 1e-3
    bound = 10.0
    worst = 0.0
    for a in (0.1, 0.9):
        alpha = AlphaParam(a)
        for m_steps in (8, 16, 32, 64, 128):
            grid = GridSpec(N=n_sub, M=m_steps)
            hist = solve(prob, grid, alpha)
            h, tau = grid.h, grid.tau
            lhs = sum(
                (norm_L2(hist.layers[j + 1], h) ** 2 + norm_grad(hist.layers[j + 1], h) ** 2) * tau
                for j in range(1, m_steps)
            )
            rhs = norm_L2(hist.layers[1], h) ** 2 + norm_L2(hist.layers[0], h) ** 2
            worst = max(worst, lhs / rhs)
    ok = worst <= bound
    report(9, "zero-source stability across refinements", ok,
           f"max energy ratio {worst:.4f} <= {bound}")
    assert ok


def test_criterion_10_tridiagonal_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        diag = np.empty(n)
        diag[0] = abs(upper[0]) + rng.uniform(0.1, 2.0)
        diag[-1] = abs(lower[-1]) + rng.uniform(0.1, 2.0)
        for i in range(1, n - 1):
            diag[i] = abs(lower[i - 1]) + abs(upper[i]) + rng.uniform(0.1, 2.0)
        diag *= rng.choice([-1.0, 1.0], n)
        rhs = rng.standard_normal(n)
        got = thomas_solve(TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs))
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        worst = max(worst, float(np.max(np.abs(got - np.linalg.solve(dense, rhs)))))
    ok = worst <= 1e-10
    report(10, "tridiagonal solve vs dense oracle", ok, f"max abs diff {worst:.2e}")
    assert ok


def test_criterion_11_norm_equivalence():
    result = check_norm_equivalence()
    report(11, "compact-operator norm equivalence", result.passed, result.detail)
    assert result.passed, result.detail
