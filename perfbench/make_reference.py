"""Write perfbench/reference.json: the ladders, baseline cells and stress
references that the benchmark checks outputs against.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python3 perfbench/make_reference.py

The baseline cells are copied from `fracheat.baselines` (the paper's
tables), so the benchmark keeps its own copy and a change to the program
cannot move the reference it is checked against.  The stress references are
the errors the program gives at the commit the file was written from; a
later change must reproduce them to `STRESS_REL_TOL`.
"""

from __future__ import annotations

import json
import pathlib

from fracheat import baselines
from fracheat.analysis import measure_errors
from fracheat.kernel import AlphaParam
from fracheat.problem import Coefficients, GridSpec, manufactured_case
from fracheat.solver import SchemeKind, solve

STRESS_GRID = {"M": 1500, "N": 250}
STRESS_ALPHAS = (0.5, 0.7, 0.3)  # index = seed % 3, so the default seed 0 gives 0.5
STRESS_SOLVES = (("order2", "variable_xt"), ("compact4", "time_only"))
STRESS_REL_TOL = 1e-6
FINE_H_N = 50000

# Cells that fail the acceptance rule at the commit the references were
# recorded from.  They stay counted in fail_share; listing them here only
# keeps them from turning the run's `correct` flag false.
KNOWN_FAILURES = {
    "table2 a=0.3 rung3 co_L2": "h=1/5000 h^2 error drags the last order (acceptance criterion 06)",
    "table2 a=0.3 rung3 co_C": "h=1/5000 h^2 error drags the last order (acceptance criterion 06)",
    "table2 a=0.3 rung3 co_grad": "h=1/5000 h^2 error drags the last order (acceptance criterion 06)",
    "fine_h a=0.3 rung3 co_L2": "rounding in the ~1e10 diagonal at h=1/50000 (ROADMAP item 3)",
    "fine_h a=0.3 rung3 co_C": "rounding in the ~1e10 diagonal at h=1/50000 (ROADMAP item 3)",
    "fine_h a=0.3 rung3 co_grad": "rounding in the ~1e10 diagonal at h=1/50000 (ROADMAP item 3)",
}


def _cells(table: int) -> dict[str, list]:
    """alpha -> per-rung (err_L2, co_L2, err_C, co_C, err_grad, co_grad), None where not tabulated."""
    if table == 1:
        return {repr(a): [list(r) for r in rows] for a, rows in baselines.BASELINE_TABLE1.items()}
    if table == 3:
        return {repr(a): [list(r) for r in rows] for a, rows in baselines.BASELINE_TABLE3.items()}
    co = baselines.BASELINE_TABLE2_CO if table == 2 else baselines.BASELINE_TABLE4_CO
    return {
        repr(a): [[None] * 6] + [[None, c[0], None, c[1], None, c[2]] for c in rows]
        for a, rows in co.items()
    }


def _ladders(table: int, n_override: int | None = None) -> dict[str, list]:
    return {
        repr(a): [list(r) for r in baselines.experiment_spec(table, a, n_override=n_override).rungs]
        for a in baselines.TABLE_ALPHAS[table]
    }


def main() -> None:
    tables = {str(t): {"ladders": _ladders(t), "cells": _cells(t)} for t in (1, 2, 3, 4)}
    fine_h = {"ladders": _ladders(2, FINE_H_N), "cells": _cells(2)}
    stress = {}
    for a in STRESS_ALPHAS:
        alpha = AlphaParam(a)
        grid = GridSpec(**STRESS_GRID)
        for scheme, variant in STRESS_SOLVES:
            case = manufactured_case(alpha, Coefficients(variant))
            report = measure_errors(solve(case.problem, grid, alpha, SchemeKind(scheme)), case.u_exact)
            stress[f"{scheme} a={a}"] = [report.err_L2, report.err_C, report.err_grad]
    out = {
        "tables": tables,
        "fine_h": fine_h,
        "excluded_cells": [f"table1 a={a} rung{r} {f}" for a, r, f in sorted(baselines.TABLE1_EXCLUDED_CELLS)],
        "known_failures": KNOWN_FAILURES,
        "stress": {
            "grid": STRESS_GRID,
            "alphas": list(STRESS_ALPHAS),
            "solves": [list(s) for s in STRESS_SOLVES],
            "rel_tol": STRESS_REL_TOL,
            "errors": stress,
        },
    }
    path = pathlib.Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
