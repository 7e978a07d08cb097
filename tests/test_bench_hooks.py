"""The benchmark (perfbench/) against the package.

The tracer wraps fracheat functions by name, and a name the package no
longer has only makes its metrics read 0.  So a refactor could blind a
per-layer metric without failing anything; these tests fail instead.
Likewise the worker parses its commands through ``cli.parse_args``, so a
flag the CLI drops would fail every benchmark operation.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from fracheat import AlphaParam, Coefficients, GridSpec, SchemeKind, manufactured_case, solve

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")

# hooks on functions that earlier refactors removed; their metrics read 0
# until the benchmark moves them onto code that exists
KNOWN_DEAD = {
    "solver.step_order2",
    "solver.step_compact",
    "solver.bootstrap_first_layer",
    "problem.DiffusionProblem.validate_on_grid",
}


def _hooked(module, attr):
    owner = tracing._resolve_owner(module, attr)
    return None if owner is None else getattr(owner, attr.rsplit(".", 1)[-1], None)


def test_every_hook_resolves_but_the_known_dead_ones():
    dead = {f"{module}.{attr}" for _, module, attr, _, _ in tracing.HOOKS if _hooked(module, attr) is None}
    assert dead <= KNOWN_DEAD, sorted(dead - KNOWN_DEAD)
    assert _hooked("problem", "manufactured_case") is not None


def test_hook_meta_parameters_are_still_named_so():
    # the tracer reads e.g. ``sys.diag.size`` of thomas_solve for ns_per_row
    for name, module, attr, params, _ in tracing.HOOKS:
        fn = _hooked(module, attr)
        if fn is not None:
            assert set(params) <= set(inspect.signature(fn).parameters), (name, params)
    assert "sys" in inspect.signature(_hooked("solver", "thomas_solve")).parameters


def test_every_benchmark_workload_builds():
    # build() parses each command (with the --jobs 1 the worker appends) and runs nothing
    worker = _load("worker")
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    parts = {name: [part.name for part in worker.build(name, 0).parts] for name in workloads}
    assert parts == {"paper_tables": ["table1", "table2", "table3", "table4", "properties"],
                     "fine_h": ["table2"], "stress": ["order2", "compact4"]}


@pytest.mark.parametrize("variant", list(Coefficients))
def test_traced_case_records_coefficient_spans_and_solves_the_same(variant):
    # wrap_case rebuilds the problem with dataclasses.replace; where that
    # fails it records the case as absent and problem.coef_eval reads 0
    alpha, grid = AlphaParam(0.5), GridSpec(N=8, M=4)
    scheme = SchemeKind.COMPACT4 if variant is Coefficients.TIME_ONLY else SchemeKind.ORDER2
    case = manufactured_case(alpha, variant)
    tracer = tracing.Tracer()
    traced = tracer.wrap_case(case)
    assert not tracer.absent
    layers = solve(traced.problem, grid, alpha, scheme).layers
    assert any(span[0] == tracing.COEF_SPAN for span in tracer.spans)
    assert layers.tobytes() == solve(case.problem, grid, alpha, scheme).layers.tobytes()
