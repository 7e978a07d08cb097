"""The benchmark's hooks (perfbench/tracing.py) against the package.

The tracer wraps fracheat functions by name, and a name the package no
longer has only makes its metrics read 0.  So a refactor could blind a
per-layer metric without failing anything; these tests fail instead.
"""

import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

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
