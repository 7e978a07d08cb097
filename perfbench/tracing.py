"""Outside-in spans around fracheat's public functions.

`Tracer.installed()` replaces each hooked function, wherever a fracheat
module holds it, with a wrapper that records a span (name, start, end,
parent, solve id, meta) in memory; leaving the block puts the originals
back.  Hooks are found by attribute lookup: a name the package no longer
has is recorded as absent and its metrics read 0, so a refactor that merges
or renames a function never stops the run.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LEMMA_CHECKS = (
    "check_a_bounds",
    "check_a_decrement_bounds",
    "check_b_bounds",
    "check_c_bounds",
    "check_c_chain",
    "check_c_positivity_combo",
    "check_bar_weight_hypotheses",
    "check_energy_inequality",
    "check_history_energy_inequality",
    "check_truncation_order",
    "check_norm_equivalence",
)


# (span name, module, attribute, parameters passed to meta, meta)
HOOKS = (
    ("analysis.measure_errors", "analysis", "measure_errors", (), None),
    ("solver.solve", "solver", "solve", ("grid",), lambda g: (g.M + 1) * (g.N + 1)),
    ("solver.thomas_solve", "solver", "thomas_solve", ("sys",), lambda s: s.diag.size),
    ("solver.step", "solver", "step_order2", ("j", "grid"), lambda j, g: (j, g.N + 1)),
    ("solver.step", "solver", "step_compact", ("j", "grid"), lambda j, g: (j, g.N + 1)),
    ("solver.bootstrap", "solver", "bootstrap_first_layer", (), None),
    ("solver.apply_compact_H", "solver", "apply_compact_H", (), None),
    ("kernel.c_weights", "kernel", "c_weights", (), None),
    ("kernel.a_coeff", "kernel", "a_coeff", (), None),
    ("kernel.b_coeff", "kernel", "b_coeff", (), None),
    ("problem.validate_on_grid", "problem", "DiffusionProblem.validate_on_grid", (), None),
    ("lemmas.run_all_checks", "lemmas", "run_all_checks", (), None),
) + tuple((f"lemmas.{name}", "lemmas", name, (), None) for name in LEMMA_CHECKS)

COEF_SPAN = "problem.coef_eval"
COEF_FIELDS = ("k", "q", "f", "u0")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, solve id, meta]
        self._stack: list[int] = []
        self._solve_id = -1
        self._solves = 0
        self.absent: set[str] = set()
        self._hooked_spans: set[str] = set()

    @contextmanager
    def span(self, name: str, meta=None):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self._solve_id, meta]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn, params=(), meta=None):
        positions = []
        if meta is not None:
            try:
                names = list(inspect.signature(fn).parameters)
                positions = [(p, names.index(p)) for p in params]
            except (TypeError, ValueError):  # signature changed: keep the span, drop the meta
                meta = None
        opens_solve = name == "solver.solve"
        tracer, spans, stack, clock = self, self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            info = None
            if meta is not None:
                try:
                    info = meta(*[args[i] if i < len(args) else kwargs[p] for p, i in positions])
                except (AttributeError, IndexError, KeyError, TypeError):
                    info = None
            outer = tracer._solve_id
            if opens_solve:
                tracer._solve_id = tracer._solves
                tracer._solves += 1
            # `span()` inlined: on the hot path a generator context costs microseconds per call
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer._solve_id, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                tracer._solve_id = outer

        return traced

    def wrap_case(self, case):
        """A copy of a manufactured case whose k, q, f and u0 record spans."""
        try:
            fields = {f: self._wrap(COEF_SPAN, getattr(case.problem, f)) for f in COEF_FIELDS}
            return dataclasses.replace(case, problem=dataclasses.replace(case.problem, **fields))
        except (AttributeError, TypeError, ValueError):
            self.absent.add("problem.manufactured_case")
            return case

    @contextmanager
    def installed(self):
        undo: list[tuple[object, str, object]] = []

        def patch(orig, wrapper):
            for mod in [m for n, m in list(sys.modules.items()) if n == "fracheat" or n.startswith("fracheat.")]:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

        try:
            for name, module, attr, params, meta in HOOKS:
                owner = _resolve_owner(module, attr)
                orig = getattr(owner, attr.rsplit(".", 1)[-1], None) if owner is not None else None
                if orig is None:
                    self.absent.add(f"{module}.{attr}")
                    continue
                self._hooked_spans.add(name)
                wrapper = self._wrap(name, orig, params, meta)
                if "." in attr:  # a method: patch the class
                    undo.append((owner, attr.rsplit(".", 1)[-1], orig))
                    setattr(owner, attr.rsplit(".", 1)[-1], wrapper)
                else:
                    patch(orig, wrapper)
            make_case = getattr(_resolve_owner("problem", "manufactured_case"), "manufactured_case", None)
            if make_case is None:
                self.absent.add("problem.manufactured_case")
            else:
                self._hooked_spans.add(COEF_SPAN)
                patch(make_case, lambda *a, **kw: self.wrap_case(make_case(*a, **kw)))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_ns,end_ns,parent,solve_id,meta\n")
            for name, start, end, parent, solve, meta in self.spans:
                meta_text = "" if meta is None else str(meta).replace(",", ";").replace(" ", "")
                out.write(f"{name},{start},{end},{parent},{solve},{meta_text}\n")

    def layer_metrics(self, passes: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics per traced pass, and the metrics whose layer is absent."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        own_ns = [end - start - child_ns[i] for i, (_, start, end, *_) in enumerate(spans)]
        calls: dict[str, int] = {}
        incl: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for (name, start, end, *_), own in zip(spans, own_ns):
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + end - start
            self_ns[name] = self_ns.get(name, 0) + own

        out: dict[str, float] = {}
        absent: list[str] = []

        def put(metric, value, *needs):
            if any(n not in self._hooked_spans for n in needs):
                absent.append(metric)
                value = 0.0
            out[metric] = float(value)

        # cli spans are opened by the benchmark itself, so they are never absent
        for cmd in ("table1", "table2", "table3", "table4", "properties"):
            put(f"cli.{cmd}_s", incl.get(f"cli.{cmd}", 0) / 1e9 / passes)
        for name in ("analysis.measure_errors", "solver.thomas_solve", "solver.bootstrap",
                     "solver.apply_compact_H", "kernel.c_weights", "kernel.a_coeff", "kernel.b_coeff",
                     "problem.validate_on_grid", COEF_SPAN):
            put(f"{name}.calls", calls.get(name, 0) / passes, name)
            put(f"{name}.self_s", self_ns.get(name, 0) / 1e9 / passes, name)
        put("solver.solve.calls", calls.get("solver.solve", 0) / passes, "solver.solve")
        put("solver.solve.s", incl.get("solver.solve", 0) / 1e9 / passes, "solver.solve")

        thomas = [(s, own) for s, own in zip(spans, own_ns) if s[0] == "solver.thomas_solve"]
        rows = sum(s[5] for s, _ in thomas if s[5] is not None)
        put("solver.thomas_solve.ns_per_row", sum(own for _, own in thomas) / rows if rows else 0.0,
            "solver.thomas_solve")
        boot = {i for i, s in enumerate(spans) if s[0] == "solver.bootstrap"}
        put("solver.bootstrap.substeps", sum(1 for s, _ in thomas if s[3] in boot) / passes,
            "solver.bootstrap", "solver.thomas_solve")

        # per-level step records: (history length j, row length N+1, duration, self time)
        steps = [(s[5][0], s[5][1], s[2] - s[1], own) for s, own in zip(spans, own_ns)
                 if s[0] == "solver.step" and s[5] is not None]
        put("solver.step.self_s", self_ns.get("solver.step", 0) / 1e9 / passes, "solver.step")
        terms = sum(j * n for j, n, _, _ in steps)
        put("solver.history.ns_per_term", sum(st[3] for st in steps) / terms if terms else 0.0, "solver.step")
        slope = base = p50 = p99 = 0.0
        if steps:
            j = np.array([st[0] for st in steps], dtype=float)
            dur = np.array([st[2] for st in steps], dtype=float)
            if np.ptp(j) > 0:
                slope, base = np.polyfit(j, dur, 1)
            p50, p99 = np.percentile(dur, [50, 99])
        put("solver.level.slope_us_per_j", slope / 1e3, "solver.step")
        put("solver.level.base_ms", base / 1e6, "solver.step")
        put("solver.level_s.p50", p50 / 1e9, "solver.step")
        put("solver.level_s.p99", p99 / 1e9, "solver.step")
        sizes = [s[5] for s in spans if s[0] == "solver.solve" and s[5] is not None]
        put("solver.layers_bytes", 8 * max(sizes, default=0), "solver.solve")
        for name in LEMMA_CHECKS + ("run_all_checks",):
            put(f"lemmas.{name}.s", incl.get(f"lemmas.{name}", 0) / 1e9 / passes, f"lemmas.{name}")
        return out, absent


def _resolve_owner(module: str, attr: str):
    """The object that holds `attr` (a module, or a class for `Class.method`), or None."""
    try:
        owner = importlib.import_module(f"fracheat.{module}")
    except ImportError:
        return None
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner
