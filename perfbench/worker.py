"""One benchmark process: set up a workload, run timed passes, check the outputs.

Started by run.py with the package on PYTHONPATH.  It prints `READY` once
the workload is set up (imports done, configs and problems built), then one
JSON line with the pass times, the check results and, when traced, the
per-layer metrics.  With --setup-only it exits after `READY`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = json.loads((HERE / "reference.json").read_text())
PROPERTY_CHECKS = 11  # lines printed by `fracheat --properties` at the reference commit
CELL_FIELDS = ("err_L2", "co_L2", "err_C", "co_C", "err_grad", "co_grad")


class Part:
    """One timed unit of a pass: what it runs, its input size and how many checks its output gets."""

    def __init__(self, name: str, n_checks: int, nodes: int, data: tuple) -> None:
        self.name = name
        self.n_checks = n_checks
        self.nodes = nodes
        self.data = data


class CliWorkload:
    """`fracheat` commands run in-process through `cli.run`, output captured."""

    def __init__(self, commands: list[tuple[list[str], str | None, dict | None]]) -> None:
        from fracheat import cli

        self.cli = cli
        self.excluded = set(REFERENCE["excluded_cells"])
        self.parts = []
        for argv, label, ref in commands:
            config = cli.parse_args(argv + ["--jobs", "1"])
            if ref is None:  # --properties
                n_checks, nodes = PROPERTY_CHECKS, 0
            else:
                n_checks = sum(1 for cid, _ in self._cells(label, ref))
                nodes = sum((m + 1) * (n + 1) for rungs in ref["ladders"].values() for m, n in rungs)
            self.parts.append(Part(config.command, n_checks, nodes, (config, label, ref)))
        self.describe = "; ".join(f"fracheat {' '.join(argv)} --jobs 1" for argv, _, _ in commands)

    def _cells(self, label: str, ref: dict):
        """(cell id, (alpha, rung, field, reference value)) for every checked cell."""
        for a, rows in ref["cells"].items():
            for r, row in enumerate(rows):
                for field, expect in zip(CELL_FIELDS, row):
                    cid = f"{label} a={a} rung{r} {field}"
                    if expect is not None and cid not in self.excluded:
                        yield cid, (a, r, field, expect)

    def run(self, part: Part, tracer) -> str:
        config = part.data[0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                status = self.cli.run(config)
            else:
                with tracer.span(f"cli.{config.command}"):
                    status = self.cli.run(config)
        if status not in (0, 1) or (status == 1 and config.command != "properties"):
            raise RuntimeError(f"fracheat {config.command} exited with status {status}")
        return buf.getvalue()

    def check(self, part: Part, text: str) -> list[tuple[str, bool]]:
        _, label, ref = part.data
        if ref is None:
            lines = [ln for ln in text.splitlines() if ln.startswith(("PASS ", "FAIL "))]
            results = [(f"properties {ln[6:].split(':')[0]}", ln.startswith("PASS ")) for ln in lines]
            missing = PROPERTY_CHECKS - len(results)
            return results[:PROPERTY_CHECKS] + [(f"properties missing #{i}", False) for i in range(missing)]
        rows = {}
        for row in csv.DictReader(io.StringIO(text)):
            rows.setdefault(float(row["alpha"]), []).append(row)
        for a, ladder in ref["ladders"].items():
            got = rows.get(float(a), [])
            if len(got) != len(ladder) or not all(
                math.isclose(float(row["tau"]), 1.0 / m, rel_tol=1e-12)
                and math.isclose(float(row["h"]), 1.0 / n, rel_tol=1e-12)
                for row, (m, n) in zip(got, ladder)
            ):
                raise RuntimeError(f"{label} a={a}: rows do not match the reference ladder {ladder}")
        out = []
        for cid, (a, r, field, expect) in self._cells(label, ref):
            value = float(rows[float(a)][r][field])
            ok = 0.5 <= value / expect <= 2.0 if field.startswith("err") else abs(value - expect) <= 0.1
            out.append((cid, ok))
        return out


class StressWorkload:
    """One order2 and one compact4 solve on the manufactured case, alpha from the seed."""

    def __init__(self, seed: int) -> None:
        from fracheat import analysis, solver
        from fracheat.kernel import AlphaParam
        from fracheat.problem import Coefficients, GridSpec, manufactured_case

        ref = REFERENCE["stress"]
        self.alpha_value = ref["alphas"][seed % len(ref["alphas"])]
        self.alpha = AlphaParam(self.alpha_value)
        self.grid = GridSpec(N=ref["grid"]["N"], M=ref["grid"]["M"])
        self.analysis, self.solver = analysis, solver
        self.rel_tol = ref["rel_tol"]
        nodes = (self.grid.M + 1) * (self.grid.N + 1)
        self.parts = [
            Part(scheme, 4, nodes, (solver.SchemeKind(scheme),
                                    manufactured_case(self.alpha, Coefficients(variant)),
                                    ref["errors"][f"{scheme} a={self.alpha_value}"]))
            for scheme, variant in ref["solves"]
        ]
        self.describe = (f"solve + measure_errors, schemes {', '.join(p.name for p in self.parts)}, "
                         f"M={self.grid.M} N={self.grid.N} alpha={self.alpha_value}")

    def run(self, part: Part, tracer):
        scheme, case, _ = part.data
        if tracer is not None:
            case = tracer.wrap_case(case)
        history = self.solver.solve(case.problem, self.grid, self.alpha, scheme)
        return history, self.analysis.measure_errors(history, case.u_exact)

    def check(self, part: Part, output) -> list[tuple[str, bool]]:
        import numpy as np

        history, report = output
        expect = part.data[2]
        got = (report.err_L2, report.err_C, report.err_grad)
        return [(f"{part.name} layers finite", bool(np.isfinite(history.layers).all()))] + [
            (f"{part.name} {name}", math.isclose(g, e, rel_tol=self.rel_tol))
            for name, g, e in zip(("err_L2", "err_C", "err_grad"), got, expect)
        ]


def build(workload: str, seed: int):
    tables = REFERENCE["tables"]
    if workload == "paper_tables":
        commands = [(["--table", t], f"table{t}", tables[t]) for t in ("1", "2", "3", "4")]
        commands.append((["--properties"], None, None))
        return CliWorkload(commands)
    if workload == "fine_h":
        n = str(REFERENCE["fine_h"]["ladders"]["0.3"][0][1])  # every rung shares N = 50000
        return CliWorkload([(["--table", "2", "--N", n], "fine_h", REFERENCE["fine_h"])])
    return StressWorkload(seed)


def run_part(work, part: Part, tracer, result) -> float | None:
    """Run one part, check its output; its seconds, or None when the operation failed."""
    result["operations"] += 1
    output = elapsed = None
    try:
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            output = work.run(part, tracer)
            elapsed = time.perf_counter() - start
        checks = work.check(part, output)
    except Exception:  # a failed operation is counted and reported, never fatal
        traceback.print_exc(file=sys.stderr)
        result["failed_operations"] += 1
        elapsed = None
        checks = [(f"{part.name} check #{i}", False) for i in range(part.n_checks)]
    del output
    failed = {cid for cid, ok in checks if not ok}
    result["failed_checks"] = sorted(set(result["failed_checks"]) | failed)
    return elapsed


def run_pass(work, result, tracer=None, traced_first=False):
    """Run every part once untraced and, with a tracer, once traced right beside it.

    Pairing the two runs of a part keeps slow drift in machine speed out of
    the tracing overhead; alternating which goes first cancels warm-up.
    """
    plain: dict[str, float] = {}
    traced: dict[str, float] = {}
    for part in work.parts:
        modes = [None] if tracer is None else ([tracer, None] if traced_first else [None, tracer])
        for mode in modes:
            elapsed = run_part(work, part, mode, result)
            if elapsed is not None:
                (plain if mode is None else traced)[part.name] = elapsed
    return plain, traced


def wall(passes: list[dict[str, float]]) -> float:
    """Workload compute time: the sum over parts of each part's median time."""
    names = {n for p in passes for n in p}
    return sum(statistics.median(p[n] for p in passes if n in p) for n in names)


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": None,
        "blas_threads_setting": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                                 if k in os.environ} or "default (not pinned)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), env["cpu"])
        with open("/proc/self/maps") as fh:  # numpy's BLAS runs the history sums
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()}, key=lambda p: "numpy" not in p)
        blas = ctypes.CDLL(libs[0]) if libs else None
    except OSError:
        blas = None
    for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
        getter = getattr(blas, f"{prefix}openblas_get_num_threads{suffix}", None)
        config = getattr(blas, f"{prefix}openblas_get_config{suffix}", None)
        if getter is not None and config is not None:
            getter.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            env["blas_threads"] = getter()
            env["blas"] = config().decode()
            break
    return env


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("paper_tables", "fine_h", "stress"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import fracheat

    if not pathlib.Path(fracheat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported fracheat from {fracheat.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import fracheat.lemmas  # noqa: F401  (imported lazily by `--properties`; load it before timing)

    work = build(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    result = {"operations": 0, "failed_operations": 0, "failed_checks": []}
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    # Whole passes only: start another while its projected end stays within --seconds.
    while not plain or time.perf_counter() - start + longest <= args.seconds:
        t0 = time.perf_counter()
        # the seed picks which of a pair goes first, so the order bias cancels over runs
        times, traced_times = run_pass(work, result, tracer, traced_first=(len(plain) + args.seed) % 2 == 1)
        plain.append(times)
        if tracer is not None:
            traced.append(traced_times)
        longest = max(longest, time.perf_counter() - t0)

    result.update(
        workload=args.workload,
        seed=args.seed,
        input=work.describe,
        alpha=getattr(work, "alpha_value", None),
        grid_nodes=sum(p.nodes for p in work.parts),
        checks=sum(p.n_checks for p in work.parts),
        plain_passes=plain,
        wall_s=wall(plain),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    if tracer is not None:
        layers, absent = tracer.layer_metrics(len(traced))
        layers["trace.overhead_share"] = (wall(traced) - result["wall_s"]) / result["wall_s"]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        result.update(traced_passes=traced, traced_wall_s=wall(traced), layers=layers,
                      absent_metrics=absent, absent_hooks=sorted(tracer.absent),
                      spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
