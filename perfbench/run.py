"""fracheat benchmark driver.

    python3 perfbench/run.py --workload {paper_tables,fine_h,stress} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in a fresh worker process
(perfbench/worker.py) that imports the package from ./src.  With --trace 0
the last stdout line carries the end-to-end metrics of BENCHMARK.json; with
--trace 1 it carries the per-layer metrics, taken from a traced pass and
compared with a plain pass in the same process.  A record of the run
(environment, pass times, checks, absent layers) goes to
.perfbench_out/<workload>-seed<N>-trace<T>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 4  # extra fresh processes timed to ready; with the worker's own set-up, 5 samples
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class Worker:
    """A worker process with a kill-on-deadline watchdog."""

    def __init__(self, args: list[str], deadline: float) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def ready(self) -> float | None:
        """Seconds from spawn to the worker's READY line, or None if it never came."""
        line = self.proc.stdout.readline()
        return time.perf_counter() - self.start if line.strip() == "READY" else None

    def finish(self) -> tuple[int, str]:
        try:
            out = self.proc.stdout.read()
            return self.proc.wait(), out
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fracheat" / "__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'fracheat'}; the benchmark runs fracheat from ./src")

    deadline = time.monotonic() + DEADLINE_S
    wargs = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe = Worker(wargs + ["--setup-only"], deadline)
            setups.append(probe.ready())
            if probe.finish()[0] != 0 or setups[-1] is None:
                return fail("a set-up probe failed")
    worker = Worker(wargs, deadline)
    setups.append(worker.ready())
    status, out = worker.finish()
    lines = out.strip().splitlines()
    if status != 0 or setups[-1] is None or not lines:
        return fail(f"worker exited with status {status}")
    res = json.loads(lines[-1])

    known = json.loads((HERE / "reference.json").read_text())["known_failures"]
    unexpected = [c for c in res["failed_checks"] if c not in known]
    correct = res["failed_operations"] == 0 and not unexpected
    fail_share = len(res["failed_checks"]) / res["checks"]
    n_plain = len(res["plain_passes"])
    computed = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (res["wall_s"], "s"),
        "grid_nodes_per_s": (res["grid_nodes"] / res["wall_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "fail_share": (fail_share, "ratio"),
        "checks": (res["checks"], "count"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes, spawn to ready",
        "wall_s": f"sum over {len(res['plain_passes'][0])} parts of the median of {n_plain} untraced passes",
        "grid_nodes_per_s": f"input: {res['grid_nodes']} grid nodes, sum of (M+1)(N+1) over solves",
        "peak_rss_mb": "ru_maxrss of the worker process",
        "fail_share": f"{len(res['failed_checks'])} of {res['checks']} checks failed",
        "checks": "correctness checks per pass",
    }
    if args.trace:
        metrics = {m["name"]: (res["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: (computed[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}

    env = dict(res["environment"], commit=git_commit())
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print(f"input: {res['input']}")
    if args.workload != "stress":
        print("seed: this workload is fixed by the paper protocol; the seed leaves it unchanged")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("end-to-end" + (" (untraced pass of this traced run)" if args.trace else "") + ":")
    for name, (value, unit) in computed.items():
        if name != "setup_s" or not args.trace:
            print(f"  {name:<18} {value:<14.6g} {unit:<6} {notes[name]}")
    for cid in res["failed_checks"]:
        print(f"  failed check: {cid}" + (f"  [known: {known[cid]}]" if cid in known else "  [UNEXPECTED]"))
    if args.trace:
        print(f"per-layer (per traced pass, {len(res['traced_passes'])} traced, {res['spans']} spans "
              f"in {res['spans_file']}):")
        for name, value in res["layers"].items():
            print(f"  {name:<40} {value:.6g}" + ("  [absent]" if name in res["absent_metrics"] else ""))
        print(f"absent hooks: {', '.join(res['absent_hooks']) or 'none'}")

    OUT_DIR.mkdir(exist_ok=True)
    record = dict(res, setup_samples_s=setups, environment=env, correct=correct,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in computed.items()})
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": res["operations"],
        "failed": res["failed_operations"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
