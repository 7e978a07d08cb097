"""Command-line front end for the experiment and verification harness.

Exit status: 0 on success, 1 when a `--properties` check fails, 2 on a
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .analysis import ExperimentSpec, run_experiment, sci6, tables_to_csv, tables_to_markdown
from .baselines import TABLE_ALPHAS, experiment_spec
from .kernel import AlphaParam
from .solver import SchemeKind

__all__ = ["RunConfig", "main", "parse_args", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # one-line diagnostic, status 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _alpha_value(text: str) -> float:
    try:
        return AlphaParam(float(text)).alpha
    except ValueError as exc:  # not a number, or outside (0, 1)
        raise argparse.ArgumentTypeError(str(exc)) from None


def _alpha_list(text: str) -> list[float]:
    values = [_alpha_value(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} names no fractional order")
    return values


@dataclass(frozen=True)
class RunConfig:
    command: str  # table1..table4 | single | properties
    specs: tuple[ExperimentSpec, ...] = ()  # one per alpha for a table, one one-rung spec for --single
    output_path: str | None = None
    format: str = "csv"


def parse_args(argv: list[str]) -> RunConfig:
    parser = _Parser(
        prog="fracheat",
        description="Convergence experiments and lemma checks for the "
        "fractional-diffusion difference schemes.",
    )
    parser.add_argument("--table", type=int, choices=(1, 2, 3, 4),
                        help="run one of the built-in convergence experiments")
    parser.add_argument("--properties", action="store_true",
                        help="run the coefficient/energy/truncation check suite")
    parser.add_argument("--single", action="store_true",
                        help="one solve on an explicit grid; needs --N and --M")
    parser.add_argument("--alpha", type=_alpha_list, default=None,
                        help="comma-separated fractional orders in (0, 1)")
    parser.add_argument("--scheme", choices=("order2", "compact"), default=None,
                        help="spatial scheme for --single (tables pick their own)")
    parser.add_argument("--depth", type=int, default=None, help="ladder depth override")
    parser.add_argument("--N", type=int, default=None, help="spatial subintervals")
    parser.add_argument("--M", type=int, default=None, help="time steps (--single)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "md"), default=None, help="table format (default csv)")
    # perfbench/worker.py appends `--jobs 1` to every command; drop this with it (ROADMAP item 18)
    parser.add_argument("--jobs", type=int, choices=(1,), help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)

    chosen = [name for name, on in
              (("table", ns.table is not None), ("properties", ns.properties), ("single", ns.single))
              if on]
    if len(chosen) != 1:
        parser.error("choose exactly one of --table, --properties, --single")
    unused = {"table": ("scheme", "M"), "single": ("depth", "format"),
              "properties": ("alpha", "N", "M", "depth", "scheme", "format")}[chosen[0]]
    given = [f"--{name}" for name in unused if getattr(ns, name) is not None]
    if given:
        parser.error(f"{', '.join(given)}: not used by --{chosen[0]}")

    if ns.properties:
        return RunConfig(command="properties", output_path=ns.out)
    if ns.single and (ns.N is None or ns.M is None or not ns.alpha):
        parser.error("--single needs --N, --M and --alpha")
    if ns.single and len(ns.alpha) != 1:
        parser.error("--alpha: --single takes exactly one value")
    try:  # the specs and their grids own the ranges of --N, --M and --depth
        if ns.single:
            scheme = SchemeKind.COMPACT4 if ns.scheme == "compact" else SchemeKind.ORDER2
            specs = (ExperimentSpec(ns.alpha[0], scheme, ((ns.M, ns.N),)),)
        else:
            specs = tuple(experiment_spec(ns.table, alpha, depth=ns.depth, n_override=ns.N)
                          for alpha in ns.alpha or TABLE_ALPHAS[ns.table])
    except ValueError as exc:
        parser.error(str(exc))
    return RunConfig(command="single" if ns.single else f"table{ns.table}", specs=specs,
                     output_path=ns.out, format=ns.format or "csv")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _run_table(config: RunConfig) -> int:
    tables = [run_experiment(spec) for spec in config.specs]
    render = tables_to_csv if config.format == "csv" else tables_to_markdown
    _emit(render(tables), config.output_path)
    return 0


def _run_single(config: RunConfig) -> int:
    (spec,) = config.specs
    ((m_steps, n_sub),) = spec.rungs
    (row,) = run_experiment(spec).rows
    _emit(
        f"alpha={spec.alpha} scheme={spec.scheme.value} N={n_sub} M={m_steps} "
        f"err_L2={sci6(row.err_L2)} err_C={sci6(row.err_C)} err_grad={sci6(row.err_grad)}\n",
        config.output_path,
    )
    return 0


def _run_properties(config: RunConfig) -> int:
    from .lemmas import run_all_checks

    results = run_all_checks()
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}" for r in results]
    _emit("\n".join(lines) + "\n", config.output_path)
    return 0 if all(r.passed for r in results) else 1


def run(config: RunConfig) -> int:
    try:
        if config.command.startswith("table"):
            return _run_table(config)
        if config.command == "single":
            return _run_single(config)
        return _run_properties(config)
    except OSError as exc:
        print(f"error: cannot write {config.output_path}: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> None:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
