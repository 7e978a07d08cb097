"""Command-line front end for the experiment and verification harness.

Exit status: 0 on success, 1 when a `--properties` check fails, 2 on a
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .analysis import ConvergenceTable, measure_errors, run_experiment, sci6, tables_to_csv, tables_to_markdown
from .baselines import TABLE_ALPHAS, experiment_spec
from .kernel import AlphaParam
from .problem import Coefficients, GridSpec, manufactured_case
from .solver import SchemeKind, solve

__all__ = ["RunConfig", "main", "parse_args", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # one-line diagnostic, status 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _alpha_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{value} must lie strictly inside (0, 1)")
    return value


def _alpha_list(text: str) -> list[float]:
    return [_alpha_value(part) for part in text.split(",") if part.strip()]


@dataclass(frozen=True)
class RunConfig:
    command: str  # table1..table4 | single | properties
    alpha_list: tuple[float, ...]
    scheme: SchemeKind
    output_path: str | None = None
    format: str = "csv"
    depth: int | None = None
    n_override: int | None = None
    m_steps: int | None = None
    jobs: int = 1
    table: int | None = None


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
    parser.add_argument("--format", choices=("csv", "md"), default="csv")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for ladder rungs")
    ns = parser.parse_args(argv)

    chosen = [name for name, on in
              (("table", ns.table is not None), ("properties", ns.properties), ("single", ns.single))
              if on]
    if len(chosen) != 1:
        parser.error("choose exactly one of --table, --properties, --single")
    if ns.depth is not None and ns.depth < 1:
        parser.error("--depth: ladder depth must be >= 1")
    if ns.jobs < 1:
        parser.error("--jobs: must be >= 1")
    if ns.N is not None and ns.N < 2:
        parser.error("--N: need at least 2 spatial subintervals")
    if ns.M is not None and ns.M < 1:
        parser.error("--M: need at least 1 time step")

    scheme = SchemeKind.COMPACT4 if ns.scheme == "compact" else SchemeKind.ORDER2
    if ns.table is not None:
        alphas = tuple(ns.alpha) if ns.alpha else TABLE_ALPHAS[ns.table]
        scheme = SchemeKind.ORDER2 if ns.table in (1, 2) else SchemeKind.COMPACT4
        return RunConfig(command=f"table{ns.table}", alpha_list=alphas, scheme=scheme,
                         output_path=ns.out, format=ns.format, depth=ns.depth,
                         n_override=ns.N, jobs=ns.jobs, table=ns.table)
    if ns.single:
        if ns.N is None or ns.M is None or not ns.alpha:
            parser.error("--single needs --N, --M and --alpha")
        if len(ns.alpha) != 1:
            parser.error("--alpha: --single takes exactly one value")
        return RunConfig(command="single", alpha_list=tuple(ns.alpha), scheme=scheme,
                         output_path=ns.out, format=ns.format,
                         n_override=ns.N, m_steps=ns.M)
    return RunConfig(command="properties", alpha_list=(), scheme=scheme,
                     output_path=ns.out, format=ns.format)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _run_table(config: RunConfig) -> int:
    tables: list[ConvergenceTable] = []
    for alpha in config.alpha_list:
        spec = experiment_spec(config.table, alpha, depth=config.depth, n_override=config.n_override)
        tables.append(run_experiment(spec, jobs=config.jobs))
    render = tables_to_csv if config.format == "csv" else tables_to_markdown
    _emit(render(tables), config.output_path)
    return 0


def _run_single(config: RunConfig) -> int:
    alpha = AlphaParam(config.alpha_list[0])
    variant = Coefficients.TIME_ONLY if config.scheme is SchemeKind.COMPACT4 else Coefficients.VARIABLE_XT
    case = manufactured_case(alpha, variant)
    grid = GridSpec(N=config.n_override, M=config.m_steps)
    history = solve(case.problem, grid, alpha, config.scheme)
    report = measure_errors(history, case.u_exact)
    _emit(
        f"alpha={alpha.alpha} scheme={config.scheme.value} N={grid.N} M={grid.M} "
        f"err_L2={sci6(report.err_L2)} err_C={sci6(report.err_C)} "
        f"err_grad={sci6(report.err_grad)}\n",
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
