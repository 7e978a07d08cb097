"""Flag parsing, exit codes, output determinism, file writing, import weight."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracheat.analysis import ExperimentSpec
from fracheat.baselines import experiment_spec
from fracheat.cli import parse_args, run
from fracheat.lemmas import CheckResult
from fracheat.solver import SchemeKind


def test_parse_table_defaults():
    cfg = parse_args(["--table", "1"])
    assert cfg.command == "table1"
    assert cfg.specs == tuple(experiment_spec(1, a) for a in (0.1, 0.5, 0.9))
    assert cfg.format == "csv"
    cfg = parse_args(["--table", "4"])
    assert [spec.alpha for spec in cfg.specs] == [0.3, 0.5, 0.7]
    assert {spec.scheme for spec in cfg.specs} == {SchemeKind.COMPACT4}


def test_parse_table_with_alpha_list():
    cfg = parse_args(["--table", "1", "--alpha", "0.5,0.9", "--depth", "2", "--format", "md"])
    assert [spec.alpha for spec in cfg.specs] == [0.5, 0.9]
    assert [len(spec.rungs) for spec in cfg.specs] == [2, 2]
    assert cfg.format == "md"
    cfg = parse_args(["--table", "2", "--N", "50000"])
    assert {rung[1] for spec in cfg.specs for rung in spec.rungs} == {50000}


def test_parse_single():
    cfg = parse_args(["--single", "--N", "18", "--M", "10", "--alpha", "0.5"])
    assert cfg.command == "single"
    assert cfg.specs == (ExperimentSpec(0.5, SchemeKind.ORDER2, ((10, 18),)),)
    cfg = parse_args(["--single", "--N", "21", "--M", "40", "--alpha", "0.5", "--scheme", "compact"])
    assert cfg.specs == (ExperimentSpec(0.5, SchemeKind.COMPACT4, ((40, 21),)),)


def test_parse_properties():
    cfg = parse_args(["--properties"])
    assert cfg.command == "properties"
    # every benchmark command passes --jobs 1, --properties included
    assert parse_args(["--properties", "--jobs", "1"]).command == "properties"


@pytest.mark.parametrize(
    "argv",
    [
        ["--table", "1", "--alpha", "1.5"],
        ["--table", "1", "--alpha", "abc"],
        ["--table", "7"],
        ["--bogus"],
        [],
        ["--table", "1", "--single"],
        ["--single", "--N", "10"],
        ["--table", "1", "--depth", "0"],
        ["--table", "1", "--jobs", "0"],
        ["--single", "--N", "1", "--M", "5", "--alpha", "0.5"],
        ["--single", "--N", "8", "--M", "0", "--alpha", "0.5"],
        ["--table", "1", "--N", "1"],
        ["--table", "1", "--scheme", "compact"],
        ["--table", "1", "--M", "10"],
        ["--single", "--N", "8", "--M", "4", "--alpha", "0.5", "--depth", "3"],
        ["--single", "--N", "8", "--M", "4", "--alpha", "0.5", "--jobs", "4"],
        ["--properties", "--alpha", "0.5"],
        ["--properties", "--N", "8"],
        ["--properties", "--M", "4"],
        ["--properties", "--depth", "2"],
        ["--properties", "--scheme", "order2"],
        ["--single", "--N", "8", "--M", "4", "--alpha", "0.5", "--format", "md"],
        ["--properties", "--format", "md"],
        ["--table", "1", "--alpha", ","],
        ["--table", "1", "--alpha", ""],
        ["--table", "1", "--jobs", "2"],
    ],
)
def test_configuration_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--single", "--N", "1", "--M", "5", "--alpha", "0.5"], "N must be an integer >= 2, got 1"),
        (["--single", "--N", "8", "--M", "0", "--alpha", "0.5"], "M must be an integer >= 1, got 0"),
        (["--table", "1", "--depth", "0"], "depth must be an integer >= 1, got 0"),
        (["--table", "1", "--N", "1"], "N must be an integer >= 2, got 1"),
        (["--table", "2", "--alpha", "0.3", "--N", "-4"], "N must be an integer >= 2, got -4"),
    ],
)
def test_range_errors_carry_the_owners_message(argv, message, capsys):
    # GridSpec owns the range of --N and --M, experiment_spec that of --depth
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--table", "2"],
        ["--table", "2", "--N", "50000"],
        ["--properties"],
        ["--single", "--N", "8", "--M", "4", "--alpha", "0.5"],
    ],
)
def test_jobs_1_is_accepted_and_changes_nothing(argv):
    # perfbench/worker.py appends --jobs 1 to every command it runs
    assert parse_args(argv + ["--jobs", "1"]) == parse_args(argv)


def test_single_run_output_line(capsys):
    cfg = parse_args(["--single", "--N", "18", "--M", "10", "--alpha", "0.5"])
    assert run(cfg) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("alpha=0.5 scheme=order2 N=18 M=10 err_L2=")
    assert "e-" in out


def test_table_output_deterministic(capsys):
    cfg = parse_args(["--table", "1", "--alpha", "0.5", "--depth", "2"])
    assert run(cfg) == 0
    first = capsys.readouterr().out
    assert run(cfg) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("alpha,tau,h,")


def test_table_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    cfg = parse_args(["--table", "1", "--alpha", "0.5", "--depth", "1", "--out", str(target)])
    assert run(cfg) == 0
    assert capsys.readouterr().out == ""
    body = target.read_text()
    assert body.startswith("alpha,tau,h,")
    assert len(body.strip().split("\n")) == 2


def test_properties_exit_zero_when_all_pass(monkeypatch, capsys):
    import fracheat.lemmas

    monkeypatch.setattr(
        fracheat.lemmas, "run_all_checks",
        lambda: [CheckResult("stub", True, "ok")],
    )
    assert run(parse_args(["--properties"])) == 0
    assert "PASS  stub" in capsys.readouterr().out


def test_properties_exit_one_on_failure(monkeypatch, capsys):
    import fracheat.lemmas

    monkeypatch.setattr(
        fracheat.lemmas, "run_all_checks",
        lambda: [CheckResult("good", True, "ok"), CheckResult("bad", False, "broken")],
    )
    assert run(parse_args(["--properties"])) == 1
    out = capsys.readouterr().out
    assert "FAIL  bad" in out


def test_properties_full_suite_passes(capsys):
    assert run(parse_args(["--properties"])) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 11 and "FAIL" not in out


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    cfg = parse_args(["--table", "1", "--alpha", "0.5", "--depth", "1", "--out", str(tmp_path)])
    assert run(cfg) == 2
    assert "cannot write" in capsys.readouterr().err


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports the package from ./src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # the package needs only the compiled LAPACK module under scipy.linalg,
    # not scipy.linalg itself, and no process pool at all; the lemma suite
    # is imported too, since `--properties` loads it
    heavy = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse", "scipy.linalg",
             "concurrent.futures")
    code = f"import sys, fracheat.cli, fracheat.lemmas; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    assert _fresh_python(code).strip() == "[]"


def test_import_starts_no_thread_and_resolves_no_blas_symbol():
    # the OpenBLAS thread-count calls are looked up at the first solve, and
    # the look-ahead helper is started by a march, not by an import
    code = (
        "import ctypes, threading\n"
        "opened = []\n"
        "class Recording(ctypes.CDLL):\n"
        "    def __init__(self, name, *args, **kwargs):\n"
        "        opened.append(name)\n"
        "        super().__init__(name, *args, **kwargs)\n"
        "ctypes.CDLL = Recording\n"
        "import fracheat.cli, fracheat.lemmas\n"
        "from fracheat import solver\n"
        "print(threading.active_count(), opened, solver._one_blas_thread._calls)\n"
    )
    assert _fresh_python(code).split() == ["1", "[]", "None"]


def test_lookahead_solves_on_a_thread_that_outlives_the_main_thread():
    # a non-daemon thread solves after the main thread has ended, while the
    # interpreter shuts down; the look-ahead still starts its helper there
    code = (
        "import dataclasses, threading, time\n"
        "from fracheat import AlphaParam, GridSpec, manufactured_case, solve, solver\n"
        "case = manufactured_case(AlphaParam(0.5))\n"
        "grid = GridSpec(N=16, M=6)\n"
        "want = solve(case.problem, grid, case.alpha).layers.tobytes()\n"
        "solver._LOOKAHEAD_MIN_N = 1\n"
        "solver._usable_cpus = lambda: 2\n"
        "solver._one_blas_thread.found = lambda: True\n"
        "names = set()\n"
        "def f(x, t, field=case.problem.f):\n"
        "    names.add(threading.current_thread().name)\n"
        "    return field(x, t)\n"
        "problem = dataclasses.replace(case.problem, f=f)\n"
        "def late():\n"
        "    while threading.main_thread().is_alive():\n"
        "        time.sleep(0.001)\n"
        "    got = solve(problem, grid, case.alpha).layers.tobytes()\n"
        "    print(got == want, *sorted(names))\n"
        "threading.Thread(target=late).start()\n"
    )
    assert _fresh_python(code).split() == ["True", "fracheat-lookahead"]


def test_scipy_linalg_imported_later_reuses_the_loaded_lapack_module():
    code = (
        "import fracheat, scipy.linalg.lapack as lapack; from fracheat import solver; "
        "print(lapack.dgttrf is solver.lapack.dgttrf, lapack.dgttrs is solver.lapack.dgttrs, "
        "lapack._flapack is solver.lapack)"
    )
    assert _fresh_python(code).split() == ["True"] * 3


def test_lapack_module_already_imported_is_reused():
    code = (
        "import sys, scipy.linalg, fracheat; from fracheat import solver; "
        "print(solver.lapack is sys.modules['scipy.linalg._flapack'])"
    )
    assert _fresh_python(code).strip() == "True"


_SOLVE_DIGEST = """
import hashlib
from fracheat import AlphaParam, Coefficients, GridSpec, SchemeKind, manufactured_case, solve, solver
digest = hashlib.sha256()
for scheme, variant in ((SchemeKind.ORDER2, Coefficients.VARIABLE_XT), (SchemeKind.COMPACT4, Coefficients.TIME_ONLY)):
    case = manufactured_case(AlphaParam(0.5), variant)
    digest.update(solve(case.problem, GridSpec(N=12, M=8), case.alpha, scheme).layers.tobytes())
print(solver.lapack.__name__, digest.hexdigest())
"""

_NO_SPEC = """
from importlib.machinery import PathFinder
real = PathFinder.find_spec
def first_lookup_finds_nothing(name, path=None, target=None):
    if name != "scipy.linalg._flapack":
        return real(name, path, target)
    PathFinder.find_spec = classmethod(real.__func__)  # the fallback's own import finds it
    return None
PathFinder.find_spec = first_lookup_finds_nothing
"""


def test_fallback_to_scipy_linalg_lapack_gives_the_same_layers():
    name, loaded = _fresh_python(_SOLVE_DIGEST).split()
    fallback_name, fallback = _fresh_python(_NO_SPEC + _SOLVE_DIGEST).split()
    assert (name, fallback_name) == ("scipy.linalg._flapack", "scipy.linalg.lapack")
    assert fallback == loaded
