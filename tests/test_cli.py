"""Flag parsing, exit codes, output determinism, file writing."""

import pytest

from fracheat.cli import parse_args, run
from fracheat.lemmas import CheckResult
from fracheat.solver import SchemeKind


def test_parse_table_defaults():
    cfg = parse_args(["--table", "1"])
    assert cfg.command == "table1"
    assert cfg.alpha_list == (0.1, 0.5, 0.9)
    assert cfg.scheme is SchemeKind.ORDER2
    assert cfg.format == "csv"
    cfg = parse_args(["--table", "4"])
    assert cfg.alpha_list == (0.3, 0.5, 0.7)
    assert cfg.scheme is SchemeKind.COMPACT4


def test_parse_table_with_alpha_list():
    cfg = parse_args(["--table", "1", "--alpha", "0.5,0.9", "--depth", "2", "--format", "md"])
    assert cfg.alpha_list == (0.5, 0.9)
    assert cfg.depth == 2
    assert cfg.format == "md"


def test_parse_single():
    cfg = parse_args(["--single", "--N", "18", "--M", "10", "--alpha", "0.5"])
    assert cfg.command == "single"
    assert (cfg.n_override, cfg.m_steps) == (18, 10)
    assert cfg.scheme is SchemeKind.ORDER2
    cfg = parse_args(["--single", "--N", "21", "--M", "40", "--alpha", "0.5", "--scheme", "compact"])
    assert cfg.scheme is SchemeKind.COMPACT4


def test_parse_properties():
    cfg = parse_args(["--properties"])
    assert cfg.command == "properties"


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
    ],
)
def test_configuration_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err


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
