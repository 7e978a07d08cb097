"""The README's examples stay valid: every CLI line parses, and the Library snippet runs."""

import re
import shlex
from pathlib import Path

from fracheat.cli import parse_args

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _first_block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_every_cli_example_parses():
    lines = [line for line in _first_block("CLI", "bash").splitlines() if line.startswith("fracheat ")]
    assert len(lines) >= 9
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        parse_args(argv)  # a configuration error raises SystemExit


def test_library_snippet_runs(capsys):
    exec(compile(_first_block("Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("ErrorReport(err_L2=")
