"""`fracheat --table 1..4` and `--properties` print exactly the committed files in tests/golden/.

A mismatch lists every changed cell (table, alpha, tau, column, old and new
value), or every changed `--properties` line, rather than a bare "differs".
After a change that is meant to move the numbers, regenerate the files from
the repository root with

    for t in 1 2 3 4; do PYTHONPATH=src python -m fracheat.cli --table $t > tests/golden/table$t.csv; done; PYTHONPATH=src python -m fracheat.cli --properties > tests/golden/properties.txt

and list the changed cells in CHANGES.md.  `--table 2 --N 50000` is left out
for its run time.
"""

import csv
import io
from itertools import zip_longest
from pathlib import Path

import pytest

from fracheat.cli import parse_args, run

GOLDEN = Path(__file__).resolve().parent / "golden"


def _printed(argv, capsys) -> str:
    assert run(parse_args(argv)) == 0
    return capsys.readouterr().out


def _changed_cells(table: int, old: str, new: str) -> list[str]:
    old_rows = list(csv.DictReader(io.StringIO(old)))
    new_rows = list(csv.DictReader(io.StringIO(new)))
    changes = [f"table {table}: {len(old_rows)} rows, now {len(new_rows)}"] if len(old_rows) != len(new_rows) else []
    for was, now in zip(old_rows, new_rows):
        changes += [f"table {table} alpha={was['alpha']} tau={was['tau']} {column}: {value} -> {now.get(column)}"
                    for column, value in was.items() if now.get(column) != value]
    return changes


@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_table_matches_golden(table, capsys):
    old = (GOLDEN / f"table{table}.csv").read_text()
    new = _printed(["--table", str(table)], capsys)
    assert new == old, _changed_cells(table, old, new) or ["bytes differ outside the cells"]


def test_properties_matches_golden(capsys):
    old = (GOLDEN / "properties.txt").read_text()
    new = _printed(["--properties"], capsys)
    changed = [f"{was!r} -> {now!r}" for was, now in zip_longest(old.splitlines(), new.splitlines())
               if was != now]
    assert new == old, changed or ["bytes differ outside the lines"]
