"""The committed benchmark records (BENCH_*.json) against BENCHMARK.json.

A record compares a parent commit with a change, workload by workload, in
the end-to-end metrics BENCHMARK.json declares.  Its claim must name a
declared workload and metric, and every workload it lists must be declared
and carry a parent and a change median of each end-to-end metric.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_claim_and_medians_match_the_benchmark(path):
    record = json.loads(path.read_text())
    claimed = record["claimed"]
    assert claimed["workload"] in WORKLOADS, f"claimed workload {claimed['workload']!r} is not declared"
    assert claimed["metric"] in END_TO_END, f"claimed metric {claimed['metric']!r} is not end-to-end"
    assert claimed["workload"] in record["workloads"], "the claimed workload has no runs"
    for name, sides in record["workloads"].items():
        assert name in WORKLOADS, f"workload {name!r} is not declared"
        for side in ("parent", "change"):
            summary = sides[side]["summary"]
            for metric in END_TO_END:
                median = summary[metric]["median"]
                assert isinstance(median, (int, float)) and math.isfinite(median), (name, side, metric)
