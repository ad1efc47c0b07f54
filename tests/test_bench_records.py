"""Checked-in benchmark records.

Each ``BENCH_*.json`` at the repository root is the last line printed by
``perfbench/run.py --workload all``: it must come from a run whose answers
all checked out, and hold every end-to-end metric that ``BENCHMARK.json``
declares, for every workload.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def end_to_end_keys():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]}


def test_end_to_end_keys():
    assert len(end_to_end_keys()) == 15


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_is_a_complete_correct_run(path):
    record = json.loads(path.read_text())
    assert record["correct"] is True
    assert record["failed"] == 0
    assert end_to_end_keys() <= set(record["metrics"])
