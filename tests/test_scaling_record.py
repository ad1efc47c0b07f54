"""The checked-in scaling record.

Each line of ``SCALING.jsonl`` is the ``--json`` output of one command of
the README's Experiments block, in order.  Search counts repeat exactly on
every rerun, wall times do not, so the rows whose instances took under a
second in all are rerun and must repeat every field but the wall times.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Experiments\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line.split()[2:] for line in block.splitlines()]


def run(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "scaling.py")
    out = subprocess.run([sys.executable, script, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def without_wall(row):
    return {k: v for k, v in row.items() if not k.endswith("wall_s")}


def test_record_holds_one_line_per_command():
    lines = (ROOT / "SCALING.jsonl").read_text().splitlines()
    assert len(lines) == len(commands()) == 6
    rerun = 0
    for args, line in zip(commands(), lines):
        rows = json.loads(line)
        opts = dict(zip(args, args[1:]))
        i = args.index("--sizes")
        j = next(k for k in range(i + 1, len(args) + 1) if k == len(args) or args[k].startswith("--"))
        assert [r["size"] for r in rows] == [int(s) for s in args[i + 1 : j]]
        for row in rows:
            assert row["family"] == opts["--family"] and row["count"] == int(opts["--count"])
            assert row["mode"] == opts.get("--mode", "gnt2") and row["early_test"] == opts.get("--early-test", "on")
            if row["mean_wall_s"] * row["count"] < 1:
                quick = args[: i + 1] + [str(row["size"])] + args[j:]
                assert [without_wall(r) for r in run(quick)] == [without_wall(row)], quick
                rerun += 1
    assert rerun >= 5
