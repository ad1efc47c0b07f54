#!/usr/bin/env python3
"""Write the expected answers of every workload's instance pool to
``expected/<workload>.json``.

Each answer comes from a path other than the one the benchmark times:
d3sat from the verdict gnt1 and gnt2 agree on, qbf_gw from the exhaustive
validity oracle, partial from gnt1 enumerating every model of ``tr``.  Each
entry also records ``work``, the timed path's search expansions, used only to
stratify the samples.  Run it from the repository root, after a change to a
workload's parameters or generator:

    python3 perfbench/make_expected.py [--workload d3sat|qbf_gw|partial]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import aspunfold as A  # noqa: E402

from workloads import EXPECTED_DIR, WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = ap.parse_args()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        entries = []
        for pool_id in range(w.pool_size):
            entries.append(w.expect(A, w.make(A, pool_id)))
            if pool_id % 100 == 99:
                print(f"{name}: {pool_id + 1}/{w.pool_size}", file=sys.stderr, flush=True)
        doc = {"workload": name, "params": w.params, "entries": entries}
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
