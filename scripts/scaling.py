#!/usr/bin/env python3
"""Search effort of the generate-and-test driver on the paper's two random
families as they grow: minimal-model 3-SAT (d3sat, n atoms at the threshold
ratio) and 2,exists-QBF under the gw and sqrt schemes (v variables), solved
for a first stable model through the disjunctive translation.

Per size it prints the solved count and the mean search counts; --json
prints one row per size with the means and medians of the counts and of the
solve's wall time.  With --verify, each instance small enough for its
exhaustive oracle is cross-checked against it, and the script exits 1 if
any answer disagrees.
"""

import argparse
import json
import statistics
import sys
import time

from aspunfold.bench import gen_d3sat_instance, gen_random_qbf
from aspunfold.gnt import GntConfig, solve_disjunctive
from aspunfold.qbf import qbf_to_program, qbf_valid_oracle
from aspunfold.semantics import DEFAULT_CAP, enumerate_stable_models

RATIO = 4.258  # clauses per atom of d3sat, the paper's threshold ratio
KEYS = ("candidates", "choices", "tests", "early_prunes", "learned_sets", "learned_prunes", "wall_s")


def instance(family, size, seed):
    """An instance's program, and a check of the models found against the
    exhaustive oracle, or None where the instance is too large for it."""
    if family == "d3sat":
        p = gen_d3sat_instance(size, RATIO, seed).program

        def agrees(models):
            stable = enumerate_stable_models(p)
            return bool(models) == bool(stable) and set(models) <= set(stable)

        return p, agrees if len(p.base) <= DEFAULT_CAP else None
    q = gen_random_qbf(size, family, seed)
    valid = (lambda models: bool(models) == qbf_valid_oracle(q)) if len(q.variables) <= 20 else None
    return qbf_to_program(q), valid


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", choices=("gw", "sqrt", "d3sat"), default="gw")
    ap.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 10])
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("gnt1", "gnt2", "naive"), default="gnt2")
    ap.add_argument("--early-test", choices=("on", "off"), default="on")
    ap.add_argument("--verify", action="store_true", help="cross-check with the exhaustive oracle")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = []
    for size in args.sizes:
        runs, solved, mismatches = {key: [] for key in KEYS}, 0, 0
        for i in range(args.count):
            program, agrees = instance(args.family, size, args.seed + i)
            start = time.perf_counter()
            result = solve_disjunctive(program, mode=args.mode, config=GntConfig(args.early_test))
            wall = time.perf_counter() - start
            s = result.stats
            values = (s.candidates_covered, result.solver_stats.choices, s.minimal_tests, s.early_prunes,
                      s.learned_sets, s.learned_prunes, wall)
            for key, value in zip(KEYS, values):
                runs[key].append(value)
            solved += bool(result.models)
            mismatches += args.verify and agrees is not None and not agrees(result.models)
        row = {"family": args.family, "size": size, "mode": args.mode, "early_test": args.early_test,
               "count": args.count, "solved": solved}
        for key, values in runs.items():
            row[f"mean_{key}"] = statistics.fmean(values)
            row[f"median_{key}"] = statistics.median(values)
        if args.verify:
            row["oracle_mismatches"] = mismatches
        rows.append(row)

    size, solved = ("n", "sat") if args.family == "d3sat" else ("v", "valid")
    if args.json:
        print(json.dumps(rows))
    else:
        for row in rows:
            line = (
                f"{args.family} {size}={row['size']}: {solved} {row['solved']}/{row['count']}, "
                f"mean choices={row['mean_choices']:.1f}, mean tests={row['mean_tests']:.1f}, "
                f"mean learned={row['mean_learned_sets']:.1f}, mean learned prunes={row['mean_learned_prunes']:.1f}"
            )
            if args.verify:
                line += f", oracle mismatches={row['oracle_mismatches']}"
            print(line)
    return 1 if any(row.get("oracle_mismatches") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
