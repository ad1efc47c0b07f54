#!/usr/bin/env python3
"""Validity rates and search effort for the two random 2,exists-QBF schemes
as the variable count grows, solving through the disjunctive translation.

With --verify, each instance small enough for the exhaustive oracle is
cross-checked against it, and the script exits 1 if any answer disagrees.
"""

import argparse
import json
import sys

from aspunfold.bench import gen_random_qbf
from aspunfold.gnt import solve_disjunctive
from aspunfold.qbf import qbf_to_program, qbf_valid_oracle


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scheme", choices=("gw", "sqrt"), default="gw")
    ap.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 10])
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("gnt1", "gnt2", "naive"), default="gnt2")
    ap.add_argument("--verify", action="store_true", help="cross-check with the exhaustive oracle")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = []
    for v in args.sizes:
        valid = 0
        choices = 0
        tests = 0
        learned = 0
        learned_prunes = 0
        mismatches = 0
        for i in range(args.count):
            q = gen_random_qbf(v, args.scheme, args.seed + i)
            result = solve_disjunctive(qbf_to_program(q), mode=args.mode)
            is_valid = bool(result.models)
            valid += is_valid
            choices += result.solver_stats.choices
            tests += result.stats.minimal_tests
            learned += result.stats.learned_sets
            learned_prunes += result.stats.learned_prunes
            if args.verify and len(q.variables) <= 20:
                if qbf_valid_oracle(q) != is_valid:
                    mismatches += 1
        row = {
            "scheme": args.scheme,
            "v": v,
            "count": args.count,
            "valid": valid,
            "mean_choices": choices / args.count,
            "mean_tests": tests / args.count,
            "mean_learned": learned / args.count,
            "mean_learned_prunes": learned_prunes / args.count,
        }
        if args.verify:
            row["oracle_mismatches"] = mismatches
        rows.append(row)

    if args.json:
        print(json.dumps(rows))
    else:
        for row in rows:
            line = (
                f"{row['scheme']} v={row['v']}: valid {row['valid']}/{row['count']}, "
                f"mean choices={row['mean_choices']:.1f}, mean tests={row['mean_tests']:.1f}, "
                f"mean learned={row['mean_learned']:.1f}, mean learned prunes={row['mean_learned_prunes']:.1f}"
            )
            if args.verify:
                line += f", oracle mismatches={row['oracle_mismatches']}"
            print(line)
    return 1 if any(row.get("oracle_mismatches") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
