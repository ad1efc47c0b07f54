#!/usr/bin/env python3
"""Compare the basic and supportedness-pruned generators on random
minimal-model 3-SAT programs: candidates covered, minimality tests, early
prunes, learned sets and their prunes, and decision outcomes per instance
family.
"""

import argparse
import json

from aspunfold.bench import gen_d3sat_instance
from aspunfold.gnt import GntConfig, solve_disjunctive


def run_instance(atoms, ratio, seed, mode, early_test):
    inst = gen_d3sat_instance(atoms, ratio, seed)
    result = solve_disjunctive(
        inst.program, mode=mode, config=GntConfig(early_test=early_test)
    )
    return {
        "seed": seed,
        "mode": mode,
        "sat": bool(result.models),
        "candidates": result.stats.candidates_covered,
        "tests": result.stats.minimal_tests,
        "prunes": result.stats.early_prunes,
        "learned": result.stats.learned_sets,
        "learned_prunes": result.stats.learned_prunes,
        "choices": result.solver_stats.choices,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--atoms", type=int, default=20)
    ap.add_argument("--ratio", type=float, default=4.258)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--early-test", choices=("on", "off"), default="on")
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    rows = [
        run_instance(args.atoms, args.ratio, args.seed + i, mode, args.early_test)
        for mode in ("gnt1", "gnt2")
        for i in range(args.count)
    ]

    if args.json:
        print(json.dumps(rows))
        return

    for mode in ("gnt1", "gnt2"):
        sub = [r for r in rows if r["mode"] == mode]
        sat = sum(r["sat"] for r in sub)
        for key in ("candidates", "tests", "prunes", "learned", "learned_prunes", "choices"):
            values = [r[key] for r in sub]
            print(
                f"{mode} {key}: mean={sum(values)/len(values):.2f} "
                f"max={max(values)} total={sum(values)}"
            )
        print(f"{mode} sat: {sat}/{len(sub)}")


if __name__ == "__main__":
    main()
