"""The benchmark's three workloads.

Each workload has a fixed pool of seeded instances whose expected answers,
computed by a path other than the timed one, are stored under ``expected/``
(written by ``make_expected.py``).  A run times the path from an instance's
rendered text to its answer; the answer is checked afterwards, outside the
timing.  Every function that touches ``aspunfold`` takes the imported package
``A`` as an argument, because set-up imports it afresh each time it repeats.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import checks

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

COUNT_KEYS = (
    "choices",
    "conflicts",
    "expansions",
    "candidates",
    "tests",
    "early_prunes",
    "program_rules",
    "tr_rules",
    "models",
)


@dataclass
class Instance:
    pool_id: int
    text: str
    data: Any  # what the checks need, in plain Python values


def _gnt_counts(p, result) -> dict[str, int]:
    return {
        "choices": result.solver_stats.choices,
        "conflicts": result.solver_stats.conflicts,
        "expansions": result.solver_stats.expansions,
        "candidates": result.stats.candidates_covered,
        "tests": result.stats.minimal_tests,
        "early_prunes": result.stats.early_prunes,
        "program_rules": len(p.rules),
        "tr_rules": 0,
        "models": len(result.models),
    }


class D3Sat:
    """Minimal-model random 3-SAT at the threshold ratio, first model only."""

    name = "d3sat"
    params = {"n": 50, "ratio": 4.258, "mode": "gnt2"}
    pool_size = 1600
    sample_size = 180

    def make(self, A, pool_id: int) -> Instance:
        inst = A.gen_d3sat_instance(self.params["n"], self.params["ratio"], pool_id)
        clauses = [
            (sorted(a.text for a in c.pos), sorted(a.text for a in c.neg)) for c in inst.clauses
        ]
        data = (clauses, sorted(a.text for a in inst.specified), inst.program)
        return Instance(pool_id, A.render_program(inst.program), data)

    def run(self, A, text: str):
        # The generator renders constraints as __f rules, so read them back as reserved.
        p = A.parse_program(text, allow_reserved=True)
        return p, A.solve_disjunctive(p, self.params["mode"])

    def counts(self, raw) -> dict[str, int]:
        return _gnt_counts(*raw)

    def check(self, A, inst: Instance, raw, expected: dict) -> Optional[str]:
        _, result = raw
        if bool(result.models) != expected["sat"]:
            return f"verdict {bool(result.models)}, expected {expected['sat']}"
        clauses, specified, _ = inst.data
        for m in result.models:
            names = {a.text for a in m}
            if not checks.satisfies_clauses(names, clauses, specified):
                return "model violates a clause or a specified atom"
            if not checks.is_locally_minimal(names, clauses):
                return "model stays a model with one true atom made false"
        return None

    def expect(self, A, inst: Instance) -> dict:
        program = inst.data[2]
        r1 = A.solve_disjunctive(program, "gnt1")
        r2 = A.solve_disjunctive(program, "gnt2")
        # Early tests have pruned stable models (see the partial workload), so
        # a run without them must agree too.
        r3 = A.solve_disjunctive(program, "gnt2", config=A.GntConfig(early_test="off"))
        if not bool(r1.models) == bool(r2.models) == bool(r3.models):
            raise RuntimeError(f"d3sat instance {inst.pool_id}: gnt1, gnt2 and gnt2 without early tests disagree")
        return {"sat": bool(r2.models), "work": r2.solver_stats.expansions}


class QbfGw:
    """Random 2,exists-QBF under the gw scheme, solved through its translation."""

    name = "qbf_gw"
    params = {"v": 14, "scheme": "gw", "mode": "gnt2"}
    pool_size = 1600
    sample_size = 170

    def make(self, A, pool_id: int) -> Instance:
        q = A.gen_random_qbf(self.params["v"], self.params["scheme"], pool_id)
        terms = [[(l.atom.text, l.positive) for l in t] for t in q.terms]
        data = ({a.text for a in q.x_vars}, [a.text for a in q.y_vars], terms, q)
        return Instance(pool_id, A.render_qbf(q), data)

    def run(self, A, text: str):
        p = A.qbf_to_program(A.parse_qbf(text))
        return p, A.solve_disjunctive(p, self.params["mode"])

    def counts(self, raw) -> dict[str, int]:
        return _gnt_counts(*raw)

    def check(self, A, inst: Instance, raw, expected: dict) -> Optional[str]:
        models = raw[1].models
        if bool(models) != expected["valid"]:
            return f"verdict {bool(models)}, expected {expected['valid']}"
        x_vars, y_vars, terms, _ = inst.data
        for m in models:
            if not checks.is_qbf_witness({a.text for a in m} & x_vars, y_vars, terms):
                return "the model's existential atoms are not a witness"
        return None

    def expect(self, A, inst: Instance) -> dict:
        q = inst.data[3]
        work = A.solve_disjunctive(A.qbf_to_program(q), self.params["mode"])
        return {"valid": A.qbf_valid_oracle(q), "work": work.solver_stats.expansions}


def partial_rules(seed: int, atoms: int, rules: int) -> list[tuple[str, tuple, tuple]]:
    """Random normal program: each rule has a random head, 0-2 positive and
    1-2 negative body atoms, so positive loops and odd negative cycles occur."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(atoms)]
    out = []
    for _ in range(rules):
        head = rng.choice(names)
        pos = tuple(sorted(rng.sample(names, rng.randint(0, 2))))
        neg = tuple(sorted(rng.sample(names, rng.randint(1, 2))))
        out.append((head, pos, neg))
    return out


def render_rules(rules) -> str:
    lines = []
    for head, pos, neg in rules:
        body = list(pos) + [f"not {c}" for c in neg]
        lines.append(f"{head} :- {', '.join(body)}.")
    return "\n".join(lines) + "\n"


class Partial:
    """All partial stable models of a random normal program, via ``tr`` and
    one solver; neither the gnt search nor the gen/test constructions run."""

    name = "partial"
    params = {"atoms": 200, "rules": 400}
    pool_size = 2400
    sample_size = 170

    def make(self, A, pool_id: int) -> Instance:
        rules = partial_rules(pool_id, self.params["atoms"], self.params["rules"])
        return Instance(pool_id, render_rules(rules), rules)

    def run(self, A, text: str):
        p = A.parse_program(text)
        trp = A.unfold_partiality(p)
        solver = A.Solver(trp)
        return p, trp, solver, [A.project_sm(n, p.base) for n in solver.models()]

    def counts(self, raw) -> dict[str, int]:
        p, trp, solver, psms = raw
        return {
            "choices": solver.stats.choices,
            "conflicts": solver.stats.conflicts,
            "expansions": solver.stats.expansions,
            "candidates": 0,
            "tests": 0,
            "early_prunes": 0,
            "program_rules": len(p.rules),
            "tr_rules": len(trp.rules),
            "models": len(psms),
        }

    @staticmethod
    def _names(psms):
        return [([a.text for a in m.true_set], [a.text for a in m.undef_set]) for m in psms]

    def check(self, A, inst: Instance, raw, expected: dict) -> Optional[str]:
        psms = raw[3]
        if checks.psm_digest(self._names(psms)) != expected["digest"]:
            return f"{len(psms)} partial stable models, expected {expected['models']} (digest differs)"
        tr = checks.partiality_translation(inst.data)
        for m in psms:
            if not checks.is_stable(tr, (a.text for a in A.expand_psm(m))):
                return "expand_psm(m) is not a stable model of tr"
        return None

    def expect(self, A, inst: Instance) -> dict:
        def atoms(names):
            return frozenset(A.Atom(n) for n in names)

        program = A.Program(
            tuple(A.Rule(atoms([h]), atoms(pos), atoms(neg)) for h, pos, neg in inst.data)
        )
        trp = A.unfold_partiality(program)
        # With early tests on, gnt misses stable models of some of these
        # programs, so the reference enumeration runs without them.
        result = A.solve_disjunctive(
            trp, "gnt1", enumerate_all=True, config=A.GntConfig(early_test="off")
        )
        psms = [A.project_sm(n, program.base) for n in result.models]
        work = A.Solver(trp)
        for _ in work.models():
            pass
        return {
            "digest": checks.psm_digest(self._names(psms)),
            "models": len(psms),
            "work": work.stats.expansions,
        }


WORKLOADS = {w.name: w for w in (D3Sat(), QbfGw(), Partial())}


def load_expected(workload) -> list[dict]:
    """The stored answers of a workload's pool, refusing a file made for other parameters."""
    with open(EXPECTED_DIR / f"{workload.name}.json") as f:
        doc = json.load(f)
    if doc["params"] != workload.params or len(doc["entries"]) != workload.pool_size:
        raise ValueError(f"expected/{workload.name}.json does not match the workload; rerun make_expected.py")
    return doc["entries"]


def draw_sample(entries: list[dict], seed: int, size: int) -> list[int]:
    """One pool instance from each of ``size`` strata of equal search work,
    in a seeded order, so every seed meets the same mix of easy and hard."""
    order = sorted(range(len(entries)), key=lambda i: (entries[i]["work"], i))
    rng = random.Random(f"sample-{seed}")
    bounds = [k * len(order) // size for k in range(size + 1)]
    picked = [order[rng.randrange(bounds[k], bounds[k + 1])] for k in range(size)]
    rng.shuffle(picked)
    return picked


def draw_warmup(workload, seed: int, size: int) -> list[int]:
    return random.Random(f"warmup-{seed}").sample(range(workload.pool_size), size)
