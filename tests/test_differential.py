"""Differential checks above the oracle's cap of 12 atoms.

Seeded random programs of 13 to 20 atoms, with constraints, are too large
for the enumeration oracles, so the engines check one another: every
generator mode under both early-test settings, a plain ``Solver`` where the
program is normal, and the paper's theorems on the partiality translations.
Programs stay at 20 atoms or below: one 26-atom program took 19 s.
"""

from functools import lru_cache

from aspunfold.gnt import GntConfig, solve, solve_disjunctive
from aspunfold.partiality import project_sm, tr2_program, unfold_partiality
from aspunfold.syntax import F_ATOM

from conftest import random_disjunctive_program, random_normal_program


@lru_cache(maxsize=None)
def programs():
    """40 disjunctive and 20 normal programs of 13-20 atoms, with constraints."""
    out = [random_disjunctive_program(seed, max_atoms=20, max_rules=30, min_atoms=13) for seed in range(40)]
    out += [random_normal_program(seed, max_atoms=20, max_rules=30, min_atoms=13) for seed in range(20)]
    return tuple(out)


def test_modes_agree_above_the_oracle_cap():
    # gnt1, gnt2 and naive, each with early tests on and off, enumerate the
    # same stable models; on a normal program, so does a plain Solver.
    seen = {"models": 0, "no models": 0, "normal": 0, "constraints": 0}
    for p in programs():
        assert 13 <= len(p.base) <= 20
        runs = {
            (mode, early_test): solve_disjunctive(p, mode, True, GntConfig(early_test)).models
            for mode in ("gnt1", "gnt2", "naive")
            for early_test in ("on", "off")
        }
        want = runs["gnt2", "on"]
        for key, got in runs.items():
            assert got == want, (p.render(), key)
        if p.is_normal:
            result = solve(p, "gnt2", True)
            assert result.stats is None and result.models == want, p.render()
            seen["normal"] += 1
        seen["models" if want else "no models"] += 1
        seen["constraints"] += any(not head for head, _, _ in p.rows)
    assert seen["normal"] >= 15 and min(seen.values()) >= 10, seen


def test_partiality_theorems_above_the_oracle_cap():
    # The total partial stable models (PSMs) of tr(P) are P's stable models,
    # and the flag __f of tr2(P) is true exactly in the PSMs that are not
    # total.
    seen = {"psms": 0, "partial": 0}
    for p in programs():
        stable = solve(p, "gnt2", True).models
        psms = [project_sm(n, p.base) for n in solve(unfold_partiality(p), "gnt2", True).models]
        assert sorted((m.true_set for m in psms if m.is_total), key=sorted) == stable, p.render()
        flagged = solve(tr2_program(p), "gnt2", True).models
        assert len(flagged) == len(psms) and {project_sm(n, p.base) for n in flagged} == set(psms), p.render()
        assert all((F_ATOM in n) == (not project_sm(n, p.base).is_total) for n in flagged), p.render()
        seen["psms"] += len(psms)
        seen["partial"] += sum(not m.is_total for m in psms)
    assert seen["psms"] >= 200 and seen["partial"] >= 50, seen
