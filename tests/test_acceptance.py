"""Acceptance suite.  One test per criterion; each prints a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Printed lines contain no timing, so reruns with the same seeds are
byte-identical; runtime budgets are asserted separately.
"""

import io
import itertools
import random
import time
from contextlib import redirect_stdout

from aspunfold.bench import Clause, gen_d3sat_instance, gen_random_3sat_clauses, gen_random_qbf, mm_encode
from aspunfold.gentest import gen_program
from aspunfold.gnt import solve_disjunctive
from aspunfold.parser import parse_program
from aspunfold.partiality import expand_psm, project_sm, unfold_partiality
from aspunfold.qbf import qbf_to_program, qbf_valid_oracle
from aspunfold.semantics import (
    PartialInterpretation,
    enumerate_partial_stable_models,
    enumerate_stable_models,
    is_stable_model,
)
from aspunfold.solver import Solver
from aspunfold.syntax import Atom, potential

from conftest import (
    gated_early_prunes,
    gl_reduct,
    greatest_unfounded_set,
    is_consistent_unfounded,
    is_partial_model,
    is_partial_stable_model,
    is_total_model,
    is_unfounded_free,
    is_unfounded_set,
    random_disjunctive_program,
    random_normal_program,
    random_partial_interpretation,
    random_positive_program,
    random_total_interpretation,
    remove_unfounded,
    rule_as_clause,
    satisfiable,
    candidate_tester,
    unfounded_sets,
)

A, B, C = Atom("a"), Atom("b"), Atom("c")


def report(number, name, ok, details):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} [{details}]"
    print(line)
    assert ok, line


def test_criterion_1_normal_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(500):
        p = random_normal_program(seed, max_atoms=6, max_rules=10)
        if set(Solver(p).models()) != set(enumerate_stable_models(p)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "normal oracle equivalence",
        mismatches == 0 and elapsed < 60.0,
        f"500 programs, {mismatches} mismatches, runtime under 60s: {elapsed < 60.0}",
    )


def test_criterion_2_disjunctive_oracle_equivalence():
    mismatches = 0
    total_models = 0
    for seed in range(300):
        p = random_disjunctive_program(seed, max_atoms=6, max_rules=8)
        want = set(enumerate_stable_models(p))
        total_models += len(want)
        for mode in ("gnt1", "gnt2", "naive"):
            if set(solve_disjunctive(p, mode=mode, enumerate_all=True).models) != want:
                mismatches += 1
    report(
        2,
        "disjunctive oracle equivalence",
        mismatches == 0,
        f"300 programs x 3 modes, {total_models} oracle models, {mismatches} mismatches",
    )


def test_criterion_3_translation_bijection():
    failures = 0
    paired = 0
    for seed in range(300):
        p = random_disjunctive_program(seed, max_atoms=5, max_rules=6)
        trp = unfold_partiality(p)
        psms = enumerate_partial_stable_models(p)
        sms = enumerate_stable_models(trp)
        if len(psms) != len(sms):
            failures += 1
            continue
        forward = {expand_psm(m) for m in psms}
        if forward != set(sms):
            failures += 1
            continue
        for m in psms:
            if project_sm(expand_psm(m), p.base) != m:
                failures += 1
                break
        for n in sms:
            if expand_psm(project_sm(n, p.base)) != n:
                failures += 1
                break
        paired += len(psms)
    report(
        3,
        "partiality-unfolding bijection",
        failures == 0,
        f"300 programs, {paired} model pairs, {failures} failures",
    )


def test_criterion_4_worked_examples():
    checks = []
    ex5 = parse_program("a | b :- not c.\nb :- not b.\nc :- not c.")
    tr5 = unfold_partiality(ex5)
    checks.append(enumerate_stable_models(tr5) == [frozenset([potential(B), potential(C)])])
    checks.append(
        enumerate_partial_stable_models(ex5)
        == [PartialInterpretation(frozenset(), frozenset([A]), ex5.base)]
    )
    ex6 = parse_program("a | b | c.\na :- not b.\nb :- not c.\nc :- not a.")
    checks.append(enumerate_stable_models(ex6) == [])
    checks.append(enumerate_partial_stable_models(ex6) == [])
    checks.append(enumerate_stable_models(unfold_partiality(ex6)) == [])
    checks.append(solve_disjunctive(ex6, mode="gnt2", enumerate_all=True).models == [])
    disj = parse_program("a | b.")
    checks.append(len(list(Solver(gen_program(disj)).models())) == 2)
    tester = candidate_tester(parse_program("a | b :- not c."), frozenset([B]))
    checks.append(Solver(tester).next_stable_model() is None)
    ex1 = parse_program("a | b :- c, not a.")
    checks.append(enumerate_stable_models(ex1) == [frozenset()])
    i1 = PartialInterpretation(frozenset(), frozenset([A]), ex1.base)
    checks.append(greatest_unfounded_set(ex1, i1) == frozenset([A, B, C]))
    n1 = PartialInterpretation.total([], ex1.base)
    checks.append(greatest_unfounded_set(ex1, n1) == n1.false_set)
    report(
        4,
        "paper worked examples",
        all(checks),
        f"{len(checks)} exact checks, {checks.count(False)} failed",
    )


# -- criterion 5: property suites -------------------------------------------


def _suite_prop1_reduct_preserves_unfoundedness(n=200):
    rng = random.Random("prop1")
    fails = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=6, max_rules=8)
        i = random_total_interpretation(rng, p.base)
        if set(unfounded_sets(p, i)) != set(unfounded_sets(gl_reduct(p, i), i)):
            fails += 1
    return n, fails


def _suite_thm1_stability_characterizations(n=200):
    # The unfounded-freeness equivalence holds for total models (for a
    # non-model with no true atoms it is vacuous); the greatest-unfounded-set
    # equivalence holds for arbitrary total interpretations once they are
    # models.  A rule with a head makes a total interpretation whose false
    # atoms are unfounded a model of it, but a constraint, whose empty head
    # no unfounded set meets, does not.
    rng = random.Random("thm1")
    fails = 0
    checks = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=6, max_rules=8)
        candidates = [random_total_interpretation(rng, p.base) for _ in range(4)]
        candidates += [
            PartialInterpretation.total(m, p.base) for m in enumerate_stable_models(p)
        ]
        for cand in candidates:
            checks += 1
            stable = is_stable_model(p, cand)
            greatest_is_false_set = greatest_unfounded_set(p, cand) == cand.false_set
            if stable != (greatest_is_false_set and is_total_model(cand, p)):
                fails += 1
                continue
            if is_total_model(cand, p) and stable != is_unfounded_free(p, cand):
                fails += 1
    return checks, fails


def _suite_thm2_psm_characterization(n=200):
    rng = random.Random("thm2")
    fails = 0
    checks = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=5, max_rules=6)
        samples = [random_partial_interpretation(rng, p.base) for _ in range(5)]
        samples += enumerate_partial_stable_models(p)[:3]
        for m in samples:
            checks += 1
            reduct = gl_reduct(p, m)
            tm = PartialInterpretation.total(m.true_set, p.base)
            founded = is_total_model(tm, reduct) and not any(
                is_total_model(PartialInterpretation.total(sub, p.base), reduct)
                for k in range(len(m.true_set))
                for sub in map(frozenset, itertools.combinations(sorted(m.true_set), k))
            )
            consistent_unfounded = [
                u for u in unfounded_sets(p, m) if is_consistent_unfounded(u, m)
            ]
            maximal = m.false_set in consistent_unfounded and not any(
                u > m.false_set for u in consistent_unfounded
            )
            if is_partial_stable_model(p, m) != (founded and maximal):
                fails += 1
    return checks, fails


def _suite_lemma1_unfounded_removal(n=200):
    rng = random.Random("lemma1")
    fails = 0
    checks = 0
    for seed in range(n):
        p = random_positive_program(seed, max_atoms=5, max_rules=6)
        models = []
        for _ in range(12):
            m = random_partial_interpretation(rng, p.base)
            if is_partial_model(m, p):
                models.append(m)
        for m in models[:3]:
            for u in itertools.islice(unfounded_sets(p, m), 12):
                if not (m.is_total or is_consistent_unfounded(u, m)):
                    continue
                checks += 1
                if not is_partial_model(remove_unfounded(p, m, u), p):
                    fails += 1
    return checks, fails


def _suite_thm4_psm_iff_translated_stable(n=200):
    rng = random.Random("thm4")
    fails = 0
    checks = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=4, max_rules=5)
        trp = unfold_partiality(p)
        for _ in range(5):
            m = random_partial_interpretation(rng, p.base)
            n_total = PartialInterpretation.total(expand_psm(m), trp.base)
            checks += 1
            if is_partial_stable_model(p, m) != is_stable_model(trp, n_total):
                fails += 1
    return checks, fails


def _suite_prop2_translation_preserves_models(n=200):
    rng = random.Random("prop2tr")
    fails = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=5, max_rules=6)
        trp = unfold_partiality(p)
        m = random_partial_interpretation(rng, p.base)
        n_total = PartialInterpretation.total(expand_psm(m), trp.base)
        if is_partial_model(m, p) != is_total_model(n_total, trp):
            fails += 1
    return n, fails


def _suite_lemma2_unfounded_projection(n=200):
    rng = random.Random("lemma2")
    fails = 0
    checks = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=4, max_rules=5)
        trp = unfold_partiality(p)
        m = random_partial_interpretation(rng, p.base)
        n_total = PartialInterpretation.total(expand_psm(m), trp.base)
        for x in unfounded_sets(trp, n_total):
            checks += 1
            y = frozenset(a for a in p.base if potential(a) in x)
            if not is_unfounded_set(p, m, y):
                fails += 1
                continue
            if is_consistent_unfounded(x, n_total) and not is_consistent_unfounded(y, m):
                fails += 1
    return checks, fails


def _suite_lemma3_unfounded_lifting(n=200):
    rng = random.Random("lemma3")
    fails = 0
    checks = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=4, max_rules=5)
        trp = unfold_partiality(p)
        m = random_partial_interpretation(rng, p.base)
        if not is_partial_model(m, p):
            continue
        n_total = PartialInterpretation.total(expand_psm(m), trp.base)
        undef_coded = sorted(m.undef_set)
        for x in itertools.islice(unfounded_sets(p, m), 16):
            if not is_consistent_unfounded(x, m):
                continue
            lifted = frozenset(x) | {potential(a) for a in x}
            extra = frozenset(a for a in undef_coded if rng.random() < 0.5)
            for y in (lifted, lifted | extra):
                checks += 1
                if not is_unfounded_set(trp, n_total, y):
                    fails += 1
    return checks, fails


def _suite_prop2_generator_completeness(n=200):
    fails = 0
    covered_total = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=6, max_rules=8)
        projections = {frozenset(m & p.base) for m in Solver(gen_program(p)).models()}
        for m in enumerate_stable_models(p):
            covered_total += 1
            if m not in projections:
                fails += 1
    return covered_total, fails


def _suite_prop3_minimality_test(n=200):
    fails = 0
    checks = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=5, max_rules=6)
        atoms = sorted(p.base)
        models = []
        for bits in range(1 << len(atoms)):
            t = frozenset(a for i, a in enumerate(atoms) if bits >> i & 1)
            cand = PartialInterpretation.total(t, p.base)
            if is_total_model(cand, p):
                models.append(cand)
        for cand in models[:10]:
            checks += 1
            no_tester_model = Solver(candidate_tester(p, cand.true_set)).next_stable_model() is None
            if is_stable_model(p, cand) != no_tester_model:
                fails += 1
    return checks, fails


def _suite_prop4_early_test_soundness(n=200):
    # Gated as the search gates it: where the soundness condition holds, a
    # failed early test leaves no stable model extending the assignment.
    rng = random.Random("prop4")
    extended = [
        e
        for seed in range(n)
        for e in gated_early_prunes(rng, random_disjunctive_program(seed, max_atoms=5, max_rules=6), 32)
    ]
    return len(extended), sum(extended)


def _suite_minimality_as_unsatisfiability(n=200):
    # Scoped to total models of the program, as in the minimality test: for a
    # non-model the tester drops violated normal reduct rules that the clause
    # reading keeps.
    rng = random.Random("mintest")
    fails = 0
    checks = 0
    for seed in range(n):
        p = random_disjunctive_program(seed, max_atoms=5, max_rules=6)
        candidates = [random_total_interpretation(rng, p.base) for _ in range(6)]
        for m in candidates:
            if not is_total_model(m, p):
                continue
            checks += 1
            no_tester_model = Solver(candidate_tester(p, m.true_set)).next_stable_model() is None
            clauses = [rule_as_clause(r) for r in gl_reduct(p, m).rules]
            clauses += [Clause(frozenset(), frozenset([a])) for a in sorted(p.base - m.true_set)]
            clauses += [Clause(frozenset(), m.true_set)]
            if no_tester_model != (not satisfiable(clauses, p.base)):
                fails += 1
    return checks, fails


def test_criterion_5_property_suites():
    suites = [
        ("unfoundedness invariant under reduct", _suite_prop1_reduct_preserves_unfoundedness),
        ("stability characterizations", _suite_thm1_stability_characterizations),
        ("partial-stability characterization", _suite_thm2_psm_characterization),
        ("unfounded removal keeps models", _suite_lemma1_unfounded_removal),
        ("partial stable iff translated stable", _suite_thm4_psm_iff_translated_stable),
        ("translation preserves models", _suite_prop2_translation_preserves_models),
        ("unfounded sets project down", _suite_lemma2_unfounded_projection),
        ("unfounded sets lift up", _suite_lemma3_unfounded_lifting),
        ("generator completeness", _suite_prop2_generator_completeness),
        ("minimality test exactness", _suite_prop3_minimality_test),
        ("early test soundness", _suite_prop4_early_test_soundness),
        ("minimality as unsatisfiability", _suite_minimality_as_unsatisfiability),
    ]
    all_ok = True
    details = []
    for name, suite in suites:
        checks, fails = suite()
        ok = fails == 0 and checks >= 200
        all_ok = all_ok and ok
        details.append(f"{name}: {checks} checks, {fails} fails")
        print(f"  suite {name}: {'ok' if ok else 'FAIL'} ({checks} checks, {fails} counterexamples)")
    report(5, "property suites", all_ok, "; ".join(details))


def test_criterion_6_qbf_translation_correctness():
    t0 = time.perf_counter()
    mismatches = 0
    count = 0
    for scheme, sizes in (("gw", (6, 8, 10)), ("sqrt", (6, 8, 10))):
        for seed in range(100):
            q = gen_random_qbf(sizes[seed % 3], scheme, seed)
            count += 1
            want = qbf_valid_oracle(q)
            got = bool(solve_disjunctive(qbf_to_program(q), mode="gnt2").models)
            if want != got:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        "qbf translation correctness",
        mismatches == 0 and count >= 200 and elapsed < 120.0,
        f"{count} formulas (both schemes), {mismatches} mismatches, runtime under 120s: {elapsed < 120.0}",
    )


def test_criterion_7_minimal_model_encoding():
    rng = random.Random("criterion7")
    mismatches = 0
    count = 0
    for seed in range(120):
        n = 6 + seed % 7  # 6..12 atoms
        if seed < 60:
            inst = gen_d3sat_instance(n, 4.258, seed)
            clauses, specified, program = inst.clauses, inst.specified, inst.program
        else:
            clauses = gen_random_3sat_clauses(n, 4.258, random.Random(seed))
            atoms = sorted({a for c in clauses for a in c.atoms})
            specified = frozenset(rng.sample(atoms, rng.randint(1, 2)))
            program = mm_encode(clauses, specified)
        count += 1
        from conftest import minimal_models_containing

        want = minimal_models_containing(clauses, specified)
        got = bool(solve_disjunctive(program, mode="gnt2").models)
        if want != got:
            mismatches += 1
    report(
        7,
        "minimal-model encoding",
        mismatches == 0 and count >= 100,
        f"{count} instances at ratio 4.258, n [6, 12], {mismatches} mismatches",
    )


def _pruning_counts(n_programs=100):
    means = {}
    found = 0
    for mode in ("gnt1", "gnt2"):
        covered = 0
        for seed in range(n_programs):
            inst = gen_d3sat_instance(20, 4.258, seed)
            result = solve_disjunctive(inst.program, mode=mode)
            covered += result.stats.candidates_covered
            if mode == "gnt1":
                found += bool(result.models)
        means[mode] = covered / n_programs
    return means, found


def test_criterion_8_supportedness_pruning():
    means, found = _pruning_counts(100)
    ok = means["gnt2"] <= means["gnt1"]
    report(
        8,
        "supportedness pruning",
        ok,
        f"100 programs at n=20: mean candidates gnt1={means['gnt1']:.2f}, "
        f"gnt2={means['gnt2']:.2f}, models found={found}",
    )


def _determinism_probe():
    buf = io.StringIO()
    with redirect_stdout(buf):
        for seed in range(25):
            p = random_disjunctive_program(seed)
            r = solve_disjunctive(p, mode="gnt2", enumerate_all=True)
            models = [" ".join(a.text for a in sorted(m)) for m in r.models]
            print(seed, models, r.stats, r.solver_stats)
        for seed in range(10):
            q = gen_random_qbf(6, "gw", seed)
            r = solve_disjunctive(qbf_to_program(q), mode="gnt2")
            print(seed, bool(r.models), r.stats)
        for seed in range(5):
            inst = gen_d3sat_instance(20, 4.258, seed)
            r = solve_disjunctive(inst.program, mode="gnt1")
            print(seed, sorted(map(sorted, ([a.text for a in m] for m in r.models))), r.stats)
    return buf.getvalue()


def test_criterion_9_deterministic_reports():
    first = _determinism_probe()
    second = _determinism_probe()
    ok = first == second and len(first) > 0
    report(9, "deterministic reports", ok, f"{len(first.splitlines())} report lines, rerun identical: {first == second}")
