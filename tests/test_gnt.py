import gc
import random
import weakref

import pytest

from aspunfold.bench import gen_d3sat_instance, gen_random_qbf
from aspunfold import gnt
from aspunfold.gentest import GeneratorTable, gen_program
from aspunfold.gentest import test_program as build_test_program
from aspunfold.gnt import GntConfig, GntStats, minimal_test, solve_disjunctive
from aspunfold.gnt import _GENERATORS, _Generator, _Tester
from aspunfold.parser import parse_program
from aspunfold.partiality import unfold_partiality
from aspunfold.qbf import qbf_to_program, qbf_valid_oracle
from aspunfold.semantics import enumerate_stable_models, is_stable_model, PartialInterpretation
from aspunfold.solver import TRUE, Solver, SolverStats
from aspunfold.syntax import Atom, Program, Rule, complement, positions, support

from conftest import (
    ReferenceGenerator,
    RootlessGenerator,
    gated_early_prunes,
    is_normal_rule,
    random_disjunctive_program,
    random_normal_program,
    random_partial_interpretation,
    recursion_headroom,
    reference_solve_disjunctive,
    reference_test_program,
    unfounded_sets,
)

A, B, C = Atom("a"), Atom("b"), Atom("c")
DISJ = parse_program("a | b.")
DISJ_NEG = parse_program("a | b :- not c.")
EX6 = parse_program("a | b | c.\na :- not b.\nb :- not c.\nc :- not a.")


def minimal_on(p, candidate, stats=None):
    """``minimal_test`` on a candidate of p, with a fresh tester of p."""
    numbers = sorted(build_test_program(p).numbers(candidate))
    return minimal_test(_Tester(p), numbers, stats or GntStats(), SolverStats())


def test_minimal_test_paper_example():
    # generator model {b, s__b, c__a} projects to {b}, which is stable
    assert minimal_on(DISJ_NEG, frozenset([B, support(B), complement(A)]) & DISJ_NEG.base)
    assert not minimal_on(DISJ, frozenset([A, B]))


def test_minimal_test_stable_normal_models_pass():
    for seed in range(40):
        p = random_normal_program(seed, max_atoms=4, max_rules=6)
        for m in enumerate_stable_models(p):
            assert minimal_on(p, m)


def test_minimal_test_counts():
    stats = GntStats()
    minimal_on(DISJ, frozenset([A]), stats)
    assert stats.minimal_tests == 1


def test_gnt_search_returns_restricted_candidate():
    # the generator model also holds complement and support atoms
    assert solve_disjunctive(DISJ_NEG, mode="gnt2").models in ([frozenset([A])], [frozenset([B])])
    assert solve_disjunctive(EX6, mode="gnt2").models == []


def test_gnt_on_normal_program_matches_engine():
    p = parse_program("a :- not b.\nb :- not a.")
    assert solve_disjunctive(p, mode="gnt2").models == [Solver(p).next_stable_model()]


def test_solve_modes_agree_and_reject_unknown():
    for mode in ("gnt1", "gnt2", "naive", "brute"):
        r = gnt.solve(DISJ, mode=mode, enumerate_all=True)
        assert r.models == [frozenset([A]), frozenset([B])]
    assert solve_disjunctive(EX6, mode="gnt2", enumerate_all=True).models == []
    with pytest.raises(ValueError):
        solve_disjunctive(DISJ, mode="magic")


def test_solve_disjunctive_is_the_driver_alone():
    # The oracle is reached through gnt.solve only.
    with pytest.raises(ValueError):
        solve_disjunctive(DISJ, "brute")


def test_stats_are_none_exactly_without_the_driver():
    normal = parse_program("a :- not b.\nb :- not a.")
    for p in (DISJ, normal):
        for mode in gnt.MODES:
            r = gnt.solve(p, mode, enumerate_all=True)
            assert r.models and (r.stats is None) == (mode == "brute" or p.is_normal), (p, mode)


def test_solve_disjunctive_first_model_only():
    r = solve_disjunctive(DISJ, mode="gnt2")
    assert len(r.models) == 1


def test_generator_reads_the_input_lifted_by_its_construction():
    # The generator's input rules are the list its construction lifted, not
    # a second lift; they are p's rules renumbered into g's atoms.
    for seed in range(40):
        p = random_disjunctive_program(seed)
        for mode, build in _GENERATORS.items():
            g = build(p)
            search = _Generator(g, GntConfig())
            assert search.rules is g.table.inputs
            lift = positions(p.table.atoms, g.table.atoms)
            assert search.rules == [
                tuple(tuple(lift[a] for a in part) for part in rule) for rule in p.table.rules
            ], mode


def test_generator_starts_from_facts():
    # facts are set before the first choice, so a rule whose body is all
    # facts costs the generator no more than the bare disjunction.  With
    # the constraints' atom false from the root, the constraints propagate
    # at once and one choice settles the disjunction; without that
    # inference the generator branched on it first.
    def generator_counts(text, generator=_Generator):
        p = parse_program(text)
        g = generator(gen_program(p), GntConfig())
        list(g.models())
        return g.stats

    facts = generator_counts("a.\nb.\nc.\nd | e :- a, b, c.")
    assert facts == generator_counts("d | e.") == SolverStats(1, 0, 3)
    rootless = generator_counts("a.\nb.\nc.\nd | e :- a, b, c.", RootlessGenerator)
    assert rootless == generator_counts("d | e.", RootlessGenerator) == SolverStats(4, 2, 9)


def test_deep_disjunctive_search_is_not_recursive():
    # 400 independent disjunctions; a generator search that recursed per
    # choice would need far more than 100 frames
    n = 400
    p = parse_program("\n".join(f"a{i} | b{i}." for i in range(n)))
    with recursion_headroom(100):
        r = solve_disjunctive(p)
    assert len(r.models) == 1 and len(r.models[0]) == n


def test_early_test_policies_do_not_change_models():
    for seed in range(80):
        p = random_disjunctive_program(seed)
        want = None
        for policy in ("on", "off"):
            got = set(
                solve_disjunctive(
                    p, mode="gnt2", enumerate_all=True, config=GntConfig(early_test=policy)
                ).models
            )
            if want is None:
                want = got
            assert got == want


def test_early_prunes_bounded_by_tests():
    # Every covered candidate is tested or refuted by a learned set.
    for seed in range(40):
        p = random_disjunctive_program(seed)
        r = solve_disjunctive(p, mode="gnt1", enumerate_all=True)
        assert r.stats.early_prunes <= r.stats.minimal_tests
        assert r.stats.minimal_tests + r.stats.learned_prunes >= r.stats.candidates_covered


class _RecordingGenerator(_Generator):
    """Logs "covered" for each covered candidate and, for each positive
    branch, "learned" if a learned set pruned it, "pass", "fail-pruned" or
    "fail-kept" if an early test ran on it, else "idle", each with the
    WasCovered flag after the branch and whether the early-test condition
    of ``ReferenceGenerator`` held before it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.events = []

    def _accept(self):
        self.events.append(("covered", True, None))
        return super()._accept()

    def _prune(self):
        sound = ReferenceGenerator._early_test_sound(self)
        tests, learned = self.gnt_stats.minimal_tests, self.gnt_stats.learned_prunes
        pruned = super()._prune()
        if self.gnt_stats.learned_prunes > learned:
            assert pruned and self.gnt_stats.minimal_tests == tests
            event = "learned"
        elif self.gnt_stats.minimal_tests > tests:
            event = "fail-pruned" if pruned else "pass" if self.tester.model is None else "fail-kept"
        else:
            event = "idle"
        self.events.append((event, self.was_covered, sound))
        return pruned


def _recorded_searches():
    # Every generator mode: gnt2's searches rarely keep a failed test's set
    # without pruning.  With the constraints' atom false from the root,
    # learned sets rarely fire on the random programs, so gw QBF
    # translations join them.
    programs = [random_disjunctive_program(seed) for seed in range(60)]
    programs += [qbf_to_program(gen_random_qbf(8, "gw", seed)) for seed in range(1, 11)]
    for make in _GENERATORS.values():
        for p in programs:
            search = _RecordingGenerator(make(p), GntConfig())
            for _ in search.models():
                pass
            yield search


def test_was_covered_discipline():
    # After a covered candidate, an early test runs on every positive
    # branch until one does not prune, and the flag stays set only while
    # tests prune; no test runs otherwise.  A branch that a learned set
    # prunes runs no test and leaves the flag as it is.
    counts = dict.fromkeys(("pass", "fail-pruned", "fail-kept", "learned"), 0)
    for search in _recorded_searches():
        armed = False
        for event, flag, _ in search.events:
            if event == "covered":
                armed = True
            elif event in ("pass", "fail-pruned", "fail-kept"):
                assert armed
                armed = event == "fail-pruned"
            elif event == "idle":
                assert not armed
            assert flag == armed, event
            if event in counts:
                counts[event] += 1
        assert sum(e == "covered" for e, _, _ in search.events) == search.gnt_stats.candidates_covered
    assert all(counts.values()), counts
    with pytest.raises(ValueError):
        GntConfig(early_test="once")


def test_failed_test_under_condition_fires():
    # Wherever the early-test condition (``ReferenceGenerator``) holds and
    # the test fails, the set the test teaches fires at once, so the search
    # prunes every branch that the condition-gated search pruned: on search
    # states and on random partial interpretations.
    held = 0
    for search in _recorded_searches():
        for event, _, sound in search.events:
            assert not (sound and event == "fail-kept")
            held += bool(sound) and event == "fail-pruned"
    rng = random.Random("early-test-lemma")
    for seed in range(200):
        p = random_disjunctive_program(seed, max_atoms=5, max_rules=6)
        for _ in range(8):
            i = random_partial_interpretation(rng, p.base)
            g = _Generator(gen_program(p), GntConfig())
            if not g.assign_and_expand([(a, True) for a in i.true_set] + [(a, False) for a in i.false_set]):
                continue
            if ReferenceGenerator._early_test_sound(g) and not g._minimal():
                assert g._fires(*g.learned[-1]), (p, i)
                held += 1
    assert held >= 50


def test_accepted_candidates_are_stable():
    for seed in range(60):
        p = random_disjunctive_program(seed)
        for m in solve_disjunctive(p, mode="gnt2", enumerate_all=True).models:
            assert is_stable_model(p, PartialInterpretation.total(m, p.base))


def test_supportedness_prunes_subset_candidates():
    # enumerating a | b | c with early tests off: without learning, the basic
    # generator covers every nonempty head subset, supportedness keeps only
    # the singletons; early tests then cut the basic generator down further.
    # Learning cuts the basic generator by two candidates: the failed test
    # on {a, c} teaches {a}, whose one rule is blocked once b is true too, so
    # it prunes the branch that would cover {a, b} and {a, b, c}.
    p = parse_program("a | b | c.")
    off = GntConfig(early_test="off")
    counts = {}
    for solve in (reference_solve_disjunctive, solve_disjunctive):
        r1 = solve(p, mode="gnt1", enumerate_all=True, config=off)
        r2 = solve(p, mode="gnt2", enumerate_all=True, config=off)
        early = solve(p, mode="gnt1", enumerate_all=True)
        assert r1.models == r2.models == early.models
        counts[solve] = [
            (r.stats.candidates_covered, r.stats.minimal_tests, r.stats.early_prunes, r.stats.learned_prunes)
            for r in (r1, r2, early)
        ]
    assert counts[reference_solve_disjunctive] == [(7, 7, 0, 0), (3, 3, 0, 0), (3, 8, 3, 0)]
    assert counts[solve_disjunctive] == [(5, 5, 0, 1), (3, 3, 0, 0), (3, 7, 2, 1)]


def test_brute_mode_equals_oracle():
    for seed in range(40):
        p = random_disjunctive_program(seed)
        assert gnt.solve(p, mode="brute", enumerate_all=True).models == enumerate_stable_models(p)


# Early tests that prune on every failure, without the firing check (or the
# former soundness condition), prune a stable model of each.
EARLY_TEST_COUNTEREXAMPLES = {
    "tr_normal": unfold_partiality(parse_program("c :- not d, not e.\ne :- c, not c.")),
    "disjunctive": parse_program(
        "a1 | a3 | a4 :- a0, not a2, not a7.\n"
        "a7 :- a2, not a4, not a5.\n"
        "a2 :- not a4.\n"
        "a0 | a1 :- a0, a3.\n"
        "a0 | a6 :- a7, not a5."
    ),
}


@pytest.mark.parametrize("name", sorted(EARLY_TEST_COUNTEREXAMPLES))
def test_early_tests_keep_every_model(name):
    p = EARLY_TEST_COUNTEREXAMPLES[name]
    want = enumerate_stable_models(p)
    assert len(want) == 2
    for mode in ("gnt1", "gnt2", "naive"):
        for policy in ("on", "off"):
            config = GntConfig(early_test=policy)
            got = solve_disjunctive(p, mode=mode, enumerate_all=True, config=config).models
            assert got == want, (mode, policy)


class _UngatedGenerator(_Generator):
    """The generator with a mutated early test: every failed test prunes,
    whether or not the set it teaches fires."""

    def _prune(self):
        if self.learned and self._refuted():
            return True
        if self.was_covered and self.config.early_test == "on" and not self._minimal():
            self.gnt_stats.early_prunes += 1
            return True
        self.was_covered = False
        return False


@pytest.mark.parametrize("name", sorted(EARLY_TEST_COUNTEREXAMPLES))
def test_ungated_early_test_loses_a_model(name):
    # The firing check is what keeps the models: without it, some generator
    # mode loses a stable model of each counterexample.
    p = EARLY_TEST_COUNTEREXAMPLES[name]
    want = set(enumerate_stable_models(p))
    searches = [_UngatedGenerator(make(p), GntConfig()) for make in _GENERATORS.values()]
    assert any(want - {n & p.base for n in search.models()} for search in searches)


def test_early_test_condition_is_sound():
    # Whenever the early test fails on the current true atoms and the set it
    # teaches fires, no stable model extends the generator's assignment.
    # Without the firing check this is false: on the tr_normal
    # counterexample, with c false, the test fails for {p__e}, which lies
    # inside the stable model {p__c, p__e}.
    rng = random.Random("gated-early-test")
    extended = [
        e
        for seed in range(200)
        for e in gated_early_prunes(rng, random_disjunctive_program(seed, max_atoms=5, max_rules=6), 8)
    ]
    assert not any(extended)
    assert len(extended) >= 50


def _random_program(rng, n_atoms, n_rules, max_head, min_neg):
    atoms = [Atom(f"a{i}") for i in range(n_atoms)]
    rules = []
    for _ in range(n_rules):
        head = frozenset(rng.sample(atoms, rng.randint(1, max_head)))
        pos = frozenset(rng.sample(atoms, rng.randint(0, 2)))
        neg = frozenset(rng.sample(atoms, rng.randint(min_neg, 2)))
        rules.append(Rule(head, pos, neg))
    return Program(tuple(rules), base=frozenset(atoms))


def _sorted_models(models):
    return sorted(sorted(a.text for a in m) for m in models)


def test_modes_agree_above_oracle_cap():
    # tr of normal programs with 20-50 atoms (40-100 atoms after tr), past the
    # oracle's cap: gnt1 and gnt2 with early tests on must find exactly the
    # models of the solver run on tr directly.
    rng = random.Random("differential-tr")
    on = GntConfig(early_test="on")
    for _ in range(60):
        n = rng.randint(20, 50)
        trp = unfold_partiality(_random_program(rng, n, 2 * n, max_head=1, min_neg=1))
        want = _sorted_models(Solver(trp).models())
        for mode in ("gnt1", "gnt2"):
            got = solve_disjunctive(trp, mode=mode, enumerate_all=True, config=on).models
            assert _sorted_models(got) == want, (n, mode)


def test_early_tests_agree_on_disjunctive_programs():
    # 12-atom disjunctive programs: early tests must not change gnt2's models
    # without them.
    rng = random.Random("differential-disjunctive")
    on, off = GntConfig(early_test="on"), GntConfig(early_test="off")
    for _ in range(20):
        p = _random_program(rng, 12, 24, max_head=2, min_neg=0)
        want = solve_disjunctive(p, mode="gnt2", enumerate_all=True, config=off).models
        for mode in ("gnt1", "gnt2"):
            got = solve_disjunctive(p, mode=mode, enumerate_all=True, config=on).models
            assert got == want, mode


_CONFIGS = {policy: GntConfig(early_test=policy) for policy in ("on", "off")}


def test_modes_agree_on_d3sat_above_oracle_cap():
    # Seeded minimal-model 3-SAT at n=16-20, past the oracle's cap: every
    # mode under both early-test settings must enumerate the same models,
    # and each must satisfy every clause and contain every specified atom.
    for seed in range(10):
        inst = gen_d3sat_instance(16 + seed % 5, 4.258, seed, specified_count=seed % 2)
        runs = {
            (mode, policy): solve_disjunctive(
                inst.program, mode=mode, enumerate_all=True, config=config
            ).models
            for mode in ("gnt1", "gnt2", "naive")
            for policy, config in _CONFIGS.items()
        }
        want = runs["gnt2", "on"]
        for key, got in runs.items():
            assert got == want, (seed, key)
        for m in want:
            assert inst.specified <= m, seed
            assert all(c.pos & m or not c.neg <= m for c in inst.clauses), seed


# gw QBFs at v=10 were INVALID for every seed below 300, so two VALID gw
# instances at v=8 join them.
_QBF_INSTANCES = [(10, seed) for seed in range(10)] + [(8, 50), (8, 268)]


def test_qbf_verdicts_agree_with_oracle_above_cap():
    # First-model verdicts on translated gw QBFs (10 variables give programs
    # far past the atom cap) must equal the QBF oracle.  naive with early
    # tests off is left out: at gw v=8, seeds 0-2 each ran past 30 s.
    for v, seed in _QBF_INSTANCES:
        q = gen_random_qbf(v, "gw", seed)
        p = qbf_to_program(q)
        want = qbf_valid_oracle(q)
        for mode, policy in (
            ("gnt1", "on"), ("gnt1", "off"), ("gnt2", "on"), ("gnt2", "off"), ("naive", "on")
        ):
            got = solve_disjunctive(p, mode=mode, config=_CONFIGS[policy]).models
            assert bool(got) == want, (v, seed, mode, policy)


def _tester_program(rng, kind):
    """A seeded program over at most 7 plain atoms.  ``normal``: normal
    rules only, no constraints.
    ``disjunctive``: disjunctive and normal rules and input constraints, some
    with a twin that differs only in its negative body, so both give the
    same tester rules.  ``loop``: as ``disjunctive``, plus a positive
    loop through a disjunctive head."""
    atoms = [Atom(x) for x in "abcdefg"[: rng.randint(3, 7)]]

    def body(k):
        return frozenset(rng.sample(atoms, rng.randint(0, k)))

    rules = []
    for _ in range(rng.randint(1, 7)):
        roll = rng.random()
        if kind == "normal" or roll < 0.35:
            head = frozenset([rng.choice(atoms)])
        elif roll < 0.5:
            head = frozenset()
        else:
            head = frozenset(rng.sample(atoms, rng.randint(2, 3)))
        pos = body(2)
        rules.append(Rule(head, pos, body(2)))
        if rng.random() < 0.3:
            rules.append(Rule(head, pos, body(2)))
    if kind == "loop":
        x, y, z = rng.sample(atoms, 3)
        rules += [Rule(frozenset([x, y]), frozenset([z])), Rule(frozenset([z]), frozenset([x]))]
    return Program(tuple(rules), base=frozenset(atoms))


def _reduct_has_smaller_model(p, m):
    """Whether some N properly inside m is a model of P^m without its normal
    rules whose head is outside m (a tester holds none of those; a model m
    of P has none whose body holds, so then this is P^m itself)."""
    bit = {a: 1 << i for i, a in enumerate(sorted(p.base))}

    def mask(atoms):
        return sum(bit[a] for a in atoms)

    rules = [
        (mask(r.head), mask(r.pos))
        for r in p.rules
        if not r.neg & m and not (is_normal_rule(r) and not r.head & m)
    ]
    whole = mask(m)
    n = whole
    while n:
        n = (n - 1) & whole  # every proper subset, down to the empty set
        if all(pos & n != pos or head & n for head, pos in rules):
            return True
    return False


def _shares_tester_rule(p, m):
    """Whether two input rules whose bodies hold in candidate m give the
    same tester rule, which the tester must then list once."""
    given = []
    for r in p.rules:
        if r.pos <= m and not r.neg & m:
            if not is_normal_rule(r):
                given += [("choice", a, r.pos) for a in r.head & m] + [("constraint", r.head, r.pos)]
            elif r.head and r.head <= m:
                given.append(("normal", r.head, r.pos))
    return len(set(given)) < len(given)


def test_compiled_tester_matches_fresh_testers():
    # One test_program result serves every candidate of each program, in
    # shuffled order.  The tester program of a candidate is a view of the
    # table its test searches and equals the rule-by-rule reference
    # construction, duplicates dropped; a search over it gives the test's
    # verdict and counts.
    rng = random.Random("compiled tester")
    seen = {"normal": 0, "loop": 0, "constraints": 0, "shared": 0}
    verdicts = set()
    for k in range(60):
        kind = ("normal", "disjunctive", "loop")[k % 3]
        p = _tester_program(rng, kind)
        table = build_test_program(p)
        tester = _Tester(p)
        base = sorted(p.base)
        assert len(base) <= 8
        candidates = [
            frozenset(a for i, a in enumerate(base) if bits >> i & 1) for bits in range(1 << len(base))
        ]
        rng.shuffle(candidates)
        for m in candidates:
            program = table.program(m)
            assert program.table == table.tester(table.numbers(m))
            assert program.rules == reference_test_program(p, m).rules
            fresh = Solver(program)
            verdict = fresh.next_stable_model() is None
            assert tester.minimal(sorted(table.numbers(m))) == verdict, (p.rules, m)
            assert tester.solver.stats == fresh.stats, (p.rules, m)
            assert verdict == (not _reduct_has_smaller_model(p, m)), (p.rules, m)
            verdicts.add(verdict)
        seen["normal"] += kind == "normal"
        seen["loop"] += kind == "loop"
        seen["constraints"] += any(not r.head for r in p.rules)
        seen["shared"] += any(_shares_tester_rule(p, m) for m in candidates)
    assert verdicts == {True, False}
    assert min(seen.values()) >= 5, seen


def test_search_testers_match_test_program(monkeypatch):
    # Each tester the driver searches, derived over its generator's numbers,
    # renders as test_program(p)'s tester of the same candidate, read off
    # its final constraint, in every mode: naive's generator marks every
    # atom, but a tester marks the disjunctive head atoms only.  The
    # tester's atoms hold test_program's in their order, and the others head
    # no tester rule.  Covered: d3sat, gw and random disjunctive programs,
    # sqrt QBFs with no disjunctive rule, tr of normal programs and normal
    # programs without constraints.
    tables = []

    class Recording(Solver):
        def __init__(self, program):
            super().__init__(program)
            tables.append(program)

    monkeypatch.setattr(gnt, "Solver", Recording)
    programs = [gen_d3sat_instance(12, 4.258, seed, 2).program for seed in range(4)]
    programs += [qbf_to_program(gen_random_qbf(8, "gw", seed)) for seed in range(4)]
    programs += [random_disjunctive_program(seed) for seed in range(20)]
    programs += [qbf_to_program(gen_random_qbf(v, "sqrt", seed)) for v, seed in ((6, 1), (6, 4), (10, 20))]
    programs += [unfold_partiality(random_normal_program(seed)) for seed in range(6)]
    programs += [random_normal_program(seed, constraints=False) for seed in range(6)]
    seen = {"tests": 0, "normal": 0, "without constraints": 0}
    for p in programs:
        reference = build_test_program(p)
        atoms = set(reference.atoms)
        for mode in ("gnt1", "gnt2", "naive"):
            # Every generator's testers are over its atoms.
            g = _GENERATORS[mode](p)
            assert build_test_program(g.table).atoms == g.table.atoms, mode
            tables.clear()
            solve_disjunctive(p, mode=mode, enumerate_all=True)
            for t in tables:
                m = frozenset(t.atoms[a] for a in t.rules[-1][1])
                assert Program.of_table(t).render() == reference.program(m).render(), (mode, p.rules, m)
                assert [a for a in t.atoms if a in atoms] == list(reference.atoms), mode
                assert all(t.atoms[h] in atoms for head, _, _ in t.rules for h in head), mode
            seen["tests"] += len(tables)
            seen["normal"] += p.is_normal and bool(tables)
            seen["without constraints"] += all(head for head, _, _ in p.table.rules) and bool(tables)
    assert seen["tests"] >= 400 and seen["normal"] >= 30 and seen["without constraints"] >= 10, seen


def test_tester_is_compiled_once_per_search(monkeypatch):
    # A search calls test_program on its generator's table once, however
    # many candidates it tests, and derives each candidate's tester from
    # its result: one ordinary tester solver per test, built inside that
    # test's call of minimal_test.
    compiled, tests, testers = [], [], []
    init, minimal, compile_ = Solver.__init__, gnt.minimal_test, gnt.test_program

    def counting_init(self, *args, **kwargs):
        if not isinstance(self, _Generator):
            testers.append((type(self), len(tests), depth))
        init(self, *args, **kwargs)

    def counting_minimal_test(*args, **kwargs):
        nonlocal depth
        tests.append(args)
        depth += 1
        try:
            return minimal(*args, **kwargs)
        finally:
            depth -= 1

    def counting_test_program(p):
        compiled.append(p)
        return compile_(p)

    monkeypatch.setattr(Solver, "__init__", counting_init)
    monkeypatch.setattr(gnt, "minimal_test", counting_minimal_test)
    monkeypatch.setattr(gnt, "test_program", counting_test_program)
    for v, seed in ((10, 0), (10, 4)):
        compiled.clear(), tests.clear(), testers.clear()
        depth = 0
        p = qbf_to_program(gen_random_qbf(v, "gw", seed))
        r = solve_disjunctive(p, mode="gnt2")
        assert r.stats.minimal_tests >= 3
        # ... on the table of p's generator, which keeps p's lifted rules
        assert [type(c) for c in compiled] == [GeneratorTable]
        assert [compiled[0].atoms[b] for b in compiled[0].base] == list(p.table.atoms)
        assert len(compiled[0].inputs) == len(p.table.rules)
        assert len(tests) == r.stats.minimal_tests
        # the k-th tester solver is built within the k-th test
        assert testers == [(Solver, k, 1) for k in range(1, len(tests) + 1)]


def test_no_search_outlives_solve(monkeypatch):
    # A suspended search and its solver refer to each other, so with the
    # collector off a solver is freed on return only if its search was
    # closed: the plain solver of a normal program, first model or all, and
    # the testers of a disjunctive search.
    built = []

    class Recorded(Solver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(gnt, "Solver", Recorded)
    normal = parse_program("a :- not b.\nb :- not a.")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for p, enumerate_all in ((normal, False), (normal, True), (DISJ, False), (DISJ, True)):
            built.clear()
            gnt.solve(p, "gnt2", enumerate_all)
            assert built and all(ref() is None for ref in built), (p.rules, enumerate_all)
    finally:
        if enabled:
            gc.enable()


class _LearningGenerator(_Generator):
    """Records each set it learns, with the true input atoms of the failed
    test and whether that test was a final one."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lessons = []

    def _learn(self, u):
        true = frozenset(self.atoms[a] for a in self.base if self.val[a] == TRUE)
        self.lessons.append((true, frozenset(self.atoms[a] for a in u), self.covered))
        super()._learn(u)


def _learning_programs():
    """The oracle suite of the learning tests: small seeded disjunctive and
    normal programs, and 8- to 12-atom ones with disjunctive heads."""
    rng = random.Random("learning")
    programs = [random_disjunctive_program(seed) for seed in range(120)]
    programs += [random_normal_program(seed) for seed in range(40)]
    programs += [_random_program(rng, n, 2 * n, max_head=3, min_neg=0) for n in (8, 9, 10, 11, 12) * 4]
    return programs


def test_learned_sets_are_unfounded():
    # Each set learned from a failed test, final or early, is a nonempty
    # unfounded set of p with respect to the test's candidate: the true
    # input atoms, the others read as false.
    final = early = 0
    for p in _learning_programs():
        for mode in ("gnt1", "gnt2", "naive"):
            g = _LearningGenerator(_GENERATORS[mode](p), GntConfig())
            for _ in g.models():
                pass
            assert len(g.lessons) == g.gnt_stats.learned_sets
            for t, u, covered in g.lessons:
                assert u and u <= t, (p.rules, t, u)
                assert u in set(unfounded_sets(p, PartialInterpretation.total(t, p.base))), (p.rules, t, u)
                final += covered
                early += not covered
    assert final >= 50 and early >= 50, (final, early)


def test_learning_keeps_every_model():
    # On the oracle suite, every mode under both early-test settings finds
    # exactly the oracle's models, as the search without learning does.
    learned = 0
    for p in _learning_programs():
        want = enumerate_stable_models(p)
        for mode in ("gnt1", "gnt2", "naive"):
            for config in _CONFIGS.values():
                got = solve_disjunctive(p, mode=mode, enumerate_all=True, config=config)
                ref = reference_solve_disjunctive(p, mode=mode, enumerate_all=True, config=config)
                assert got.models == ref.models == want, (p.rules, mode, config)
                learned += got.stats.learned_prunes
    assert learned >= 100, learned


def test_learning_keeps_every_model_above_oracle_cap():
    # Past the oracle's cap, the search with learning enumerates the models
    # of the search without it, under both early-test settings: on 14- and
    # 16-atom disjunctive programs, minimal-model 3-SAT at n=16-20 and gw
    # QBFs at v=8 and v=10 in every mode, and on tr of 20- to 50-atom normal
    # programs in gnt1 and gnt2.  naive is left out on tr, where its free
    # choice over 40 atoms or more ran for over a minute, and without early
    # tests on the QBFs, where the search without learning runs for more than
    # 30 s (see test_qbf_verdicts_agree_with_oracle_above_cap).
    rng = random.Random("learning-above-cap")
    every = [(mode, policy) for mode in ("gnt1", "gnt2", "naive") for policy in _CONFIGS]
    runs = [(_random_program(rng, n, 2 * n, max_head=3, min_neg=0), every) for n in (14, 16)]
    runs += [
        (gen_d3sat_instance(16 + seed % 5, 4.258, seed, specified_count=seed % 2).program, every)
        for seed in range(6)
    ]
    runs += [
        (qbf_to_program(gen_random_qbf(v, "gw", seed)), every[:-1])
        for v, seed in ((8, 50), (8, 268), (8, 4), (10, 0), (10, 4))
    ]
    runs += [
        (unfold_partiality(_random_program(rng, n, 2 * n, max_head=1, min_neg=1)), every[:4])
        for n in (20, 30, 40, 50)
    ]
    learned = 0
    for p, settings in runs:
        for mode, policy in settings:
            config = _CONFIGS[policy]
            got = solve_disjunctive(p, mode=mode, enumerate_all=True, config=config)
            ref = reference_solve_disjunctive(p, mode=mode, enumerate_all=True, config=config)
            assert got.models == ref.models, (mode, policy)
            learned += got.stats.learned_prunes
    assert learned >= 100, learned
