import random
from collections import Counter
from functools import lru_cache
from itertools import chain, islice

import pytest

from aspunfold import gnt
from aspunfold.bench import gen_d3sat_instance, gen_random_qbf
from aspunfold.gentest import gen_program
from aspunfold.gentest import test_program as build_test_program
from aspunfold.gnt import solve_disjunctive
from aspunfold.parser import parse_program
from aspunfold.partiality import unfold_partiality
from aspunfold.qbf import qbf_to_program
from aspunfold.semantics import enumerate_stable_models
from aspunfold.solver import FALSE, NO_SOURCE, TRUE, UNDEF, Solver
from aspunfold.syntax import Atom, Literal, Program, Rule

from conftest import (
    expand,
    random_normal_program,
    recursion_headroom,
    reference_choose,
    reference_expand,
    reference_sccs,
    unfounded_atoms,
    WalkingSolver,
)

A, B = Atom("a"), Atom("b")


def lits(result):
    return {l.text for l in result.literals}


def test_expand_forward():
    r = expand(parse_program("a."))
    assert lits(r) == {"a"} and not r.conflict


def test_expand_unfounded_loop():
    r = expand(parse_program("a :- a."))
    assert lits(r) == {"not a"} and not r.conflict


def test_expand_with_assumption():
    r = expand(parse_program("a :- not b."), [Literal(B, False)])
    assert lits(r) == {"a", "not b"}


def test_expand_conflict_marked():
    # forward chain forces a true against the assumed false
    r = expand(parse_program("b.\na :- b."), [Literal(A, False)])
    assert r.conflict


def test_expand_idempotent_and_monotone():
    p = parse_program("a :- not b.\nc :- a.")
    r1 = expand(p)
    r2 = expand(p, r1.literals)
    assert r1.literals == r2.literals
    smaller = expand(p, [])
    bigger = expand(p, [Literal(B, False)])
    assert smaller.literals <= bigger.literals or bigger.conflict


def test_heuristic():
    # the undefined atom in the most not-yet-satisfied rules, ties lexicographic
    s = Solver(parse_program("x :- y.\nx :- z.\nw."))
    assert s.assign_and_expand([(Atom("w"), True)])
    assert s.pick_atom().text == "x"
    assert Solver(parse_program("a :- not b.\nb :- not a.")).pick_atom().text == "a"
    s = Solver(parse_program("a."))
    assert s.assign_and_expand([(A, True)])
    with pytest.raises(RuntimeError):
        s.pick_atom()
    # The scan order covers the atoms undefined when it was built; undoing
    # an assignment made before then rebuilds it, so x counts again.
    s = Solver(parse_program("x :- y.\nx :- z.\nw."))
    assert s.assign_and_expand([(Atom("x"), True)])
    assert s.pick_atom().text != "x"
    s.undo_to(0)
    assert s.pick_atom().text == "x"


def test_enumeration_order_and_resumption():
    s = Solver(parse_program("a :- not b.\nb :- not a."))
    assert s.next_stable_model() == frozenset([B])
    assert s.next_stable_model() == frozenset([A])
    assert s.next_stable_model() is None


def test_no_model_program():
    assert Solver(parse_program(":- not a.")).next_stable_model() is None
    assert Solver(parse_program("a :- not a.")).next_stable_model() is None


def test_gen_example_two_models():
    from aspunfold.gentest import gen_program

    g = gen_program(parse_program("a | b."))
    assert len(list(Solver(g).models())) == 2


def test_solver_requires_normal_program():
    with pytest.raises(ValueError):
        Solver(parse_program("a | b."))


def test_stats_counted():
    s = Solver(parse_program("a :- not b.\nb :- not a."))
    list(s.models())
    assert s.stats.choices >= 1 and s.stats.expansions >= 1


def test_oracle_equivalence():
    for seed in range(150):
        p = random_normal_program(seed)
        assert set(Solver(p).models()) == set(enumerate_stable_models(p))


def test_expand_soundness_property():
    rng = random.Random(11)
    for seed in range(200):
        p = random_normal_program(seed, max_atoms=5, max_rules=8)
        atoms = sorted(p.base)
        assumed = [Literal(a, rng.random() < 0.5) for a in rng.sample(atoms, min(len(atoms), rng.randint(0, 2)))]
        r = expand(p, assumed)
        if r.conflict:
            continue
        agreeing = []
        for m in enumerate_stable_models(p):
            if all((l.atom in m) == l.positive for l in assumed):
                agreeing.append(m)
        for lit in r.literals:
            for m in agreeing:
                assert (lit.atom in m) == lit.positive


def test_expand_inside_wellfounded_bound():
    # from the empty assignment: never falsify an atom true in some stable
    # model, never assert an atom false in some stable model
    for seed in range(200):
        p = random_normal_program(seed, max_atoms=5, max_rules=8)
        models = enumerate_stable_models(p)
        if not models:
            continue
        r = expand(p)
        assert not r.conflict
        for lit in r.literals:
            if lit.positive:
                assert all(lit.atom in m for m in models)
            else:
                assert all(lit.atom not in m for m in models)


def root_fixed_false(s):
    """The atoms that set-up fixes false though they head a rule: those whose
    every rule has them in its negative body, the constraints' ⊥ included."""
    return {a for a, v in s._initial if v == FALSE and s.occ_head[a]}


def test_root_false_atoms_are_false_in_every_stable_model():
    # Over the oracle suites' programs, their tr, the generators of random
    # disjunctive programs and the testers of their candidates: every atom
    # set-up fixes false is false in every brute-force stable model.
    from aspunfold.gentest import gen_basic, gen_naive, gen_program, test_program
    from conftest import random_disjunctive_program

    programs = [random_normal_program(seed) for seed in range(300)]
    programs += [unfold_partiality(p) for p in programs[:100]]
    rng = random.Random(3)
    for seed in range(150):
        p = random_disjunctive_program(seed, max_atoms=4, max_rules=6)
        programs += [make(p) for make in (gen_basic, gen_naive, gen_program)]
        testers = test_program(p)
        base = sorted(p.base)
        for _ in range(3):
            m = testers.numbers(a for a in base if rng.random() < 0.5)
            programs.append(testers.tester(m)[0])
    fixed_in = checked = 0
    for p in programs:
        if len(p.base) > 12:
            continue
        s = Solver(p)
        fixed = root_fixed_false(s)
        atoms = {s.atoms[a] for a in fixed if a < len(s.atoms)}
        for m in enumerate_stable_models(p):
            assert atoms.isdisjoint(m), p
        fixed_in += bool(fixed)
        checked += 1
    assert checked > 1000 and fixed_in > 800


def test_user_written_self_blocking_atom():
    # Every rule for p has not p in its body, so p is false from the root,
    # and its rule, now a constraint on q, settles the choice between q and
    # r without a branch.
    p = parse_program("p :- not p, q.\nq :- not r.\nr :- not q.")
    s = Solver(p)
    assert [s.atoms[a].text for a in root_fixed_false(s)] == ["p"]
    assert lits(expand(p)) == {"not p", "not q", "r"}
    assert sorted(s.models(), key=sorted) == enumerate_stable_models(p) == [frozenset([Atom("r")])]
    assert s.stats.choices == 0


def test_atom_with_another_rule_is_not_fixed():
    # a :- c. derives a without blocking itself, so a is not fixed false.
    p = parse_program("a :- not a, b.\na :- c.\nc.")
    s = Solver(p)
    assert root_fixed_false(s) == set()
    assert sorted(s.models(), key=sorted) == enumerate_stable_models(p) == [frozenset([A, Atom("c")])]


def test_qbf_testers_never_branch_on_f(monkeypatch):
    # ⊥, the atom of the paper's f-rules, which the solver reads each
    # constraint's head as, heads only rules with not ⊥ in their body, so
    # set-up fixes it false, and no tester of a gw QBF translation branches
    # on it, nor on any atom outside the program's.  Without that inference
    # these testers did.
    from aspunfold import gnt
    from aspunfold.bench import gen_random_qbf
    from aspunfold.qbf import qbf_to_program

    chosen = []

    class RecordingSolver(Solver):
        def _choose(self, start=0):
            a, start = super()._choose(start)
            assert a < len(self.atoms)
            chosen.append(self.atoms[a])
            return a, start

    monkeypatch.setattr(gnt, "Solver", RecordingSolver)
    tests = 0
    for seed in range(1, 6):
        r = gnt.solve_disjunctive(qbf_to_program(gen_random_qbf(14, "gw", seed)))
        tests += r.stats.minimal_tests
    assert tests > 10 and len(chosen) > 20


def test_deep_search_is_not_recursive():
    # 400 independent choices; a search that recursed per choice would need
    # far more than 100 frames
    n = 400
    p = parse_program("\n".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}." for i in range(n)))
    with recursion_headroom(100):
        m = Solver(p).next_stable_model()
    assert len(m) == n


def random_looping_program(seed):
    """A random normal program over 2-8 atoms with at least one positive loop
    (of one atom, a self-loop, or more)."""
    rng = random.Random(("loop", seed).__repr__())
    atoms = [Atom(f"p{i}") for i in range(rng.randint(2, 8))]
    loop = rng.sample(atoms, rng.randint(1, len(atoms)))
    rules = [
        Rule(frozenset([a]), frozenset([b]), frozenset(rng.sample(atoms, rng.randint(0, 1))))
        for a, b in zip(loop, loop[1:] + loop[:1])
    ]
    for _ in range(rng.randint(1, 2 * len(atoms))):
        rules.append(
            Rule(
                frozenset([rng.choice(atoms)]),
                frozenset(rng.sample(atoms, rng.randint(0, 2))),
                frozenset(rng.sample(atoms, rng.randint(0, 2))),
            )
        )
    return Program(tuple(rules), base=frozenset(atoms))


def decision_walks(seeds, rng, solver=Solver, make=random_looping_program):
    """Random walks of assign, expand and undo_to (back to earlier fixpoints,
    as the search does), one per program ``make`` builds from a seed (a
    random looping program), every other program through unfold_partiality,
    each walked by a new ``solver``.  Yields (p, s, decisions, ok) after
    each expand, the first one from the facts alone; after a conflict the
    walk goes back to the last fixpoint."""
    for seed in seeds:
        p = make(seed)
        if seed % 2:
            p = unfold_partiality(p)
        s = solver(p)
        for a, v in s._initial:
            s._push(a, v)
        ok = s._expand()
        yield p, s, [], ok
        if not ok:
            continue
        marks = [(len(s.trail), 0)]  # (trail length, decisions) at each fixpoint
        decisions: list[Literal] = []
        for _ in range(20):
            undefined = [a for a in range(len(s.atoms)) if s.val[a] == UNDEF]
            if not undefined or (len(marks) > 1 and rng.random() < 0.3):
                if len(marks) == 1:
                    break  # the root fixpoint is already covered
                del marks[rng.randrange(1, len(marks)) :]
                s.undo_to(marks[-1][0])
                del decisions[marks[-1][1] :]
                continue
            a, value = rng.choice(undefined), rng.random() < 0.5
            decisions.append(Literal(s.atoms[a], value))
            s._push(a, TRUE if value else FALSE)
            ok = s._expand()
            yield p, s, decisions, ok
            if not ok:
                decisions.pop()
                s.undo_to(marks[-1][0])
                continue
            marks.append((len(s.trail), len(decisions)))


def assert_sources_hold(s):
    """The source-pointer invariant at a conflict-free fixpoint, read off the
    assignment: nothing is left in ``_lost``; every cyclic atom that is not
    false has as source a rule it heads with no false body literal, whose
    same-SCC positive body atoms all have sources; and over the atoms that
    are not false the pointers form no cycle.  A false atom may keep any
    pointer, blocked or not."""
    val, source = s.val, s.source
    assert not s._lost, s.program
    after: dict[int, set[int]] = {}
    for a, cyclic in enumerate(s._cyclic):
        if not cyclic or val[a] == FALSE:
            continue
        r = source[a]
        assert r != NO_SOURCE and s.r_head[r] == a, s.program
        assert all(val[b] != FALSE for b in s.r_pos[r]), s.program
        assert all(val[c] != TRUE for c in s.r_neg[r]), s.program
        assert all(source[b] != NO_SOURCE for b in s.r_int[r]), s.program
        after[a] = set(s.r_int[r])
    # Peel off, round by round, the atoms whose pointers lead only to atoms
    # already peeled; a cycle is what is left.
    while after:
        ready = [a for a, succ in after.items() if succ.isdisjoint(after)]
        assert ready, s.program
        for a in ready:
            del after[a]


def test_unfounded_check_is_complete_after_backtracking():
    # Each expand must reach the fixpoint that scanning every rule with the
    # solver's inference rules reaches from the same decisions, the
    # whole-program unfounded-set pass among them, and conflict exactly
    # when that scan derives an atom both ways.  The scan keeps no counters
    # and no trail, so this also checks that propagating the trail in its
    # order, and ending at the first contradiction, decides nothing that
    # another order would decide otherwise.  At each fixpoint the source
    # pointers must also hold, though false atoms keep theirs.
    fixpoints = 0
    for p, s, decisions, ok in decision_walks(range(2000), random.Random(5)):
        assumed = [(s.index[lit.atom], TRUE if lit.positive else FALSE) for lit in decisions]
        ref = reference_expand(s, s._initial + assumed)
        assert ok == (ref is not None), (p, decisions)
        if not ok:
            continue
        assert s.val == ref, (p, decisions)
        assert all(s.val[b] == FALSE for b in unfounded_atoms(s)), (p, decisions)
        assert_sources_hold(s)
        fixpoints += 1
    assert fixpoints > 4000


class SourceCheckedSolver(Solver):
    """A solver that checks, at the start of every expand of its search,
    that each atom recorded in ``_lost`` has no source, and its source
    pointers after every conflict-free expand."""

    fixpoints = 0

    def _expand(self):
        assert all(self.source[a] == NO_SOURCE for a in self._lost), self.program
        ok = super()._expand()
        if ok:
            assert_sources_hold(self)
            self.fixpoints += 1
        return ok


def source_searches(solver):
    """Whole searches by ``solver`` over the random looping programs and
    their tr, and tr of random programs of the partial benchmark's size (200
    atoms, 400 rules); the conflict-free fixpoints they reach."""
    programs = [random_looping_program(seed) for seed in range(300)]
    programs = [unfold_partiality(p) if seed % 2 else p for seed, p in enumerate(programs)]
    programs += [unfold_partiality(random_wide_program(seed, 200, 400)) for seed in range(6)]
    searched = 0
    for p in programs:
        s = solver(p)
        for _ in s.models():
            pass
        searched += s.fixpoints
    return searched


def test_source_pointers_hold_in_whole_searches():
    # A false atom keeps whatever pointer it has, and propagation records a
    # blocked source's head only when the head is not false and keeps an
    # unblocked rule; undo_to records only the atoms it unassigns that have
    # no source.  So at every conflict-free fixpoint of a whole search, which
    # also copies the counters back and prunes its lists at the first
    # choice, every atom that is not false must still have a source that
    # can derive it, with no cycle, as at the fixpoints of the random walks
    # above.  An expand that ends in a conflict drops the records its
    # propagation made, whose sources the backtrack unblocks again, so
    # every atom in _lost at the start of an expand has no source.
    searched = source_searches(SourceCheckedSolver)
    assert searched > 700, searched


class LostDroppedOnConflict(SourceCheckedSolver):
    """A mutant whose conflicts drop every record in ``_lost``, those of the
    atoms that ``_unassign`` leaves without a source among them."""

    def _unit_propagate(self):
        ok = super()._unit_propagate()
        if not ok:
            self._lost.clear()
        return ok


def test_source_check_catches_records_dropped_on_conflict():
    # Only propagation's own records may go: an atom unassigned without a
    # source must be given one at the next check.
    with pytest.raises(AssertionError):
        source_searches(LostDroppedOnConflict)


class CheckedSolver(Solver):
    """A solver whose every branching choice is checked against the full
    count, whose scan position is checked to skip only assigned atoms, and
    whose scan order is checked to hold every undefined atom."""

    def _choose(self, start=0):
        a, end = super()._choose(start)
        order = self._by_occurrence
        assert all(self.val[b] != UNDEF for b in order[:start]), self.program
        assert a == reference_choose(self), self.program
        assert self.val[order[end]] == UNDEF, self.program
        assert {b for b, v in enumerate(self.val) if v == UNDEF} <= set(order), self.program
        return a, end


def test_choose_matches_full_count():
    # The bounded scan of _choose skips atoms by their occurrence counts; it
    # must pick what counting every rule picks, ties included, at the
    # fixpoints of random walks and at every choice of whole searches.
    # The walks start 2,400 programs: fixing self-blocking atoms false at
    # set-up settles more of them at the root, and 2,000 walked too few
    # fixpoints.  At each walked fixpoint pick_atom builds the order afresh.
    walked = searched = 0
    for p, s, decisions, ok in decision_walks(range(2400), random.Random(6)):
        if ok and not s.covered:
            assert s.pick_atom() == s.atoms[reference_choose(s)], (p, decisions)
            walked += 1
    programs = [random_looping_program(seed) for seed in range(300)]
    programs = [unfold_partiality(p) if seed % 2 else p for seed, p in enumerate(programs)]
    # Every model of independent pairs: deep branches whose scan positions
    # must be restored when the search backtracks past them.
    programs.append(parse_program("".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}.\n" for i in range(5))))
    for p in programs:
        s = CheckedSolver(p)
        list(s.models())
        searched += s.stats.choices
    assert walked > 2500 and searched > 150


def check_bench_sized_choices(monkeypatch):
    """Run searches at the benchmark's sizes with every choice checked
    against the full count: tr of random normal programs of 200 atoms and
    400 rules, read from their text, and gnt2 on d3sat n=50 and gw v=14
    instances, generator and tester searches alike; and the same tr
    searches with a budget of one copy, which walk back from every choice
    below the first, as searches with more copies seldom do.  The choices
    checked, by kind of search."""
    choose = Solver._choose
    checked = Counter()
    kind = "partial"

    def checked_choose(self, start=0):
        a, start = choose(self, start)
        assert a == reference_choose(self), (kind, self.program)
        checked["generator" if isinstance(self, gnt._Generator) else kind] += 1
        return a, start

    monkeypatch.setattr(Solver, "_choose", checked_choose)
    for seed in range(6):
        list(Solver(unfold_partiality(random_wide_program(seed, 200, 400))).models())
    kind = "tester"
    for seed in range(1, 21):
        solve_disjunctive(gen_d3sat_instance(50, 4.258, seed).program)
        solve_disjunctive(qbf_to_program(gen_random_qbf(14, "gw", seed)))
    kind = "one copy"
    for seed in range(6):
        list(OneCopySolver(unfold_partiality(random_wide_program(seed, 200, 400))).models())
    return checked


def test_bounded_choices_match_full_count(monkeypatch):
    # _choose skips an atom whose count, taken at a choice above, cannot
    # beat the best so far; every backtrack must put back the bounds taken
    # below the choice it returns to, whether it copies the counters back
    # or walks back.
    checked = check_bench_sized_choices(monkeypatch)
    assert checked["partial"] > 200 and checked["generator"] > 700 and checked["tester"] > 200, checked
    assert checked["one copy"] == checked["partial"], checked


RESTORE_BOUNDS = Solver._restore_bounds


def bounds_kept_once(self, noted):
    """A mutant: the bound lowered last below a choice is not put back."""
    if len(self._journal) > noted:
        self._journal.pop()
    RESTORE_BOUNDS(self, noted)


def bounds_kept_on_walk_back(self, noted):
    """A mutant: a backtrack that walks the counters back keeps the bounds
    taken below the choice it returns to."""
    if self._walked:
        del self._journal[noted:]
    else:
        RESTORE_BOUNDS(self, noted)


@pytest.mark.parametrize("mutant", [bounds_kept_once, bounds_kept_on_walk_back])
def test_bounded_choice_check_catches_mutants(monkeypatch, mutant):
    undo_to = Solver.undo_to

    def recorded_undo_to(self, mark, saved=None):
        self._walked = saved is None
        undo_to(self, mark, saved)

    monkeypatch.setattr(Solver, "undo_to", recorded_undo_to)
    monkeypatch.setattr(Solver, "_restore_bounds", mutant)
    with pytest.raises(AssertionError):
        check_bench_sized_choices(monkeypatch)


def test_rule_lists_built_only_where_counted(monkeypatch):
    # The first choice builds no rule list: _choose gathers an atom's rules
    # the first time it counts the atom, and every acyclic atom has the one
    # empty occ_int.  Over whole searches at the benchmark's sizes (tr of
    # 200-atom, 400-rule programs, gnt2 on d3sat n=50 and gw v=14, generator
    # and tester searches), every list built must be the atom's pruned
    # rules, each once, most searches must leave some open atom's list
    # unbuilt, and occ_int must be the empty tuple exactly for the acyclic
    # atoms.
    models = Solver.models
    searched = []

    def recorded_models(self):
        searched.append(self)
        return models(self)

    monkeypatch.setattr(Solver, "models", recorded_models)
    for seed in range(3):
        list(Solver(unfold_partiality(random_wide_program(seed, 200, 400))).models())
    for seed in range(1, 6):
        solve_disjunctive(gen_d3sat_instance(50, 4.258, seed).program)
        solve_disjunctive(qbf_to_program(gen_random_qbf(14, "gw", seed)))
    branched = unbuilt = 0
    for s in searched:
        assert [occ == () for occ in s.occ_int] == [not c for c in s._cyclic], s.program
        if s._by_occurrence is None:
            continue
        branched += 1
        open_atoms = set(s._by_occurrence)
        for a, occ in enumerate(s.occ_all):
            if occ is not None:
                assert a in open_atoms, s.program
                assert sorted(occ) == sorted(set(s.occ_head[a] + s.occ_pos[a] + s.occ_neg[a])), s.program
        unbuilt += any(s.occ_all[a] is None for a in open_atoms)
    assert branched > 20 and unbuilt > branched / 2, (branched, unbuilt)


def occurrence_lists(s):
    return s.occ_pos, s.occ_neg, s.occ_head, s.occ_int


def test_sccs_match_reference(monkeypatch):
    # Set-up leaves out of Tarjan the atoms that lie on no positive cycle;
    # the cyclic atoms, r_int and occ_int must be those of one Tarjan over
    # every atom.  Tables: random looping programs and their tr, self-loops
    # by hand, and the generator and tester tables of d3sat and gw QBF
    # instances.
    from aspunfold import gnt
    from aspunfold.bench import gen_d3sat_instance, gen_random_qbf
    from aspunfold.qbf import qbf_to_program

    programs = [random_looping_program(seed) for seed in range(300)]
    programs += [unfold_partiality(p) for p in programs]
    programs += [
        parse_program(text)
        for text in ("a :- a.", "a :- a, not b.\nb :- not a.", "a :- b.\nb :- a.\nb :- b, c.\nc.", "a :- b, a.\nb.")
    ]
    tester_tables = []

    class RecordingSolver(Solver):
        def __init__(self, program):
            super().__init__(program)
            tester_tables.append(program)

    monkeypatch.setattr(gnt, "Solver", RecordingSolver)
    for seed in range(8):
        for p in (gen_d3sat_instance(30, 4.258, seed).program, qbf_to_program(gen_random_qbf(14, "gw", seed))):
            programs += [make(p) for make in gnt._GENERATORS.values()]
            g = gnt._Generator(gnt.gen_program(p), gnt.GntConfig())
            gnt._drain(g, p.base, True)
    testers = [Solver(t) for t in tester_tables]
    self_loops = 0
    for s in [Solver(p) for p in programs] + testers:
        assert (s._cyclic, s.r_int, s.occ_int) == reference_sccs(s), s.program
        self_loops += any(h in pos for h, pos in zip(s.r_head, s.r_pos))
    assert len(testers) > 50 and self_loops > 100
    assert sum(any(s._cyclic) for s in testers) > 30


def assert_counters_match(s):
    """The invariant propagation keeps, recomputed from the assignment alone:
    ``block`` is one more than the longest body; a rule's ``left`` is at
    least ``block`` exactly when a body literal is false; unless the search
    dropped the rule from a body atom's list at its first choice, ``left %
    block`` counts its body literals not yet true, blocked or not, and
    ``left // block`` its body literals false; ``active`` counts each
    atom's unblocked rules; every occurrence list, pruned or not, still
    holds its unblocked rules; and the trail holds exactly the assigned
    atoms."""
    val, block = s.val, s.block
    assert block == 1 + max([len(pos) + len(neg) for pos, neg in zip(s.r_pos, s.r_neg)], default=0)
    blocked = [
        any(val[b] == FALSE for b in pos) or any(val[c] == TRUE for c in neg)
        for pos, neg in zip(s.r_pos, s.r_neg)
    ]
    assert [k >= block for k in s.left] == blocked, s.program
    for r, (pos, neg) in enumerate(zip(s.r_pos, s.r_neg)):
        if all(r in s.occ_pos[b] for b in pos) and all(r in s.occ_neg[c] for c in neg):
            left = sum(val[b] != TRUE for b in pos) + sum(val[c] != FALSE for c in neg)
            false = sum(val[b] == FALSE for b in pos) + sum(val[c] == TRUE for c in neg)
            assert (s.left[r] % block, s.left[r] // block) == (left, false), s.program
    active = [0] * len(s.val)
    for r, h in enumerate(s.r_head):
        active[h] += not blocked[r]
    assert s.active == active, s.program
    members_of = ((s.occ_head, [(h,) for h in s.r_head]), (s.occ_pos, s.r_pos), (s.occ_neg, s.r_neg), (s.occ_int, s.r_int))
    for lists, members in members_of:
        for r, atoms in enumerate(members):
            assert blocked[r] or all(r in lists[a] for a in atoms), s.program
    assert len(s.trail) == sum(v != UNDEF for v in val), s.program
    assert set(s.trail) == {a for a, v in enumerate(val) if v != UNDEF}


class CountedSolver(Solver):
    """A solver that checks its counters against its assignment after every
    expand and every undo_to."""

    def _expand(self):
        ok = super()._expand()
        assert_counters_match(self)
        return ok

    def undo_to(self, mark, saved=None):
        super().undo_to(mark, saved)
        assert_counters_match(self)


class FrozenSolver(CountedSolver):
    """A mutant that walks back with blocked rules' body literals not yet
    true frozen: each atom, last first, removes its blocks and then
    un-advances only the rules left unblocked.  Propagation counts blocked
    rules too, so their ``left % block`` stays one short."""

    def undo_to(self, mark, saved=None):
        if saved is None:
            left, block = self.left, self.block
            for a in reversed(self.trail[mark:]):
                if self.val[a] == TRUE:
                    advanced, blocked = self.occ_pos[a], self.occ_neg[a]
                else:
                    advanced, blocked = self.occ_neg[a], self.occ_pos[a]
                for r in blocked:
                    left[r] -= block
                    if left[r] < block:
                        self.active[self.r_head[r]] += 1
                for r in advanced:
                    if left[r] < block:
                        left[r] += 1
            saved = self._save()
        super().undo_to(mark, saved)


def long_body_program(seed):
    """A few choices, 10-20 atoms each derived from one of them, and a rule,
    on a positive loop or, for every third seed, a constraint, whose body
    has 20-40 literals over the derived atoms: with a dozen of them false,
    its counter passes 256, past the integers Python keeps cached.  At most
    16 stable models, so whole searches of its tr stay small."""
    rng = random.Random(("long", seed).__repr__())
    m, n = rng.randint(2, 4), rng.randint(10, 20)
    lines = [f"x{j} :- not y{j}.\ny{j} :- not x{j}." for j in range(m)]
    lines += [f"c{i} :- {rng.choice(['', 'not '])}x{rng.randrange(m)}." for i in range(n)]
    names = [f"c{i}" for i in range(n)]
    body = rng.sample(names + [f"not {c}" for c in names], rng.randint(20, 2 * n))
    lines += ["g :- h, not x0.", "h :- g.", f"{'' if seed % 3 == 0 else 'h'} :- {', '.join(body)}."]
    return parse_program("\n".join(lines))


def walk_counted(solver):
    """The walks of ``test_counters_match_assignment`` by ``solver``, 600
    over random looping programs and 100 over long-body programs; the
    number of expansions and of conflicts, and the largest counter seen."""
    expansions = conflicts = largest = 0
    walks = chain(
        decision_walks(range(600), random.Random(7), solver),
        decision_walks(range(100), random.Random(8), solver, long_body_program),
    )
    for p, s, decisions, ok in walks:
        expansions += 1
        conflicts += not ok
        largest = max(largest, max(s.left, default=0))
    return expansions, conflicts, largest


class PruneCountedSolver(CountedSolver):
    """A counted solver that also checks its counters right after the search
    prunes its lists, and records whether that changed a list."""

    changed = False

    def _prune_blocked(self):
        before = [list(map(len, lists)) for lists in occurrence_lists(self)]
        super()._prune_blocked()
        assert_counters_match(self)
        self.changed = before != [list(map(len, lists)) for lists in occurrence_lists(self)]


def test_counters_match_assignment():
    # left and active follow val through propagation, conflicts and
    # backtracking, and the trail holds exactly the assigned atoms: in
    # random walks, long-body rules' counters past 256 among them, and in
    # whole searches, whose first choice prunes the rules blocked then from
    # the lists of the open atoms for good.
    expansions, conflicts, largest = walk_counted(CountedSolver)
    assert expansions > 4000 and conflicts > 2000 and largest > 256, (expansions, conflicts, largest)
    pruned = 0
    for seed in range(600):
        p = random_looping_program(seed)
        s = PruneCountedSolver(unfold_partiality(p) if seed % 2 else p)
        for _ in s.models():
            pass
        pruned += s.changed
    assert pruned > 100, pruned


def test_counter_check_catches_frozen_undo():
    # Skipping the blocked rules when un-advancing leaves their left one
    # short; the check must see it.
    with pytest.raises(AssertionError):
        walk_counted(FrozenSolver)


def test_contradiction_ends_the_expand_at_once():
    # x false fires y, c1 and z, in rule order, and advances the constraint
    # :- y, not x to its last literal.  y is assigned at once, so the
    # constraint's body holds: a conflict while x is still being propagated.
    # The expand ends there: y, c1 and z, assigned but not yet propagated,
    # are unassigned, and the chain c2 :- c1 ... c50 :- c49 is never walked.
    # A propagation that checks each derived literal only when it takes it
    # from a stack walks the whole chain first and leaves 54 atoms on the
    # trail; one that leaves the unpropagated atoms assigned leaves 5, and
    # its counters no longer match the assignment.
    lines = ["y :- not x.", ":- y, not x.", "c1 :- not x."]
    lines += [f"c{i} :- c{i - 1}." for i in range(2, 51)]
    lines += ["x :- not z.", "z :- not x."]
    s = Solver(parse_program("\n".join(lines)))
    for a, v in s._initial:
        s._push(a, v)
    assert s._expand()
    root = s.trail[:]
    assert root == [len(s.atoms)]  # ⊥, fixed false at the root
    x = s.index[Atom("x")]
    s._push(x, FALSE)
    assert not s._expand()
    assert s.trail == root + [x]
    assert_counters_match(s)


class PruneAtEveryChoice(CountedSolver):
    """A mutant that drops the rules blocked at every choice, also while
    choices are pending: backtracking past such a choice unblocks rules its
    lists no longer hold."""

    def _choose(self, start=0):
        self._prune_blocked()
        return super()._choose(start)


def test_pruning_check_catches_pruning_below_pending_choices():
    # Dropping blocked rules is sound only for an assignment the search
    # never undoes.  The mutant's searches are cut at their first 30 models:
    # some run out of memory when drained.
    with pytest.raises(AssertionError):
        for p in copy_corpus():
            mutant, walking = PruneAtEveryChoice(p), WalkingSolver(p)
            assert list(islice(mutant.models(), 30)) == list(islice(walking.models(), 30))
            assert mutant.stats == walking.stats


# -- backtracking by copy -------------------------------------------------------


def random_wide_program(seed, atoms=40, rules=80):
    """A random normal program shaped like the benchmark's partial family:
    each rule with a random head, 0-2 positive and 1-2 negative body atoms."""
    rng = random.Random(("wide", seed).__repr__())
    names = [f"a{i}" for i in range(atoms)]
    lines = []
    for _ in range(rules):
        body = rng.sample(names, rng.randint(0, 2))
        body += [f"not {x}" for x in rng.sample(names, rng.randint(1, 2))]
        lines.append(f"{rng.choice(names)} :- {', '.join(body)}.")
    return parse_program("\n".join(lines))


def gw_testers():
    """The testers of the first candidates of three gw QBF translations."""
    for seed in range(1, 4):
        p = qbf_to_program(gen_random_qbf(14, "gw", seed))
        table = build_test_program(p)
        for m in islice(Solver(gen_program(p)).models(), 8):
            yield table.tester(table.numbers(m & p.base))[0]


@lru_cache(maxsize=None)
def copy_corpus():
    """Seeded normal programs, long-body programs among them, and their tr
    translations, d3sat generators (at n=100 searches go past the copies of
    the default budget) and gw testers."""
    programs = [random_normal_program(seed) for seed in range(60)]
    programs += [random_wide_program(seed) for seed in range(8)]
    programs += [long_body_program(seed) for seed in range(6)]
    programs += [unfold_partiality(p) for p in programs]
    programs += [gen_program(gen_d3sat_instance(n, 4.258, seed).program) for n in (20, 50, 70, 100) for seed in range(4)]
    return tuple(programs + list(gw_testers()))


def search_states(s):
    """Each model of s's search with left, active, val and source when it is
    yielded, the same at the end of the search, and its counts."""

    def state(m):
        return m, s.left[:], s.active[:], s.val[:], s.source[:]

    states = [state(m) for m in s.models()]
    return states + [state(None)], s.stats


def assert_searches_walk_alike(solver):
    for i, p in enumerate(copy_corpus()):
        assert search_states(solver(p)) == search_states(WalkingSolver(p)), i


def copy_size(s):
    return len(s.r_head) + len(s.val)


class OneCopySolver(Solver):
    """A solver whose copies on a branch hold at most one copy."""

    def _copy_budget(self):
        return copy_size(self)


class ShuffledWalkSolver(Solver):
    """A solver whose walks back visit the atoms they unassign in a seeded
    random order; ``_unassign`` still sees them in trail order."""

    _in_order = None

    def undo_to(self, mark, saved=None):
        if saved is None:
            self._in_order = self.trail[mark:]
            shuffled = self._in_order[:]
            random.Random(mark).shuffle(shuffled)
            self.trail[mark:] = shuffled
        super().undo_to(mark, saved)

    def _unassign(self, mark):
        if self._in_order is not None:
            self.trail[mark:], self._in_order = self._in_order, None
        super()._unassign(mark)


@pytest.mark.parametrize("solver", [Solver, OneCopySolver, ShuffledWalkSolver])
def test_copy_restore_matches_walking_back(solver):
    # Restoring the counters a choice copied leaves the search, its models,
    # its counts and its counters as walking the lists back does, whether
    # copies stop at the budget or after one, and whether the walks visit
    # the atoms in trail order or shuffled: every counter is a sum over the
    # propagated atoms.  Both ways back are taken inside the searches, not
    # only the final walk to the root.
    restored = walked = 0

    class Counting(solver):
        def undo_to(self, mark, saved=None):
            nonlocal restored, walked
            restored += saved is not None
            walked += saved is None and mark > 0
            super().undo_to(mark, saved)

    assert_searches_walk_alike(Counting)
    assert restored > 100 and walked > 30, (restored, walked)


class ActiveKeptOnRestore(Solver):
    """A mutant whose restore copies back left but leaves active as it is."""

    def undo_to(self, mark, saved=None):
        if saved is not None:
            saved = (saved[0], self.active[:])
        super().undo_to(mark, saved)


class LateCopySolver(Solver):
    """A mutant that copies the counters once the choice's negative branch
    has expanded, not before its push."""

    _late = None

    def _save(self):
        self._late = ([], [])
        return self._late

    def _expand(self):
        ok = super()._expand()
        if self._late is not None:
            for copy, live in zip(self._late, (self.left, self.active)):
                copy[:] = live
            self._late = None
        return ok


@pytest.mark.parametrize("mutant", [ActiveKeptOnRestore, LateCopySolver])
def test_copy_restore_check_catches_mutants(mutant):
    with pytest.raises(AssertionError):
        assert_searches_walk_alike(mutant)


def list_entries(s):
    """The entries of the solver's per-rule and per-atom lists: the slots of
    each list and the entries of the tuples and lists in them."""
    per_rule = (s.r_head, s.r_pos, s.r_neg, s.r_int, s.left)
    per_atom = (s.atoms, s.val, s.active, s.source, s._cyclic, s.occ_head, s.occ_pos, s.occ_neg, s.occ_int)
    nested = (s.r_pos, s.r_neg, s.r_int, s.occ_head, s.occ_pos, s.occ_neg, s.occ_int)
    return sum(map(len, per_rule + per_atom)) + sum(len(x) for lists in nested for x in lists)


class HeldCopies(Solver):
    """Records the most entries its counter copies held at once."""

    held = peak = 0

    def _save(self):
        self.held += copy_size(self)
        self.peak = max(self.peak, self.held)
        return super()._save()

    def undo_to(self, mark, saved=None):
        if saved is not None:
            self.held -= copy_size(self)
        super().undo_to(mark, saved)


def test_copies_hold_at_most_the_solvers_own_lists():
    # 2,000 independent pairs: the first model is 2,000 choices deep, and
    # copies without a budget would hold 2,000 copies of 8,000 entries.
    p = parse_program("\n".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}." for i in range(2000)))
    s = HeldCopies(p)
    assert s._copy_budget() == list_entries(s)
    assert len(s.next_stable_model()) == 2000
    assert copy_size(s) <= s.peak <= list_entries(s)
    for p in copy_corpus():
        s = HeldCopies(p)
        entries = list_entries(s)
        for _ in s.models():
            assert s.held <= s.peak <= entries
        assert s.held == 0 and s.peak <= entries


class PendingCopies(Solver):
    """Checks, at each choice, that the pending choices holding copies are
    the shallowest ones, as many as the budget has room for."""

    def __init__(self, p):
        super().__init__(p)
        self.pending = []  # per pending choice, whether it holds a copy
        self.fit = self._copy_budget() // copy_size(self)
        self.most = 0

    def _choose(self, start=0):
        k = min(len(self.pending), self.fit)
        assert self.pending == [True] * k + [False] * (len(self.pending) - k)
        self.most = max(self.most, k)
        self.pending.append(False)
        return super()._choose(start)

    def _save(self):
        self.pending[-1] = True
        return super()._save()

    def undo_to(self, mark, saved=None):
        assert self.pending.pop() == (saved is not None)
        super().undo_to(mark, saved)


def test_copies_go_to_the_shallowest_pending_choices():
    assert Solver(parse_program("")).next_stable_model() == frozenset()
    p = parse_program("\n".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}." for i in range(2000)))
    s = PendingCopies(p)
    assert len(s.next_stable_model()) == 2000
    # 4,000 rules and 4,000 atoms: six slots per rule, nine per atom and two
    # per negative body atom make a budget of 68,000 entries, and a copy
    # holds one entry per rule and one per atom, 8,000, so 8 copies fit.
    assert len(s.pending) == 2000 and s.most == s.fit == 8
    filled = 0
    for p in copy_corpus():
        s = PendingCopies(p)
        for _ in s.models():
            pass
        assert s.pending == []
        filled += s.most == s.fit
    assert filled > 0
