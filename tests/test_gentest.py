import random

import pytest

from aspunfold.bench import gen_d3sat_instance, gen_random_qbf
from aspunfold.gentest import gen_basic, gen_naive, gen_program, support_program
from aspunfold.gentest import test_program as build_test_program
from aspunfold.parser import parse_program
from aspunfold.qbf import qbf_to_program
from aspunfold.semantics import enumerate_stable_models, PartialInterpretation
from aspunfold.solver import Solver
from aspunfold.syntax import Atom, F_ATOM, U_ATOM, Program, Rule, complement, potential, support

from conftest import (
    is_total_model,
    random_disjunctive_program,
    random_normal_program,
    random_positive_program,
    reference_gen_basic,
    reference_gen_naive,
    reference_gen_program,
    reference_support_program,
    candidate_tester,
    reference_test_program,
)

A, B, C = Atom("a"), Atom("b"), Atom("c")
DISJ = parse_program("a | b.")
DISJ_NEG = parse_program("a | b :- not c.")


def rules_of(text):
    return set(parse_program(text, allow_reserved=True).rules)


def test_gen_naive_structure_and_candidates():
    g = gen_naive(DISJ)
    assert len(g.rules) == 5  # 4 choice rules + 1 constraint
    candidates = sorted(tuple(sorted(a.text for a in m & DISJ.base)) for m in Solver(g).models())
    assert candidates == [("a",), ("a", "b"), ("b",)]
    for m in Solver(g).models():
        assert is_total_model(PartialInterpretation.total(m & DISJ.base, DISJ.base), DISJ)


def test_gen_naive_free_choice_over_declared_base():
    p = Program((), base=frozenset([A]))
    models = set(Solver(gen_naive(p)).models())
    assert models == {frozenset([A]), frozenset([complement(A)])}


def test_gen_naive_keeps_constraints_armed():
    # desugared constraints must not get a choice pair on the reserved atom
    p = parse_program("a | b.\n:- a.")
    got = {frozenset(m & p.base) for m in Solver(gen_naive(p)).models()}
    assert got == {frozenset([B])}


def test_gen_basic_paper_listing():
    assert set(gen_basic(DISJ).rules) == rules_of(
        "a :- not c__a.\nc__a :- not a.\nb :- not c__b.\nc__b :- not b.\n"
        ":- not a, not b.\n"
    )
    assert {frozenset(m) for m in Solver(gen_basic(DISJ)).models()} == {
        frozenset([A, B]),
        frozenset([A, complement(B)]),
        frozenset([B, complement(A)]),
    }
    assert set(gen_basic(DISJ_NEG).rules) == rules_of(
        "a :- not c__a, not c.\nb :- not c__b, not c.\nc__a :- not a.\nc__b :- not b.\n"
        ":- not a, not b, not c.\n"
    )


def test_gen_basic_normal_program_passthrough():
    p = parse_program("a :- not b.\nb :- c.")
    assert set(gen_basic(p).rules) == set(p.rules)
    assert set(gen_program(p).rules) == set(p.rules)
    assert support_program(p).rules == ()


def test_support_paper_listing():
    assert set(support_program(DISJ).rules) == rules_of(
        "s__a :- not b.\ns__b :- not a.\n"
        ":- a, not s__a.\n:- b, not s__b.\n"
    )
    assert set(support_program(DISJ_NEG).rules) == rules_of(
        "s__a :- not b, not c.\ns__b :- not a, not c.\n"
        ":- a, not s__a.\n:- b, not s__b.\n"
    )


def test_support_covers_normal_rules_with_disjunctive_heads():
    p = parse_program("a | b.\na :- c.")
    assert Rule(frozenset([support(A)]), frozenset([C]), frozenset()) in set(support_program(p).rules)


def test_gen_program_paper_example():
    g = gen_program(DISJ)
    models = {frozenset(m) for m in Solver(g).models()}
    assert models == {
        frozenset([A, support(A), complement(B)]),
        frozenset([B, support(B), complement(A)]),
    }
    assert len(gen_program(DISJ_NEG).rules) == 9


def test_gen_rejects_marked_input():
    with pytest.raises(ValueError, match="complement/support"):
        gen_basic(gen_program(DISJ))


def test_constructions_treat_f_as_an_ordinary_atom():
    # Constraints are rules with an empty head, so __f is free for the
    # input: in a disjunctive head or derived by a normal rule, every mode
    # finds the oracle's stable models, with early tests on or off.
    from aspunfold.gnt import GntConfig, solve_disjunctive
    from aspunfold.partiality import tr2_program

    cases = [
        ("a | __f :- b.\nb.", [{"__f", "b"}, {"a", "b"}]),
        ("__f :- b.\nb.\na | c.", [{"__f", "a", "b"}, {"__f", "b", "c"}]),
    ]
    programs = [(parse_program(text, allow_reserved=True), want) for text, want in cases]
    programs.append((tr2_program(parse_program("a | b.\nc :- not d.\nd :- not c.")), None))
    for p, want in programs:
        oracle = enumerate_stable_models(p)
        assert want is None or [{a.text for a in m} for m in oracle] == want
        for mode in ("gnt1", "gnt2", "naive"):
            for policy in ("on", "off"):
                got = solve_disjunctive(p, mode, enumerate_all=True, config=GntConfig(early_test=policy))
                assert got.models == oracle, (p.render(), mode, policy)
    assert len(oracle) == 6


def test_test_program_paper_example():
    # a is outside M, so neither a nor its mark is an atom of the tester, and
    # the rule's constraint keeps only the head atom b.
    tp = candidate_tester(DISJ_NEG, frozenset([B]))
    assert tp.render() == "b :- not c__b.\nc__b :- not b.\n:- not b.\n:- b.\n"
    assert tp.atoms == (B, complement(B))
    assert Solver(tp).next_stable_model() is None


def test_tester_of_reduct_facts_is_the_empty_constraint():
    # Every atom of M is a fact of the reduct P^M: nothing is left open, so
    # the tester is the constraint without a body, and M passes.
    p = parse_program("a | b.\na :- not c.\nb :- not c.")
    testers = build_test_program(p)
    tp, numbers = testers.tester(testers.numbers(frozenset([A, B])))
    assert tp.render() == ":- .\n"
    assert tp.atoms == () and numbers == []
    assert Solver(tp).next_stable_model() is None


def test_tester_fact_in_disjunctive_head_keeps_choices_drops_constraint():
    # a is a fact of the reduct and a head atom of a | b :- d, and so is d,
    # its body: the rule keeps b's choice rule, without d, and gives no
    # constraint, since a blocks it.  M = {a, b, d} is not minimal.
    p = parse_program("a | b :- d.\nd.\na :- not c.")
    testers = build_test_program(p)
    m = frozenset([A, B, Atom("d")])
    tp, numbers = testers.tester(testers.numbers(m))
    assert tp.render() == "b :- not c__b.\nc__b :- not b.\n:- b.\n"
    assert [testers.atoms[a] for a in numbers] == [B, complement(B)]
    assert tp == reference_test_program(p, m)
    assert Solver(tp).next_stable_model() is not None


def test_test_program_empty_candidate():
    tp = candidate_tester(DISJ, frozenset())
    # The final constraint :- M. has no body: it renders as ":- ." and reads
    # back to the same table.
    assert tp.rows[-1] == ((), (), ())
    assert tp.render().endswith("\n:- .\n")
    assert parse_program(tp.render(), allow_reserved=True) == tp
    assert Solver(tp).next_stable_model() is None


def test_test_program_nonminimal_candidate():
    tp = candidate_tester(DISJ, frozenset([A, B]))
    assert Solver(tp).next_stable_model() is not None


def test_test_program_validates_candidate():
    # c__a is an atom of every tester of DISJ, but not of its base.
    for atom in (Atom("zz"), complement(A)):
        with pytest.raises(ValueError, match=f"model atom {atom.text} not in program base"):
            candidate_tester(DISJ, frozenset([atom]))
    # The error names the least atom outside the base, as the CLI's does.
    with pytest.raises(ValueError, match="model atom y not in program base"):
        candidate_tester(DISJ, frozenset([A, Atom("zz"), Atom("y")]))


def test_support_program_has_no_testers():
    # support_program's atoms hold support marks, which a tester's input may
    # not hold: test_program rejects them as it does in any input, so no
    # tester meets a disjunctive head atom with no complement mark.
    with pytest.raises(ValueError, match=r"^test_program: complement/support atoms present \(s__a, \.\.\.\)$"):
        testers = build_test_program(support_program(DISJ))
        testers.tester(testers.numbers([A]))


def test_generators_are_their_own_testers():
    # Every generator derives its own testers: test_program returns it as it
    # is.  A plain program's testers are those of its gen_basic generator,
    # atoms and rows, for every candidate.  support_program marks no
    # complement, so it is a plain program, not a generator.
    for seed in range(30):
        for p in (random_disjunctive_program(seed), random_normal_program(seed)):
            for gen in (gen_naive, gen_basic, gen_program):
                g = gen(p)
                assert build_test_program(g) is g, (gen.__name__, p.rules)
            assert type(support_program(p)) is Program, p.rules
            got, want = build_test_program(p), gen_basic(p)
            assert got.atoms == want.atoms, p.rules
            base = sorted(p.base)
            for bits in range(1 << len(base)):
                m = frozenset(a for i, a in enumerate(base) if bits >> i & 1)
                got_tester, got_numbers = got.tester(got.numbers(m))
                want_tester, want_numbers = want.tester(want.numbers(m))
                assert got_tester == want_tester, (p.rules, m)
                assert got_numbers == want_numbers, (p.rules, m)


def test_candidate_soundness():
    # every generator stable model restricted to the base is a total model
    for seed in range(60):
        p = random_disjunctive_program(seed)
        for gen in (gen_basic, gen_program):
            for n in Solver(gen(p)).models():
                i = PartialInterpretation.total(n & p.base, p.base)
                assert is_total_model(i, p)


def test_gen_completeness_against_oracle():
    for seed in range(60):
        p = random_disjunctive_program(seed)
        covered = {frozenset(n & p.base) for n in Solver(gen_program(p)).models()}
        for m in enumerate_stable_models(p):
            assert m in covered


GENERATORS = (
    (gen_naive, reference_gen_naive),
    (gen_basic, reference_gen_basic),
    (support_program, reference_support_program),
    (gen_program, reference_gen_program),
)


def assert_generators_match_reference(p):
    for gen, reference in GENERATORS:
        got, ref = gen(p), reference(p)
        assert got.rules == ref.rules, (gen.__name__, p.rules)
        assert got.base == ref.base, (gen.__name__, p.rules)
        # The table built directly equals the one derived from the rules.
        assert (got.atoms, got.rows) == (ref.atoms, ref.rows), (gen.__name__, p.rules)


@pytest.mark.parametrize("seed", range(40))
def test_generators_match_reference_on_seeded_programs(seed):
    # Declared bases wider than the rules, input constraints, __f as an
    # ordinary atom, normal and positive programs, and each program read
    # back from its rendering, which may hold reserved atoms.
    rng = random.Random(f"extra-{seed}")
    extra = frozenset([Atom("zz"), potential(Atom("a")), U_ATOM, F_ATOM][: rng.randint(0, 4)])
    disjunctive = random_disjunctive_program(seed)
    for p in (
        random_normal_program(seed),
        random_normal_program(seed, constraints=False),
        disjunctive,
        random_disjunctive_program(seed, constraints=False),
        random_positive_program(seed),
        Program(disjunctive.rules, base=disjunctive.base | extra),
        Program((), base=extra),
    ):
        assert_generators_match_reference(p)
        assert_generators_match_reference(parse_program(p.render(), allow_reserved=True))


@pytest.mark.parametrize("seed", range(3))
def test_generators_match_reference_on_benchmark_families(seed):
    assert_generators_match_reference(gen_d3sat_instance(12, 4.258, seed, 2).program)
    assert_generators_match_reference(qbf_to_program(gen_random_qbf(8, "gw", seed)))


# Atoms on both sides of the c__ and s__ mark blocks and at their edges:
# c, c0 and cZ sort before c__, c_a and r between the blocks, s and s0
# before s__, s_a, t and z after it; rules with and without a negative body.
EDGES = parse_program(
    "c | s_a | r.\ncZ | s0 :- not z.\nc0 | c_a :- s, not t.\ns | t :- not c, not s.\n"
    "z :- c, not c0.\ns_a :- r.\n:- r, t.\n:- not cZ.\n"
)


def test_generators_match_reference_around_the_mark_blocks():
    assert_generators_match_reference(EDGES)
    assert_generators_match_reference(parse_program("c_a | s_a :- not s.\nc | s.\n"))


@pytest.mark.parametrize("seed", range(2))
def test_constructions_lift_the_input_by_its_atoms(seed):
    # The lift, the lifted input rules and the complement map, read off the
    # construction's atoms by name.
    for p in (
        EDGES,
        random_disjunctive_program(seed),
        gen_d3sat_instance(12, 4.258, seed, 2).program,
        qbf_to_program(gen_random_qbf(8, "gw", seed)),
    ):
        heads = sorted({p.atoms[a] for head, _, _ in p.rows if len(head) > 1 for a in head})
        for gen in (gen_naive, gen_basic, gen_program, build_test_program):
            g = gen(p)
            number = {a: i for i, a in enumerate(g.atoms)}
            assert g.lift == [number[a] for a in p.atoms], gen.__name__
            assert g.inputs == [tuple(tuple(g.lift[a] for a in part) for part in rule) for rule in p.rows]
            assert g.complement == {number[a]: number[complement(a)] for a in heads}, gen.__name__
        # support_program's atoms are gen_program's without the complement
        # marks: the input's atoms and the support marks of its heads.
        marks = {complement(a) for a in heads}
        assert support_program(p).atoms == tuple(a for a in gen_program(p).atoms if a not in marks)


def test_generators_reject_marked_input_as_reference():
    for text in ("a | c__b.", "s__a :- b.", "a :- not c__b, s__c."):
        p = parse_program(text, allow_reserved=True)
        for gen, reference in GENERATORS:
            with pytest.raises(ValueError) as got:
                gen(p)
            with pytest.raises(ValueError) as ref:
                reference(p)
            # gen_program names itself; its reference failed inside gen_basic.
            assert str(got.value) == str(ref.value).replace("gen_basic", gen.__name__)
            assert str(got.value).startswith(f"{gen.__name__}: complement/support atoms present")
