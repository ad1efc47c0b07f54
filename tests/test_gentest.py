import pytest

from aspunfold.gentest import gen_basic, gen_naive, gen_program, support_program
from aspunfold.gentest import test_program as build_test_program
from aspunfold.parser import parse_program
from aspunfold.semantics import enumerate_stable_models, is_total_model, PartialInterpretation
from aspunfold.solver import Solver
from aspunfold.syntax import Atom, F_ATOM, Program, Rule, complement, support

from conftest import random_disjunctive_program

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


def test_test_program_paper_example():
    tp = build_test_program(DISJ_NEG).program(frozenset([B]))
    assert set(tp.rules) == rules_of(
        "b :- not c__b.\nc__a :- not a.\nc__b :- not b.\n"
        ":- not a, not b.\n:- b.\n"
    )
    assert Solver(tp).next_stable_model() is None


def test_test_program_empty_candidate():
    tp = build_test_program(DISJ).program(frozenset())
    assert Rule(frozenset([F_ATOM]), frozenset(), frozenset([F_ATOM])) in set(tp.rules)
    assert Solver(tp).next_stable_model() is None


def test_test_program_nonminimal_candidate():
    tp = build_test_program(DISJ).program(frozenset([A, B]))
    assert Solver(tp).next_stable_model() is not None


def test_test_program_validates_candidate():
    # c__a is an atom of every tester of DISJ, but not of its base.
    for atom in (Atom("zz"), complement(A)):
        with pytest.raises(ValueError):
            build_test_program(DISJ).program(frozenset([atom]))


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
