import itertools
import random

import pytest

from aspunfold.bench import Clause
from aspunfold.parser import parse_program
from aspunfold.semantics import (
    CapExceededError,
    PartialInterpretation,
    UnknownAtomError,
    check_partial_stable,
    check_total_stable,
    enumerate_partial_stable_models,
    enumerate_stable_models,
    is_stable_model,
    maximal_models,
)
from aspunfold.syntax import Atom, Literal, Program, Rule

from conftest import (
    ATOM_POOL,
    TruthValue,
    atom_value,
    empty_interpretation,
    eval_conj,
    eval_disj,
    gl_reduct,
    greatest_unfounded_set,
    is_consistent_unfounded,
    is_partial_model,
    is_partial_stable_model,
    is_total_model,
    is_unfounded_free,
    is_unfounded_set,
    leq_truth,
    literal_value,
    minimal_models_containing,
    random_disjunctive_program,
    random_normal_program,
    random_partial_interpretation,
    reference_check_partial_stable,
    reference_check_total_stable,
    reference_maximal_models,
    remove_unfounded,
    rule_as_clause,
    satisfiable,
    satisfies,
    symbol,
    tv_reduct,
)

A, B, C = Atom("a"), Atom("b"), Atom("c")

EX1 = parse_program("a | b :- c, not a.")
EX2 = parse_program("a | b.")
EX3 = parse_program("a | b :- not a.")
EX5 = parse_program("a | b :- not c.\nb :- not b.\nc :- not c.")
EX6 = parse_program("a | b | c.\na :- not b.\nb :- not c.\nc :- not a.")


def interp(true, false, base):
    return PartialInterpretation(frozenset(true), frozenset(false), frozenset(base))


def test_truth_value_order():
    assert TruthValue.FALSE < TruthValue.UNDEF < TruthValue.TRUE
    assert [symbol(v) for v in sorted(TruthValue)] == ["f", "u", "t"]


def test_eval():
    i = interp([], [A], EX1.base)
    assert eval_conj(i, [Literal(C), Literal(A, False)]) is TruthValue.UNDEF
    assert eval_conj(i, []) is TruthValue.TRUE
    j = interp([A], [], [A, B])
    assert eval_disj(j, [A, B]) is TruthValue.TRUE
    assert eval_disj(j, []) is TruthValue.FALSE
    with pytest.raises(UnknownAtomError):
        eval_disj(i, [Atom("zz")])


def test_satisfaction():
    i = interp([A], [B], EX3.base)
    assert satisfies(i, EX3.rules[0])
    assert is_total_model(i, EX3)  # body is false
    empty = interp([], [A], [A])
    assert not is_partial_model(empty, parse_program("a."))
    m = interp([], [A, B, C], EX1.base)
    assert is_total_model(m, EX1)


def test_gl_reduct():
    assert gl_reduct(parse_program("a | b :- c."), interp([A], [], [A, B, C])).rules == parse_program("a | b :- c.").rules
    p = parse_program("a :- not b.")
    assert gl_reduct(p, PartialInterpretation.total([B], p.base)).rules == ()


def test_tv_reduct_example5():
    m = interp([], [A], EX5.base)
    rr = tv_reduct(EX5, m)
    assert [(sorted(a.text for a in r.head), symbol(r.const_body)) for r in rr] == [
        (["a", "b"], "u"),
        (["b"], "u"),
        (["c"], "u"),
    ]
    assert not any(r.is_inert for r in rr)


def test_tv_reduct_example6():
    m = interp([A, B], [], EX6.base)
    rr = tv_reduct(EX6, m)
    assert [symbol(r.const_body) for r in rr] == ["t", "f", "u", "f"]
    assert rr[1].is_inert and rr[3].is_inert


def test_tv_reduct_positive_rule_unchanged():
    p = parse_program("a :- b.")
    (rr,) = tv_reduct(p, empty_interpretation(p.base))
    assert rr.const_body is TruthValue.TRUE and rr.pos_body == frozenset([B])


def test_stable_models_examples():
    assert is_stable_model(EX1, PartialInterpretation.total([], EX1.base))
    assert not is_stable_model(EX3, PartialInterpretation.total([A], EX3.base))
    assert is_stable_model(parse_program("a."), PartialInterpretation.total([A], [A]))
    with pytest.raises(ValueError):
        is_stable_model(EX1, interp([], [A], EX1.base))


def test_enumerate_stable_models():
    p = parse_program("a :- not b.\nb :- not a.")
    assert enumerate_stable_models(p) == [frozenset([A]), frozenset([B])]
    assert enumerate_stable_models(EX6) == []
    assert enumerate_stable_models(Program(())) == [frozenset()]


def test_partial_stable_models_examples():
    assert is_partial_stable_model(EX5, interp([], [A], EX5.base))
    assert is_partial_stable_model(EX3, interp([B], [A], EX3.base))
    assert enumerate_partial_stable_models(EX6) == []
    psms5 = enumerate_partial_stable_models(EX5)
    assert psms5 == [interp([], [A], EX5.base)]


def test_unfounded_sets_example1():
    i = interp([], [A], EX1.base)
    assert is_unfounded_set(EX1, i, [A])
    assert not is_unfounded_set(EX1, i, [B])
    assert is_unfounded_set(EX1, i, [A, B, C])
    assert is_unfounded_set(EX1, i, [])
    assert greatest_unfounded_set(EX1, i) == frozenset([A, B, C])


def test_unfounded_sets_example2():
    i = interp([A, B], [], EX2.base)
    assert is_unfounded_set(EX2, i, [A])
    assert is_unfounded_set(EX2, i, [B])
    assert not is_unfounded_set(EX2, i, [A, B])
    assert greatest_unfounded_set(EX2, i) is None
    assert is_consistent_unfounded([A], interp([], [], EX2.base))
    assert not is_consistent_unfounded([A], i)


def test_unfounded_free_characterization():
    n = PartialInterpretation.total([], EX1.base)
    assert is_unfounded_free(EX1, n)
    assert greatest_unfounded_set(EX1, n) == n.false_set


def test_remove_unfounded():
    m = PartialInterpretation.total([A, B], EX2.base)
    out = remove_unfounded(EX2, m, [A])
    assert (out.true_set, out.false_set) == (frozenset([B]), frozenset([A]))
    assert is_partial_model(out, EX2)
    assert remove_unfounded(EX2, m, []) == m
    with pytest.raises(ValueError):
        remove_unfounded(EX3, m, [A])  # not positive
    with pytest.raises(ValueError):
        remove_unfounded(EX2, m, [C] if C in EX2.base else [B, A])


def test_caps():
    atoms = [Atom(f"x{i}") for i in range(13)]
    p = Program(tuple(Rule(frozenset([a])) for a in atoms))
    with pytest.raises(CapExceededError):
        enumerate_stable_models(p)
    with pytest.raises(CapExceededError):
        enumerate_partial_stable_models(p)
    with pytest.raises(CapExceededError):
        greatest_unfounded_set(p, empty_interpretation(p.base))
    assert enumerate_stable_models(p, cap=13) == [frozenset(atoms)]


def test_check_reasons():
    assert check_total_stable(EX3, PartialInterpretation.total([A], EX3.base)) == "not minimal model of reduct"
    p = parse_program("a.")
    assert check_total_stable(p, PartialInterpretation.total([], p.base)) == "rule unsatisfied"
    assert check_total_stable(p, PartialInterpretation.total([A], p.base)) is None
    assert check_partial_stable(EX1, interp([], [A, B, C], EX1.base)) is None
    assert check_partial_stable(EX5, interp([], [A], EX5.base)) is None
    # total-as-partial failure names the theorem-2 condition that broke
    assert check_partial_stable(EX3, interp([A], [B], EX3.base)) == "not minimal model of reduct"
    assert check_partial_stable(p, interp([], [A], p.base)) == "rule unsatisfied"


def test_checks_match_reference():
    # Every (T, F) over the base of seeded programs with at most 5 atoms,
    # constraints included: the mask-only checks give the former verdicts and
    # reasons, and between them every reason occurs.
    reasons = set()
    for seed in range(30):
        for p in (
            random_normal_program(seed, max_atoms=4),
            random_disjunctive_program(seed, max_atoms=4),
            random_normal_program(seed, max_atoms=5, constraints=False),
            random_disjunctive_program(seed, max_atoms=5, constraints=False),
        ):
            atoms = sorted(p.base)
            assert len(atoms) <= 5
            for values in itertools.product("tfu", repeat=len(atoms)):
                t = [a for a, v in zip(atoms, values) if v == "t"]
                f = [a for a, v in zip(atoms, values) if v == "f"]
                m = interp(t, f, atoms)
                got = check_partial_stable(p, m)
                assert got == reference_check_partial_stable(p, m)
                reasons.add(("partial", got))
                if m.is_total:
                    got = check_total_stable(p, m)
                    assert got == reference_check_total_stable(p, m)
                    reasons.add(("total", got))
    assert reasons == {
        ("partial", None),
        ("partial", "rule unsatisfied"),
        ("partial", "not minimal model of reduct"),
        ("partial", "unfounded-set condition violated"),
        ("total", None),
        ("total", "rule unsatisfied"),
        ("total", "not minimal model of reduct"),
    }


def test_maximal_models_orderings():
    models = enumerate_partial_stable_models(EX3)
    assert len(models) == 2
    # the two models are incomparable under both orderings
    assert maximal_models(models, "truth") == models == reference_maximal_models(models, "truth")
    assert maximal_models(models, "knowledge") == models == reference_maximal_models(models, "knowledge")
    with pytest.raises(ValueError):
        maximal_models(models, "nope")


def test_maximal_models_match_pairwise_reference():
    # The partial stable models of seeded programs, and shuffled lists of
    # random interpretations with repeats, where more models dominate others:
    # the kept-maxima filter returns the pairwise filter's list.
    rng = random.Random(9)
    lists = []
    for seed in range(40):
        lists.append(enumerate_partial_stable_models(random_disjunctive_program(seed)))
        lists.append(enumerate_partial_stable_models(random_normal_program(seed)))
        base = ATOM_POOL[: rng.randint(1, 5)]
        ms = [random_partial_interpretation(rng, base) for _ in range(rng.randint(0, 30))]
        lists.append(ms + rng.sample(ms, len(ms) // 3))
    dropped = 0
    for ms in lists:
        for ordering in ("truth", "knowledge"):
            got = maximal_models(ms, ordering)
            assert got == reference_maximal_models(ms, ordering), (ms, ordering)
            dropped += len(ms) - len(got)
    assert dropped > 100


def test_minimal_models_containing():
    c1 = Clause(frozenset([A, B]))
    assert minimal_models_containing([c1], [A])
    c2 = Clause(frozenset([B]), frozenset([A]))
    assert not minimal_models_containing([c1, c2], [A])
    assert minimal_models_containing([c1, c2], [])
    assert not minimal_models_containing([Clause(frozenset(), frozenset())], [])


def test_satisfiable():
    assert satisfiable([Clause(frozenset([A]))])
    assert not satisfiable([Clause(frozenset([A])), Clause(frozenset(), frozenset([A]))])
    assert not satisfiable([Clause(frozenset(), frozenset())])
    assert satisfiable([])


def test_rule_as_clause():
    r = Rule(frozenset([A, B]), frozenset([C]), frozenset())
    c = rule_as_clause(r)
    assert c.pos == frozenset([A, B]) and c.neg == frozenset([C])
    with pytest.raises(ValueError):
        rule_as_clause(Rule(frozenset([A]), frozenset(), frozenset([B])))


from hypothesis import given
from hypothesis import strategies as st

from conftest import interpretation_st

literal_st = st.builds(Literal, st.sampled_from(ATOM_POOL), st.booleans())


@given(interpretation_st(), st.frozensets(literal_st, max_size=4), st.frozensets(literal_st, max_size=4))
def test_eval_conj_splits_over_union(i, l1, l2):
    assert eval_conj(i, l1 | l2) == min(eval_conj(i, l1), eval_conj(i, l2))


@given(interpretation_st(), st.frozensets(st.sampled_from(ATOM_POOL), max_size=4), st.frozensets(st.sampled_from(ATOM_POOL), max_size=4))
def test_eval_disj_splits_over_union(i, a1, a2):
    assert eval_disj(i, a1 | a2) == max(eval_disj(i, a1), eval_disj(i, a2))


@given(interpretation_st(), st.sampled_from(ATOM_POOL))
def test_negation_reflects_the_lattice(i, a):
    assert int(literal_value(i, Literal(a, False))) == 2 - int(atom_value(i, a))


@given(interpretation_st(), interpretation_st(), interpretation_st())
def test_truth_ordering_is_a_partial_order(m1, m2, m3):
    assert leq_truth(m1, m1)
    if leq_truth(m1, m2) and leq_truth(m2, m1):
        assert m1 == m2
    if leq_truth(m1, m2) and leq_truth(m2, m3):
        assert leq_truth(m1, m3)


@given(interpretation_st())
def test_projection_inverts_expansion_on_any_interpretation(m):
    from aspunfold.partiality import expand_psm, project_sm

    assert project_sm(expand_psm(m), m.base) == m


def test_enumerators_cross_check_on_total_only_programs():
    # where every partial stable model is total, the two enumerators agree
    hits = 0
    for seed in range(120):
        p = random_normal_program(seed, max_atoms=4, max_rules=6)
        psms = enumerate_partial_stable_models(p)
        if psms and all(m.is_total for m in psms):
            hits += 1
            assert {m.true_set for m in psms} == set(enumerate_stable_models(p))
    assert hits > 10
