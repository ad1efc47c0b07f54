import random
from itertools import product

import pytest

from aspunfold.parser import parse_program
from aspunfold.partiality import (
    QueryLiterals,
    expand_psm,
    possibility_query,
    project_sm,
    query_constrained,
    tr2_program,
    unfold_partiality,
)
from aspunfold.semantics import (
    PartialInterpretation,
    UnknownAtomError,
    enumerate_partial_stable_models,
    enumerate_stable_models,
)
from aspunfold.syntax import Atom, F_ATOM, Literal, Program, Rule, potential, potential_block

from conftest import (
    TruthValue,
    assert_same_program,
    eval_conj,
    is_partial_model,
    is_total_model,
    random_disjunctive_program,
    random_normal_program,
    random_partial_interpretation,
    reference_query_constrained,
    reference_tr2_program,
    tr2_query,
    tr_query,
    wide_programs,
)

A, B, C = Atom("a"), Atom("b"), Atom("c")
EX3 = parse_program("a | b :- not a.")
EX5 = parse_program("a | b :- not c.\nb :- not b.\nc :- not c.")


def test_unfold_example5_structure():
    trp = unfold_partiality(EX5)
    assert len(trp.rules) == 2 * len(EX5.rules) + len(EX5.base)
    want = parse_program(
        "a | b :- not p__c.\n"
        "p__a | p__b :- not c.\n"
        "b :- not p__b.\n"
        "p__b :- not b.\n"
        "c :- not p__c.\n"
        "p__c :- not c.\n"
        "p__a :- a.\n"
        "p__b :- b.\n"
        "p__c :- c.\n",
        allow_reserved=True,
    )
    assert set(trp.rules) == set(want.rules)
    assert trp.base == EX5.base | {potential(a) for a in EX5.base}


def test_unfold_empty_program_with_declared_base():
    p = Program((), base=frozenset([A]))
    trp = unfold_partiality(p)
    assert trp.render() == "p__a :- a.\n"


def test_unfold_rejects_marked_input():
    with pytest.raises(ValueError, match="potential"):
        unfold_partiality(unfold_partiality(EX3))


def test_unfold_size_linearity():
    for seed in range(40):
        p = random_disjunctive_program(seed)
        assert len(unfold_partiality(p).rules) == 2 * len(p.rules) + len(p.base)


def test_expand_psm():
    m = PartialInterpretation(frozenset(), frozenset([A]), EX5.base)
    assert expand_psm(m) == frozenset([potential(B), potential(C)])
    total = PartialInterpretation.total([A], [A, B])
    assert expand_psm(total) == frozenset([A, potential(A)])
    m2 = PartialInterpretation(frozenset([B]), frozenset([A]), frozenset([A, B]))
    assert expand_psm(m2) == frozenset([B, potential(B)])


def test_project_sm():
    got = project_sm(frozenset([potential(B), potential(C)]), EX5.base)
    assert (got.true_set, got.false_set) == (frozenset(), frozenset([A]))
    t = frozenset([A, potential(A)])
    assert project_sm(t, frozenset([A, B])) == PartialInterpretation.total([A], [A, B])
    with pytest.raises(ValueError, match="without its potential mark"):
        project_sm(frozenset([A]), frozenset([A]))
    # Of several such atoms, the least is named, whatever the set order.
    with pytest.raises(ValueError, match="^atom a true"):
        project_sm(frozenset([C, B, A, potential(B)]), frozenset([A, B, C]))


def test_translation_worked_example5():
    trp = unfold_partiality(EX5)
    sms = enumerate_stable_models(trp)
    assert sms == [frozenset([potential(B), potential(C)])]
    psms = enumerate_partial_stable_models(EX5)
    assert [(m.true_set, m.false_set) for m in psms] == [(frozenset(), frozenset([A]))]
    assert expand_psm(psms[0]) == sms[0]
    assert project_sm(sms[0], EX5.base) == psms[0]


def test_tr_of_query_constraints():
    # tr translates a query's constraints like any rule: ``:- not a`` into
    # ``:- not p__a`` and ``:- not a``, and ``:- a`` into ``:- a`` and
    # ``:- p__a``, before the consistency rules.
    p = Program((), base=[A, B])
    for literals, want in (
        ([Literal(A)], [":- not p__a.", ":- not a."]),
        ([Literal(A, False)], [":- a.", ":- p__a."]),
        ([Literal(A), Literal(B, False)], [":- not p__a.", ":- not a.", ":- b.", ":- p__b."]),
    ):
        trq = unfold_partiality(query_constrained(p, QueryLiterals(frozenset(literals))))
        assert trq.render().splitlines() == [*want, "p__a :- a.", "p__b :- b."]


def test_query_literals_reject_complementary():
    with pytest.raises(ValueError, match="complementary"):
        QueryLiterals(frozenset([Literal(A), Literal(A, False)]))
    # With two pairs, the least atom is named, not the first the set holds.
    both = [Literal(x, positive) for x in (B, A) for positive in (True, False)]
    with pytest.raises(ValueError, match="^query contains complementary pair on a$"):
        QueryLiterals(frozenset(both))


def test_tr2():
    p = Program((), base=frozenset([A]))
    t2 = tr2_program(p)
    assert Rule(frozenset([F_ATOM]), frozenset([potential(A)]), frozenset([A])) in set(t2.rules)
    q = QueryLiterals(frozenset([Literal(B)]))
    assert {l.text for l in tr2_query(q).literals} == {"b", "not __f"}
    # A constraint holds no __f, so tr2 applies; a program that holds it
    # does not leave the flag fresh.
    assert tr2_program(parse_program(":- a.")).render().endswith("__f :- p__a, not a.\n")
    with pytest.raises(ValueError, match="__f"):
        tr2_program(parse_program("a :- __f.", allow_reserved=True))


def test_tr2_detects_undefinedness_example5():
    # Example 5's program has no total stable model, so no partial stable
    # model of the tr2 translation makes the flag false.
    t2 = tr2_program(EX5)
    psms = enumerate_partial_stable_models(t2)
    assert psms and all(F_ATOM not in m.false_set for m in psms)
    assert enumerate_stable_models(EX5) == []


def test_possibility_queries():
    ok, wit, _ = possibility_query(EX3, QueryLiterals(frozenset([Literal(B)])))
    assert ok and B in wit.true_set
    ok, _, _ = possibility_query(EX5, QueryLiterals(frozenset([Literal(A)])))
    assert not ok
    ok, wit, _ = possibility_query(EX5, QueryLiterals(frozenset()))
    assert ok and wit == enumerate_partial_stable_models(EX5)[0]
    with pytest.raises(UnknownAtomError):
        possibility_query(EX3, QueryLiterals(frozenset([Literal(Atom("zz"))])))


def test_query_constrained_rejects_atoms_outside_the_base():
    # The one check of a query's atoms names the least one outside the base.
    q = QueryLiterals(frozenset([Literal(Atom("zz")), Literal(Atom("yy"), False), Literal(A)]))
    with pytest.raises(UnknownAtomError, match="^query atom yy not in program base$"):
        query_constrained(EX3, q)


def test_query_constraint_rules():
    p = parse_program("c :- not a.")
    q = QueryLiterals(frozenset([Literal(B, False), Literal(A)]))
    assert query_constrained(Program(p.rules, base=[A, B, C]), q).rules == (
        Rule(frozenset([C]), frozenset(), frozenset([A])),
        Rule(frozenset(), frozenset(), frozenset([A])),
        Rule(frozenset(), frozenset([B])),
    )


def seeded_programs(count):
    for seed in range(count):
        yield random_normal_program(seed)
        yield random_disjunctive_program(seed)
        yield random_normal_program(seed, constraints=False)
        yield random_disjunctive_program(seed, constraints=False)


def test_tr2_matches_reference():
    wide = [p for seed in range(20) for p in wide_programs(seed)]
    assert all(potential_block(p.atoms) < len(p.atoms) for p in wide)
    programs = [*seeded_programs(40), *wide, Program((), base=[A]), Program(())]
    for p in programs:
        if F_ATOM in p.base:
            with pytest.raises(ValueError, match="__f"):
                tr2_program(p)
            continue
        assert_same_program(tr2_program(p), reference_tr2_program(p))


def random_query(rng, base):
    """Literals over a random subset of ``base``, each positive or
    negative; sometimes empty."""
    atoms = rng.sample(sorted(base), rng.randint(0, len(base)))
    return QueryLiterals(frozenset(Literal(a, rng.random() < 0.5) for a in atoms))


def satisfies(m, q):
    """Whether every literal of the query q is true in the partial
    interpretation m, by the object-level three-valued truth."""
    return eval_conj(m, q.literals) is TruthValue.TRUE


def test_query_constrained_matches_reference():
    # On p itself, and on tr(p) with the query and its marked copy.
    rng = random.Random(12)
    for p in seeded_programs(40):
        q = random_query(rng, p.base)
        assert_same_program(query_constrained(p, q), reference_query_constrained(p, q))
        trp, tq = unfold_partiality(p), tr_query(q)
        assert_same_program(query_constrained(trp, tq), reference_query_constrained(trp, tq))


def test_tr_of_the_constrained_program_constrains_tr_by_the_marked_query():
    # tr is modular: tr of p under q's constraints holds the rows of tr(p)
    # under the constraints of q and of its marked copy, in another order.
    rng = random.Random(12)
    wide = [p for seed in range(10) for p in wide_programs(seed)]
    for p in [*seeded_programs(40), *wide]:
        q = random_query(rng, p.base)
        got = unfold_partiality(query_constrained(p, q))
        want = reference_query_constrained(unfold_partiality(p), tr_query(q))
        assert got.atoms == want.atoms
        assert sorted(got.rows) == sorted(want.rows), (p.render(), q)


def test_constraints_keep_the_partial_stable_models_that_satisfy_the_query():
    # In the reduct of a partial stable model that makes every query literal
    # true, each query constraint also holds in every weaker interpretation,
    # so the constraints keep exactly the models that satisfy the query.
    rng = random.Random(13)
    for p in seeded_programs(40):
        psms = enumerate_partial_stable_models(p)
        for _ in range(3):
            q = random_query(rng, p.base)
            want = [m for m in psms if satisfies(m, q)]
            assert enumerate_partial_stable_models(query_constrained(p, q)) == want, (p.render(), q)


def test_maximality_makes_no_difference_for_possibility():
    # a query holds in some partial stable model iff it holds in some
    # maximal one, under either ordering
    from aspunfold.semantics import maximal_models

    rng = random.Random(21)
    for seed in range(60):
        p = random_disjunctive_program(seed, max_atoms=4, max_rules=5)
        psms = enumerate_partial_stable_models(p)
        atoms = sorted(p.base)
        if not psms or not atoms:
            continue
        lit = Literal(rng.choice(atoms), rng.random() < 0.5)
        q = QueryLiterals(frozenset([lit]))
        holds_somewhere = any(satisfies(m, q) for m in psms)
        for ordering in ("truth", "knowledge"):
            held_maximally = any(satisfies(m, q) for m in maximal_models(psms, ordering))
            assert holds_somewhere == held_maximally


def test_possibility_matches_filter_oracle():
    rng = random.Random(7)
    for seed in range(60):
        p = random_disjunctive_program(seed, max_atoms=4, max_rules=5)
        atoms = sorted(p.base)
        if not atoms:
            continue
        a = rng.choice(atoms)
        q = QueryLiterals(frozenset([Literal(a, rng.random() < 0.5)]))
        ok, witness, _ = possibility_query(p, q)
        assert ok == any(satisfies(m, q) for m in enumerate_partial_stable_models(p))
        assert witness is None or satisfies(witness, q)


def test_theorems_above_the_oracle_cap():
    # d3sat n=20 and n=30 have 20 and 30 atoms, above the enumeration cap
    # of 12, so the paper's theorems are checked against the driver's own
    # stable models.  At n=30, seeds 0 and 2 have 12 stable models and 36
    # partial stable models each.
    # A d3sat program's partial stable models are all total, so three rules
    # over three more atoms add some that are not: u is undefined where b
    # is true, and b, c and u may all be undefined.
    # the total partial stable models of tr(P) are exactly P's stable
    # models under both generators and both early-test settings, which all
    # find the same partial stable models; the flag __f of tr2(P) is true
    # exactly in those that are not total; and a possibility query on each
    # base atom, and on its negation, agrees with the enumeration.
    from aspunfold.bench import gen_d3sat_instance
    from aspunfold.gnt import GntConfig, solve

    extra = parse_program("b :- not c.\nc :- not b.\nu :- b, not u.").rules
    for size, seed in product((20, 30), range(3)):
        p = Program(gen_d3sat_instance(size, 4.258, seed).program.rules + extra)
        assert len(p.base) == size + 3 and F_ATOM not in p.base
        stable = solve(p, "gnt2", True).models
        trp = unfold_partiality(p)
        runs = []
        for mode in ("gnt1", "gnt2"):
            for early_test in ("on", "off"):
                result = solve(trp, mode, True, GntConfig(early_test))
                psms = [project_sm(n, p.base) for n in result.models]
                assert sorted((m.true_set for m in psms if m.is_total), key=sorted) == stable, (size, seed, mode, early_test)
                runs.append(psms)
        assert all(run == psms for run in runs)
        assert stable and len(psms) > len(stable)
        flagged = solve(tr2_program(p), "gnt2", True).models
        assert {project_sm(n, p.base) for n in flagged} == set(psms) and len(flagged) == len(psms)
        assert all((F_ATOM in n) == (not project_sm(n, p.base).is_total) for n in flagged), (size, seed)
        for a in sorted(p.base):
            for positive in (True, False):
                q = QueryLiterals(frozenset([Literal(a, positive)]))
                ok, witness, _ = possibility_query(p, q)
                assert ok == any(satisfies(m, q) for m in psms), (size, seed, q)
                assert witness is None or satisfies(witness, q)


def test_gl_reduct_of_translation_worked_example6():
    p6 = parse_program("a | b | c.\na :- not b.\nb :- not c.\nc :- not a.")
    tr6 = unfold_partiality(p6)
    n = PartialInterpretation.total(
        frozenset([A, B, potential(A), potential(B), potential(C)]), tr6.base
    )
    from conftest import gl_reduct

    got = set(gl_reduct(tr6, n).render().splitlines())
    assert got == {
        "a | b | c.",
        "p__a | p__b | p__c.",
        "p__b.",
        "p__a :- a.",
        "p__b :- b.",
        "p__c :- c.",
    }
    # the smaller model the worked example exhibits
    smaller = PartialInterpretation.total(
        frozenset([A, B, potential(A), potential(B)]), tr6.base
    )
    assert is_total_model(smaller, gl_reduct(tr6, n))
    from aspunfold.semantics import is_stable_model

    assert not is_stable_model(tr6, n)


def test_lemma3_consistency_is_necessary():
    # an inconsistent unfounded set does not lift to the translation
    from conftest import is_consistent_unfounded, is_unfounded_set

    p = parse_program("a | b.\na :- not a.")
    m = PartialInterpretation(frozenset([B]), frozenset(), p.base)
    assert is_unfounded_set(p, m, [B])
    assert not is_consistent_unfounded([B], m)
    trp = unfold_partiality(p)
    n = PartialInterpretation.total(expand_psm(m), trp.base)
    assert n.true_set == frozenset([B, potential(B), potential(A)])
    assert not is_unfounded_set(trp, n, [A, B, potential(B)])


def test_barber_ground_pipeline():
    # ground instantiation of the barber program over two persons; the
    # translation has four stable models, and in each the paradoxical
    # self-shaving atom projects to undefined
    lines = []
    people = ("bob", "greg")
    for x in people:
        lines.append(f"shaves_bob_{x} :- not shaves_{x}_{x}.")
    for x in people:
        for y in people:
            lines.append(f"cash_{y}_{x} | credit_{y}_{x} :- shaves_{x}_{y}.")
            lines.append(f"accepted_{x}_{y} :- cash_{x}_{y}.")
            lines.append(f"accepted_{x}_{y} :- credit_{x}_{y}.")
    p = parse_program("\n".join(lines))
    from aspunfold.gnt import solve_disjunctive

    result = solve_disjunctive(unfold_partiality(p), mode="gnt2", enumerate_all=True)
    assert len(result.models) == 4
    paper_model = frozenset(
        Atom(name) if not mark else potential(Atom(name))
        for name, mark in (
            ("shaves_bob_bob", True),
            ("shaves_bob_greg", False),
            ("shaves_bob_greg", True),
            ("cash_greg_bob", False),
            ("cash_greg_bob", True),
            ("credit_bob_bob", True),
            ("accepted_bob_bob", True),
            ("accepted_greg_bob", False),
            ("accepted_greg_bob", True),
        )
    )
    assert paper_model in set(result.models)
    for n in result.models:
        proj = project_sm(n, p.base)
        assert Atom("shaves_bob_bob") in proj.undef_set
        assert Atom("shaves_greg_greg") in proj.false_set
        assert Atom("shaves_bob_greg") in proj.true_set
        assert Atom("accepted_greg_bob") in proj.true_set


def test_theorem_partial_model_iff_total_model_of_translation():
    rng = random.Random(3)
    for seed in range(120):
        p = random_disjunctive_program(seed, max_atoms=5, max_rules=6)
        trp = unfold_partiality(p)
        m = random_partial_interpretation(rng, p.base)
        n = PartialInterpretation.total(expand_psm(m), trp.base)
        assert is_partial_model(m, p) == is_total_model(n, trp)
