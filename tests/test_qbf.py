import random

import pytest

from aspunfold.bench import (
    Clause,
    gen_d3sat_instance,
    gen_random_3sat_clauses,
    gen_random_qbf,
    mm_encode,
)
from aspunfold.gnt import solve_disjunctive
from aspunfold.parser import parse_program
from aspunfold.qbf import (
    Qbf2E,
    QbfParseError,
    parse_qbf,
    qbf_to_program,
    qbf_valid_oracle,
    render_qbf,
)
from aspunfold.semantics import CapExceededError, PartialInterpretation
from aspunfold.syntax import (
    Atom,
    Literal,
    Program,
    Rule,
    U_ATOM,
    clause_atom,
    clause_negation_atom,
    render_program,
)

from conftest import (
    NegClause,
    assert_same_program,
    gl_reduct,
    minimal_models_containing,
    negate_dnf,
    reference_clause_translation,
    reference_parse_qbf,
    reference_qbf_to_program,
)

X, Y = Atom("x"), Atom("y")


def lit(a, positive=True):
    return Literal(a, positive)


def test_parse_qbf():
    q = parse_qbf("e x\na y\nx y\nx -y\n")
    assert q.x_vars == (X,) and q.y_vars == (Y,)
    assert set(q.terms) == {
        frozenset([lit(X), lit(Y)]),
        frozenset([lit(X), lit(Y, False)]),
    }


def test_parse_qbf_errors():
    cases = {
        "x y\n": "line 1: expected existential block 'e ...'",
        "e x\nx y\n": "line 2: expected universal block 'a ...'",
        "e x\na y\n\nx y\n": "line 3: empty term line",
        "e x\na x\nx\n": "a variable cannot be both existential and universal",
        "e x w x w\na y\nx\n": "line 1: quantifier block repeats variable w",
        "e x\na y z y\nx\n": "line 2: quantifier block repeats variable y",
        # A repeat is reported before a variable in both blocks.
        "e x x\na x\nx\n": "line 1: quantifier block repeats variable x",
        "e x\na y\nx -x\n": "line 3: term contains complementary pair on x",
        "e x\na y\nz\n": "line 3: term variable z not quantified",
        "e x\na y\nx\n-y -W\n": "line 4: invalid atom 'W'",
        # Two faults in one term line: the first bad token, in reading order,
        # names the error, whatever order the term's set is walked in.
        "e x\na y\nz x -x\n": "line 3: term variable z not quantified",
        "e x\na y\nx -x z\n": "line 3: term contains complementary pair on x",
        "e x\na y\nz w y\n": "line 3: term variable z not quantified",
        "e x\na y\nx y\ny -y\nw\n": "line 4: term contains complementary pair on y",
    }
    for text, message in cases.items():
        with pytest.raises(QbfParseError) as err:
            parse_qbf(text)
        assert str(err.value) == message


def test_qbf_term_errors_name_the_least_bad_variable():
    z, w = Atom("z"), Atom("w")
    cases = [
        (frozenset([lit(z), lit(X), lit(X, False)]), "term contains complementary pair on x"),
        (frozenset([lit(z), lit(w), lit(Y)]), "term variable w not quantified"),
        (frozenset([lit(z), lit(z, False)]), "term variable z not quantified"),
        (frozenset(), "empty term"),
    ]
    for term, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Qbf2E((X,), (Y,), (frozenset([lit(X)]), term))


def test_qbf_variables_read_as_program_atoms():
    # QBF variables are read by the program reader's rule, so no translation
    # holds an atom its rendering cannot read back: not is a keyword.
    cases = {
        "e not\na y\nnot y\nnot -y\n": "line 1: 'not' is a keyword, not an atom",
        "e x\na c__y\nx\n": "line 2: reserved prefix in atom 'c__y'",
        "e x\na y\nx -not\n": "line 3: 'not' is a keyword, not an atom",
    }
    for text, message in cases.items():
        with pytest.raises(QbfParseError, match=f"^{message}$"):
            parse_qbf(text)
    q = parse_qbf("e nota\na y\nnota y\nnota -y\n")
    p = qbf_to_program(q)
    assert parse_program(p.render(), allow_reserved=True) == p


def test_qbf2e_rejects_a_variable_in_both_blocks():
    with pytest.raises(ValueError, match="^a variable cannot be both existential and universal$"):
        Qbf2E((X, Y), (Y,), (frozenset([lit(X)]),))


def test_qbf2e_rejects_a_block_that_repeats_a_variable():
    z, w = Atom("z"), Atom("w")
    cases = [
        (((z, X, z, X), (Y,)), "x"),
        (((X,), (Y, w, Y, w)), "w"),
        (((X, Y, X), (Y,)), "x"),
    ]
    for (x_vars, y_vars), name in cases:
        with pytest.raises(ValueError, match=f"^quantifier block repeats variable {name}$"):
            Qbf2E(x_vars, y_vars, (frozenset([lit(X)]),))


# Replacement tokens for the parser's differential test: variables, fresh
# and misspelt names, reserved names, and the block letters.
QBF_TOKENS = ("x1", "-x1", "x2", "y1", "-y1", "-y2", "w", "-w", "X", "-", "--x1", "not", "__u", "cl__1", "e", "a")


QBF_ERRORS = (
    "expected existential block",
    "expected universal block",
    "invalid atom",
    "'not' is a keyword",
    "reserved prefix",
    "both existential and universal",
    "repeats variable",
    "empty term line",
    "not quantified",
    "complementary pair",
)


def qbf_mutants(text, rng, count):
    """``count`` copies of a QBF text, each with one token deleted, doubled
    or replaced."""
    lines = [line.split() for line in text.splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    for _ in range(count):
        i, j = rng.choice(spots)
        toks = [list(t) for t in lines]
        kind = rng.randrange(3)
        if kind == 0:
            del toks[i][j]
        elif kind == 1:
            toks[i].insert(j, toks[i][j])
        else:
            toks[i][j] = rng.choice(QBF_TOKENS)
        yield "\n".join(" ".join(t) for t in toks) + "\n"


def multi_fault_term(text):
    """Whether a term line of a QBF text has two or more bad variables
    (unquantified, misspelt, or in a complementary pair)."""
    lines = text.splitlines()
    quantified = {t for line in lines[:2] for t in line.split()[1:]}
    for line in lines[2:]:
        signs = {}
        for tok in line.split():
            signs.setdefault(tok[1:] if tok.startswith("-") else tok, set()).add(tok.startswith("-"))
        if sum(name not in quantified or len(s) > 1 for name, s in signs.items()) > 1:
            return True
    return False


def parse_outcome(parse, text):
    try:
        return parse(text), None
    except QbfParseError as exc:
        return None, exc


def test_parse_qbf_matches_reference():
    # Seeded gw and sqrt texts, and copies with one token deleted, doubled or
    # replaced: the same Qbf2E as the former parser, or the same error.  An
    # error the former parser raised without a line, from a term, now has
    # the line of the first term with that fault.  Terms with two faults
    # are left out: their message was up to the set order before.
    rng = random.Random(14)
    texts = [render_qbf(gen_random_qbf(v, "gw", seed)) for v in (6, 10, 14) for seed in range(10)]
    texts += [render_qbf(gen_random_qbf(v, "sqrt", seed)) for v in (8, 18, 32) for seed in range(10)]
    kinds = set()
    for text in texts:
        for mutant in [text, *qbf_mutants(text, rng, 20)]:
            got, got_err = parse_outcome(parse_qbf, mutant)
            want, want_err = parse_outcome(reference_parse_qbf, mutant)
            assert (got_err is None) == (want_err is None), (mutant, got_err, want_err)
            if want_err is None:
                assert got == want
                continue
            if multi_fault_term(mutant):
                continue
            message = str(want_err).split(": ", 1)[1] if want_err.line else str(want_err)
            kinds.add(next(kind for kind in QBF_ERRORS if kind in message))
            if want_err.line or not got_err.line:
                assert (got_err.line, str(got_err)) == (want_err.line, str(want_err)), mutant
            else:
                assert str(got_err) == f"line {got_err.line}: {message}", mutant
                lines = mutant.splitlines()
                _, err = parse_outcome(reference_parse_qbf, "\n".join(lines[: got_err.line]))
                assert str(err) == message, mutant
                assert parse_outcome(reference_parse_qbf, "\n".join(lines[: got_err.line - 1]))[1] is None
    assert kinds == set(QBF_ERRORS) - {"empty term line"}, kinds


def test_qbf_roundtrip():
    # parse_qbf builds its Qbf2E without re-running __post_init__: the
    # result must still be the one the checked constructor builds.
    q = gen_random_qbf(8, "gw", 5)
    parsed = parse_qbf(render_qbf(q))
    assert parsed == q and hash(parsed) == hash(q)
    assert parsed == Qbf2E(parsed.x_vars, parsed.y_vars, parsed.terms)
    assert type(parsed.x_vars) is type(parsed.terms) is tuple
    assert all(type(term) is frozenset for term in parsed.terms)


def test_negate_dnf():
    q = parse_qbf("e x\na y\nx y\nx -y\n")
    got = {
        (c.x_pos, c.x_neg, c.y_pos, c.y_neg) for c in negate_dnf(q)
    }
    assert got == {
        (frozenset(), frozenset([X]), frozenset(), frozenset([Y])),
        (frozenset(), frozenset([X]), frozenset([Y]), frozenset()),
    }
    single = Qbf2E((X,), (), (frozenset([lit(X, False)]),))
    (c,) = negate_dnf(single)
    assert (c.x_pos, c.x_neg, c.y_pos, c.y_neg) == (frozenset([X]), frozenset(), frozenset(), frozenset())
    assert negate_dnf(Qbf2E((X,), (Y,), ())) == []


def test_neg_clause_validation():
    with pytest.raises(ValueError):
        NegClause(frozenset([X]), frozenset([X]), frozenset(), frozenset())


def test_translation_structure():
    q = parse_qbf("e x\na y\nx y\nx -y\n")
    p = qbf_to_program(q)
    rules = set(p.rules)
    assert Rule(frozenset([clause_atom(1)]), frozenset(), frozenset([clause_negation_atom(1)])) in rules
    assert Rule(frozenset([X]), frozenset(), frozenset([clause_negation_atom(1)])) in rules
    assert Rule(frozenset([Y]), frozenset([U_ATOM]), frozenset()) in rules
    assert Rule(frozenset([U_ATOM]), frozenset(), frozenset([U_ATOM])) in rules
    # clause 2 has y in Y1: a proper disjunctive saturation rule
    assert Rule(frozenset([U_ATOM, Y]), frozenset(), frozenset([clause_negation_atom(2)])) in rules
    assert not p.is_normal


def test_translation_empty_clause_set():
    p = qbf_to_program(Qbf2E((X,), (Y,), ()))
    assert p.render() == "__u :- not __u.\n"
    assert solve_disjunctive(p, mode="gnt2").models == []


def test_translation_matches_reference():
    # gw and sqrt QBFs of every size, a QBF with no terms, existential
    # variables that occur in no term, and terms that give duplicate rules
    # (y :- __u. once per term over y, and a repeated term).
    qbfs = [gen_random_qbf(v, "sqrt", seed) for v in range(3, 15) for seed in range(5)]
    qbfs += [gen_random_qbf(v, "gw", seed) for v in range(6, 15, 2) for seed in range(5)]
    qbfs += [parse_qbf(text) for text in ("e\na\n", "e x z\na y\nx y\n", "e x\na y w\n-x y\n-x y\ny -w\n")]
    qbfs += [Qbf2E((X,), (Y,), ()), Qbf2E((Atom("b"), X, Atom("a")), (Y,), (frozenset([lit(X), lit(Y, False)]),))]
    # Variables that sort among cl__i and ncl__i, and twelve terms, so that
    # cl__10 sorts before cl__2.
    xs, ys = [Atom(t) for t in ("cl", "clZ", "cla", "ncl")], [Atom(t) for t in ("nclz", "b", "z")]
    rng = random.Random(3)
    terms = [frozenset(lit(a, rng.random() < 0.5) for a in rng.sample(xs + ys, 3)) for _ in range(12)]
    qbfs.append(Qbf2E(xs, ys, terms))
    for q in qbfs:
        assert_same_program(qbf_to_program(q), reference_qbf_to_program(q))


def test_translation_size_bound():
    for seed in range(30):
        q = gen_random_qbf(8, "gw", seed)
        p = qbf_to_program(q)
        used = {l.atom for t in q.terms for l in t}
        assert len(p.base) <= len(used) + 2 * len(q.terms) + 2


def test_validity_oracle():
    assert qbf_valid_oracle(parse_qbf("e x\na y\nx y\nx -y\n"))
    assert not qbf_valid_oracle(parse_qbf("e x\na y\nx y\n"))
    assert qbf_valid_oracle(Qbf2E((X,), (), (frozenset([lit(X)]),)))
    assert not qbf_valid_oracle(Qbf2E((X,), (Y,), ()))
    big = Qbf2E(tuple(Atom(f"x{i}") for i in range(21)), (), (frozenset([lit(Atom("x0"))]),))
    with pytest.raises(CapExceededError):
        qbf_valid_oracle(big)


def test_paper_stable_model_shape():
    q = parse_qbf("e x\na y\nx y\nx -y\n")
    r = solve_disjunctive(qbf_to_program(q), mode="gnt2", enumerate_all=True)
    assert r.models == [
        frozenset([X, Y, U_ATOM, clause_atom(1), clause_atom(2)])
    ]


def test_translation_correct_small_all_modes():
    rng = random.Random(0)
    vars_pool = [Atom("x1"), Atom("x2"), Atom("y1"), Atom("y2")]
    for seed in range(60):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        terms = []
        for _ in range(d):
            picked = rng.sample(vars_pool, 3)
            terms.append(frozenset(Literal(a, rng.random() < 0.5) for a in picked))
        q = Qbf2E(tuple(vars_pool[:2]), tuple(vars_pool[2:]), tuple(terms))
        want = qbf_valid_oracle(q)
        for mode in ("gnt1", "gnt2", "naive"):
            assert bool(solve_disjunctive(qbf_to_program(q), mode=mode).models) == want


def _interpretation_meeting_lemma_conditions(q, clauses, rng):
    base_true = set()
    for v in q.variables:
        if rng.random() < 0.5:
            base_true.add(v)
    if rng.random() < 0.5:
        base_true.add(U_ATOM)
    true = set(base_true)
    for i, c in enumerate(clauses, 1):
        active = not (c.x_pos & base_true) and c.x_neg <= base_true
        true.add(clause_atom(i) if active else clause_negation_atom(i))
    return frozenset(true)


def test_reduct_structure_lemma():
    """Per-clause reduct structure (the facts/rules R1-R7) for total
    interpretations tying clause atoms to the X-part.  The stated conditions
    for the explanation-rule reducts are necessary; the exact membership
    conditions additionally route through the clause-activity atom."""
    rng = random.Random(4)
    for seed in range(40):
        q = gen_random_qbf(6, "gw", seed)
        clauses = negate_dnf(q)
        p = qbf_to_program(q)
        m = _interpretation_meeting_lemma_conditions(q, clauses, rng)
        total = PartialInterpretation.total(m & p.base, p.base)
        for i, c in enumerate(clauses, 1):
            ci, nci = clause_atom(i), clause_negation_atom(i)
            tr_v, tr_e, tr_u = reference_clause_translation(c, i)
            red_v = set(gl_reduct(Program(tr_v, base=p.base), total).rules)
            red_e = set(gl_reduct(Program(tr_e, base=p.base), total).rules)
            red_u = set(gl_reduct(Program(tr_u, base=p.base), total).rules)
            # R1, R2
            assert (Rule(frozenset([ci]), frozenset(), frozenset()) in red_v) == (ci in m)
            assert (Rule(frozenset([nci]), frozenset(), frozenset()) in red_v) == (nci in m)
            for x in c.x_pos:
                # R3: membership implies x false; exact membership is
                # clause-active
                present = Rule(frozenset(), frozenset([x]), frozenset()) in red_e
                if present:
                    assert x not in m
                assert present == (ci in m)
            for x in c.x_neg:
                # R4: membership implies x true; exact membership is clause-active
                present = Rule(frozenset([x]), frozenset(), frozenset()) in red_e
                if present:
                    assert x in m
                assert present == (ci in m)
            # R5: membership implies X2 not under m; exactly, every not-X1
            # literal must also hold
            present = Rule(frozenset(), c.x_neg, frozenset()) in red_e
            if present:
                assert not (c.x_neg <= m)
            assert present == (not c.x_pos & m and ci not in m)
            # R6: unconditional
            for y in c.y_pos | c.y_neg:
                assert Rule(frozenset([y]), frozenset([U_ATOM]), frozenset()) in red_u
            # R7
            assert (Rule(c.y_pos | {U_ATOM}, c.y_neg, frozenset()) in red_u) == (ci in m)


def test_gen_random_qbf_schemes():
    q = gen_random_qbf(10, "gw", 3)
    assert len(q.terms) == 20
    assert all(len(t) == 5 for t in q.terms)
    y_set = set(q.y_vars)
    assert all(sum(1 for l in t if l.atom in y_set) >= 2 for t in q.terms)
    q2 = gen_random_qbf(50, "sqrt", 3)
    assert len(q2.terms) == 5 and all(len(t) == 3 for t in q2.terms)
    assert gen_random_qbf(10, "gw", 9) == gen_random_qbf(10, "gw", 9)
    assert gen_random_qbf(10, "gw", 9) != gen_random_qbf(10, "gw", 10)
    with pytest.raises(ValueError):
        gen_random_qbf(9, "gw", 0)
    with pytest.raises(ValueError):
        gen_random_qbf(4, "gw", 0)
    with pytest.raises(ValueError):
        gen_random_qbf(2, "sqrt", 0)
    with pytest.raises(ValueError):
        gen_random_qbf(10, "xx", 0)


def test_d3sat_generator_counts():
    inst = gen_d3sat_instance(100, 4.258, 1)
    assert len(inst.program.rules) == 425 + 2
    assert len(inst.specified) == 2
    inst20 = gen_d3sat_instance(20, 4.258, 1)
    assert len(inst20.specified) == 0 and len(inst20.program.rules) == 85
    assert gen_d3sat_instance(20, 4.258, 5) == gen_d3sat_instance(20, 4.258, 5)


def test_d3sat_all_negative_clause_becomes_constraint():
    a1, a2, a3 = Atom("a1"), Atom("a2"), Atom("a3")
    p = mm_encode([Clause(frozenset(), frozenset([a1, a2, a3]))], [])
    (r,) = p.rules
    assert r.head == frozenset()
    assert r.pos == frozenset([a1, a2, a3])
    assert r.neg == frozenset()


def test_d3sat_rendering_reads_back_as_user_input():
    # constraints render as ":- body.", so no reserved atom reaches the text
    for seed in range(20):
        p = gen_d3sat_instance(10 + seed, 4.258, seed, specified_count=seed % 3).program
        text = render_program(p)
        assert "__f" not in text
        assert parse_program(text) == p


def test_mm_encoding_matches_minimal_model_oracle():
    rng = random.Random(2)
    for seed in range(40):
        n = rng.randint(4, 8)
        clauses = gen_random_3sat_clauses(n, 3.0, random.Random(seed))
        atoms = sorted({a for c in clauses for a in c.atoms})
        specified = rng.sample(atoms, rng.randint(0, min(2, len(atoms))))
        p = mm_encode(clauses, specified)
        want = minimal_models_containing(clauses, specified)
        assert bool(solve_disjunctive(p, mode="gnt2").models) == want
