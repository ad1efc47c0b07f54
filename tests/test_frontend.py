"""The integer front end: ``parse_program`` and ``unfold_partiality`` build
rule tables directly and must give the programs of their former Rule-based
versions (the references in conftest), rule order included; the paths from
text to partial stable models and to disjunctive stable models build no
``Rule`` at all."""

import io
import random
import re
from contextlib import redirect_stdout

import pytest
from hypothesis import given

from aspunfold.bench import gen_d3sat_instance, gen_random_qbf
from aspunfold.cli import main
from aspunfold.gnt import solve, solve_disjunctive
from aspunfold.parser import ParseError, parse_program
from aspunfold.partiality import QueryLiterals, possibility_query, project_sm, unfold_partiality
from aspunfold.qbf import parse_qbf, qbf_to_program, render_qbf
from aspunfold.solver import Solver
from aspunfold.syntax import Atom, Literal, Program, Rule, render_program

from conftest import (
    program_st,
    random_disjunctive_program,
    random_normal_program,
    reference_parse_program,
    reference_table_of,
    reference_unfold_partiality,
)

PLAIN = ["a", "b", "c", "d", "zz", "a1", "b_2", "note"]
RESERVED = ["__f", "__u", "p__a", "c__b", "s__c", "cl__3", "ncl__1", "p__p__a", "c__p__d"]


def random_text(seed, reserved=False):
    """A program text with constraints, disjunctive heads, duplicate atoms
    and literals, comments and blank lines; with ``reserved``, atoms of the
    transformations' spellings too."""
    rng = random.Random(f"text-{seed}-{reserved}")
    names = PLAIN + RESERVED if reserved else PLAIN
    lines = []
    for _ in range(rng.randint(0, 12)):
        head = [] if rng.random() < 0.2 else [rng.choice(names) for _ in range(rng.randint(1, 3))]
        body = [
            ("not " if rng.random() < 0.4 else "") + rng.choice(names)
            for _ in range(rng.randint(0 if head else 1, 4))
        ]
        line = " | ".join(head)
        if body:
            line += (" :- " if head else ":- ") + ", ".join(body)
        lines.append(line + "." + rng.choice(["", " % a comment", "   "]))
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "  ", "% only a comment"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


def assert_same_program(new, ref):
    assert new.rules == ref.rules
    assert new.base == ref.base
    assert new == ref
    # The parser's table equals the one numbered independently from the Rule view.
    assert reference_table_of(new.rules, new.base) == new


def assert_same_parse(text, allow_reserved):
    try:
        ref = reference_parse_program(text, allow_reserved)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_program(text, allow_reserved)
        assert (str(got.value), got.value.line, got.value.col) == (str(exc), exc.line, exc.col)
        return None
    new = parse_program(text, allow_reserved)
    assert_same_program(new, ref)
    return new


def assert_same_tr(p):
    try:
        ref = reference_unfold_partiality(p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            unfold_partiality(p)
        return
    new = unfold_partiality(p)
    assert_same_program(new, ref)
    # Read back as transformation output, the rendering gives the same program.
    assert_same_program(parse_program(render_program(new), allow_reserved=True), new)


@given(program_st())
def test_front_end_matches_reference_on_strategy_programs(p):
    text = render_program(p)
    for allow_reserved in (False, True):
        q = assert_same_parse(text, allow_reserved)
        assert q == p
        assert_same_tr(q)
    assert_same_tr(p)
    assert_same_tr(Program(p.rules, base=p.base | {Atom("zz"), Atom("b")}))


@pytest.mark.parametrize("seed", range(120))
def test_front_end_matches_reference_on_seeded_texts(seed):
    for reserved in (False, True):
        text = random_text(seed, reserved)
        for allow_reserved in (False, True):
            p = assert_same_parse(text, allow_reserved)
            if p is not None:
                assert_same_tr(p)


@pytest.mark.parametrize("seed", range(60))
def test_front_end_matches_reference_on_malformed_texts(seed):
    """Texts with one character deleted, doubled or replaced: the same
    error (message, line and column) or the same program."""
    rng = random.Random(f"malformed-{seed}")
    text = random_text(seed, reserved=seed % 2 == 1)
    if not text:
        return
    i = rng.randrange(len(text))
    edit = rng.choice(["delete", "double", "replace"])
    if edit == "delete":
        text = text[:i] + text[i + 1 :]
    elif edit == "double":
        text = text[:i] + text[i] + text[i:]
    else:
        text = text[:i] + rng.choice(".,|:-; A1_p%") + text[i + 1 :]
    for allow_reserved in (False, True):
        assert_same_parse(text, allow_reserved)


@pytest.mark.parametrize("seed", range(60))
def test_front_end_matches_reference_on_twice_edited_texts(seed):
    """Two edits, often on two lines or twice in one: the first fault by
    position is the one named, whatever order the distinct tokens are
    checked in."""
    rng = random.Random(f"twice-{seed}")
    text = random_text(seed, reserved=seed % 2 == 0)
    for _ in range(2):
        if text:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(["X", "__q", "not", ";", "\xe9", "1", ".", ":-", " , "]) + text[i:]
    for allow_reserved in (False, True):
        assert_same_parse(text, allow_reserved)


# (text, message, line, col) read without reserved spellings; None for a
# text that parses.
TWO_FAULTS = [
    ("a :- b.\nX :- c.\nc :- __d.\n", "invalid atom 'X'", 2, 1),
    ("a :- b.\nc :- __d.\nX :- c.\n", "reserved prefix in atom '__d'", 2, 6),
    ("a :- Zb, __c.\n", "invalid atom 'Zb'", 1, 6),
    ("a :- __c, Zb.\n", "reserved prefix in atom '__c'", 1, 6),
    ("a :- not, b;c.\n", "unexpected character ';'", 1, 12),
    ("a;b :- c!.\n", "unexpected character ';'", 1, 2),
    ("a :- .\nb;c.\n", "expected body literal", 1, 6),
    ("b;c.\na :- .\n", "unexpected character ';'", 1, 2),
    ("a :- not not b.\nQ.\n", "expected body literal", 1, 10),
    ("not :- a.\n:- b.\n", "'not' is a keyword, not an atom", 1, 1),
    (":- a.\n__f :- b.\n", "reserved prefix in atom '__f'", 2, 1),
    ("a. b.\nc :- d", "trailing input after '.'", 1, 4),
    ("a | :- b.\nc :- d", "expected atom", 1, 5),
    ("a :- b\nc :- d.\n", "expected '.'", 1, 7),
]


@pytest.mark.parametrize("text, message, line, col", TWO_FAULTS)
def test_first_fault_is_named(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (f"line {line}, col {col}: {message}", line, col)
    for allow_reserved in (False, True):
        assert_same_parse(text, allow_reserved)


# Whitespace and line breaks beyond space and newline, and letters beyond
# ASCII: (text, the number of rules, or None for an error).
SPACING = [
    ("a\t:-\tb,\tnot c.\n\tb.", 2),
    ("a :- b.\r\nb.\r\n", 2),
    ("a.\x0bb :- a.\x0cc :- not b.", 3),
    ("a.\x85b :- a.\u2028c.\u2029d.", 4),
    ("a\xa0:-\xa0b,\u3000not\x1fc.", 1),
    ("a.\x1cb.\x1dc.\x1e", 3),
    ("\xe9 :- a.", None),
    ("a\xe9 :- b.", None),
    ("a :- b\xfc.", None),
    ("a.\x0bB.", None),
    ("a\t:- B.", None),
    ("a :-\xa0not\xa0\u03a9.", None),
    ("a.\u2028b\u200b :- a.", None),
]


@pytest.mark.parametrize("text, rules", SPACING)
def test_spacing_and_letters_match_reference(text, rules):
    for allow_reserved in (False, True):
        p = assert_same_parse(text, allow_reserved)
        assert (p and len(p.rows)) == rules


def test_large_texts_match_reference():
    """The 20,000-pairs text and instances of the benchmark's d3sat and
    partial shapes: the same tables as the reference."""
    texts = ["".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}.\n" for i in range(20000))]
    texts += [render_program(gen_d3sat_instance(50, 4.258, seed).program) for seed in range(3)]
    texts += [random_normal_text(seed, atoms=200, rules=400) for seed in range(3)]
    for text in texts:
        for allow_reserved in (False, True):
            p = assert_same_parse(text, allow_reserved)
            assert p == reference_parse_program(text, allow_reserved)


@pytest.mark.parametrize("seed", range(40))
def test_tr_matches_reference_over_declared_bases(seed):
    for p in (random_normal_program(seed), random_disjunctive_program(seed)):
        assert_same_tr(p)
        assert_same_tr(parse_program(render_program(p), allow_reserved=True))


def random_normal_text(seed, atoms=30, rules=60):
    """A random normal program text of the benchmark's shape: 0-2 positive
    and 1-2 negative body atoms per rule."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(atoms)]
    lines = []
    for _ in range(rules):
        body = sorted(rng.sample(names, rng.randint(0, 2)))
        body += [f"not {c}" for c in sorted(rng.sample(names, rng.randint(1, 2)))]
        lines.append(f"{rng.choice(names)} :- {', '.join(body)}.")
    return "\n".join(lines) + "\n"


@pytest.fixture
def count_rules(monkeypatch):
    """A list that grows by one for each ``Rule`` built from here on."""
    built = []
    init = Rule.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Rule, "__init__", counting)
    Rule(frozenset([Atom("a")]))
    assert built == [1]  # the patch counts
    built.clear()
    return built


@pytest.mark.parametrize("seed", range(4))
def test_partial_path_builds_no_rule(count_rules, seed):
    text = random_normal_text(seed)
    p = parse_program(text)
    trp = unfold_partiality(p)
    psms = [project_sm(n, p.base) for n in Solver(trp).models()]
    assert psms
    assert count_rules == []


@pytest.mark.parametrize("mode", ["gnt1", "gnt2", "naive", "brute"])
def test_disjunctive_path_builds_no_rule(count_rules, mode):
    # The generators and every tester are transforms of rule tables, and the
    # oracle reads the table too, so the path from text to the stable models
    # of a disjunctive program builds no Rule, whatever the search tests.
    n = 8 if mode == "brute" else 12  # the oracle enumerates 2^(n+1) sets
    texts = [render_program(gen_d3sat_instance(n, 4.258, seed, 2).program) for seed in range(3)]
    count_rules.clear()
    tests = models = 0
    for text in texts:
        p = parse_program(text)
        assert not p.is_normal
        result = solve(p, mode=mode, enumerate_all=True)
        tests += 0 if mode == "brute" else result.stats.minimal_tests
        models += len(result.models)
    assert models > 0 and (tests > 0 or mode == "brute")
    assert count_rules == []


@pytest.mark.parametrize("mode", ["gnt1", "gnt2", "naive"])
def test_qbf_path_builds_no_rule(count_rules, mode):
    # The QBF translation builds a rule table directly.
    qbfs = [gen_random_qbf(8, "gw", seed) for seed in range(2)]
    qbfs += [gen_random_qbf(8, "sqrt", seed) for seed in (4, 5)]  # valid, invalid
    texts = [render_qbf(q) for q in qbfs]
    count_rules.clear()
    tests = valid = 0
    for text in texts:
        result = solve_disjunctive(qbf_to_program(parse_qbf(text)), mode=mode)
        tests += result.stats.minimal_tests
        valid += bool(result.models)
    assert tests > 0 and 0 < valid < len(texts)
    assert count_rules == []


def test_possibility_query_builds_no_rule(count_rules):
    # The query constraints extend the translation's rule table.
    texts = [random_normal_text(seed, atoms=8, rules=12) for seed in range(3)]
    texts += [render_program(gen_d3sat_instance(4, 4.258, seed, 1).program) for seed in range(2)]
    count_rules.clear()
    answers = set()
    for i, text in enumerate(texts):
        p = parse_program(text)
        atoms = sorted(p.base)
        q = QueryLiterals(frozenset([Literal(atoms[i % len(atoms)], i % 2 == 0)]))
        answers.add(possibility_query(p, q)[0])
    assert answers == {True, False}
    assert count_rules == []


def test_cli_partial_builds_no_rule(count_rules, tmp_path):
    path = tmp_path / "p.lp"
    path.write_text(random_normal_text(1) + ":- a0, not a1.\n")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["partial", str(path), "--all"])
    assert code in (0, 20) and buf.getvalue()
    assert count_rules == []
