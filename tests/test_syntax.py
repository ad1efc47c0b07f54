import pytest
from hypothesis import given

from aspunfold.parser import ParseError, parse_literals, parse_program
from aspunfold.syntax import (
    Atom,
    F_ATOM,
    Program,
    Rule,
    U_ATOM,
    clause_atom,
    clause_negation_atom,
    complement,
    parse_atom_text,
    potential,
    reject_marked,
    render_program,
    support,
)

from conftest import base_atom, program_st


def test_atom_renderings():
    a = Atom("a")
    assert a.text == "a"
    assert potential(a).text == "p__a"
    assert complement(a).text == "c__a"
    assert support(a).text == "s__a"
    assert F_ATOM.text == "__f"
    assert U_ATOM.text == "__u"
    assert clause_atom(3).text == "cl__3"
    assert clause_negation_atom(3).text == "ncl__3"
    # marks nest: the marked name is the base rendering
    assert complement(potential(a)).text == "c__p__a"
    assert potential(F_ATOM).text == "p____f"


def test_atom_text_roundtrip_and_uniqueness():
    atoms = [
        Atom("a"),
        Atom("ab_C1"),
        potential(Atom("x")),
        complement(potential(Atom("x"))),
        support(Atom("y")),
        F_ATOM,
        U_ATOM,
        clause_atom(12),
        clause_negation_atom(12),
        potential(F_ATOM),
    ]
    texts = [a.text for a in atoms]
    assert len(set(texts)) == len(texts)
    for a in atoms:
        assert parse_atom_text(a.text) == a


def test_base_atom():
    a = Atom("a")
    assert base_atom(potential(a)) == a
    assert base_atom(complement(potential(a))) == potential(a)
    assert base_atom(a) == a
    assert base_atom(F_ATOM) == F_ATOM


def test_reject_marked_names_least_outermost_mark():
    a, b = Atom("a"), Atom("b")
    atoms = [b, support(b), complement(a), potential(complement(a))]
    with pytest.raises(ValueError, match=r"^gen: complement/support atoms present \(c__a, \.\.\.\)$"):
        reject_marked(atoms, "complement/support", "gen")
    with pytest.raises(ValueError, match=r"^tr: potential-marked atoms present \(p__c__a, \.\.\.\)$"):
        reject_marked(atoms, "potential-marked", "tr")
    reject_marked([a, complement(potential(a)), F_ATOM], "potential-marked", "tr")


def test_invalid_atom_names():
    for bad in ("A", "1x", "", "p__x", "__z", "cl__", "not a"):
        with pytest.raises(ValueError):
            Atom(bad)
    for bad in ("", "p__", "p__A", "c__p__", "p__cl__", "cl__x", "__z", "s__not a"):
        with pytest.raises(ValueError):
            parse_atom_text(bad)


def test_rule_with_empty_head_is_a_constraint():
    # A constraint is a rule with an empty head; without a body it renders
    # as ":- .", which no model satisfies.
    assert Program([Rule(frozenset(), frozenset([Atom("a")]), frozenset([Atom("b")]))]).render() == ":- a, not b.\n"
    assert Program([Rule(frozenset())]).render() == ":- .\n"


def test_parse_basic_rule():
    p = parse_program("a | b :- c, not a.")
    (r,) = p.rules
    assert r.head == frozenset([Atom("a"), Atom("b")])
    assert r.pos == frozenset([Atom("c")])
    assert r.neg == frozenset([Atom("a")])


def test_parse_constraint_desugaring():
    # A constraint is read as a rule with an empty head, and numbers no
    # atom of its own; ":- ." is the constraint without a body.
    p = parse_program(":- b1, b2.")
    (r,) = p.rules
    assert r.head == frozenset()
    assert r.pos == frozenset([Atom("b1"), Atom("b2")])
    assert r.neg == frozenset()
    assert p.base == frozenset([Atom("b1"), Atom("b2")])
    empty = parse_program(":- .")
    assert empty.rows == (((), (), ()),) and empty.render() == ":- .\n"


def test_parse_rejects_reserved_prefix():
    with pytest.raises(ParseError, match="reserved prefix"):
        parse_program("p__x :- a.")
    # same text is fine when reading transformation output back
    p = parse_program("p__x :- a.", allow_reserved=True)
    (r,) = p.rules
    assert r.head == frozenset([potential(Atom("x"))])


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as exc:
        parse_program("a :- b\nc.")
    assert exc.value.line == 1
    for bad in (".", "a :- .", "a | :- b.", "a :- not.", "a", "a. b."):
        with pytest.raises(ParseError):
            parse_program(bad)


@pytest.mark.parametrize(
    "text,message,col",
    [
        # An error at the end of a rule points just past its last character.
        ("a :- b", "expected '.'", 7),
        ("a :- b   % c", "expected '.'", 7),
        ("a | ", "expected atom", 4),
        ("a :- b, not", "expected body literal", 12),
        ("a :- .", "expected body literal", 6),
        ("a :- not .", "expected body literal", 10),
        ("a. b.", "trailing input after '.'", 4),
        ("a :- b,, c.", "expected body literal", 8),
        ("a :- b; c.", "unexpected character ';'", 7),
        ("a :--b.", "unexpected character '-'", 5),
        ("not :- a.", "'not' is a keyword, not an atom", 1),
        ("A :- b.", "invalid atom 'A'", 1),
        ("a :- p__b.", "reserved prefix in atom 'p__b'", 6),
        ("a :- not not b.", "expected body literal", 10),
    ],
)
def test_parse_error_message_line_and_column(text, message, col):
    with pytest.raises(ParseError) as exc:
        parse_program("b.\n% comment\n" + text)
    assert (exc.value.line, exc.value.col) == (3, col)
    assert str(exc.value) == f"line 3, col {col}: {message}"


def test_parse_checks_reserved_atom_after_constraint():
    """A constraint does not let the spelling __f through."""
    with pytest.raises(ParseError, match=r"^line 2, col 6: reserved prefix in atom '__f'$"):
        parse_program(":- a.\nb :- __f.")
    p = parse_program(":- a.\nb :- __f.", allow_reserved=True)
    assert p.rules[1] == Rule(frozenset([Atom("b")]), frozenset([F_ATOM]))


def test_parse_duplicates_collapse():
    p = parse_program("a | a :- b, b, not c, not c.")
    (r,) = p.rules
    assert (len(r.head), len(r.pos), len(r.neg)) == (1, 1, 1)


def test_comments_and_blank_lines():
    p = parse_program("% intro\n\na. % fact\n")
    assert len(p.rules) == 1


def test_render_examples():
    assert render_program(Program(())) == ""
    r = Rule(frozenset([Atom("a"), Atom("b")]), frozenset([Atom("c")]), frozenset([Atom("a")]))
    assert Program([r]).render() == "a | b :- c, not a.\n"
    assert Program([Rule(frozenset([Atom("a")]))]).render() == "a.\n"


def test_parse_literals():
    lits = parse_literals("a, not b")
    assert {(l.atom.text, l.positive) for l in lits} == {("a", True), ("b", False)}
    with pytest.raises(ParseError):
        parse_literals("a,, b")
    with pytest.raises(ParseError):
        parse_literals("not")


def test_declared_base_extends_occurring():
    extra = Atom("zz")
    p = Program((Rule(frozenset([Atom("a")])),), base=frozenset([extra]))
    assert extra in p.base and Atom("a") in p.base


@given(program_st())
def test_render_parse_roundtrip(p):
    assert parse_program(render_program(p), allow_reserved=True) == p
