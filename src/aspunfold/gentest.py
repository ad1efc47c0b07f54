"""Generate-and-test constructions that unfold disjunctions into normal rules.

A generator program's stable models, restricted to the input base, cover the
stable models of the disjunctive program; a tester program for a candidate M
has no stable model exactly when M is minimal for its reduct.  Complement
atoms ``c__a`` code exclusion, support atoms ``s__a`` code that some rule
supports a, and f-rules of the shape ``__f :- not __f, ...`` act as
integrity constraints.

Every construction is a transform of the input's rule table and builds no
``Rule``.  Its atoms are the input's atoms, the complement and support marks
it uses and ``__f``, sorted by rendering; the input's rules are renumbered
into them by one merge (``_Extension``), and the construction's rules are
built over the new numbers.  A construction's table keeps the lifted input
rules (``GeneratorTable.inputs``), so the search over it needs no second
lift.

The tester of a candidate M is read off the reduct P^M: ``test_program``
lifts the input once, and each candidate's tester is derived from the
lifted rules in one pass over them.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

from .syntax import (
    Atom,
    F_ATOM,
    IntRule,
    Program,
    RuleTable,
    complement,
    positions,
    reject_marked,
    support,
)


def _input(p: Program, what: str) -> tuple[RuleTable, list[int]]:
    """p's table, checked to hold no complement or support atom, and the
    atoms of its disjunctive heads, ascending."""
    table = p.table
    reject_marked(table.atoms, "complement/support", what)
    return table, sorted({a for head, _, _ in table.rules if len(head) > 1 for a in head})


class _Extension:
    """The atoms of a construction over ``table``: its atoms, the complement
    marks of the atoms ``comps`` and the support marks of ``sups`` (input
    numbers, ascending), and ``__f`` if ``f``, deduplicated by rendering and
    numbered in sorted order; and the input's rules over those numbers."""

    def __init__(self, table: RuleTable, comps: Sequence[int] = (), sups: Sequence[int] = (), f: bool = True):
        marks = (
            [complement(table.atoms[a]) for a in comps],
            [support(table.atoms[a]) for a in sups],
            [F_ATOM] if f else [],
        )
        by_text = {a.text: a for a in chain(table.atoms, *marks)}
        self.atoms = tuple(sorted(by_text.values(), key=attrgetter("text")))
        self.lift = lift = positions(table.atoms, self.atoms)
        c, s, fs = [positions(m, self.atoms) for m in marks]
        # The mark of a lifted atom, by that atom's number.
        self.complement = dict(zip([lift[a] for a in comps], c))
        self.support = dict(zip([lift[a] for a in sups], s))
        self.f = fs[0] if fs else -1
        # Atom numbers follow the atoms' order, so lifted parts stay sorted.
        self.rules = [
            (tuple([lift[a] for a in head]), tuple([lift[b] for b in pos]), tuple([lift[c] for c in neg]))
            for head, pos, neg in table.rules
        ]

    def f_rule(self, pos: tuple[int, ...], neg: Iterable[int]) -> IntRule:
        """The constraint ``__f :- pos, not neg, not __f``."""
        return (self.f,), pos, tuple(sorted({*neg, self.f}))

    def program(self, rules: Iterable[IntRule]) -> Program:
        """The program of ``rules`` over these atoms, each rule once, stored
        as a ``GeneratorTable`` that keeps the lifted input."""
        return Program.of_table(GeneratorTable(self.atoms, dict.fromkeys(rules), self.rules))


class GeneratorTable(RuleTable):
    """A construction's rules, and the input's rules over the same numbers,
    which the generate-and-test search reads."""

    __slots__ = ("inputs",)

    def __init__(self, atoms: Sequence[Atom], rules: Sequence[IntRule], inputs: Sequence[IntRule]):
        super().__init__(atoms, rules)
        self.inputs = inputs


def gen_naive(p: Program) -> Program:
    """Free choice over the whole base plus one constraint per rule.

    The reserved constraint atom gets no choice pair: giving it support would
    disarm every f-constraint, including desugared input constraints.
    """
    table, _ = _input(p, "gen_naive")
    free = [a for a, atom in enumerate(table.atoms) if atom != F_ATOM]
    x = _Extension(table, comps=free, f=bool(table.rules))
    rules = []
    for a, c in x.complement.items():
        rules += [((a,), (), (c,)), ((c,), (), (a,))]
    rules += [x.f_rule(pos, head + neg) for head, pos, neg in x.rules]
    return x.program(rules)


def _basic_rules(x: _Extension) -> list[IntRule]:
    """gen_basic's rules: a choice per disjunctive head atom, a constraint
    per disjunctive rule, and the normal rules as they are."""
    disjunctive = [r for r in x.rules if len(r[0]) > 1]
    rules = [
        ((a,), pos, tuple(sorted((*neg, x.complement[a]))))
        for head, pos, neg in disjunctive
        for a in head
    ]
    rules += [((c,), (), (a,)) for a, c in x.complement.items()]
    rules += [x.f_rule(pos, head + neg) for head, pos, neg in disjunctive]
    rules += [r for r in x.rules if len(r[0]) == 1]
    return rules


def _support_rules(x: _Extension) -> list[IntRule]:
    """support_program's rules: per rule, one for each of its head atoms
    that is a disjunctive head atom, and a constraint per such atom."""
    rules = [
        ((x.support[a],), pos, tuple(sorted({b for b in head if b != a}.union(neg))))
        for head, pos, neg in x.rules
        for a in head
        if a in x.support
    ]
    rules += [x.f_rule((a,), (s,)) for a, s in x.support.items()]
    return rules


def gen_basic(p: Program) -> Program:
    """Choice restricted to disjunctive heads; normal rules pass through."""
    table, heads = _input(p, "gen_basic")
    x = _Extension(table, comps=heads, f=bool(heads))
    return x.program(_basic_rules(x))


def support_program(p: Program) -> Program:
    """Support rules: a rule supports exactly one of its head atoms, and every
    true disjunctive-head atom must have a supporting rule."""
    table, heads = _input(p, "support_program")
    x = _Extension(table, sups=heads, f=bool(heads))
    return x.program(_support_rules(x))


def gen_program(p: Program) -> Program:
    """The production generator: basic choice plus supportedness pruning."""
    table, heads = _input(p, "gen_program")
    x = _Extension(table, comps=heads, sups=heads, f=bool(heads))
    return x.program(_basic_rules(x) + _support_rules(x))


class TesterTable:
    """The testers of p, each derived from its candidate: p's atoms with the
    complement marks of its disjunctive head atoms and ``__f``, and p's rules
    over them (``rules``)."""

    def __init__(self, x: _Extension):
        self.x = x
        self.rules = x.rules
        # The numbers of the base's atoms.
        self.index = {x.atoms[b]: b for b in x.lift}

    def numbers(self, m: Iterable[Atom]) -> frozenset[int]:
        """The atom numbers of a candidate, which must lie in the base."""
        try:
            return frozenset(self.index[a] for a in m)
        except KeyError:
            raise ValueError("candidate model must be a subset of the program base") from None

    def tester(self, m: frozenset[int]) -> RuleTable:
        """The tester for candidate m, given by atom numbers.  Each rule whose
        positive body lies in m and whose negative body misses m gives the
        reduct's rules for it: ``a :- pos, not c__a`` per disjunctive head
        atom a in m, the constraint ``:- pos, not head`` for a disjunctive
        rule, ``h :- pos`` for a normal rule with h in m.  The tester lists
        the choices, then ``c__a :- not a`` for every disjunctive head atom
        a, then the constraints, then the normal rules, each rule once, and
        last the final constraint ``:- M.``"""
        x = self.x
        choices, constraints, normal = [], [], []
        for head, pos, neg in self.rules:
            if m.issuperset(pos) and m.isdisjoint(neg):
                if len(head) > 1:
                    choices += [((a,), pos, (x.complement[a],)) for a in head if a in m]
                    constraints.append(x.f_rule(pos, head))
                elif head[0] in m:
                    normal.append((head, pos, ()))
        marks = [((c,), (), (a,)) for a, c in x.complement.items()]
        rules = dict.fromkeys(chain(choices, marks, constraints, normal))
        return RuleTable(x.atoms, [*rules, ((x.f,), tuple(sorted(m)), (x.f,))])

    def program(self, m: Iterable[Atom]) -> Program:
        """The tester for candidate m as a program, a view of its table: its
        stable models are the models of the reduct P^m properly inside m."""
        return Program.of_table(self.tester(self.numbers(m)))


def test_program(p: Program) -> TesterTable:
    """The testers of p, each derived from its candidate M by
    ``TesterTable.tester``: their stable models are the models of the
    reduct P^M properly inside M."""
    table, heads = _input(p, "test_program")
    return TesterTable(_Extension(table, comps=heads))
