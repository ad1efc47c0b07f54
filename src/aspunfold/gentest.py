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

The testers of one program differ only in which rules of one fixed set they
hold and in their final constraint, so ``test_program`` compiles that set
once, deduplicated, with the input rules that switch each rule on.  The
tester of a candidate is a table derived from it: the switched-on rules,
then the final constraint.
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


class TesterTable(RuleTable):
    """Every rule a tester of p can hold but its final constraint,
    deduplicated, over the atoms of every tester, and for each rule the input
    rules that switch it on."""

    def __init__(
        self,
        atoms: Sequence[Atom],
        rules: Sequence[IntRule],
        inputs: tuple[tuple[frozenset[int], frozenset[int]], ...],
        switches: tuple[tuple[int, int, int], ...],
        base: Sequence[int],
        f: int,
    ):
        super().__init__(atoms, rules)
        # The numbers of the base's atoms, and of __f.
        self.index = {self.atoms[b]: b for b in base}
        self.f = f
        # (positive body, negative body) of each input rule, as atom numbers
        self.inputs = inputs
        # (rule, input rule, head) in the order a tester lists its rules: the
        # switch is on for a candidate that holds the input rule's positive
        # body and misses its negative body, and holds the head; input -1 is
        # on for every candidate, and head -1 holds for every candidate.
        self.switches = switches

    def numbers(self, m: Iterable[Atom]) -> frozenset[int]:
        """The atom numbers of a candidate, which must lie in the base."""
        try:
            return frozenset(self.index[a] for a in m)
        except KeyError:
            raise ValueError("candidate model must be a subset of the program base") from None

    def switched_on(self, m: frozenset[int]) -> list[int]:
        """The rules of the tester for candidate m, each once, in the order of
        its first switch that is on."""
        live = [pos <= m and m.isdisjoint(neg) for pos, neg in self.inputs]
        live.append(True)  # live[-1], for input -1
        seen = [False] * len(self.rules)
        out = []
        for r, i, h in self.switches:
            if live[i] and (h < 0 or h in m) and not seen[r]:
                seen[r] = True
                out.append(r)
        return out

    def tester(self, m: frozenset[int]) -> RuleTable:
        """The tester for candidate m, given by atom numbers: its switched-on
        rules, then the final constraint ``:- M.``, over these atoms."""
        rules = [self.rules[r] for r in self.switched_on(m)]
        rules.append(((self.f,), tuple(sorted(m)), (self.f,)))
        return RuleTable(self.atoms, rules)

    def program(self, m: Iterable[Atom]) -> Program:
        """The tester for candidate m as a program, a view of its table: its
        stable models are the models of the reduct P^m properly inside m."""
        return Program.of_table(self.tester(self.numbers(m)))


def test_program(p: Program) -> TesterTable:
    """Compile the rules of every tester of p.  The tester of a candidate M
    holds, for each rule whose positive body lies in M and whose negative
    body misses M, the reduct's rules for it: ``a :- pos, not c__a`` per
    disjunctive head atom a in M, the constraint ``:- pos, not head`` for a
    disjunctive rule, ``h :- pos`` for a normal rule with h in M.  It also
    holds ``c__a :- not a`` for every disjunctive head atom a, and last the
    final constraint ``:- M.``, so that its stable models are the models of
    the reduct P^M properly inside M."""
    table, heads = _input(p, "test_program")
    x = _Extension(table, comps=heads)
    listed: list[tuple[IntRule, int, int]] = []  # (rule, input rule, head), in tester order
    # A rule whose head is in its input rule's negative body is switched on
    # by no candidate, so it is left out.
    for i, (head, pos, neg) in enumerate(x.rules):
        if len(head) > 1:
            listed += [(((a,), pos, (x.complement[a],)), i, a) for a in head if a not in neg]
    listed += [(((c,), (), (a,)), -1, -1) for a, c in x.complement.items()]
    for i, (head, pos, _) in enumerate(x.rules):
        if len(head) > 1:
            listed.append((x.f_rule(pos, head), i, -1))
    for i, (head, pos, neg) in enumerate(x.rules):
        if len(head) == 1 and head[0] not in neg:
            listed.append(((head, pos, ()), i, head[0]))

    number: dict[IntRule, int] = {}
    switches = tuple((number.setdefault(rule, len(number)), i, h) for rule, i, h in listed)
    inputs = tuple((frozenset(pos), frozenset(neg)) for _, pos, neg in x.rules)
    return TesterTable(x.atoms, list(number), inputs, switches, x.lift, x.f)
