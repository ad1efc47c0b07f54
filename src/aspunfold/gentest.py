"""Generate-and-test constructions that unfold disjunctions into normal rules.

A generator program's stable models, restricted to the input base, cover the
stable models of the disjunctive program; a tester program for a candidate M
has no stable model exactly when M is minimal for its reduct.  Complement
atoms ``c__a`` code exclusion, support atoms ``s__a`` code that some rule
supports a, and f-rules of the shape ``__f :- not __f, ...`` act as
integrity constraints.

Every construction is a transform of the input's rule table and builds no
``Rule``.  Its atoms are the input's atoms, the complement and support marks
it uses and ``__f``, which every construction holds, sorted by rendering;
the input's rules are renumbered into them by one merge (``_Extension``),
and the construction's rules are built over the new numbers.  A
construction's table (``GeneratorTable``) keeps the lifted input rules and
what a tester needs besides: the numbers of the input's atoms, the
complement marks of its disjunctive head atoms and the number of ``__f``.

The tester of a candidate M is read off the reduct P^M, in one pass over the
lifted input rules (``TesterTable.tester``).  ``test_program`` builds the
testers from a generator's table, over the generator's numbers, so the
search over a generator and every tester of that search share one lift.
The marks a tester does not use, such as ``s__a``, head no tester rule, so
they are false from the root on.  Given a program, ``test_program`` first
lifts it into a table with no rules of its own, which holds the complement
marks of its disjunctive head atoms and ``__f``.

The constructions use ``__f`` as their own constraint atom, so they reject
an input with ``__f`` in a disjunctive head.  They are sound only on input
in which ``__f`` is false in every stable model; an input rule that derives
``__f`` otherwise is answered only by the enumeration oracle.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Collection, Iterable, Sequence

from .semantics import require_in_base
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
    """p's table, checked to hold no complement or support atom and no
    ``__f`` in a disjunctive head, and the atoms of its disjunctive heads,
    ascending."""
    table = p.table
    reject_marked(table.atoms, "complement/support", what)
    heads = sorted({a for head, _, _ in table.rules if len(head) > 1 for a in head})
    if any(table.atoms[a].text == F_ATOM.text for a in heads):
        raise ValueError(f"{what}: the reserved atom __f in a disjunctive head")
    return table, heads


def _f_rule(f: int, pos: tuple[int, ...], neg: Iterable[int]) -> IntRule:
    """The constraint ``__f :- pos, not neg, not __f``, ``__f`` numbered f."""
    return (f,), pos, tuple(sorted({*neg, f}))


class _Extension:
    """The atoms of a construction over ``table``: its atoms, the complement
    marks of the atoms ``comps`` and the support marks of ``sups`` (input
    numbers, ascending), and ``__f``, deduplicated by rendering and numbered
    in sorted order; and the input's rules over those numbers.  ``f`` is the
    number of ``__f``, added or the input's own."""

    def __init__(self, table: RuleTable, comps: Sequence[int] = (), sups: Sequence[int] = ()):
        marks = ([complement(table.atoms[a]) for a in comps], [support(table.atoms[a]) for a in sups])
        by_text = {a.text: a for a in chain(table.atoms, *marks, [F_ATOM])}
        self.atoms = tuple(sorted(by_text.values(), key=attrgetter("text")))
        self.lift = lift = positions(table.atoms, self.atoms)
        c, s = [positions(m, self.atoms) for m in marks]
        # The mark of a lifted atom, by that atom's number.
        self.complement = dict(zip([lift[a] for a in comps], c))
        self.support = dict(zip([lift[a] for a in sups], s))
        self.f = positions([F_ATOM], self.atoms)[0]
        # Atom numbers follow the atoms' order, so lifted parts stay sorted.
        self.rules = [
            (tuple([lift[a] for a in head]), tuple([lift[b] for b in pos]), tuple([lift[c] for c in neg]))
            for head, pos, neg in table.rules
        ]

    def f_rule(self, pos: tuple[int, ...], neg: Iterable[int]) -> IntRule:
        """The constraint ``__f :- pos, not neg, not __f``."""
        return _f_rule(self.f, pos, neg)

    def program(self, rules: Iterable[IntRule], heads: Sequence[int]) -> Program:
        """The program of ``rules`` over these atoms, each rule once, stored
        as a ``GeneratorTable`` over the input's disjunctive head atoms
        ``heads`` (input numbers, ascending)."""
        return Program.of_table(GeneratorTable(self, dict.fromkeys(rules), heads))


class GeneratorTable(RuleTable):
    """A construction's rules, and what the generate-and-test search reads
    besides, all over the construction's numbers: the input's rules
    (``inputs``), the numbers of the input's atoms, ascending (``base``),
    the complement marks of its disjunctive head atoms ``heads`` (input
    numbers) that the construction has, by the numbers of the atoms they
    mark (``complement``), and the number of ``__f`` (``f``).  Every
    generator of a mode marks every disjunctive head atom; only
    ``support_program`` marks none."""

    __slots__ = ("inputs", "base", "complement", "f")

    def __init__(self, x: _Extension, rules: Sequence[IntRule], heads: Sequence[int]):
        super().__init__(x.atoms, rules)
        self.inputs = x.rules
        self.base = x.lift
        lifted = [x.lift[a] for a in heads]
        self.complement = {a: x.complement[a] for a in lifted if a in x.complement}
        self.f = x.f


def gen_naive(p: Program) -> Program:
    """Free choice over the whole base plus one constraint per rule.

    The reserved constraint atom gets no choice pair: giving it support would
    disarm every f-constraint, including desugared input constraints.
    """
    table, heads = _input(p, "gen_naive")
    free = [a for a, atom in enumerate(table.atoms) if atom != F_ATOM]
    x = _Extension(table, comps=free)
    rules = []
    for a, c in x.complement.items():
        rules += [((a,), (), (c,)), ((c,), (), (a,))]
    rules += [x.f_rule(pos, head + neg) for head, pos, neg in x.rules]
    return x.program(rules, heads)


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
    x = _Extension(table, comps=heads)
    return x.program(_basic_rules(x), heads)


def support_program(p: Program) -> Program:
    """Support rules: a rule supports exactly one of its head atoms, and every
    true disjunctive-head atom must have a supporting rule."""
    table, heads = _input(p, "support_program")
    x = _Extension(table, sups=heads)
    return x.program(_support_rules(x), heads)


def gen_program(p: Program) -> Program:
    """The production generator: basic choice plus supportedness pruning."""
    table, heads = _input(p, "gen_program")
    x = _Extension(table, comps=heads, sups=heads)
    return x.program(_basic_rules(x) + _support_rules(x), heads)


class TesterTable:
    """The testers of an input P, each derived from its candidate, read off
    the table ``g`` of a construction over P: over g's atoms (``atoms``),
    P's rules (``rules``), the complement marks of P's disjunctive head
    atoms by the numbers of the atoms they mark (``complement``), the
    number of ``__f`` (``f``) and the numbers of P's atoms, ascending
    (``base``)."""

    def __init__(self, g: GeneratorTable):
        self.atoms = g.atoms
        self.rules = g.inputs
        self.complement = g.complement
        self.f = g.f
        self.base = g.base
        # c__a :- not a, for every disjunctive head atom a
        self.marks = [((c,), (), (a,)) for a, c in g.complement.items()]

    @cached_property
    def index(self) -> dict[Atom, int]:
        """The numbers of P's atoms, for callers that name a candidate's atoms."""
        return {self.atoms[b]: b for b in self.base}

    def numbers(self, m: Collection[Atom]) -> frozenset[int]:
        """The atom numbers of a candidate, which must lie in the base."""
        try:
            return frozenset(self.index[a] for a in m)
        except KeyError:
            require_in_base(m, frozenset(self.index), "model")
            raise

    def tester(self, m: Collection[int]) -> RuleTable:
        """The tester for candidate m, given by atom numbers.  Each rule whose
        positive body lies in m and whose negative body misses m gives the
        reduct's rules for it: ``a :- pos, not c__a`` per disjunctive head
        atom a in m, the constraint ``:- pos, not head`` for a disjunctive
        rule, ``h :- pos`` for a normal rule with h in m.  The tester lists
        the choices, then ``c__a :- not a`` for every disjunctive head atom
        a, then the constraints, then the normal rules, each rule once, and
        last the final constraint ``:- M.``"""
        complement, f = self.complement, self.f
        m = frozenset(m)
        choices, constraints, normal = [], [], []
        for head, pos, neg in self.rules:
            if m.issuperset(pos) and m.isdisjoint(neg):
                if len(head) > 1:
                    choices += [((a,), pos, (complement[a],)) for a in head if a in m]
                    constraints.append(_f_rule(f, pos, head))
                elif head[0] in m:
                    normal.append((head, pos, ()))
        rules = dict.fromkeys(chain(choices, self.marks, constraints, normal))
        return RuleTable(self.atoms, [*rules, _f_rule(f, tuple(sorted(m)), ())])

    def program(self, m: Collection[Atom]) -> Program:
        """The tester for candidate m as a program, a view of its table: its
        stable models are the models of the reduct P^m properly inside m."""
        return Program.of_table(self.tester(self.numbers(m)))


def test_program(p: Program | GeneratorTable) -> TesterTable:
    """The testers of p, each derived from its candidate M by
    ``TesterTable.tester``: their stable models are the models of the
    reduct P^M properly inside M.  Given the table of a generator of P,
    they are over the generator's numbers.  Given a program, they are over
    a table with no rules of its own that lifts p with the complement
    marks of its disjunctive head atoms and ``__f``."""
    if not isinstance(p, GeneratorTable):
        table, heads = _input(p, "test_program")
        p = GeneratorTable(_Extension(table, comps=heads), (), heads)
    return TesterTable(p)
