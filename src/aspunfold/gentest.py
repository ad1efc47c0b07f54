"""Generate-and-test constructions that unfold disjunctions into normal rules.

A generator program's stable models, restricted to the input base, cover the
stable models of the disjunctive program; a tester program for a candidate M
has no stable model exactly when M is minimal for its reduct.  Complement
atoms ``c__a`` code exclusion, support atoms ``s__a`` code that some rule
supports a, and rules with an empty head, ``:- body``, are the
constructions' integrity constraints (the paper's f-rules).

Every construction is a transform of the input's rule table and builds no
``Rule``.  Its atoms are the input's atoms and the complement and support
marks it uses, sorted by rendering.  The marks of one kind sort as one
block, so each number is found by arithmetic, with no sort or search
(``_Extension``): an input atom's is its own, shifted past the blocks that
sort before it, and the input's rules are used as they are when no atom
moves.  The construction's rules are built over these numbers.  A
generator is a ``GeneratorTable``: a program that keeps, besides its own
rules, the lifted input rules, the numbers of the input's atoms (its
``lift``) and the complement marks of its disjunctive head atoms, and
derives from them the tester of each candidate.  Every ``GeneratorTable``
marks every disjunctive head atom.  ``support_program`` adds support marks
alone, so it is a plain ``Program``.

The tester of a candidate M is read off the reduct P^M, in one pass over the
lifted input rules (``GeneratorTable.tester``), so the search over a
generator and every tester of that search share one lift.  A tester holds
only what M leaves open: the atoms of M that no fact of P^M derives, and
the complement marks of those that are disjunctive head atoms, numbered in
the generator's order; it comes with the generator's numbers of its atoms.
An atom outside M is false in every tester model and a fixed atom, one
that a fact derives, true, so neither is an atom of the tester.
``test_program`` returns a generator as it is, and for any other program
its ``gen_basic`` generator.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Sequence

from .semantics import require_in_base
from .syntax import (
    Atom,
    IntRule,
    Program,
    complement,
    complement_block,
    reject_marked,
    support,
    support_block,
)


def _heads(p: Program, what: str) -> list[int]:
    """The atoms of p's disjunctive heads, ascending; p is checked to hold
    no complement or support atom."""
    reject_marked(p.atoms, "complement/support", what)
    return sorted({a for head, _, _ in p.rows if len(head) > 1 for a in head})


def _constraint(head: tuple[int, ...], pos: tuple[int, ...], neg: tuple[int, ...]) -> IntRule:
    """The constraint ``:- pos, not head, not neg`` of a rule: its head is
    already sorted and duplicate-free, so only a negative body asks for a
    merge."""
    return (), pos, tuple(sorted({*head, *neg})) if neg else head


class _Extension:
    """The atoms of a construction over the program ``p``: its atoms, the
    complement marks of the atoms ``comps`` and the support marks of
    ``sups`` (input numbers, ascending), numbered in sorted order; and the
    input's rules over those numbers.  The marks of one kind share a prefix
    that no input atom carries, so they sort as one block, in the order of
    the atoms they mark: the complement marks after the first ``kc`` input
    atoms, the support marks after the first ``ks``.  So input atom i is
    lifted to i, shifted past the blocks that sort before it, and the input's
    rows are reused as they are when no atom moves."""

    def __init__(self, p: Program, comps: Sequence[int] = (), sups: Sequence[int] = ()):
        atoms, n, nc, ns = p.atoms, len(p.atoms), len(comps), len(sups)
        kc, ks = complement_block(atoms), support_block(atoms)
        self.atoms = (
            *atoms[:kc],
            *[complement(atoms[a]) for a in comps],
            *atoms[kc:ks],
            *[support(atoms[a]) for a in sups],
            *atoms[ks:],
        )
        self.lift = lift = [*range(kc), *range(kc + nc, ks + nc), *range(ks + nc + ns, n + nc + ns)]
        # The mark of a lifted atom, by that atom's number.
        self.complement = {lift[a]: kc + j for j, a in enumerate(comps)}
        self.support = {lift[a]: ks + nc + j for j, a in enumerate(sups)}
        # Atom numbers follow the atoms' order, so lifted parts stay sorted.
        if not n or lift[-1] == n - 1:
            self.rules = list(p.rows)
        else:
            self.rules = [
                (tuple([lift[a] for a in head]), tuple([lift[b] for b in pos]), tuple([lift[c] for c in neg]))
                for head, pos, neg in p.rows
            ]

    def program(self, rules: Iterable[IntRule], heads: Sequence[int]) -> GeneratorTable:
        """The program of ``rules`` over these atoms, each rule once, with
        what a tester needs of the input's disjunctive head atoms ``heads``
        (input numbers, ascending)."""
        g = GeneratorTable.of_table(self.atoms, dict.fromkeys(rules))
        g.inputs, g.lift = self.rules, self.lift
        g.complement = {b: self.complement[b] for b in [self.lift[a] for a in heads]}
        return g


class GeneratorTable(Program):
    """A construction over an input P: its program, and what the
    generate-and-test search reads besides, all over the construction's
    numbers: P's rules (``inputs``), the numbers of P's atoms, ascending
    (``lift``), the complement marks of P's disjunctive head atoms, by the
    numbers of the atoms they mark (``complement``), and the tester of each
    candidate (``tester``).  Every ``GeneratorTable`` marks every
    disjunctive head atom of P, so ``tester`` finds the mark of each one it
    meets."""

    inputs: list[IntRule]
    lift: list[int]
    complement: dict[int, int]

    def numbers(self, m: Collection[Atom]) -> frozenset[int]:
        """The atom numbers of a candidate, which must lie in P's base."""
        m = frozenset(m)
        require_in_base(m, frozenset([self.atoms[b] for b in self.lift]), "model")
        return frozenset([self.index[a] for a in m])

    @cached_property
    def _facts(self) -> tuple[list[tuple[int, tuple[int, ...]]], list[IntRule]]:
        """P's rules split once: the normal rules ``h :- not neg`` with no
        positive body, as (h, neg), whose reduct is the fact ``h.`` wherever
        neg misses the candidate, and the other rules but the constraints,
        which give a tester no rule."""
        facts, rest = [], []
        for rule in self.inputs:
            head, pos, neg = rule
            if len(head) == 1 and not pos:
                facts.append((head[0], neg))
            elif head:
                rest.append(rule)
        return facts, rest

    def tester(self, m: Collection[int]) -> tuple[Program, list[int]]:
        """The tester for candidate m, given by atom numbers, and the numbers
        of its atoms here.  An atom of m that a fact of the reduct P^m
        derives is fixed: it is true in every tester model, as every atom
        outside m is false, and neither is an atom of the tester.  Its
        atoms are the open atoms of m, the others, and the complement marks
        of the open disjunctive head atoms, in this table's order.  Each
        rule of P whose positive body lies in m and whose negative body
        misses m gives the reduct's rules for it, its positive body without
        the fixed atoms: ``a :- pos, not c__a`` per open disjunctive head
        atom a, the constraint ``:- pos, not head`` over the open head
        atoms for a disjunctive rule with no fixed head atom, ``h :- pos``
        for a normal rule with h open; a fact and an input constraint give
        none.  The tester lists the choices, then ``c__a :- not a`` for
        every open disjunctive head atom a, then the constraints, then the
        normal rules, each rule once, and last the final constraint over
        the open atoms, which repeats a constraint when m misses every head
        atom of a rule whose body it holds, as an early test's m may.  Its
        stable models, with the fixed atoms added, are the models of the
        reduct P^m properly inside m."""
        complement = self.complement
        m = frozenset(m)
        facts, rest = self._facts
        fixed = {h for h, neg in facts if h in m and m.isdisjoint(neg)}
        opened = sorted(m.difference(fixed))
        marked = [a for a in opened if a in complement]
        numbers = sorted([*opened, *[complement[a] for a in marked]])
        # The tester's number of each of its atoms; the input atoms among
        # them are exactly the open ones.
        index = {a: i for i, a in enumerate(numbers)}
        choices, constraints, normal = [], [], []
        for head, pos, neg in rest:
            if m.issuperset(pos) and m.isdisjoint(neg):
                pos = tuple([index[b] for b in pos if b in index])
                if len(head) > 1:
                    choices += [((index[a],), pos, (index[complement[a]],)) for a in head if a in index]
                    if fixed.isdisjoint(head):
                        constraints.append(((), pos, tuple([index[a] for a in head if a in index])))
                elif head[0] in index:
                    normal.append(((index[head[0]],), pos, ()))
        marks = [((index[complement[a]],), (), (index[a],)) for a in marked]
        rules = dict.fromkeys(chain(choices, marks, constraints, normal))
        final = ((), tuple([index[a] for a in opened]), ())
        atoms = self.atoms
        return Program.of_table([atoms[a] for a in numbers], [*rules, final]), numbers


def gen_naive(p: Program) -> GeneratorTable:
    """Free choice over the whole base plus one constraint per rule."""
    heads = _heads(p, "gen_naive")
    x = _Extension(p, comps=range(len(p.atoms)))
    rules = []
    for a, c in x.complement.items():
        rules += [((a,), (), (c,)), ((c,), (), (a,))]
    rules += [_constraint(*r) for r in x.rules]
    return x.program(rules, heads)


def _basic_rules(x: _Extension) -> list[IntRule]:
    """gen_basic's rules: a choice per disjunctive head atom, a constraint
    per disjunctive rule, and the normal rules and constraints as they are."""
    disjunctive = [r for r in x.rules if len(r[0]) > 1]
    complement = x.complement
    rules = [
        ((a,), pos, tuple(sorted((*neg, complement[a]))) if neg else (complement[a],))
        for head, pos, neg in disjunctive
        for a in head
    ]
    rules += [((c,), (), (a,)) for a, c in complement.items()]
    rules += [_constraint(*r) for r in disjunctive]
    rules += [r for r in x.rules if len(r[0]) <= 1]
    return rules


def _support_rules(x: _Extension) -> list[IntRule]:
    """support_program's rules: per rule, one for each of its head atoms
    that is a disjunctive head atom, and a constraint per such atom."""
    support, rules = x.support, []
    for head, pos, neg in x.rules:
        for i, a in enumerate(head):
            if a in support:
                others = head[:i] + head[i + 1 :]
                rules.append(((support[a],), pos, tuple(sorted({*others, *neg})) if neg else others))
    rules += [((), (a,), (s,)) for a, s in support.items()]
    return rules


def gen_basic(p: Program) -> GeneratorTable:
    """Choice restricted to disjunctive heads; normal rules pass through."""
    heads = _heads(p, "gen_basic")
    x = _Extension(p, comps=heads)
    return x.program(_basic_rules(x), heads)


def support_program(p: Program) -> Program:
    """Support rules: a rule supports exactly one of its head atoms, and every
    true disjunctive-head atom must have a supporting rule.  It marks no
    complement, so it is a plain program, not a ``GeneratorTable``."""
    x = _Extension(p, sups=_heads(p, "support_program"))
    return Program.of_table(x.atoms, dict.fromkeys(_support_rules(x)))


def gen_program(p: Program) -> GeneratorTable:
    """The production generator: basic choice plus supportedness pruning."""
    heads = _heads(p, "gen_program")
    x = _Extension(p, comps=heads, sups=heads)
    return x.program(_basic_rules(x) + _support_rules(x), heads)


def test_program(p: Program) -> GeneratorTable:
    """The testers of p, each derived from its candidate M by
    ``GeneratorTable.tester``: their stable models are the models of the
    reduct P^M properly inside M.  A generator of P is its own tester
    table, over the generator's numbers; any other program's is its
    ``gen_basic`` generator, whose testers every generator of it shares."""
    if isinstance(p, GeneratorTable):
        return p
    reject_marked(p.atoms, "complement/support", "test_program")
    return gen_basic(p)
