"""Generate-and-test constructions that unfold disjunctions into normal rules.

A generator program's stable models, restricted to the input base, cover the
stable models of the disjunctive program; a tester program for a candidate M
has no stable model exactly when M is minimal for its reduct.  Complement
atoms ``c__a`` code exclusion, support atoms ``s__a`` code that some rule
supports a, and f-rules of the shape ``__f :- not __f, ...`` act as
integrity constraints.

The testers of one program differ only in which rules of one fixed set they
hold and in their final constraint, so ``test_program`` compiles that set
once, deduplicated, into an integer rule table the solver reads, with the
input rules that switch each rule on.  The tester of a candidate, as a
program, is derived from the table.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from .syntax import (
    Atom,
    F_ATOM,
    IntRule,
    Program,
    Rule,
    RuleTable,
    complement,
    positions,
    reject_marked,
    split_program,
    support,
)


def _constraint(pos: Iterable[Atom], neg: Iterable[Atom]) -> Rule:
    return Rule(frozenset([F_ATOM]), frozenset(pos), frozenset(neg) | {F_ATOM})


def _dedup(rules: Iterable[Rule]) -> tuple[Rule, ...]:
    seen = set()
    out = []
    for r in rules:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return tuple(out)


def gen_naive(p: Program) -> Program:
    """Free choice over the whole base plus one constraint per rule.

    The reserved constraint atom gets no choice pair: giving it support would
    disarm every f-constraint, including desugared input constraints.
    """
    reject_marked(p.base, "complement/support", "gen_naive")
    rules = []
    for a in sorted(p.base):
        if a == F_ATOM:
            continue
        rules.append(Rule(frozenset([a]), frozenset(), frozenset([complement(a)])))
        rules.append(Rule(frozenset([complement(a)]), frozenset(), frozenset([a])))
    for r in p.rules:
        rules.append(_constraint(r.pos, r.head | r.neg))
    return Program(_dedup(rules), base=p.base)


def gen_basic(p: Program) -> Program:
    """Choice restricted to disjunctive heads; normal rules pass through."""
    reject_marked(p.base, "complement/support", "gen_basic")
    normal, disjunctive, heads = split_program(p)
    rules = []
    for r in disjunctive.rules:
        for a in sorted(r.head):
            rules.append(Rule(frozenset([a]), r.pos, r.neg | {complement(a)}))
    for a in sorted(heads):
        rules.append(Rule(frozenset([complement(a)]), frozenset(), frozenset([a])))
    for r in disjunctive.rules:
        rules.append(_constraint(r.pos, r.head | r.neg))
    rules.extend(normal.rules)
    return Program(_dedup(rules), base=p.base)


def support_program(p: Program) -> Program:
    """Support rules: a rule supports exactly one of its head atoms, and every
    true disjunctive-head atom must have a supporting rule."""
    reject_marked(p.base, "complement/support", "support_program")
    _, _, heads = split_program(p)
    rules = []
    for r in p.rules:
        for a in sorted(r.head & heads):
            rules.append(Rule(frozenset([support(a)]), r.pos, (r.head - {a}) | r.neg))
    for a in sorted(heads):
        rules.append(_constraint([a], [support(a)]))
    return Program(_dedup(rules), base=p.base)


def gen_program(p: Program) -> Program:
    """The production generator: basic choice plus supportedness pruning."""
    return Program(
        _dedup(gen_basic(p).rules + support_program(p).rules),
        base=p.base,
    )


class TesterTable(RuleTable):
    """Every rule a tester of p can hold, deduplicated, as a solver's
    integer rule table, and for each one the input rules that switch it on.

    The last rule is the slot of the final constraint ``:- M.``; it is
    compiled with the whole base as its positive body, the union of every
    candidate's, and a solver over the table gives it M before each test.
    """

    def __init__(
        self,
        atoms: Sequence[Atom],
        rules: Sequence[IntRule],
        inputs: tuple[tuple[frozenset[int], frozenset[int]], ...],
        switches: tuple[tuple[int, int, int], ...],
    ):
        super().__init__(atoms, rules)
        self.slot = len(self.rules) - 1
        # The numbers of the base's atoms, which the slot holds as compiled.
        self.index = {self.atoms[b]: b for b in self.rules[self.slot][1]}
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
        its first switch that is on: the order ``program`` lists them in."""
        live = [pos <= m and m.isdisjoint(neg) for pos, neg in self.inputs]
        live.append(True)  # live[-1], for input -1
        seen = [False] * len(self.rules)
        out = []
        for r, i, h in self.switches:
            if live[i] and (h < 0 or h in m) and not seen[r]:
                seen[r] = True
                out.append(r)
        return out

    def program(self, m: Iterable[Atom]) -> Program:
        """The tester for candidate m as a program: its stable models are the
        models of the reduct P^m properly inside m."""
        ms = self.numbers(m)
        atoms, rules = self.atoms, []
        for r in self.switched_on(ms):
            (h,), pos, neg = self.rules[r]
            if r == self.slot:
                pos = ms
            rules.append(
                Rule(
                    frozenset([atoms[h]]),
                    frozenset(atoms[b] for b in pos),
                    frozenset(atoms[c] for c in neg),
                )
            )
        return Program(tuple(rules))


def test_program(p: Program) -> TesterTable:
    """Compile the rules of every tester of p.  The tester of a candidate M
    holds, for each rule whose positive body lies in M and whose negative
    body misses M, the reduct's rules for it: ``a :- pos, not c__a`` per
    disjunctive head atom a in M, the constraint ``:- pos, not head`` for a
    disjunctive rule, ``h :- pos`` for a normal rule with h in M.  It also
    holds ``c__a :- not a`` for every disjunctive head atom a, and last the
    final constraint ``:- M.``, so that its stable models are the models of
    the reduct P^M properly inside M."""
    table = p.table
    reject_marked(table.atoms, "complement/support", "test_program")
    heads = sorted({a for head, _, _ in table.rules if len(head) > 1 for a in head})
    # The input's atoms, the complements of its disjunctive head atoms and
    # __f, deduplicated by rendering, in sorted order.
    comps = [complement(table.atoms[a]) for a in heads]
    by_text = {a.text: a for a in (*table.atoms, *comps, F_ATOM)}
    atoms = sorted(by_text.values(), key=attrgetter("text"))
    lift = positions(table.atoms, atoms)
    (f,) = positions([F_ATOM], atoms)
    complement_of = dict(zip([lift[a] for a in heads], positions(comps, atoms)))
    # Atom numbers follow the atoms' order, so lifted parts stay sorted.
    numbered = [
        (
            [lift[a] for a in head],
            tuple([lift[b] for b in pos]),
            frozenset([lift[c] for c in neg]),
        )
        for head, pos, neg in table.rules
    ]
    inputs = tuple((frozenset(pos), neg) for _, pos, neg in numbered)
    listed: list[tuple[IntRule, int, int]] = []  # (rule, input rule, head), in tester order
    # A rule whose head is in its input rule's negative body is switched on
    # by no candidate, so it is left out.
    for i, (head, pos, neg) in enumerate(numbered):
        if len(head) > 1:
            listed += [(((a,), pos, (complement_of[a],)), i, a) for a in head if a not in neg]
    for a in sorted(complement_of):
        listed.append((((complement_of[a],), (), (a,)), -1, -1))
    for i, (head, pos, neg) in enumerate(numbered):
        if len(head) > 1:
            listed.append((((f,), pos, tuple(sorted([*head, f]))), i, -1))
    for i, (head, pos, neg) in enumerate(numbered):
        if len(head) == 1 and head[0] not in neg:
            listed.append(((tuple(head), pos, ()), i, head[0]))
    listed.append((((f,), tuple(lift), (f,)), -1, -1))

    number: dict[IntRule, int] = {}
    switches = []
    for rule, i, h in listed:
        switches.append((number.setdefault(rule, len(number)), i, h))
    return TesterTable(atoms, list(number), inputs, tuple(switches))
