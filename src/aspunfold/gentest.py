"""Generate-and-test constructions that unfold disjunctions into normal rules.

A generator program's stable models, restricted to the input base, cover the
stable models of the disjunctive program; a tester program for a candidate M
has no stable model exactly when M is minimal for its reduct.  Complement
atoms ``c__a`` code exclusion, support atoms ``s__a`` code that some rule
supports a, and f-rules of the shape ``__f :- not __f, ...`` act as
integrity constraints.
"""

from __future__ import annotations

from typing import Iterable

from .syntax import (
    Atom,
    F_ATOM,
    Program,
    Rule,
    complement,
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


def test_program(p: Program, m: Iterable[Atom]) -> Program:
    """Tester whose stable models are the models of the reduct properly inside m."""
    reject_marked(p.base, "complement/support", "test_program")
    m = frozenset(m)
    if not m <= p.base:
        raise ValueError("candidate model must be a subset of the program base")
    normal, disjunctive, heads = split_program(p)
    rules = []
    for r in disjunctive.rules:
        if r.neg & m or not r.pos <= m:
            continue
        for a in sorted(r.head & m):
            rules.append(Rule(frozenset([a]), r.pos, frozenset([complement(a)])))
    for a in sorted(heads):
        rules.append(Rule(frozenset([complement(a)]), frozenset(), frozenset([a])))
    for r in disjunctive.rules:
        if r.neg & m or not r.pos <= m:
            continue
        rules.append(_constraint(r.pos, r.head))
    for r in normal.rules:
        if r.neg & m or not r.pos <= m:
            continue
        (head,) = r.head
        if head in m:
            rules.append(Rule(r.head, r.pos, frozenset()))
    rules.append(_constraint(m, []))
    return Program(_dedup(rules))
