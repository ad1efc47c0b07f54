"""Capturing partial stable models by total ones.

The translation doubles every rule: the original with its negative literals
redirected to potential-marked atoms, and a fully marked copy with the
original negative literals, plus a consistency rule ``p__a :- a`` per base
atom.  Truth of the pair (a, p__a) codes three-valued truth of a: both true
is true, both false is false, only the mark true is undefined; mark false
with atom true is ruled out by the consistency rules.

``unfold_partiality`` maps the input's rule table to the translation's:
the marked atoms sort as one block, so an atom's number and its mark's are
shifts of its number in the input.  Two per-atom tables, built once per
translation, hold each input atom's one-atom part lifted and marked: every
one-atom part of the translation is read from them, and each ``p__a :- a``
is a marked and a lifted entry, so only longer parts are built.  When no
input atom sorts after ``p__``, none moves, and the lifted parts are the
input's own.  ``tr2_program`` numbers its flag ``__f`` first and shifts
the rest by one, and ``query_constrained`` appends constraints to a table,
so no translation here builds a ``Rule``.

``possibility_query`` checks the query against the base and hands the
translation, constrained by the marked query, to ``gnt.solve``, which picks
the engine.  A constraint ``:- pos, not neg`` is translated like any rule,
into ``:- pos, not p__neg`` and ``:- p__pos, not neg``.  The second rules
out every partial model in which the body is not false, as three-valued
truth asks of a rule whose head is false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .gnt import GntConfig, SolveResult, solve
from .semantics import (
    DEFAULT_CAP,
    PartialInterpretation,
    enumerate_partial_stable_models,
    require_in_base,
)
from .syntax import (
    Atom,
    F_ATOM,
    IntRule,
    Literal,
    Program,
    positions,
    potential,
    potential_block,
    potential_text,
    reject_marked,
)


def unfold_partiality(p: Program) -> Program:
    """The translation, as a transform of p's rule table: for each rule the
    original and then the marked copy, followed by ``p__a :- a`` for each
    base atom in sorted order."""
    atoms = p.atoms
    reject_marked(atoms, "potential-marked", "unfold_partiality")
    n = len(atoms)
    k = potential_block(atoms)
    # The one-atom parts of each input atom, lifted and marked.
    lifted = [(i,) for i in range(k)] + [(i + n,) for i in range(k, n)]
    marked = [(k + i,) for i in range(n)]
    if k == n:
        lift = tuple  # every atom sorts before p__ and keeps its number
    else:
        def lift(xs: tuple[int, ...]) -> tuple[int, ...]:
            if len(xs) == 1:
                return lifted[xs[0]]
            return tuple([x if x < k else x + n for x in xs])

    def mark(xs: tuple[int, ...]) -> tuple[int, ...]:
        if len(xs) == 1:
            return marked[xs[0]]
        return tuple([x + k for x in xs])

    rules: list[IntRule] = []
    for head, pos, neg in p.rows:
        rules.append((lift(head), lift(pos), mark(neg)))
        rules.append((mark(head), mark(pos), lift(neg)))
    rules += zip(marked, lifted, [()] * n)
    marks = [potential(a) for a in atoms]
    return Program.of_table((*atoms[:k], *marks, *atoms[k:]), rules)


def expand_psm(m: PartialInterpretation) -> frozenset[Atom]:
    """Total interpretation of the translation coding m: T plus marked T-and-undefined."""
    return m.true_set | {potential(a) for a in m.true_set | m.undef_set}


def project_sm(true_atoms: Iterable[Atom], plain_base: Iterable[Atom]) -> PartialInterpretation:
    """Read a total model of the translation back as a partial interpretation:
    the base atoms true in it are true, and those whose potential mark is
    not true are false.  Marks are read by their text, with no marked atom
    built."""
    n = frozenset(true_atoms)
    texts = {a.text for a in n}
    base = frozenset(plain_base)
    t = base & n
    f = frozenset([a for a in base if potential_text(a.text) not in texts])
    if not t.isdisjoint(f):
        raise ValueError(f"atom {min(t & f).text} true without its potential mark")
    return PartialInterpretation(t, f, base)


@dataclass(frozen=True)
class QueryLiterals:
    literals: frozenset[Literal]

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", frozenset(self.literals))
        # The least such atom, as the set's order would otherwise decide.
        positive = {l.atom.text for l in self.literals if l.positive}
        pairs = [l.atom.text for l in self.literals if not l.positive and l.atom.text in positive]
        if pairs:
            raise ValueError(f"query contains complementary pair on {min(pairs)}")

    @property
    def atoms(self) -> frozenset[Atom]:
        return frozenset(l.atom for l in self.literals)

    def holds(self, true: frozenset[Atom], false: frozenset[Atom]) -> bool:
        """Whether every literal is true where the atoms of ``true`` are true
        and those of ``false`` false: its atom in ``true`` if positive, in
        ``false`` if negative."""
        return all(l.atom in (true if l.positive else false) for l in self.literals)


def translate_query(q: QueryLiterals) -> QueryLiterals:
    marked = {Literal(potential(l.atom), l.positive) for l in q.literals}
    return QueryLiterals(q.literals | marked)


def tr2_program(p: Program) -> Program:
    """Translation variant whose flag atom detects leftover undefined atoms:
    tr(p), then ``__f :- p__a, not a`` per base atom a in sorted order.
    ``__f`` sorts before every other atom, which starts with a lowercase
    letter or is ``__u``: it is atom 0, and every atom of tr(p) moves up by
    one."""
    if F_ATOM in p.base:
        raise ValueError("tr2 requires the reserved atom __f to be fresh")
    trp = unfold_partiality(p)

    def up(xs: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([x + 1 for x in xs])

    # tr(p) numbers input atom i as i before its marks' block and i + n
    # after it, and i's mark as k + i.
    n, k = len(p.atoms), potential_block(p.atoms)
    rules = [(up(head), up(pos), up(neg)) for head, pos, neg in trp.rows]
    rules += [((0,), (k + i + 1,), ((i if i < k else i + n) + 1,)) for i in range(n)]
    return Program.of_table((F_ATOM, *trp.atoms), rules)


def query_constrained(p: Program, q: QueryLiterals) -> Program:
    """p's rules, then a constraint per literal of q in sorted order that
    forces it true in every stable model: ``:- not a.`` for a, ``:- a.`` for
    not a.  The base is p's; q's atoms must lie in it."""
    literals = sorted(q.literals)
    numbers = positions([l.atom for l in literals], p.atoms)
    rules = [((), (), (a,)) if l.positive else ((), (a,), ()) for l, a in zip(literals, numbers)]
    return Program.of_table(p.atoms, [*p.rows, *rules])


def possibility_query(
    p: Program,
    q: QueryLiterals,
    mode: str = "gnt2",
    cap: int = DEFAULT_CAP,
    config: Optional[GntConfig] = None,
) -> tuple[bool, Optional[PartialInterpretation], SolveResult]:
    """Whether some partial stable model of p satisfies every literal of q.

    Returns the verdict, the witnessing model, and the result of the
    ``gnt.solve`` call that answered on the constrained translation (its
    ``stats`` None when no driver ran).  Atoms used only in the query are
    rejected rather than silently added to the base.  Mode ``brute`` asks
    the enumeration oracle, capped at `cap` atoms of the translation,
    whatever the program's shape.
    """
    require_in_base(q.atoms, p.base, "query")
    augmented = query_constrained(unfold_partiality(p), translate_query(q))
    result = solve(augmented, mode=mode, cap=cap, config=config)
    if not result.models:
        return False, None, result
    return True, project_sm(result.models[0], p.base), result


def query_by_filter(
    p: Program, q: QueryLiterals, cap: int = DEFAULT_CAP
) -> tuple[bool, Optional[PartialInterpretation]]:
    """Oracle fallback: enumerate partial stable models and test the query directly."""
    require_in_base(q.atoms, p.base, "query")
    for m in enumerate_partial_stable_models(p, cap):
        if q.holds(m.true_set, m.false_set):
            return True, m
    return False, None
