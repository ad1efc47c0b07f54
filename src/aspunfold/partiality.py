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
input's own.  ``tr2_program`` numbers its flag ``__f`` first, shifts the
rest by one and reads each flag rule off a consistency rule of tr(p), and
``query_constrained`` appends constraints to a table, so no translation
here builds a ``Rule``.

``partial_stable_models`` is the one place partial stable models are
computed.  Under ``brute`` the enumeration oracle reads them off p itself
and builds no tr, so its answers do not rest on the translation they
check; otherwise ``gnt.solve``, which picks the engine, solves tr(p), and
each model is projected back.

A query is constraints on the program: ``query_constrained`` appends
``:- not a`` per query literal a and ``:- a`` per literal not a, and
``possibility_query`` asks for a partial stable model of the constrained
program.  tr is linear and modular, and translates each query constraint
like any rule: ``:- pos, not neg`` into ``:- pos, not p__neg`` and
``:- p__pos, not neg``.  The second rules out every partial model in
which the body is not false, as three-valued truth asks of a rule whose
head is false.
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
from .solver import SolverStats
from .syntax import (
    Atom,
    F_ATOM,
    IntRule,
    Literal,
    Program,
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

    rules = [(up(head), up(pos), up(neg)) for head, pos, neg in trp.rows]
    # After two rules per rule of p, tr(p) holds ``p__a :- a`` per base atom
    # in sorted order; ``__f :- p__a, not a`` moves its head to the positive
    # body and its body to the negative body.
    rules += [((0,), up(head), up(pos)) for head, pos, _ in trp.rows[2 * len(p.rows) :]]
    return Program.of_table((F_ATOM, *trp.atoms), rules)


def query_constrained(p: Program, q: QueryLiterals) -> Program:
    """p's rules, then a constraint per literal of q in sorted order that
    forces it true in every stable model: ``:- not a.`` for a, ``:- a.`` for
    not a.  The base is p's; an atom of q outside it is rejected."""
    require_in_base(q.atoms, p.base, "query")
    literals = sorted(q.literals)
    numbers = [p.index[l.atom] for l in literals]
    rules = [((), (), (a,)) if l.positive else ((), (a,), ()) for l, a in zip(literals, numbers)]
    return Program.of_table(p.atoms, [*p.rows, *rules])


def partial_stable_models(
    p: Program, mode: str, enumerate_all: bool, config: Optional[GntConfig], cap: int
) -> tuple[list[PartialInterpretation], SolveResult]:
    """The first partial stable model of p, or every one, and the result
    they were read from, whose ``models`` are the stable models of tr(p)
    that code them.  Under ``brute`` they come from the enumeration oracle
    on p, capped at `cap` atoms of p, and no tr is built; otherwise from
    ``gnt.solve`` on tr(p), projected back."""
    if mode == "brute":
        psms = enumerate_partial_stable_models(p, cap)
        if not enumerate_all:
            psms = psms[:1]
        return psms, SolveResult([expand_psm(m) for m in psms], None, SolverStats())
    result = solve(unfold_partiality(p), mode, enumerate_all, config, cap)
    return [project_sm(n, p.base) for n in result.models], result


def possibility_query(
    p: Program,
    q: QueryLiterals,
    mode: str = "gnt2",
    cap: int = DEFAULT_CAP,
    config: Optional[GntConfig] = None,
) -> tuple[bool, Optional[PartialInterpretation], SolveResult]:
    """Whether some partial stable model of p satisfies every literal of q.

    Returns the verdict, the witnessing model, and the result that
    ``partial_stable_models`` answered with on the constrained program (its
    ``stats`` None when no driver ran).  Atoms used only in the query are
    rejected rather than silently added to the base.  Mode ``brute`` asks
    the partial-stable-model oracle, capped at `cap` atoms of the program,
    whatever the program's shape.
    """
    psms, result = partial_stable_models(query_constrained(p, q), mode, False, config, cap)
    if not psms:
        return False, None, result
    return True, psms[0], result

