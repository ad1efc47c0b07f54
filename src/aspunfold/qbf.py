"""2,exists-QBF instances: parsing, validity oracle, and the translation to
disjunctive programs.

A formula exists-X forall-Y phi with phi in DNF is valid iff some X-assignment
leaves the clause set of not-phi unsatisfiable over Y.  The translation
chooses per clause whether it stays active (``cl__i``/``ncl__i``), explains
the choice against the X-literals through f-constraints, and runs the
unsatisfiability check over Y with the saturation atom ``__u``.
``qbf_to_program`` builds the program's rule table directly, without a
``Rule``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .semantics import CapExceededError
from .syntax import (
    Atom,
    F_ATOM,
    Literal,
    Program,
    RuleTable,
    U_ATOM,
    clause_atom,
    clause_negation_atom,
)

DEFAULT_QBF_CAP = 20


class QbfParseError(ValueError):
    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class Qbf2E:
    """exists X forall Y (term_1 or ... or term_d), terms conjunctions of literals."""

    x_vars: tuple[Atom, ...]
    y_vars: tuple[Atom, ...]
    terms: tuple[frozenset[Literal], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_vars", tuple(self.x_vars))
        object.__setattr__(self, "y_vars", tuple(self.y_vars))
        object.__setattr__(self, "terms", tuple(frozenset(t) for t in self.terms))
        xs, ys = set(self.x_vars), set(self.y_vars)
        if xs & ys:
            raise ValueError("a variable cannot be both existential and universal")
        for term in self.terms:
            if not term:
                raise ValueError("empty term")
            for lit in term:
                if lit.atom not in xs and lit.atom not in ys:
                    raise ValueError(f"term variable {lit.atom.text} not quantified")
                if lit.negated() in term:
                    raise ValueError(f"term contains complementary pair on {lit.atom.text}")

    @property
    def variables(self) -> tuple[Atom, ...]:
        return self.x_vars + self.y_vars


def parse_qbf(text: str) -> Qbf2E:
    lines = text.splitlines()
    if not lines or not (lines[0] == "e" or lines[0].startswith("e ")):
        raise QbfParseError("expected existential block 'e ...'", 1)
    if len(lines) < 2 or not (lines[1] == "a" or lines[1].startswith("a ")):
        raise QbfParseError("expected universal block 'a ...'", 2)

    def var(tok: str, lineno: int) -> Atom:
        try:
            return Atom(tok)
        except ValueError as exc:
            raise QbfParseError(str(exc), lineno)

    x_vars = tuple(var(t, 1) for t in lines[0][1:].split())
    y_vars = tuple(var(t, 2) for t in lines[1][1:].split())
    terms = []
    for lineno, raw in enumerate(lines[2:], 3):
        toks = raw.split()
        if not toks:
            raise QbfParseError("empty term line", lineno)
        term = set()
        for tok in toks:
            positive = not tok.startswith("-")
            name = tok if positive else tok[1:]
            term.add(Literal(var(name, lineno), positive))
        terms.append(frozenset(term))
    try:
        return Qbf2E(x_vars, y_vars, tuple(terms))
    except ValueError as exc:
        raise QbfParseError(str(exc))


def render_qbf(q: Qbf2E) -> str:
    lines = [
        ("e " + " ".join(a.text for a in q.x_vars)).rstrip(),
        ("a " + " ".join(a.text for a in q.y_vars)).rstrip(),
    ]
    for term in q.terms:
        lines.append(" ".join(l.text.replace("not ", "-") for l in sorted(term)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NegClause:
    """Clause X1 or not-X2 or Y1 or not-Y2 of the negated DNF matrix."""

    x_pos: frozenset[Atom]
    x_neg: frozenset[Atom]
    y_pos: frozenset[Atom]
    y_neg: frozenset[Atom]

    def __post_init__(self) -> None:
        for name in ("x_pos", "x_neg", "y_pos", "y_neg"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if self.x_pos & self.x_neg or self.y_pos & self.y_neg:
            raise ValueError("clause sets must be disjoint within a variable class")


def negate_dnf(q: Qbf2E) -> list[NegClause]:
    """De Morgan: each DNF term becomes one clause with every literal flipped."""
    xs = set(q.x_vars)
    out = []
    for term in q.terms:
        x_pos, x_neg, y_pos, y_neg = set(), set(), set(), set()
        for lit in term:
            if lit.atom in xs:
                (x_neg if lit.positive else x_pos).add(lit.atom)
            else:
                (y_neg if lit.positive else y_pos).add(lit.atom)
        out.append(NegClause(frozenset(x_pos), frozenset(x_neg), frozenset(y_pos), frozenset(y_neg)))
    return out


def qbf_to_program(q: Qbf2E) -> Program:
    """The translation as a rule table.  Per clause i of not-phi: the
    activity choice ``cl__i :- not ncl__i.`` and ``ncl__i :- not cl__i.``;
    the explanation, an f-constraint per X1-atom, ``x :- not ncl__i.`` per
    X2-atom and ``:- X2, not X1, not cl__i.``; the unsatisfiability check,
    ``y :- __u.`` per Y-atom and ``Y1 | __u :- Y2, not ncl__i.``.  Then
    ``__u :- not __u.``  Duplicates are dropped, the first kept, and the base
    is the atoms the rules use."""
    clauses = negate_dnf(q)
    # The variables are numbered in sorted order, so sorting their numbers
    # sorts them by rendering, the order in which the rules list them.
    texts = [U_ATOM.text, *sorted({l.atom.text for term in q.terms for l in term})]
    var = {t: i for i, t in enumerate(texts)}
    u, f = 0, len(texts)
    if clauses:
        texts.append(F_ATOM.text)  # every clause's explanation uses __f
    rules = []
    for i, c in enumerate(clauses, 1):
        ci, nci = len(texts), len(texts) + 1
        texts += [clause_atom(i).text, clause_negation_atom(i).text]
        xp, xn, yp, yn = (
            sorted([var[a.text] for a in atoms]) for atoms in (c.x_pos, c.x_neg, c.y_pos, c.y_neg)
        )
        rules += [((ci,), (), (nci,)), ((nci,), (), (ci,))]
        rules += [((f,), (x,), (nci, f)) for x in xp]
        rules += [((x,), (), (nci,)) for x in xn]
        rules.append(((f,), xn, (*xp, ci, f)))
        rules += [((y,), (u,), ()) for y in sorted(yp + yn)]
        rules.append(((*yp, u), yn, (nci,)))
    rules.append(((u,), (), (u,)))
    table = RuleTable.numbered(texts, rules)
    return Program.of_table(RuleTable(table.atoms, dict.fromkeys(table.rules)))


def qbf_witness(q: Qbf2E, cap: int = DEFAULT_QBF_CAP) -> Optional[frozenset[Atom]]:
    """A witnessing X-assignment (atoms set true) if the formula is valid,
    by exhaustive enumeration."""
    n = len(q.x_vars) + len(q.y_vars)
    if n > cap:
        raise CapExceededError(f"{n} QBF variables exceeds enumeration cap {cap}")
    index = {a: i for i, a in enumerate(q.variables)}
    term_masks = []
    for term in q.terms:
        pos = sum(1 << index[l.atom] for l in term if l.positive)
        neg = sum(1 << index[l.atom] for l in term if not l.positive)
        term_masks.append((pos, neg))
    nx = len(q.x_vars)
    ny = len(q.y_vars)
    for xm in range(1 << nx):
        ok = True
        for ym in range(1 << ny):
            m = xm | (ym << nx)
            if not any(pos & m == pos and not neg & m for pos, neg in term_masks):
                ok = False
                break
        if ok:
            return frozenset(a for i, a in enumerate(q.x_vars) if xm >> i & 1)
    return None


def qbf_valid_oracle(q: Qbf2E, cap: int = DEFAULT_QBF_CAP) -> bool:
    """Exhaustive check: some X-assignment satisfies some term under every
    Y-assignment."""
    return qbf_witness(q, cap) is not None
