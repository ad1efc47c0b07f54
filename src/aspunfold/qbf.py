"""2,exists-QBF instances: parsing, validity oracle, and the translation to
disjunctive programs.

A formula exists-X forall-Y phi with phi in DNF is valid iff some X-assignment
leaves the clause set of not-phi unsatisfiable over Y.  The translation
chooses per clause whether it stays active (``cl__i``/``ncl__i``), explains
the choice against the X-literals through constraints, and runs the
unsatisfiability check over Y with the saturation atom ``__u``.
``qbf_to_program`` builds the program's rule table directly, without a
``Rule``: every atom of the translation is known from the formula, so it
numbers them once in sorted order and builds each rule over those final
numbers.

``parse_qbf`` checks each distinct token once, and each term line as it
reads it, so an error names the first bad token of its line; it then builds
its ``Qbf2E`` without checking the terms again.  A ``Qbf2E`` built directly
checks its own terms and names the least bad variable of its first bad term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .semantics import CapExceededError
from .syntax import (
    Atom,
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
        xs, ys = {a.text for a in self.x_vars}, {a.text for a in self.y_vars}
        if not xs.isdisjoint(ys):
            raise ValueError("a variable cannot be both existential and universal")
        quantified = xs | ys
        for term in self.terms:
            if not term:
                raise ValueError("empty term")
            pairs = {(lit.atom.text, lit.positive) for lit in term}
            names = {name for name, _ in pairs}
            if len(names) < len(pairs) or not names <= quantified:
                # The least bad variable, whatever order the set is walked in.
                bad = min(n for n, positive in pairs if n not in quantified or (n, not positive) in pairs)
                raise ValueError(_complementary(bad) if bad in quantified else _unquantified(bad))

    @property
    def variables(self) -> tuple[Atom, ...]:
        return self.x_vars + self.y_vars


def _unquantified(name: str) -> str:
    return f"term variable {name} not quantified"


def _complementary(name: str) -> str:
    return f"term contains complementary pair on {name}"


def parse_qbf(text: str) -> Qbf2E:
    """Read a QBF: the ``e`` and ``a`` lines, then one term per line,
    ``-`` negating a variable.  Each distinct name and signed token is
    checked once; a term line is checked as it is read, and an error in it
    names its first bad token and the line."""
    lines = text.splitlines()
    if not lines or not (lines[0] == "e" or lines[0].startswith("e ")):
        raise QbfParseError("expected existential block 'e ...'", 1)
    if len(lines) < 2 or not (lines[1] == "a" or lines[1].startswith("a ")):
        raise QbfParseError("expected universal block 'a ...'", 2)

    atoms: dict[str, Atom] = {}

    def var(name: str, lineno: int) -> Atom:
        a = atoms.get(name)
        if a is None:
            try:
                a = atoms[name] = Atom(name)
            except ValueError as exc:
                raise QbfParseError(str(exc), lineno)
        return a

    x_toks, y_toks = lines[0][1:].split(), lines[1][1:].split()
    x_vars = tuple([var(t, 1) for t in x_toks])
    y_vars = tuple([var(t, 2) for t in y_toks])
    if len(atoms) < len(set(x_toks)) + len(set(y_toks)):
        raise QbfParseError("a variable cannot be both existential and universal")
    literals: dict[str, Literal] = {}  # by signed token
    terms = []
    for lineno, raw in enumerate(lines[2:], 3):
        toks = raw.split()
        if not toks:
            raise QbfParseError("empty term line", lineno)
        term: dict[str, Literal] = {}
        for tok in toks:
            lit = literals.get(tok)
            if lit is None:
                positive = not tok.startswith("-")
                name = tok if positive else tok[1:]
                if name not in atoms:
                    var(name, lineno)  # raises if the name is misspelt
                    raise QbfParseError(_unquantified(name), lineno)
                lit = literals[tok] = Literal(atoms[name], positive)
            if term.setdefault(lit.atom.text, lit) is not lit:
                raise QbfParseError(_complementary(lit.atom.text), lineno)
        terms.append(frozenset(term.values()))
    # Every check of Qbf2E.__post_init__ has been made above, so it is not
    # run again.
    q = object.__new__(Qbf2E)
    for name, value in (("x_vars", x_vars), ("y_vars", y_vars), ("terms", tuple(terms))):
        object.__setattr__(q, name, value)
    return q


def render_qbf(q: Qbf2E) -> str:
    lines = [
        ("e " + " ".join(a.text for a in q.x_vars)).rstrip(),
        ("a " + " ".join(a.text for a in q.y_vars)).rstrip(),
    ]
    for term in q.terms:
        lines.append(" ".join(l.text.replace("not ", "-") for l in sorted(term)))
    return "\n".join(lines) + "\n"


def qbf_to_program(q: Qbf2E) -> Program:
    """The translation as a rule table.  Per clause i of not-phi: the
    activity choice ``cl__i :- not ncl__i.`` and ``ncl__i :- not cl__i.``;
    the explanation, ``:- x, not ncl__i.`` per X1-atom, ``x :- not ncl__i.``
    per X2-atom and ``:- X2, not X1, not cl__i.``; the unsatisfiability check,
    ``y :- __u.`` per Y-atom and ``Y1 | __u :- Y2, not ncl__i.``.  Then
    ``__u :- not __u.``  Duplicates are dropped, the first kept, and the base
    is the atoms the rules use."""
    xs = {a.text for a in q.x_vars}
    # Every atom is known up front, so the rules are built over the final
    # numbers: the variables of the terms, __u, and per term (clause of
    # not-phi) cl__i and ncl__i.
    atoms = {lit.atom.text: lit.atom for term in q.terms for lit in term}
    atoms[U_ATOM.text] = U_ATOM
    clauses = [(clause_atom(i), clause_negation_atom(i)) for i in range(1, len(q.terms) + 1)]
    for c, nc in clauses:
        atoms[c.text], atoms[nc.text] = c, nc
    texts = sorted(atoms)
    num = {t: i for i, t in enumerate(texts)}
    # '_' sorts before every letter, so __u is atom 0: it leads every part
    # it is in.
    u = num[U_ATOM.text]
    rules = []
    for term, (c, nc) in zip(q.terms, clauses):
        ci, nci = num[c.text], num[nc.text]
        # The clause of not-phi flips every literal of the term.
        xp, xn, yp, yn = [], [], [], []
        for lit in term:
            name = lit.atom.text
            if name in xs:
                (xn if lit.positive else xp).append(num[name])
            else:
                (yn if lit.positive else yp).append(num[name])
        for part in (xp, xn, yp, yn):
            part.sort()
        rules += [((ci,), (), (nci,)), ((nci,), (), (ci,))]
        rules += [((), (x,), (nci,)) for x in xp]
        rules += [((x,), (), (nci,)) for x in xn]
        rules.append(((), tuple(xn), tuple(sorted([*xp, ci]))))
        rules += [((y,), (u,), ()) for y in sorted(yp + yn)]
        rules.append(((u, *yp), tuple(yn), (nci,)))
    rules.append(((u,), (), (u,)))
    return Program.of_table(RuleTable([atoms[t] for t in texts], dict.fromkeys(rules)))


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
