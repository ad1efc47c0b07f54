"""Ground disjunctive programs: atoms, literals, rules and structural queries.

Atom names live in two namespaces.  User programs may only use plain
identifiers; the transformations introduce marked atoms that render with a
fixed prefix (``p__`` potential, ``c__`` complement, ``s__`` support) plus a
handful of reserved names (``__f``, ``__u``, ``cl__<i>``, ``ncl__<i>``).  The
parser rejects reserved spellings in user input, so marked atoms are fresh by
construction and every atom has a unique rendering.

An atom is therefore its rendering: ``Atom`` holds one string, ``text``, and
equality, hashing and ordering are those of that string.  Sorting atoms by
rendering fixes the solver's atom indices, and with them the ties of its
branching choice.  Only this module knows how a mark is spelled.

A ``Program`` is stored as a ``RuleTable``: its atoms sorted by rendering,
and per rule a (head, positive body, negative body) triple of sorted atom
numbers, the head possibly disjunctive or empty: a constraint ``:- body``
is a rule with an empty head.  Every translation builds such a
table and the solver and the oracles read it.  The ``Rule`` objects of
``Program.rules`` are a view of it, built on first read and cached, for the
edges: rendering, instance generation and the test references of the
object-level semantics.  ``Program(rules, base=...)`` keeps its rules and
derives the table on first use, through ``RuleTable.numbered``; the parser
numbers its atoms in sorted order before it reads a rule, and needs no such
pass.  ``_rules_of``, the conversion back, lives here.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# Mark prefixes; all three characters long, so ``text[3:]`` strips one.
_POTENTIAL, _COMPLEMENT, _SUPPORT = "p__", "c__", "s__"
_MARKS = (_POTENTIAL, _COMPLEMENT, _SUPPORT)
_PLAIN_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_RESERVED_RE = re.compile(r"(?:__f|__u|cl__[0-9]+|ncl__[0-9]+)\Z")
# Prefixes a user-written atom may not start with.
RESERVED_PREFIXES = (*_MARKS, "cl__", "ncl__", "__")


def has_reserved_prefix(name: str) -> bool:
    return name.startswith(RESERVED_PREFIXES)


@dataclass(frozen=True, order=True)
class Atom:
    """Ground atom, identified by its rendering.

    ``Atom(name)`` builds plain atoms only; marked and reserved atoms come
    from the mark functions, the reserved constants and ``parse_atom_text``.
    """

    text: str

    def __post_init__(self) -> None:
        if not _PLAIN_RE.fullmatch(self.text) or has_reserved_prefix(self.text):
            raise ValueError(f"invalid plain atom name: {self.text!r}")

    def __repr__(self) -> str:
        return f"Atom({self.text})"

    # The hash of the rendering itself: the generated one hashes the tuple
    # ``(self.text,)``, built anew on every call.
    def __hash__(self) -> int:
        return hash(self.text)


def _known(text: str) -> Atom:
    """The atom rendering as ``text``, which the caller knows to be valid."""
    a = object.__new__(Atom)
    object.__setattr__(a, "text", text)
    return a


def parse_atom_text(text: str) -> Atom:
    """Inverse of Atom.text; raises ValueError on spellings no atom renders to."""
    base = text
    while base.startswith(_MARKS):
        base = base[3:]
    if _RESERVED_RE.fullmatch(base) or (
        _PLAIN_RE.fullmatch(base) and not has_reserved_prefix(base)
    ):
        return _known(text)
    raise ValueError(f"not a valid atom rendering: {text!r}")


def potential(a: Atom) -> Atom:
    return _known(potential_text(a.text))


def potential_text(text: str) -> str:
    """How the potential mark of the atom rendered ``text`` renders, for
    readers that match marks by text and build no ``Atom``."""
    return _POTENTIAL + text


def potential_block(atoms: Sequence[Atom]) -> int:
    """Where the potential marks of ``atoms``, sorted by rendering and none
    of them potential-marked, sort among them: the marks all start with one
    prefix, so they form one block, in the order of the atoms they mark,
    after the first k atoms and before the rest."""
    return bisect_left([a.text for a in atoms], _POTENTIAL)


def complement(a: Atom) -> Atom:
    return _known(_COMPLEMENT + a.text)


def support(a: Atom) -> Atom:
    return _known(_SUPPORT + a.text)


# The marked atoms a construction forbids in its input, by how its error
# names them.
_FORBIDDEN = {
    "potential-marked": (_POTENTIAL,),
    "complement/support": (_COMPLEMENT, _SUPPORT),
}


def reject_marked(atoms: Iterable[Atom], kind: str, what: str) -> None:
    """Raise ValueError if ``atoms`` holds an atom of ``kind``, a key of
    ``_FORBIDDEN``; the error names the least such atom."""
    prefixes = _FORBIDDEN[kind]
    bad = min((a for a in atoms if a.text.startswith(prefixes)), default=None)
    if bad is not None:
        raise ValueError(f"{what}: {kind} atoms present ({bad.text}, ...)")


F_ATOM = _known("__f")
U_ATOM = _known("__u")


def clause_atom(i: int) -> Atom:
    return _known(f"cl__{i}")


def clause_negation_atom(i: int) -> Atom:
    return _known(f"ncl__{i}")


@dataclass(frozen=True, order=True)
class Literal:
    atom: Atom
    positive: bool = True

    @property
    def text(self) -> str:
        return self.atom.text if self.positive else f"not {self.atom.text}"


@dataclass(frozen=True)
class Rule:
    """Disjunctive rule ``head <- pos, not neg`` with duplicate-free parts; a
    constraint has an empty head."""

    head: frozenset[Atom]
    pos: frozenset[Atom] = frozenset()
    neg: frozenset[Atom] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", frozenset(self.head))
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))

    @property
    def atoms(self) -> frozenset[Atom]:
        return self.head | self.pos | self.neg

    def render(self) -> str:
        """The rule as the parser reads it; a constraint without a body
        renders as ``:- .``"""
        head = " | ".join(a.text for a in sorted(self.head))
        body = [a.text for a in sorted(self.pos)]
        body += [f"not {a.text}" for a in sorted(self.neg)]
        if not body and head:
            return f"{head}."
        return f"{head} :- {', '.join(body)}." if head else f":- {', '.join(body)}."


def occurring_atoms(rules: Iterable[Rule]) -> frozenset[Atom]:
    out: set[Atom] = set()
    for r in rules:
        out |= r.atoms
    return frozenset(out)


# A rule over atom numbers: (head, positive body, negative body), each part a
# sorted tuple without duplicates.
IntRule = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


class RuleTable:
    """Rules over integer atoms: atom i is ``atoms[i]``, with the atoms
    sorted by rendering, and each rule is an ``IntRule``.  Numbers follow the
    atoms' order, so sorting numbers sorts atoms."""

    __slots__ = ("atoms", "rules")

    def __init__(self, atoms: Sequence[Atom], rules: Sequence[IntRule]):
        self.atoms = tuple(atoms)
        self.rules = tuple(rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleTable):
            return NotImplemented
        return self.atoms == other.atoms and self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.atoms, self.rules))

    @classmethod
    def numbered(
        cls,
        texts: Sequence[str],
        rules: Iterable[tuple[Iterable[int], Iterable[int], Iterable[int]]],
    ) -> "RuleTable":
        """The table of ``rules`` whose atoms are numbered by position in
        ``texts``, distinct valid renderings: renumbered so that the atoms
        sort by rendering, each part sorted, duplicates dropped."""
        order = sorted(range(len(texts)), key=texts.__getitem__)
        rank = [0] * len(texts)
        for new, old in enumerate(order):
            rank[old] = new
        get = rank.__getitem__
        return cls(
            [_known(texts[old]) for old in order],
            [
                (
                    tuple(sorted(set(map(get, head)))),
                    tuple(sorted(set(map(get, pos)))),
                    tuple(sorted(set(map(get, neg)))),
                )
                for head, pos, neg in rules
            ],
        )


def positions(sub: Sequence[Atom], atoms: Sequence[Atom]) -> list[int]:
    """The numbers in ``atoms`` of the atoms of ``sub``, both sorted by
    rendering and sub a subset of atoms: one merge, no hashing."""
    out, j = [], 0
    for a in sub:
        while atoms[j].text != a.text:
            j += 1
        out.append(j)
    return out


def _rules_of(table: RuleTable) -> tuple[Rule, ...]:
    """A table's rules as ``Rule`` objects, in the table's order."""
    atoms = table.atoms
    return tuple(
        Rule(
            frozenset([atoms[a] for a in head]),
            frozenset([atoms[b] for b in pos]),
            frozenset([atoms[c] for c in neg]),
        )
        for head, pos, neg in table.rules
    )


class Program:
    """Ordered rule list over a Herbrand base.

    The base always contains every occurring atom; a larger base may be
    declared for programs whose interpretations range over extra atoms.

    A program is stored as its ``RuleTable``: the base is the table's atoms,
    and the rules are its rules, in order.  ``rules`` and ``base`` are views
    of the table, built on first read and cached; ``Program(rules, base=...)``
    keeps the view it is given and derives the table on first use, through
    ``RuleTable.numbered``.  The parser and every translation build tables
    directly, so the paths from text through the solvers and the oracles
    build no ``Rule``.  Equality and hashing are those of the table, which
    determines the rules and the base and is determined by them.
    """

    __slots__ = ("_rules", "_base", "_table")

    def __init__(self, rules: Iterable[Rule], base: Optional[Iterable[Atom]] = None):
        self._rules: Optional[tuple[Rule, ...]] = tuple(rules)
        declared = frozenset(base) if base is not None else frozenset()
        self._base: Optional[frozenset[Atom]] = occurring_atoms(self._rules) | declared
        self._table: Optional[RuleTable] = None

    @classmethod
    def of_table(cls, table: RuleTable) -> "Program":
        """The program stored as ``table``; its views are built when read."""
        p = cls.__new__(cls)
        p._rules = p._base = None
        p._table = table
        return p

    @property
    def table(self) -> RuleTable:
        if self._table is None:
            texts = [a.text for a in self._base]
            # Keyed by rendering, the atom's identity: a str hashes faster than an Atom.
            number = {t: i for i, t in enumerate(texts)}
            self._table = RuleTable.numbered(
                texts, [[[number[a.text] for a in part] for part in (r.head, r.pos, r.neg)] for r in self._rules]
            )
        return self._table

    @property
    def rules(self) -> tuple[Rule, ...]:
        if self._rules is None:
            self._rules = _rules_of(self._table)
        return self._rules

    @property
    def base(self) -> frozenset[Atom]:
        if self._base is None:
            self._base = frozenset(self._table.atoms)
        return self._base

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"Program(rules={self.rules!r}, base={self.base!r})"

    @property
    def is_normal(self) -> bool:
        """Whether every head has at most one atom: constraints are normal."""
        return all(len(head) <= 1 for head, _, _ in self.table.rules)

    def render(self) -> str:
        if not self.rules:
            return ""
        return "\n".join(r.render() for r in self.rules) + "\n"


def render_program(p: Program) -> str:
    return p.render()
