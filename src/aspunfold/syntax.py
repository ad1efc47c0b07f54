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

A ``Program`` is its rule table, the one program type: its atoms sorted by
rendering, and per rule a (head, positive body, negative body) triple of
sorted atom numbers, the head possibly disjunctive or empty: a constraint
``:- body`` is a rule with an empty head.  The parser and every
translation build such a table, and the solver and the oracles read it.
``Rule`` objects live only at the edges: they go in through
``Program(rules, base=...)``, which numbers them at once, and come out
through the ``Program.rules`` view.  Rendering reads the table.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Optional, Sequence

# Mark prefixes; all three characters long, so ``text[3:]`` strips one.
_POTENTIAL, _COMPLEMENT, _SUPPORT = "p__", "c__", "s__"
_MARKS = (_POTENTIAL, _COMPLEMENT, _SUPPORT)
_PLAIN_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_RESERVED_RE = re.compile(r"(?:__f|__u|cl__[0-9]+|ncl__[0-9]+)\Z")
_text = attrgetter("text")
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
    return bisect_left(atoms, _POTENTIAL, key=_text)


def complement_block(atoms: Sequence[Atom]) -> int:
    """As ``potential_block``, for complement marks."""
    return bisect_left(atoms, _COMPLEMENT, key=_text)


def support_block(atoms: Sequence[Atom]) -> int:
    """As ``potential_block``, for support marks."""
    return bisect_left(atoms, _SUPPORT, key=_text)


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
    constraint has an empty head.  The form in which a program's rules go
    in, through ``Program(rules, base)``, and come out, through
    ``Program.rules``."""

    head: frozenset[Atom]
    pos: frozenset[Atom] = frozenset()
    neg: frozenset[Atom] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", frozenset(self.head))
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))


# A rule over atom numbers: (head, positive body, negative body), each part a
# sorted tuple without duplicates.
IntRule = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def positions(sub: Sequence[Atom], atoms: Sequence[Atom]) -> list[int]:
    """The numbers in ``atoms`` of the atoms of ``sub``, both sorted by
    rendering and sub a subset of atoms: one merge, no hashing."""
    out, j = [], 0
    for a in sub:
        while atoms[j].text != a.text:
            j += 1
        out.append(j)
    return out


class Program:
    """Ordered rule list over a Herbrand base, stored as its rule table.

    Atom i is ``atoms[i]``, the atoms sorted by rendering, and each rule of
    ``rows`` is an ``IntRule`` over those numbers.  Numbers follow the
    atoms' order, so sorting numbers sorts atoms.  The base, every atom of
    ``atoms``, holds every occurring atom; a larger base may be declared for
    programs whose interpretations range over extra atoms.

    ``Program(rules, base=...)`` numbers the atoms of its ``Rule``s and of
    the base at once, with one sort of their renderings; the parser and
    every translation build the table directly, through ``of_table``.
    ``rules`` and ``base`` are views of the table for the edges, built on
    first read and cached.  Equality and hashing are those of the table.
    """

    atoms: tuple[Atom, ...]
    rows: tuple[IntRule, ...]

    def __init__(self, rules: Iterable[Rule], base: Optional[Iterable[Atom]] = None):
        rules = tuple(rules)
        atoms = set(base) if base is not None else set()
        for r in rules:
            atoms.update(r.head, r.pos, r.neg)
        self.atoms = tuple(sorted(atoms, key=_text))
        number = {a: i for i, a in enumerate(self.atoms)}
        self.rows = tuple(
            tuple(tuple(sorted([number[a] for a in part])) for part in (r.head, r.pos, r.neg)) for r in rules
        )

    @classmethod
    def of_table(cls, atoms: Iterable[Atom], rows: Iterable[IntRule]) -> "Program":
        """The program of ``rows`` over ``atoms``, distinct atoms sorted by
        rendering, each rule's parts sorted and duplicate-free."""
        p = cls.__new__(cls)
        p.atoms = tuple(atoms)
        p.rows = tuple(rows)
        return p

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        atoms = self.atoms
        return tuple(
            Rule(
                frozenset([atoms[a] for a in head]),
                frozenset([atoms[b] for b in pos]),
                frozenset([atoms[c] for c in neg]),
            )
            for head, pos, neg in self.rows
        )

    @cached_property
    def base(self) -> frozenset[Atom]:
        return frozenset(self.atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.atoms == other.atoms and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.atoms, self.rows))

    def __repr__(self) -> str:
        return f"Program(rules={self.rules!r}, base={self.base!r})"

    @property
    def is_normal(self) -> bool:
        """Whether every head has at most one atom: constraints are normal."""
        return all(len(head) <= 1 for head, _, _ in self.rows)

    def render(self) -> str:
        """One line per rule, as the parser reads it; a constraint without a
        body renders as ``:- .``"""
        texts = [a.text for a in self.atoms]
        lines = []
        for head, pos, neg in self.rows:
            h = " | ".join([texts[a] for a in head])
            body = ", ".join([*[texts[b] for b in pos], *[f"not {texts[c]}" for c in neg]])
            if not h:
                lines.append(f":- {body}.")
            else:
                lines.append(f"{h} :- {body}." if body else f"{h}.")
        return "".join(f"{line}\n" for line in lines)


def render_program(p: Program) -> str:
    return p.render()
