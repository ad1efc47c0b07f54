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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    return _known(_POTENTIAL + a.text)


def complement(a: Atom) -> Atom:
    return _known(_COMPLEMENT + a.text)


def support(a: Atom) -> Atom:
    return _known(_SUPPORT + a.text)


def base_atom(a: Atom) -> Atom:
    """The atom a mark was applied to; identity for plain/reserved atoms."""
    if a.text.startswith(_MARKS):
        return _known(a.text[3:])
    return a


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
_F_HEAD = frozenset([F_ATOM])  # the head of a desugared constraint


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

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)


@dataclass(frozen=True)
class Rule:
    """Disjunctive rule ``head <- pos, not neg`` with duplicate-free parts."""

    head: frozenset[Atom]
    pos: frozenset[Atom] = frozenset()
    neg: frozenset[Atom] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", frozenset(self.head))
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))
        if not self.head:
            raise ValueError("rule head must be nonempty")

    @property
    def is_normal(self) -> bool:
        return len(self.head) == 1

    @property
    def is_fact(self) -> bool:
        return not self.pos and not self.neg

    @property
    def atoms(self) -> frozenset[Atom]:
        return self.head | self.pos | self.neg

    def body_literals(self) -> Iterator[Literal]:
        for a in self.pos:
            yield Literal(a, True)
        for a in self.neg:
            yield Literal(a, False)

    def render(self) -> str:
        """The rule as the parser reads it.  A constraint ``__f :- not __f,
        body`` with a nonempty body renders as ``:- body.``, the text the
        parser desugars to it."""
        head = " | ".join(a.text for a in sorted(self.head))
        neg = self.neg
        if self.head == _F_HEAD and F_ATOM in neg and (self.pos or len(neg) > 1):
            head, neg = "", neg - _F_HEAD
        body = [a.text for a in sorted(self.pos)]
        body += [f"not {a.text}" for a in sorted(neg)]
        if not body:
            return f"{head}."
        return f"{head} :- {', '.join(body)}." if head else f":- {', '.join(body)}."


def occurring_atoms(rules: Iterable[Rule]) -> frozenset[Atom]:
    out: set[Atom] = set()
    for r in rules:
        out |= r.atoms
    return frozenset(out)


@dataclass(frozen=True)
class Program:
    """Ordered rule list over a Herbrand base.

    The base always contains every occurring atom; a larger base may be
    declared for programs whose interpretations range over extra atoms.
    """

    rules: tuple[Rule, ...]
    base: frozenset[Atom] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        declared = frozenset(self.base) if self.base is not None else frozenset()
        object.__setattr__(self, "base", occurring_atoms(self.rules) | declared)

    @property
    def is_normal(self) -> bool:
        return all(r.is_normal for r in self.rules)

    @property
    def is_positive(self) -> bool:
        return all(not r.neg for r in self.rules)

    def render(self) -> str:
        if not self.rules:
            return ""
        return "\n".join(r.render() for r in self.rules) + "\n"


def render_program(p: Program) -> str:
    return p.render()


def split_program(p: Program) -> tuple[Program, Program, frozenset[Atom]]:
    """Partition into normal and proper-disjunctive parts plus the latter's head atoms."""
    normal = tuple(r for r in p.rules if r.is_normal)
    disjunctive = tuple(r for r in p.rules if not r.is_normal)
    heads: set[Atom] = set()
    for r in disjunctive:
        heads |= r.head
    return (
        Program(normal, base=p.base),
        Program(disjunctive, base=p.base),
        frozenset(heads),
    )
