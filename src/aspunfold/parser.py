"""Text format for ground programs: one rule per line, ``|`` heads, ``:-``,
comma-separated body, ``not`` for default negation, ``%`` comments.

Constraints ``:- body.`` are desugared to ``__f :- not __f, body.`` so the
solver never sees empty heads.  Reserved atom spellings are rejected unless
``allow_reserved`` is set (used to read back rendered transformation output).
"""

from __future__ import annotations

import re
from typing import Iterator

from .syntax import (
    Atom,
    F_ATOM,
    Literal,
    Program,
    Rule,
    has_reserved_prefix,
    parse_atom_text,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


_TOKEN_RE = re.compile(r"\s*(:-|[|,.]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str, lineno: int) -> Iterator[tuple[str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                return
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", lineno, col)
        yield m.group(1), m.start(1) + 1
        pos = m.end()


def _atom_from_token(tok: str, lineno: int, col: int, allow_reserved: bool) -> Atom:
    if tok == "not":
        raise ParseError("'not' is a keyword, not an atom", lineno, col)
    if not allow_reserved and has_reserved_prefix(tok):
        raise ParseError(f"reserved prefix in atom {tok!r}", lineno, col)
    try:
        return parse_atom_text(tok) if allow_reserved else Atom(tok)
    except ValueError:
        raise ParseError(f"invalid atom {tok!r}", lineno, col)


def _parse_rule(line: str, lineno: int, allow_reserved: bool) -> Rule:
    toks = list(_tokenize(line, lineno))
    if not toks:
        raise ParseError("empty rule", lineno, 1)
    i = 0

    def peek() -> str:
        return toks[i][0] if i < len(toks) else ""

    head: list[Atom] = []
    if peek() != ":-":
        while True:
            tok, col = toks[i] if i < len(toks) else ("", len(line))
            if tok in {"", ".", ":-", "|", ","}:
                raise ParseError("expected atom", lineno, col)
            head.append(_atom_from_token(tok, lineno, col, allow_reserved))
            i += 1
            if peek() == "|":
                i += 1
                continue
            break

    pos: list[Atom] = []
    neg: list[Atom] = []
    if peek() == ":-":
        i += 1
        while True:
            negated = False
            if peek() == "not":
                negated = True
                i += 1
            tok, col = toks[i] if i < len(toks) else ("", len(line))
            if tok in {"", ".", ":-", "|", ",", "not"}:
                raise ParseError("expected body literal", lineno, col)
            a = _atom_from_token(tok, lineno, col, allow_reserved)
            (neg if negated else pos).append(a)
            i += 1
            if peek() == ",":
                i += 1
                continue
            break

    tok, col = toks[i] if i < len(toks) else ("", len(line))
    if tok != ".":
        raise ParseError("expected '.'", lineno, col)
    i += 1
    if i != len(toks):
        raise ParseError("trailing input after '.'", lineno, toks[i][1])

    if not head:
        if not pos and not neg:
            raise ParseError("empty rule", lineno, 1)
        head = [F_ATOM]
        neg.append(F_ATOM)
    return Rule(frozenset(head), frozenset(pos), frozenset(neg))


def parse_program(text: str, allow_reserved: bool = False) -> Program:
    rules = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%", 1)[0]
        if not line.strip():
            continue
        rules.append(_parse_rule(line, lineno, allow_reserved))
    return Program(tuple(rules))


def parse_literals(text: str, allow_reserved: bool = False) -> tuple[Literal, ...]:
    """Comma-separated literal list, e.g. ``a, not b``."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ParseError(f"empty literal in {text!r}")
        negated = False
        if part.startswith("not") and (len(part) == 3 or part[3].isspace()):
            negated = True
            part = part[3:].strip()
            if not part:
                raise ParseError(f"missing atom after 'not' in {text!r}")
        try:
            atom = parse_atom_text(part) if allow_reserved else Atom(part)
        except ValueError as exc:
            raise ParseError(str(exc))
        out.append(Literal(atom, not negated))
    return tuple(out)


def parse_atom_set(text: str, allow_reserved: bool = False) -> frozenset[Atom]:
    """Whitespace-separated atom list, e.g. ``a b``; empty text is the empty set."""
    atoms = set()
    for tok in text.split():
        try:
            atoms.add(parse_atom_text(tok) if allow_reserved else Atom(tok))
        except ValueError as exc:
            raise ParseError(str(exc))
    return frozenset(atoms)
