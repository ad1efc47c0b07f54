"""Text format for ground programs: one rule per line, ``|`` heads, ``:-``,
comma-separated body, ``not`` for default negation, ``%`` comments.

Constraints ``:- body.`` are desugared to ``__f :- not __f, body.`` so the
solver never sees empty heads.  Reserved atom spellings are rejected unless
``allow_reserved`` is set (used to read back rendered transformation output).

The parser reads straight into the program's rule table: each distinct
token is checked once, at its first occurrence, and numbered, and no
``Rule`` is built.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from .syntax import (
    Atom,
    F_ATOM,
    Literal,
    Program,
    RuleTable,
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


def _tokens(line: str, lineno: int) -> list[str]:
    """The tokens of a line; ParseError at its first unexpected character."""
    toks = _TOKEN_RE.findall(line)
    # findall skips what no token matches, so the tokens cover every
    # non-blank character exactly when there is no unexpected one.
    if len("".join(toks)) != len("".join(line.split())):
        toks = [tok for tok, _ in _tokenize(line, lineno)]
    return toks


def _token_error(tok: str, allow_reserved: bool) -> Optional[str]:
    """Why ``tok`` spells no atom, or None if it spells one."""
    if tok == "not":
        return "'not' is a keyword, not an atom"
    if not allow_reserved and has_reserved_prefix(tok):
        return f"reserved prefix in atom {tok!r}"
    try:
        parse_atom_text(tok) if allow_reserved else Atom(tok)
    except ValueError:
        return f"invalid atom {tok!r}"
    return None


class _Error(Exception):
    """A parse error (message, token index) in one line; the index of its
    end is the number of its tokens."""


_NOT_HEAD_ATOM = frozenset(["", ".", ":-", "|", ","])
_NOT_BODY_ATOM = _NOT_HEAD_ATOM | {"not"}


class _Reader:
    """Reads rules as atom numbers: each distinct token is checked and
    numbered at its first occurrence, and ``texts`` holds the renderings in
    that order."""

    def __init__(self, allow_reserved: bool):
        self.allow_reserved = allow_reserved
        self.texts: list[str] = []
        self.ids: dict[str, int] = {}
        # The number of __f while it is known only from desugared
        # constraints: read from input, that spelling must still be checked.
        self.unchecked = -1

    def atom(self, tok: str, i: int) -> int:
        n = self.ids.get(tok)
        if n is None or n == self.unchecked:
            error = _token_error(tok, self.allow_reserved)
            if error:
                raise _Error(error, i)
            if n is None:
                n = self.ids[tok] = len(self.texts)
                self.texts.append(tok)
            else:
                self.unchecked = -1
        return n

    def f_atom(self) -> int:
        n = self.ids.get(F_ATOM.text)
        if n is None:
            n = self.ids[F_ATOM.text] = self.unchecked = len(self.texts)
            self.texts.append(F_ATOM.text)
        return n

    def rule(self, line: str, lineno: int) -> tuple[list[int], list[int], list[int]]:
        toks = _tokens(line, lineno)
        if not toks:
            raise ParseError("empty rule", lineno, 1)
        try:
            return self._walk(toks)
        except _Error as exc:
            message, i = exc.args
            cols = [col for _, col in _tokenize(line, lineno)]
            # An error at the end of the rule points just past its last character.
            col = cols[i] if i < len(cols) else len(line.rstrip()) + 1
            raise ParseError(message, lineno, col) from None

    def _walk(self, toks: list[str]) -> tuple[list[int], list[int], list[int]]:
        end = len(toks)
        toks.append("")  # the end of the line
        i = 0
        head: list[int] = []
        if toks[0] != ":-":
            while True:
                if toks[i] in _NOT_HEAD_ATOM:
                    raise _Error("expected atom", i)
                head.append(self.atom(toks[i], i))
                i += 1
                if toks[i] != "|":
                    break
                i += 1

        pos: list[int] = []
        neg: list[int] = []
        if toks[i] == ":-":
            i += 1
            while True:
                negated = toks[i] == "not"
                if negated:
                    i += 1
                if toks[i] in _NOT_BODY_ATOM:
                    raise _Error("expected body literal", i)
                (neg if negated else pos).append(self.atom(toks[i], i))
                i += 1
                if toks[i] != ",":
                    break
                i += 1

        if toks[i] != ".":
            raise _Error("expected '.'", i)
        if i + 1 != end:
            raise _Error("trailing input after '.'", i + 1)

        if not head:
            if not pos and not neg:
                raise _Error("empty rule", 0)
            f = self.f_atom()
            head.append(f)
            neg.append(f)
        return head, pos, neg


def parse_program(text: str, allow_reserved: bool = False) -> Program:
    """The program a text spells, read straight into its rule table."""
    reader = _Reader(allow_reserved)
    rules = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%", 1)[0]
        if not line.strip():
            continue
        rules.append(reader.rule(line, lineno))
    return Program.of_table(RuleTable.numbered(reader.texts, rules))


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
