"""Text format for ground programs: one rule per line, ``|`` heads, ``:-``,
comma-separated body, ``not`` for default negation, ``%`` comments.

A constraint ``:- body.`` is a rule with an empty head, and ``:- .``, with
nothing on either side, the constraint without a body, which no model
satisfies.  Reserved atom spellings are rejected unless ``allow_reserved``
is set (used to read back rendered transformation output).

The parser reads straight into the program's rule table, in three steps and
without building a ``Rule``: it splits every line at whitespace once its
punctuation is spaced out; it checks each distinct token once and numbers
the atoms in rendering order; and it walks each line once, emitting the
table's sorted, duplicate-free parts.  Only the walk raises errors, so the
first faulty line is the one named, whatever order the tokens were checked
in.  A line the walk rejects is tokenized again to place the error: an
unexpected character anywhere in the line comes first, then the walk's.
"""

from __future__ import annotations

import re
from typing import Iterator

from .syntax import (
    Atom,
    IntRule,
    Literal,
    Program,
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


def _atom(tok: str, allow_reserved: bool) -> Atom:
    """The atom ``tok`` spells; a ValueError holding the parse error if none."""
    if tok == "not":
        raise ValueError("'not' is a keyword, not an atom")
    if not allow_reserved and has_reserved_prefix(tok):
        raise ValueError(f"reserved prefix in atom {tok!r}")
    try:
        return parse_atom_text(tok) if allow_reserved else Atom(tok)
    except ValueError:
        raise ValueError(f"invalid atom {tok!r}") from None


class _Error(Exception):
    """A parse error (message, token index) in one line; the index of its
    end is the number of its tokens, and a message of None stands for the
    error of the token at the index."""


_PUNCTUATION = (":-", "|", ",", ".")
_NOT_HEAD_ATOM = frozenset(["", *_PUNCTUATION])
_NOT_BODY_ATOM = _NOT_HEAD_ATOM | {"not"}


def _part(numbers: list[int]) -> tuple[int, ...]:
    return tuple(sorted(set(numbers))) if len(numbers) > 1 else tuple(numbers)


def _walk(toks: list[str], ids: dict[str, int]) -> IntRule:
    """The rule a line's tokens spell over the atom numbers ``ids``."""
    end = len(toks)
    toks.append("")  # the end of the line
    i = 0
    head: list[int] = []
    if toks[0] != ":-":
        while True:
            n = ids.get(toks[i])
            if n is None:
                raise _Error("expected atom" if toks[i] in _NOT_HEAD_ATOM else None, i)
            head.append(n)
            i += 1
            if toks[i] != "|":
                break
            i += 1

    pos: list[int] = []
    neg: list[int] = []
    if toks[i] == ":-" and not head and toks[i + 1] == ".":
        i += 1  # ``:- .``, the constraint without a body
    elif toks[i] == ":-":
        i += 1
        while True:
            part = pos
            if toks[i] == "not":
                part = neg
                i += 1
            n = ids.get(toks[i])
            if n is None:
                raise _Error("expected body literal" if toks[i] in _NOT_BODY_ATOM else None, i)
            part.append(n)
            i += 1
            if toks[i] != ",":
                break
            i += 1

    if toks[i] != ".":
        raise _Error("expected '.'", i)
    if i + 1 != end:
        raise _Error("trailing input after '.'", i + 1)
    return _part(head), _part(pos), _part(neg)


def parse_program(text: str, allow_reserved: bool = False) -> Program:
    """The program a text spells, read straight into its rule table."""
    spaced = text
    for p in _PUNCTUATION:
        spaced = spaced.replace(p, f" {p} ")
    # A piece that is no token is no atom either, so the walk rejects its line.
    lines = [line.split("%", 1)[0].split() for line in spaced.splitlines()]
    checked: dict[str, Atom] = {}
    errors: dict[str, str] = {}
    for tok in set().union(*lines).difference(_PUNCTUATION):
        try:
            checked[tok] = _atom(tok, allow_reserved)
        except ValueError as exc:
            errors[tok] = str(exc)
    # Atoms are numbered in rendering order.
    texts = sorted(checked)
    ids = {t: n for n, t in enumerate(texts)}

    rules = []
    for lineno, toks in enumerate(lines, 1):
        if not toks:
            continue
        try:
            rules.append(_walk(toks, ids))
        except _Error as exc:
            message, i = exc.args
            # Spacing out punctuation adds no line break: the text's lines match.
            line = text.splitlines()[lineno - 1].split("%", 1)[0]
            # Tokenizing the line raises at its first unexpected character.
            cols = [col for _, col in _tokenize(line, lineno)]
            # An error at the end of the rule points just past its last character.
            col = cols[i] if i < len(cols) else len(line.rstrip()) + 1
            raise ParseError(message or errors[toks[i]], lineno, col) from None
    return Program.of_table([checked[t] for t in texts], rules)


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
