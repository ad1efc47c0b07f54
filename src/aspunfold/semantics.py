"""Enumerative semantics: the stable and partial stable model checks and
enumerations behind ``--mode brute``, ``check`` and ``query --filter``, and
the partial interpretations they read and return.

Everything here is exact and enumerative, guarded by an atom cap (default 12);
exceeding the cap raises instead of truncating.  Interpretations are compiled
to bitmasks internally so the enumerations stay affordable at desk scale.  The
object-level definitions these masks decide (reducts, unfounded sets) are kept
in ``tests/conftest.py`` as test references.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .syntax import Atom, Literal, Program

DEFAULT_CAP = 12


class CapExceededError(RuntimeError):
    pass


class UnknownAtomError(ValueError):
    pass


def require_in_base(atoms: Iterable[Atom], base: frozenset[Atom], role: str) -> None:
    """The check that every atom a user names (in a model or a query, the
    `role`) is in the program base; the error names the least one outside."""
    unknown = frozenset(atoms) - base
    if unknown:
        raise UnknownAtomError(f"{role} atom {min(unknown).text} not in program base")


def _require_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapExceededError(f"{what}: {n} atoms exceeds enumeration cap {cap}")


class TruthValue(enum.IntEnum):
    FALSE = 0
    UNDEF = 1
    TRUE = 2

    @property
    def symbol(self) -> str:
        return {0: "f", 1: "u", 2: "t"}[int(self)]


@dataclass(frozen=True)
class PartialInterpretation:
    """Disjoint true/false atom sets over a Herbrand base; the rest is undefined."""

    true_set: frozenset[Atom]
    false_set: frozenset[Atom]
    base: frozenset[Atom]

    def __post_init__(self) -> None:
        object.__setattr__(self, "true_set", frozenset(self.true_set))
        object.__setattr__(self, "false_set", frozenset(self.false_set))
        object.__setattr__(self, "base", frozenset(self.base))
        if self.true_set & self.false_set:
            raise ValueError("true_set and false_set must be disjoint")
        if not (self.true_set | self.false_set) <= self.base:
            raise ValueError("true_set and false_set must be subsets of the base")

    @classmethod
    def total(cls, true_atoms: Iterable[Atom], base: Iterable[Atom]) -> "PartialInterpretation":
        t = frozenset(true_atoms)
        b = frozenset(base)
        return cls(t, b - t, b)

    @classmethod
    def empty(cls, base: Iterable[Atom]) -> "PartialInterpretation":
        return cls(frozenset(), frozenset(), frozenset(base))

    @property
    def undef_set(self) -> frozenset[Atom]:
        return self.base - self.true_set - self.false_set

    @property
    def is_total(self) -> bool:
        return not self.undef_set

    def value(self, atom: Atom) -> TruthValue:
        if atom not in self.base:
            raise UnknownAtomError(f"atom {atom.text} not in base")
        if atom in self.true_set:
            return TruthValue.TRUE
        if atom in self.false_set:
            return TruthValue.FALSE
        return TruthValue.UNDEF

    def literal_value(self, lit: Literal) -> TruthValue:
        v = self.value(lit.atom)
        return v if lit.positive else TruthValue(2 - int(v))

    def leq_truth(self, other: "PartialInterpretation") -> bool:
        """M1 <= M2 iff T1 <= T2 and F1 >= F2."""
        return self.true_set <= other.true_set and self.false_set >= other.false_set

    def lt_truth(self, other: "PartialInterpretation") -> bool:
        return self.leq_truth(other) and self != other

    def leq_knowledge(self, other: "PartialInterpretation") -> bool:
        """Componentwise inclusion: T1 <= T2 and F1 <= F2."""
        return self.true_set <= other.true_set and self.false_set <= other.false_set


def eval_conj(i: PartialInterpretation, literals: Iterable[Literal]) -> TruthValue:
    v = TruthValue.TRUE
    for lit in literals:
        v = min(v, i.literal_value(lit))
    return v


# ---------------------------------------------------------------------------
# Bitmask internals.  Atom order is the sorted rendering order, so every
# enumeration below is deterministic.

@dataclass
class _Masks:
    atoms: list[Atom]
    index: dict[Atom, int]
    rules: list[tuple[int, int, int]]  # (head, pos, neg) masks
    full: int


def _compile(p: Program) -> _Masks:
    """p's table as masks: bit i is the table's atom i."""
    table = p.table
    atoms = list(table.atoms)
    rules = [
        (sum(1 << a for a in head), sum(1 << b for b in pos), sum(1 << c for c in neg))
        for head, pos, neg in table.rules
    ]
    return _Masks(atoms, {a: i for i, a in enumerate(atoms)}, rules, (1 << len(atoms)) - 1)


def _mask(ms: _Masks, atoms: Iterable[Atom]) -> int:
    m = 0
    for a in atoms:
        try:
            m |= 1 << ms.index[a]
        except KeyError:
            raise UnknownAtomError(f"atom {a.text} not in base")
    return m


def _atoms_of(ms: _Masks, mask: int) -> frozenset[Atom]:
    return frozenset(a for i, a in enumerate(ms.atoms) if mask >> i & 1)


def _conj_value(pos: int, neg: int, t: int, f: int) -> int:
    if pos & f or neg & t:
        return 0
    if pos & t == pos and neg & f == neg:
        return 2
    return 1


def _disj_value(head: int, t: int, f: int) -> int:
    if head & t:
        return 2
    if head & f == head:
        return 0
    return 1


def _submasks(m: int) -> Iterator[int]:
    """All submasks of m, descending, m itself first and 0 last."""
    sub = m
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & m


def _total_model_of(rules: list[tuple[int, int]], t: int) -> bool:
    for h, b in rules:
        if b & t == b and not h & t:
            return False
    return True


def _minimal_model(rules: list[tuple[int, int]], t: int) -> bool:
    """Whether t is a subset-minimal model of the positive rules (head, body)."""
    if not _total_model_of(rules, t):
        return False
    return all(sub == t or not _total_model_of(rules, sub) for sub in _submasks(t))


def _is_stable_masks(ms: _Masks, t: int) -> bool:
    return _minimal_model([(h, b) for h, b, n in ms.rules if not n & t], t)


def _reduced_rules_masks(ms: _Masks, t: int, f: int) -> list[tuple[int, int, int]]:
    out = []
    for h, b, n in ms.rules:
        if n & t:
            const = 0
        elif n & f == n:
            const = 2
        else:
            const = 1
        out.append((h, b, const))
    return out


def _partial_model_of_reduct(rrs: list[tuple[int, int, int]], t: int, f: int) -> bool:
    for h, b, const in rrs:
        body = min(_conj_value(b, 0, t, f), const)
        if _disj_value(h, t, f) < body:
            return False
    return True


def _weaker_interps(t: int, f: int, full: int) -> Iterator[tuple[int, int]]:
    """All (t', f') strictly below (t, f) in the truth ordering."""
    bits = [1 << i for i in range(full.bit_length()) if full >> i & 1]
    # per-atom options as (t-bit, f-bit) contributions
    options = []
    for bit in bits:
        if bit & t:
            options.append(((bit, 0), (0, bit), (0, 0)))
        elif bit & f:
            options.append(((0, bit),))
        else:
            options.append(((0, bit), (0, 0)))
    # one option per atom, the first atom's varying slowest; no recursion,
    # so the depth does not grow with the atoms
    for choice in product(*options):
        ct = cf = 0
        for dt, df in choice:
            ct |= dt
            cf |= df
        if (ct, cf) != (t, f):
            yield ct, cf


def _is_psm_masks(ms: _Masks, t: int, f: int) -> bool:
    rrs = _reduced_rules_masks(ms, t, f)
    if not _partial_model_of_reduct(rrs, t, f):
        return False
    for t2, f2 in _weaker_interps(t, f, ms.full):
        if _partial_model_of_reduct(rrs, t2, f2):
            return False
    return True


# ---------------------------------------------------------------------------
# Public oracle operations.

def is_stable_model(p: Program, n: PartialInterpretation, cap: int = DEFAULT_CAP) -> bool:
    if not n.is_total:
        raise ValueError("stable-model check requires a total interpretation")
    _require_cap(len(n.true_set), cap, "stable-model minimality check")
    ms = _compile(p)
    return _is_stable_masks(ms, _mask(ms, n.true_set))


def enumerate_stable_models(p: Program, cap: int = DEFAULT_CAP) -> list[frozenset[Atom]]:
    _require_cap(len(p.base), cap, "stable-model enumeration")
    ms = _compile(p)
    out = []
    for t in range(ms.full + 1):
        if _is_stable_masks(ms, t):
            out.append(_atoms_of(ms, t))
    return sorted(out, key=sorted)


def enumerate_partial_stable_models(p: Program, cap: int = DEFAULT_CAP) -> list[PartialInterpretation]:
    _require_cap(len(p.base), cap, "partial-stable-model enumeration")
    ms = _compile(p)
    out = []
    for t in range(ms.full + 1):
        rest = ms.full & ~t
        for f in _submasks(rest):
            if _is_psm_masks(ms, t, f):
                out.append(
                    PartialInterpretation(_atoms_of(ms, t), _atoms_of(ms, f), p.base)
                )
    return sorted(out, key=lambda m: (sorted(m.true_set), sorted(m.false_set)))


def check_total_stable(p: Program, n: PartialInterpretation, cap: int = DEFAULT_CAP) -> Optional[str]:
    """None if n is a stable model, otherwise the failed condition."""
    if not n.is_total:
        raise ValueError("expected a total interpretation")
    ms = _compile(p)
    t = _mask(ms, n.true_set)
    reduct = [(h, b) for h, b, c in ms.rules if not c & t]
    if not _total_model_of(reduct, t):
        return "rule unsatisfied"
    _require_cap(len(n.true_set), cap, "stable-model minimality check")
    if not _minimal_model(reduct, t):
        return "not minimal model of reduct"
    return None


def check_partial_stable(p: Program, m: PartialInterpretation, cap: int = DEFAULT_CAP) -> Optional[str]:
    """None if m is a partial stable model, otherwise the failed condition:
    m is no partial model of the three-valued reduct, or T is no minimal
    model of the GL reduct (the rules with every negative body atom in F,
    negation dropped), or else some weaker interpretation models the
    three-valued reduct."""
    _require_cap(len(p.base), cap, "partial-stable-model check")
    ms = _compile(p)
    t, f = _mask(ms, m.true_set), _mask(ms, m.false_set)
    if not _partial_model_of_reduct(_reduced_rules_masks(ms, t, f), t, f):
        return "rule unsatisfied"
    if _is_psm_masks(ms, t, f):
        return None
    if not _minimal_model([(h, b) for h, b, c in ms.rules if c & f == c], t):
        return "not minimal model of reduct"
    return "unfounded-set condition violated"


def maximal_models(
    models: Sequence[PartialInterpretation], ordering: str = "truth"
) -> list[PartialInterpretation]:
    """Filter to the maximal elements under the chosen ordering."""
    if ordering == "truth":
        dominated = lambda a, b: a.lt_truth(b)
    elif ordering == "knowledge":
        dominated = lambda a, b: a.leq_knowledge(b) and a != b
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return [m for m in models if not any(dominated(m, other) for other in models)]

