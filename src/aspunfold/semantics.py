"""Enumerative semantics: the stable and partial stable model checks and
enumerations behind ``--mode brute``, ``check`` and ``query --filter``, and
the partial interpretations they read and return.

Everything here is exact and enumerative, guarded by an atom cap (default 12);
exceeding the cap raises instead of truncating.  Interpretations are compiled
to bitmasks internally so the enumerations stay affordable at desk scale.  The
object-level definitions these masks decide (three-valued truth, reducts,
unfounded sets) are kept in ``tests/conftest.py`` as test references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .syntax import Atom, Program

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

    @property
    def undef_set(self) -> frozenset[Atom]:
        return self.base - self.true_set - self.false_set

    @property
    def is_total(self) -> bool:
        return not self.undef_set


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
    """p's table as masks: bit i is p's atom i."""
    atoms = list(p.atoms)
    rules = [
        (sum(1 << a for a in head), sum(1 << b for b in pos), sum(1 << c for c in neg))
        for head, pos, neg in p.rows
    ]
    return _Masks(atoms, {a: i for i, a in enumerate(atoms)}, rules, (1 << len(atoms)) - 1)


def _mask(ms: _Masks, atoms: Iterable[Atom]) -> int:
    """The mask of ``atoms``, which the caller has checked lie in the base."""
    return sum(1 << ms.index[a] for a in atoms)


def _atoms_of(ms: _Masks, mask: int) -> frozenset[Atom]:
    return frozenset(a for i, a in enumerate(ms.atoms) if mask >> i & 1)


def _conj_value(pos: int, t: int, f: int) -> int:
    if pos & f:
        return 0
    if pos & t == pos:
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
        body = min(_conj_value(b, t, f), const)
        if _disj_value(h, t, f) < body:
            return False
    return True


def _weaker_interps(t: int, f: int, full: int) -> Iterator[tuple[int, int]]:
    """All (t', f') strictly below (t, f) in the truth ordering: t' a subset
    of t, and f' the atoms of f plus any subset of the atoms outside both."""
    for t2 in _submasks(t):
        for extra in _submasks(full & ~t2 & ~f):
            if (t2, extra) != (t, 0):
                yield t2, f | extra


def _is_psm_masks(rrs: list[tuple[int, int, int]], t: int, f: int, full: int) -> bool:
    """Whether (t, f) is a partial stable model, given its three-valued
    reduct ``rrs``: a partial model of it with no weaker one."""
    if not _partial_model_of_reduct(rrs, t, f):
        return False
    return not any(_partial_model_of_reduct(rrs, t2, f2) for t2, f2 in _weaker_interps(t, f, full))


# ---------------------------------------------------------------------------
# Public oracle operations.

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
            if _is_psm_masks(_reduced_rules_masks(ms, t, f), t, f, ms.full):
                out.append(
                    PartialInterpretation(_atoms_of(ms, t), _atoms_of(ms, f), p.base)
                )
    return sorted(out, key=lambda m: (sorted(m.true_set), sorted(m.false_set)))


def check_total_stable(p: Program, n: PartialInterpretation, cap: int = DEFAULT_CAP) -> Optional[str]:
    """None if n is a stable model, otherwise the failed condition."""
    if not n.is_total:
        raise ValueError("expected a total interpretation")
    require_in_base(n.true_set, p.base, "model")
    ms = _compile(p)
    t = _mask(ms, n.true_set)
    reduct = [(h, b) for h, b, c in ms.rules if not c & t]
    if not _total_model_of(reduct, t):
        return "rule unsatisfied"
    _require_cap(len(n.true_set), cap, "stable-model minimality check")
    if not _minimal_model(reduct, t):
        return "not minimal model of reduct"
    return None


def is_stable_model(p: Program, n: PartialInterpretation, cap: int = DEFAULT_CAP) -> bool:
    return check_total_stable(p, n, cap) is None


def check_partial_stable(p: Program, m: PartialInterpretation, cap: int = DEFAULT_CAP) -> Optional[str]:
    """None if m is a partial stable model, otherwise the failed condition:
    m is no partial model of the three-valued reduct, or T is no minimal
    model of the GL reduct (the rules with every negative body atom in F,
    negation dropped), or else some weaker interpretation models the
    three-valued reduct."""
    _require_cap(len(p.base), cap, "partial-stable-model check")
    require_in_base(m.true_set | m.false_set, p.base, "model")
    ms = _compile(p)
    t, f = _mask(ms, m.true_set), _mask(ms, m.false_set)
    rrs = _reduced_rules_masks(ms, t, f)
    if not _partial_model_of_reduct(rrs, t, f):
        return "rule unsatisfied"
    if _is_psm_masks(rrs, t, f, ms.full):
        return None
    if not _minimal_model([(h, b) for h, b, c in ms.rules if c & f == c], t):
        return "not minimal model of reduct"
    return "unfounded-set condition violated"


def maximal_models(
    models: Sequence[PartialInterpretation], ordering: str = "truth"
) -> list[PartialInterpretation]:
    """The maximal elements of ``models`` under the chosen ordering, in input
    order.

    Each model is one mask: its true atoms, and its false atoms under the
    knowledge ordering (T and F grow) or its atoms not false under the truth
    ordering (T grows, F shrinks).  A model lies below another exactly when
    its mask is a subset of the other's, so one strictly below has fewer
    bits.  The models are visited by decreasing bit count, and each is
    compared only with the maxima kept so far: a dominated model lies below
    some maximal one, which has more bits and was kept before it.  When
    most models are maximal, as with independent choices under the truth
    ordering, the filter stays quadratic."""
    if ordering not in ("truth", "knowledge"):
        raise ValueError(f"unknown ordering {ordering!r}")
    atoms = sorted(frozenset().union(*(m.base for m in models)))
    bit = {a: 1 << i for i, a in enumerate(atoms)}
    full = (1 << len(atoms)) - 1
    masks = []
    for m in models:
        t, f = sum(bit[a] for a in m.true_set), sum(bit[a] for a in m.false_set)
        masks.append(t << len(atoms) | (f if ordering == "knowledge" else full ^ f))
    kept: list[int] = []
    keep = [False] * len(models)
    for i in sorted(range(len(models)), key=lambda i: -masks[i].bit_count()):
        v = masks[i]
        if not any(v != w and v | w == w for w in kept):
            kept.append(v)
            keep[i] = True
    return [m for m, k in zip(models, keep) if k]
