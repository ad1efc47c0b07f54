"""Answer checks that do not go through the solver being timed.

Programs here are plain tuples ``(head, pos, neg)`` over hashable atoms, so
the checks share no code with ``aspunfold``'s own data model.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from typing import Hashable, Iterable, Sequence

NormalRule = tuple[Hashable, Sequence[Hashable], Sequence[Hashable]]


def least_model(rules: Iterable[tuple[Hashable, Sequence[Hashable]]]) -> set:
    """Least model of a positive normal program, by counting unmet body atoms."""
    rules = [(h, tuple(set(body))) for h, body in rules]
    watch: dict[Hashable, list[int]] = defaultdict(list)
    missing = []
    queue = []
    for i, (head, body) in enumerate(rules):
        missing.append(len(body))
        for b in body:
            watch[b].append(i)
        if not body:
            queue.append(head)
    model: set = set()
    while queue:
        a = queue.pop()
        if a in model:
            continue
        model.add(a)
        for i in watch[a]:
            missing[i] -= 1
            if missing[i] == 0:
                queue.append(rules[i][0])
    return model


def is_stable(rules: Iterable[NormalRule], true: Iterable[Hashable]) -> bool:
    """Whether ``true`` is the least model of the program's reduct by itself."""
    true = set(true)
    reduct = [(h, pos) for h, pos, neg in rules if not any(c in true for c in neg)]
    return least_model(reduct) == true


def potential(name: str) -> str:
    return "p__" + name


def partiality_translation(rules: Iterable[NormalRule]) -> list[NormalRule]:
    """The translation ``tr`` over atom names: each rule with its negative
    literals read on potential atoms, its fully potential copy with the
    original negative literals, and ``p__a :- a`` for every occurring atom."""
    out: list[NormalRule] = []
    atoms = set()
    for h, pos, neg in rules:
        out.append((h, tuple(pos), tuple(potential(c) for c in neg)))
        out.append((potential(h), tuple(potential(b) for b in pos), tuple(neg)))
        atoms.add(h)
        atoms.update(pos)
        atoms.update(neg)
    out.extend((potential(a), (a,), ()) for a in sorted(atoms))
    return out


def satisfies_clauses(
    model: Iterable[str], clauses: Iterable[tuple[Sequence[str], Sequence[str]]], specified: Iterable[str]
) -> bool:
    """Every clause ``pos or not neg`` holds and every specified atom is true."""
    model = set(model)
    return set(specified) <= model and all(
        any(a in model for a in pos) or any(a not in model for a in neg) for pos, neg in clauses
    )


def is_locally_minimal(model: Iterable[str], clauses: Iterable[tuple[Sequence[str], Sequence[str]]]) -> bool:
    """Whether making any one true atom false falsifies some clause: a
    necessary condition for a minimal model, cheap where minimality is not."""
    model = set(model)
    clauses = list(clauses)
    for a in model:
        rest = model - {a}
        if all(any(b in rest for b in pos) or any(b not in rest for b in neg) for pos, neg in clauses):
            return False
    return True


def is_qbf_witness(
    x_true: Iterable[str], y_vars: Sequence[str], terms: Iterable[Sequence[tuple[str, bool]]]
) -> bool:
    """Whether fixing the existential atoms ``x_true`` true (the rest false)
    makes some DNF term true under every assignment of the universal atoms."""
    terms = list(terms)
    for bits in range(1 << len(y_vars)):
        true = set(x_true) | {y for k, y in enumerate(y_vars) if bits >> k & 1}
        if not any(all((a in true) == positive for a, positive in t) for t in terms):
            return False
    return True


def psm_digest(models: Iterable[tuple[Iterable[str], Iterable[str]]]) -> str:
    """Order-free digest of a set of partial models given as (true, undefined) names."""
    rows = sorted([sorted(t), sorted(u)] for t, u in models)
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()[:16]
