"""Seeded random benchmark instances: minimal-model 3-SAT programs and
2,exists-QBFs under the two generation schemes.

All randomness flows through ``random.Random(seed)`` (Mersenne Twister), so a
seed pins the instance exactly.  Clauses and terms are sampled with
replacement across the instance (duplicates permitted) with distinct
variables inside each clause or term.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional

from .qbf import Qbf2E
from .syntax import Atom, Literal, Program


@dataclass(frozen=True)
class Clause:
    """Disjunction of positive atoms `pos` and negated atoms `neg`."""

    pos: frozenset[Atom]
    neg: frozenset[Atom] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))

    @property
    def atoms(self) -> frozenset[Atom]:
        return self.pos | self.neg


@dataclass(frozen=True)
class D3SatInstance:
    program: Program
    clauses: tuple[Clause, ...]
    specified: frozenset[Atom]


def mm_encode(clauses: Iterable[Clause], specified: Iterable[Atom]) -> Program:
    """Minimal-model encoding: clauses become disjunctive rules, all-negative
    clauses become constraints, each specified atom must be true.  Built as
    the program's rule table over the atoms that occur, in sorted order."""
    clauses, specified = list(clauses), sorted(specified)
    atoms = sorted({a for c in clauses for a in c.atoms}.union(specified), key=attrgetter("text"))
    number = {a: i for i, a in enumerate(atoms)}

    def part(xs: frozenset[Atom]) -> tuple[int, ...]:
        return tuple(sorted([number[a] for a in xs]))

    rules = [(part(c.pos), part(c.neg), ()) for c in clauses]
    rules += [((), (), (number[a],)) for a in specified]
    return Program.of_table(atoms, rules)


def gen_random_3sat_clauses(n: int, ratio: float, rng: random.Random) -> list[Clause]:
    if n < 3:
        raise ValueError("need at least 3 atoms for 3-SAT clauses")
    if not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be positive and finite, got {ratio}")
    atoms = [Atom(f"a{i}") for i in range(1, n + 1)]
    clauses = []
    for _ in range(math.floor(ratio * n)):
        picked = rng.sample(atoms, 3)
        pos, neg = set(), set()
        for a in picked:
            (pos if rng.random() < 0.5 else neg).add(a)
        clauses.append(Clause(frozenset(pos), frozenset(neg)))
    return clauses


def gen_d3sat_instance(
    n: int, ratio: float, seed: int, specified_count: Optional[int] = None
) -> D3SatInstance:
    """Random disjunctive 3-SAT program; specified-atom count defaults to
    floor(2n/100)."""
    rng = random.Random(seed)
    clauses = gen_random_3sat_clauses(n, ratio, rng)
    atoms = [Atom(f"a{i}") for i in range(1, n + 1)]
    k = (2 * n) // 100 if specified_count is None else specified_count
    specified = frozenset(rng.sample(atoms, k))
    return D3SatInstance(mm_encode(clauses, specified), tuple(clauses), specified)


def gen_random_qbf(v: int, scheme: str, seed: int) -> Qbf2E:
    """Random 2,exists-QBF over v variables split evenly between X and Y.

    gw: 2v terms of 5 distinct-variable literals, resampled until at least
    two literals are universal.  sqrt: floor(sqrt(v/2)) terms of 3 literals,
    unconstrained.
    """
    rng = random.Random(seed)
    if scheme == "gw":
        if v % 2:
            raise ValueError("gw scheme needs an even variable count")
        if v < 5:
            raise ValueError("gw scheme needs at least 5 variables for 5-literal terms")
        d, width, need_universal = 2 * v, 5, 2
    elif scheme == "sqrt":
        if v < 3:
            raise ValueError("sqrt scheme needs at least 3 variables for 3-literal terms")
        d, width, need_universal = math.isqrt(v // 2), 3, 0
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    # An even v of at least 6 under gw leaves Y at least 3 variables, enough
    # for the 2 universal literals each term needs.
    nx = (v + 1) // 2
    x_vars = tuple(Atom(f"x{i}") for i in range(1, nx + 1))
    y_vars = tuple(Atom(f"y{i}") for i in range(1, v - nx + 1))
    universe = list(x_vars + y_vars)
    y_set = set(y_vars)

    terms = []
    for _ in range(d):
        while True:
            picked = rng.sample(universe, width)
            term = frozenset(Literal(a, rng.random() < 0.5) for a in picked)
            if sum(1 for l in term if l.atom in y_set) >= need_universal:
                break
        terms.append(term)
    return Qbf2E(x_vars, y_vars, tuple(terms))
