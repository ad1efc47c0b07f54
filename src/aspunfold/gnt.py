"""Generate-and-test driver: search stable models of a generator program and
certify each covered candidate by showing its tester has no stable model.

The search mirrors the two-engine layout.  The generator is a ``Solver`` that
runs the solver's own search and overrides its two hooks: ``_accept`` runs the
minimality test on each covered candidate, and ``_prune`` runs the early test
on each positive branch.  The whole loop runs on the generator's atom
numbers: the construction that built the generator lifted the input's rules
over them once, and the generator (a ``GeneratorTable``) keeps them with
the numbers of the input's atoms.  A candidate is read from the
generator's assignment over those numbers.

The generator derives its own testers: ``test_program`` returns it as it
is, once, when the search is set up.  Every generator holds the complement
marks of the input's disjunctive head atoms, so there is one lift.  One
function, ``minimal_test``, runs each test whole.  It derives the
candidate's tester from the generator: a program over the atoms the
candidate leaves open, with the generator's numbers of its atoms.  An
ordinary ``Solver`` searches it, and the search is closed after the first
answer.  The test and the tester's search are counted, and a failed test
teaches the generator at once the candidate's atoms that the tester model
makes false, read through those numbers: the set U below.  The atoms a
fact of the reduct fixes are true in every tester model.  Nothing
outlives the test.

Early tests are gated by a per-search WasCovered flag: set when a candidate
is covered, cleared by the next early test that does not prune.  An early
test reads the current true atoms T as a candidate.  When it fails, it
prunes the branch only if the set it teaches (below) fires at once, and
leaves the flag set, so the test repeats at each backtracking level until
one does not prune.  ``early_test="off"`` disables early testing entirely
and never changes the result, only the statistics.

Every failed test, final or early, on true atoms T with tester model N
teaches the search the set U = T - N, the atoms of T that N makes false.  U
is an unfounded set of the input with respect to T (Leone, Rullo and
Scarcello 1997): every input rule with a head atom in U has a positive body
atom in U, a body false in T, or a head atom outside U true in T.  The
search keeps U with its external support: the input rules with a head atom
in U and no positive body atom in U, each as its head atoms outside U and
its body.  Such a rule is blocked when a positive body atom is false, a
negative body atom is true, or a head atom outside U is true.  U fires on an
assignment that makes an atom of U true and blocks every rule of its
external support.  A fired U prunes the branch in ``_prune``, before the
early test, and rejects a covered candidate in ``_accept``, without a test.

This loses no stable model, whatever U is and at whatever node it fires.
Let a stable model S extend the assignment.  Blocking only grows as an
assignment is extended, so every rule of U's external support is blocked
in S, and every other rule with a head atom in U has a positive body atom
in U.  So U is unfounded with respect to S, and it meets S in the atom of
U that the assignment makes true.  A stable model is unfounded-free, so no
such S exists.  An early prune is the set just taught firing, so the same
argument covers it, and the argument needs no WasCovered flag: a learned
prune leaves the flag as it is, as an early prune does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .gentest import GeneratorTable, gen_basic, gen_naive, gen_program, test_program
from .semantics import DEFAULT_CAP, enumerate_stable_models
from .solver import FALSE, TRUE, Solver, SolverStats
from .syntax import Atom, IntRule, Program

_GENERATORS = {"gnt1": gen_basic, "gnt2": gen_program, "naive": gen_naive}

MODES = (*_GENERATORS, "brute")


@dataclass
class GntStats:
    candidates_covered: int = 0
    minimal_tests: int = 0
    early_prunes: int = 0
    learned_sets: int = 0
    learned_prunes: int = 0  # branches pruned and candidates rejected by a learned set


@dataclass
class GntConfig:
    early_test: str = "on"  # on | off

    def __post_init__(self) -> None:
        if self.early_test not in ("on", "off"):
            raise ValueError(f"unknown early-test policy {self.early_test!r}")


@dataclass
class SolveResult:
    models: list[frozenset[Atom]]
    stats: Optional[GntStats]  # None exactly when the driver did not run
    solver_stats: SolverStats


def minimal_test(generator: _Generator, candidate: list[int]) -> bool:
    """Whether the candidate, the true atoms of an assignment restricted to
    the input's base (undefined taken false), as atom numbers ascending, is
    minimal: its tester, derived from the generator's testers, has no
    stable model.  Counts the test and the tester's search in the
    generator's statistics; a failed test teaches the generator the
    candidate's atoms that the tester model makes false."""
    program, numbers = generator.testers.tester(candidate)
    solver = Solver(program)
    search = solver.models()
    found = next(search, None) is not None
    # Closed at once, so a suspended search outlives no test.
    search.close()
    generator.gnt_stats.minimal_tests += 1
    generator.tester_stats.merge(solver.stats)
    if found:
        # The tester's atoms false in its model; the candidate's others,
        # the fixed atoms among them, are true.
        false = {a for a, v in zip(numbers, solver.val) if v == FALSE}
        generator._learn([a for a in candidate if a in false])
    return not found


class _Generator(Solver):
    """The generator's search, with the minimality test on covered candidates,
    the gated early test on positive branches, and the sets learned from
    failed tests pruning both.  It holds what ``minimal_test`` reads and
    writes: its testers, ``test_program`` of its table taken once, the
    counts of the tests and of the testers' searches, and the learned
    sets."""

    def __init__(self, g: GeneratorTable, config: GntConfig):
        super().__init__(g)
        self.config = config
        self.gnt_stats = GntStats()
        self.tester_stats = SolverStats()
        self.testers = test_program(g)
        self.was_covered = False
        # per learned set: its atoms, and its external support as
        # (head atoms outside the set, positive body, negative body)
        self.learned: list[tuple[tuple[int, ...], list[IntRule]]] = []
        # the input rules by head atom, keyed by the input's atoms, at the
        # first failed test
        self._heads: Optional[dict[int, list[IntRule]]] = None

    def _minimal(self) -> bool:
        val = self.val
        return minimal_test(self, [a for a in self.program.lift if val[a] == TRUE])

    def _learn(self, u: list[int]) -> None:
        """Keep the unfounded set u of a failed test, atom numbers ascending,
        with its external support."""
        if self._heads is None:
            self._heads = {a: [] for a in self.program.lift}
            for rule in self.program.inputs:
                for h in rule[0]:
                    self._heads[h].append(rule)
        inside = set(u)
        support = dict.fromkeys(
            rule for a in u for rule in self._heads[a] if inside.isdisjoint(rule[1])
        )
        outside = [(tuple([h for h in head if h not in inside]), pos, neg) for head, pos, neg in support]
        self.learned.append((tuple(u), outside))
        self.gnt_stats.learned_sets += 1

    def _fires(self, atoms: tuple[int, ...], support: list[IntRule]) -> bool:
        """Whether a learned set fires: an atom of it is true and every rule
        of its external support is blocked."""
        val = self.val
        return any(val[a] == TRUE for a in atoms) and all(
            any(val[h] == TRUE for h in head)
            or any(val[b] == FALSE for b in pos)
            or any(val[c] == TRUE for c in neg)
            for head, pos, neg in support
        )

    def _refuted(self) -> bool:
        """Whether a learned set fires on the current assignment."""
        for learned in self.learned:
            if self._fires(*learned):
                self.gnt_stats.learned_prunes += 1
                return True
        return False

    def _accept(self) -> bool:
        self.was_covered = True
        self.gnt_stats.candidates_covered += 1
        if self.learned and self._refuted():
            return False
        return self._minimal()

    def _prune(self) -> bool:
        if self.learned and self._refuted():
            return True
        if (
            self.was_covered
            and self.config.early_test == "on"
            and not self._minimal()
            and self._fires(*self.learned[-1])
        ):
            self.gnt_stats.early_prunes += 1
            return True
        self.was_covered = False
        return False


def _drain(solver: Solver, base: frozenset[Atom], enumerate_all: bool) -> list[frozenset[Atom]]:
    """The first model of the solver's search, or every model, each
    restricted to base, sorted."""
    search = solver.models()
    models = [n & base for n in islice(search, None if enumerate_all else 1)]
    # A suspended search and its solver refer to each other; closing the
    # search frees both on return, not at the next cycle collection.
    search.close()
    # Renderings sort as their atoms do, without a Python call per comparison.
    models.sort(key=lambda m: sorted([a.text for a in m]))
    return models


def solve_disjunctive(
    p: Program,
    mode: str = "gnt2",
    enumerate_all: bool = False,
    config: Optional[GntConfig] = None,
) -> SolveResult:
    """Stable models of p from the generate-and-test driver over the
    generator that `mode` names, sorted.

    Distinct generator models project to distinct models of p, so the
    driver yields no model twice.  Every atom a generator adds is defined by
    input atoms alone: ``c__a`` by ``c__a :- not a`` and ``s__a`` by rules
    whose bodies hold input atoms only.  So a generator model is fixed by
    its input atoms."""
    if mode not in _GENERATORS:
        raise ValueError(f"unknown mode {mode!r}")
    generator = _Generator(_GENERATORS[mode](p), config or GntConfig())
    models = _drain(generator, p.base, enumerate_all)
    solver_stats = SolverStats()
    solver_stats.merge(generator.stats)
    solver_stats.merge(generator.tester_stats)
    return SolveResult(models, generator.gnt_stats, solver_stats)


def solve(
    p: Program,
    mode: str = "gnt2",
    enumerate_all: bool = False,
    config: Optional[GntConfig] = None,
    cap: int = DEFAULT_CAP,
) -> SolveResult:
    """Stable models of p from the one engine that fits it, the one place
    an engine is chosen: the enumeration oracle under ``brute``, capped at
    `cap` atoms, a plain ``Solver`` when p is normal, and otherwise
    ``solve_disjunctive``, the driver.  The solver and the driver drain
    their searches alike (``_drain``): the first model or every model,
    restricted to p's base and sorted, and the search closed.  ``stats`` is
    None exactly when the driver did not run."""
    if mode == "brute":
        models = enumerate_stable_models(p, cap)
        return SolveResult(models if enumerate_all else models[:1], None, SolverStats())
    if p.is_normal and mode in _GENERATORS:
        solver = Solver(p)
        return SolveResult(_drain(solver, p.base, enumerate_all), None, solver.stats)
    return solve_disjunctive(p, mode, enumerate_all, config)
