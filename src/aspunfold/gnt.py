"""Generate-and-test driver: search stable models of a generator program and
certify each covered candidate by showing its tester has no stable model.

The search mirrors the two-engine layout.  The generator is a ``Solver`` that
runs the solver's own search and overrides its two hooks: ``_accept`` runs the
minimality test on each covered candidate, and ``_prune`` runs the early test
on each positive branch.

At the first minimality test of a search, ``test_program`` compiles every
rule a tester of the input can hold, once.  Each test derives the
candidate's tester from it, as a rule table, and searches it with an
ordinary ``Solver``, closing the search after the first answer.  Nothing
outlives the search.

Early tests are gated by a per-search WasCovered flag: set when a candidate
is covered, cleared by the next early test that passes or is skipped.  A
failed test prunes the branch and leaves the flag set, so the test repeats at
each backtracking level until one passes.  ``early_test="off"`` disables
early testing entirely and never changes the result, only the statistics.

An early test reads the current true atoms T as a candidate; a failed test
means the reduct has a model N properly inside T.  It runs only when every
input rule with a head atom in T either has its whole positive body in T or
has a body that is already false (a positive atom false or a negative atom
true).  Then, for every stable model M extending the assignment,
N | (M - T) is a model of the reduct P^M properly inside M, so pruning
loses no stable model.  When the condition fails the test is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .gentest import TesterTable, gen_basic, gen_naive, gen_program, test_program
from .semantics import enumerate_stable_models
from .solver import FALSE, TRUE, Solver, SolverStats
from .syntax import Atom, Program, positions

MODES = ("gnt1", "gnt2", "naive", "brute")

_GENERATORS = {"gnt1": gen_basic, "gnt2": gen_program, "naive": gen_naive}


@dataclass
class GntStats:
    candidates_covered: int = 0
    minimal_tests: int = 0
    early_prunes: int = 0


@dataclass
class GntConfig:
    early_test: str = "on"  # on | off

    def __post_init__(self) -> None:
        if self.early_test not in ("on", "off"):
            raise ValueError(f"unknown early-test policy {self.early_test!r}")


@dataclass
class SolveResult:
    models: list[frozenset[Atom]]
    stats: GntStats
    solver_stats: SolverStats


class _Tester:
    """The minimality tester of one search over p: p's tester table,
    compiled at the first test, and the solver of the latest test."""

    def __init__(self, p: Program):
        self.p = p
        self.table: Optional[TesterTable] = None
        self.solver: Optional[Solver] = None

    def minimal(self, candidate: frozenset[Atom]) -> bool:
        if self.table is None:
            self.table = test_program(self.p)
        self.solver = Solver(self.table.tester(self.table.numbers(candidate)))
        search = self.solver.models()
        found = next(search, None)
        # Closed at once, so a suspended search outlives no test.
        search.close()
        return found is None


def minimal_test(
    p: Program,
    assignment_true: Iterable[Atom],
    stats: Optional[GntStats] = None,
    solver_stats: Optional[SolverStats] = None,
    tester: Optional[_Tester] = None,
) -> bool:
    """Read the true atoms as a total candidate (undefined taken false) and
    check that its tester has no stable model.  ``tester`` is the tester of
    p that a search keeps between its tests; without it, one is built for
    this test alone."""
    tester = tester or _Tester(p)
    ok = tester.minimal(frozenset(assignment_true) & p.base)
    if stats is not None:
        stats.minimal_tests += 1
    if solver_stats is not None:
        solver_stats.merge(tester.solver.stats)
    return ok


class _Generator(Solver):
    """The generator's search, with the minimality test on covered candidates
    and the gated early test on positive branches."""

    def __init__(self, g: Program, p: Program, config: GntConfig):
        super().__init__(g)
        self.p = p
        # the input rules with a positive body, over generator numbers: the
        # early-test condition cannot fail on the others.  g's atoms hold p's,
        # so p's table renumbers into them by one merge
        lift = positions(p.table.atoms, self.atoms).__getitem__
        self.rules = [
            (tuple(map(lift, head)), tuple(map(lift, pos)), tuple(map(lift, neg)))
            for head, pos, neg in p.table.rules
            if pos
        ]
        self.config = config
        self.gnt_stats = GntStats()
        self.tester_stats = SolverStats()
        self.tester = _Tester(p)
        self.was_covered = False

    def _minimal(self) -> bool:
        return minimal_test(self.p, self.true_atoms(), self.gnt_stats, self.tester_stats, self.tester)

    def _early_test_sound(self) -> bool:
        """The condition of the module docstring under which an early test
        cannot prune a stable model."""
        val = self.val
        for head, pos, neg in self.rules:
            if (
                any(val[h] == TRUE for h in head)
                and not all(val[b] == TRUE for b in pos)
                and not any(val[b] == FALSE for b in pos)
                and not any(val[c] == TRUE for c in neg)
            ):
                return False
        return True

    def _accept(self) -> bool:
        self.was_covered = True
        self.gnt_stats.candidates_covered += 1
        return self._minimal()

    def _prune(self) -> bool:
        if (
            self.was_covered
            and self.config.early_test == "on"
            and self._early_test_sound()
            and not self._minimal()
        ):
            self.gnt_stats.early_prunes += 1
            return True
        self.was_covered = False
        return False


def solve_disjunctive(
    p: Program,
    mode: str = "gnt2",
    enumerate_all: bool = False,
    config: Optional[GntConfig] = None,
    cap: int = 12,
) -> SolveResult:
    """Stable models of a disjunctive program via the selected generator
    (or by the brute-force oracle); deduplicated and sorted."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    config = config or GntConfig()
    if mode == "brute":
        models = enumerate_stable_models(p, cap)
        if not enumerate_all:
            models = models[:1]
        return SolveResult(models, GntStats(), SolverStats())

    generator = _Generator(_GENERATORS[mode](p), p, config)
    seen = set()
    models = []
    search = generator.models()
    for n in search:
        m = n & p.base
        if m not in seen:
            seen.add(m)
            models.append(m)
        if not enumerate_all:
            break
    # A suspended search and its solver refer to each other; closing the
    # search frees both on return, not at the next cycle collection.
    search.close()
    models.sort(key=sorted)
    solver_stats = SolverStats()
    solver_stats.merge(generator.stats)
    solver_stats.merge(generator.tester_stats)
    return SolveResult(models, generator.gnt_stats, solver_stats)
