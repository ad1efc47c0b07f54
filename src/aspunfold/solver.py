"""Backtracking stable-model search for normal programs.

The solver reads a program as an integer rule table (``RuleTable``): atoms
numbered in sorted order, rules as (head, positive body, negative body)
triples of numbers, every head one atom.  Given a ``Program``, it reads the
table the program is stored as, and builds no ``Rule``.  A solver searches
the one program it is built over; ``gnt`` builds one for its generator and
one for each minimality test.

Propagation combines forward/backward unit rules over body counters with
falsification of unfounded atoms.  Every literal added by expand holds in
every stable model of the program agreeing with the current assignment, so a
covered conflict-free fixpoint is exactly a stable model.  Unit propagation
is one loop, ``_unit_propagate``, over a stack of assignments: the value of
each picks whether it advances or blocks the bodies in ``occ_pos`` and in
``occ_neg``, and ``undo_to`` walks the same lists back.

The search starts from the root assignment that set-up computes: facts
true, and false every atom that heads no rule or has itself in the negative
body of every rule it heads, such as the constraint atom ``__f`` of
``:- body`` (``__f :- body, not __f``).  Such an atom is false in every
stable model: were it true, every rule that could derive it would be
blocked.  Set-up finds them in one pass over the rules each atom heads
(``occ_head``), which for most atoms stops at the first rule.  So
constraints propagate backward from the root, as smodels' lookahead lets
them, instead of once a choice has set ``__f``.

Unfounded atoms are found with source pointers, as in smodels.  At set-up
the positive dependency graph (head to positive body atoms) is split into
strongly connected components; only atoms of cyclic ones (more than one
atom, or a self-loop) can be unfounded without unit propagation noticing.
An atom in no positive body, or with no head rule that has a positive body,
lies on no cycle, so set-up makes it its own acyclic component at once and
runs Tarjan's algorithm only over the remaining atoms.
Each such atom that is not false keeps a source: an unblocked rule (no body
literal false) whose positive body atoms in the same component have sources
themselves, the pointers forming no cycle, so the atom can still be derived.
When a rule that is a source becomes blocked, its head is recorded; the
check inside expand drops the sources of the recorded atoms and of the atoms
of their component whose sources depend on them, finds new sources by a
local least fixpoint, and falsifies the atoms left without one, which form
an unfounded set.  Backtracking only unblocks rules, so every source stays
valid and undo_to keeps them all; it only records the atoms it unassigns
that have no source, to be given one at the next check.  Expand reaches the
same fixpoint as falsifying the greatest unfounded set of the whole program.

Branching follows the negative-phase-first skeleton of smodels: pick the
undefined atom occurring in the most not-yet-satisfied rules (head not true,
no body literal false), try ``not x`` before ``x``, and on finding a model
emit it and backtrack as if conflicted.  Ties go to the lowest index, which
is the lexicographically smallest rendering, since atoms are indexed in
sorted order.  An atom's count is at most the number of rules it occurs in,
so the scan visits atoms by decreasing occurrence count, then by index, and
stops at the first undefined atom that could at best tie with a best of
lower index.  The per-atom rule sets it counts and that order are built at
the first choice, over the atoms undefined then, and never updated, so a
solver that never branches never builds them.  The search never unassigns
an atom assigned at its first choice, the root fixpoint, until it ends;
``undo_to`` drops both once it does, so the next choice builds them again.
The search keeps, with each choice, the scan position before
which every atom is assigned, so the scan starts past the atoms assigned
above it.
Chronological backtracking, no learning.

``_search`` is the package's one stable-model search, a loop over an explicit
stack of pending positive branches, so its depth is bounded by memory rather
than by Python's recursion limit.  Two hooks let a subclass steer it:
``_accept`` decides whether a covered assignment is reported, and ``_prune``
may drop a positive branch once it has expanded.  The generator of the
generate-and-test search (``gnt``) overrides both; here they accept
everything and prune nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .syntax import Atom, Program, RuleTable

TRUE = 1
FALSE = 0
UNDEF = -1

NO_SOURCE = -1  # a cyclic atom without a source pointer
ACYCLIC = -2  # an atom outside every cyclic SCC: unit propagation covers it


@dataclass
class SolverStats:
    choices: int = 0
    conflicts: int = 0
    expansions: int = 0

    def merge(self, other: "SolverStats") -> None:
        self.choices += other.choices
        self.conflicts += other.conflicts
        self.expansions += other.expansions


class Solver:
    """Resumable enumeration of the stable models of one normal program, a
    ``Program`` or a ``RuleTable``.  Single-threaded while searching."""

    def __init__(self, program: Program | RuleTable):
        self.program = program
        table = program.table if isinstance(program, Program) else program

        self.atoms: list[Atom] = list(table.atoms)
        n = len(self.atoms)

        try:
            self.r_head: list[int] = [h for (h,), _, _ in table.rules]
        except ValueError:  # a head of more than one atom
            raise ValueError("solver requires a normal program") from None
        self.r_pos: list[tuple[int, ...]] = [pos for _, pos, _ in table.rules]
        self.r_neg: list[tuple[int, ...]] = [neg for _, _, neg in table.rules]
        self.r_size: list[int] = [len(pos) + len(neg) for _, pos, neg in table.rules]
        self.occ_pos: list[list[int]] = [[] for _ in range(n)]
        self.occ_neg: list[list[int]] = [[] for _ in range(n)]
        self.occ_head: list[list[int]] = [[] for _ in range(n)]
        for ridx, h in enumerate(self.r_head):
            self.occ_head[h].append(ridx)
        for ridx, pos in enumerate(self.r_pos):
            for b in pos:
                self.occ_pos[b].append(ridx)
        for ridx, neg in enumerate(self.r_neg):
            for c in neg:
                self.occ_neg[c].append(ridx)
        self._init_sccs()

        self.stats = SolverStats()
        self.val = [UNDEF] * n
        self.trail: list[int] = []
        self.n_true = [0] * len(self.r_head)
        self.n_false = [0] * len(self.r_head)
        self.active = [len(occ) for occ in self.occ_head]
        self._queue: list[tuple[int, int]] = []
        self.source = [NO_SOURCE if c else ACYCLIC for c in self._cyclic]
        # Cyclic atoms to re-examine at the next check; every one starts sourceless.
        self._lost = [a for a in range(n) if self._cyclic[a]]

        self._initial: list[tuple[int, int]] = [
            (self.r_head[r], TRUE) for r, size in enumerate(self.r_size) if size == 0
        ]
        # False at the root: each atom whose every rule, if it has any, has
        # the atom in its negative body (see the module docstring).  Most
        # atoms fail at their first rule.
        r_neg = self.r_neg
        self._initial += [
            (a, FALSE)
            for a, rules in enumerate(self.occ_head)
            if not rules or (a in r_neg[rules[0]] and all(a in r_neg[r] for r in rules))
        ]
        self._gen: Optional[Iterator[frozenset[Atom]]] = None
        # Built by _choose over the atoms it finds undefined, with the trail
        # length then (0 while unbuilt); undo_to below that length drops them.
        self.occ_all: list[list[int]] = []
        self._by_occurrence: Optional[list[int]] = None
        self._indexed_at = 0

    @cached_property
    def index(self) -> dict[Atom, int]:
        """Atom to number, for callers that name atoms."""
        return {a: i for i, a in enumerate(self.atoms)}

    def _init_sccs(self) -> None:
        """Split the positive dependency graph (head to positive body atoms)
        into SCCs and mark the atoms of cyclic SCCs (more than one atom, or a
        self-loop): only they keep source pointers.  An atom in no positive
        body, or with no head rule that has a positive body, lies on no
        cycle: it is its own acyclic SCC at once, and an iterative Tarjan
        splits the rest."""
        n = len(self.atoms)
        r_head, r_pos, occ_head, occ_pos = self.r_head, self.r_pos, self.occ_head, self.occ_pos
        # Discovery index and SCC id (set once the atom's SCC is complete),
        # both -1 for the atoms left to Tarjan; the others are done, in SCC 0.
        order = [0] * n
        comp = [0] * n
        succ: dict[int, list[int]] = {}
        for h, pos in zip(r_head, r_pos):
            if pos and occ_pos[h]:
                out = succ.get(h)
                if out is None:
                    succ[h] = list(pos)
                    order[h] = comp[h] = -1
                else:
                    out += pos
        low = [0] * n
        cyclic = [False] * n
        cyclic_atoms: list[int] = []
        stack: list[int] = []
        count = n_comps = 1
        for root in succ:
            if order[root] >= 0:
                continue
            order[root] = low[root] = count
            count += 1
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                v, it = work[-1]
                for w in it:
                    if order[w] < 0:
                        order[w] = low[w] = count
                        count += 1
                        stack.append(w)
                        work.append((w, iter(succ[w])))
                        break
                    if comp[w] < 0 and order[w] < low[v]:  # w is still on the stack
                        low[v] = order[w]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] == order[v]:
                        members = [stack.pop()]
                        while members[-1] != v:
                            members.append(stack.pop())
                        is_cyclic = len(members) > 1 or v in succ[v]
                        for w in members:
                            comp[w] = n_comps
                            cyclic[w] = is_cyclic
                        if is_cyclic:
                            cyclic_atoms += members
                        n_comps += 1
        self._cyclic = cyclic
        # r_int[r]: the positive body atoms of r in its head's cyclic SCC;
        # occ_int[a]: the rules that have a among them, ascending.
        self.r_int: list[tuple[int, ...]] = [()] * len(r_head)
        self.occ_int: list[list[int]] = [[] for _ in range(n)]
        for r in sorted([r for h in cyclic_atoms for r in occ_head[h]]):
            c = comp[r_head[r]]
            internal = self.r_int[r] = tuple([b for b in r_pos[r] if comp[b] == c])
            for b in internal:
                self.occ_int[b].append(r)

    # -- assignment and unit propagation -----------------------------------

    def _push(self, a: int, v: int) -> None:
        self._queue.append((a, v))

    def _force_single_support(self, a: int) -> None:
        for r in self.occ_head[a]:
            if self.n_false[r] == 0:
                for b in self.r_pos[r]:
                    if self.val[b] == UNDEF:
                        self._queue.append((b, TRUE))
                for c in self.r_neg[r]:
                    if self.val[c] == UNDEF:
                        self._queue.append((c, FALSE))
                return

    def _falsify_last_literal(self, r: int) -> None:
        for b in self.r_pos[r]:
            if self.val[b] == UNDEF:
                self._queue.append((b, FALSE))
                return
        for c in self.r_neg[r]:
            if self.val[c] == UNDEF:
                self._queue.append((c, TRUE))
                return

    def _unit_propagate(self) -> bool:
        """Apply the queued assignments and everything unit propagation
        derives from them; False on a conflict, with the queue emptied."""
        queue, val, trail = self._queue, self.val, self.trail
        occ_pos, occ_neg, occ_head = self.occ_pos, self.occ_neg, self.occ_head
        n_true, n_false, r_size, r_head = self.n_true, self.n_false, self.r_size, self.r_head
        active, source, lost = self.active, self.source, self._lost
        while queue:
            a, v = queue.pop()
            cur = val[a]
            if cur != UNDEF:
                if cur == v:
                    continue
                queue.clear()
                return False
            val[a] = v
            trail.append(a)
            # A true atom advances the bodies it occurs in positively and
            # blocks those it occurs in negatively, a false one the reverse;
            # occ_pos goes first for either value, and so do its pushes.
            for rules, advances in ((occ_pos[a], v == TRUE), (occ_neg[a], v == FALSE)):
                if advances:
                    for r in rules:
                        n_true[r] += 1
                        if not n_false[r]:
                            left = r_size[r] - n_true[r]
                            if not left:
                                queue.append((r_head[r], TRUE))
                            elif left == 1 and val[r_head[r]] == FALSE:
                                self._falsify_last_literal(r)
                else:
                    for r in rules:
                        n_false[r] += 1
                        if n_false[r] == 1:
                            h = r_head[r]
                            if source[h] == r:
                                lost.append(h)
                            active[h] -= 1
                            if not active[h]:
                                queue.append((h, FALSE))
                            elif active[h] == 1 and val[h] == TRUE:
                                self._force_single_support(h)
            if v == TRUE:
                if not active[a]:
                    queue.clear()
                    return False
                if active[a] == 1:
                    self._force_single_support(a)
            else:
                for r in occ_head[a]:
                    if not n_false[r]:
                        left = r_size[r] - n_true[r]
                        if not left:
                            queue.clear()
                            return False
                        if left == 1:
                            self._falsify_last_literal(r)
        return True

    # -- unfounded-set check --------------------------------------------------

    def _unfounded_check(self) -> None:
        """Re-source the atoms recorded in ``_lost``, with the atoms of their
        SCCs whose sources depend on them, and push false those left without
        a source: they form an unfounded set."""
        source, n_false, val = self.source, self.n_false, self.val
        occ_int, r_int, r_head = self.occ_int, self.r_int, self.r_head
        stack = []
        for a in self._lost:
            # Skip a source that backtracking has unblocked again, and a false
            # atom without one: it needs none until undo_to unassigns it.
            r = source[a]
            if r == NO_SOURCE:
                if val[a] != FALSE:
                    stack.append(a)
            elif n_false[r]:
                stack.append(a)
        self._lost.clear()
        # Drop the sources of these atoms and, in the same SCC, of every atom
        # whose source has one of them in its positive body.
        unsourced: set[int] = set()
        while stack:
            a = stack.pop()
            if a in unsourced:
                continue
            unsourced.add(a)
            source[a] = NO_SOURCE
            for r in occ_int[a]:
                if source[r_head[r]] == r:
                    stack.append(r_head[r])
        # Local least fixpoint: a non-false atom gets as source an unblocked
        # rule whose same-SCC positive body atoms all have sources.
        for a in unsourced:
            if val[a] == FALSE:
                continue
            for r in self.occ_head[a]:
                if n_false[r] == 0 and all(source[b] != NO_SOURCE for b in r_int[r]):
                    source[a] = r
                    stack.append(a)
                    break
        while stack:
            b = stack.pop()
            for r in occ_int[b]:
                h = r_head[r]
                if (
                    source[h] == NO_SOURCE
                    and val[h] != FALSE
                    and n_false[r] == 0
                    and all(source[c] != NO_SOURCE for c in r_int[r])
                ):
                    source[h] = r
                    stack.append(h)
        for a in unsourced:
            if source[a] == NO_SOURCE and val[a] != FALSE:
                self._push(a, FALSE)
                # Recorded again until set: a conflict may come first, and
                # undo_to records only the sourceless atoms it unassigns.
                self._lost.append(a)

    # -- expand ---------------------------------------------------------------

    def _expand(self) -> bool:
        self.stats.expansions += 1
        while self._unit_propagate():
            if not self._lost:
                return True
            self._unfounded_check()
        return False

    # -- backtracking -----------------------------------------------------------

    def undo_to(self, mark: int) -> None:
        trail, val, source, lost = self.trail, self.val, self.source, self._lost
        occ_pos, occ_neg, n_true, n_false = self.occ_pos, self.occ_neg, self.n_true, self.n_false
        active, r_head = self.active, self.r_head
        for _ in range(len(trail) - mark):
            a = trail.pop()
            if val[a] == TRUE:
                advanced, blocked = occ_pos[a], occ_neg[a]
            else:
                advanced, blocked = occ_neg[a], occ_pos[a]
            val[a] = UNDEF
            if source[a] == NO_SOURCE:
                lost.append(a)  # no longer false: it needs a source again
            for r in advanced:
                n_true[r] -= 1
            for r in blocked:
                n_false[r] -= 1
                if not n_false[r]:
                    active[r_head[r]] += 1
        self._queue.clear()
        if mark < self._indexed_at:
            self._by_occurrence = None
            self._indexed_at = 0

    # -- search -----------------------------------------------------------------

    def _index_open_atoms(self) -> None:
        """Per undefined atom, the rules it occurs in (head or body), each
        once, in no particular order: ``_choose`` only counts them; and the
        undefined atoms by decreasing number of those rules, then by index
        (a reversed sort keeps equal keys in their order).  They hold while
        every atom assigned now stays assigned: ``undo_to`` drops them when
        it unassigns one."""
        val, occ_head, occ_pos, occ_neg = self.val, self.occ_head, self.occ_pos, self.occ_neg
        occ_all: list[list[int]] = [[]] * len(val)  # assigned atoms: never read
        open_atoms = [a for a, v in enumerate(val) if v == UNDEF]
        for a in open_atoms:
            occ_all[a] = list(set(occ_head[a] + occ_pos[a] + occ_neg[a]))
        open_atoms.sort(key=lambda a: len(occ_all[a]), reverse=True)
        self.occ_all, self._by_occurrence = occ_all, open_atoms
        self._indexed_at = len(self.trail)

    def _choose(self, start: int = 0) -> tuple[int, int]:
        """The undefined atom in the most unsatisfied rules (head not true, no
        body literal false), the lowest index on ties; and the position of
        the first undefined atom in ``_by_occurrence``.  Every atom before
        position ``start`` there must be assigned."""
        if self._by_occurrence is None:
            self._index_open_atoms()
        val, n_false, r_head, occ_all = self.val, self.n_false, self.r_head, self.occ_all
        order = self._by_occurrence
        end = len(order)
        while start < end and val[order[start]] != UNDEF:
            start += 1
        best, best_count = -1, -1
        for i in range(start, end):
            a = order[i]
            if val[a] != UNDEF:
                continue
            occ = occ_all[a]
            if len(occ) < best_count or (len(occ) == best_count and a > best):
                break
            count = 0
            for r in occ:
                if not n_false[r] and val[r_head[r]] != TRUE:
                    count += 1
            if count > best_count or (count == best_count and a < best):
                best, best_count = a, count
        if best < 0:
            raise RuntimeError("no undefined atom to branch on")
        return best, start

    @property
    def covered(self) -> bool:
        return len(self.trail) == len(self.atoms)

    def true_atoms(self) -> frozenset[Atom]:
        return frozenset([a for a, v in zip(self.atoms, self.val) if v == TRUE])

    def _accept(self) -> bool:
        """Hook: whether to report the covered assignment just reached."""
        return True

    def _prune(self) -> bool:
        """Hook: whether to drop the positive branch of a choice, called once
        that branch has expanded without conflict."""
        return False

    def _search(self) -> Iterator[frozenset[Atom]]:
        # One entry per choice whose positive branch is still to come: the
        # trail length before its negative branch, the chosen atom, and the
        # scan position of _choose, before which every atom was assigned
        # below that trail length.
        stack: list[tuple[int, int, int]] = []
        root = len(self.trail)
        for a, v in self._initial:
            self._push(a, v)
        positive = False
        start = 0
        while True:
            if not self._expand():
                self.stats.conflicts += 1
            elif positive and self._prune():
                pass  # the hook dropped the branch
            elif self.covered:
                if self._accept():
                    yield self.true_atoms()
            else:
                x, start = self._choose(start)
                self.stats.choices += 1
                stack.append((len(self.trail), x, start))
                self._push(x, FALSE)
                positive = False
                continue
            if not stack:
                self.undo_to(root)
                return
            mark, x, start = stack.pop()
            self.undo_to(mark)
            self._push(x, TRUE)
            positive = True

    def models(self) -> Iterator[frozenset[Atom]]:
        if self._gen is None:
            self._gen = self._search()
        return self._gen

    def next_stable_model(self) -> Optional[frozenset[Atom]]:
        return next(self.models(), None)

    def all_models(self) -> list[frozenset[Atom]]:
        return sorted(self.models(), key=sorted)

    # -- stepping by hand (tests; tracers wrap these by name) ---------------------

    def assign_and_expand(self, pairs: Iterable[tuple[Atom, bool]]) -> bool:
        for atom, value in pairs:
            self._push(self.index[atom], TRUE if value else FALSE)
        return self._expand()

    # The former name, kept for tracers that wrap the search hooks by name.
    assign_and_extend = assign_and_expand

    def pick_atom(self) -> Atom:
        a, _ = self._choose()
        self.stats.choices += 1
        return self.atoms[a]

