"""Backtracking stable-model search for normal programs.

The solver reads a ``Program`` as the integer rule table it is: atoms
numbered in sorted order, rules as (head, positive body, negative body)
triples of numbers, every head one atom or none.  A solver searches the
one program it is built over; ``gnt`` builds one for its generator and one
for each minimality test.

Propagation combines forward/backward unit rules over body counters with
falsification of unfounded atoms.  Every literal added by expand holds in
every stable model of the program agreeing with the current assignment, so a
covered conflict-free fixpoint is exactly a stable model.  The trail is the
propagation queue, as in smodels and MiniSat: a decision and every
inference assign an undefined atom the moment it is derived and append it
to the trail, and a derived literal that contradicts the assignment is a
conflict at once.  Unit propagation is one loop, ``_unit_propagate``, over
the trail from ``_head``, the first atom not yet propagated: the value of
each picks whether it advances or blocks the bodies in ``occ_pos`` and in
``occ_neg``, and ``undo_to`` walks the same lists back or, near the root,
copies the counters back (below).  A conflict ends the expand: the atom
being propagated finishes its lists, and the atoms after it, assigned but
not yet propagated, are unassigned.  So after every expand, whatever its
outcome, every atom on the trail has been propagated and the counters match
the assignment.  Every inference is monotone in the assignment, so an
expand's outcome and its fixpoint do not depend on the order in which
literals are propagated; only the source pointers it leaves may.  Each
rule keeps one counter, ``left``: its body literals not yet true as
propagated, blocked or not, plus ``block`` times its body literals false
as propagated, where ``block``, set up once, is one more than the longest
body, ⊥ included.  So ``left % block`` and ``left // block`` are the two
counts, an advance subtracts one, a block adds ``block``, and a rule is
blocked exactly when ``left >= block``; only an unblocked rule fires or
propagates backward.  A false body literal is also not yet true, so a
blocked rule's counter is above ``block``, and a rule whose counter is 0
or 1 is unblocked.  The counter is a sum over the propagated atoms, and
``active``, an atom's unblocked head rules, follows from it: un-counting
commutes, and ``undo_to`` may walk the atoms it unassigns in any order.

The solver is the one place that knows what a constraint is.  It reads
each rule with an empty head, ``:- body``, as ``⊥ :- body, not ⊥``, over
one private atom ⊥ numbered after the program's atoms, as smodels compiles
constraints into rules for one reserved atom that its compute statement
fixes false.  ⊥ is never reported and never branched on.

The search starts from the root assignment that set-up computes: facts
true, and false every atom that heads no rule or has itself in the negative
body of every rule it heads, such as ⊥.  Such an atom is false in every
stable model: were it true, every rule that could derive it would be
blocked.  Set-up finds them in one pass over the rules each atom heads
(``occ_head``), which for most atoms stops at the first rule.  So
constraints propagate backward from the root, as smodels' lookahead lets
them, instead of once a choice has set ⊥.

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
A false atom needs no source, as in smodels: it keeps whatever pointer it
has, blocked or not, and the check passes over it.  When a rule that is a
source becomes blocked, propagation records its head only if the head is
not false and still has an unblocked rule; were it the head's last one,
propagation makes the head false, or finds a conflict, at once.  The check
inside expand drops the sources of the recorded atoms and of the atoms not
false of their component whose sources depend on them, finds new sources
by a local least fixpoint, and falsifies the atoms left without one, which
form an unfounded set.  While an atom is false, every rule with it in the
positive body is blocked and becomes no source, so the pointers that false
atoms keep close no cycle.  Backtracking only unblocks rules, and undo_to
keeps every pointer; it only records the atoms it unassigns that have no
source, to be given one at the next check, as a conflict does for the
atoms it unassigns (``_unassign`` says why that is enough).  Expand
reaches the same fixpoint as falsifying the greatest unfounded set of the
whole program.

Branching follows the negative-phase-first skeleton of smodels: pick the
undefined atom occurring in the most not-yet-satisfied rules (head not true,
no body literal false), try ``not x`` before ``x``, and on finding a model
emit it and backtrack as if conflicted.  Ties go to the lowest index, which
is the lexicographically smallest rendering, since atoms are indexed in
sorted order.  An atom's count is at most its key: its places, as head,
positive or negative body atom, in the rules not blocked at the first
choice (below), which counts a rule twice only where the atom occurs twice
in it.  So the scan visits atoms by decreasing key, then by index, and
stops at the first undefined atom whose key could at best tie with a best
of lower index.

Counts only fall as an assignment grows, since a rule once blocked or with
its head true stays so: an atom's count taken at a choice bounds its count
everywhere below that choice, in both branches.  The scan keeps each open
atom's last exact count as its bound (``_bound``, at first its key) and
skips, uncounted, an atom whose bound cannot beat the best so far.  Its
count could not either, so the choice and its ties are those of a full
recount.  A bound holds only below the choice where it was taken,
so ``_choose`` notes each bound it lowers in a journal, and every
backtrack, by copy or by walk (below), puts back the bounds noted since the
choice it returns to before that choice's positive branch starts.  So the
journal holds only falls of a bound along the current branch, no more
entries than the atoms' keys sum to.

The scan's order, the keys and the bounds are built at the first choice,
over the atoms undefined then, and only the bounds change after that, so a
solver that never branches builds none of them.  The first choice builds
no rule list: an atom's rules, each once, are gathered (``occ_all``) the
first time the scan counts it, and most atoms are never counted in a
whole search.
A solver runs one search, and the search never unassigns an atom assigned
at its first choice, the root fixpoint, so a rule blocked then stays
blocked: no propagation, unfounded-set check or count reads it again, and
none is the source of an open atom, as the root expand has given new
sources to the open atoms whose sources it blocked (a false atom may keep
one as its pointer, and stays false).  So at that choice the search drops
such rules from the ``occ_pos``, ``occ_neg``, ``occ_head`` and ``occ_int``
lists of the open atoms for good, and walks only rules that can still fire.
Nothing is put back: the search keeps no copy of the lists, and when its
last choice is done it returns without walking back to the root.  The
search keeps, with each choice, the scan position before which every atom
is assigned, so the scan starts past the atoms assigned above it.

Backtracking is chronological, with no learning, and goes back one of two
ways, to a trail length at which every atom had been propagated, so
``_head`` goes back with it.  Walking back touches every list entry that
propagation touched since the choice, so its cost grows with the branch
below the choice; copying back costs one entry per rule and one per atom
(``left`` and ``active``), whatever was assigned.  The negative branch of
a choice near the root holds most of the search below it, so ``_search``
copies the two arrays at each choice before its negative branch, and
``undo_to`` copies them back when the positive branch starts.  Either way
``_unassign`` then resets the values of the atoms unassigned, as after a
conflict.  A deep choice undoes a few atoms, and walking them back is
cheaper than a copy.  So copies are taken only while the copies held by
the pending choices fit in a budget: as many entries as the solver's own
per-rule and per-atom lists hold (``_copy_budget``), so the copies at most
double the list entries the solver holds, however deep the search.  The
copies go to the shallowest pending choices, and every deeper choice walks
back.  On the benchmark's d3sat generators the budget holds 11 copies, and
on its partial translations 10 or 11; their searches hold up to 10 and 13
pending choices, so on the seed-1 samples every d3sat backtrack and all
but 8 of partial's 5,079 copy back.  Both ways leave every counter as it
was at the choice, so the search is the same either way.

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

from .syntax import Atom, Program

TRUE = 1
FALSE = 0
UNDEF = -1

# left and active, as ``Solver._save`` copies them
Counters = tuple[list[int], list[int]]

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
    """Resumable enumeration of the stable models of one normal program.
    Single-threaded while searching.  A solver runs one search or is
    stepped by hand, not both: the search prunes its occurrence lists for
    good and ends at its last branch."""

    def __init__(self, program: Program):
        self.program = program

        self.atoms: list[Atom] = list(program.atoms)
        # A constraint ``:- body`` is read as ``⊥ :- body, not ⊥``, over a
        # private atom ⊥ numbered after the program's atoms, which exists
        # only if the program has a constraint.
        n = bottom = len(self.atoms)
        self.r_head: list[int] = []
        self.r_pos: list[tuple[int, ...]] = []
        self.r_neg: list[tuple[int, ...]] = []
        for head, pos, neg in program.rows:
            if len(head) != 1:
                if head:
                    raise ValueError("solver requires a normal program")
                head, neg, n = (bottom,), (*neg, bottom), bottom + 1
            self.r_head.append(head[0])
            self.r_pos.append(pos)
            self.r_neg.append(neg)
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
        # left[r]: r's body literals not yet true, plus block times its body
        # literals false; block exceeds every body's length, ⊥ included, so
        # r is unblocked exactly when left[r] < block.
        self.left = [len(pos) + len(neg) for pos, neg in zip(self.r_pos, self.r_neg)]
        self.block = 1 + max(self.left, default=0)
        self.active = [len(occ) for occ in self.occ_head]
        # trail[:_head] is propagated; _conflict is set by an assignment
        # that contradicts the one made, until _unit_propagate reports it.
        self._head = 0
        self._conflict = False
        self.source = [NO_SOURCE if c else ACYCLIC for c in self._cyclic]
        # Cyclic atoms to re-examine at the next check; every one starts sourceless.
        self._lost = [a for a in range(n) if self._cyclic[a]]

        self._initial: list[tuple[int, int]] = [
            (self.r_head[r], TRUE) for r, left in enumerate(self.left) if not left
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
        # Built over the atoms undefined at the search's first choice, or at
        # each pick_atom; an atom's rule list only once _choose counts it.
        self.occ_all: list[Optional[list[int]]] = []
        self._by_occurrence: Optional[list[int]] = None
        self._key: list[int] = []
        self._bound: list[int] = []
        self._journal: list[tuple[int, int]] = []

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
        n = len(self.occ_head)
        r_head, r_pos, occ_pos = self.r_head, self.r_pos, self.occ_pos
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
                        n_comps += 1
        self._cyclic = cyclic
        # r_int[r]: the positive body atoms of r in its head's cyclic SCC,
        # r_pos[r] itself when they all are; occ_int[a]: the rules that have
        # a among them, ascending, as one pass over the rules in order fills
        # them.  Only a cyclic atom can be among them, so every acyclic atom
        # has the one empty tuple instead of a list of its own.
        r_int: list[tuple[int, ...]] = [()] * len(r_head)
        occ_int: list[list[int] | tuple[()]] = [[] if c else () for c in cyclic]
        for r, h in enumerate(r_head):
            if cyclic[h]:
                c = comp[h]
                pos = r_pos[r]
                for b in pos:
                    if comp[b] != c:
                        pos = tuple([b for b in pos if comp[b] == c])
                        break
                r_int[r] = pos
                for b in pos:
                    occ_int[b].append(r)
        self.r_int, self.occ_int = r_int, occ_int

    # -- assignment and unit propagation -----------------------------------

    def _push(self, a: int, v: int) -> None:
        """Assign ``a`` the value ``v`` at once, appending it to the trail for
        ``_unit_propagate``; if ``a`` already holds the other value, record a
        conflict, which the next ``_unit_propagate`` reports."""
        cur = self.val[a]
        if cur == UNDEF:
            self.val[a] = v
            self.trail.append(a)
        elif cur != v:
            self._conflict = True

    def _force_single_support(self, a: int) -> None:
        """Make the body of the one unblocked rule of the true atom ``a``
        true; a body literal the assignment already makes false is a
        conflict."""
        val, left, block = self.val, self.left, self.block
        for r in self.occ_head[a]:
            if left[r] < block:
                for b in self.r_pos[r]:
                    if val[b] != TRUE:
                        self._push(b, TRUE)
                for c in self.r_neg[r]:
                    if val[c] != FALSE:
                        self._push(c, FALSE)
                return

    def _falsify_last_literal(self, r: int) -> None:
        """Make false the one body literal that ``left`` counts for the
        unblocked rule ``r``, whose head is false: the one not yet true as
        propagated.  If the assignment already makes it true, the body
        holds, a conflict."""
        val = self.val
        for b in self.r_pos[r]:
            if val[b] != TRUE:
                self._push(b, FALSE)
                return
        for c in self.r_neg[r]:
            if val[c] != FALSE:
                self._push(c, TRUE)
                return
        self._conflict = True

    def _unit_propagate(self) -> bool:
        """Propagate the trail from ``_head`` on, in order, each atom
        advancing and blocking the rules of its lists; the atoms this derives
        are assigned at once and appended to the trail.  Backward, a true
        atom needs an unblocked head rule, and a false one needs a false
        body literal in each of its unblocked head rules, so a false atom
        with none (``active`` zero) skips its head rules.  A rule that
        becomes blocked while it is its head's source records the head in
        ``_lost`` only if the head is not false and keeps an unblocked rule:
        a false atom needs no source, and a head left with none is made
        false here, or is a conflict.  False on a conflict: the atom being
        propagated finishes its lists, the records this call made in
        ``_lost`` are dropped, and the atoms after it, not yet propagated,
        are unassigned."""
        val, trail = self.val, self.trail
        append = trail.append
        occ_pos, occ_neg, occ_head = self.occ_pos, self.occ_neg, self.occ_head
        left, block, r_head = self.left, self.block, self.r_head
        active, source, lost = self.active, self.source, self._lost
        kept = len(lost)
        i = self._head
        while i < len(trail) and not self._conflict:
            a = trail[i]
            i += 1
            # A true atom advances the bodies it occurs in positively and
            # blocks those it occurs in negatively, a false one the reverse.
            # It advances every rule, blocked or not; only an unblocked one
            # fires or propagates backward.  A false body literal is also
            # not yet true, so a blocked rule's counter is above block: one
            # at 0 or 1 is unblocked.
            v = val[a]
            if v == TRUE:
                advanced, blocked = occ_pos[a], occ_neg[a]
            else:
                advanced, blocked = occ_neg[a], occ_pos[a]
            for r in advanced:
                k = left[r] = left[r] - 1
                if not k:
                    h = r_head[r]
                    cur = val[h]
                    if cur == UNDEF:
                        val[h] = TRUE
                        append(h)
                    elif cur == FALSE:
                        self._conflict = True
                elif k == 1 and val[r_head[r]] == FALSE:
                    self._falsify_last_literal(r)
            for r in blocked:
                k = left[r]
                left[r] = k + block
                if k >= block:
                    continue
                h = r_head[r]
                k = active[h] = active[h] - 1
                cur = val[h]
                if not k:
                    if cur == UNDEF:
                        val[h] = FALSE
                        append(h)
                    elif cur == TRUE:
                        self._conflict = True
                else:
                    if source[h] == r and cur != FALSE:
                        lost.append(h)
                    if k == 1 and cur == TRUE:
                        self._force_single_support(h)
            if v == TRUE:
                k = active[a]
                if not k:
                    self._conflict = True
                elif k == 1:
                    self._force_single_support(a)
            elif active[a]:
                for r in occ_head[a]:
                    k = left[r]
                    if not k:
                        self._conflict = True
                        break
                    if k == 1:
                        self._falsify_last_literal(r)
        self._head = i
        if self._conflict:
            self._conflict = False
            # The search backtracks past this expand, which unblocks the
            # sources recorded here again (see _unassign).
            del lost[kept:]
            self._unassign(i)
            return False
        return True

    def _unassign(self, mark: int) -> None:
        """Unassign the trail above position ``mark`` without touching the
        counters, recording the atoms left without a source, last first.

        Every other atom keeps its pointer, blocked or not, and that is
        enough once ``undo_to`` has put the counters back to ``mark``:

        - every trail length that ``undo_to`` returns to ends a completed
          expand, and each atom above it was open there, so its source was
          unblocked then;
        - any pointer set later was unblocked when it was set, and blocking
          only grows along a branch, so once the counters are back at the
          mark, every pointer an unassigned atom kept is unblocked again;
        - while an atom is false, no rule with it in the positive body can
          become a source, so kept pointers form no cycle;
        - a same-SCC positive body atom of a kept pointer that has no source
          is in ``_lost``, and the check's drop reaches the kept pointer
          through ``occ_int``.

        A conflict inside an expand also calls this, above a trail length
        that ends no expand; the search then undoes to a mark all the same.
        So the conflict's ``_unit_propagate`` first drops the records it
        made itself, the heads of sources it blocked, and keeps those made
        before it and those this call adds:

        - every backtrack after a conflict returns to a trail length no
          deeper than the start of that expand;
        - a pointer set since then was unblocked when it was set;
        - so every dropped record names an atom whose source is unblocked
          again once the counters are back at that length."""
        trail, val, source = self.trail, self.val, self.source
        undone = trail[mark:]
        del trail[mark:]
        for a in undone:
            val[a] = UNDEF
        self._lost += [a for a in reversed(undone) if source[a] == NO_SOURCE]

    # -- unfounded-set check --------------------------------------------------

    def _unfounded_check(self) -> None:
        """Re-source the atoms recorded in ``_lost``, with the atoms of their
        SCCs whose sources depend on them, and assign false those left
        without a source: they form an unfounded set.  A false atom needs no
        source: the check passes over the false atoms in ``_lost`` and over
        false atoms whose sources depend on a dropped one, and each keeps its
        pointer.  The atoms dropped are kept in a list, in the order they
        are dropped, and the passes that re-source and falsify walk it."""
        source, left, block, val = self.source, self.left, self.block, self.val
        occ_int, r_int, r_head, occ_head = self.occ_int, self.r_int, self.r_head, self.occ_head
        stack = []
        for a in self._lost:
            # Skip a false atom, and a source that backtracking has unblocked
            # again.
            if val[a] != FALSE:
                r = source[a]
                if r == NO_SOURCE or left[r] >= block:
                    stack.append(a)
        self._lost.clear()
        # Drop the sources of these atoms and, in the same SCC, of every atom
        # not false whose source has one of them in its positive body.
        dropped: list[int] = []
        seen: set[int] = set()
        while stack:
            a = stack.pop()
            if a in seen:
                continue
            seen.add(a)
            dropped.append(a)
            source[a] = NO_SOURCE
            for r in occ_int[a]:
                h = r_head[r]
                if source[h] == r and val[h] != FALSE:
                    stack.append(h)
        # Local least fixpoint: a dropped atom gets as source an unblocked
        # rule whose same-SCC positive body atoms all have sources.
        for a in dropped:
            for r in occ_head[a]:
                if left[r] < block:
                    for b in r_int[r]:
                        if source[b] == NO_SOURCE:
                            break
                    else:
                        source[a] = r
                        stack.append(a)
                        break
        while stack:
            b = stack.pop()
            for r in occ_int[b]:
                h = r_head[r]
                if source[h] == NO_SOURCE and val[h] != FALSE and left[r] < block:
                    for c in r_int[r]:
                        if source[c] == NO_SOURCE:
                            break
                    else:
                        source[h] = r
                        stack.append(h)
        for a in dropped:
            if source[a] == NO_SOURCE:
                self._push(a, FALSE)
                if val[a] == TRUE:
                    # A conflict.  Recorded again: backtracking may leave a
                    # true, and undo_to records only the atoms it unassigns.
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

    def undo_to(self, mark: int, saved: Optional[Counters] = None) -> None:
        """Unassign the trail above position ``mark``, one of two ways.
        Given ``saved``, the ``left`` and ``active`` that ``_save`` copied
        at that trail length, it copies them back.
        Otherwise it walks the atoms above ``mark``, in any order, since
        every counter is a sum over the propagated atoms: each atom
        un-advances every rule of its advancing list and removes its
        blocks.  Either way the counters end as they were at ``mark``, and
        ``_unassign`` then resets the values, keeping every source and
        recording the unassigned atoms that have none.  It is called between
        expands, when every atom on the trail has been propagated, and sets
        ``_head`` to ``mark``.  The occurrence lists stay as they are: nothing puts
        back the rules ``_search`` dropped at its first choice, below which
        it never undoes."""
        self._head = mark
        if saved is not None:
            self.left[:], self.active[:] = saved
        else:
            val, occ_pos, occ_neg = self.val, self.occ_pos, self.occ_neg
            left, block, active, r_head = self.left, self.block, self.active, self.r_head
            for a in self.trail[mark:]:
                if val[a] == TRUE:
                    advanced, blocked = occ_pos[a], occ_neg[a]
                else:
                    advanced, blocked = occ_neg[a], occ_pos[a]
                for r in advanced:
                    left[r] += 1
                for r in blocked:
                    k = left[r] = left[r] - block
                    if k < block:
                        active[r_head[r]] += 1
        self._unassign(mark)

    # -- search -----------------------------------------------------------------

    def _prune_blocked(self) -> None:
        """Drop the rules blocked now from the ``occ_head``, ``occ_pos``,
        ``occ_neg`` and ``occ_int`` lists of the undefined atoms, for good:
        ``_search`` calls it at its first choice, below which it never
        undoes (see the module docstring)."""
        val, left, block = self.val, self.left, self.block
        if max(left, default=0) < block:
            return
        occ_lists = (self.occ_head, self.occ_pos, self.occ_neg, self.occ_int)
        for a, v in enumerate(val):
            if v == UNDEF:
                for lists in occ_lists:
                    rules = lists[a]
                    for r in rules:
                        if left[r] >= block:
                            lists[a] = [q for q in rules if left[q] < block]
                            break

    def _index_open_atoms(self) -> None:
        """Per undefined atom, its order key: the lengths of its ``occ_head``,
        ``occ_pos`` and ``occ_neg`` lists summed, an upper bound of its
        count, which counts a rule twice only where the atom occurs twice in
        it.  The undefined atoms in order of decreasing key, then of index (a
        reversed sort keeps equal keys in their order), and each atom's bound
        starting at its key, with an empty journal.  No rule list is built
        here: ``_choose`` builds an atom's ``occ_all`` the first time it
        counts it.  All of this holds while every atom assigned now stays
        assigned: ``_search`` builds it once, at its first choice, after
        ``_prune_blocked``, and ``pick_atom`` at each call."""
        occ_head, occ_pos, occ_neg = self.occ_head, self.occ_pos, self.occ_neg
        val = self.val
        key = [0] * len(val)
        # ⊥ is never branched on.
        open_atoms = [a for a in range(len(self.atoms)) if val[a] == UNDEF]
        for a in open_atoms:
            key[a] = len(occ_head[a]) + len(occ_pos[a]) + len(occ_neg[a])
        open_atoms.sort(key=key.__getitem__, reverse=True)
        self.occ_all = [None] * len(val)
        self._by_occurrence, self._key = open_atoms, key
        self._bound, self._journal = key[:], []

    def _choose(self, start: int = 0) -> tuple[int, int]:
        """The undefined atom in the most unsatisfied rules (head not true, no
        body literal false), the lowest index on ties; and the position of
        the first undefined atom in ``_by_occurrence``.  Every atom before
        position ``start`` there must be assigned.  The scan stops at the
        first atom whose order key is below the best count so far, or equals
        it with a higher index: so is every later atom's key, and a key
        bounds the count.  An atom whose bound, a count taken at this choice
        or above it, loses in the same way is skipped uncounted: counts only
        fall as the assignment grows, so it would lose all the same.  The
        first count of an atom builds its ``occ_all``, the rules of its
        three lists, each once, in no particular order.  Each atom counted
        below its bound gets the count as its bound, and the old one goes to
        the journal, for ``_restore_bounds`` to put back when the search
        backtracks past this choice."""
        val, left, block, r_head, occ_all = self.val, self.left, self.block, self.r_head, self.occ_all
        key, bound, journal = self._key, self._bound, self._journal
        order = self._by_occurrence
        end = len(order)
        while start < end and val[order[start]] != UNDEF:
            start += 1
        best, best_count = -1, -1
        for i in range(start, end):
            a = order[i]
            if val[a] != UNDEF:
                continue
            most = key[a]
            if most < best_count or (most == best_count and a > best):
                break
            most = bound[a]
            if most < best_count or (most == best_count and a > best):
                continue
            occ = occ_all[a]
            if occ is None:
                occ = occ_all[a] = list(set(self.occ_head[a] + self.occ_pos[a] + self.occ_neg[a]))
            count = 0
            for r in occ:
                if left[r] < block and val[r_head[r]] != TRUE:
                    count += 1
            if count < most:
                journal.append((a, most))
                bound[a] = count
            if count > best_count or (count == best_count and a < best):
                best, best_count = a, count
        if best < 0:
            raise RuntimeError("no undefined atom to branch on")
        return best, start

    @property
    def covered(self) -> bool:
        return len(self.trail) == len(self.val)

    def true_atoms(self) -> frozenset[Atom]:
        return frozenset([a for a, v in zip(self.atoms, self.val) if v == TRUE])

    def _accept(self) -> bool:
        """Hook: whether to report the covered assignment just reached."""
        return True

    def _prune(self) -> bool:
        """Hook: whether to drop the positive branch of a choice, called once
        that branch has expanded without conflict."""
        return False

    def _restore_bounds(self, noted: int) -> None:
        """Put back the bounds ``_choose`` lowered since its journal held
        ``noted`` entries, newest first, so each is as it was then."""
        journal, bound = self._journal, self._bound
        for a, most in reversed(journal[noted:]):
            bound[a] = most
        del journal[noted:]

    def _save(self) -> Counters:
        """A copy of the counters, for ``undo_to`` to restore."""
        return self.left[:], self.active[:]

    def _copy_budget(self) -> int:
        """How many entries the counter copies of one branch may hold: as
        many as the solver's own per-rule and per-atom lists, counting the
        slots of each list and the entries of the tuples and lists in them.
        That is, per rule, six slots (``r_head``, ``r_pos``, ``r_neg``,
        ``r_int``, ``left`` and its place in ``occ_head``) and each
        positive, negative and same-SCC body atom twice (``r_*`` and
        ``occ_*``), and per atom nine slots (``atoms``, ``val``,
        ``active``, ``source``, ``_cyclic`` and the four ``occ_*`` lists).
        A copy holds one entry per rule and one per atom, so a budget fits
        at least six copies."""
        body = sum(map(len, self.r_pos)) + sum(map(len, self.r_neg)) + sum(map(len, self.r_int))
        return 6 * len(self.r_head) + 9 * len(self.val) + 2 * body

    def _search(self) -> Iterator[frozenset[Atom]]:
        # One entry per choice whose positive branch is still to come: the
        # trail length before its negative branch, the chosen atom, the scan
        # position of _choose, before which every atom was assigned below
        # that trail length, the counters saved at that trail length, or
        # None, and the journal's length once _choose has taken its counts,
        # whose bounds hold in both branches.  The choices holding copies
        # are a prefix of the stack, so a choice takes one exactly while
        # fewer choices are pending than the budget holds copies: only the
        # shallowest choices of a branch have them.
        stack: list[tuple[int, int, int, Optional[Counters], int]] = []
        for a, v in self._initial:
            self._push(a, v)
        positive = False
        start = 0
        # A copy holds one entry per rule and one per atom, none in an empty program.
        copies = self._copy_budget() // max(1, len(self.r_head) + len(self.val))
        while True:
            if not self._expand():
                self.stats.conflicts += 1
            elif positive and self._prune():
                pass  # the hook dropped the branch
            elif self.covered:
                if self._accept():
                    yield self.true_atoms()
            else:
                if self._by_occurrence is None:  # the first choice
                    self._prune_blocked()
                    self._index_open_atoms()
                x, start = self._choose(start)
                self.stats.choices += 1
                saved = self._save() if len(stack) < copies else None
                stack.append((len(self.trail), x, start, saved, len(self._journal)))
                self._push(x, FALSE)
                positive = False
                continue
            if not stack:
                return
            mark, x, start, saved, noted = stack.pop()
            self.undo_to(mark, saved)
            if len(self._journal) > noted:
                self._restore_bounds(noted)
            self._push(x, TRUE)
            positive = True

    def models(self) -> Iterator[frozenset[Atom]]:
        if self._gen is None:
            self._gen = self._search()
        return self._gen

    def next_stable_model(self) -> Optional[frozenset[Atom]]:
        return next(self.models(), None)

    # -- stepping by hand (tests; tracers wrap these by name) ---------------------

    def assign_and_expand(self, pairs: Iterable[tuple[Atom, bool]]) -> bool:
        for atom, value in pairs:
            self._push(self.index[atom], TRUE if value else FALSE)
        return self._expand()

    # The former name, kept for tracers that wrap the search hooks by name.
    assign_and_extend = assign_and_expand

    def pick_atom(self) -> Atom:
        """The atom ``_search`` would branch on now, over a branching order
        built afresh; it prunes no list, so a search stepped by hand may
        undo to any point."""
        self._index_open_atoms()
        a, _ = self._choose()
        self.stats.choices += 1
        return self.atoms[a]

