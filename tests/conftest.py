import enum
import random
import sys
from itertools import combinations
from operator import attrgetter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional

import hypothesis
from hypothesis import strategies as st

from aspunfold import gnt
from aspunfold.partiality import QueryLiterals
from aspunfold.qbf import Qbf2E
from aspunfold.semantics import (
    DEFAULT_CAP,
    PartialInterpretation,
    UnknownAtomError,
    _atoms_of,
    _compile,
    _is_psm_masks,
    _mask,
    _Masks,
    _reduced_rules_masks,
    _require_cap,
)
from aspunfold.solver import FALSE, TRUE, Solver, SolverStats
from aspunfold.syntax import _MARKS, Atom, F_ATOM, Literal, Program, Rule, _known

hypothesis.settings.register_profile("det", derandomize=True, max_examples=60)
hypothesis.settings.load_profile("det")


# The paper's definitions (three-valued truth, reducts, unfounded sets, the
# negated QBF matrix), kept as test references.


class TruthValue(enum.IntEnum):
    FALSE = 0
    UNDEF = 1
    TRUE = 2


def symbol(v: TruthValue) -> str:
    return "fut"[v]


def empty_interpretation(base: Iterable[Atom]) -> PartialInterpretation:
    return PartialInterpretation(frozenset(), frozenset(), frozenset(base))


def atom_value(i: PartialInterpretation, atom: Atom) -> TruthValue:
    if atom not in i.base:
        raise UnknownAtomError(f"atom {atom.text} not in base")
    if atom in i.true_set:
        return TruthValue.TRUE
    if atom in i.false_set:
        return TruthValue.FALSE
    return TruthValue.UNDEF


def literal_value(i: PartialInterpretation, lit: Literal) -> TruthValue:
    v = atom_value(i, lit.atom)
    return v if lit.positive else TruthValue(2 - v)


def negated(lit: Literal) -> Literal:
    return Literal(lit.atom, not lit.positive)


def eval_conj(i: PartialInterpretation, literals: Iterable[Literal]) -> TruthValue:
    v = TruthValue.TRUE
    for lit in literals:
        v = min(v, literal_value(i, lit))
    return v


def eval_disj(i: PartialInterpretation, atoms: Iterable[Atom]) -> TruthValue:
    v = TruthValue.FALSE
    for a in atoms:
        v = max(v, atom_value(i, a))
    return v


def leq_truth(m1: PartialInterpretation, m2: PartialInterpretation) -> bool:
    """M1 <= M2 iff T1 <= T2 and F1 >= F2."""
    return m1.true_set <= m2.true_set and m1.false_set >= m2.false_set


def leq_knowledge(m1: PartialInterpretation, m2: PartialInterpretation) -> bool:
    """Componentwise inclusion: T1 <= T2 and F1 <= F2."""
    return m1.true_set <= m2.true_set and m1.false_set <= m2.false_set


def reference_maximal_models(models, ordering="truth"):
    """``maximal_models`` as it was: every model compared with every other."""
    leq = {"truth": leq_truth, "knowledge": leq_knowledge}[ordering]
    return [m for m in models if not any(leq(m, other) and m != other for other in models)]


def is_normal_rule(r: Rule) -> bool:
    return len(r.head) <= 1


def is_positive(p: Program) -> bool:
    return all(not r.neg for r in p.rules)


def body_literals(r: Rule) -> list[Literal]:
    return [Literal(a, True) for a in r.pos] + [Literal(a, False) for a in r.neg]


def satisfies(i: PartialInterpretation, rule: Rule) -> bool:
    return eval_disj(i, rule.head) >= eval_conj(i, body_literals(rule))


def is_partial_model(i: PartialInterpretation, p: Program) -> bool:
    return all(satisfies(i, r) for r in p.rules)


def is_total_model(i: PartialInterpretation, p: Program) -> bool:
    return i.is_total and is_partial_model(i, p)


def gl_reduct(p: Program, i: PartialInterpretation) -> Program:
    """Rules with false negative body, negative literals deleted (positive program)."""
    kept = tuple(
        Rule(r.head, r.pos, frozenset()) for r in p.rules if r.neg <= i.false_set
    )
    return Program(kept, base=p.base)


@dataclass(frozen=True)
class ReducedRule:
    """Rule of the three-valued reduct: negative literals folded to a constant.

    A rule whose negative part folds to false is inert: its body value is f,
    so it never constrains models.
    """

    head: frozenset[Atom]
    pos_body: frozenset[Atom]
    const_body: TruthValue

    @property
    def is_inert(self) -> bool:
        return self.const_body is TruthValue.FALSE


def tv_reduct(p: Program, m: PartialInterpretation) -> list[ReducedRule]:
    out = []
    for r in p.rules:
        const = eval_conj(m, (Literal(c, False) for c in r.neg))
        out.append(ReducedRule(r.head, r.pos, const))
    return out


def _unfounded_masks(ms: _Masks, t: int, f: int, u: int) -> bool:
    undef = ms.full & ~t & ~f
    for h, b, n in ms.rules:
        if not h & u:
            continue
        if b & f or n & t:  # UF1
            continue
        if b & u:  # UF2
            continue
        if h & ~u & (t | undef):  # UF3
            continue
        return False
    return True


def is_partial_stable_model(p: Program, m: PartialInterpretation, cap: int = DEFAULT_CAP) -> bool:
    _require_cap(len(p.base), cap, "partial-stable-model check")
    ms = _compile(p)
    t, f = _mask(ms, m.true_set), _mask(ms, m.false_set)
    return _is_psm_masks(_reduced_rules_masks(ms, t, f), t, f, ms.full)


def is_unfounded_set(p: Program, i: PartialInterpretation, u: Iterable[Atom]) -> bool:
    u = frozenset(u)
    if not u <= p.base:
        raise UnknownAtomError("unfounded-set candidate contains atoms outside the base")
    ms = _compile(p)
    return _unfounded_masks(ms, _mask(ms, i.true_set), _mask(ms, i.false_set), _mask(ms, u))


def is_consistent_unfounded(u: Iterable[Atom], i: PartialInterpretation) -> bool:
    return not frozenset(u) & i.true_set


def greatest_unfounded_set(
    p: Program, i: PartialInterpretation, cap: int = DEFAULT_CAP
) -> Optional[frozenset[Atom]]:
    """Union of all unfounded sets if that union is itself unfounded, else None."""
    _require_cap(len(p.base), cap, "greatest-unfounded-set search")
    ms = _compile(p)
    t, f = _mask(ms, i.true_set), _mask(ms, i.false_set)
    union = 0
    for u in range(ms.full + 1):
        if u & ~union and _unfounded_masks(ms, t, f, u):
            union |= u
    if _unfounded_masks(ms, t, f, union):
        return _atoms_of(ms, union)
    return None


def is_unfounded_free(p: Program, n: PartialInterpretation, cap: int = DEFAULT_CAP) -> bool:
    if not n.is_total:
        raise ValueError("unfounded-freeness is defined for total interpretations")
    _require_cap(len(p.base), cap, "unfounded-freeness check")
    ms = _compile(p)
    t, f = _mask(ms, n.true_set), _mask(ms, n.false_set)
    for u in range(1, ms.full + 1):
        if u & t and _unfounded_masks(ms, t, f, u):
            return False
    return True


def remove_unfounded(
    p: Program, m: PartialInterpretation, u: Iterable[Atom]
) -> PartialInterpretation:
    """Falsify an unfounded set inside a partial model of a positive program."""
    u = frozenset(u)
    if not is_positive(p):
        raise ValueError("remove_unfounded requires a positive program")
    if not is_partial_model(m, p):
        raise ValueError("interpretation is not a partial model of the program")
    if not is_unfounded_set(p, m, u):
        raise ValueError("set is not unfounded w.r.t. the interpretation")
    if not m.is_total and not is_consistent_unfounded(u, m):
        raise ValueError("unfounded set must be consistent when the model is partial")
    return PartialInterpretation(m.true_set - u, m.false_set | u, m.base)


@dataclass(frozen=True)
class NegClause:
    """Clause X1 or not-X2 or Y1 or not-Y2 of the negated DNF matrix."""

    x_pos: frozenset[Atom]
    x_neg: frozenset[Atom]
    y_pos: frozenset[Atom]
    y_neg: frozenset[Atom]

    def __post_init__(self) -> None:
        for name in ("x_pos", "x_neg", "y_pos", "y_neg"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if self.x_pos & self.x_neg or self.y_pos & self.y_neg:
            raise ValueError("clause sets must be disjoint within a variable class")


def negate_dnf(q: Qbf2E) -> list[NegClause]:
    """De Morgan: each DNF term becomes one clause with every literal flipped."""
    xs = set(q.x_vars)
    out = []
    for term in q.terms:
        x_pos, x_neg, y_pos, y_neg = set(), set(), set(), set()
        for lit in term:
            if lit.atom in xs:
                (x_neg if lit.positive else x_pos).add(lit.atom)
            else:
                (y_neg if lit.positive else y_pos).add(lit.atom)
        out.append(NegClause(frozenset(x_pos), frozenset(x_neg), frozenset(y_pos), frozenset(y_neg)))
    return out


def base_atom(a: Atom) -> Atom:
    """The atom a mark was applied to; identity for plain/reserved atoms."""
    if a.text.startswith(_MARKS):
        return _known(a.text[3:])
    return a


def tr2_query(q: QueryLiterals) -> QueryLiterals:
    return QueryLiterals(q.literals | {Literal(F_ATOM, False)})


# The random programs take their atoms from the front of PROGRAM_POOL, up to
# 20 atoms.  Its first six are ATOM_POOL, so the draws at the default sizes
# are those of the six-atom pool.
PROGRAM_POOL = tuple(Atom(ch) for ch in "abcdefghijklmnopqrst")
ATOM_POOL = PROGRAM_POOL[:6]


def random_normal_program(seed, max_atoms=6, max_rules=10, constraints=True, min_atoms=1):
    rng = random.Random(("normal", seed).__repr__())
    atoms = list(PROGRAM_POOL[: rng.randint(min_atoms, max_atoms)])
    rules = []
    for _ in range(rng.randint(0, max_rules)):
        if constraints and rng.random() < 0.15:
            head = frozenset()
        else:
            head = frozenset([rng.choice(atoms)])
        pos = frozenset(rng.sample(atoms, rng.randint(0, min(2, len(atoms)))))
        neg = frozenset(rng.sample(atoms, rng.randint(0, min(2, len(atoms)))))
        rules.append(Rule(head, pos, neg))
    return Program(tuple(rules), base=frozenset(atoms))


def random_disjunctive_program(seed, max_atoms=6, max_rules=8, constraints=True, min_atoms=2):
    rng = random.Random(("disj", seed).__repr__())
    atoms = list(PROGRAM_POOL[: rng.randint(min_atoms, max_atoms)])
    rules = []
    for k in range(rng.randint(1, max_rules)):
        if constraints and k > 0 and rng.random() < 0.12:
            head = frozenset()
        else:
            size = rng.randint(2, 3) if k == 0 else rng.randint(1, 3)
            head = frozenset(rng.sample(atoms, min(size, len(atoms))))
        pos = frozenset(rng.sample(atoms, rng.randint(0, 2)))
        neg = frozenset(rng.sample(atoms, rng.randint(0, 2)))
        rules.append(Rule(head, pos, neg))
    if all(len(r.head) < 2 for r in rules):
        rules[0] = Rule(frozenset(atoms[:2]), rules[0].pos, rules[0].neg)
    return Program(tuple(rules), base=frozenset(atoms))


def random_positive_program(seed, max_atoms=5, max_rules=6):
    rng = random.Random(("pos", seed).__repr__())
    atoms = list(PROGRAM_POOL[: rng.randint(1, max_atoms)])
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = frozenset(rng.sample(atoms, rng.randint(1, min(3, len(atoms)))))
        pos = frozenset(rng.sample(atoms, rng.randint(0, min(2, len(atoms)))))
        rules.append(Rule(head, pos, frozenset()))
    return Program(tuple(rules), base=frozenset(atoms))


def random_partial_interpretation(rng, base):
    t, f = set(), set()
    for a in sorted(base):  # sorted so the draw order is hash-independent
        r = rng.random()
        if r < 1 / 3:
            t.add(a)
        elif r < 2 / 3:
            f.add(a)
    return PartialInterpretation(frozenset(t), frozenset(f), frozenset(base))


def random_total_interpretation(rng, base):
    return PartialInterpretation.total(
        frozenset(a for a in sorted(base) if rng.random() < 0.5), frozenset(base)
    )


@contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to `frames` above the current stack depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def gated_early_prunes(rng, p, samples):
    """Expand `samples` random partial interpretations of p on its gnt2
    generator.  For each one where the early test fails and the set it
    teaches fires, so that the search prunes, yield whether a stable model of
    p still extends the assignment (its true atoms true, its false atoms
    false).  A sound gate yields only False."""
    from aspunfold.gentest import gen_program
    from aspunfold.gnt import GntConfig, _Generator
    from aspunfold.semantics import enumerate_stable_models
    from aspunfold.solver import FALSE

    stable = enumerate_stable_models(p)
    for _ in range(samples):
        i = random_partial_interpretation(rng, p.base)
        g = _Generator(gen_program(p), GntConfig())
        if not g.assign_and_expand([(a, True) for a in i.true_set] + [(a, False) for a in i.false_set]):
            continue
        if g._minimal() or not g._fires(*g.learned[-1]):
            continue
        true = g.true_atoms() & p.base
        false = {a for a in p.base if g.val[g.index[a]] == FALSE}
        yield any(true <= m and not m & false for m in stable)


class WalkingSolver(Solver):
    """A solver whose search never copies its counters: every backtrack
    walks the occurrence lists back, as every backtrack did before choices
    near the root kept a copy."""

    def _copy_budget(self):
        return 0


def with_f(p):
    """``p`` with each constraint ``:- body`` written ``__f :- body, not
    __f``, as constructions held them before the solver read empty heads.
    ``__f`` sorts before every other atom: unless p holds it, it is added
    as atom 0 and every other number moves up by one, in a generator's
    lift and complement map too."""
    from aspunfold.gentest import GeneratorTable

    shift = 0 if p.atoms and p.atoms[0] == F_ATOM else 1

    def up(xs):
        return tuple([x + shift for x in xs])

    rules = [
        (up(head), up(pos), up(neg)) if head else ((0,), up(pos), tuple(sorted({0, *up(neg)})))
        for head, pos, neg in p.rows
    ]
    out = type(p).of_table((F_ATOM,) * shift + p.atoms, rules)
    if isinstance(p, GeneratorTable):
        out.inputs = [(up(head), up(pos), up(neg)) for head, pos, neg in p.inputs]
        out.lift = up(p.lift)
        out.complement = {a + shift: c + shift for a, c in p.complement.items()}
    return out


class WithoutRootInference(Solver):
    """A solver as it was before set-up fixed false every atom whose rules
    all have it in their negative body: at the root, facts true and atoms
    that head no rule false.  For the generators and testers of gnt, which
    held ``__f`` then: the program is searched as ``with_f`` writes it."""

    def __init__(self, program, *args):
        super().__init__(with_f(program), *args)
        self._initial = [(a, v) for a, v in self._initial if v == TRUE or not self.occ_head[a]]


class ReferenceTester:
    """The minimality tester of one search as it was before set-up fixed
    self-blocking atoms false: ``test_program`` of the source, taken once,
    each tester searched without the root inference, and the solver and
    the tester model of the latest test."""

    def __init__(self, source):
        self.testers = gnt.test_program(source)
        self.solver = None
        # The candidate's atoms true in the latest tester model; None if
        # the test passed.
        self.model = None

    def minimal(self, candidate):
        program, numbers = self.testers.tester(candidate)
        self.solver = WithoutRootInference(program)
        search = self.solver.models()
        found = next(search, None) is not None
        search.close()
        self.model = None
        if found:
            # with_f may number __f first: the tester's atoms are the last.
            val = self.solver.val[len(self.solver.atoms) - len(numbers) :]
            false = {a for a, v in zip(numbers, val) if v == FALSE}
            self.model = frozenset(a for a in candidate if a not in false)
        return not found


def reference_minimal_test(generator, candidate):
    """``gnt.minimal_test`` as it was, over the generator's
    ``ReferenceTester``: the test and the tester's search counted in the
    generator's statistics, and nothing learned."""
    ok = generator.tester.minimal(candidate)
    generator.gnt_stats.minimal_tests += 1
    generator.tester_stats.merge(generator.tester.solver.stats)
    return ok


class RootlessGenerator(WithoutRootInference, gnt._Generator):
    """The generator of ``solve_disjunctive`` as it was before set-up fixed
    self-blocking atoms false, in the generator and in every tester: a
    failed test teaches it T - N, the candidate less its tester model."""

    def __init__(self, g, config):
        super().__init__(g, config)
        self.tester = ReferenceTester(self.program)

    def _minimal(self):
        candidate = [a for a in self.program.lift if self.val[a] == TRUE]
        if reference_minimal_test(self, candidate):
            return True
        self._learn([a for a in candidate if a not in self.tester.model])
        return False


class ReferenceGenerator(WithoutRootInference):
    """The generator of ``solve_disjunctive`` as it was before failed tests
    taught it unfounded sets: the minimality test on covered candidates and
    the gated early test on positive branches, nothing learned, and no root
    inference in the generator or its testers."""

    def __init__(self, g, p, config):
        super().__init__(g)
        self.p = p
        self.lift = self.program.lift
        self.config = config
        self.gnt_stats = gnt.GntStats()
        self.tester_stats = SolverStats()
        self.tester = ReferenceTester(self.program)
        self.was_covered = False

    def _minimal(self):
        return reference_minimal_test(self, [a for a in self.lift if self.val[a] == TRUE])

    def _early_test_sound(self):
        val = self.val
        for head, pos, neg in self.program.inputs:
            if (
                any(val[h] == TRUE for h in head)
                and not all(val[b] == TRUE for b in pos)
                and not any(val[b] == FALSE for b in pos)
                and not any(val[c] == TRUE for c in neg)
            ):
                return False
        return True

    def _accept(self):
        self.was_covered = True
        self.gnt_stats.candidates_covered += 1
        return self._minimal()

    def _prune(self):
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


def reference_solve_disjunctive(p, mode="gnt2", enumerate_all=False, config=None, learning=False):
    """``solve_disjunctive`` over ``ReferenceGenerator``: the reference for
    its models in every generator mode, and for the counts it had before
    learning and the root inference.  With ``learning``, over
    ``RootlessGenerator``: the counts it had before the root inference."""
    g, config = gnt._GENERATORS[mode](p), config or gnt.GntConfig()
    generator = RootlessGenerator(g, config) if learning else ReferenceGenerator(g, p, config)
    seen, models = set(), []
    search = generator.models()
    for n in search:
        if n & p.base not in seen:
            seen.add(n & p.base)
            models.append(n & p.base)
        if not enumerate_all:
            break
    search.close()
    models.sort(key=sorted)
    solver_stats = SolverStats()
    solver_stats.merge(generator.stats)
    solver_stats.merge(generator.tester_stats)
    return gnt.SolveResult(models, generator.gnt_stats, solver_stats)


def _constraint(pos, neg):
    return Rule(frozenset(), frozenset(pos), frozenset(neg))


def _heads(rules):
    """The head atoms of the disjunctive rules among ``rules``, sorted."""
    return sorted({a for r in rules if not is_normal_rule(r) for a in r.head})


def candidate_tester(p, m):
    """``test_program(p)``'s tester of the candidate m, named by its atoms."""
    testers = gnt.test_program(p)
    return testers.tester(testers.numbers(m))[0]


def reference_test_program(p, m):
    """The tester of candidate m built rule by rule from p: the reference for
    ``test_program(p)``'s tester of m, atoms, rules and order.  An atom of m
    is fixed when a rule ``h :- not neg`` of p with neg missing m makes it
    a fact of the reduct P^m.  The tester holds the other atoms of m, the
    open ones, and the complement marks of the open disjunctive head atoms;
    each rule loses the fixed atoms of its positive body, and a disjunctive
    rule with a fixed head atom gives no constraint."""
    from aspunfold.syntax import complement

    reduct = [r for r in p.rules if not r.neg & m and r.pos <= m]
    fixed = {a for r in reduct if len(r.head) == 1 and not r.pos for a in r.head & m}
    opened = m - fixed
    marked = [a for a in _heads(p.rules) if a in opened]
    live = [r for r in reduct if not is_normal_rule(r)]
    rules = []
    for r in live:
        for a in sorted(r.head & opened):
            rules.append(Rule(frozenset([a]), r.pos - fixed, frozenset([complement(a)])))
    for a in marked:
        rules.append(Rule(frozenset([complement(a)]), frozenset(), frozenset([a])))
    for r in live:
        if not r.head & fixed:
            rules.append(_constraint(r.pos - fixed, r.head & opened))
    for r in reduct:
        if r.head and is_normal_rule(r) and r.head <= opened:
            rules.append(Rule(r.head, r.pos - fixed, frozenset()))
    rules = [*dict.fromkeys(rules), _constraint(opened, [])]
    return Program(rules, base=opened | {complement(a) for a in marked})


# The generators built rule by rule, as they were before they became
# transforms of rule tables: the references for gen_naive, gen_basic,
# support_program and gen_program, rules, order and base.


def reference_gen_naive(p):
    from aspunfold.syntax import complement, reject_marked

    reject_marked(p.base, "complement/support", "gen_naive")
    rules = []
    for a in sorted(p.base):
        rules.append(Rule(frozenset([a]), frozenset(), frozenset([complement(a)])))
        rules.append(Rule(frozenset([complement(a)]), frozenset(), frozenset([a])))
    for r in p.rules:
        rules.append(_constraint(r.pos, r.head | r.neg))
    return Program(tuple(dict.fromkeys(rules)), base=p.base)


def reference_gen_basic(p):
    from aspunfold.syntax import complement, reject_marked

    reject_marked(p.base, "complement/support", "gen_basic")
    disjunctive = [r for r in p.rules if not is_normal_rule(r)]
    rules = []
    for r in disjunctive:
        for a in sorted(r.head):
            rules.append(Rule(frozenset([a]), r.pos, r.neg | {complement(a)}))
    for a in _heads(p.rules):
        rules.append(Rule(frozenset([complement(a)]), frozenset(), frozenset([a])))
    for r in disjunctive:
        rules.append(_constraint(r.pos, r.head | r.neg))
    rules += [r for r in p.rules if is_normal_rule(r)]
    return Program(tuple(dict.fromkeys(rules)), base=p.base)


def reference_support_program(p):
    from aspunfold.syntax import reject_marked, support

    reject_marked(p.base, "complement/support", "support_program")
    heads = _heads(p.rules)
    rules = []
    for r in p.rules:
        for a in sorted(r.head & set(heads)):
            rules.append(Rule(frozenset([support(a)]), r.pos, (r.head - {a}) | r.neg))
    for a in heads:
        rules.append(_constraint([a], [support(a)]))
    return Program(tuple(dict.fromkeys(rules)), base=p.base)


def reference_gen_program(p):
    rules = reference_gen_basic(p).rules + reference_support_program(p).rules
    return Program(tuple(dict.fromkeys(rules)), base=p.base)


def reference_table_of(rules, base):
    """The program of rules over base, which holds every occurring atom, as a
    table numbered here by sorting the base: independent of the numbering
    ``Program(rules, base)`` does and of the parser's."""
    atoms = sorted(base, key=attrgetter("text"))
    index = {a: i for i, a in enumerate(atoms)}
    return Program.of_table(
        atoms,
        [
            (
                tuple(sorted([index[a] for a in r.head])),
                tuple(sorted([index[a] for a in r.pos])),
                tuple(sorted([index[a] for a in r.neg])),
            )
            for r in rules
        ],
    )


def reference_parse_program(text, allow_reserved=False):
    """The parser as it was before programs were stored as rule tables: it
    builds a ``Rule`` per line, checking every token where it occurs.  The
    reference for ``parse_program``: rules, order and base."""
    from aspunfold.parser import ParseError, _tokenize
    from aspunfold.syntax import has_reserved_prefix, parse_atom_text

    def atom(tok, lineno, col):
        if tok == "not":
            raise ParseError("'not' is a keyword, not an atom", lineno, col)
        if not allow_reserved and has_reserved_prefix(tok):
            raise ParseError(f"reserved prefix in atom {tok!r}", lineno, col)
        try:
            return parse_atom_text(tok) if allow_reserved else Atom(tok)
        except ValueError:
            raise ParseError(f"invalid atom {tok!r}", lineno, col)

    def rule(line, lineno):
        toks = list(_tokenize(line, lineno))
        end = ("", len(line.rstrip()) + 1)
        i = 0

        def peek():
            return toks[i][0] if i < len(toks) else ""

        head = []
        if peek() != ":-":
            while True:
                tok, col = toks[i] if i < len(toks) else end
                if tok in {"", ".", ":-", "|", ","}:
                    raise ParseError("expected atom", lineno, col)
                head.append(atom(tok, lineno, col))
                i += 1
                if peek() != "|":
                    break
                i += 1
        pos, neg = [], []
        if peek() == ":-" and not head and i + 1 < len(toks) and toks[i + 1][0] == ".":
            i += 1  # the constraint without a body
        elif peek() == ":-":
            i += 1
            while True:
                negated = peek() == "not"
                i += negated
                tok, col = toks[i] if i < len(toks) else end
                if tok in {"", ".", ":-", "|", ",", "not"}:
                    raise ParseError("expected body literal", lineno, col)
                (neg if negated else pos).append(atom(tok, lineno, col))
                i += 1
                if peek() != ",":
                    break
                i += 1
        tok, col = toks[i] if i < len(toks) else end
        if tok != ".":
            raise ParseError("expected '.'", lineno, col)
        i += 1
        if i != len(toks):
            raise ParseError("trailing input after '.'", lineno, toks[i][1])
        return Rule(frozenset(head), frozenset(pos), frozenset(neg))

    rules = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%", 1)[0]
        if line.strip():
            rules.append(rule(line, lineno))
    return Program(tuple(rules))


def reference_unfold_partiality(p):
    """``tr`` built rule by rule, as it was before it became a transform of
    rule tables: the reference for ``unfold_partiality``."""
    from aspunfold.syntax import potential, reject_marked

    reject_marked(p.base, "potential-marked", "unfold_partiality")
    rules = []
    for r in p.rules:
        rules.append(Rule(r.head, r.pos, frozenset(potential(c) for c in r.neg)))
        rules.append(
            Rule(
                frozenset(potential(a) for a in r.head),
                frozenset(potential(b) for b in r.pos),
                r.neg,
            )
        )
    for a in sorted(p.base):
        rules.append(Rule(frozenset([potential(a)]), frozenset([a]), frozenset()))
    return Program(tuple(rules), base=p.base | {potential(a) for a in p.base})


def assert_same_program(got, want):
    """A transform matches its reference: rules in order, base, table and
    rendering."""
    assert got.rules == want.rules
    assert got.base == want.base
    assert (got.atoms, got.rows) == (want.atoms, want.rows)
    assert got.render() == want.render()


def reference_clause_translation(c, i):
    """The per-clause rule groups of the QBF translation (activity choice,
    explanation, unsatisfiability), built rule by rule as the translation
    was before it became a table transform."""
    from aspunfold.syntax import U_ATOM, clause_atom, clause_negation_atom

    ci, nci = clause_atom(i), clause_negation_atom(i)
    tr_v = (
        Rule(frozenset([ci]), frozenset(), frozenset([nci])),
        Rule(frozenset([nci]), frozenset(), frozenset([ci])),
    )
    tr_e = tuple(
        Rule(frozenset(), frozenset([x]), frozenset([nci])) for x in sorted(c.x_pos)
    ) + tuple(
        Rule(frozenset([x]), frozenset(), frozenset([nci])) for x in sorted(c.x_neg)
    ) + (Rule(frozenset(), c.x_neg, c.x_pos | {ci}),)
    tr_u = tuple(
        Rule(frozenset([y]), frozenset([U_ATOM]), frozenset())
        for y in sorted(c.y_pos | c.y_neg)
    ) + (Rule(c.y_pos | {U_ATOM}, c.y_neg, frozenset([nci])),)
    return tr_v, tr_e, tr_u


def reference_qbf_to_program(q):
    """The reference for ``qbf_to_program``: rules, order and base."""
    from aspunfold.syntax import U_ATOM

    rules = []
    for i, c in enumerate(negate_dnf(q), 1):
        for group in reference_clause_translation(c, i):
            rules.extend(group)
    rules.append(Rule(frozenset([U_ATOM]), frozenset(), frozenset([U_ATOM])))
    return Program(tuple(dict.fromkeys(rules)))


def reference_parse_qbf(text):
    """``parse_qbf`` as it was before it checked term lines as it read them:
    every token of every line is read first, then the terms are checked in
    the order a frozenset walks them, and such an error has no line.  The
    reference for the parser on texts whose terms have at most one fault."""
    from aspunfold.qbf import Qbf2E, QbfParseError

    lines = text.splitlines()
    if not lines or not (lines[0] == "e" or lines[0].startswith("e ")):
        raise QbfParseError("expected existential block 'e ...'", 1)
    if len(lines) < 2 or not (lines[1] == "a" or lines[1].startswith("a ")):
        raise QbfParseError("expected universal block 'a ...'", 2)

    def var(tok, lineno):
        try:
            return Atom(tok)
        except ValueError as exc:
            raise QbfParseError(str(exc), lineno)

    x_vars = tuple(var(t, 1) for t in lines[0][1:].split())
    y_vars = tuple(var(t, 2) for t in lines[1][1:].split())
    terms = []
    for lineno, raw in enumerate(lines[2:], 3):
        toks = raw.split()
        if not toks:
            raise QbfParseError("empty term line", lineno)
        term = set()
        for tok in toks:
            positive = not tok.startswith("-")
            name = tok if positive else tok[1:]
            term.add(Literal(var(name, lineno), positive))
        terms.append(frozenset(term))
    xs, ys = set(x_vars), set(y_vars)
    if xs & ys:
        raise QbfParseError("a variable cannot be both existential and universal")
    for term in terms:
        for lit in term:
            if lit.atom not in xs and lit.atom not in ys:
                raise QbfParseError(f"term variable {lit.atom.text} not quantified")
            if negated(lit) in term:
                raise QbfParseError(f"term contains complementary pair on {lit.atom.text}")
    return Qbf2E(x_vars, y_vars, tuple(terms))


def reference_tr2_program(p):
    """``tr2`` built rule by rule: the reference for ``tr2_program``."""
    from aspunfold.partiality import unfold_partiality
    from aspunfold.syntax import potential

    if F_ATOM in p.base:
        raise ValueError("tr2 requires the reserved atom __f to be fresh")
    trp = unfold_partiality(p)
    extra = tuple(
        Rule(frozenset([F_ATOM]), frozenset([potential(a)]), frozenset([a]))
        for a in sorted(p.base)
    )
    return Program(trp.rules + extra, base=trp.base | {F_ATOM})


def reference_query_constraint_rules(q):
    """Constraint rules forcing every literal of q true in a stable model."""
    rules = []
    for lit in sorted(q.literals):
        if lit.positive:
            rules.append(Rule(frozenset(), frozenset(), frozenset([lit.atom])))
        else:
            rules.append(Rule(frozenset(), frozenset([lit.atom])))
    return tuple(rules)


def reference_query_constrained(p, q):
    """The reference for ``query_constrained``: rules, order and base."""
    return Program(p.rules + reference_query_constraint_rules(q), base=p.base)


def reference_check_total_stable(p, n, cap=12):
    """``check_total_stable`` as it was, over the object-level model check."""
    from aspunfold.semantics import is_stable_model

    if not is_total_model(n, p):
        return "rule unsatisfied"
    if not is_stable_model(p, n, cap):
        return "not minimal model of reduct"
    return None


def reference_check_partial_stable(p, m, cap=12):
    """``check_partial_stable`` as it was, deciding with the masks and naming
    the failed condition from the object-level reducts: the reference for
    its verdict and reason."""
    def reduced_satisfies(i, rr):
        body = min(eval_conj(i, (Literal(b, True) for b in rr.pos_body)), rr.const_body)
        return eval_disj(i, rr.head) >= body

    if not all(reduced_satisfies(m, rr) for rr in tv_reduct(p, m)):
        return "rule unsatisfied"
    if is_partial_stable_model(p, m, cap):
        return None
    glred = gl_reduct(p, m)
    smaller = (
        frozenset(sub)
        for k in range(len(m.true_set))
        for sub in combinations(sorted(m.true_set), k)
    )
    if not is_total_model(PartialInterpretation.total(m.true_set, p.base), glred) or any(
        is_total_model(PartialInterpretation.total(sub, p.base), glred) for sub in smaller
    ):
        return "not minimal model of reduct"
    return "unfounded-set condition violated"


def unfounded_sets(p, i, cap=12):
    """All unfounded sets w.r.t. i, the empty set included."""
    _require_cap(len(p.base), cap, "unfounded-set enumeration")
    ms = _compile(p)
    t, f = _mask(ms, i.true_set), _mask(ms, i.false_set)
    for u in range(ms.full + 1):
        if _unfounded_masks(ms, t, f, u):
            yield _atoms_of(ms, u)


def rule_as_clause(rule):
    """Positive disjunctive rule read as the clause head-or-not-body."""
    from aspunfold.bench import Clause

    if rule.neg:
        raise ValueError("only positive rules can be read as clauses")
    return Clause(rule.head, rule.pos)


def _clause_masks(clauses, atoms):
    index = {a: i for i, a in enumerate(atoms)}
    return [(sum(1 << index[a] for a in c.pos), sum(1 << index[a] for a in c.neg)) for c in clauses]


def clause_atoms(clauses):
    out = set()
    for c in clauses:
        out |= c.atoms
    return frozenset(out)


def satisfiable(clauses, atoms=(), cap=12):
    """Truth-table satisfiability over the occurring atoms plus any extras."""
    universe = sorted(clause_atoms(clauses) | frozenset(atoms))
    _require_cap(len(universe), cap, "satisfiability check")
    cms = _clause_masks(clauses, universe)
    return any(all(p & m or n & ~m for p, n in cms) for m in range(1 << len(universe)))


def minimal_models_containing(clauses, specified, cap=12):
    """Whether some subset-minimal model of the clauses contains all specified atoms."""
    specified = frozenset(specified)
    universe = sorted(clause_atoms(clauses) | specified)
    _require_cap(len(universe), cap, "minimal-model search")
    cms = _clause_masks(clauses, universe)
    index = {a: i for i, a in enumerate(universe)}
    spec = sum(1 << index[a] for a in specified)
    models = [m for m in range(1 << len(universe)) if all(p & m or n & ~m for p, n in cms)]
    models.sort(key=lambda m: (bin(m).count("1"), m))
    minimal = []
    for m in models:
        if not any(mm & m == mm for mm in minimal):
            minimal.append(m)
            if spec & m == spec:
                return True
    return False


@dataclass(frozen=True)
class ExpandResult:
    literals: frozenset[Literal]
    conflict: bool


def expand(program, literals=()):
    """Expand the assumed literals (with the program's facts) on a throwaway
    solver: every literal derived, and whether expansion hit a conflict."""
    from aspunfold.solver import FALSE, TRUE, UNDEF, Solver

    s = Solver(program)
    for a, v in s._initial:
        s._push(a, v)
    for lit in literals:
        s._push(s.index[lit.atom], TRUE if lit.positive else FALSE)
    ok = s._expand()
    lits = frozenset(
        Literal(s.atoms[a], s.val[a] == TRUE)
        for a in range(len(s.atoms))
        if s.val[a] != UNDEF
    )
    return ExpandResult(lits, not ok)


def unfounded_atoms(s, val=None):
    """The greatest unfounded set of an assignment to a solver's atoms, its
    current one by default, computed over the whole program: the complement
    of the least fixpoint of "can still be derived", where a rule with no
    false body literal derives its head once its positive body atoms are
    derived."""
    from aspunfold.solver import FALSE, TRUE

    val = s.val if val is None else val
    derived = [False] * len(val)
    missing = [len(pos) for pos in s.r_pos]
    blocked = [
        any(val[b] == FALSE for b in s.r_pos[r]) or any(val[c] == TRUE for c in s.r_neg[r])
        for r in range(len(s.r_head))
    ]
    stack = [r for r in range(len(s.r_head)) if not blocked[r] and not missing[r]]
    while stack:
        h = s.r_head[stack.pop()]
        if derived[h]:
            continue
        derived[h] = True
        for r in s.occ_pos[h]:
            if not blocked[r]:
                missing[r] -= 1
                if missing[r] == 0:
                    stack.append(r)
    return {a for a in range(len(val)) if not derived[a]}


def reference_sccs(s):
    """A solver's cyclic atoms, ``r_int`` and ``occ_int`` as set-up computed
    them before it left the atoms on no positive cycle out of Tarjan: one
    iterative Tarjan over every atom of the positive dependency graph."""
    n = len(s.val)
    succ = [[b for r in s.occ_head[a] for b in s.r_pos[r]] for a in range(n)]
    order, low, comp = [-1] * n, [0] * n, [-1] * n
    cyclic = [False] * n
    stack = []
    count = n_comps = 0
    for root in range(n):
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
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    for w in members:
                        comp[w] = n_comps
                        cyclic[w] = len(members) > 1 or v in succ[v]
                    n_comps += 1
    r_int = [()] * len(s.r_head)
    # An acyclic atom is in no rule's internal body: its occ_int is ().
    occ_int = [[] if c else () for c in cyclic]
    for r, h in enumerate(s.r_head):
        if cyclic[h]:
            r_int[r] = tuple([b for b in s.r_pos[r] if comp[b] == comp[h]])
            for b in r_int[r]:
                occ_int[b].append(r)
    return cyclic, r_int, occ_int


def reference_choose(s):
    """The branching rule recounted in full at every call, over every rule
    and every undefined atom, with no bound and no early stop: the undefined
    atom occurring (in head or body) in the most rules whose head is not true
    and whose body has no false literal, the lowest index on ties."""
    from aspunfold.solver import FALSE, TRUE, UNDEF

    counts = [0] * len(s.val)
    for r, h in enumerate(s.r_head):
        blocked = any(s.val[b] == FALSE for b in s.r_pos[r]) or any(s.val[c] == TRUE for c in s.r_neg[r])
        if s.val[h] == TRUE or blocked:
            continue
        for a in {h, *s.r_pos[r], *s.r_neg[r]}:
            counts[a] += 1
    undefined = [a for a in range(len(s.atoms)) if s.val[a] == UNDEF]
    return min(undefined, key=lambda a: (-counts[a], a))


class _Contradiction(Exception):
    pass


def reference_expand(s, literals):
    """The fixpoint of the solver's inference rules over its rule table, from
    the given (atom number, value) pairs, with no counters and no trail:
    every rule is scanned until a whole pass changes nothing.  A rule whose
    body is true fires; an atom with no unblocked rule (no body literal
    false) is false; a true atom with one unblocked rule makes that rule's
    body true; an unblocked rule with a false head and one open body literal
    makes it false; and every atom of the greatest unfounded set is false.
    The values, or None once some atom is derived both true and false."""
    from aspunfold.solver import FALSE, TRUE, UNDEF

    val = [UNDEF] * len(s.val)

    def assign(a, v):
        """Whether this assigns a."""
        if val[a] == UNDEF:
            val[a] = v
            return True
        if val[a] != v:
            raise _Contradiction
        return False

    # Each rule as its head and its body literals, (atom, value that makes
    # the literal true).
    rules = [
        (h, [(b, TRUE) for b in pos] + [(c, FALSE) for c in neg])
        for h, pos, neg in zip(s.r_head, s.r_pos, s.r_neg)
    ]
    try:
        for a, v in literals:
            assign(a, v)
        changed = True
        while changed:
            changed = False
            unblocked = [[] for _ in val]
            for h, body in rules:
                if any(val[b] not in (UNDEF, v) for b, v in body):
                    continue
                unblocked[h].append(body)
                open_literals = [(b, v) for b, v in body if val[b] == UNDEF]
                if not open_literals:
                    changed |= assign(h, TRUE)
                elif len(open_literals) == 1 and val[h] == FALSE:
                    b, v = open_literals[0]
                    changed |= assign(b, FALSE if v == TRUE else TRUE)
            for a, bodies in enumerate(unblocked):
                if not bodies:
                    changed |= assign(a, FALSE)
                elif len(bodies) == 1 and val[a] == TRUE:
                    for b, v in bodies[0]:
                        changed |= assign(b, v)
            for a in unfounded_atoms(s, val):
                changed |= assign(a, FALSE)
    except _Contradiction:
        return None
    return val


# hypothesis strategies over the same shapes

atom_st = st.sampled_from(ATOM_POOL)
atom_set_st = st.frozensets(atom_st, max_size=4)


@st.composite
def rule_st(draw):
    head = draw(st.frozensets(atom_st, min_size=1, max_size=3))
    return Rule(head, draw(atom_set_st), draw(atom_set_st))


@st.composite
def program_st(draw):
    rules = draw(st.lists(rule_st(), max_size=8))
    return Program(tuple(rules))


@st.composite
def interpretation_st(draw, base=ATOM_POOL):
    t, f = set(), set()
    for a in base:
        bucket = draw(st.integers(0, 2))
        if bucket == 0:
            t.add(a)
        elif bucket == 1:
            f.add(a)
    return PartialInterpretation(frozenset(t), frozenset(f), frozenset(base))
