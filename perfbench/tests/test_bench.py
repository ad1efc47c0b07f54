"""Tests of the benchmark's own code: generator, checker, sampling, tracer.

    python3 -m pytest perfbench/tests
"""

import itertools
import random

import aspunfold as A
import checks
import workloads
from aspunfold.semantics import PartialInterpretation, is_stable_model
from aspunfold.syntax import parse_atom_text
from tracing import Tracer


def test_partial_generator_is_deterministic_per_seed():
    for seed in range(5):
        first = workloads.partial_rules(seed, 200, 400)
        assert first == workloads.partial_rules(seed, 200, 400)
        assert workloads.render_rules(first) == workloads.render_rules(workloads.partial_rules(seed, 200, 400))
    assert workloads.partial_rules(0, 200, 400) != workloads.partial_rules(1, 200, 400)
    for head, pos, neg in workloads.partial_rules(3, 200, 400):
        assert 0 <= len(pos) <= 2 and 1 <= len(neg) <= 2


def _random_program(rng, n_atoms):
    names = [f"a{i}" for i in range(n_atoms)]
    rules = []
    for _ in range(rng.randint(0, 2 * n_atoms)):
        head = rng.choice(names + ["__f"])
        pos = rng.sample(names, rng.randint(0, min(2, n_atoms)))
        neg = rng.sample(names, rng.randint(0, min(2, n_atoms))) + (["__f"] if head == "__f" else [])
        rules.append((head, tuple(pos), tuple(neg)))
    return names, rules


def _atoms(names):
    return frozenset(parse_atom_text(x) for x in names)


def _as_program(names, rules):
    rs = tuple(A.Rule(_atoms([h]), _atoms(pos), _atoms(neg)) for h, pos, neg in rules)
    return A.Program(rs, base=_atoms(names))


def test_least_model_checker_agrees_with_the_oracle():
    rng = random.Random(2024)
    verdicts = []
    for _ in range(60):
        names, rules = _random_program(rng, rng.randint(1, 11))  # plus __f: at most 12 atoms
        program = _as_program(names, rules)
        base = sorted(a.text for a in program.base)
        if len(base) <= 7:
            candidates = [
                set(c) for k in range(len(base) + 1) for c in itertools.combinations(base, k)
            ]
        else:
            candidates = [set(rng.sample(base, rng.randint(0, len(base)))) for _ in range(40)]
            candidates += [{a.text for a in m} for m in A.enumerate_stable_models(program)]
        for true in candidates:
            interp = PartialInterpretation.total(_atoms(true), program.base)
            verdict = checks.is_stable(rules, true)
            assert verdict == is_stable_model(program, interp), (rules, true)
            verdicts.append(verdict)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_partiality_translation_matches_the_package():
    rules = workloads.partial_rules(5, 20, 30)
    p = A.parse_program(workloads.render_rules(rules))
    ours = {(h, frozenset(pos), frozenset(neg)) for h, pos, neg in checks.partiality_translation(rules)}
    theirs = {
        (next(iter(r.head)).text, frozenset(a.text for a in r.pos), frozenset(a.text for a in r.neg))
        for r in A.unfold_partiality(p).rules
    }
    assert ours == theirs


def test_sample_takes_one_instance_per_stratum():
    entries = [{"work": w} for w in random.Random(1).choices(range(50), k=100)]
    sample = workloads.draw_sample(entries, 3, 12)
    assert sample == workloads.draw_sample(entries, 3, 12)
    assert sample != workloads.draw_sample(entries, 4, 12)
    order = sorted(range(100), key=lambda i: (entries[i]["work"], i))
    ranks = sorted(order.index(i) for i in sample)
    bounds = [k * 100 // 12 for k in range(13)]
    assert all(bounds[k] <= r < bounds[k + 1] for k, r in enumerate(ranks))


def _hooks(A):
    solver = {k: v for k, v in vars(A.Solver).items() if callable(v)}
    return (
        dict(vars(A)),
        dict(vars(A.gnt)),
        dict(A.gnt._GENERATORS),
        solver,
    )


def test_tracer_wrappers_are_restored():
    before = _hooks(A)
    tracer = Tracer()
    d3sat, qbf, partial = (workloads.WORKLOADS[n] for n in ("d3sat", "qbf_gw", "partial"))
    instances = [(w, w.make(A, 0)) for w in (d3sat, qbf, partial)]
    with tracer.installed(A):
        assert A.Solver.__init__ is not before[3]["__init__"]
        for w, inst in instances:
            w.run(A, inst.text)
    names = {tracer.names[i] for i in tracer.name}
    assert {"parser.parse", "gnt.solve", "gnt.minimal_test", "gentest.tester", "gentest.generator",
            "solver.setup.main", "solver.setup.tester", "solver.search.main", "solver.search.tester",
            "qbf.translate", "partiality.tr", "partiality.project"} <= names
    assert _hooks(A) == before

    spans = len(tracer)
    for w, inst in instances:
        w.run(A, inst.text)
    assert len(tracer) == spans


def test_self_times_partition_the_traced_time():
    tracer = Tracer()
    w = workloads.WORKLOADS["qbf_gw"]
    inst = w.make(A, 1)
    with tracer.installed(A):
        w.run(A, inst.text)
    own, inclusive = tracer.self_times()
    top = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer)) if tracer.parent[i] < 0)
    assert abs(sum(own.values()) - top) < 1e-9
    assert all(v >= 0 for v in own.values())
    assert inclusive["gnt.minimal_test"] >= own["gnt.minimal_test"]
