"""Spans for the traced run.

Wrappers around ``aspunfold``'s public functions and the solver's search
hooks record one span per call: name, start, end, parent span and instance
id.  Spans stay in memory (in compact arrays) until the run ends.  The
wrappers exist only inside ``Tracer.installed``; leaving it puts every
original function back, so an untraced pass never runs through them.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

SOLVER_SEARCH_HOOKS = (
    "next_stable_model",
    "assign_and_extend",
    "assign_and_expand",
    "pick_atom",
    "undo_to",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.instance = array("l")
        self.start = array("d")
        self.end = array("d")
        self.instance_id = -1
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._testing = 0  # depth of minimal_test calls: solvers built or run there are testers
        self._restore: list[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.instance_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, name: str, rules_counter: str = ""):
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if rules_counter:
                self.counts[rules_counter] += len(result.rules)
            return result

        return wrapper

    def _wrap_solver(self, fn, layer: str):
        ids = (self._id(f"{layer}.main"), self._id(f"{layer}.tester"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(ids[self._testing > 0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_models(self, fn):
        ids = (self._id("solver.search.main"), self._id("solver.search.tester"))

        def step(it: Iterator):
            # models() returns a generator: its search runs in next(), one span per model.
            while True:
                idx = self._open(ids[self._testing > 0])
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        @functools.wraps(fn)
        def wrapper(solver):
            return step(fn(solver))

        return wrapper

    def _wrap_minimal_test(self, fn):
        name_id = self._id("gnt.minimal_test")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            self._testing += 1
            try:
                ok = fn(*args, **kwargs)
            finally:
                self._testing -= 1
                self._close(idx)
            self.counts["gnt.tests_run"] += 1
            self.counts["gnt.tests_minimal"] += bool(ok)
            return ok

        return wrapper

    def _wrap_init(self, fn):
        wrapped = self._wrap_solver(fn, "solver.setup")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["solver.instances"] += 1
            return wrapped(*args, **kwargs)

        return wrapper

    def _patch(self, owner, key: str, wrapper) -> None:
        """Replace an attribute of a module or class, or an entry of a dict."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = wrapper(original)
            self._restore.append(lambda: owner.__setitem__(key, original))
        else:
            original = owner.__dict__[key]
            setattr(owner, key, wrapper(original))
            self._restore.append(lambda: setattr(owner, key, original))

    @contextmanager
    def installed(self, A):
        """Wrap the functions the benchmark and the gnt search call, then restore them."""
        try:
            for fn in ("parse_program", "parse_qbf"):
                self._patch(A, fn, lambda f: self._wrap(f, "parser.parse"))
            self._patch(A, "qbf_to_program", lambda f: self._wrap(f, "qbf.translate", "qbf.program_rules"))
            self._patch(A, "unfold_partiality", lambda f: self._wrap(f, "partiality.tr", "partiality.tr_rules"))
            self._patch(A, "project_sm", lambda f: self._wrap(f, "partiality.project"))
            self._patch(A, "solve_disjunctive", lambda f: self._wrap(f, "gnt.solve"))
            self._patch(A.gnt, "minimal_test", self._wrap_minimal_test)
            self._patch(A.gnt, "test_program", lambda f: self._wrap(f, "gentest.tester", "gentest.tester_rules"))
            for mode in list(A.gnt._GENERATORS):
                self._patch(
                    A.gnt._GENERATORS, mode,
                    lambda f: self._wrap(f, "gentest.generator", "gentest.generator_rules"),
                )
            self._patch(A.Solver, "__init__", self._wrap_init)
            self._patch(A.Solver, "models", self._wrap_models)
            for hook in SOLVER_SEARCH_HOOKS:
                self._patch(A.Solver, hook, lambda f: self._wrap_solver(f, "solver.search"))
            yield self
        finally:
            while self._restore:
                self._restore.pop()()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (self time, inclusive time) summed over all spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        for i in range(n):
            d = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            own[name] += d - child[i]
            inclusive[name] += d
        return own, inclusive

    def write(self, path: Path) -> None:
        """One span per line: name, instance, parent index, start, end (s, from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        lines = ["name\tinstance\tparent\tstart\tend"]
        for i in range(len(self.start)):
            lines.append(
                f"{self.names[self.name[i]]}\t{self.instance[i]}\t{self.parent[i]}\t"
                f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
