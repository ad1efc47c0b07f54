"""Command-line surface: solve, partial, transform, check, query, qbf, bench.

Each reporting command returns its ``RunReport`` and text lines; ``main``
times the call, emits the report and maps its outcome to an exit code
through ``EXIT_CODES`` (0 models/yes, 20 none/no, 1 error, also when the
reader closes stdout before the report is written).  ``transform``,
``qbf translate`` and ``bench`` print program text or file names themselves.
Every command that solves, ``qbf solve`` included, reaches an engine
through ``gnt.solve``, the one place an engine is chosen, but for a
partial question under ``--mode brute``: ``partiality.partial_stable_models``
answers it from the partial-stable-model oracle on the program itself,
and hands tr of the program to ``gnt.solve`` under every other mode.
``--stats`` reports the five gnt counters exactly when the
generate-and-test driver ran, and the three solver counters always.

Output is deterministic byte-for-byte for fixed inputs and seeds: models are
printed one per line with atoms sorted, stats as ``key=value`` lines, and
wall-clock timing is only emitted under ``--timing``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from .bench import gen_d3sat_instance, gen_random_qbf
from .gentest import gen_basic, gen_naive, gen_program, support_program, test_program
from .gnt import MODES, GntConfig, GntStats, solve
from .parser import ParseError, parse_atom_set, parse_literals, parse_program
from .partiality import (
    QueryLiterals,
    partial_stable_models,
    possibility_query,
    query_constrained,
    tr2_program,
    unfold_partiality,
)
from .qbf import DEFAULT_QBF_CAP, parse_qbf, qbf_to_program, qbf_witness, render_qbf
from .semantics import (
    CapExceededError,
    DEFAULT_CAP,
    PartialInterpretation,
    check_partial_stable,
    check_total_stable,
    maximal_models,
)
from .solver import SolverStats
from .syntax import Atom, Program, render_program

# The exit code of each outcome; a command that prints a program or file
# names itself and returns no report exits as models_found.
EXIT_CODES = {"models_found": 0, "no_models": 20, "error": 1}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["command", "outcome"],
    "properties": {
        "command": {"type": "string"},
        "outcome": {"enum": list(EXIT_CODES)},
        "models": {"type": "array", "items": {"type": "array", "items": {"type": "string"}}},
        "partial_models": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["true", "undef"],
                "properties": {
                    "true": {"type": "array", "items": {"type": "string"}},
                    "undef": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "answer": {"type": "string"},
        "reason": {"type": "string"},
        "stats": {"type": "object", "additionalProperties": {"type": "integer"}},
        "elapsed": {"type": "number"},
        "error": {"type": "string"},
    },
}


@dataclass
class RunReport:
    command: str
    models: list[list[str]] = field(default_factory=list)
    partial_models: list[dict] = field(default_factory=list)
    answer: Optional[str] = None
    reason: Optional[str] = None
    stats: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    error: Optional[str] = None

    @property
    def outcome(self) -> str:
        """models_found when the report holds a model, as every answer that
        exits 0 does (ACCEPT, YES, VALID), no_models when it holds none."""
        if self.error is not None:
            return "error"
        return "models_found" if self.models or self.partial_models else "no_models"

    def as_json(self, timing: bool) -> dict:
        """The report's fields but those that are None or empty, and
        ``elapsed`` only under ``timing``, with the outcome."""
        doc: dict = {"outcome": self.outcome}
        for f in fields(self):
            value = getattr(self, f.name)
            if value not in (None, [], {}) and (timing or f.name != "elapsed"):
                doc[f.name] = value
        return doc


# A command's report and the text lines that stand for it without --json.
Output = tuple[RunReport, list[str]]


def _emit(report: RunReport, args, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report.as_json(getattr(args, "timing", False)), sort_keys=True))
        return
    for line in lines:
        print(line)
    if getattr(args, "stats", False):
        for key, value in report.stats.items():
            print(f"{key}={value}")
    if getattr(args, "timing", False):
        print(f"elapsed={report.elapsed:.3f}s")


def _texts(atoms: frozenset[Atom]) -> list[str]:
    return sorted([a.text for a in atoms])


def _rendered(m: PartialInterpretation) -> tuple[list[str], list[str]]:
    """A partial model's true and undefined atoms, each sorted renderings:
    what its record and its line are formatted from."""
    return _texts(m.true_set), _texts(m.undef_set)


def _partial_record(true: list[str], undef: list[str]) -> dict[str, list[str]]:
    return {"true": true, "undef": undef}


def _partial_line(true: list[str], undef: list[str]) -> str:
    return f"T={{{' '.join(true)}}} U={{{' '.join(undef)}}}"


def _gnt_config(args) -> GntConfig:
    return GntConfig(early_test=args.early_test)


def _stats_dict(gnt: Optional[GntStats], solver: SolverStats) -> dict[str, int]:
    out: dict[str, int] = {}
    if gnt is not None:
        out["candidates"] = gnt.candidates_covered
        out["tests"] = gnt.minimal_tests
        out["prunes"] = gnt.early_prunes
        out["learned"] = gnt.learned_sets
        out["learned_prunes"] = gnt.learned_prunes
    out["choices"] = solver.choices
    out["conflicts"] = solver.conflicts
    out["expansions"] = solver.expansions
    return out


def _load_program(args) -> Program:
    with open(args.file, "r", encoding="utf-8") as fh:
        return parse_program(fh.read(), allow_reserved=args.allow_reserved)


def _solve(p: Program, args, enumerate_all: bool) -> tuple[list[frozenset[Atom]], dict[str, int]]:
    """The models of p from ``gnt.solve``, and their statistics: the gnt
    counters only when the driver ran."""
    result = solve(p, args.mode, enumerate_all, _gnt_config(args), args.cap)
    return result.models, _stats_dict(result.stats, result.solver_stats)


def cmd_solve(args) -> Output:
    report = RunReport("solve")
    models, report.stats = _solve(_load_program(args), args, args.all)
    if not models:
        return report, ["NO STABLE MODELS"]
    report.models = [_texts(m) for m in models]
    return report, [" ".join(texts) for texts in report.models]


def cmd_partial(args) -> Output:
    report = RunReport("partial")
    p = _load_program(args)
    psms, result = partial_stable_models(p, args.mode, args.all or args.maximal, _gnt_config(args), args.cap)
    report.stats = _stats_dict(result.stats, result.solver_stats)
    if args.maximal:
        psms = maximal_models(psms, args.ordering)
    # Rendered once per model, and sorted by those renderings.
    rendered = sorted([_rendered(m) for m in psms])
    if not rendered:
        return report, ["NO PARTIAL STABLE MODELS"]
    report.models = [true for true, _ in rendered]
    report.partial_models = [_partial_record(*r) for r in rendered]
    return report, [_partial_line(*r) for r in rendered]


_TRANSFORMS = {
    "tr": unfold_partiality,
    "tr2": tr2_program,
    "gen0": gen_naive,
    "gen1": gen_basic,
    "supp": support_program,
    "gen": gen_program,
}


def cmd_transform(args) -> None:
    p = _load_program(args)
    if args.kind == "test":
        if args.model is None:
            raise ParseError("transform --kind test requires --model")
        candidate = parse_atom_set(args.model, allow_reserved=args.allow_reserved)
        testers = test_program(p)
        out, _ = testers.tester(testers.numbers(candidate))
    else:
        out = _TRANSFORMS[args.kind](p)
    sys.stdout.write(render_program(out))


def cmd_check(args) -> Output:
    report = RunReport("check")
    p = _load_program(args)
    if args.model is not None:
        atoms = parse_atom_set(args.model, allow_reserved=args.allow_reserved)
        claimed = PartialInterpretation.total(atoms, p.base)
        reason = check_total_stable(p, claimed, args.cap)
        if reason is None:
            report.models = [_texts(claimed.true_set)]
    else:
        spec = args.partial
        if "/" not in spec:
            raise ParseError("--partial expects 'TRUE_ATOMS / FALSE_ATOMS'")
        left, right = spec.split("/", 1)
        t = parse_atom_set(left, allow_reserved=args.allow_reserved)
        f = parse_atom_set(right, allow_reserved=args.allow_reserved)
        claimed = PartialInterpretation(t, f, p.base)
        reason = check_partial_stable(p, claimed, args.cap)
        if reason is None:
            report.partial_models = [_partial_record(*_rendered(claimed))]
    if reason is None:
        report.answer = "ACCEPT"
        return report, ["ACCEPT"]
    report.answer = "REJECT"
    report.reason = reason
    return report, [f"REJECT: {reason}"]


def cmd_query(args) -> Output:
    report = RunReport("query")
    p = _load_program(args)
    literals = parse_literals(args.query, allow_reserved=args.allow_reserved) if args.query.strip() else ()
    q = QueryLiterals(frozenset(literals))

    witness_lines: list[str] = []
    if args.semantics == "partial":
        ok, witness, result = possibility_query(p, q, mode=args.mode, cap=args.cap, config=_gnt_config(args))
        if ok:
            rendered = _rendered(witness)
            witness_lines = [_partial_line(*rendered)]
            report.partial_models = [_partial_record(*rendered)]
    else:
        result = solve(query_constrained(p, q), args.mode, False, _gnt_config(args), args.cap)
        ok = bool(result.models)
        if ok:
            report.models = [_texts(result.models[0])]
            witness_lines = [" ".join(report.models[0])]
    report.stats = _stats_dict(result.stats, result.solver_stats)
    report.answer = "YES" if ok else "NO"
    return report, [report.answer] + witness_lines


def cmd_qbf(args) -> Optional[Output]:
    with open(args.file, "r", encoding="utf-8") as fh:
        q = parse_qbf(fh.read())
    if args.action == "translate":
        sys.stdout.write(render_program(qbf_to_program(q)))
        return None
    report = RunReport("qbf")
    if args.cap is None:  # no --cap given: each action applies its own default
        args.cap = DEFAULT_QBF_CAP if args.action == "eval" else DEFAULT_CAP
    if args.action == "eval":
        witness = qbf_witness(q, args.cap)
        # the model row is the witnessing existential assignment
        report.models = [] if witness is None else [_texts(witness)]
    else:
        models, report.stats = _solve(qbf_to_program(q), args, enumerate_all=False)
        report.models = [_texts(m) for m in models]
    report.answer = "VALID" if report.models else "INVALID"
    return report, [report.answer]


def cmd_bench(args) -> None:
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    if args.family == "d3sat" and args.specified is not None and not 0 <= args.specified <= args.atoms:
        raise ParseError(f"--specified must lie between 0 and --atoms ({args.atoms}), got {args.specified}")
    if args.out_dir is None and args.count != 1:
        raise ParseError("--count > 1 requires --out-dir")
    texts = []
    for i in range(args.count):
        seed = args.seed + i
        if args.family == "d3sat":
            inst = gen_d3sat_instance(args.atoms, args.ratio, seed, args.specified)
            texts.append((f"d3sat_n{args.atoms}_s{seed}.lp", render_program(inst.program)))
        else:
            q = gen_random_qbf(args.vars, args.scheme, seed)
            texts.append((f"qbf_{args.scheme}_v{args.vars}_s{seed}.qbf", render_qbf(q)))
    if args.out_dir is None:
        sys.stdout.write(texts[0][1])
        return
    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in texts:
        with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(name)


def _add_reserved(sp) -> None:
    sp.add_argument("--allow-reserved", action="store_true", help="accept reserved atom spellings in input")


def _add_common(
    sp, stats: bool = True, cap_help: str = f"atom cap for enumerative oracles (default {DEFAULT_CAP})"
) -> None:
    sp.add_argument("--json", action="store_true", help="emit a JSON report")
    sp.add_argument("--timing", action="store_true", help="include wall-clock time in output")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP, help=cap_help)
    if stats:
        sp.add_argument("--stats", action="store_true", help="print key=value statistics")


def _add_solving(sp) -> None:
    sp.add_argument("--mode", choices=MODES, default="gnt2")
    sp.add_argument("--early-test", choices=("on", "off"), default="on")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="aspunfold")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="stable models of a program")
    sp.add_argument("file")
    sp.add_argument("--all", action="store_true", help="enumerate all models")
    _add_solving(sp)
    _add_common(sp)
    _add_reserved(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("partial", help="partial stable models via the partiality unfolding")
    sp.add_argument("file")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--maximal", action="store_true", help="keep only maximal models")
    sp.add_argument("--ordering", choices=("truth", "knowledge"), default="truth")
    _add_solving(sp)
    _add_common(sp)
    _add_reserved(sp)
    sp.set_defaults(fn=cmd_partial)

    sp = sub.add_parser("transform", help="print a program transformation")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=("tr", "tr2", "gen0", "gen1", "supp", "gen", "test"), required=True)
    sp.add_argument("--model", help="candidate model for --kind test, e.g. 'a b'")
    sp.add_argument("--json", action="store_true", help="report errors as JSON; the program is printed as text")
    _add_reserved(sp)
    sp.set_defaults(fn=cmd_transform)

    sp = sub.add_parser("check", help="oracle verification of a claimed model")
    sp.add_argument("file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="total model as 'a b'")
    group.add_argument("--partial", help="partial interpretation as 'TRUE / FALSE'")
    _add_common(sp, stats=False)
    _add_reserved(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("query", help="possibility inference")
    sp.add_argument("file")
    sp.add_argument("--query", required=True, help="comma-separated literals, e.g. 'a, not b'")
    sp.add_argument("--semantics", choices=("partial", "total"), default="partial")
    _add_solving(sp)
    _add_common(sp)
    _add_reserved(sp)
    sp.set_defaults(fn=cmd_query)

    sp = sub.add_parser("qbf", help="2,exists-QBF translation, solving, and oracle evaluation")
    sp.add_argument("action", choices=("translate", "solve", "eval"))
    sp.add_argument("file")
    _add_solving(sp)
    _add_common(
        sp,
        cap_help=f"enumeration cap: QBF variables for eval (default {DEFAULT_QBF_CAP}), "
        f"atoms of the translated program for solve --mode brute (default {DEFAULT_CAP})",
    )
    sp.set_defaults(fn=cmd_qbf, cap=None)

    sp = sub.add_parser("bench", help="random benchmark instance generation")
    sp.add_argument("family", choices=("d3sat", "qbf"))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--out-dir")
    sp.add_argument("--atoms", type=int, default=20, help="d3sat: number of atoms")
    sp.add_argument("--ratio", type=float, default=4.258, help="d3sat: clauses/atoms ratio")
    sp.add_argument("--specified", type=int, default=None, help="d3sat: override specified-atom count")
    sp.add_argument("--vars", type=int, default=10, help="qbf: number of variables")
    sp.add_argument("--scheme", choices=("gw", "sqrt"), default="gw")
    sp.set_defaults(fn=cmd_bench)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        output = args.fn(args)
    except (ValueError, CapExceededError, OSError) as exc:
        if getattr(args, "json", False):
            report = RunReport(args.command, error=str(exc))
            print(json.dumps(report.as_json(False), sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["error"]
    if output is None:
        return EXIT_CODES["models_found"]
    report, lines = output
    report.elapsed = time.perf_counter() - t0
    try:
        _emit(report, args, lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head`` does.  Point stdout
        # at devnull so that the interpreter's exit flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CODES["error"]
    return EXIT_CODES[report.outcome]


if __name__ == "__main__":
    sys.exit(main())
