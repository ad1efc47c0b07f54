"""Command-line surface: solve, partial, transform, check, query, qbf, bench.

Each reporting command returns its ``RunReport`` and text lines; ``main``
times the call, emits the report and maps its outcome to an exit code
through ``EXIT_CODES`` (0 models/yes, 20 none/no, 1 error).  ``transform``,
``qbf translate`` and ``bench`` print program text or file names themselves.
Programs are solved through ``gnt.solve``, the one place an engine is
chosen; ``qbf solve`` always runs the driver.

Output is deterministic byte-for-byte for fixed inputs and seeds: models are
printed one per line with atoms sorted, stats as ``key=value`` lines, and
wall-clock timing is only emitted under ``--timing``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .bench import gen_d3sat_instance, gen_random_qbf
from .gentest import gen_basic, gen_naive, gen_program, support_program, test_program
from .gnt import MODES, GntConfig, GntStats, solve, solve_disjunctive
from .parser import ParseError, parse_atom_set, parse_literals, parse_program
from .partiality import (
    QueryLiterals,
    possibility_query,
    project_sm,
    query_by_filter,
    query_constrained,
    tr2_program,
    unfold_partiality,
)
from .qbf import DEFAULT_QBF_CAP, QbfParseError, parse_qbf, qbf_to_program, qbf_witness, render_qbf
from .semantics import (
    CapExceededError,
    DEFAULT_CAP,
    PartialInterpretation,
    check_partial_stable,
    check_total_stable,
    enumerate_stable_models,
    maximal_models,
    require_in_base,
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
        "outcome": {"enum": ["models_found", "no_models", "error"]},
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
        doc: dict = {"command": self.command, "outcome": self.outcome}
        if self.models:
            doc["models"] = self.models
        if self.partial_models:
            doc["partial_models"] = self.partial_models
        if self.answer is not None:
            doc["answer"] = self.answer
        if self.reason is not None:
            doc["reason"] = self.reason
        if self.stats:
            doc["stats"] = self.stats
        if self.error is not None:
            doc["error"] = self.error
        if timing:
            doc["elapsed"] = self.elapsed
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
    return [a.text for a in sorted(atoms)]


def _model_line(model: frozenset[Atom]) -> str:
    return " ".join(_texts(model))


def _partial_record(m: PartialInterpretation) -> dict[str, list[str]]:
    return {"true": _texts(m.true_set), "undef": _texts(m.undef_set)}


def _partial_line(m: PartialInterpretation) -> str:
    t = " ".join(_texts(m.true_set))
    u = " ".join(_texts(m.undef_set))
    return f"T={{{t}}} U={{{u}}}"


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
        return parse_program(fh.read(), allow_reserved=getattr(args, "allow_reserved", False))


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
    return report, [_model_line(m) for m in models]


def cmd_partial(args) -> Output:
    report = RunReport("partial")
    p = _load_program(args)
    models, report.stats = _solve(unfold_partiality(p), args, args.all or args.maximal)
    psms = [project_sm(n, p.base) for n in models]
    if args.maximal:
        psms = maximal_models(psms, args.ordering)
    psms.sort(key=lambda m: (sorted(m.true_set), sorted(m.undef_set)))
    if not psms:
        return report, ["NO PARTIAL STABLE MODELS"]
    report.models = [_texts(m.true_set) for m in psms]
    report.partial_models = [_partial_record(m) for m in psms]
    return report, [_partial_line(m) for m in psms]


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
        require_in_base(candidate, p.base, "model")
        out = test_program(p).program(candidate)
    else:
        out = _TRANSFORMS[args.kind](p)
    sys.stdout.write(render_program(out))


def cmd_check(args) -> Output:
    report = RunReport("check")
    p = _load_program(args)
    if args.model is not None:
        atoms = parse_atom_set(args.model, allow_reserved=args.allow_reserved)
        require_in_base(atoms, p.base, "model")
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
        require_in_base(t | f, p.base, "model")
        claimed = PartialInterpretation(t, f, p.base)
        reason = check_partial_stable(p, claimed, args.cap)
        if reason is None:
            report.partial_models = [_partial_record(claimed)]
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
        if args.filter:
            ok, witness = query_by_filter(p, q, args.cap)
            report.stats = _stats_dict(GntStats(), SolverStats())
        else:
            ok, witness, result = possibility_query(
                p, q, mode=args.mode, cap=args.cap, config=_gnt_config(args)
            )
            # Under partial semantics the gnt counters are always reported.
            report.stats = _stats_dict(result.stats or GntStats(), result.solver_stats)
        if ok:
            witness_lines = [_partial_line(witness)]
            report.partial_models = [_partial_record(witness)]
    else:
        require_in_base(q.atoms, p.base, "query")
        if args.filter:
            stable = enumerate_stable_models(p, args.cap)
            model = next((m for m in stable if all((l.atom in m) == l.positive for l in q.literals)), None)
            report.stats = _stats_dict(None, SolverStats())
        else:
            models, report.stats = _solve(query_constrained(p, q), args, enumerate_all=False)
            model = models[0] & p.base if models else None
        ok = model is not None
        if ok:
            witness_lines = [_model_line(model)]
            report.models = [_texts(model)]
    report.answer = "YES" if ok else "NO"
    return report, [report.answer] + witness_lines


def cmd_qbf(args) -> Optional[Output]:
    with open(args.file, "r", encoding="utf-8") as fh:
        q = parse_qbf(fh.read())
    if args.action == "translate":
        sys.stdout.write(render_program(qbf_to_program(q)))
        return None
    report = RunReport("qbf")
    if args.action == "eval":
        witness = qbf_witness(q, DEFAULT_QBF_CAP if args.cap is None else args.cap)
        # the model row is the witnessing existential assignment
        report.models = [] if witness is None else [_texts(witness)]
    else:
        # Always the driver (or the oracle), even on a normal translation.
        result = solve_disjunctive(
            qbf_to_program(q),
            mode=args.mode,
            config=_gnt_config(args),
            cap=DEFAULT_CAP if args.cap is None else args.cap,
        )
        report.models = [_texts(m) for m in result.models[:1]]
        report.stats = _stats_dict(result.stats, result.solver_stats)
    report.answer = "VALID" if report.models else "INVALID"
    return report, [report.answer]


def cmd_bench(args) -> None:
    if args.count < 1:
        raise ParseError(f"--count must be at least 1, got {args.count}")
    if args.family == "d3sat" and args.specified is not None and not 0 <= args.specified <= args.atoms:
        raise ParseError(f"--specified must lie between 0 and --atoms ({args.atoms}), got {args.specified}")
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
        if args.count != 1:
            raise ParseError("--count > 1 requires --out-dir")
        sys.stdout.write(texts[0][1])
        return
    import os

    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in texts:
        with open(os.path.join(args.out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(name)


def _add_input(sp, json_help: str = "emit a JSON report") -> None:
    sp.add_argument("--json", action="store_true", help=json_help)
    sp.add_argument("--allow-reserved", action="store_true", help="accept reserved atom spellings in input")


def _add_common(
    sp, stats: bool = True, cap_help: str = f"atom cap for enumerative oracles (default {DEFAULT_CAP})"
) -> None:
    _add_input(sp)
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
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("partial", help="partial stable models via the partiality unfolding")
    sp.add_argument("file")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--maximal", action="store_true", help="keep only maximal models")
    sp.add_argument("--ordering", choices=("truth", "knowledge"), default="truth")
    _add_solving(sp)
    _add_common(sp)
    sp.set_defaults(fn=cmd_partial)

    sp = sub.add_parser("transform", help="print a program transformation")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=("tr", "tr2", "gen0", "gen1", "supp", "gen", "test"), required=True)
    sp.add_argument("--model", help="candidate model for --kind test, e.g. 'a b'")
    _add_input(sp, json_help="report errors as JSON; the program is printed as text")
    sp.set_defaults(fn=cmd_transform)

    sp = sub.add_parser("check", help="oracle verification of a claimed model")
    sp.add_argument("file")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="total model as 'a b'")
    group.add_argument("--partial", help="partial interpretation as 'TRUE / FALSE'")
    _add_common(sp, stats=False)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("query", help="possibility inference")
    sp.add_argument("file")
    sp.add_argument("--query", required=True, help="comma-separated literals, e.g. 'a, not b'")
    sp.add_argument("--semantics", choices=("partial", "total"), default="partial")
    sp.add_argument("--filter", action="store_true", help="answer by oracle enumeration instead of one solver call")
    _add_solving(sp)
    _add_common(sp)
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
    # no --cap given: each action applies its own default
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
    except (ParseError, QbfParseError, CapExceededError, ValueError, OSError) as exc:
        if getattr(args, "json", False):
            report = RunReport(args.command, error=str(exc))
            print(json.dumps(report.as_json(False), sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["error"]
    if output is None:
        return EXIT_CODES["models_found"]
    report, lines = output
    report.elapsed = time.perf_counter() - t0
    _emit(report, args, lines)
    return EXIT_CODES[report.outcome]


if __name__ == "__main__":
    sys.exit(main())
