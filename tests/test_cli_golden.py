"""Golden CLI corpus: every command's stdout, stderr and exit code on a fixed
list of invocations, run in-process through ``main`` and compared with
``cli_golden.txt``.

The corpus pins the text and JSON output, the per-command ``--stats`` key
sets and the error messages.  ``--timing`` values are masked, so only the
presence of the ``elapsed`` line or field is pinned.  To regenerate the file
after a deliberate output change, run ``PYTHONPATH=src python
tests/test_cli_golden.py`` and review the diff."""

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from aspunfold.bench import gen_d3sat_instance, gen_random_qbf
from aspunfold.cli import main
from aspunfold.qbf import render_qbf
from aspunfold.syntax import render_program

GOLDEN = Path(__file__).resolve().with_name("cli_golden.txt")

FILES = {
    # disjunctive, with a constraint: two stable models, a c and b d
    "s.lp": "a | b.\nc :- a, not d.\nd :- b, not c.\n:- c, d.\n",
    # normal: a plain Solver answers unless the mode is brute
    "n.lp": "a :- not b.\nb :- not a.\nc :- a.\nc :- not c.\n",
    # no stable model; one partial stable model with a undefined
    "u.lp": "a :- not a.\n",
    # a partial stable model makes every constraint body false: two total models
    "f.lp": "a | b.\n:- a, b.\nc :- not d.\nd :- not c.\n:- c.\n",
    "empty.lp": "",
    "r.lp": "p__x :- not b.\nb :- not p__x.\n",
    "p.lp": render_program(gen_d3sat_instance(8, 4.258, 2).program),
    # aspunfold bench d3sat --atoms 12 --seed 2
    "d.lp": render_program(gen_d3sat_instance(12, 4.258, 2).program),
    # atoms on both sides and at the edges of the c__ and s__ mark blocks
    "m.lp": "c | s_a | r.\ncZ | s0 :- not z.\nc0 | c_a :- s, not t.\ns | t.\nz :- c, not c0.\ns_a :- r.\n:- r, t.\n",
    "valid.qbf": "e x\na y\nx y\nx -y\n",
    "invalid.qbf": "e x\na y\nx y\n-x -y\n",
    "g.qbf": render_qbf(gen_random_qbf(6, "gw", 3)),
    # aspunfold bench qbf --vars 8 --seed 3
    "q.qbf": render_qbf(gen_random_qbf(8, "gw", 3)),
    "e0.qbf": "e x\na y\n",
    "e1.qbf": "e x\na y\nz x -x\n",
    "e2.qbf": "e x\na y\nz w y\n",
}

INVOCATIONS = """
solve s.lp
solve s.lp --all --stats
solve s.lp --all --json
solve s.lp --all --stats --mode brute
solve s.lp --all --stats --mode brute --json
solve s.lp --all --stats --mode gnt1 --early-test off
solve s.lp --all --stats --mode naive
solve n.lp --all --stats
solve n.lp --all --stats --json
solve n.lp --stats --mode brute
solve u.lp --stats
solve u.lp --json --stats
solve empty.lp --stats
solve empty.lp --all --json
solve p.lp --all --stats
solve p.lp --stats --mode gnt1 --json
solve d.lp --all --stats
solve m.lp --all --stats
solve m.lp --all --stats --mode naive
solve s.lp --timing
solve s.lp --json --timing
solve r.lp
solve r.lp --allow-reserved --all
solve u.lp --mode brute --cap 0
solve missing.lp
partial s.lp
partial s.lp --all --stats
partial s.lp --all --json
partial s.lp --all --stats --mode brute
partial s.lp --maximal
partial s.lp --maximal --ordering knowledge --json
partial n.lp --all --stats
partial n.lp --all --stats --mode gnt1
partial u.lp --all --stats
partial f.lp
partial f.lp --all --json
partial empty.lp --stats
partial empty.lp --json
partial p.lp --maximal --stats
partial d.lp --all --json
partial s.lp --timing --stats
transform s.lp --kind tr
transform s.lp --kind tr2
transform s.lp --kind gen0
transform s.lp --kind gen1
transform s.lp --kind supp
transform s.lp --kind gen
transform s.lp --kind gen --json
transform s.lp --kind test --model "a c"
transform s.lp --kind test --model "a b c"
transform s.lp --kind test --model zz
transform s.lp --kind test --model zz --json
transform s.lp --kind test
transform d.lp --kind test --model "a10 a11 a12 a2"
transform m.lp --kind tr2
transform m.lp --kind gen0
transform m.lp --kind gen1
transform m.lp --kind supp
transform m.lp --kind gen
transform m.lp --kind test --model "c c0 cZ s"
transform m.lp --kind test --model "c c0 cZ s s0 t z"
transform empty.lp --kind tr
transform r.lp --kind tr --allow-reserved
check s.lp --model "a c"
check s.lp --model "a b c"
check s.lp --model "a c" --json
check s.lp --model "a b c" --json --timing
check s.lp --model zz
check s.lp --model zz --json
check s.lp --partial "a / b"
check s.lp --partial "a / b" --json
check s.lp --partial "a c / b d"
check s.lp --partial "a"
check s.lp --partial "a / zz"
check u.lp --partial " / "
check empty.lp --model ""
query s.lp --query c
query s.lp --query c --stats
query s.lp --query c --semantics partial --stats --json
query s.lp --query "c, d"
query s.lp --query "c, not a" --semantics total --stats
query s.lp --query c --semantics total --stats
query s.lp --query c --semantics total --stats --json
query s.lp --query c --semantics total --stats --mode brute
query s.lp --query c --semantics partial --stats --mode brute
query s.lp --query c --semantics partial --stats --mode gnt1 --early-test off
query s.lp --query c --semantics partial --filter --stats
query s.lp --query c --semantics total --filter --stats
query s.lp --query c --semantics total --filter --json
query s.lp --query c --semantics partial --filter
query s.lp --query c --semantics total --filter
query n.lp --query "not c" --stats
query n.lp --query a --semantics total --stats
query n.lp --query a --semantics total --stats --mode naive
query u.lp --query a --stats
query u.lp --query "not a" --semantics total --stats
query f.lp --query c --stats
query p.lp --query "a2, not a5" --semantics partial --stats
query p.lp --query "a2, not a5" --semantics total --stats
query d.lp --query "a2, not a5" --semantics partial
query d.lp --query "a2, not a5" --semantics total
query d.lp --query "a1, not a1, a2, not a2" --semantics partial
query d.lp --query "a1, not a1, a2, not a2" --semantics total
query s.lp --query ""
query s.lp --query "" --semantics total --json
query empty.lp --query "" --semantics total --stats
query s.lp --query "a, not a"
query s.lp --query "a1, not a1, b, not b" --semantics total --json
query s.lp --query zz
query s.lp --query zz --semantics total
query s.lp --query zz --filter --json
query s.lp --query zz --semantics total --filter
query s.lp --query c --timing
qbf translate valid.qbf
qbf translate e0.qbf
qbf solve valid.qbf
qbf solve valid.qbf --stats
qbf solve valid.qbf --stats --json
qbf solve invalid.qbf --stats
qbf solve invalid.qbf --stats --mode brute
qbf solve g.qbf --stats --mode gnt1
qbf solve e0.qbf --stats
qbf solve e0.qbf --stats --mode brute --json
qbf solve e0.qbf --mode brute --cap 1
qbf solve e0.qbf --mode brute --stats
qbf eval valid.qbf --json
qbf eval invalid.qbf --stats
qbf eval e0.qbf
qbf eval g.qbf --cap 3
qbf solve e1.qbf
qbf solve e1.qbf --json
qbf solve e1.qbf --mode brute --stats
qbf solve e2.qbf
qbf solve q.qbf --stats
qbf solve valid.qbf --timing
bench d3sat --atoms 6 --seed 1
bench d3sat --atoms 6 --seed 1 --specified 2
bench d3sat --atoms 6 --specified 7
bench qbf --vars 5 --seed 4
bench qbf --vars 5 --seed 4 --scheme sqrt
bench qbf --count 2
bench qbf --count 0
bench d3sat --atoms 5 --count 2 --seed 9 --out-dir out
""".strip().splitlines()


def _block(text: str, prefix: str) -> list[str]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    else:
        lines.append("\\ no newline at end")
    return [prefix + (" " + line if line else "") for line in lines]


def render_corpus(tmp: Path) -> str:
    """Run every invocation in `tmp` and render its stdout (``>``), stderr
    (``!``) and exit code, with timings masked."""
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    out: list[str] = []
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for line in INVOCATIONS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(shlex.split(line))
            text = re.sub(r"elapsed=\d+\.\d{3}s", "elapsed=<t>", stdout.getvalue())
            text = re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": "<t>"', text)
            out += [f"$ aspunfold {line}", *_block(text, ">"), *_block(stderr.getvalue(), "!"), f"exit {code}", ""]
    finally:
        os.chdir(cwd)
    return "\n".join(out)


def _by_invocation(text: str) -> dict[str, str]:
    return {block.split("\n", 1)[0]: block for block in text.split("\n$ ")}


def test_cli_output_matches_golden_corpus(tmp_path):
    got = render_corpus(tmp_path)
    want = GOLDEN.read_text(encoding="utf-8")
    if got != want:
        have, expected = _by_invocation(got), _by_invocation(want)
        changed = [k for k in expected if have.get(k) != expected[k]] + [k for k in have if k not in expected]
        pytest.fail("output differs from cli_golden.txt for:\n" + "\n".join(changed[:10]))


def test_corpus_covers_every_command_and_option():
    words = {w for line in INVOCATIONS for w in shlex.split(line)}
    commands = {shlex.split(line)[0] for line in INVOCATIONS}
    assert commands == {"solve", "partial", "transform", "check", "query", "qbf", "bench"}
    for flag in ("--stats", "--json", "--timing", "--filter", "--all", "--maximal", "--cap", "--allow-reserved"):
        assert flag in words, flag
    for value in ("brute", "gnt1", "naive", "partial", "total", "translate", "solve", "eval"):
        assert value in words, value


SOLVER_KEYS = {"choices", "conflicts", "expansions"}
GNT_KEYS = {"candidates", "tests", "prunes", "learned", "learned_prunes"}


def _stats_blocks(text: str) -> list[set[str]]:
    """The key set of each stats block in a rendered corpus: each run of
    ``> key=value`` lines, and each JSON report's ``stats`` object."""
    blocks: list[set[str]] = []
    run: set[str] = set()
    for line in text.split("\n"):
        match = re.fullmatch(r"> (\w+)=\d+", line)
        if match:
            run.add(match.group(1))
            continue
        if run:
            blocks.append(run)
            run = set()
        if line.startswith("> {"):
            report = json.loads(line[2:])
            if "stats" in report:
                blocks.append(set(report["stats"]))
    return blocks


def test_pinned_stats_hold_the_solver_keys_or_all_eight():
    # The gnt counters appear exactly when the driver ran, all five at once.
    blocks = _stats_blocks(GOLDEN.read_text(encoding="utf-8"))
    assert any(b == SOLVER_KEYS for b in blocks) and any(b == SOLVER_KEYS | GNT_KEYS for b in blocks)
    for block in blocks:
        assert block in (SOLVER_KEYS, SOLVER_KEYS | GNT_KEYS), sorted(block)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(render_corpus(Path(tmp)), encoding="utf-8")
    sys.exit(0)
