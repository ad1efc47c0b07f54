import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest

import aspunfold
from aspunfold.bench import gen_random_qbf
from aspunfold.cli import REPORT_SCHEMA, build_parser, main
from aspunfold.gnt import GntConfig
from aspunfold.parser import parse_program
from aspunfold.partiality import QueryLiterals, query_constrained, translate_query, unfold_partiality
from aspunfold.qbf import render_qbf
from aspunfold.semantics import enumerate_stable_models
from aspunfold.syntax import Atom, Literal, render_program

from conftest import random_disjunctive_program, random_normal_program, reference_solve_disjunctive

EX1 = "a | b :- c, not a.\n"
EX3 = "a | b :- not a.\n"
EX5 = "a | b :- not c.\nb :- not b.\nc :- not c.\n"
EX6 = "a | b | c.\na :- not b.\nb :- not c.\nc :- not a.\n"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def test_solve_fact(write):
    code, out = run(["solve", write("p.lp", "a.\n")])
    assert (code, out) == (0, "a\n")


def test_solve_no_models_exit_20(write):
    code, out = run(["solve", write("p.lp", EX6)])
    assert code == 20 and out == "NO STABLE MODELS\n"


def test_solve_all_disjunctive(write):
    code, out = run(["solve", write("p.lp", "a | b.\n"), "--all"])
    assert code == 0 and out == "a\nb\n"


def test_solve_modes_agree(write):
    f = write("p.lp", "a | b.\n")
    for mode in ("gnt1", "gnt2", "naive", "brute"):
        code, out = run(["solve", f, "--all", "--mode", mode])
        assert (code, out) == (0, "a\nb\n")


def test_gnt_modes_answer_reserved_f_as_brute(write):
    # __f is an ordinary atom of the input: the constructions and the solver
    # write constraints as empty heads, so a rule may derive __f, in a
    # disjunctive head or not, and every mode finds the oracle's models.
    tr2 = write("t.lp", "a | b.\nc :- not d.\nd :- not c.\n")
    code, text = run(["transform", tr2, "--kind", "tr2"])
    assert code == 0
    cases = [
        (write("p.lp", "a | __f :- b.\nb.\n"), "__f b\na b\n"),
        (write("q.lp", "__f :- b.\nb.\na | c.\n"), "__f a b\n__f b c\n"),
        (write("t2.lp", text), None),
    ]
    for f, want in cases:
        code, brute = run(["solve", f, "--all", "--allow-reserved", "--mode", "brute"])
        assert code == 0 and (want is None or brute == want)
        for mode in ("gnt1", "gnt2", "naive"):
            for policy in ("on", "off"):
                args = ["solve", f, "--all", "--allow-reserved", "--mode", mode, "--early-test", policy]
                assert run(args) == (0, brute), (f, mode, policy)
    # tr2 of the program: four total models, and two, with a or b true, in
    # which c and d are undefined and the flag __f is true.
    assert len(brute.splitlines()) == 6


def test_solve_stats_keys(write):
    _, out = run(["solve", write("p.lp", "a | b.\n"), "--all", "--stats"])
    for key in ("candidates=", "tests=", "learned=", "learned_prunes=", "choices=", "conflicts="):
        assert key in out


def test_solve_brute_stats_are_zero_solver_counts(write):
    for text in ("a | b.\n", "a :- not b.\nb :- not a.\n"):
        f = write("p.lp", text)
        for extra in ([], ["--all"]):
            code, out = run(["solve", f, "--mode", "brute", "--stats", *extra])
            assert code == 0
            assert _stats_lines(out) == {"choices": "0", "conflicts": "0", "expansions": "0"}


def test_solve_parse_error_exit_1(write, capsys):
    code, _ = run(["solve", write("p.lp", "p__x :- a.\n")])
    assert code == 1
    assert "reserved" in capsys.readouterr().err


def test_solve_missing_file():
    code, _ = run(["solve", "/nonexistent/p.lp"])
    assert code == 1


def test_partial_example5(write):
    code, out = run(["partial", write("p.lp", EX5)])
    assert code == 0 and out == "T={} U={b c}\n"


def test_partial_example3_contains_both(write):
    code, out = run(["partial", write("p.lp", EX3), "--all"])
    assert code == 0
    assert "T={b} U={}" in out.splitlines()
    assert "T={} U={a}" in out.splitlines()


def test_partial_empty_program_over_declared_base(write):
    # a occurs only in a constraint-free tautology wrapper; simplest is a
    # program whose single atom is false in its unique partial stable model
    code, out = run(["partial", write("p.lp", "a :- a.\n")])
    assert code == 0 and out == "T={} U={}\n"


def test_partial_makes_constraint_bodies_false(write):
    # A constraint :- body. is a rule with an empty, so false, head: under
    # three-valued truth it holds only where its body is false, so every
    # partial stable model makes every constraint body false.  Here :- c.
    # rules out each model in which c is true or undefined.
    f = write("f.lp", "a | b.\n:- a, b.\nc :- not d.\nd :- not c.\n:- c.\n")
    assert run(["partial", f, "--all"]) == (0, "T={a d} U={}\nT={b d} U={}\n")
    # The oracle agrees: T={a c} F={b d} makes the body of :- c. true.
    assert run(["check", f, "--partial", "a c / b d"]) == (20, "REJECT: rule unsatisfied\n")
    # No stable model makes the constraint's body true.
    assert run(["solve", f, "--all"]) == (0, "a d\nb d\n")


def test_partial_maximal_orderings(write):
    f = write("p.lp", EX3)
    for ordering in ("truth", "knowledge"):
        code, out = run(["partial", f, "--maximal", "--ordering", ordering])
        assert code == 0 and len(out.splitlines()) == 2


def test_check_reject_not_minimal(write):
    code, out = run(["check", write("p.lp", EX3), "--model", "a"])
    assert code == 20 and out == "REJECT: not minimal model of reduct\n"


def test_check_accept_partial(write):
    code, out = run(["check", write("p.lp", EX1), "--partial", "/ a b c"])
    assert (code, out) == (0, "ACCEPT\n")


def test_check_reject_rule_unsatisfied(write):
    code, out = run(["check", write("p.lp", "a.\n"), "--model", ""])
    assert code == 20 and out == "REJECT: rule unsatisfied\n"


def test_check_partial_past_the_recursion_limit(write):
    # The weaker interpretations of 1,100 atoms, each a self-loop claimed
    # true, are enumerated one option per atom; the oracle must reject the
    # claim, not fail on the depth of Python's recursion.
    atoms = [f"a{i}" for i in range(1100)]
    f = write("loops.lp", "".join(f"{a} :- {a}.\n" for a in atoms))
    code, out = run(["check", f, "--partial", " ".join(atoms) + " / ", "--cap", "2000"])
    assert code == 20 and out == "REJECT: not minimal model of reduct\n"


def test_check_unknown_atom(write):
    code, _ = run(["check", write("p.lp", "a.\n"), "--model", "zz"])
    assert code == 1


def test_query_yes_with_witness(write):
    code, out = run(["query", write("p.lp", EX3), "--query", "b"])
    assert code == 0 and out.splitlines()[0] == "YES"


def test_query_no(write):
    code, out = run(["query", write("p.lp", EX5), "--query", "a"])
    assert code == 20 and out == "NO\n"


def test_query_total_semantics(write):
    f = write("p.lp", "a | b.\n")
    code, out = run(["query", f, "--query", "a", "--semantics", "total"])
    assert code == 0 and out == "YES\na\n"
    code, _ = run(["query", write("p6.lp", EX6), "--query", "a", "--semantics", "total"])
    assert code == 20


def test_query_filter_agrees(write):
    f = write("p.lp", EX5)
    for query in ("a", "b", "not a"):
        fast = run(["query", f, "--query", query])
        slow = run(["query", f, "--query", query, "--filter"])
        assert fast[0] == slow[0]


def test_query_unknown_atom(write):
    code, _ = run(["query", write("p.lp", "a.\n"), "--query", "zz"])
    assert code == 1


def test_unknown_atoms_name_the_least_one(write, capsys):
    # Every command that reads atoms against the program base shares one
    # check, whose error names the least atom outside the base.
    f = write("p.lp", "a | b.\n")
    for argv, role in (
        (["transform", f, "--kind", "test", "--model", "zz a yy"], "model"),
        (["check", f, "--model", "zz a yy"], "model"),
        (["check", f, "--partial", "zz a / yy"], "model"),
        (["query", f, "--query", "zz, a, not yy"], "query"),
        (["query", f, "--query", "zz, a, not yy", "--filter"], "query"),
        (["query", f, "--query", "zz, a, not yy", "--semantics", "total"], "query"),
        (["query", f, "--query", "zz, a, not yy", "--semantics", "total", "--filter"], "query"),
    ):
        assert run(argv) == (1, ""), argv
        assert capsys.readouterr().err == f"error: {role} atom yy not in program base\n", argv


@pytest.mark.parametrize("mode", ["gnt1", "gnt2", "naive"])
def test_total_query_matches_filter_oracle(mode, tmp_path):
    # query --semantics total (one gnt.solve call on the constrained
    # program) against --filter (oracle enumeration) on every single-literal
    # query of seeded random normal and disjunctive programs.
    for kind, generate in (("normal", random_normal_program), ("disj", random_disjunctive_program)):
        for seed in range(15):
            path = tmp_path / f"{kind}{seed}.lp"
            path.write_text(render_program(generate(seed)), encoding="utf-8")
            p = parse_program(path.read_text(encoding="utf-8"))
            stable = {frozenset(a.text for a in m) for m in enumerate_stable_models(p)}
            for atom in sorted(p.base):
                for positive, query in ((True, atom.text), (False, f"not {atom.text}")):
                    argv = ["query", str(path), "--query", query, "--semantics", "total", "--json"]
                    code, out = run([*argv, "--mode", mode])
                    want_code, want = run([*argv, "--filter"])
                    got, want = json.loads(out), json.loads(want)
                    assert (code, got["answer"]) == (want_code, want["answer"]), (kind, seed, query)
                    if got["answer"] == "YES":
                        witness = frozenset(got["models"][0])
                        assert witness in stable and (atom.text in witness) == positive, (kind, seed, query)


def test_transform_roundtrips_through_solve(write, tmp_path):
    f = write("p.lp", EX5)
    _, text = run(["transform", f, "--kind", "tr"])
    assert len(text.splitlines()) == 9
    g = tmp_path / "tr.lp"
    g.write_text(text)
    code, _ = run(["solve", str(g)])
    assert code == 1  # reserved atoms need the flag
    code, out = run(["solve", str(g), "--allow-reserved"])
    assert code == 0 and out == "p__b p__c\n"


def test_transform_kinds(write):
    f = write("p.lp", "a | b.\n")
    for kind, lines in (("gen0", 5), ("gen1", 5), ("supp", 4), ("gen", 9), ("tr2", 6)):
        _, text = run(["transform", f, "--kind", kind])
        assert len(text.splitlines()) == lines, kind
    _, text = run(["transform", f, "--kind", "test", "--model", "a b"])
    assert ":- a, b." in text.splitlines()
    code, _ = run(["transform", f, "--kind", "test"])
    assert code == 1  # --model required


def test_transform_takes_no_cap_or_timing(write, capsys):
    # transform neither enumerates nor times anything, so it has no --cap
    # or --timing; --json error reports and --allow-reserved still work.
    f = write("p.lp", "a | b.\n")
    for flags in (["--timing"], ["--cap", "3"], ["--json", "--timing", "--cap", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["transform", f, "--kind", "tr", *flags])
        assert exc.value.code == 2, flags
    assert "unrecognized arguments" in capsys.readouterr().err
    r = write("r.lp", "p__x :- not b.\nb :- not p__x.\n")
    for argv, error in (
        (["transform", r, "--kind", "tr"], "line 1, col 1: reserved prefix in atom 'p__x'"),
        (["transform", f, "--kind", "test"], "transform --kind test requires --model"),
        (["transform", f, "--kind", "test", "--model", "c__a"], "invalid plain atom name: 'c__a'"),
        (
            ["transform", f, "--kind", "test", "--model", "c__a", "--allow-reserved"],
            "model atom c__a not in program base",
        ),
    ):
        code, out = run(argv + ["--json"])
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert (code, doc) == (1, {"command": "transform", "error": error, "outcome": "error"})
        assert capsys.readouterr().err == f"error: {error}\n"
    for flags in ([], ["--json"]):
        code, out = run(["transform", r, "--kind", "gen", "--allow-reserved", *flags])
        assert (code, out) == (0, "p__x :- not b.\nb :- not p__x.\n")
    # On success the program is printed as text, so the help promises JSON for errors only.
    transform = build_parser()._subparsers._group_actions[0].choices["transform"]
    assert "--json report errors as JSON; the program is printed as text" in " ".join(transform.format_help().split())


def test_transform_test_lists_rules_by_first_enabled_input(write):
    # The first rule is off (d is in the model), so the head rule of a comes
    # from the third rule: after those of the second, not at a's place in a
    # table ordered by first occurrence.
    f = write("p.lp", "a | b :- c, not d.\nb | x :- c, not f.\na | y :- c, not g.\nc.\n")
    code, text = run(["transform", f, "--kind", "test", "--model", "a b c d x y"])
    assert code == 0
    assert text == (
        "b :- c, not c__b.\n"
        "x :- c, not c__x.\n"
        "a :- c, not c__a.\n"
        "y :- c, not c__y.\n"
        "c__a :- not a.\n"
        "c__b :- not b.\n"
        "c__x :- not x.\n"
        "c__y :- not y.\n"
        ":- c, not b, not x.\n"
        ":- c, not a, not y.\n"
        "c.\n"
        ":- a, b, c, d, x, y.\n"
    )


def test_qbf_commands(write):
    q = write("q.qbf", "e x\na y\nx y\nx -y\n")
    code, out = run(["qbf", "solve", q])
    assert (code, out) == (0, "VALID\n")
    code, out = run(["qbf", "eval", q])
    assert (code, out) == (0, "VALID\n")
    q2 = write("q2.qbf", "e x\na y\nx y\n")
    assert run(["qbf", "solve", q2]) == (20, "INVALID\n")
    assert run(["qbf", "eval", q2]) == (20, "INVALID\n")
    _, text = run(["qbf", "translate", q])
    assert "__u :- not __u." in text.splitlines()


def test_qbf_eval_cap_counts_variables(write, capsys):
    q = write("q14.qbf", render_qbf(gen_random_qbf(14, "gw", 0)))
    code, _ = run(["qbf", "eval", q, "--cap", "12"])
    assert code == 1 and "14 QBF variables exceeds enumeration cap 12" in capsys.readouterr().err
    assert run(["qbf", "eval", q]) == (20, "INVALID\n")


def test_qbf_solve_brute_honours_cap(write, capsys):
    # translations of 12 and 13 atoms: the second above solve's default cap
    # of 12 atoms
    valid = write("v.qbf", "e x1 x2\na y1 y2 y3\nx1 -y1\nx2 y1\n-y2 y3\n")
    invalid = write("i.qbf", "e x1 x2 x3\na y1 y2 y3\nx1 y1 -y2\n-x2 y2 y3\nx3 -y1 -y3\n")
    for q, verdict in ((valid, (0, "VALID\n")), (invalid, (20, "INVALID\n"))):
        assert run(["qbf", "eval", q]) == verdict
        assert run(["qbf", "solve", q, "--mode", "brute", "--cap", "14"]) == verdict
    code, _ = run(["qbf", "solve", invalid, "--mode", "brute"])
    assert code == 1 and "13 atoms exceeds enumeration cap 12" in capsys.readouterr().err


def test_bench_stdout_and_files(write, tmp_path):
    code, out1 = run(["bench", "d3sat", "--atoms", "6", "--ratio", "2.0", "--seed", "4"])
    code2, out2 = run(["bench", "d3sat", "--atoms", "6", "--ratio", "2.0", "--seed", "4"])
    assert code == code2 == 0 and out1 == out2
    assert run(["solve", write("d.lp", out1)])[0] in (0, 20)  # readable without --allow-reserved
    out_dir = tmp_path / "insts"
    code, listing = run(
        ["bench", "qbf", "--vars", "6", "--scheme", "gw", "--seed", "1", "--count", "3", "--out-dir", str(out_dir)]
    )
    assert code == 0 and len(listing.splitlines()) == 3
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "qbf_gw_v6_s1.qbf",
        "qbf_gw_v6_s2.qbf",
        "qbf_gw_v6_s3.qbf",
    ]
    code, _ = run(["bench", "d3sat", "--count", "2"])
    assert code == 1  # multiple instances need --out-dir


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize("out_dir", [False, True])
def test_bench_rejects_count_below_one(capsys, tmp_path, count, out_dir):
    argv = ["bench", "d3sat", "--count", count]
    if out_dir:
        argv += ["--out-dir", str(tmp_path / "insts")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --count must be at least 1, got {count}\n"
    assert not (tmp_path / "insts").exists()


def test_bench_rejects_specified_outside_atoms(capsys):
    for k in ("-1", "11"):
        assert main(["bench", "d3sat", "--atoms", "10", "--specified", k]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --specified must lie between 0 and --atoms (10), got {k}\n"
    for k in ("0", "10"):
        code, out = run(["bench", "d3sat", "--atoms", "10", "--specified", k])
        assert code == 0 and out


def test_bench_rejects_nonpositive_ratio(capsys):
    assert main(["bench", "d3sat", "--atoms", "10", "--ratio", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "ratio must be positive" in err
    code, _ = run(["bench", "d3sat", "--atoms", "10", "--ratio", "0"])
    assert code == 1


def test_bench_checks_out_dir_before_generating(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("aspunfold.cli.gen_d3sat_instance", lambda *args: calls.append(args))
    assert main(["bench", "d3sat", "--count", "3"]) == 1
    out, err = capsys.readouterr()
    assert (out, err, calls) == ("", "error: --count > 1 requires --out-dir\n", [])


@pytest.mark.parametrize("json_flag", [False, True])
def test_closed_stdout_exits_1_without_traceback(write, json_flag):
    # 12 independent pairs have 4,096 stable models, printed as far more
    # text than a pipe holds, so the reader closes its end while the
    # report is still being written.  A JSON report is one line, so the
    # reader stops inside it.
    path = write("pairs.lp", "".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}.\n" for i in range(12)))
    env = {**os.environ, "PYTHONPATH": str(Path(aspunfold.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "aspunfold", "solve", path, "--all"] + ["--json"] * json_flag
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.read(100) if json_flag else proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert first and code == 1
    assert err == b"", err.decode()


def test_json_reports_validate_and_match_text(write):
    f = write("p.lp", "a | b.\n")
    _, text_out = run(["solve", f, "--all"])
    _, json_out = run(["solve", f, "--all", "--json"])
    doc = json.loads(json_out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert [" ".join(m) for m in doc["models"]] == text_out.splitlines()
    assert doc["outcome"] == "models_found"

    for argv in (
        ["solve", write("p6.lp", EX6), "--json"],
        ["partial", write("p5.lp", EX5), "--json", "--stats"],
        ["check", write("c.lp", "a.\n"), "--model", "a", "--json"],
        ["query", write("q.lp", EX3), "--query", "b", "--json"],
        ["qbf", "solve", write("q.qbf", "e x\na y\nx y\n"), "--json"],
    ):
        _, out = run(argv)
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_byte_identical_reruns(write):
    f = write("p.lp", EX5)
    for argv in (
        ["solve", f, "--all", "--stats"],
        ["partial", f, "--all", "--stats"],
        ["query", f, "--query", "b", "--stats"],
    ):
        assert run(argv) == run(argv)


def test_output_independent_of_hash_seed(write):
    # Reruns in one process share one string-hash seed, so only fresh
    # interpreters show output that depends on set iteration order.
    p = write(
        "p.lp",
        "a | b | c.\nd | e :- a, not b.\ne :- d.\nd :- e, not c.\nf :- not g.\ng :- not f.\n:- b, f.\n",
    )
    q = write("q.qbf", render_qbf(gen_random_qbf(8, "gw", 50)))
    commands = (
        ["solve", p, "--all", "--stats"],
        ["partial", p, "--all", "--stats", "--json"],
        ["transform", p, "--kind", "gen"],
        ["qbf", "translate", q],
    )
    src = str(Path(aspunfold.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        outputs.append([
            subprocess.run(
                [sys.executable, "-m", "aspunfold", *argv], env=env, capture_output=True, text=True, check=True
            ).stdout
            for argv in commands
        ])
    assert outputs[0] == outputs[1]
    assert all(outputs[0])


def test_error_messages_independent_of_hash_seed(write):
    # Inputs with two faults in one term or query: the error names the
    # first bad token of the term line, and the least atom of a query,
    # under every hash seed.
    lp = write("p.lp", "a :- not b.\nb :- not a.\n")
    query = "a, not a, b, not b"
    cases = {
        ("qbf", "solve", write("q1.qbf", "e x\na y\nz x -x\n")): "line 3: term variable z not quantified",
        ("qbf", "solve", write("q2.qbf", "e x\na y\nz w y\n")): "line 3: term variable z not quantified",
        ("query", lp, "--query", query, "--semantics", "partial"): "query contains complementary pair on a",
        ("query", lp, "--query", query, "--semantics", "total"): "query contains complementary pair on a",
    }
    src = str(Path(aspunfold.__file__).resolve().parents[1])
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        for argv, message in cases.items():
            done = subprocess.run([sys.executable, "-m", "aspunfold", *argv], env=env, capture_output=True, text=True)
            assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n"), (seed, argv)


def test_json_error_report(write, capsys):
    code, out = run(["solve", write("p.lp", "p__x.\n"), "--json"])
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["outcome"] == "error" and "reserved" in doc["error"]
    capsys.readouterr()


def test_cap_exceeded_is_a_clean_error(write, capsys):
    big = "".join(f"x{i}.\n" for i in range(13))
    code, _ = run(["solve", write("big.lp", big), "--mode", "brute"])
    assert code == 1
    assert "cap" in capsys.readouterr().err
    code, _ = run(["solve", write("big2.lp", big), "--mode", "brute", "--cap", "13"])
    assert code == 0


def test_partial_query_brute_uses_oracle_and_cap(write, capsys):
    # tr of a 7-atom program has 15 atoms with the query's flag atom
    disj = write("d7.lp", "a | b.\nc | d :- a.\ne :- not f.\nf :- g.\ng :- not e.\n")
    code, out = run(["query", disj, "--query", "c, not e", "--mode", "brute", "--cap", "20"])
    assert code == 0 and out == run(["query", disj, "--query", "c, not e"])[1]
    code, _ = run(["query", disj, "--query", "c, not e", "--mode", "brute"])
    assert code == 1 and "cap 12" in capsys.readouterr().err
    # a normal program is answered by the oracle too, so its cap applies
    code, _ = run(["query", write("n.lp", "a :- not b.\n"), "--query", "a", "--mode", "brute", "--cap", "1"])
    assert code == 1 and "cap 1" in capsys.readouterr().err


def test_query_empty_is_psm_existence(write):
    code, _ = run(["query", write("p.lp", EX5), "--query", " "])
    assert code == 0
    code, _ = run(["query", write("p6.lp", EX6), "--query", " "])
    assert code == 20


def test_timing_flag_optional(write):
    f = write("p.lp", "a.\n")
    _, out = run(["solve", f])
    assert "elapsed" not in out
    _, out = run(["solve", f, "--timing"])
    assert "elapsed=" in out


def _stats_lines(out):
    return dict(m.groups() for m in re.finditer(r"^(\w+)=(\d+)$", out, re.M))


def test_query_partial_honours_early_test(write):
    # Without learning, gnt2 on the query translation for a prunes twice
    # under early tests.  With it, the set learned from the first failed
    # test prunes that branch before an early test runs, under either
    # setting.  For a on a second program, an early test still prunes once.
    text = "a | b | c.\nc :- c.\na | c :- a.\nb.\n"
    f = write("e.lp", text)
    g = write("g.lp", "a | b | c.\nc :- a, b, not a.\na :- a, b.\nb :- not c.\nc :- b, c, not c.\n")
    augmented = query_constrained(
        unfold_partiality(parse_program(text)), translate_query(QueryLiterals(frozenset([Literal(Atom("a"), True)])))
    )
    before, learned, prunes = {}, {}, {}
    for policy in ("on", "off"):
        r = reference_solve_disjunctive(augmented, config=GntConfig(early_test=policy))
        before[policy] = r.stats.early_prunes
        code, out = run(["query", f, "--query", "a", "--early-test", policy, "--stats"])
        assert code == 20 and out.splitlines()[0] == "NO"
        stats = _stats_lines(out)
        learned[policy] = tuple(int(stats[k]) for k in ("prunes", "learned", "learned_prunes"))
        code, out = run(["query", g, "--query", "a", "--early-test", policy, "--stats"])
        assert code == 20 and out.splitlines()[0] == "NO"
        prunes[policy] = int(_stats_lines(out)["prunes"])
    assert before == {"on": 2, "off": 0}
    assert learned == {"on": (0, 1, 1), "off": (0, 1, 1)}
    assert prunes == {"on": 1, "off": 0}


def test_query_stats(write):
    f = write("d7.lp", "a | b.\nc | d :- a.\ne :- not f.\nf :- g.\ng :- not e.\n")
    n = write("n.lp", "a :- not b.\nb :- not a.\nc :- a.\n")
    for path in (f, n):
        for extra in ([], ["--semantics", "total"], ["--filter"], ["--semantics", "total", "--filter"]):
            argv = ["query", path, "--query", "c", "--stats", *extra]
            _, out = run(argv)
            stats = _stats_lines(out)
            assert {"choices", "conflicts", "expansions"} <= set(stats), argv
            if "--filter" in extra:
                assert set(stats.values()) == {"0"}, argv
            doc = json.loads(run(argv + ["--json"])[1])
            jsonschema.validate(doc, REPORT_SCHEMA)
            assert doc["stats"] == {k: int(v) for k, v in stats.items()}, argv
    _, out = run(["query", f, "--query", "c", "--stats"])
    assert int(_stats_lines(out)["choices"]) > 0
