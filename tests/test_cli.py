import argparse
import importlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

from dakc import (
    DirectedGraph,
    Instance,
    Solution,
    Verdict,
    cli,
    core,
    oracle_solve,
    parse_instance_text,
    solver_bounded,
    solver_degree,
    solver_k1,
)
from dakc.cli import _build_parser, _json_text, main
from dakc.core import anchor_subset_count
from dakc.graph import serialize_instance
from helpers import (
    cycle_with_pendants,
    random_dag_degree_capped,
    random_digraph,
    random_digraph_degree_capped,
)

ROOT = Path(__file__).resolve().parent.parent
PATH3 = "p dakc 3 2\na 1 2\na 2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "path.gr"
    f.write_text(PATH3)
    return str(f)


def test_solve_yes(capsys, path_file):
    code, out, _ = run(capsys, "solve", path_file, "--b", "1", "--k", "1", "--p", "3")
    assert code == 0
    report = json.loads(out)
    assert report["answer"] == "yes"
    assert report["anchors"] == [1]
    assert sorted(report["core"]) == [1, 2, 3]
    assert report["solver"] == "k1"


def test_solve_no_exit_code(capsys, path_file):
    code, out, _ = run(capsys, "solve", path_file, "--b", "0", "--k", "1", "--p", "1")
    assert code == 1
    assert json.loads(out)["answer"] == "no"


def test_solve_unsupported_exit_code(capsys, tmp_path):
    f = tmp_path / "fan.gr"
    # five sources into one sink plus a 2-cycle glued in: max degree 5, cyclic
    f.write_text(
        "p dakc 7 7\na 1 6\na 2 6\na 3 6\na 4 6\na 5 6\na 6 7\na 7 6\n"
    )
    code, out, _ = run(capsys, "solve", str(f), "--b", "1", "--k", "2", "--p", "4")
    assert code == 2
    report = json.loads(out)
    assert report["answer"] == "unsupported"
    assert "W[2]" in report["note"]
    # max stops at its first bisection step, which is the same question
    code, out, err = run(capsys, "max", str(f), "--b", "1", "--k", "2")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"answer": "unsupported", "note": report["note"]}
    # the oracle fallback is only a flag away
    code, out, _ = run(
        capsys, "solve", str(f), "--b", "1", "--k", "2", "--p", "4", "--allow-oracle"
    )
    assert code in (0, 1)
    assert json.loads(out)["solver"] == "oracle"


def test_solve_auto_routes_dags_beyond_degree_regimes(capsys, tmp_path):
    f = tmp_path / "fanout.gr"
    # acyclic, max degree 5, k=2: outside both degree regimes, DAG solver applies
    f.write_text("p dakc 6 5\na 1 6\na 2 6\na 3 6\na 4 6\na 5 6\n")
    code, out, _ = run(capsys, "solve", str(f), "--b", "2", "--k", "2", "--p", "3")
    assert code == 0
    assert json.loads(out)["solver"] == "dag"


def test_piece_search_cap_exits_4_and_prints_no_answer(capsys, tmp_path, monkeypatch):
    # two 2-vertex paths have no 3-vertex core at b = 1; a set cap below the
    # search's 6 sets must end the run with exit 4, never with a NO
    f = tmp_path / "into.gr"
    f.write_text("p dakc 4 2\na 2 1\na 4 3\n")
    argv = ("solve", str(f), "--b", "1", "--k", "1", "--p", "3", "--solver", "dag")
    assert run(capsys, *argv)[0] == 1
    monkeypatch.setattr(solver_bounded, "SET_CAP", 2)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "piece search refused" in err


def test_q_line_defaults_and_flag_override(capsys, tmp_path):
    f = tmp_path / "q.gr"
    f.write_text("p dakc 3 2\na 1 2\na 2 3\nq 1 1 3\n")
    code, out, _ = run(capsys, "solve", str(f))
    assert code == 0
    code, _, _ = run(capsys, "solve", str(f), "--b", "0", "--p", "1")
    assert code == 1


def test_missing_params_is_usage_error(capsys, path_file):
    code, _, err = run(capsys, "solve", path_file, "--b", "1")
    assert code == 4
    assert "--k" in err and "--p" in err
    # max takes no --p, so it misses only --k
    code, out, err = run(capsys, "max", path_file, "--b", "1")
    assert (code, out) == (4, "")
    assert err == f"dakc: usage error: missing --k (no q-line defaults in {path_file})\n"


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.gr"
    f.write_text("p dakc 2 1\na 1 1\n")
    code, _, err = run(capsys, "solve", str(f), "--b", "1", "--k", "1", "--p", "1")
    assert code == 3
    assert "self-loop" in err


@pytest.mark.parametrize("q_line", ["q -1 1 2", "q 1 -1 2", "q 1 1 0"])
@pytest.mark.parametrize("flags", [(), ("--b", "1", "--k", "1", "--p", "2")], ids=["q-line", "flags"])
def test_bad_q_line_values_exit_3_naming_the_line(capsys, tmp_path, q_line, flags):
    # a negative b once exited 4 with a message that named no line, a p of 0
    # passed the canonical reader, and with --b/--k/--p the bad line went
    # unnoticed
    f = tmp_path / "q.gr"
    f.write_text(PATH3 + q_line + "\n")
    code, out, err = run(capsys, "solve", str(f), *flags)
    assert (code, out) == (3, "")
    assert err == f"dakc: parse error: line 4: expected b >= 0, k >= 0 and p >= 1, got {q_line!r}\n"


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent.gr", "--b", "1", "--k", "1", "--p", "1")
    assert code == 3


def test_oracle_command(capsys, path_file):
    code, out, _ = run(capsys, "oracle", path_file, "--b", "1", "--k", "1", "--p", "3")
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "oracle" and report["anchors"] == [1]


@pytest.mark.parametrize(
    "params,code",
    [(("--b", "1", "--k", "1", "--p", "3"), 0), (("--b", "0", "--k", "1", "--p", "1"), 1)],
    ids=["yes", "no"],
)
def test_oracle_command_is_solve_with_the_oracle(capsys, path_file, params, code):
    # oracle runs solve's handler with the solver fixed, so both print alike
    oracle = run(capsys, "oracle", path_file, *params)
    assert oracle[0] == code
    assert oracle == run(capsys, "solve", path_file, *params, "--solver", "oracle")


def test_cap_flags_default_to_the_oracle_cap():
    # one constant sets every default cap, and the literal is written once
    parser = _build_parser()
    for argv in (["solve", "f"], ["oracle", "f"], ["max", "f"]):
        assert parser.parse_args(argv).cap == core.ORACLE_CAP
    oracle = parser.parse_args(["oracle", "f"])
    assert (oracle.solver, oracle.allow_oracle) == ("oracle", False)
    sources = Path(core.__file__).parent.glob("*.py")
    assert sum(path.read_text(encoding="utf-8").count("10_000_000") for path in sources) == 1


def test_solve_then_verify_roundtrip(capsys, path_file, tmp_path):
    code, out, _ = run(capsys, "solve", path_file, "--b", "1", "--k", "1", "--p", "3")
    assert code == 0
    sol_file = tmp_path / "sol.json"
    sol_file.write_text(out)
    code, out, _ = run(
        capsys, "verify", path_file, str(sol_file), "--b", "1", "--k", "1", "--p", "3"
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_tampered_solution(capsys, path_file, tmp_path):
    sol_file = tmp_path / "sol.json"
    sol_file.write_text(json.dumps({"anchors": [], "core": [1, 2, 3]}))
    code, out, _ = run(
        capsys, "verify", path_file, str(sol_file), "--b", "1", "--k", "1", "--p", "3"
    )
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert "in-degree" in report["violation"]


def test_verify_rejects_booleans_as_vertex_ids(capsys, path_file, tmp_path):
    # true would otherwise read as vertex 1 and make this a valid solution
    sol_file = tmp_path / "sol.json"
    for payload in ({"anchors": [True], "core": [True, 2]}, {"anchors": [1], "core": [1, 2, False]}):
        sol_file.write_text(json.dumps(payload))
        code, out, err = run(
            capsys, "verify", path_file, str(sol_file), "--b", "1", "--k", "1", "--p", "2"
        )
        assert code == 3
        assert out == ""
        assert "vertex ids must be integers" in err


def test_verify_rejects_ids_past_n_before_building_masks(capsys, path_file, tmp_path, monkeypatch):
    # an id past n is outside the graph, however large, and is rejected
    # before any vertex set is built from the ids; vset is stubbed, so a
    # regression fails here without allocating a 10**9-bit mask
    built = []
    monkeypatch.setattr(cli, "vset", lambda vs: built.append(vs) or 0)
    sol_file = tmp_path / "sol.json"
    for bad in (4, 10**9):
        sol_file.write_text(json.dumps({"anchors": [1], "core": [1, 2, bad]}))
        code, out, _ = run(
            capsys, "verify", path_file, str(sol_file), "--b", "1", "--k", "1", "--p", "3"
        )
        assert code == 1
        assert json.loads(out) == {"valid": False, "violation": "solution names vertices outside the graph"}
    assert built == []


def test_gen_sat_then_oracle(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    out_file = tmp_path / "inst.gr"
    code, out, _ = run(capsys, "gen", "sat", str(cnf), "--k", "1", "-o", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["b"] == 1 and report["k"] == 1 and report["p"] == 4
    assert (tmp_path / "inst.gr.labels").exists()
    # unsatisfiable source, so the oracle must say no
    code, out, _ = run(capsys, "oracle", str(out_file))
    assert code == 1


def test_gen_setcover_and_amplify(capsys, tmp_path):
    sc = tmp_path / "sc.txt"
    sc.write_text("u 1\ns 1\n")
    base = tmp_path / "base.gr"
    code, out, _ = run(capsys, "gen", "setcover", str(sc), "--b", "1", "-o", str(base))
    assert code == 0
    assert json.loads(out)["p"] == 3
    amp = tmp_path / "amp.gr"
    code, out, _ = run(
        capsys, "gen", "amplify", str(base), "--k", "2", "--delta", "5", "-o", str(amp)
    )
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 18 and report["b"] == 3 and report["p"] == 15
    code, out, _ = run(capsys, "oracle", str(amp))
    assert code == 0


def test_gen_amplify_reads_the_base_label_sidecar(capsys, tmp_path):
    sc = tmp_path / "sc.txt"
    sc.write_text("u 1\ns 1\n")
    base = tmp_path / "base.gr"
    _, out, _ = run(capsys, "gen", "setcover", str(sc), "--b", "1", "-o", str(base))
    n = json.loads(out)["n"]
    sidecar = tmp_path / "base.gr.labels"
    sidecar.write_text("\n".join(f"{v} name{v}" for v in range(1, n + 1)).replace("\n", "\n\n", 1))
    amp = tmp_path / "amp.gr"
    code, _, _ = run(capsys, "gen", "amplify", str(base), "--k", "2", "--delta", "5", "-o", str(amp))
    assert code == 0
    names = [line.split()[1] for line in (tmp_path / "amp.gr.labels").read_text().splitlines()]
    assert names[: n + 1] == [f"name{v}" for v in range(1, n + 1)] + ["D1#1"]
    sidecar.write_text("1 first\n2\n3 third\n")
    code, out, err = run(capsys, "gen", "amplify", str(base), "--k", "2", "--delta", "5", "-o", str(amp))
    assert (code, out) == (3, "")
    assert err == f"dakc: parse error: line 2: malformed label sidecar {sidecar}\n"
    sidecar.write_text("1 first\n3 third\n")
    code, out, err = run(capsys, "gen", "amplify", str(base), "--k", "2", "--delta", "5", "-o", str(amp))
    assert (code, out) == (3, "")
    assert err == f"dakc: parse error: line 2: label id '3' in {sidecar} is not the next id 2\n"


def test_gen_amplify_refuses_a_base_whose_q_line_k_is_not_1(capsys, tmp_path):
    # amplify raises threshold 1 only; a k = 2 base was once amplified as if
    # its k were 1, so the output answered a different question
    base = tmp_path / "base.gr"
    base.write_text(PATH3 + "q 1 2 4\n")
    amp = tmp_path / "amp.gr"
    code, out, err = run(capsys, "gen", "amplify", str(base), "--k", "2", "--delta", "5", "-o", str(amp))
    assert (code, out) == (4, "")
    assert "threshold k = 1" in err
    assert not amp.exists()
    base.write_text(PATH3 + "q 1 1 3\n")
    assert run(capsys, "gen", "amplify", str(base), "--k", "2", "--delta", "5", "-o", str(amp))[0] == 0


@pytest.mark.parametrize(
    "kind,text,message",
    [
        ("clique", "p ug 2 1\ne 1 2\n", "gen clique requires --b (clique size)"),
        ("setcover", "u 1\ns 1\n", "gen setcover requires --b (cover budget)"),
    ],
)
def test_gen_without_budget_is_usage_error(capsys, tmp_path, kind, text, message):
    src = tmp_path / "src.txt"
    src.write_text(text)
    out_file = tmp_path / "out.gr"
    code, out, err = run(capsys, "gen", kind, str(src), "-o", str(out_file))
    assert (code, out) == (4, "")
    assert err == f"dakc: usage error: {message}\n"
    assert not out_file.exists()


@pytest.mark.parametrize("flags", [(), ("--b", "1"), ("--p", "3")], ids=["none", "b-only", "p-only"])
def test_gen_amplify_without_base_parameters_is_usage_error(capsys, tmp_path, path_file, flags):
    # the base has no q line, so amplify needs both --b and --p
    out_file = tmp_path / "amp.gr"
    code, out, err = run(capsys, "gen", "amplify", path_file, *flags, "-o", str(out_file))
    assert (code, out) == (4, "")
    assert err == "dakc: usage error: gen amplify needs a base q-line or explicit --b/--p\n"
    assert not out_file.exists()


def test_gen_clique(capsys, tmp_path):
    ug = tmp_path / "tri.ug"
    ug.write_text("p ug 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    out_file = tmp_path / "clique.gr"
    code, out, _ = run(
        capsys, "gen", "clique", str(ug), "--b", "2", "--k", "2", "-o", str(out_file)
    )
    assert code == 0
    code, _, _ = run(capsys, "oracle", str(out_file))
    assert code == 0


@pytest.mark.parametrize(
    "argv,text",
    [
        (("solve", "{src}", "--b", "1", "--k", "1", "--p", "1"), "p dakc {huge} 0\n"),
        (("verify", "{src}", "{sol}", "--b", "1", "--k", "1", "--p", "1"), "p dakc 2 {huge}\na 1 2\n"),
        (("seps", "{src}", "--s", "1", "--t", "2", "--h", "1"), "p dakc {huge} 0\n"),
        (("gen", "sat", "{src}", "-o", "{out}"), "p cnf {huge} 1\n1 0\n"),
        (("gen", "setcover", "{src}", "--b", "1", "-o", "{out}"), "u {huge}\ns 1\n"),
        (("gen", "clique", "{src}", "--b", "1", "-o", "{out}"), "p ug -2 0\n"),
    ],
    ids=["solve", "verify", "seps", "gen-sat", "gen-setcover", "gen-clique-negative"],
)
def test_bad_counts_exit_3_with_one_parse_error_line(capsys, tmp_path, argv, text):
    # a count above sys.maxsize once crashed with an OverflowError and exit 1,
    # which dakc verify documents as "invalid"; a negative one once went
    # through, and gen clique wrote a 0-vertex instance
    src = tmp_path / "src.txt"
    src.write_text(text.format(huge=10**22))
    sol = tmp_path / "sol.json"
    sol.write_text('{"anchors": [1], "core": [1]}')
    paths = {"src": src, "sol": sol, "out": tmp_path / "out.gr"}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (3, "")
    assert err.startswith("dakc: parse error: line 1: ") and err.count("\n") == 1
    assert not (tmp_path / "out.gr").exists()


def test_non_utf8_input_exits_3_with_one_parse_error_line(capsys, tmp_path, path_file):
    # undecodable bytes are bad input, on every file a command reads: the
    # instance, a solution, a generator source and the amplify sidecar
    bad = tmp_path / "bad.gr"
    bad.write_bytes(b"p dakc 2 1\na 1 2\n\xff\n")
    sol = tmp_path / "sol.json"
    sol.write_bytes(b'{"anchors": [1],\n "core": [1, 2, 3], "x": "\xe9"}')
    cnf = tmp_path / "f.cnf"
    cnf.write_bytes(b"c caf\xe9\np cnf 1 1\n1 0\n")
    sc = tmp_path / "sc.txt"
    sc.write_text("u 1\ns 1\n")
    base = str(tmp_path / "base.gr")
    assert run(capsys, "gen", "setcover", str(sc), "--b", "1", "-o", base)[0] == 0
    sidecar = tmp_path / "base.gr.labels"
    sidecar.write_bytes(b"1 \x80\n")
    out_file = str(tmp_path / "out.gr")
    for argv, path, line in (
        (("solve", str(bad), "--b", "1", "--k", "1", "--p", "1"), bad, 3),
        (("verify", path_file, str(sol), "--b", "1", "--k", "1", "--p", "3"), sol, 2),
        (("gen", "sat", str(cnf), "-o", out_file), cnf, 1),
        (("gen", "amplify", base, "--k", "2", "--delta", "5", "-o", out_file), sidecar, 1),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"dakc: parse error: line {line}: {path} is not UTF-8 (")
        assert err.count("\n") == 1


def test_gen_sat_takes_only_the_field_p_as_problem_line(capsys, tmp_path):
    src = tmp_path / "f.cnf"
    src.write_text("px cnf 1 1\n1 0\n")
    out_file = tmp_path / "out.gr"
    code, out, err = run(capsys, "gen", "sat", str(src), "--k", "1", "-o", str(out_file))
    assert (code, out) == (3, "")
    assert err == "dakc: parse error: line 1: clause data before problem line\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "command", [("solve", "--b", "1", "--k", "1", "--p", "1"), ("verify",), ("seps", "--s", "1", "--t", "2", "--h", "1")]
)
def test_out_of_memory_exits_4_with_one_line(capsys, tmp_path, monkeypatch, command):
    # a vertex count that fits sys.maxsize but not memory once crashed with
    # a MemoryError traceback and exit 1, which solve documents as "no" and
    # verify as "invalid"; the reader is stubbed, so nothing is allocated
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_instance_text", exhausted)
    inst = tmp_path / "big.gr"
    inst.write_text("p dakc 1000000000000 0\n")
    sol = tmp_path / "sol.json"
    sol.write_text('{"anchors": [1], "core": [1]}')
    args = (str(sol), "--b", "1", "--k", "1", "--p", "1") if command == ("verify",) else command[1:]
    code, out, err = run(capsys, command[0], str(inst), *args)
    assert (code, out, err) == (4, "", "dakc: out of memory\n")


@pytest.mark.parametrize(
    "kind,flag",
    [
        ("sat", "--b"),
        ("sat", "--p"),
        ("sat", "--delta"),
        ("clique", "--p"),
        ("clique", "--delta"),
        ("setcover", "--k"),
        ("setcover", "--p"),
        ("setcover", "--delta"),
    ],
)
def test_gen_rejects_flags_its_kind_ignores(capsys, tmp_path, kind, flag):
    sources = {"sat": "p cnf 1 1\n1 0\n", "clique": "p ug 2 1\ne 1 2\n", "setcover": "u 1\ns 1\n"}
    src = tmp_path / "src.txt"
    src.write_text(sources[kind])
    out_file = tmp_path / "out.gr"
    needs_b = () if kind == "sat" or flag == "--b" else ("--b", "1")
    code, out, err = run(capsys, "gen", kind, str(src), *needs_b, flag, "3", "-o", str(out_file))
    assert (code, out) == (4, "")
    assert err == f"dakc: usage error: gen {kind} does not take {flag}\n"
    assert not out_file.exists()
    # without the flag the same call generates
    assert run(capsys, "gen", kind, str(src), *needs_b, "-o", str(out_file))[0] == 0


def test_seps_command(capsys, tmp_path):
    f = tmp_path / "chain.gr"
    f.write_text("p dakc 4 3\na 1 2\na 2 3\na 3 4\n")
    code, out, _ = run(capsys, "seps", str(f), "--s", "1", "--t", "4", "--h", "2")
    assert code == 0
    report = json.loads(out)
    assert report["separators"] == [[2]]


# s = 1 and t = 9 have two important separators of size at most 3
SEPS9 = (
    "p dakc 9 27\na 1 3\na 1 4\na 1 6\na 2 1\na 2 3\na 2 4\na 2 9\na 3 2\na 3 4\n"
    "a 3 6\na 3 8\na 4 8\na 5 3\na 5 6\na 6 1\na 6 4\na 6 5\na 7 1\na 7 3\n"
    "a 7 6\na 7 8\na 8 2\na 8 4\na 8 5\na 9 2\na 9 3\na 9 5\n"
)


def test_reports_print_as_indented_json(capsys, tmp_path):
    # each command's report is written list by list through the C encoder,
    # and still prints exactly the text of json.dumps(report, indent=2)
    odd = tmp_path / 'dir "é\\ü€'
    odd.mkdir()
    path, seps, tri = odd / "path.gr", odd / "seps.gr", odd / "tri.ug"
    path.write_text(PATH3)
    seps.write_text(SEPS9)
    tri.write_text("p ug 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    sol = odd / "sol.json"
    sol.write_text(json.dumps({"anchors": [], "core": [1, 2, 3]}))
    params = ("--b", "1", "--k", "1", "--p", "3")
    reports = {}
    for argv in (
        ("solve", str(path), *params),
        ("solve", str(path), "--b", "0", "--k", "1", "--p", "1"),
        ("max", str(path), "--b", "1", "--k", "1"),
        ("verify", str(path), str(sol), *params),
        ("gen", "clique", str(tri), "--b", "2", "--k", "2", "-o", str(odd / "clique.gr")),
        ("seps", str(seps), "--s", "1", "--t", "9", "--h", "3"),
    ):
        _, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        reports[argv[0], report.get("answer")] = report
    assert reports["solve", "no"]["anchors"] is None
    assert "in-degree" in reports["verify", None]["violation"]
    assert "é" in reports["gen", None]["instance"]
    assert reports["seps", None]["separators"] == [[2], [3, 4]]
    for value in (
        {},
        [],
        {"empty": [], "nothing": {}, "none": None},
        [[], [[]], [[1, 2], [3]], {"deep": [{"x": [None, True, 1.5]}]}],
        'tab\t "quote" back\\ é € \U0001f600',
        {1: [2], 2.5: {"a": 0}, True: None, None: "x"},
        (1, (2, 3)),
    ):
        assert _json_text(value) == json.dumps(value, indent=2)


def test_seps_answers_with_an_arc_from_t_to_s(capsys, tmp_path):
    # an arc t -> s plays no part in separating s from t; only an arc s -> t
    # leaves no separator, and is refused
    f = tmp_path / "back.gr"
    f.write_text("p dakc 4 5\na 1 2\na 1 3\na 2 4\na 3 4\na 4 1\n")
    code, out, err = run(capsys, "seps", str(f), "--s", "1", "--t", "4", "--h", "2")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["count"], report["separators"]) == (1, [[2, 3]])
    code, out, err = run(capsys, "seps", str(f), "--s", "4", "--t", "1", "--h", "2")
    assert (code, out, err) == (4, "", "dakc: s and t are adjacent: no s-t separator exists\n")


def test_seps_range_error_names_ids_as_typed(capsys, tmp_path):
    f = tmp_path / "three.gr"
    f.write_text(PATH3)
    for s, t in ((0, 3), (1, 4), (4, 1), (-1, 2)):
        code, out, err = run(capsys, "seps", str(f), "--s", str(s), "--t", str(t), "--h", "1")
        assert (code, out, err) == (4, "", f"dakc: s={s}, t={t} out of range 1..3\n")
    code, out, _ = run(capsys, "seps", str(f), "--s", "1", "--t", "3", "--h", "1")
    assert code == 0 and json.loads(out)["separators"] == [[2]]


def test_max_command(capsys, path_file):
    code, out, _ = run(capsys, "max", path_file, "--b", "1", "--k", "1")
    assert code == 0
    assert json.loads(out)["max_p"] == 3
    code, out, _ = run(capsys, "max", path_file, "--b", "0", "--k", "1")
    assert code == 0
    assert json.loads(out)["max_p"] == 0


def test_removed_search_flags_are_usage_errors(capsys, path_file):
    # solve and max take no search-mode, seed or miss-probability flag
    for flag, value in (("--mode", "exhaustive"), ("--seed", "9"), ("--eps", "0.5")):
        for command, params in (("solve", ("--p", "3")), ("max", ())):
            code, out, err = run(capsys, command, path_file, "--b", "1", "--k", "1", *params, flag, value)
            assert (code, out) == (4, "") and err.startswith("dakc: usage error:") and flag in err


def test_trial_cap_is_accepted_and_ignored(capsys, tmp_path):
    # --trial-cap changes no byte of any report or exit code, in every
    # bounded regime and through max's bisection
    rng = random.Random(131)
    routes = set()
    for i in range(45):
        n = rng.randint(3, 10)
        draw = random_dag_degree_capped if i % 3 == 2 else random_digraph_degree_capped
        g = draw(rng, n, (3, 4, 5)[i % 3], rng.uniform(0.5, 0.9))
        f = tmp_path / f"s{i}.gr"
        f.write_text(serialize_instance(g, (rng.randint(1, 2), 2, rng.randint(3, n))))
        for command in ("solve", "max"):
            plain = run(capsys, command, str(f))
            assert run(capsys, command, str(f), "--trial-cap", "2000") == plain
            if command == "solve":
                routes.add((json.loads(plain[1])["solver"], plain[0]))
    assert routes >= {(solver, code) for solver in ("high", "half", "dag") for code in (0, 1)}


def test_max_matches_oracle_on_random_k1_graphs(capsys, tmp_path, monkeypatch):
    # the largest p the oracle answers YES to, tried p by p; every bisection
    # step of one max run shares one k = 1 plan, so the plan is swept once
    sweeps = []
    real_sweep = solver_k1._sweep
    monkeypatch.setattr(solver_k1, "_sweep", lambda *a: sweeps.append(a) or real_sweep(*a))
    rng = random.Random(79)
    planned = 0
    for i in range(40):
        n = rng.randint(1, 10)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.4))
        b = rng.randint(0, 3)
        f = tmp_path / f"g{i}.gr"
        f.write_text(serialize_instance(g))
        sweeps.clear()
        code, out, _ = run(capsys, "max", str(f), "--b", str(b), "--k", "1")
        assert code == 0
        expect = max(
            (p for p in range(1, n + 1) if oracle_solve(Instance(graph=g, b=b, k=1, p=p)).is_yes),
            default=0,
        )
        assert json.loads(out)["max_p"] == expect
        assert len(sweeps) <= 1
        planned += len(sweeps)
    assert planned >= 20


def test_shared_parser_reports_match_fresh_parser(capsys, path_file):
    calls = [
        ("solve", path_file, "--b", "1", "--k", "1", "--p", "3"),
        ("max", path_file, "--b", "1", "--k", "1"),
        ("solve", path_file, "--b", "1"),
        ("solve", path_file, "--bogus"),
        ("oracle", path_file, "--b", "0", "--k", "1", "--p", "1"),
        ("solve", path_file, "--b", "1", "--k", "1", "--p", "3"),
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 4, 4, 1, 0]


def test_reports_are_deterministic(capsys, path_file):
    _, first, _ = run(capsys, "solve", path_file, "--b", "1", "--k", "1", "--p", "3")
    _, second, _ = run(capsys, "solve", path_file, "--b", "1", "--k", "1", "--p", "3")
    assert first == second


def test_readme_lists_the_flags_of_solve_and_max():
    # the README's flag list is the parser's: no removed flag lingers there
    # and no flag goes undocumented
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Flags of `solve` and `max` \(`max` takes no `--p`\):\s*`([^`]*)`", readme)
    assert listed is not None
    documented = set(listed.group(1).split())
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, expect in (("solve", documented), ("max", documented - {"--p"})):
        flags = {
            flag
            for action in commands.choices[command]._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert flags == expect, command


def test_threads_flag_validated(capsys, path_file):
    # --threads did nothing and was removed, so any value is a usage error
    code, out, err = run(
        capsys, "solve", path_file, "--b", "1", "--k", "1", "--p", "3", "--threads", "2"
    )
    assert code == 4 and out == "" and "--threads" in err


def test_oracle_cap_exit_code_counts_every_vertex(capsys, tmp_path):
    f = tmp_path / "cycle.gr"
    f.write_text(serialize_instance(cycle_with_pendants(), (3, 1, 23)))
    total = anchor_subset_count(23, 3)
    code, out, err = run(capsys, "oracle", str(f), "--cap", str(total - 1))
    assert code == 4 and "cap" in err
    # solve's oracle refuses alike: the oracle command is solve's handler
    assert run(capsys, "solve", str(f), "--solver", "oracle", "--cap", str(total - 1)) == (code, out, err)
    code, out, _ = run(capsys, "oracle", str(f), "--cap", str(total))
    assert code == 0 and json.loads(out)["anchors"] == [21, 22, 23]


def test_unverifiable_witness_fails_solve_and_max(capsys, monkeypatch, tmp_path):
    # a solver that claims the lowest p vertices, unanchored: on a path only
    # its source lacks an in-arc, so every such claim is false
    f = tmp_path / "path.gr"
    f.write_text("p dakc 3 2\na 1 2\na 2 3\nq 0 1 2\n")
    # patched where dakc.solve looks it up
    monkeypatch.setattr(
        solver_degree, "solve_k1", lambda inst: Verdict.yes(Solution(anchors=0, core=(1 << inst.p) - 1))
    )
    for command in ("solve", "max"):
        code, out, err = run(capsys, command, str(f), "--solver", "k1")
        assert code == 4 and "unverifiable" in err
        assert "max_p" not in out


def test_each_reported_yes_is_verified_once(capsys, monkeypatch, tmp_path):
    # solvers leave verification to the report; max checks its best witness
    # alone, not each bisection step
    calls = []
    real = core.solution_violation
    monkeypatch.setattr(core, "solution_violation", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(97)
    seen = set()
    for i in range(60):
        n = rng.randint(2, 12)
        g = random_digraph(rng, n, rng.uniform(0.05, 0.3))
        f = tmp_path / f"g{i}.gr"
        f.write_text(serialize_instance(g, (rng.randint(0, 2), 1, rng.randint(1, n))))
        for argv in (("solve",), ("max",), ("solve", "--solver", "oracle")):
            calls.clear()
            code, out, _ = run(capsys, argv[0], str(f), *argv[1:])
            report = json.loads(out)
            if argv[0] == "max":
                yes = report["max_p"] >= 1
                seen.add(("max", yes))
            else:
                yes = report["answer"] == "yes"
                seen.add((argv[-1], yes))
            assert code in (0, 1) and len(calls) == (1 if yes else 0)
    assert seen >= {("solve", True), ("solve", False), ("max", True), ("max", False), ("oracle", True)}
    # k = 2 on degree-capped graphs: the piece search answers for the
    # high-k, half-k and DAG routes
    routes = set()
    for i in range(60):
        n = rng.randint(3, 10)
        draw = random_dag_degree_capped if i % 3 == 2 else random_digraph_degree_capped
        g = draw(rng, n, (3, 4, 5)[i % 3], rng.uniform(0.5, 0.9))
        f = tmp_path / f"d{i}.gr"
        f.write_text(serialize_instance(g, (rng.randint(1, 2), 2, rng.randint(3, n))))
        for command in ("solve", "max"):
            calls.clear()
            code, out, _ = run(capsys, command, str(f))
            report = json.loads(out)
            if command == "max":
                yes = report["max_p"] >= 1
            else:
                yes = report["answer"] == "yes"
                routes.add((report["solver"], yes))
            assert code in (0, 1) and len(calls) == (1 if yes else 0)
    assert routes >= {("high", True), ("half", True), ("dag", True)}


def test_k1_setcover_graph_answers_alike_with_shuffled_ids(capsys, tmp_path, monkeypatch):
    # the benchmark's seed-1 set-cover graphs have topological ids, which
    # the k = 1 plan reads in one pass over the arcs; relabelled at random,
    # the same graphs take the Kahn sweep, and solve and max must answer
    # with the same kinds and the same max_p
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    corpus = importlib.import_module("corpus")
    # the schedule's first size alone: the corpus's first eight graphs
    monkeypatch.setattr(corpus, "K1_SCHEDULE", corpus.K1_SCHEDULE[:1])
    ops = corpus.k1_setcover(random.Random(1), tmp_path)
    rng = random.Random(163)
    kinds = set()
    for op in ops[:8]:
        parsed = parse_instance_text(Path(op.argv[1]).read_text())
        g = parsed.graph
        label = rng.sample(range(g.n), g.n)
        shuffled = DirectedGraph.from_arcs(g.n, [(label[u], label[v]) for u, v in g.arcs()])
        assert all(u < v for u, v in g.arcs()) and not all(u < v for u, v in shuffled.arcs())
        f = tmp_path / f"shuffled-{op.ident}.dakc"
        f.write_text(serialize_instance(shuffled, parsed.params))
        code, out, err = run(capsys, *op.argv)
        report = json.loads(out)
        code_s, out_s, err_s = run(capsys, op.argv[0], str(f), *op.argv[2:])
        report_s = json.loads(out_s)
        assert (code_s, err_s) == (code, err)
        if op.kind == "max":
            assert report_s == report
        else:
            assert (report_s["answer"], report_s["solver"]) == (report["answer"], report["solver"])
            kinds.add(report["answer"])
    assert kinds == {"yes", "no"}
