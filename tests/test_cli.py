import json
import random
from functools import partial

import pytest

from dakc import Instance, Solution, Verdict, cli, core, oracle_solve, solver_degree, solver_k1
from dakc.cli import _build_parser, _json_text, main
from dakc.core import anchor_subset_count
from dakc.graph import serialize_instance
from helpers import (
    cycle_with_pendants,
    random_dag_degree_capped,
    random_digraph,
    random_digraph_degree_capped,
)

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
    code, out, _ = run(
        capsys, "solve", str(f), "--b", "2", "--k", "2", "--p", "3",
        "--mode", "exhaustive",
    )
    assert code == 0
    assert json.loads(out)["solver"] == "dag"


def test_piece_search_cap_exits_4_and_prints_no_answer(capsys, tmp_path, monkeypatch):
    # two 2-vertex paths have no 3-vertex core at b = 1; a set cap below the
    # search's 6 sets must end the run with exit 4, never with a NO
    f = tmp_path / "into.gr"
    f.write_text("p dakc 4 2\na 2 1\na 4 3\n")
    argv = ("solve", str(f), "--b", "1", "--k", "1", "--p", "3", "--solver", "dag")
    assert run(capsys, *argv)[0] == 1
    monkeypatch.setattr(cli, "SearchConfig", partial(cli.SearchConfig, exhaustive_limit=2))
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


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.gr"
    f.write_text("p dakc 2 1\na 1 1\n")
    code, _, err = run(capsys, "solve", str(f), "--b", "1", "--k", "1", "--p", "1")
    assert code == 3
    assert "self-loop" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent.gr", "--b", "1", "--k", "1", "--p", "1")
    assert code == 3


def test_oracle_command(capsys, path_file):
    code, out, _ = run(capsys, "oracle", path_file, "--b", "1", "--k", "1", "--p", "3")
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "oracle" and report["anchors"] == [1]


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
    _, first, _ = run(
        capsys, "solve", path_file, "--b", "1", "--k", "1", "--p", "3", "--seed", "9"
    )
    _, second, _ = run(
        capsys, "solve", path_file, "--b", "1", "--k", "1", "--p", "3", "--seed", "9"
    )
    assert first == second


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
    code, _, err = run(capsys, "oracle", str(f), "--cap", str(total - 1))
    assert code == 4 and "cap" in err
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
