import random

import pytest

from dakc import (
    CnfFormula,
    DirectedGraph,
    Instance,
    ParseError,
    SetCoverInstance,
    amplify_k,
    gen_from_clique,
    gen_from_sat,
    gen_from_setcover,
    oracle_solve,
    parse_dimacs_cnf,
    parse_setcover_text,
    parse_undirected_text,
    strongly_connected_components,
    vset,
)
from helpers import clique_brute_force, cover_brute_force, sat_brute_force


def _is_dag(g):
    return not any(cyclic for _, cyclic in strongly_connected_components(g))


def test_sat_examples():
    gen = gen_from_sat(CnfFormula(1, ((1,),)), k=1)
    inst = gen.instance
    assert inst.graph.n == 4 and inst.b == 1 and inst.p == 3
    assert gen.labels == ("x1", "~x1", "r1", "v1")
    assert set(inst.graph.arcs()) == {(0, 2), (1, 2), (0, 3)}
    assert oracle_solve(inst).is_yes

    gen = gen_from_sat(CnfFormula(1, ((1,), (-1,))), k=1)
    assert gen.instance.graph.n == 5 and gen.instance.b == 1 and gen.instance.p == 4
    assert oracle_solve(gen.instance).kind == "no"

    gen = gen_from_sat(CnfFormula(1, ((1,),)), k=2)
    assert gen.instance.graph.n == 10
    # k - 1 helpers into r1 and into v1, each fed by k private sources
    assert gen.labels == ("x1", "~x1", "r1", "Y1#1", "Z1#1", "Z1#2", "v1", "U1#1", "W1#1", "W1#2")
    assert set(gen.instance.graph.arcs()) == {(0, 2), (1, 2), (3, 2), (4, 3), (5, 3), (0, 6), (7, 6), (8, 7), (9, 7)}
    gen = gen_from_sat(CnfFormula(1, ((1,),)), k=3)
    assert gen.labels == (
        "x1", "~x1", "r1", "Y1#1", "Y1#2", *(f"Z1#{i}" for i in range(1, 7)),
        "v1", "U1#1", "U1#2", *(f"W1#{i}" for i in range(1, 7)),
    )


def test_sat_structural_bounds():
    rng = random.Random(107)
    for k in (1, 2, 3):
        f = CnfFormula(2, ((1, -2), (-1, 2)))
        gen = gen_from_sat(f, k=k)
        g = gen.instance.graph
        assert _is_dag(g)
        assert g.max_degree() <= k + 2
        n, m = 2, 2
        assert gen.instance.b == n * (k * (k - 1) + 1) + m * k * (k - 1)
        assert gen.instance.p == n * ((k + 1) * (k - 1) + 2) + m * ((k + 1) * (k - 1) + 1)


def test_sat_shape_rejections():
    with pytest.raises(ValueError, match="clause 1 has 4"):
        gen_from_sat(CnfFormula(4, ((1, 2, 3, 4),)))
    with pytest.raises(ValueError, match="clause 2 repeats"):
        gen_from_sat(CnfFormula(1, ((1,), (-1, -1))))
    with pytest.raises(ValueError, match="x1 occurs 3 times positively"):
        gen_from_sat(CnfFormula(2, ((1, 2), (1, -2), (1,))))
    with pytest.raises(ValueError, match="x1 occurs 4 times"):
        gen_from_sat(CnfFormula(2, ((1, 2), (1, -2), (-1,), (-1, 2))))


def test_clique_examples():
    tri = [(0, 1), (1, 2), (0, 2)]
    gen = gen_from_clique(3, tri, b=2, k=2)
    assert gen.instance.b == 2 and gen.instance.p == 3
    assert oracle_solve(gen.instance).is_yes

    path = [(0, 1), (1, 2)]
    gen = gen_from_clique(3, path, b=3, k=2)
    assert gen.instance.b == 3 and gen.instance.p == 6
    assert oracle_solve(gen.instance).kind == "no"

    gen = gen_from_clique(3, tri, b=2, k=3)
    assert gen.instance.b == 3 and gen.instance.p == 4
    assert gen.labels.count("z1") == 1
    assert oracle_solve(gen.instance).is_yes
    # the same edge check as to_bidirected: range first, per edge in order
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
        gen_from_clique(3, [(0, 3), (1, 1)], b=2, k=2)
    with pytest.raises(ValueError, match=r"^duplicate edge \{1,0\}$"):
        gen_from_clique(3, [(0, 1), (1, 0)], b=2, k=2)


def test_setcover_examples():
    gen = gen_from_setcover(SetCoverInstance(universe=1, sets=(vset([0]),), budget=1))
    inst = gen.instance
    assert inst.graph.n == 6 and inst.p == 3 and inst.k == 1
    assert oracle_solve(inst).is_yes

    two = SetCoverInstance(universe=2, sets=(vset([0]), vset([1])), budget=1)
    gen = gen_from_setcover(two)
    assert gen.instance.p == 20
    assert oracle_solve(gen.instance).kind == "no"

    covered = SetCoverInstance(universe=2, sets=(vset([0]), vset([1])), budget=2)
    assert oracle_solve(gen_from_setcover(covered).instance).is_yes


def test_setcover_rejects_uncovered_element():
    with pytest.raises(ValueError, match="u2 occurs in no set"):
        gen_from_setcover(SetCoverInstance(universe=2, sets=(vset([0]),), budget=1))


def test_setcover_structure():
    sc = SetCoverInstance(universe=2, sets=(vset([0, 1]), vset([1])), budget=1)
    g = gen_from_setcover(sc).instance.graph
    assert _is_dag(g)
    assert g.max_degree() <= 3


def test_amplify_example():
    base = gen_from_setcover(
        SetCoverInstance(universe=1, sets=(vset([0]),), budget=1)
    ).instance
    amp = amplify_k(base, k=2, delta=5).instance
    assert amp.graph.n == 18 and amp.b == 3 and amp.p == 15
    assert _is_dag(amp.graph)
    assert amp.graph.max_degree() <= 5
    assert oracle_solve(amp).is_yes


def test_amplify_preserves_no_and_checks_degrees():
    base = gen_from_setcover(
        SetCoverInstance(universe=2, sets=(vset([0]), vset([1])), budget=1)
    ).instance
    amp = amplify_k(base, k=2, delta=5).instance
    g = amp.graph
    for v in range(base.graph.n):
        assert g.in_degrees[v] + g.out_degrees[v] <= 2 + 2  # base degree <= 3 plus k-1 block arcs
    for v in range(base.graph.n, g.n):
        assert g.in_degrees[v] + g.out_degrees[v] <= 2 * 2 + 1
    assert oracle_solve(amp).kind == "no"


def test_amplify_rejections():
    base = gen_from_setcover(
        SetCoverInstance(universe=1, sets=(vset([0]),), budget=1)
    ).instance
    with pytest.raises(ValueError, match="delta"):
        amplify_k(base, k=2, delta=4)
    with pytest.raises(ValueError, match="threshold k = 1"):
        amplify_k(Instance(graph=base.graph, b=1, k=2, p=3), k=2, delta=5)
    # a 3-cycle with a pendant: max degree 3, one cycle
    cyclic = DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    with pytest.raises(ValueError, match="acyclic"):
        amplify_k(Instance(graph=cyclic, b=1, k=1, p=3), k=2, delta=5)


def test_equivalence_on_random_sources():
    rng = random.Random(109)
    # SAT at threshold 1
    for _ in range(25):
        num_vars = rng.randint(1, 3)
        from helpers import random_restricted_cnf

        nv, clauses = random_restricted_cnf(rng, num_vars, max_clauses=4)
        f = CnfFormula(nv, clauses)
        inst = gen_from_sat(f, k=1).instance
        assert oracle_solve(inst).is_yes == sat_brute_force(nv, clauses)
    # clique at threshold 2
    for _ in range(25):
        n = rng.randint(2, 5)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        b = rng.randint(1, 3)
        inst = gen_from_clique(n, edges, b=b, k=2).instance
        assert oracle_solve(inst).is_yes == clique_brute_force(n, edges, b)
    # set cover
    for _ in range(15):
        universe = rng.randint(1, 2)
        r = rng.randint(1, 2)
        sets = tuple(
            vset(e for e in range(universe) if rng.random() < 0.7) for _ in range(r)
        )
        if any(not any((s >> e) & 1 for s in sets) for e in range(universe)):
            continue
        sc = SetCoverInstance(universe=universe, sets=sets, budget=rng.randint(1, r))
        inst = gen_from_setcover(sc).instance
        assert oracle_solve(inst).is_yes == cover_brute_force(universe, sets, sc.budget)


def test_parse_dimacs_cnf():
    f = parse_dimacs_cnf("c comment\np cnf 3 2\n1 -2 0\n2\n3 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2), (2, 3))
    with pytest.raises(ParseError, match="promises 2"):
        parse_dimacs_cnf("p cnf 3 2\n1 0\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_dimacs_cnf("p cnf 1 1\n2 0\n")
    with pytest.raises(ParseError, match="unterminated"):
        parse_dimacs_cnf("p cnf 1 1\n1\n")
    # a negative count is rejected on the problem line, as in p dakc
    for text in ("p cnf -3 0\n", "c x\np cnf 1 -1\n"):
        with pytest.raises(ParseError, match="negative variable or clause count") as exc:
            parse_dimacs_cnf(text)
        assert (exc.value.kind, exc.value.line_no) == ("header", text.count("\n"))


def test_parse_undirected():
    n, edges = parse_undirected_text("c g\np ug 3 2\ne 1 2\ne 2 3\n")
    assert n == 3 and edges == [(0, 1), (1, 2)]
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_undirected_text("p ug 2 2\ne 1 2\ne 2 1\n")
    with pytest.raises(ParseError, match="self-loop"):
        parse_undirected_text("p ug 2 1\ne 1 1\n")
    # -1 once read as "no problem line yet"; -2 was accepted as n
    for text in ("p ug -1 0\n", "p ug -2 0\n", "c x\np ug 2 -1\n"):
        with pytest.raises(ParseError, match="negative vertex or edge count") as exc:
            parse_undirected_text(text)
        assert (exc.value.kind, exc.value.line_no) == ("header", text.count("\n"))


def test_parse_setcover():
    sc = parse_setcover_text("u 3\ns 1 2\ns 3\n", budget=2)
    assert sc.universe == 3
    assert sc.sets == (vset([0, 1]), vset([2]))
    assert sc.budget == 2
    with pytest.raises(ParseError, match="out of range"):
        parse_setcover_text("u 2\ns 3\n", budget=1)
    with pytest.raises(ParseError, match="repeated"):
        parse_setcover_text("u 2\ns 1 1\n", budget=1)
