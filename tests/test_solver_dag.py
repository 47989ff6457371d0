import random

import pytest

from dakc import (
    CyclicGraphError,
    DirectedGraph,
    Instance,
    oracle_solve,
    solve_dag,
    verify_solution,
    vset,
)
from helpers import cycle_graph, path_graph, random_dag_degree_capped

def test_solve_dag_examples():
    v = solve_dag(Instance(graph=path_graph(3), b=1, k=1, p=3))
    assert v.is_yes and v.solution.anchors == vset([0])

    join = DirectedGraph.from_arcs(3, [(0, 2), (1, 2)])
    v = solve_dag(Instance(graph=join, b=2, k=2, p=3))
    assert v.is_yes and v.solution.anchors == vset([0, 1])
    assert v.solution.core == vset([0, 1, 2])

    assert solve_dag(Instance(graph=join, b=1, k=2, p=3)).kind == "no"


def test_solve_dag_rejects_cycles_with_witness():
    with pytest.raises(CyclicGraphError) as exc:
        solve_dag(Instance(graph=cycle_graph(3), b=1, k=1, p=2))
    cycle = exc.value.cycle
    assert len(cycle) == 3
    assert "1 -> 2 -> 3 -> 1" in str(exc.value)


def test_solve_dag_matches_oracle():
    rng = random.Random(101)
    for _ in range(150):
        n = rng.randint(1, 10)
        g = random_dag_degree_capped(rng, n, 4, rng.uniform(0.2, 0.8))
        inst = Instance(
            graph=g, b=rng.randint(0, 2), k=rng.randint(1, 3), p=rng.randint(1, n)
        )
        got = solve_dag(inst)
        expect = oracle_solve(inst)
        assert got.kind == expect.kind
        if got.is_yes:
            assert verify_solution(inst, got.solution)

