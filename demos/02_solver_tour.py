"""A tour of the exact solvers, each checked against the oracle.

Four regimes get specialized algorithms: threshold 1 (cycle banking plus
partial set cover over source reach sets), 2k above the maximum degree
(cores are small, bounded search settles it), 2k equal to the maximum degree
(separator-guided guessing), and DAGs (one bounded search at the target size).
"""

import random

from dakc import (
    DirectedGraph,
    Instance,
    oracle_solve,
    solve_by_degree,
    solve_dag,
    solve_half_k,
    vertices_of,
)

rng = random.Random(7)


def show(title, inst, verdict):
    expect = oracle_solve(inst)
    agree = "agrees with oracle" if verdict.kind == expect.kind else "DISAGREES"
    extra = ""
    if verdict.is_yes:
        extra = f", anchors {[v + 1 for v in vertices_of(verdict.solution.anchors)]}"
    print(f"  {title}: {verdict.kind} via {verdict.solver or title}{extra}  [{agree}]")


print("threshold 1: a cycle feeds a tail, one more anchor engages a stray source")
g = DirectedGraph.from_arcs(6, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)])
inst = Instance(graph=g, b=1, k=1, p=6)
show("k=1", inst, solve_by_degree(inst))

print("\n2k > max degree: two feeders into one sink at k = 2")
g = DirectedGraph.from_arcs(3, [(0, 2), (1, 2)])
inst = Instance(graph=g, b=2, k=2, p=3)
show("high", inst, solve_by_degree(inst))

print("\n2k = max degree: a 20-vertex chain at k = 2 (max degree 4)")
print("  (arcs v-1 -> v and v-2 -> v, plus 20 -> 2; one anchor at vertex 1")
print("  keeps the whole chain, and no core is smaller)")
n = 20
arcs = [(v - 1, v) for v in range(1, n)] + [(v - 2, v) for v in range(2, n)]
g = DirectedGraph.from_arcs(n, arcs + [(n - 1, 1)])
inst = Instance(graph=g, b=1, k=2, p=3)
half = solve_half_k(inst)
show("half", inst, half)
q = (g.max_degree() * inst.p + 1) * inst.b
print(f"  the probe searches cores of at most {q} vertices; the separator")
print(f"  stage found this core of {half.solution.core.bit_count()} past it")

print("\nDAG at k = 2 with max degree 5 (outside both degree regimes):")
g = DirectedGraph.from_arcs(6, [(i, 5) for i in range(5)])
inst = Instance(graph=g, b=2, k=2, p=3)
show("dag", inst, solve_dag(inst))

print("\nrandom cross-check: dispatch vs oracle on 30 degree-4 digraphs")
disagreements = 0
for _ in range(30):
    n = rng.randint(2, 9)
    arcs = []
    deg = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and deg[u] < 4 and deg[v] < 4 and rng.random() < 0.3:
                arcs.append((u, v))
                deg[u] += 1
                deg[v] += 1
    inst = Instance(
        graph=DirectedGraph.from_arcs(n, arcs),
        b=rng.randint(0, 2),
        k=rng.choice([1, 2]),
        p=rng.randint(1, n),
    )
    if solve_by_degree(inst).kind != oracle_solve(inst).kind:
        disagreements += 1
print(f"  disagreements: {disagreements}")
