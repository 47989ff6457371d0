"""Exact solver for acyclic inputs: bounded search at the target size, else
peel a sink and repeat.

A sink is joined to no later vertex, so a solution core of more than p
vertices stays a solution after dropping the sink; searching for cores of
exactly-target size between sink removals therefore loses nothing.
"""

from __future__ import annotations

from typing import Callable

from .core import Instance, Solution, Verdict, normalize, peel
from .graph import (
    DirectedGraph,
    Mask,
    induced_subgraph,
    lift_mask,
    strongly_connected_components,
)
from .solver_bounded import SearchConfig, bounded_core_search


class CyclicGraphError(ValueError):
    """The input graph is not acyclic; carries a witness cycle (0-based)."""

    def __init__(self, cycle: list[int]):
        pretty = " -> ".join(str(v + 1) for v in cycle + cycle[:1])
        super().__init__(f"graph is not acyclic: cycle {pretty}")
        self.cycle = cycle


def _find_cycle(g: DirectedGraph, comp: Mask) -> list[int]:
    """A directed cycle inside a strongly connected component of >= 2 vertices."""
    start = (comp & -comp).bit_length() - 1
    # walk forward inside the component until a vertex repeats
    seen_at: dict[int, int] = {}
    path: list[int] = []
    v = start
    while v not in seen_at:
        seen_at[v] = len(path)
        path.append(v)
        v = next(w for w in g.out_adj[v] if (comp >> w) & 1)
    return path[seen_at[v]:]


def is_acyclic(g: DirectedGraph) -> bool:
    """True iff ``g`` has no directed cycle.

    Threshold-1 peeling without anchors keeps exactly the vertices reachable
    from a cycle, so it empties the graph iff the graph is acyclic (Kahn's
    algorithm, in O(n + m)).
    """
    return peel(g, 1) == 0


def require_acyclic(g: DirectedGraph) -> None:
    if is_acyclic(g):
        return
    comp = next(comp for comp, cyclic in strongly_connected_components(g) if cyclic)
    raise CyclicGraphError(_find_cycle(g, comp))


def solve_dag(
    inst: Instance,
    cfg: SearchConfig | None = None,
    sink_choice: Callable[[list[int]], int] | None = None,
) -> Verdict:
    """Exact YES/NO for DAGs (exhaustive coloring mode; epsilon-bounded otherwise).

    ``sink_choice`` overrides which sink gets removed each round (default:
    lowest index).  The verdict does not depend on the choice; the hook exists
    so tests can demonstrate exactly that, and is not part of the public
    contract.
    """
    require_acyclic(inst.graph)
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    b, k, p = nrm.b, nrm.k, nrm.p
    cur = nrm.graph
    to_parent = tuple(range(cur.n))
    total_trials = 0
    last_note = ""
    while True:
        res = bounded_core_search(Instance(graph=cur, b=b, k=k, p=p), p, cfg)
        total_trials += res.trials or 0
        last_note = res.note or last_note
        if res.is_yes:
            lifted = Solution(
                anchors=lift_mask(res.solution.anchors, to_parent),
                core=lift_mask(res.solution.core, to_parent),
            )
            return Verdict.yes(lifted, trials=total_trials, note=res.note)
        if cur.n == p:
            return Verdict.no(trials=total_trials, note=last_note)
        sinks = [v for v in range(cur.n) if cur.out_degrees[v] == 0]
        drop = sinks[0] if sink_choice is None else sink_choice(sinks)
        if drop not in sinks:
            raise ValueError(f"sink_choice returned {drop}, which is not a sink")
        sub = induced_subgraph(cur, cur.full_mask & ~(1 << drop))
        to_parent = tuple(to_parent[old] for old in sub.to_parent)
        cur = sub.graph
