"""Exact solver for acyclic inputs: one bounded search at the target size.

A sink of a core (a core vertex with no out-neighbour in the core) supplies
no in-arc to the rest of it, so dropping it leaves a solution.  A core of
more than p vertices thus shrinks to exactly p, and a search for cores of at
most p vertices decides the instance.
"""

from __future__ import annotations

from .core import Instance, Verdict, normalize, peel
from .graph import DirectedGraph, Mask, strongly_connected_components
from .solver_bounded import bounded_core_search


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


def solve_dag(inst: Instance) -> Verdict:
    """Exact YES/NO for DAGs."""
    require_acyclic(inst.graph)
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    res = bounded_core_search(nrm, nrm.p)
    if res.is_yes:
        return res
    return Verdict.no()
