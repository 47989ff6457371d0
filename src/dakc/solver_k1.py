"""Exact solver for in-degree threshold 1.

Everything reachable from a cycle sustains itself at threshold 1, so that
region is banked first: it is exactly ``peel(G, 1)``, the survivors of
threshold-1 peeling.  The rest is a DAG closed under predecessors (a
successor of a banked vertex is reachable from a cycle too), so its sources
are the vertices of in-degree 0 in the whole graph, only sources can be
worth anchoring, and choosing which to anchor is a partial set cover over
their reach sets, taken within the residual.

The bank, the sources and their reach sets depend on the graph alone, not on
b or p.  All the reach sets come from one sweep over the residual in reverse
topological order.  They are computed once per graph and kept in a memo that
holds the graph weakly, so repeated solves on one graph (the bisection steps
of ``dakc max``) share them and an entry dies with its graph.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .core import Instance, Solution, Verdict, normalize, peel
from .graph import DirectedGraph, Mask, vertices_of, vset


@dataclass(frozen=True)
class SetCoverQuery:
    """Cover at least ``target`` of ``universe`` elements with <= ``budget`` sets."""

    universe: int
    sets: tuple[Mask, ...]
    budget: int
    target: int


def partial_set_cover(q: SetCoverQuery) -> set[int] | None:
    """Exact partial set cover by exhaustive search, smallest selections first.

    Selections of each size are tried in lexicographic index order, so the
    returned index set is deterministic (fewest sets, then lexicographically
    first).  A running suffix-union bound prunes branches that cannot reach
    the target even using every remaining set.  Coverage only grows with the
    sets picked, so the largest size, ``min(budget, r)``, is searched first:
    without a cover there is none at all.  With one, the smaller sizes are
    searched in ascending order, and the largest size's cover stands only if
    none of them has one.
    """
    r = len(q.sets)
    suffix = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix[i] = suffix[i + 1] | q.sets[i]

    def first_cover(start: int, need: int, covered: Mask) -> set[int] | None:
        if need == 0:
            return set() if covered.bit_count() >= q.target else None
        if r - start < need:
            return None
        if (covered | suffix[start]).bit_count() < q.target:
            return None
        for i in range(start, r):
            rest = first_cover(i + 1, need - 1, covered | q.sets[i])
            if rest is not None:
                rest.add(i)
                return rest
        return None

    top = min(q.budget, r)
    found = first_cover(0, top, 0)
    if found is None:
        return None
    for size in range(top):
        smaller = first_cover(0, size, 0)
        if smaller is not None:
            return smaller
    return found


@dataclass(frozen=True)
class _Plan:
    """What ``solve_k1`` needs of a graph whatever b and p: the banked
    region, the residual sources in increasing id, and each source's reach
    set within the residual."""

    banked: Mask
    sources: tuple[int, ...]
    reach_sets: tuple[Mask, ...]


# keyed weakly so that a plan never keeps its graph alive
_plans: "weakref.WeakKeyDictionary[DirectedGraph, _Plan]" = weakref.WeakKeyDictionary()


def _plan(g: DirectedGraph) -> _Plan:
    plan = _plans.get(g)
    if plan is None:
        # peeling at threshold 1 deletes every in-degree-0 vertex first, so
        # the residual sources are all of them
        sources = tuple(vertices_of(g.in_degree_below[1]))
        plan = _plans[g] = _Plan(
            banked=peel(g, 1), sources=sources, reach_sets=_residual_reach(g, sources)
        )
    return plan


def _residual_reach(g: DirectedGraph, sources: tuple[int, ...]) -> tuple[Mask, ...]:
    """Each source's reach set within the residual, all in one sweep.

    The residual is closed under predecessors, so a residual vertex keeps
    its whole in-degree there, and Kahn's algorithm from the sources orders
    exactly the residual topologically (a banked vertex keeps a banked
    predecessor and is never released).  In reverse order, a vertex reaches
    itself and whatever its residual successors reach; a banked successor
    adds nothing, as its entry stays 0.
    """
    out_adj = g.out_adj
    indeg = list(g.in_degrees)
    order = list(sources)
    for v in order:
        for w in out_adj[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    reach_of = [0] * g.n
    for v in reversed(order):
        mask = 1 << v
        for w in out_adj[v]:
            mask |= reach_of[w]
        reach_of[v] = mask
    return tuple(reach_of[s] for s in sources)


def solve_k1(inst: Instance) -> Verdict:
    """Exact YES/NO with witness for k = 1 instances."""
    if inst.k != 1:
        raise ValueError(f"solve_k1 requires k = 1, got k = {inst.k}")
    nrm = normalize(inst)
    if isinstance(nrm, Verdict):
        return nrm
    g, b, p = nrm.graph, nrm.b, nrm.p
    plan = _plan(g)
    banked = plan.banked
    banked_size = banked.bit_count()
    if b >= p - banked_size:
        need = p - banked_size
        extra = vset(vertices_of(g.full_mask & ~banked)[:need]) if need > 0 else 0
        return Verdict.yes(Solution(anchors=extra, core=extra | banked))

    # Residual DAG: anchoring a source engages exactly its reach set.
    sources = plan.sources
    if len(sources) <= b:
        return Verdict.yes(Solution(anchors=vset(sources), core=g.full_mask))

    picked = partial_set_cover(
        SetCoverQuery(
            universe=g.n - banked_size,
            sets=plan.reach_sets,
            budget=b,
            target=p - banked_size,
        )
    )
    if picked is None:
        return Verdict.no()
    anchors = vset(sources[i] for i in picked)
    covered = 0
    for i in picked:
        covered |= plan.reach_sets[i]
    return Verdict.yes(Solution(anchors=anchors, core=covered | banked))
