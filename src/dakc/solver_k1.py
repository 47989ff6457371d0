"""Exact solver for in-degree threshold 1.

Everything reachable from a cycle sustains itself at threshold 1, so that
region is banked first: it is exactly ``peel(G, 1)``, the survivors of
threshold-1 peeling.  The rest is a DAG closed under predecessors (a
successor of a banked vertex is reachable from a cycle too), so its sources
are the vertices of in-degree 0 in the whole graph, only sources can be
worth anchoring, and choosing which to anchor is a partial set cover over
their reach sets, taken within the residual.

The bank, the sources and their reach sets depend on the graph alone, not on
b or p, and all three come from one sweep: peeling at threshold 1 is Kahn's
algorithm from the sources.  The plan is built once per graph and kept in
the graph's own table dict, so repeated solves on one graph (the bisection
steps of ``dakc max``) share it and it dies with its graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import not_

from .core import Instance, Solution, Verdict, normalize
from .graph import DirectedGraph, Mask, vertices_of, vset


def partial_set_cover(sets: tuple[Mask, ...], budget: int, target: int) -> set[int] | None:
    """Indices of at most ``budget`` of ``sets`` whose union has at least
    ``target`` elements, by exhaustive search, smallest selections first.

    Selections of each size are tried in lexicographic index order, so the
    returned index set is deterministic (fewest sets, then lexicographically
    first).  A running suffix-union bound prunes branches that cannot reach
    the target even using every remaining set.  Coverage only grows with the
    sets picked, so the largest size, ``min(budget, r)``, is searched first:
    without a cover there is none at all.  With one, the smaller sizes are
    searched in ascending order, and the largest size's cover stands only if
    none of them has one.
    """
    r = len(sets)
    suffix = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix[i] = suffix[i + 1] | sets[i]

    def first_cover(start: int, need: int, covered: Mask) -> set[int] | None:
        if need == 0:
            return set() if covered.bit_count() >= target else None
        if r - start < need:
            return None
        if (covered | suffix[start]).bit_count() < target:
            return None
        for i in range(start, r):
            rest = first_cover(i + 1, need - 1, covered | sets[i])
            if rest is not None:
                rest.add(i)
                return rest
        return None

    top = min(budget, r)
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


def _plan(g: DirectedGraph) -> _Plan:
    # kept where the graph keeps its cached tables, which equality ignores
    plan = g.__dict__.get("k1_plan")
    if plan is None:
        plan = g.__dict__["k1_plan"] = _sweep(g)
    return plan


def _sweep(g: DirectedGraph) -> _Plan:
    """The plan of ``g`` in one sweep.

    Peeling at threshold 1 deletes a vertex once its in-degree drops to 0,
    which is Kahn's algorithm started from the sources, the vertices of
    in-degree 0.  So the released vertices are exactly the residual, in
    topological order, and the bank is everything never released (a banked
    vertex keeps a banked predecessor).  In reverse order, a vertex reaches
    itself and whatever its residual successors reach; a banked successor
    adds nothing, as its entry stays 0.  Every residual vertex has a source
    among its ancestors, so the sources' reach sets cover the residual.
    """
    out_adj = g.out_adj
    indeg = list(g.in_degrees)
    order = list(compress(range(g.n), map(not_, indeg)))
    sources = tuple(order)
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
    reach_sets = tuple(reach_of[s] for s in sources)
    residual = 0
    for mask in reach_sets:
        residual |= mask
    return _Plan(banked=g.full_mask & ~residual, sources=sources, reach_sets=reach_sets)


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

    picked = partial_set_cover(plan.reach_sets, b, p - banked_size)
    if picked is None:
        return Verdict.no()
    anchors = vset(sources[i] for i in picked)
    covered = 0
    for i in picked:
        covered |= plan.reach_sets[i]
    return Verdict.yes(Solution(anchors=anchors, core=covered | banked))
