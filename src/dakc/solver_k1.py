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
algorithm from the sources, and a graph whose ids are a topological order
needs only one backward pass over its arcs.  The plan is built once per
graph and kept in the graph's own table dict, so repeated solves on one
graph (the bisection steps of ``dakc max``) share it and it dies with its
graph.

The plan also keeps its cover searches, one per selection size, each a
branch and bound that lists, in lexicographic order, the selections whose
union beats its floor and every earlier union.  A query reads what a search
has listed and resumes it only as far as its own target: a YES stops at the
first cover, as a single solve always did, and a search that runs out is a
NO for every higher target.  The records are keyed by size, not budget, so
a solve with any b reads them, and the bisection steps of ``dakc max`` just
above the maximum coverage are NOs the records already hold.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import compress
from operator import lt, not_
from threading import Lock

from .core import Instance, Solution, Verdict, _fewest_first, _top_up, normalize
from .graph import DirectedGraph, Mask, vset


def partial_set_cover(
    sets: tuple[Mask, ...], budget: int, target: int, records: dict | None = None
) -> set[int] | None:
    """Indices of at most ``budget`` of ``sets`` whose union has at least
    ``target`` elements: the fewest sets, then the lexicographically first.
    Coverage only grows with the sets picked, so ``_fewest_first`` finds
    the fewest, from 0 to ``min(budget, len(sets))``.

    ``records`` maps a selection size to a search of ``_rising_unions`` at
    that size: its floor, the selections it has listed so far and the rest
    of it.  Every selection before a listed one covers less, so the first
    listed one that reaches a target above the floor is that target's
    answer.  Otherwise the search resumes and stops at the first selection
    that reaches the target; if it runs out, the target is out of reach.
    Only a target at or below the floor starts a new search.  Callers asking
    about the same ``sets`` again, with any budget or target, pass the same
    dict, one call at a time.
    """
    if records is None:
        records = {}

    def cover(size: int) -> set[int] | None:
        record = records.get(size)
        if record is None or target <= record[0]:
            record = records[size] = target - 1, [], _rising_unions(sets, size, target - 1)
        _, listed, rest = record
        for union, picked in listed:
            if union >= target:
                return set(picked)
        try:
            for union, picked in rest:
                listed.append((union, picked))
                if union >= target:
                    return set(picked)
        except BaseException:
            # a search cut short has not run out, so it proves no NO
            del records[size]
            raise
        return None

    return _fewest_first(cover, min(budget, len(sets)), 0)


def _rising_unions(sets: tuple[Mask, ...], size: int, floor: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield each selection of ``size`` sets, in lexicographic order, whose
    union is larger than ``floor`` and than every earlier selection's union,
    with that union's size; so the last one yielded is a largest union.

    Branch and bound: a branch is cut once the union of its picks and of
    every later set is no larger than the best union so far.  That bound
    only shrinks from one sibling to the next, so the first sibling it cuts
    ends the loop.  Up to the first selection it yields, the search cuts
    exactly what a search for one cover of ``floor + 1`` elements cuts, and
    it goes no further until asked for the next one.
    """
    if size == 0:
        if floor < 0:
            yield 0, ()
        return
    r = len(sets)
    suffix = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix[i] = suffix[i + 1] | sets[i]
    best = floor
    picked: list[int] = []

    def extend(start: int, need: int, covered: Mask) -> Iterator[tuple[int, tuple[int, ...]]]:
        nonlocal best
        if need == 1:
            for i in range(start, r):
                union = (covered | sets[i]).bit_count()
                if union > best:
                    best = union
                    yield best, (*picked, i)
            return
        for i in range(start, r - need + 1):
            if (covered | suffix[i]).bit_count() <= best:
                return
            picked.append(i)
            yield from extend(i + 1, need - 1, covered | sets[i])
            picked.pop()

    yield from extend(0, size, 0)


@dataclass(frozen=True)
class _Plan:
    """What ``solve_k1`` needs of a graph whatever b and p: the banked
    region, the residual sources in increasing id, and each source's reach
    set within the residual; and the records of the cover searches over
    those reach sets, which every solve on the graph reads and extends, one
    at a time under ``lock``, as the graph may be shared between threads."""

    banked: Mask
    sources: tuple[int, ...]
    reach_sets: tuple[Mask, ...]
    records: dict = field(default_factory=dict)
    lock: Lock = field(default_factory=Lock)


def _plan(g: DirectedGraph) -> _Plan:
    # kept where the graph keeps its cached tables, which equality ignores
    plan = g.__dict__.get("k1_plan")
    if plan is None:
        plan = g.__dict__["k1_plan"] = _sweep(g)
    return plan


def _sweep(g: DirectedGraph) -> _Plan:
    """The plan of ``g`` in one sweep.

    When every arc runs from a lower id to a higher one, the ids are a
    topological order, which one pass over the arc arrays tells.  Then the
    graph is a DAG, so nothing is banked, and the sources are the vertices
    of in-degree 0.  Read backwards, the arcs come by descending tail, so a
    head's reach set is final by the time an arc into it is read: each
    vertex reaches itself and whatever its successors reach.

    Any other graph is swept by Kahn's algorithm.  Peeling at threshold 1
    deletes a vertex once its in-degree drops to 0, which is Kahn's
    algorithm started from the sources.  So the released vertices are
    exactly the residual, in topological order, and the bank is everything
    never released (a banked vertex keeps a banked predecessor).  In reverse
    order, a vertex reaches itself and whatever its residual successors
    reach; a banked successor adds nothing, as its entry stays 0.  Every
    residual vertex has a source among its ancestors, so the sources' reach
    sets cover the residual.
    """
    tails, heads = g.tails, g.heads
    if all(map(lt, tails, heads)):
        sources = tuple(compress(range(g.n), map(not_, g.in_degrees)))
        reach_of = [1 << v for v in range(g.n)]
        for u, w in zip(reversed(tails), reversed(heads)):
            reach_of[u] |= reach_of[w]
        return _Plan(banked=0, sources=sources, reach_sets=tuple(map(reach_of.__getitem__, sources)))
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
        return Verdict.yes(_top_up(g, banked, p))

    # Residual DAG: anchoring a source engages exactly its reach set.
    sources = plan.sources
    if len(sources) <= b:
        return Verdict.yes(Solution(anchors=vset(sources), core=g.full_mask))

    with plan.lock:
        picked = partial_set_cover(plan.reach_sets, b, p - banked_size, plan.records)
    if picked is None:
        return Verdict.no()
    anchors = vset(sources[i] for i in picked)
    covered = 0
    for i in picked:
        covered |= plan.reach_sets[i]
    return Verdict.yes(Solution(anchors=anchors, core=covered | banked))
