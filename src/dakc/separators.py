"""Enumeration of important s-t separators, plus brute-force definition checkers.

A separator here is a vertex set S (disjoint from {s, t}) whose removal leaves
t unreachable from s.  S is *important* when it is minimal and no separator of
equal or smaller size leaves a strictly larger set of vertices able to reach
t.  Importance in this orientation pushes separators toward s, which is the
arc-reversed form of the usual reachable-from-source convention, so the
enumerator runs the classical branching on the reversed graph with the roles
of s and t swapped.

Each branch asks for a minimum vertex cut.  The max flow behind it runs on
the split graph (an entry and an exit node per vertex) without building it:
the search walks the graph's adjacency tuples and keeps only the nonzero
flows, so a call allocates little more than its search queue.  One flow step,
``_max_flow``, serves two readers: ``_min_vertex_cut`` takes the sink side of
its residual graph, and ``disjoint_paths`` follows its flow from s to t into
internally vertex-disjoint paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import DirectedGraph, Mask, iter_vertices, reach, reverse, vertices_of, vset


@dataclass(frozen=True)
class SeparatorSet:
    """A vertex set claimed to separate s from t (context retained)."""

    vertices: Mask
    s: int
    t: int


def _check_endpoints(g: DirectedGraph, s: int, t: int, symmetric: bool) -> None:
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"s={s}, t={t} out of range for n={g.n}")
    if s == t:
        raise ValueError("s and t must be distinct")
    if g.has_arc(s, t):
        raise ValueError("s and t are adjacent: no s-t separator exists")
    if symmetric and g.has_arc(t, s):
        raise ValueError("s and t must be non-adjacent")


def is_separator(g: DirectedGraph, s: int, t: int, sep: Mask) -> bool:
    """True iff t is unreachable from s once ``sep`` is removed."""
    _check_endpoints(g, s, t, symmetric=False)
    if sep & (1 << s) or sep & (1 << t):
        raise ValueError("a separator may not contain s or t")
    if sep & ~g.full_mask:
        raise ValueError("separator contains vertices outside the graph")
    reached = reach(g, 1 << s, "forward", within=g.full_mask & ~sep)
    return not (reached >> t) & 1


def is_important(g: DirectedGraph, s: int, t: int, sep: Mask, h: int) -> bool:
    """Brute-force importance check, intended as a small-n test oracle.

    Scans every subset of size at most |sep| for a separator that keeps a
    strictly larger backward-reach of t; minimality is checked first over all
    proper subsets.  Exponential by design, so the size cap ``h`` is enforced.
    """
    _check_endpoints(g, s, t, symmetric=True)
    size = sep.bit_count()
    if size > h:
        raise ValueError(f"separator size {size} exceeds the cap h={h}")
    if not is_separator(g, s, t, sep):
        return False
    members = vertices_of(sep)
    for r in range(size):
        for sub in combinations(members, r):
            if is_separator(g, s, t, vset(sub)):
                return False  # a proper subset already separates
    own_reach = reach(g, 1 << t, "backward", within=g.full_mask & ~sep)
    others = [v for v in range(g.n) if v != s and v != t]
    for r in range(size + 1):
        for combo in combinations(others, r):
            cand = vset(combo)
            if not is_separator(g, s, t, cand):
                continue
            cand_reach = reach(g, 1 << t, "backward", within=g.full_mask & ~cand)
            if cand_reach != own_reach and own_reach & ~cand_reach == 0:
                return False  # dominated: strictly larger backward-reach
    return True


# ---------------------------------------------------------------------------
# Minimum vertex cuts via unit-capacity max flow on the split graph.
# Node 2v is the entry half of vertex v, node 2v+1 the exit half; the internal
# arc carries capacity 1 (unbounded for protected vertices), original arcs are
# unbounded.  The split graph is never built: the search walks g's adjacency
# tuples and stores only the nonzero flows.  The returned cut is the unique
# minimum cut closest to the sink.
# ---------------------------------------------------------------------------


def _max_flow(
    g: DirectedGraph, alive: Mask, sources: Mask, sink: int, limit: int
) -> tuple[int, dict[int, int], dict[tuple[int, int], int]]:
    """Augment a unit at a time from ``sources`` to ``sink`` inside ``alive``,
    stopping at the maximum or at ``limit + 1`` units, whichever comes first.

    Returns ``(flow, through, carried)``: the flow value, the flow on each
    vertex's internal arc and the flow on each original arc, nonzero entries
    only.  Sources and the sink have no vertex capacity.  The caller rules
    out an arc straight from a source to the sink, which would carry
    unbounded flow, and a sink that is a source or not alive.
    """
    out_adj, in_adj = g.out_adj, g.in_adj
    protected = sources | (1 << sink)
    through: dict[int, int] = {}  # vertex -> flow on its internal arc
    carried: dict[tuple[int, int], int] = {}  # arc (u, v) -> flow from exit(u) to entry(v)

    def bump(flows: dict, key, by: int) -> None:
        value = flows.get(key, 0) + by
        if value:
            flows[key] = value
        else:
            del flows[key]

    target = 2 * sink
    starts = [2 * v for v in vertices_of(sources)]
    flow = 0
    while flow <= limit:
        # BFS for an augmenting path in the residual graph.  With no arc from
        # a source to the sink, each path has a unit of residual capacity.
        parent = dict.fromkeys(starts, -1)
        queue = list(starts)
        for x in queue:
            v = x >> 1
            if x & 1:  # exit(v): along v's arcs, or back along its internal arc
                step = [2 * w for w in out_adj[v] if (alive >> w) & 1]
                if v in through:
                    step.append(x - 1)
            else:  # entry(v): through v if it has room, or back along used arcs
                step = [2 * u + 1 for u in in_adj[v] if (u, v) in carried]
                if (protected >> v) & 1 or v not in through:
                    step.append(x + 1)
            for y in step:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
            if target in parent:
                break
        else:
            break  # no augmenting path: the flow is maximum
        y = target
        x = parent[y]
        while x != -1:
            u, v = x >> 1, y >> 1
            if u == v:
                bump(through, u, -1 if x & 1 else 1)
            elif x & 1:
                bump(carried, (u, v), 1)
            else:
                bump(carried, (v, u), -1)
            y, x = x, parent[x]
        flow += 1
    return flow, through, carried


def _min_vertex_cut(
    g: DirectedGraph, alive: Mask, sources: Mask, sink: int, limit: int
) -> tuple[int, Mask] | None:
    """Minimum vertex cut separating ``sources`` from ``sink`` inside ``alive``.

    Returns ``(size, cut_mask)`` for the min cut closest to the sink, or None
    when every cut is larger than ``limit`` (including the uncuttable case of
    an arc straight from a source to the sink).  The flow value and the set
    of nodes that can reach the sink in the residual graph are the same for
    every maximum flow, so the result does not depend on which augmenting
    paths the search happens to take.
    """
    if (sources >> sink) & 1:
        return None
    if not (alive >> sink) & 1:
        return None if limit < 0 else (0, 0)  # nothing reaches a dead sink
    sources &= alive
    out_adj, in_adj = g.out_adj, g.in_adj
    if any((sources >> u) & 1 for u in in_adj[sink]):
        return None  # an arc straight from a source to the sink: no cut exists
    flow, through, carried = _max_flow(g, alive, sources, sink, limit)
    if flow > limit:
        return None

    # Sink side of the residual graph: nodes that can still reach the sink.
    protected = sources | (1 << sink)
    target = 2 * sink
    side = {target}
    queue = [target]
    for y in queue:
        v = y >> 1
        if y & 1:  # from entry(v) if v has room, from entry(w) back along v->w
            step = [2 * w for w in out_adj[v] if (v, w) in carried]
            if (protected >> v) & 1 or v not in through:
                step.append(y - 1)
        else:  # from exit(u) along any arc u->v, or back along v's internal arc
            step = [2 * u + 1 for u in in_adj[v] if (alive >> u) & 1]
            if v in through:
                step.append(y + 1)
        for x in step:
            if x not in side:
                side.add(x)
                queue.append(x)
    # a source's nodes never reach the sink (that would be an augmenting
    # path) and the sink's entry is in the set, so neither is ever cut
    cut = 0
    for y in side:
        if y & 1 and y - 1 not in side:
            cut |= 1 << (y >> 1)
    return flow, cut


def disjoint_paths(g: DirectedGraph, s: int, t: int, limit: int) -> list[tuple[int, ...]]:
    """A maximum set of internally vertex-disjoint s-t paths, each from s to t
    inclusive, or ``limit + 1`` of them when there are more.

    s and t have no vertex capacity, so several paths may leave s and several
    may end in t, each over its own arc.  The paths are read off the flow of
    ``_max_flow``: every other vertex carries at most one unit, so it has one
    flow arc in and one out, and the walk from each arc out of s ends in t.
    Flow that circulates away from s is never reached and is ignored.
    """
    _check_endpoints(g, s, t, symmetric=False)
    _, _, carried = _max_flow(g, g.full_mask, 1 << s, t, limit)
    firsts: list[int] = []
    succ: dict[int, int] = {}
    for u, v in carried:
        if u == s:
            firsts.append(v)
        else:
            succ[u] = v
    paths = []
    for v in sorted(firsts):
        path = [s, v]
        while v != t:
            v = succ[v]
            path.append(v)
        paths.append(tuple(path))
    return paths


def _is_important_std(rev: DirectedGraph, src: int, sink: int, sep: Mask) -> bool:
    """Importance in the standard orientation (maximize reach of ``src``),
    checked in polynomial time: S must be a minimal separator and must equal
    the minimum src-side cut closest to the sink for its own reach set.
    """
    alive = rev.full_mask & ~sep
    reached = reach(rev, 1 << src, "forward", within=alive)
    if (reached >> sink) & 1:
        return False
    for v in iter_vertices(sep):
        without = reach(rev, 1 << src, "forward", within=rev.full_mask & ~(sep & ~(1 << v)))
        if not (without >> sink) & 1:
            return False  # v is redundant, so sep is not minimal
    res = _min_vertex_cut(rev, rev.full_mask, reached, sink, limit=sep.bit_count())
    return res is not None and res[1] == sep


def enumerate_important_separators(
    g: DirectedGraph, s: int, t: int, h: int
) -> list[SeparatorSet]:
    """All important s-t separators of size at most ``h``, deduplicated and
    sorted by their vertex lists.

    Branches on the minimum cut closest to the target side: each cut vertex
    is either taken into the separator (budget shrinks) or surrendered to the
    protected side (the cut must then grow), which bounds the candidate tree.
    Candidates are then filtered through the importance check, so the output
    matches the brute-force definition exactly.
    """
    _check_endpoints(g, s, t, symmetric=True)
    if h < 0:
        raise ValueError("h must be nonnegative")
    rev = reverse(g)
    found: set[Mask] = set()

    def walk(alive: Mask, protected: Mask, chosen: Mask, budget: int) -> None:
        if budget < 0:
            return
        res = _min_vertex_cut(rev, alive, protected, s, limit=budget)
        if res is None:
            return
        lam, cut = res
        if lam == 0:
            found.add(chosen)
            return
        v = (cut & -cut).bit_length() - 1
        walk(alive & ~(1 << v), protected, chosen | (1 << v), budget - 1)
        walk(alive, protected | (1 << v), chosen, budget)

    walk(g.full_mask, 1 << t, 0, h)
    keep = [m for m in found if _is_important_std(rev, t, s, m)]
    keep.sort(key=lambda m: tuple(vertices_of(m)))
    return [SeparatorSet(vertices=m, s=s, t=t) for m in keep]
