"""Enumeration of important s-t separators, plus brute-force definition checkers.

A separator here is a vertex set S (disjoint from {s, t}) whose removal leaves
t unreachable from s.  S is *important* when it is minimal and no separator of
equal or smaller size leaves a strictly larger set of vertices able to reach
t.

Each branch asks for a minimum vertex cut.  The max flow behind it runs on
the split graph (an entry and an exit node per vertex) without building it.
Every arc carries 0 or 1 unit, so the flow is a few vertex bitmasks, and each
search grows a mask of entry nodes and a mask of exit nodes from the graph's
``out_mask``/``in_mask`` rows, a level at a time.  One flow step,
``_max_flow``, serves two readers: ``_min_vertex_cut`` takes the cut that
its last, failed search leaves, and ``disjoint_paths`` follows its flow from
s to t into internally vertex-disjoint paths.  The flow step reads only the
rows, so a caller may patch a copy of them in place, and it may start from
paths already known to be disjoint instead of from zero: half-k stage 3
repairs one flow per deletion guess that way.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .graph import DirectedGraph, Mask, reach, vertices_of, vset


def _check_endpoints(g: DirectedGraph, s: int, t: int) -> None:
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"s={s}, t={t} out of range for n={g.n}")
    if s == t:
        raise ValueError("s and t must be distinct")
    if g.has_arc(s, t):
        raise ValueError("s and t are adjacent: no s-t separator exists")


def is_separator(g: DirectedGraph, s: int, t: int, sep: Mask) -> bool:
    """True iff t is unreachable from s once ``sep`` is removed."""
    _check_endpoints(g, s, t)
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
    _check_endpoints(g, s, t)
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
# Vertex v becomes an entry node and an exit node joined by an internal arc
# entry(v) -> exit(v) of capacity 1 (unbounded for protected vertices: the
# sources and the sinks); each arc u -> w becomes exit(u) -> entry(w) with
# unbounded capacity.  The split graph is never built.  With no arc from a
# source to a sink every arc carries 0 or 1 unit: at most one unit enters
# an unprotected vertex, and no augmenting path enters a source's entry or
# leaves a sink's.  So the flow is a ``through`` mask, the unprotected
# vertices whose internal arc carries a unit, plus per-vertex masks of the
# arcs that carry one.  Every residual arc joins an entry node and an exit
# node, so each search steps from a mask of entry nodes to a mask of exit
# nodes and back.  The returned cut is the unique minimum cut closest to the
# sources.
# ---------------------------------------------------------------------------


def _max_flow(
    out_mask: Sequence[Mask],
    in_mask: Sequence[Mask],
    alive: Mask,
    sources: Mask,
    sinks: Mask,
    limit: int,
    start: Sequence[tuple[int, ...]] = (),
) -> tuple[int, Mask, list[Mask], list[Mask], Mask | None]:
    """Augment a unit at a time from ``sources`` to ``sinks`` inside
    ``alive`` of the graph with rows ``out_mask`` and ``in_mask``, stopping
    at the maximum or at ``limit + 1`` units, whichever comes first.

    The flow starts from ``start``: paths from a source to a sink inside
    ``alive``, over arcs of the graph, that share no vertex but their ends,
    one unit each.  Augmenting paths repair any feasible flow into a
    maximum one, so the value does not depend on the start.

    Returns ``(flow, through, out_flow, in_flow, cut)``: the flow value, the
    unprotected vertices whose internal arc carries a unit, per vertex v
    the heads of v's arcs that carry a unit and the tails of the arcs into v
    that do, and the minimum cut closest to the sources, or None when the
    flow passed ``limit``.  Sources and sinks have no vertex capacity.  The
    caller rules out an arc straight from a source to a sink, which would
    carry unbounded flow, and a sink that is a source.
    """
    through = 0
    out_flow = [0] * len(out_mask)
    in_flow = [0] * len(out_mask)
    for path in start:
        for u, w in zip(path, path[1:]):
            out_flow[u] |= 1 << w
            in_flow[w] |= 1 << u
        for v in path[1:-1]:
            through |= 1 << v
    flow = len(start)
    while flow <= limit:
        # Breadth-first search for a shortest augmenting path, a level at a
        # time: entries[i] holds the entry nodes first reached after 2i
        # steps, exits[i] the exit nodes first reached after 2i + 1.
        entries: list[Mask] = []
        exits: list[Mask] = []
        seen_in = front = sources
        seen_out = 0
        while front and not front & sinks:
            entries.append(front)
            # entry(v) -> exit(v) if v has room; entry(w) -> exit(u) back
            # along a flow arc u -> w, which only a vertex with flow has
            nxt = front & ~through
            rest = front & through
            while rest:
                low = rest & -rest
                rest ^= low
                nxt |= in_flow[low.bit_length() - 1]
            nxt &= ~seen_out
            seen_out |= nxt
            exits.append(nxt)
            # exit(v) -> entry(w) along any arc v -> w; exit(v) -> entry(v)
            # back along v's internal arc if it carries a unit
            front = nxt & through
            rest = nxt
            while rest:
                low = rest & -rest
                rest ^= low
                front |= out_mask[low.bit_length() - 1]
            front &= alive & ~seen_in
            seen_in |= front
        if not front:
            # The flow is maximum.  The search reached the source side of
            # the residual graph, and the cut closest to the sources is the
            # vertices whose entry lies on that side and whose exit does not.
            return flow, through, out_flow, in_flow, seen_in & ~seen_out
        # Walk back from the lowest sink's entry a level at a time, to the
        # lowest predecessor on the level below, augmenting on the way.  Each
        # node of the path has a level of its own, so no step reads state
        # that a later step of the path (an earlier one of the walk) has
        # changed.
        hit = front & sinks
        w = (hit & -hit).bit_length() - 1
        for i in range(len(exits) - 1, -1, -1):
            if (exits[i] & through) >> w & 1:
                u = w  # back along w's internal arc
                through ^= 1 << w
            else:
                tails = exits[i] & in_mask[w]
                u = (tails & -tails).bit_length() - 1
                out_flow[u] |= 1 << w
                in_flow[w] |= 1 << u
            if (entries[i] & ~through) >> u & 1:
                w = u  # through u's internal arc
                if i:  # level 0 holds the sources, which have no capacity
                    through |= 1 << u
            else:
                heads = entries[i] & out_flow[u]
                w = (heads & -heads).bit_length() - 1
                out_flow[u] ^= 1 << w  # back along the flow arc u -> w
                in_flow[w] ^= 1 << u
        flow += 1
    return flow, through, out_flow, in_flow, None


def _min_vertex_cut(
    g: DirectedGraph, alive: Mask, source: int, sinks: Mask, limit: int
) -> tuple[int, Mask] | None:
    """Minimum vertex cut separating ``source`` from ``sinks`` inside ``alive``.

    Returns ``(size, cut_mask)`` for the min cut closest to the source, or
    None when every cut is larger than ``limit`` (including the uncuttable
    case of an arc straight from the source to a sink).  The flow value and
    the set of nodes that the source reaches in the residual graph are the
    same for every maximum flow, so the result does not depend on which
    augmenting paths the search happens to take.

    The caller guarantees that ``source`` is alive and not a sink, and that
    every sink is alive.  The enumerator never cuts or surrenders s, since a
    source has no capacity, and it takes its sinks from t and from the cuts,
    which lie inside ``alive``; the importance check cuts only once s no
    longer reaches t.
    """
    if g.out_mask[source] & sinks:
        return None  # an arc straight from the source to a sink: no cut exists
    flow, _, _, _, cut = _max_flow(g.out_mask, g.in_mask, alive, 1 << source, sinks, limit)
    return None if cut is None else (flow, cut)


def disjoint_paths(g: DirectedGraph, s: int, t: int, limit: int) -> list[tuple[int, ...]]:
    """A maximum set of internally vertex-disjoint s-t paths, each from s to t
    inclusive, or ``limit + 1`` of them when there are more.

    s and t have no vertex capacity, so several paths may leave s and several
    may end in t, each over its own arc.  The paths are read off the flow of
    ``_max_flow``, with t as the one sink: every other vertex carries at most
    one unit, so it has one flow arc in and one out, and the walk from each
    arc out of s ends in t.
    Flow that circulates away from s is never reached and is ignored.
    """
    _check_endpoints(g, s, t)
    out_flow = _max_flow(g.out_mask, g.in_mask, g.full_mask, 1 << s, 1 << t, limit)[2]
    paths = []
    for v in vertices_of(out_flow[s]):
        path = [s, v]
        while v != t:
            v = out_flow[v].bit_length() - 1
            path.append(v)
        paths.append(tuple(path))
    return paths


def _is_important_std(g: DirectedGraph, s: int, t: int, sep: Mask) -> bool:
    """Importance checked with one min cut: S must separate s from t and
    must equal the minimum cut closest to s from the vertices that still
    reach t once S is gone (Marx 2006).

    Minimality needs no check of its own.  A proper subset of S that
    separates s from t also cuts s from that set, since the set reaches t
    without passing S, so the minimum cut is smaller than S and cannot equal
    it.
    """
    reaching = reach(g, 1 << t, "backward", within=g.full_mask & ~sep)
    if (reaching >> s) & 1:
        return False
    res = _min_vertex_cut(g, g.full_mask, s, reaching, limit=sep.bit_count())
    return res is not None and res[1] == sep


def enumerate_important_separators(
    g: DirectedGraph, s: int, t: int, h: int
) -> list[Mask]:
    """The vertex masks of all important s-t separators of size at most
    ``h``, deduplicated and sorted by their vertex lists.

    Branches on the minimum cut closest to s, with t and every vertex
    surrendered so far as the sinks: each cut vertex is either taken into
    the separator (budget shrinks) or surrendered to the sinks (the cut must
    then grow), which bounds the candidate tree.  Candidates are then
    filtered through the importance check, so the output matches the
    brute-force definition exactly.
    """
    _check_endpoints(g, s, t)
    if h < 0:
        raise ValueError("h must be nonnegative")
    found: set[Mask] = set()

    def walk(alive: Mask, sinks: Mask, chosen: Mask, budget: int) -> None:
        res = _min_vertex_cut(g, alive, s, sinks, limit=budget)
        if res is None:
            return
        lam, cut = res
        if lam == 0:
            found.add(chosen)
            return
        v = (cut & -cut).bit_length() - 1
        walk(alive & ~(1 << v), sinks, chosen | (1 << v), budget - 1)
        walk(alive, sinks | (1 << v), chosen, budget)

    walk(g.full_mask, 1 << t, 0, h)
    keep = [m for m in found if _is_important_std(g, s, t, m)]
    keep.sort(key=lambda m: tuple(vertices_of(m)))
    return keep
