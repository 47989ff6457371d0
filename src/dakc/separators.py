"""Enumeration of important s-t separators, plus brute-force definition checkers.

A separator here is a vertex set S (disjoint from {s, t}) whose removal leaves
t unreachable from s.  S is *important* when it is minimal and no separator of
equal or smaller size leaves a strictly larger set of vertices able to reach
t.  Importance in this orientation pushes separators toward s, which is the
arc-reversed form of the usual reachable-from-source convention, so the
enumerator runs the classical branching on the reversed graph with the roles
of s and t swapped.
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
# unbounded.  The returned cut is the unique minimum cut closest to the sink.
# ---------------------------------------------------------------------------


def _min_vertex_cut(
    g: DirectedGraph, alive: Mask, sources: Mask, sink: int, limit: int
) -> tuple[int, Mask] | None:
    """Minimum vertex cut separating ``sources`` from ``sink`` inside ``alive``.

    Returns ``(size, cut_mask)`` for the min cut closest to the sink, or None
    when every cut is larger than ``limit`` (including the uncuttable case of
    an arc straight from a source to the sink).
    """
    if (sources >> sink) & 1:
        return None
    big = limit + 3  # effectively infinite: real flow never reaches it
    super_src = 2 * g.n
    sink_node = 2 * sink
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {}

    def add_arc(a: int, b: int, c: int) -> None:
        if (a, b) not in cap:
            cap[(a, b)] = 0
            cap[(b, a)] = cap.get((b, a), 0)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        cap[(a, b)] += c

    for v in iter_vertices(alive):
        protected = bool((sources >> v) & 1) or v == sink
        add_arc(2 * v, 2 * v + 1, big if protected else 1)
        for w in g.out_adj[v]:
            if (alive >> w) & 1:
                add_arc(2 * v + 1, 2 * w, big)
    for v in iter_vertices(sources & alive):
        add_arc(super_src, 2 * v, big)

    flow = 0
    while flow <= limit:
        # BFS for an augmenting path in the residual graph
        parent = {super_src: super_src}
        queue = [super_src]
        head = 0
        while head < len(queue) and sink_node not in parent:
            a = queue[head]
            head += 1
            for b in adj.get(a, ()):
                if b not in parent and cap.get((a, b), 0) > 0:
                    parent[b] = a
                    queue.append(b)
        if sink_node not in parent:
            break
        bottleneck = big
        b = sink_node
        while b != super_src:
            a = parent[b]
            bottleneck = min(bottleneck, cap[(a, b)])
            b = a
        b = sink_node
        while b != super_src:
            a = parent[b]
            cap[(a, b)] -= bottleneck
            cap[(b, a)] += bottleneck
            b = a
        flow += bottleneck
    if flow > limit:
        return None

    # Sink side of the residual graph: nodes that can still reach the sink.
    preds: dict[int, list[int]] = {}
    for a, b in cap:
        preds.setdefault(b, []).append(a)
    sink_side = {sink_node}
    queue = [sink_node]
    head = 0
    while head < len(queue):
        b = queue[head]
        head += 1
        for a in preds.get(b, ()):
            if a not in sink_side and cap.get((a, b), 0) > 0:
                sink_side.add(a)
                queue.append(a)
    cut = 0
    for v in iter_vertices(alive & ~sources):
        if v != sink and 2 * v + 1 in sink_side and 2 * v not in sink_side:
            cut |= 1 << v
    return flow, cut


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
